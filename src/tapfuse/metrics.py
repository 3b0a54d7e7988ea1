"""Evaluation metrics for point tracks.

TAP-style position/visibility metrics (delta_avg_vis, OA, AJ), feature
tracking ages (FA, EFA), ground-truth displacement-outlier smoothing, the
speed-weighted success curve with its AUC, and PCA feature-dispersion
analysis. Position thresholds follow the 256-px-normalized convention:
pixel errors are rescaled by 256 / image_height before comparison.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatch, ZeroTotalSpeed
from .synth import SCENE_DOMAINS
from .tracker import TrackSet

DEFAULT_THRESHOLDS = (1.0, 2.0, 4.0, 8.0, 16.0)
DEFAULT_AGE_THRESHOLD = 8.0
DEFAULT_SMOOTH_CUTOFF = 0.1


@dataclass(frozen=True)
class EvalPair:
    predicted: TrackSet
    reference: TrackSet
    image_height: int

    def __post_init__(self):
        p, r = self.predicted, self.reference
        if p.positions.shape != r.positions.shape:
            raise GridMismatch(
                f"track shapes differ: {p.positions.shape} vs {r.positions.shape}")
        if not np.array_equal(p.times, r.times):
            raise GridMismatch("time grids differ")
        SCENE_DOMAINS["height"].check("EvalPair.image_height",
                                      self.image_height, GridMismatch)

    @cached_property
    def errors(self) -> np.ndarray:
        """Euclidean position error per (query, step), in pixels."""
        return np.linalg.norm(self.predicted.positions - self.reference.positions,
                              axis=2)

    @cached_property
    def normalized_errors(self) -> np.ndarray:
        return self.errors * (256.0 / self.image_height)


@dataclass
class MetricReport:
    # each score is None where undefined: a pair without tracks
    aj: float | None
    delta_avg_vis: float | None
    oa: float | None
    fa: float | None
    efa: float | None
    thresholds: tuple[float, ...]
    per_threshold: dict[str, dict[str, float | None]]
    per_track: list[dict[str, float]]

    def to_json(self) -> str:
        return json.dumps({
            "aj": self.aj, "delta_avg_vis": self.delta_avg_vis, "oa": self.oa,
            "fa": self.fa, "efa": self.efa,
            "thresholds": list(self.thresholds),
            "per_threshold": self.per_threshold,
            "per_track": self.per_track,
        }, indent=2, allow_nan=False)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        keys = ["aj", "delta_avg_vis", "oa", "fa", "efa"]
        writer.writerow(keys)
        writer.writerow([getattr(self, k) for k in keys])
        return buf.getvalue()


def delta_avg_vis(pair: EvalPair,
                  thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS) -> float:
    """Fraction of reference-visible points with error under each threshold,
    averaged over thresholds."""
    if not thresholds:
        raise GridMismatch("thresholds must be non-empty")
    err = pair.normalized_errors
    vis = pair.reference.visibility.astype(bool)
    if not vis.any():
        return 0.0
    fracs = [np.mean(err[vis] < th) for th in thresholds]
    return float(np.mean(fracs))


def occlusion_accuracy(pair: EvalPair) -> float | None:
    """Fraction of (query, step) pairs with matching visibility; None when
    there are no pairs."""
    match = pair.predicted.visibility == pair.reference.visibility
    return float(np.mean(match)) if match.size else None


def average_jaccard(pair: EvalPair,
                    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS) -> float:
    if not thresholds:
        raise GridMismatch("thresholds must be non-empty")
    err = pair.normalized_errors
    pvis = pair.predicted.visibility.astype(bool)
    rvis = pair.reference.visibility.astype(bool)
    scores = []
    for th in thresholds:
        close = err < th
        tp = np.sum(pvis & rvis & close)
        fp = np.sum(pvis & (~rvis | ~close))
        fn = np.sum(rvis & (~pvis | ~close))
        denom = tp + fp + fn
        scores.append(1.0 if denom == 0 else tp / denom)
    return float(np.mean(scores))


def track_ages(pair: EvalPair,
               err_threshold: float = DEFAULT_AGE_THRESHOLD) -> np.ndarray:
    """Per-track age: fraction of the track duration survived before the
    first step whose pixel error exceeds the threshold."""
    err = pair.errors
    times = pair.predicted.times.astype(np.float64)
    duration = times[-1] - times[0]
    ages = np.zeros(err.shape[0])
    for qi in range(err.shape[0]):
        failing = np.flatnonzero(err[qi] > err_threshold)
        if failing.size == 0:
            ages[qi] = 1.0
        elif failing[0] == 0:
            ages[qi] = 0.0
        else:
            ages[qi] = (times[failing[0] - 1] - times[0]) / duration
    return ages


def feature_age(pair: EvalPair,
                err_threshold: float = DEFAULT_AGE_THRESHOLD
                ) -> tuple[float, float | None]:
    """(FA, EFA): FA averages ages over tracks that survive their first
    step; EFA averages over all tracks, immediate failures counted at 0,
    and is None when there are no tracks."""
    return _fa_efa(pair, track_ages(pair, err_threshold), err_threshold)


def _fa_efa(pair: EvalPair, ages: np.ndarray, err_threshold: float
            ) -> tuple[float, float | None]:
    survivors = pair.errors[:, 0] <= err_threshold
    fa = float(np.mean(ages[survivors])) if survivors.any() else 0.0
    efa = float(np.mean(ages)) if ages.size else None
    return fa, efa


def smooth_gt(positions: np.ndarray, image_height: int,
              displacement_cutoff: float = DEFAULT_SMOOTH_CUTOFF) -> np.ndarray:
    """Replace displacement-outlier steps by linear interpolation of their
    neighbors, in a single pass.

    A step is an outlier when its displacement from both the previous and
    the next step exceeds cutoff * image_height. Endpoints are kept.
    """
    pos = np.asarray(positions, dtype=np.float64).copy()
    if len(pos) < 3:
        return pos
    limit = displacement_cutoff * image_height
    disp = np.linalg.norm(np.diff(positions, axis=0), axis=1)
    spikes = np.flatnonzero((disp[:-1] > limit) & (disp[1:] > limit)) + 1
    for i in spikes:
        pos[i] = 0.5 * (positions[i - 1] + positions[i + 1])
    return pos


def speed_weighted_success(rve: np.ndarray, gt_speed: np.ndarray,
                           xi_grid: np.ndarray | None = None
                           ) -> tuple[np.ndarray, float]:
    """Speed-weighted success curve and its trapezoidal AUC on [0, 1].

    S(xi) = sum(|v_gt| * [RVE < xi]) / sum(|v_gt|).
    """
    rve = np.asarray(rve, dtype=np.float64)
    gt_speed = np.asarray(gt_speed, dtype=np.float64)
    if rve.shape != gt_speed.shape:
        raise GridMismatch("rve/gt_speed shape mismatch")
    total = gt_speed.sum()
    if total <= 0:
        raise ZeroTotalSpeed("ground-truth speeds sum to zero")
    if xi_grid is None:
        xi_grid = np.linspace(0.0, 1.0, 101)
    xi_grid = np.asarray(xi_grid, dtype=np.float64)
    curve = np.array([np.sum(gt_speed * (rve < xi)) / total for xi in xi_grid])
    auc = float(np.trapezoid(curve, xi_grid))
    return curve, auc


def pca_dispersion(features: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Project per-point, per-time feature vectors onto the pooled top-2
    principal axes (eigenvectors of the pooled covariance, each signed so
    that its largest-magnitude entry is positive).

    features: (P, T, d). Returns (projections (P, T, 2), per-point means
    (P, 2), per-point 2x2 covariances, axes (2, d)). Rank-deficient pooled
    data yields a zero second axis.
    """
    features = np.asarray(features, dtype=np.float64)
    p, t, d = features.shape
    pooled = features.reshape(p * t, d)
    center = pooled.mean(axis=0)
    x = pooled - center
    cov = x.T @ x / max(len(x) - 1, 1)
    evals, evecs = np.linalg.eigh(cov)  # ascending eigenvalues
    axes = np.zeros((2, d))
    for i in range(min(d, 2)):
        ax = evecs[:, -1 - i]
        axes[i] = ax * np.sign(ax[np.argmax(np.abs(ax))])
    if d < 2 or evals[-2] <= max(evals[-1], 1.0) * 1e-12:
        axes[1] = 0.0
    proj = (features - center) @ axes.T
    means = proj.mean(axis=1)
    covs = np.zeros((p, 2, 2))
    for qi in range(p):
        centered = proj[qi] - means[qi]
        covs[qi] = centered.T @ centered / max(t - 1, 1)
    return proj, means, covs, axes


def threshold_keys(thresholds: tuple[float, ...]) -> list[str]:
    """Each threshold's per_threshold key, f"{th:g}". Thresholds that print
    alike would share one entry, so they raise GridMismatch naming it."""
    keys = [f"{th:g}" for th in thresholds]
    for key in keys:
        if keys.count(key) > 1:
            raise GridMismatch(f"thresholds {list(thresholds)} share the "
                               f"per-threshold key {key!r}")
    return keys


def evaluate(pair: EvalPair,
             thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS,
             err_threshold: float = DEFAULT_AGE_THRESHOLD) -> MetricReport:
    """Compute the full metric suite for one prediction/reference pair. A
    pair without tracks has no score: every one of them is None."""
    ages = track_ages(pair, err_threshold)
    fa, efa = _fa_efa(pair, ages, err_threshold)

    def score(metric, ths):
        return metric(pair, ths) if ages.size else None

    per_threshold = {
        key: {"jaccard": score(average_jaccard, (th,)),
              "delta_vis": score(delta_avg_vis, (th,))}
        for key, th in zip(threshold_keys(thresholds), thresholds)}
    per_track = [{"age": float(age), "mean_error_px": float(row.mean())}
                 for age, row in zip(ages, pair.errors)]
    return MetricReport(
        aj=score(average_jaccard, thresholds),
        delta_avg_vis=score(delta_avg_vis, thresholds),
        oa=occlusion_accuracy(pair),
        fa=fa if ages.size else None, efa=efa,
        thresholds=tuple(thresholds),
        per_threshold=per_threshold,
        per_track=per_track,
    )
