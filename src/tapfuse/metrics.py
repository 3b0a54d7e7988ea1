"""Evaluation metrics for point tracks.

TAP-style position/visibility metrics (delta_avg_vis, OA, AJ), feature
tracking ages (FA, EFA), and the speed-weighted success curve with its
AUC. Position thresholds follow the 256-px-normalized convention: pixel
errors are rescaled by 256 / image_height before comparison.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import Domain, GridMismatch, ZeroTotalSpeed
from .synth import SCENE_DOMAINS
from .tracker import TrackSet

DEFAULT_THRESHOLDS = (1.0, 2.0, 4.0, 8.0, 16.0)
DEFAULT_AGE_THRESHOLD = 8.0
# a position threshold, in normalized px, and the age threshold, in px
THRESHOLD_DOMAIN = Domain(0, above=True)
AGE_THRESHOLD_DOMAIN = Domain(0)


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
    _check_thresholds(thresholds)
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
    _check_thresholds(thresholds)
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
    AGE_THRESHOLD_DOMAIN.check("err_threshold", err_threshold, GridMismatch)
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


def speed_weighted_success(rve: np.ndarray, gt_speed: np.ndarray
                           ) -> tuple[np.ndarray, float]:
    """Speed-weighted success curve on xi = 0, 0.01, ..., 1 and its
    trapezoidal AUC.

    S(xi) = sum(|v_gt| * [RVE < xi]) / sum(|v_gt|). Every RVE must be
    finite and every speed finite and >= 0.
    """
    rve = np.asarray(rve, dtype=np.float64)
    gt_speed = np.asarray(gt_speed, dtype=np.float64)
    if rve.shape != gt_speed.shape:
        raise GridMismatch("rve/gt_speed shape mismatch")
    if not np.isfinite(rve).all():
        raise GridMismatch("rve must be finite")
    if not (np.isfinite(gt_speed) & (gt_speed >= 0)).all():
        raise GridMismatch("ground-truth speeds must be finite and >= 0")
    total = gt_speed.sum()
    if total <= 0:
        raise ZeroTotalSpeed("ground-truth speeds sum to zero")
    grid = np.linspace(0.0, 1.0, 101)
    curve = np.array([np.sum(gt_speed * (rve < xi)) / total for xi in grid])
    auc = float(np.trapezoid(curve, grid))
    return curve, auc


def _check_thresholds(thresholds: tuple[float, ...]) -> None:
    """Raise GridMismatch for no thresholds or one outside THRESHOLD_DOMAIN."""
    if not thresholds:
        raise GridMismatch("thresholds must be non-empty")
    for th in thresholds:
        THRESHOLD_DOMAIN.check("threshold", th, GridMismatch)


def threshold_keys(thresholds: tuple[float, ...]) -> list[str]:
    """Each threshold's per_threshold key, f"{th:g}". Thresholds that print
    alike would share one entry, so they raise GridMismatch naming it, as
    do no thresholds and one outside THRESHOLD_DOMAIN."""
    _check_thresholds(thresholds)
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
