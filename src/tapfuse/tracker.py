"""Trajectory refinement and sliding-window tracking orchestration.

The refiner samples bilinear feature patches around current position
estimates on the 3-level pyramid, correlates them against the window's
anchor patch, encodes the correlation matrices with per-level MLPs, and
runs a small spatio-temporal transformer that predicts residual position
and visibility updates. The pyramid stays at token resolution: level l
is read at stride patch / 2**l, each token covering a 2**l x 2**l block
of sample points. track_sequence drives the transient-fusion state
machine along the query-time grid and slides W-step windows with 50%
overlap over the resulting states, decoding each window once into a
pyramid that all queries share.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import GridMismatch, QueryOutOfRange, ShapeMismatch
from .events import EventStream, Timeline, bin_events, exposure_window_events
from .fusion import (
    FeaturePyramid,
    TransientState,
    _attention_block,
    _layer_norm,
    decode_pyramid,
    sinusoidal_encoding,
    taf_init,
    taf_update,
    temporal_attention,
)
from .weights import WeightBundle


@dataclass(frozen=True)
class QueryPoint:
    t_q: int
    x: float
    y: float


@dataclass
class TrackState:
    """One query's per-window estimate: positions, visibility logits."""

    positions: np.ndarray          # W x 2
    visibility_logits: np.ndarray  # W
    window_times: np.ndarray       # W, microseconds


@dataclass(frozen=True)
class TrackSet:
    """Per-query trajectories on the query-time grid."""

    times: np.ndarray       # T
    positions: np.ndarray   # Q x T x 2
    visibility: np.ndarray  # Q x T in {0, 1}

    def __post_init__(self):
        if self.positions.shape[:2] != (self.positions.shape[0], len(self.times)):
            raise GridMismatch("positions/time grid mismatch")
        if self.visibility.shape != self.positions.shape[:2]:
            raise GridMismatch("visibility/positions shape mismatch")


def serialize_track_set(ts: TrackSet) -> bytes:
    """Header '# queries=Q steps=T', then one line per step:
    t_us,q0x,q0y,q0v,q1x,... with 9 significant digits."""
    q, t = ts.positions.shape[:2]
    buf = io.StringIO()
    buf.write(f"# queries={q} steps={t}\n")
    for ti in range(t):
        parts = [str(int(ts.times[ti]))]
        for qi in range(q):
            parts.append(f"{ts.positions[qi, ti, 0]:.9g}")
            parts.append(f"{ts.positions[qi, ti, 1]:.9g}")
            parts.append(f"{float(ts.visibility[qi, ti]):.9g}")
        buf.write(",".join(parts) + "\n")
    return buf.getvalue().encode("utf-8")


def parse_track_set(data: bytes) -> TrackSet:
    """Parse the serialize_track_set format; a malformed file of any kind,
    including one without steps, with a non-finite field or with step
    times that do not strictly increase, raises GridMismatch."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GridMismatch(f"track file is not UTF-8: {exc}") from exc
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise GridMismatch("missing track header")
    try:
        header = dict(tok.split("=") for tok in lines[0][1:].split())
        q, t = int(header["queries"]), int(header["steps"])
    except (KeyError, ValueError) as exc:
        raise GridMismatch(f"bad track header {lines[0]!r}") from exc
    if q < 0 or t < 1 or len(lines) - 1 != t:
        raise GridMismatch(f"expected {t} step lines of {q} queries, "
                           f"got {len(lines) - 1}")
    rows = [line.split(",") for line in lines[1:]]
    try:
        times = np.array([int(f[0]) for f in rows], dtype=np.int64)
        # (T, Q, 3) of x, y, visibility; ragged lines fail np.array and a
        # field count other than 1 + 3Q fails the reshape
        vals = np.array([[float(v) for v in f[1:]] for f in rows])
        vals = vals.reshape(t, q, 3)
    except (ValueError, OverflowError) as exc:
        raise GridMismatch(f"step lines do not hold {q} queries: {exc}") from exc
    if not np.isfinite(vals).all():
        raise GridMismatch("non-finite track field")
    if (np.diff(times) <= 0).any():
        raise GridMismatch("step times do not strictly increase")
    return TrackSet(times=times, positions=vals[:, :, :2].transpose(1, 0, 2),
                    visibility=(vals[:, :, 2] > 0.5).astype(np.int64).T)


# ---------------------------------------------------------------------------
# Patch sampling and correlation features
# ---------------------------------------------------------------------------

def sample_patch(level: np.ndarray, centers: np.ndarray, r: int,
                 stride: float = 1, block: int = 1) -> np.ndarray:
    """Bilinear (2r+1)x(2r+1)xC patches around (W, 2) centres (input px),
    one per step of a (W, rows, cols, C) level, gathered for all W steps
    at once per bilinear corner; returns (W, 2r+1, 2r+1, C).

    Taps are spaced by stride on a grid of rows * block x cols * block
    points, on which each level cell covers a block x block square; a tap
    outside that grid reads 0.
    """
    level = np.asarray(level, dtype=np.float64)
    n, rows, cols, c = level.shape
    h, w = rows * block, cols * block
    centers = np.asarray(centers, dtype=np.float64)
    if centers.shape != (n, 2):
        raise ShapeMismatch(f"centers {centers.shape} for {n} level steps")
    offs = np.arange(-r, r + 1, dtype=np.float64)
    px = centers[:, 0, None, None] / stride + offs[None, None, :]
    py = centers[:, 1, None, None] / stride + offs[None, :, None]
    x0 = np.floor(px).astype(np.int64)
    y0 = np.floor(py).astype(np.int64)
    fx, fy = px - x0, py - y0
    steps = np.arange(n)[:, None, None]
    patch = np.zeros((n, 2 * r + 1, 2 * r + 1, c))
    for dy_i, wy in ((0, 1.0 - fy), (1, fy)):
        for dx_i, wx in ((0, 1.0 - fx), (1, fx)):
            xs, ys = x0 + dx_i, y0 + dy_i
            ok = (xs >= 0) & (xs < w) & (ys >= 0) & (ys < h)
            weight = np.where(ok, wy * wx, 0.0)
            vals = level[steps, np.clip(ys, 0, h - 1) // block,
                         np.clip(xs, 0, w - 1) // block]
            patch += weight[..., None] * vals
    return patch


def _relu(x):
    return np.maximum(x, 0.0)


def correlation_features(patches_per_level: list[np.ndarray],
                         weights: WeightBundle) -> np.ndarray:
    """Encode per-frame correlation against the window anchor (frame 0).

    patches_per_level: 3 arrays of shape (W, taps, C_l) with flattened
    spatial taps. Returns (W, 3 * corr_embed) descriptors.
    """
    if len(patches_per_level) != 3:
        raise ShapeMismatch("expected patches from 3 pyramid levels")
    embeds = []
    for lvl, patches in enumerate(patches_per_level):
        patches = np.asarray(patches, dtype=np.float64)
        anchor = patches[0]                      # taps x C
        corr = patches @ anchor.T                # W x taps x taps
        flat = corr.reshape(corr.shape[0], -1)
        if flat.shape[1] != weights[f"corr.l{lvl}.w1"].shape[0]:
            raise ShapeMismatch(
                f"level {lvl}: correlation size {flat.shape[1]} != "
                f"MLP fan-in {weights[f'corr.l{lvl}.w1'].shape[0]}")
        h = _relu(flat @ weights[f"corr.l{lvl}.w1"] + weights[f"corr.l{lvl}.b1"])
        embeds.append(h @ weights[f"corr.l{lvl}.w2"] + weights[f"corr.l{lvl}.b2"])
    return np.concatenate(embeds, axis=1)


def _motion_encoding(rel: np.ndarray, n_freq: int) -> np.ndarray:
    """Sinusoidal encoding of per-step motion relative to the window anchor;
    rel is (W, 2), output (W, 4 * n_freq)."""
    enc_x = sinusoidal_encoding(rel[:, 0], 2 * n_freq)
    enc_y = sinusoidal_encoding(rel[:, 1], 2 * n_freq)
    return np.concatenate([enc_x, enc_y], axis=1)


def _refiner_transformer(x: np.ndarray, weights: WeightBundle) -> np.ndarray:
    """Pre-norm blocks of (temporal self-attention, token MLP) on (W, rw)."""
    cfg = weights.config
    pe = sinusoidal_encoding(np.arange(x.shape[0]), cfg.refiner_width)
    for blk in range(cfg.refiner_blocks):
        p = f"ref.b{blk}"
        h = _layer_norm(x, weights[f"{p}.ln1.g"], weights[f"{p}.ln1.b"])
        x = _attention_block(x, h + pe, h + pe, h, weights, f"{p}.attn")
        h = _layer_norm(x, weights[f"{p}.ln2.g"], weights[f"{p}.ln2.b"])
        x = x + _relu(h @ weights[f"{p}.mlp.w1"] + weights[f"{p}.mlp.b1"]) \
            @ weights[f"{p}.mlp.w2"] + weights[f"{p}.mlp.b2"]
    return x


def refine_track(state: TrackState, pyramid: FeaturePyramid,
                 weights: WeightBundle, iterations: int | None = None
                 ) -> TrackState:
    """Iteratively apply residual (dx, dy, dv) updates to a window track.

    pyramid is the window's decoded pyramid: level l is
    (W, rows, cols, C_l), one slice per window step, sampled with taps at
    stride patch / 2**l and tokens of 2**l x 2**l points. The result is
    built from new arrays; state is only read, so it may hold views."""
    cfg = weights.config
    m = cfg.iterations if iterations is None else iterations
    if m < 1:
        raise ShapeMismatch("iteration count must be >= 1")
    w = len(state.window_times)
    if any(lvl.ndim != 4 or len(lvl) != w for lvl in pyramid.levels):
        raise ShapeMismatch("one pyramid step per window step required")
    r = cfg.patch_radius
    pos, logit = state.positions, state.visibility_logits
    for _ in range(m):
        patches_per_level = []
        for lvl in range(3):
            block = 2 ** lvl
            patch = sample_patch(pyramid.levels[lvl], pos, r,
                                 cfg.patch / block, block)
            patches_per_level.append(patch.reshape(w, -1, patch.shape[-1]))
        desc = correlation_features(patches_per_level, weights)
        rel = pos - pos[0]
        tokens = np.concatenate(
            [desc, logit[:, None],
             _motion_encoding(rel, cfg.motion_freqs)], axis=1)
        x = tokens @ weights["ref.in.w"] + weights["ref.in.b"]
        x = _refiner_transformer(x, weights)
        delta = x @ weights["ref.head.w"] + weights["ref.head.b"]
        pos = pos + delta[:, :2]
        logit = logit + delta[:, 2]
    return TrackState(positions=pos, visibility_logits=logit,
                      window_times=state.window_times)


# ---------------------------------------------------------------------------
# Sequence orchestration
# ---------------------------------------------------------------------------

def _window_starts(n_steps: int, window: int) -> list[int]:
    if n_steps <= window:
        return [0]
    starts = list(range(0, n_steps - window + 1, window // 2))
    if starts[-1] != n_steps - window:
        starts.append(n_steps - window)
    return starts


def track_sequence(frames: np.ndarray, frame_times: list[int],
                   stream: EventStream, timeline: Timeline,
                   queries: list[QueryPoint], weights: WeightBundle,
                   counters: dict | None = None) -> TrackSet:
    """Run the full pipeline over a sequence.

    At each frame time the transient state is re-initialized from the
    frame and its exposure-window events; every other query step applies
    one event-batch update. Windows of W steps advance by W/2; estimates
    at overlapped steps are re-computed and the later window's values win.
    """
    qtimes = np.asarray(timeline.query_times, dtype=np.int64)
    n_steps = len(qtimes)
    ft = [int(t) for t in frame_times]
    if list(timeline.frame_times) != ft:
        raise GridMismatch("frame_times disagree with timeline")
    if ft[0] != int(qtimes[0]):
        raise GridMismatch("the first query step must carry a frame")
    if len(frames) != len(ft):
        raise GridMismatch("one frame per frame time required")
    qgrid = {int(t): i for i, t in enumerate(qtimes)}
    for qp in queries:
        if qp.t_q not in qgrid:
            raise QueryOutOfRange(f"query time {qp.t_q} not on the query grid")

    frame_at = {t: i for i, t in enumerate(ft)}
    batches = bin_events(stream, timeline)
    if counters is not None:
        counters.setdefault("taf_init", 0)
        counters.setdefault("taf_update", 0)

    def step_states():
        state = None
        for step, t in enumerate(qtimes):
            t = int(t)
            if t in frame_at:
                batch = exposure_window_events(stream, t, timeline.exposure_us)
                state = taf_init(frames[frame_at[t]], t, batch, weights)
                if counters is not None:
                    counters["taf_init"] += 1
            else:
                state = taf_update(state, batches[step], weights)
                if counters is not None:
                    counters["taf_update"] += 1
            yield state

    w = weights.config.window
    n_q = len(queries)
    out_pos = np.zeros((n_q, n_steps, 2))
    out_logit = np.zeros((n_q, n_steps))
    active_from = [qgrid[qp.t_q] for qp in queries]
    for qi, qp in enumerate(queries):
        out_pos[qi, :, 0] = qp.x
        out_pos[qi, :, 1] = qp.y
        out_logit[qi, :] = 1.0

    # live holds the states of steps first, first + 1, ...: each is built
    # when a window first reaches its step and dropped once the windows
    # start past it, so at most W are alive
    states = step_states()
    live: list[TransientState] = []
    first = 0
    for start in _window_starts(n_steps, w):
        stop = min(start + w, n_steps)
        del live[:start - first]
        first = start
        live.extend(islice(states, stop - start - len(live)))
        x = temporal_attention(np.stack([s.tokens.values for s in live]),
                               weights)
        pyramid = decode_pyramid(
            x.reshape(len(live), *live[0].tokens.grid, -1), weights)
        for qi in range(n_q):
            if active_from[qi] >= stop:
                continue
            # steps not yet covered by a previous window start from the
            # last carried-over estimate; refine_track only reads the views
            refined = refine_track(
                TrackState(positions=out_pos[qi, start:stop],
                           visibility_logits=out_logit[qi, start:stop],
                           window_times=qtimes[start:stop]),
                pyramid, weights)
            out_pos[qi, start:stop] = refined.positions
            out_logit[qi, start:stop] = refined.visibility_logits
            # carry the freshest estimate into steps beyond this window
            if stop < n_steps:
                out_pos[qi, stop:] = refined.positions[-1]
                out_logit[qi, stop:] = refined.visibility_logits[-1]
        # free this window's levels before the next window decodes its own
        del pyramid

    visibility = (out_logit > 0).astype(np.int64)
    for qi in range(n_q):
        a = active_from[qi]
        out_pos[qi, :a] = (queries[qi].x, queries[qi].y)
        visibility[qi, :a] = 0
    return TrackSet(times=qtimes, positions=out_pos, visibility=visibility)
