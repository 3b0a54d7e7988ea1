"""Trajectory refinement and sliding-window tracking orchestration.

The refiner samples bilinear feature patches around current position
estimates on the 3-level pyramid, correlates them against the window's
anchor patch, encodes the correlation matrices with per-level MLPs, and
runs a small spatio-temporal transformer that predicts residual position
and visibility updates. The pyramid stays at token resolution: level l
is read at stride patch / 2**l, each token covering a 2**l x 2**l block
of sample points. track_sequence drives the transient-fusion state
machine along the query-time grid and slides W-step windows with 50%
overlap over the resulting states. A window track is two arrays, (W, 2)
positions and W visibility logits, which refine_track reads and returns
refined; it takes a stack of them, (Q, W, 2) and (Q, W), as well.
track_sequence refines a window's active queries in groups, in order:
each group holds as many queries as keep one pass's level-0 gather
within _GATHER_BYTES, and at least one. Each query's track is computed
by the same products on its own rows as it would be alone, so a query's
track does not depend on its group.

A window's states and pyramid, which all queries share, are computed
only at the tokens the refiner reads. The state update acts on one token
row at a time given its batch's keys, temporal attention attends across
time at each token position and the decoder mixes each token's channels,
so a token's levels depend only on its row of the last frame's state and
on the keys of the steps since. Only a frame's state holds rows, and
_WindowPyramid is the one place that computes the others, from the batch
keys each state keeps. For the union of the tokens around the queries'
carried-in estimates, it replays the rows from the last frame and runs
both layers on them, and a refiner iteration whose taps reach a token
not done yet does it then. One switch computes every token's rows
instead (see _WindowPyramid.cover): from the first such iteration on,
and from the first window whose replay would start more than W steps
before it. Then each window keeps the rows the last one computed and
computes its new steps from them, so no replay spans more than a window.

Every product of those layers whose rows are tokens is fusion._tiled,
which makes each row a function of that row alone: so the tracks equal
the dense computation's bit for bit at every width, for any set of
tokens, one alone included.
"""

from __future__ import annotations

import math
import mmap
import traceback
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import (
    FINITE,
    GeometryMismatch,
    GridMismatch,
    NonFiniteValue,
    QueryOutOfRange,
    ShapeMismatch,
)
from .events import EventStream, Timeline, bin_events, exposure_window_events
from .fusion import (
    Tokens,
    TransientState,
    _attention_block,
    _layer_norm,
    _linear,
    _residual_out,
    _update_rows,
    decode_pyramid,
    sinusoidal_encoding,
    taf_init,
    taf_update,
    temporal_attention,
)
from .weights import MOTION_FREQS, REFINER_BLOCKS, REFINER_WIDTH, WeightBundle


@dataclass(frozen=True)
class QueryPoint:
    t_q: int
    x: float
    y: float


@dataclass(frozen=True)
class TrackSet:
    """Per-query trajectories on the query-time grid."""

    times: np.ndarray       # T
    positions: np.ndarray   # Q x T x 2
    visibility: np.ndarray  # Q x T in {0, 1}

    def __post_init__(self):
        """Raise GridMismatch on mismatched shapes, no steps, times that
        do not strictly increase, or a non-finite field, named by its
        query and step."""
        if self.positions.shape[:2] != (self.positions.shape[0], len(self.times)):
            raise GridMismatch("positions/time grid mismatch")
        if self.visibility.shape != self.positions.shape[:2]:
            raise GridMismatch("visibility/positions shape mismatch")
        if len(self.times) < 1 or (np.diff(self.times) <= 0).any():
            raise GridMismatch(f"track set of {len(self.times)} steps: needs "
                               f"at least one, at strictly increasing times")
        bad = np.argwhere(~np.isfinite(self.positions).all(axis=2)
                          | ~np.isfinite(self.visibility))
        if len(bad):
            qi, ti = bad[0]
            raise GridMismatch(f"non-finite position or visibility of query "
                               f"{qi} at step {ti} (t = {self.times[ti]} us)")


def serialize_track_set(ts: TrackSet) -> bytes:
    """Header '# queries=Q steps=T', then one line per step:
    t_us,q0x,q0y,q0v,q1x,... with 9 significant digits. The arrays may
    have been written since ts was built, so TrackSet's checks run again:
    what parse_track_set rejects raises GridMismatch instead."""
    ts.__post_init__()
    q, t = ts.positions.shape[:2]
    # (T, 3Q) rows of each query's x, y and visibility, as Python numbers
    fields = np.concatenate([ts.positions, ts.visibility[..., None]], axis=2)
    rows = fields.transpose(1, 0, 2).reshape(t, 3 * q).tolist()
    text = f"# queries={q} steps={t}\n" + "".join(
        ",".join([str(int(time))] + [f"{v:.9g}" for v in row]) + "\n"
        for time, row in zip(ts.times, rows))
    return text.encode("utf-8")


def parse_track_set(data: bytes) -> TrackSet:
    """Parse the serialize_track_set format; a malformed file of any kind,
    including one without steps, with a non-finite field or with step
    times that do not strictly increase (which TrackSet checks), raises
    GridMismatch. Fields are checked finite before visibility is
    thresholded."""
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
    return TrackSet(times=times, positions=vals[:, :, :2].transpose(1, 0, 2),
                    visibility=(vals[:, :, 2] > 0.5).astype(np.int64).T)


# ---------------------------------------------------------------------------
# Patch sampling and correlation features
# ---------------------------------------------------------------------------

def sample_patch(level: np.ndarray, centers: np.ndarray, r: int,
                 stride: float = 1, block: int = 1) -> np.ndarray:
    """Bilinear (2r+1)x(2r+1)xC patches around (..., W, 2) centres (input
    px), each step's from its step of a (W, rows, cols, C) level; returns
    (..., W, 2r+1, 2r+1, C). Leading axes stack tracks on the one level.

    Taps are spaced by stride on a grid of rows * block x cols * block
    points, on which each level cell covers a block x block square; a tap
    outside that grid reads 0, as it does clamped to [-2, side + 1].

    Tap coordinates, fractions, in-range masks and clamped cells are
    computed once per axis, and one take from the flattened level gathers
    all four bilinear corners of every tap, through a flat index that
    carries each tap's step. The weighted corners are added into zeros in
    the order (y0, x0), (y0, x1), (y1, x0), (y1, x1), so rounding and
    signed zeros are those of one gather per corner. np.einsum adds them
    so, one product at a time, except into a result of one value, which
    it sums as a dot product, in another order; a plain sum does that one.
    """
    level = np.asarray(level, dtype=np.float64)
    n, rows, cols, c = level.shape
    h, w = rows * block, cols * block
    centers = np.asarray(centers, dtype=np.float64)
    if centers.shape[-2:] != (n, 2):
        raise ShapeMismatch(f"centers {centers.shape} for {n} level steps")
    k = 2 * r + 1
    offs = np.arange(-r, r + 1, dtype=np.float64)
    # ... W x 1 x k and ... W x k x 1, clamped so that the int64 cast is exact
    px = np.clip(centers[..., 0, None, None] / stride + offs[None, :], -2, w + 1)
    py = np.clip(centers[..., 1, None, None] / stride + offs[:, None], -2, h + 1)
    x0 = np.floor(px).astype(np.int64)
    y0 = np.floor(py).astype(np.int64)
    fx, fy = px - x0, py - y0
    # per axis, the low and high corner stacked on a leading axis of 2
    xs, ys = np.stack([x0, x0 + 1]), np.stack([y0, y0 + 1])
    wx, wy = np.stack([1.0 - fx, fx]), np.stack([1.0 - fy, fy])
    okx, oky = (xs >= 0) & (xs < w), (ys >= 0) & (ys < h)
    xcell = np.minimum(np.maximum(xs, 0), w - 1) // block
    ycell = np.minimum(np.maximum(ys, 0), h - 1) // block
    steps = np.arange(n)[:, None, None]
    # corners (dy, dx) in row-major order: 4 x ... x W x k x k
    shape = (4, *centers.shape[:-1], k, k)
    idx = ((steps * rows + ycell)[:, None] * cols + xcell[None]).reshape(shape)
    weight = np.where(oky[:, None] & okx[None], wy[:, None] * wx[None], 0.0
                      ).reshape(shape)
    vals = level.reshape(n * rows * cols, c).take(idx, axis=0)
    if vals[0].size == 1:
        return sum(vals * weight[..., None], np.zeros(vals.shape[1:]))
    return np.einsum("k...c,k...->...c", vals, weight)


def _relu_linear(x, w, b):
    """relu(x @ w + b), computed in the product's buffer."""
    y = _linear(x, w, b)
    return np.maximum(y, 0.0, out=y)


def correlation_features(patches_per_level: list[np.ndarray],
                         weights: WeightBundle) -> np.ndarray:
    """Encode per-frame correlation against the window anchor (frame 0).

    patches_per_level: 3 arrays of shape (..., W, taps, C_l) with
    flattened spatial taps. Returns (..., W, 3 * CORR_EMBED) descriptors.
    """
    if len(patches_per_level) != 3:
        raise ShapeMismatch("expected patches from 3 pyramid levels")
    embeds = []
    for lvl, patches in enumerate(patches_per_level):
        patches = np.asarray(patches, dtype=np.float64)
        anchor = patches[..., :1, :, :]          # ... x 1 x taps x C
        corr = patches @ np.swapaxes(anchor, -1, -2)   # ... x W x taps x taps
        flat = corr.reshape(*corr.shape[:-2], -1)
        if flat.shape[-1] != weights[f"corr.l{lvl}.w1"].shape[0]:
            raise ShapeMismatch(
                f"level {lvl}: correlation size {flat.shape[-1]} != "
                f"MLP fan-in {weights[f'corr.l{lvl}.w1'].shape[0]}")
        h = _relu_linear(flat, weights[f"corr.l{lvl}.w1"],
                         weights[f"corr.l{lvl}.b1"])
        embeds.append(_linear(h, weights[f"corr.l{lvl}.w2"],
                              weights[f"corr.l{lvl}.b2"]))
    return np.concatenate(embeds, axis=-1)


def _motion_encoding(rel: np.ndarray, n_freq: int) -> np.ndarray:
    """Sinusoidal encoding of per-step motion relative to the window anchor;
    rel is (..., W, 2), output (..., W, 4 * n_freq)."""
    enc_x = sinusoidal_encoding(rel[..., 0], 2 * n_freq)
    enc_y = sinusoidal_encoding(rel[..., 1], 2 * n_freq)
    return np.concatenate([enc_x, enc_y], axis=-1)


def _refiner_transformer(x: np.ndarray, weights: WeightBundle,
                         pe: np.ndarray) -> np.ndarray:
    """Pre-norm blocks of (temporal self-attention, token MLP) on
    (..., W, rw); pe is the (W, rw) time encoding added to queries and
    keys."""
    for blk in range(REFINER_BLOCKS):
        p = f"ref.b{blk}"
        h = _layer_norm(x, weights[f"{p}.ln1.g"], weights[f"{p}.ln1.b"])
        hp = h + pe
        x = _attention_block(x, hp, hp, h, weights, f"{p}.attn")
        h = _layer_norm(x, weights[f"{p}.ln2.g"], weights[f"{p}.ln2.b"])
        h = _relu_linear(h, weights[f"{p}.mlp.w1"], weights[f"{p}.mlp.b1"])
        x = _residual_out(x, h, weights[f"{p}.mlp.w2"], weights[f"{p}.mlp.b2"])
    return x


def refine_track(positions: np.ndarray, logits: np.ndarray,
                 levels: tuple[np.ndarray, ...], weights: WeightBundle,
                 fill: Callable[..., object] | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Apply weights.config.iterations residual (dx, dy, dv) updates to
    window tracks of (..., W, 2) positions and (..., W) visibility logits;
    return the refined (positions, logits). A (W, 2) track is one track;
    leading axes stack tracks on the same window, and each comes out as it
    would alone, bit for bit: every product runs per track, as a stacked
    matmul does per slice.

    levels is the window's decoded pyramid: level l is
    (W, rows, cols, C_l), one slice per window step, sampled with taps at
    stride patch / 2**l and tokens of 2**l x 2**l points. If levels is
    only partly decoded, fill is called with every track's (W, 2)
    positions before each iteration samples it, and must decode every
    token that iteration's taps read. The result is built from new
    arrays; the inputs are only read, so they may be views."""
    cfg = weights.config
    w = positions.shape[-2]
    if logits.shape != positions.shape[:-1]:
        got, want = ("x".join(map(str, shape))
                     for shape in (logits.shape, positions.shape[:-1]))
        raise ShapeMismatch(f"{got} visibility logits for {want} window "
                            f"positions")
    if any(lvl.ndim != 4 or len(lvl) != w for lvl in levels):
        raise ShapeMismatch("one pyramid step per window step required")
    r = cfg.patch_radius
    pe = sinusoidal_encoding(np.arange(w), REFINER_WIDTH)
    for _ in range(cfg.iterations):
        if fill is not None:
            fill(*positions.reshape(-1, w, 2))
        patches_per_level = []
        for lvl in range(3):
            block = 2 ** lvl
            patch = sample_patch(levels[lvl], positions, r,
                                 cfg.patch / block, block)
            patches_per_level.append(
                patch.reshape(*patch.shape[:-3], -1, patch.shape[-1]))
        desc = correlation_features(patches_per_level, weights)
        rel = positions - positions[..., :1, :]
        tokens = np.concatenate(
            [desc, logits[..., None],
             _motion_encoding(rel, MOTION_FREQS)], axis=-1)
        x = _linear(tokens, weights["ref.in.w"], weights["ref.in.b"])
        x = _refiner_transformer(x, weights, pe)
        delta = _linear(x, weights["ref.head.w"], weights["ref.head.b"])
        positions = positions + delta[..., :2]
        logits = logits + delta[..., 2]
    return positions, logits


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


def _mapped(shape: tuple[int, ...], fill: float | None = None) -> np.ndarray:
    """A float64 array of zeros, or of fill, in an anonymous memory mapping
    of its own, which goes back to the OS when the array is freed. From
    malloc's heap, the window's buffers would stay resident after a track
    whenever the heap's freed top is below glibc's trim threshold, and
    raise the peak of whatever runs next; and a page of zeros becomes
    resident only when it is written."""
    n = math.prod(shape)
    buf = np.frombuffer(mmap.mmap(-1, max(8 * n, 1)), np.float64, count=n)
    if fill is not None:
        buf.fill(fill)
    return buf.reshape(shape)


# bound on the bytes of one refiner pass's level-0 four-corner gather, 4 x
# W x (2r+1)**2 x C_0 float64s per query: 1.53 MiB at the default config,
# so a group holds 3 queries. Stacking more saves little time and raises
# the process's peak memory in step.
_GATHER_BYTES = 5 * 2 ** 20


class _WindowPyramid:
    """The current window's states and pyramid, computed only at the tokens
    the refiner reads.

    One instance serves every window of a sequence, each of `steps` steps
    on a (rows, cols) token grid, and draws the per-step states from the
    iterator it is given. Only a frame's state holds rows; this is the one
    place that computes the others, from the keys each state keeps. states
    holds the (steps, N, d) state rows and levels the three (steps, rows,
    cols, C_l) levels refine_track samples, all allocated once. held
    counts, per token, the leading window steps whose rows are in states;
    states is left unfilled, so that only the pages of rows computed
    become resident. A token's level cells are NaN until cover decodes
    it, so a cell read before that poisons the track instead of passing
    for a value."""

    def __init__(self, states: Iterator[TransientState], steps: int,
                 grid: tuple[int, int], weights: WeightBundle):
        self.weights = weights
        self.draw = states
        self.decoded = np.zeros(grid, dtype=bool)
        self.held = np.zeros(self.decoded.size, dtype=np.int64)
        self.start = -steps     # as if after a window of no states
        self.history: list[TransientState] = []
        self.states = _mapped((steps, self.decoded.size, weights.config.d))
        self.levels = tuple(
            _mapped((steps, *grid, weights[f"dec.w{lvl}"].shape[1]),
                    fill=np.nan)
            for lvl in range(3))

    def _tokens(self, level: np.ndarray) -> np.ndarray:
        """(steps, N, C_l) view of a level."""
        return level.reshape(len(level), self.decoded.size, -1)

    def load(self, start: int) -> None:
        """Make the window of steps start, start + 1, ... current, with no
        token decoded. The rows the last window computed at every step are
        kept at the steps both windows share; the cells it decoded go back
        to NaN. history holds the states replays start from, to the
        window's last step. history[0] holds every row (it is a frame's
        state), unless the last window computed every token at every step;
        then history starts at start. As cover, called in each window, then
        computes every row of a history longer than 2 * steps, history holds
        at most 2 * steps + steps // 2 states if windows advance by at most
        steps // 2."""
        steps = len(self.states)
        kept = self.held == steps
        every = kept.all()
        shared = self.start + steps - start
        cols = slice(None) if every else kept    # a view, not a gather
        self.states[:shared, cols] = self.states[start - self.start:, cols]
        self.held[:] = np.where(kept, shared, 0)
        for level in self.levels:
            self._tokens(level)[:, self.decoded.ravel()] = np.nan
        self.decoded[:] = False
        self.history.extend(islice(self.draw, start - self.start))
        first = len(self.history) - steps       # the window start's state
        while not (every or len(self.history[first].tokens.values)):
            first -= 1
        del self.history[:first]
        self.start = start

    def _state_rows(self, tokens: np.ndarray) -> None:
        """Compute the window's state rows at tokens where they are not
        held: each token from its first step not held, from the row before
        it or, at the window start, from history's first state, through the
        kept keys of each step. Every step runs one _update_rows call on
        the rows that step needs."""
        steps = len(self.states)
        before = len(self.history) - steps    # steps replayed, not stored
        held = self.held[tokens]
        rows = None
        for i, state in enumerate(self.history):
            t = i - before
            need = tokens[held <= max(t, 0)]
            if not len(need):
                continue
            if len(need) == len(self.held):  # every token: views, not copies
                need = slice(None)
            if len(state.tokens.values):     # a frame's state, without keys
                rows = state.tokens.values[need]
            elif t > 0:
                rows = self.states[t - 1][need]
            if state.keys is not None:
                rows = _update_rows(rows, state.keys, self.weights)
            if t >= 0:
                self.states[t][need] = rows
        self.held[tokens] = steps

    def _box(self, positions: np.ndarray) -> tuple[slice, slice]:
        """Token rows and cols holding every token that sample_patch reads
        around (W, 2) positions at any level. Level 0's taps reach
        farthest, from r tokens before a centre's token to r + 1 after it;
        one more token on each side covers the rounding of the tap
        coordinates. A centre that is not finite, or 2**40 tokens or more
        out, gets the whole grid."""
        cfg = self.weights.config
        reach = cfg.patch_radius + 1
        lo = (np.floor(positions.min(axis=0) / cfg.patch) - reach).tolist()
        hi = (np.floor(positions.max(axis=0) / cfg.patch) + reach + 1).tolist()
        if not all(abs(v) < 2.0 ** 40 for v in lo + hi):
            return slice(None), slice(None)
        last = self.decoded.shape[::-1]                  # cols, rows
        (c0, r0), (c1, r1) = ([int(min(max(v, 0.0), n - 1))
                               for v, n in zip(end, last)] for end in (lo, hi))
        return slice(r0, r1 + 1), slice(c0, c1 + 1)

    def cover(self, *tracks: np.ndarray) -> None:
        """Compute the states of, and decode, every token the refiner reads
        around the (W, 2) tracks that is not decoded yet, in one temporal
        attention and decoder pass over just those tokens.

        One switch computes every token's rows instead, and stays on, as
        every row is then held and kept (see load). It turns on at a fill,
        a call that decodes tokens beside decoded ones, since drifting
        estimates tend to fill at every iteration and window, each fill
        replaying every step since the last frame; and, tracks or not,
        when a replay would start more than steps before the window."""
        need = np.zeros_like(self.decoded)
        for positions in tracks:
            need[self._box(positions)] = True
        tokens = np.flatnonzero(need & ~self.decoded)
        every = (self.held.all() or len(self.history) > 2 * len(self.states)
                 or (len(tokens) and self.decoded.any()))
        missing = (np.flatnonzero(self.held < len(self.states)) if every
                   else tokens)
        if len(missing):
            self._state_rows(missing)
        if not len(tokens):
            return
        # decode temporal attention's (n, W, d) buffer, not its (W, n, d) view
        x = temporal_attention(self.states[:, tokens], self.weights)
        x = x.transpose(1, 0, 2)
        for level, part in zip(self.levels, decode_pyramid(x, self.weights)):
            self._tokens(level)[:, tokens] = part.transpose(1, 0, 2)
        self.decoded.flat[tokens] = True


def track_sequence(frames: np.ndarray, stream: EventStream,
                   timeline: Timeline, queries: list[QueryPoint],
                   weights: WeightBundle) -> TrackSet:
    """Run the full pipeline over a sequence; frames holds one frame per
    timeline.frame_times entry.

    At each frame time the transient state is re-initialized from the
    frame and its exposure-window events; every other query step applies
    one event-batch update. Windows of W steps advance by W/2; estimates
    at overlapped steps are re-computed and the later window's values win.
    """
    qtimes = np.asarray(timeline.query_times, dtype=np.int64)
    n_steps = len(qtimes)
    ft = timeline.frame_times
    if not ft or ft[0] != int(qtimes[0]):
        raise GridMismatch("the first query step must carry a frame")
    if len(frames) != len(ft):
        raise GridMismatch("one frame per frame time required")
    if (stream.height, stream.width) != frames.shape[1:3]:
        raise GeometryMismatch(
            f"{frames.shape[2]}x{frames.shape[1]} frames against a "
            f"{stream.width}x{stream.height} event sensor")
    qgrid = {int(t): i for i, t in enumerate(qtimes)}
    for qi, qp in enumerate(queries):
        if qp.t_q not in qgrid:
            raise QueryOutOfRange(f"query time {qp.t_q} not on the query grid")
        if not (qp.x in FINITE and qp.y in FINITE):
            raise QueryOutOfRange(f"query {qi} at non-finite ({qp.x}, {qp.y})")

    frame_at = {t: i for i, t in enumerate(ft)}
    batches = bin_events(stream, timeline)
    w = weights.config.window
    patch = weights.config.patch
    grid = tuple(side // patch for side in frames.shape[1:3])
    if not all(grid) or any(side % patch for side in frames.shape[1:3]):
        raise ShapeMismatch(f"{frames.shape[2]}x{frames.shape[1]} frames not "
                            f"divisible by patch size {patch} into tokens")

    def step_states():
        """Each step's state. Only a frame's holds rows: taf_update runs
        on a state that holds none, so only on the batch's event side."""
        for step, t in enumerate(timeline.query_times):
            if t in frame_at:
                batch = exposure_window_events(stream, t, timeline.exposure_us)
                state = taf_init(frames[frame_at[t]], t, batch, weights)
            else:
                hollow = Tokens(state.tokens.values[:0], grid)
                state = taf_update(TransientState(hollow, state.state_time),
                                   batches[step], weights)
            yield state

    xy = np.array([(qp.x, qp.y) for qp in queries], np.float64).reshape(-1, 2)
    out_pos = np.repeat(xy[:, None], n_steps, axis=1)
    out_logit = np.ones((len(queries), n_steps))
    active_from = [qgrid[qp.t_q] for qp in queries]

    # every window has min(W, n_steps) steps
    pyramid = _WindowPyramid(step_states(), min(w, n_steps), grid, weights)
    # a query's gather: 4 corners of (2r+1)**2 taps of C_0 float64s at
    # every window step
    level0 = pyramid.levels[0]
    gather = (4 * (2 * weights.config.patch_radius + 1) ** 2 * len(level0)
              * level0.shape[-1] * level0.itemsize)
    group = max(1, _GATHER_BYTES // gather)
    last = 0  # the previous window's stop
    # each state and estimate feeds the next: stop at the first operation
    # that overflows, divides by zero or makes a NaN (softmax underflows)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for start in _window_starts(n_steps, w):
                stop = min(start + w, n_steps)
                where = f"window steps {start}..{stop - 1}"
                active = [qi for qi, a in enumerate(active_from) if a < stop]
                # steps the last window did not reach start from its estimate
                carried = [qi for qi in active if active_from[qi] < last]
                out_pos[carried, last:stop] = out_pos[carried, last - 1, None]
                out_logit[carried, last:stop] = out_logit[carried, last - 1, None]
                last = stop
                pyramid.load(start)
                # one pass for what all the carried-in estimates read; a
                # refiner iteration that reaches beyond it computes the rest
                pyramid.cover(*out_pos[active, start:stop])
                for i in range(0, len(active), group):
                    qs = active[i:i + group]
                    where = f"window steps {start}..{stop - 1}, queries {qs}"
                    pos, logit = refine_track(
                        out_pos[qs, start:stop], out_logit[qs, start:stop],
                        pyramid.levels, weights, pyramid.cover)
                    out_pos[qs, start:stop] = pos
                    out_logit[qs, start:stop] = logit
    except FloatingPointError as exc:
        below = traceback.walk_tb(exc.__traceback__.tb_next)
        chain = " > ".join(f.f_code.co_name for f, _ in below
                           if f.f_globals.get("__package__") == __package__)
        raise NonFiniteValue(f"{exc} at {chain}, {where}") from exc

    visibility = (out_logit > 0).astype(np.int64)
    for qi, a in enumerate(active_from):
        out_pos[qi, :a] = xy[qi]
        visibility[qi, :a] = 0
    return TrackSet(times=qtimes, positions=out_pos, visibility=visibility)
