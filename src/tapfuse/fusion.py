"""Fusion core: tokenizers, locality-biased cross-attention, the transient
state machine, temporal self-attention, and the pyramid decoder.

Forward and backward passes are pure float64 functions of (inputs,
weights): they never write into their inputs or the weights. The
intermediates they allocate themselves are reused in place: the
attention logits become the softmax weights, and a product takes its
bias and residual adds, so an attention call holds one N x N array.
taf_update attends to the tokens of the event patches that hold an event
plus one shared key for all event-free patches, whose logit carries the
log of their count, so its attention is N x (live + 1), not N x N. The
batch's events are written straight into the blocks of the patches that
hold one, so no time surface of the whole sensor is built. The two
attention blocks that feed gradient verification (CLWF and temporal
attention) also ship analytic backward passes checked against central
finite differences; each takes its forward's inputs and recomputes what
it needs through the helper that both call.

A TransientState is the fused tokens and the time they stand for: a frame
sets it and each event batch advances it. decode_pyramid returns a
window's three levels as a plain tuple of arrays.

taf_update has two sides. Its event side, _update_keys, makes a batch's
keys, values and key bias at a cost that follows the batch's events; its
state side, _update_rows (layer norm, query, softmax over those keys,
output projection, residual), acts on one token row at a time. Temporal
attention attends across time at each token position, and the decoder
mixes each token's channels. None of the row-wise parts mixes token
positions, so the tracker runs them only at the tokens its refiner
reads. A state holds every token row or none; one that holds none keeps
its batch's keys, from which _update_rows computes any rows later.

One rule makes those rows the dense computation's bit for bit, at every
width: every product whose rows are tokens is _tiled, so each row's result
depends on that row alone. A plain product would not do: BLAS kernels
round a row differently by the operand's row count and the row's place in
their blocking. On numpy's OpenBLAS 0.3.31 and an AVX-512 Xeon, a lone row
(which matmul multiplies on its vector path) rounds apart at every width
tried under the SkylakeX kernels, and 2 rows do at d = 17, 65 and 100;
under the Haswell kernels, which OpenBLAS also runs for Zen, 1 or 17 rows
do at every width tried.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonFiniteValue, ShapeMismatch, TimeRegression
from .events import EventBatch
from .representations import (
    EventTensor,
    _cells,
    _last_write,
    _subwindow_values,
    sbt_time_surface,
)
from .weights import WeightBundle

_LN_EPS = 1e-6


@dataclass(frozen=True)
class Tokens:
    """Token values on a rectangular token grid, row-major order. values of
    0 rows stand for a state that holds no token (see taf_update)."""

    values: np.ndarray        # N x d, or 0 x d
    grid: tuple[int, int]     # (rows, cols), N = rows * cols

    def __post_init__(self):
        rows, cols = self.grid
        if len(self.values) not in (0, rows * cols):
            raise ShapeMismatch(
                f"{len(self.values)} values for {rows * cols} tokens of a "
                f"{rows}x{cols} grid")
        if not np.isfinite(self.values).all():
            raise NonFiniteValue("non-finite token values")


# an event batch's attention keys and values for taf_update's block, and the
# logit bias per key
UpdateKeys = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class TransientState:
    """The fused token representation maintained between frames; a frame
    sets state_time and each event batch advances it to the batch end.
    keys are those of the batch that made the state (None for a frame's
    state or an empty batch's), so that rows the state does not hold can
    be computed later."""

    tokens: Tokens
    state_time: int
    keys: UpdateKeys | None = None


# ---------------------------------------------------------------------------
# Tokenizers
# ---------------------------------------------------------------------------

def _patch_blocks(image, weights: WeightBundle, prefix: str) -> np.ndarray:
    """(rows, cols, patch, patch, C) view of the non-overlapping patches of
    an (H, W) or (H, W, C) image; a patch's patch * patch * C values must
    match the fan-in of the prefix.w projection."""
    if image.ndim == 2:
        image = image[:, :, None]
    h, w, c = image.shape
    patch = weights.config.patch
    if h % patch or w % patch:
        raise ShapeMismatch(f"{h}x{w} not divisible by patch size {patch}")
    dim, fan_in = patch * patch * c, weights[f"{prefix}.w"].shape[0]
    if dim != fan_in:
        raise ShapeMismatch(f"{prefix}: patch dim {dim} != embedding fan-in "
                            f"{fan_in}")
    return (image.reshape(h // patch, patch, w // patch, patch, c)
            .transpose(0, 2, 1, 3, 4))


def _embed_patches(image, weights: WeightBundle, prefix: str) -> Tokens:
    """Non-overlapping patch embedding of an (H, W) or (H, W, C) image
    through the prefix.w / prefix.b projection."""
    blocks = _patch_blocks(image, weights, prefix)
    rows, cols = blocks.shape[:2]
    flat = blocks.reshape(rows * cols, -1).astype(np.float64, copy=False)
    return Tokens(values=_linear(flat, weights[f"{prefix}.w"],
                                 weights[f"{prefix}.b"]),
                  grid=(rows, cols))


def tokenize_frame(image: np.ndarray, weights: WeightBundle) -> Tokens:
    """Non-overlapping patch embedding of an intensity frame."""
    return _embed_patches(np.asarray(image, dtype=np.float64), weights, "phi_i")


def tokenize_events(tensor: EventTensor, weights: WeightBundle) -> Tokens:
    """Patch embedding of a dense event tensor (B input channels)."""
    return _embed_patches(tensor.data, weights, "phi_e")


# ---------------------------------------------------------------------------
# Attention primitives
# ---------------------------------------------------------------------------

def _linear(x, w, b):
    """x @ w + b, adding b into the product's buffer."""
    y = x @ w
    y += b
    return y


def _residual_out(x, read, wo, bo):
    """x + read @ wo + bo, computed as (read @ wo + x) + bo in the
    product's buffer; IEEE addition is commutative, so the two are equal
    bit for bit."""
    y = read @ wo
    y += x
    y += bo
    return y


# rows per tile: a row's place in a tile must not change its bits either.
# The SkylakeX kernels round rows of a 64-row tile apart at 2 threads. With
# 24-row tiles the row-stability tests in test_fusion.py pass under the
# SkylakeX, Haswell, Zen and Sandybridge kernels at 1 and 2 threads
_TILE = 24


def _tiled(x, w, b=None):
    """x @ w (+ b) over the last axis of x, as one stacked product of
    _TILE-row tiles; only the last partial tile is copied, padded with zero
    rows. Every tile is the same BLAS call, so each row's result depends on
    that row alone: the rows of a product of some rows, in any order, equal
    those of the product of all rows bit for bit."""
    flat = x.reshape(-1, x.shape[-1])
    m, n = len(flat), w.shape[1]
    full = m - m % _TILE
    y = np.empty((m, n))
    np.matmul(flat[:full].reshape(-1, _TILE, flat.shape[1]), w,
              out=y[:full].reshape(-1, _TILE, n))
    if full < m:
        tail = np.zeros((1, _TILE, flat.shape[1]))
        tail[0, :m - full] = flat[full:]
        y[full:] = (tail @ w)[0, :m - full]
    if b is not None:
        y += b
    return y.reshape(*x.shape[:-1], n)


def _softmax(logits):
    """Softmax over the last axis, computed in place: it overwrites
    logits with the weights and returns it. A -inf logit gets weight 0."""
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def _qkv(q_in, k_in, v_in, weights, prefix):
    """Query, key and value projections of attention block prefix."""
    return tuple(_linear(x, weights[f"{prefix}.w{n}"],
                         weights[f"{prefix}.b{n}"])
                 for n, x in zip("qkv", (q_in, k_in, v_in)))


def _sdpa(q, k, v):
    """Scaled dot-product attention over the last two axes; returns the
    readout and the attention weights, which live in the logits buffer."""
    logits = q @ np.swapaxes(k, -1, -2)
    logits /= np.sqrt(q.shape[-1])
    a = _softmax(logits)
    return a @ v, a


def _attention_block(x, q_in, k_in, v_in, weights, prefix):
    """Residual attention block: x + sdpa(q, k, v) @ wo + bo."""
    read, _ = _sdpa(*_qkv(q_in, k_in, v_in, weights, prefix))
    return _residual_out(x, read, weights[f"{prefix}.wo"],
                         weights[f"{prefix}.bo"])


# ---------------------------------------------------------------------------
# Cross-modal locally weighted fusion
# ---------------------------------------------------------------------------

@lru_cache
def _neighbor_table(grid: tuple[int, int], radius: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(N, K) neighbor token indices and validity mask for Chebyshev
    neighborhoods of the given radius; K = (2*radius+1)**2 offsets in
    row-major offset order (matching the locality-bias table). Cached per
    (grid, radius), so both arrays are read-only."""
    rows, cols = grid
    rr, cc = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    rr, cc = rr.ravel(), cc.ravel()
    offs = [(dy, dx) for dy in range(-radius, radius + 1)
            for dx in range(-radius, radius + 1)]
    idx = np.zeros((rows * cols, len(offs)), dtype=np.int64)
    mask = np.zeros((rows * cols, len(offs)), dtype=bool)
    for k, (dy, dx) in enumerate(offs):
        nr, nc = rr + dy, cc + dx
        ok = (nr >= 0) & (nr < rows) & (nc >= 0) & (nc < cols)
        idx[:, k] = np.where(ok, nr * cols + nc, 0)
        mask[:, k] = ok
    idx.flags.writeable = mask.flags.writeable = False
    return idx, mask


def _clwf_attention(event_tokens: Tokens, image_tokens: Tokens,
                    weights: WeightBundle):
    """CLWF's q, k, v, its attention weights a over each event token's K
    neighbour slots, and the neighbour table idx, mask."""
    if event_tokens.grid != image_tokens.grid:
        raise ShapeMismatch(
            f"grids differ: {event_tokens.grid} vs {image_tokens.grid}")
    E, I = event_tokens.values, image_tokens.values
    q, k, v = _qkv(E, I, I, weights, "clwf")
    idx, mask = _neighbor_table(event_tokens.grid, weights.config.radius)
    bias = weights["clwf.bias_table"]
    # neighbour-gathered einsums rather than _sdpa: only the K neighbours of
    # each token are scored
    logits = (np.einsum("nd,nkd->nk", q, k[idx]) / np.sqrt(E.shape[1])
              + bias[None, :])
    a = _softmax(np.where(mask, logits, -np.inf))
    return q, k, v, a, idx, mask


def clwf_fuse(event_tokens: Tokens, image_tokens: Tokens,
              weights: WeightBundle) -> Tokens:
    """Locality-masked cross-attention: each event token queries image
    tokens within Chebyshev distance <= radius on the shared token grid and
    adds the attention readout as a residual.
    """
    _, _, v, a, idx, _ = _clwf_attention(event_tokens, image_tokens, weights)
    out = event_tokens.values + np.einsum("nk,nkd->nd", a, v[idx])
    return Tokens(values=out, grid=event_tokens.grid)


def clwf_backward(event_tokens: Tokens, image_tokens: Tokens,
                  upstream: np.ndarray,
                  weights: WeightBundle) -> dict[str, np.ndarray]:
    """Analytic gradients of clwf_fuse's output, given its upstream
    gradient: keys d_event, d_image and d_<param> for every clwf.*
    parameter."""
    q, k, v, a, idx, mask = _clwf_attention(event_tokens, image_tokens,
                                            weights)
    E, I = event_tokens.values, image_tokens.values
    d = E.shape[1]
    g = np.asarray(upstream, dtype=np.float64)

    dE = g.copy()
    dv = np.zeros_like(v)
    # dv_i += sum_j a_{j,k} g_j over neighbor slots mapping to i
    np.add.at(dv, idx, a[:, :, None] * g[:, None, :])
    da = np.einsum("nd,nkd->nk", g, v[idx])
    da = np.where(mask, da, 0.0)
    dlogit = a * (da - np.sum(a * da, axis=1, keepdims=True))
    dbias = dlogit.sum(axis=0)
    dq = np.einsum("nk,nkd->nd", dlogit, k[idx]) / np.sqrt(d)
    dk = np.zeros_like(k)
    np.add.at(dk, idx, dlogit[:, :, None] * q[:, None, :] / np.sqrt(d))

    grads = {
        "d_clwf.wq": E.T @ dq, "d_clwf.bq": dq.sum(axis=0),
        "d_clwf.wk": I.T @ dk, "d_clwf.bk": dk.sum(axis=0),
        "d_clwf.wv": I.T @ dv, "d_clwf.bv": dv.sum(axis=0),
        "d_clwf.bias_table": dbias,
    }
    dE += dq @ weights["clwf.wq"].T
    dI = dk @ weights["clwf.wk"].T + dv @ weights["clwf.wv"].T
    grads["d_event"] = dE
    grads["d_image"] = dI
    return grads


# ---------------------------------------------------------------------------
# Transient state machine
# ---------------------------------------------------------------------------

def _layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return g * (x - mu) / np.sqrt(var + _LN_EPS) + b


def taf_init(frame: np.ndarray, frame_time: int, exposure_batch: EventBatch,
             weights: WeightBundle) -> TransientState:
    """Initialize the transient state from a frame and its exposure-window
    events: R = CLWF(Phi_E(F(events)), Phi_I(frame))."""
    frame = np.asarray(frame, dtype=np.float64)
    h, w = frame.shape[:2]
    tensor = sbt_time_surface(exposure_batch, w, h, weights.config.subwindows)
    etok = tokenize_events(tensor, weights)
    itok = tokenize_frame(frame, weights)
    fused = clwf_fuse(etok, itok, weights)
    return TransientState(tokens=fused, state_time=frame_time)


@lru_cache
def _block_tables(grid: tuple[int, int], patch: int, B: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Per pixel y * width + x of a grid of patch x patch tokens, its
    token's row-major index and the offset of its B values in that token's
    patch * patch * B block, in the (py, px, b) order _patch_blocks
    flattens to. Cached per (grid, patch, B), so both arrays are
    read-only."""
    rows, cols = grid
    y = np.arange(rows * patch)[:, None]
    x = np.arange(cols * patch)
    tile = (y // patch * cols + x // patch).ravel()
    offset = (y % patch * (patch * B) + x % patch * B).ravel()
    tile.flags.writeable = offset.flags.writeable = False
    return tile, offset


def _update_keys(batch: EventBatch, grid: tuple[int, int],
                 weights: WeightBundle) -> UpdateKeys:
    """taf_update's event side: the attention keys and values of batch's
    event tokens on the token grid, and the logit bias per key. The keys
    are those of the patches that hold a non-zero value, in row-major
    order, then, if any patch is all zero, one key standing for them all,
    whose bias is log(n_empty); every other bias is 0.

    Each patch that holds an event gets a slot of a zeroed buffer, in
    row-major order, and the events' values are written straight into the
    slots' blocks by the time surface's last-write rule, so the cost
    follows the events, not the sensor. An event can still write ±0 (one
    whose time rounds onto or below its sub-window's start in float64), so
    a slot that holds only ±0 is dropped. An all-zero patch always
    tokenizes to zeros @ phi_e.w + phi_e.b, so its n_empty copies give
    n_empty equal keys and values; one copy, the buffer's last row, whose
    logit is raised by log(n_empty) takes their joint softmax weight."""
    rows, cols = grid
    patch, B = weights.config.patch, weights.config.subwindows
    pixels = _cells(batch, cols * patch, rows * patch)
    tile_of, offset_of = _block_tables(grid, patch, B)
    tile = tile_of[pixels]
    slot = np.zeros(rows * cols, dtype=np.int64)
    slot[tile] = 1
    np.cumsum(slot, out=slot)  # 1-based slots of the marked patches
    size = patch * patch * B
    blocks = np.zeros((slot[-1] + 1, size))
    b, val = _subwindow_values(batch, B)
    _last_write(blocks.reshape(-1),
                (slot[tile] - 1) * size + offset_of[pixels] + b, val)
    live = blocks.any(axis=1)
    n_empty = rows * cols - int(np.count_nonzero(live))
    live[-1] = n_empty > 0
    key_bias = np.zeros(np.count_nonzero(live))
    if n_empty:
        key_bias[-1] = np.log(n_empty)
    etok = _linear(blocks[live], weights["phi_e.w"], weights["phi_e.b"])
    hk = _layer_norm(etok, weights["upd.ln_events.g"],
                     weights["upd.ln_events.b"])
    return (*(_linear(hk, weights[f"upd.w{n}"], weights[f"upd.b{n}"])
              for n in "kv"), key_bias)


def _update_rows(values: np.ndarray, keys: UpdateKeys,
                 weights: WeightBundle) -> np.ndarray:
    """taf_update's state side on (M, d) token rows of a state: the
    pre-norm residual block attending to one batch's keys. The layer norm,
    softmax and residual act on each row alone and the four products are
    _tiled, so any rows, in any order, get the dense call's rows bit for
    bit."""
    k, v, key_bias = keys
    hq = _layer_norm(values, weights["upd.ln_state.g"],
                     weights["upd.ln_state.b"])
    q = _tiled(hq, weights["upd.wq"], weights["upd.bq"])
    logits = _tiled(q, k.T)
    logits /= np.sqrt(q.shape[1])
    logits += key_bias
    read = _tiled(_softmax(logits), v)
    out = _tiled(read, weights["upd.wo"])
    out += values
    out += weights["upd.bo"]
    return out


def taf_update(state: TransientState, batch: EventBatch,
               weights: WeightBundle) -> TransientState:
    """Refine the state with one event batch through a pre-norm residual
    cross-attention block; an empty batch only advances state_time.

    The state attends to the tokens of the event patches that hold an
    event and to one shared key for all event-free patches, weighted by
    their count, which equals attending to every event token. The batch
    updates the tokens the state holds, none or all, and its keys stay on
    the result."""
    if batch.bin_end < state.state_time:
        raise TimeRegression(
            f"batch ends at {batch.bin_end} before state time {state.state_time}")
    if len(batch) == 0:
        return TransientState(tokens=state.tokens, state_time=batch.bin_end)
    tokens = state.tokens
    keys = _update_keys(batch, tokens.grid, weights)
    values = tokens.values
    if len(values):
        values = _update_rows(values, keys, weights)
    return TransientState(tokens=Tokens(values, tokens.grid),
                          state_time=batch.bin_end, keys=keys)


# ---------------------------------------------------------------------------
# Temporal self-attention
# ---------------------------------------------------------------------------

def sinusoidal_encoding(positions: np.ndarray, dim: int) -> np.ndarray:
    """Standard interleaved sin/cos encoding of scalar positions. An odd
    dim has one more sin slot than cos slots."""
    positions = np.asarray(positions, dtype=np.float64)
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(dim - half) / max(half, 1))
    ang = positions[..., None] * freqs
    enc = np.zeros(positions.shape + (dim,))
    enc[..., 0::2] = np.sin(ang)
    enc[..., 1::2] = np.cos(ang[..., :half])
    return enc


def _temporal_attention_parts(x: np.ndarray, weights: WeightBundle):
    """x + pe, the (T, N, d) q, k, v, the (N, T, d) readout and the
    (N, T, T) attention weights a of temporal attention on float64 x."""
    t_len, _, d = x.shape
    pe = sinusoidal_encoding(np.arange(t_len), d)[:, None, :]
    xin = x + pe
    q, k, v = (_tiled(m, weights[f"tattn.w{p}"], weights[f"tattn.b{p}"])
               for p, m in zip("qkv", (xin, xin, x)))
    # (N, T, d) views: attend across time independently per token position
    read, a = _sdpa(*(m.transpose(1, 0, 2) for m in (q, k, v)))
    return xin, q, k, v, read, a


def temporal_attention(x: np.ndarray, weights: WeightBundle) -> np.ndarray:
    """Per-token-position self-attention across time on a (T, N, d) window
    of state tokens; returns the (T, N, d) result.

    Temporal sinusoidal encodings of the step index are added to queries
    and keys only, so time-constant values stay time-constant; residual
    connection around the attention readout.
    """
    x = np.asarray(x, dtype=np.float64)
    read = _temporal_attention_parts(x, weights)[4]
    # project the readout in its (N, T, d) memory order; add as _residual_out
    out = _tiled(read, weights["tattn.wo"]).transpose(1, 0, 2)
    out += x
    out += weights["tattn.bo"]
    return out


def temporal_attention_backward(x: np.ndarray, upstream: np.ndarray,
                                weights: WeightBundle) -> dict[str, np.ndarray]:
    """Analytic gradients of temporal_attention's output, given its
    upstream gradient: d_x and d_<param> for every tattn.* parameter."""
    x = np.asarray(x, dtype=np.float64)
    xin, q, k, v, read, a = _temporal_attention_parts(x, weights)
    d = x.shape[2]
    g = np.asarray(upstream, dtype=np.float64)

    dx = g.copy()
    dread = g @ weights["tattn.wo"].T
    dwo = read.transpose(1, 0, 2).reshape(-1, d).T @ g.reshape(-1, d)
    dbo = g.sum(axis=(0, 1))

    dreadn = dread.transpose(1, 0, 2)           # (N, T, d)
    vn = v.transpose(1, 0, 2)
    da = dreadn @ vn.transpose(0, 2, 1)          # (N, T, T)
    dvn = a.transpose(0, 2, 1) @ dreadn
    dlog = a * (da - np.sum(a * da, axis=2, keepdims=True))
    kn, qn = k.transpose(1, 0, 2), q.transpose(1, 0, 2)
    dqn = dlog @ kn / np.sqrt(d)
    dkn = dlog.transpose(0, 2, 1) @ qn / np.sqrt(d)
    dq = dqn.transpose(1, 0, 2)
    dk = dkn.transpose(1, 0, 2)
    dv = dvn.transpose(1, 0, 2)

    flat = lambda m: m.reshape(-1, d)
    grads = {
        "d_tattn.wq": flat(xin).T @ flat(dq), "d_tattn.bq": dq.sum(axis=(0, 1)),
        "d_tattn.wk": flat(xin).T @ flat(dk), "d_tattn.bk": dk.sum(axis=(0, 1)),
        "d_tattn.wv": flat(x).T @ flat(dv), "d_tattn.bv": dv.sum(axis=(0, 1)),
        "d_tattn.wo": dwo, "d_tattn.bo": dbo,
    }
    dx += dq @ weights["tattn.wq"].T + dk @ weights["tattn.wk"].T \
        + dv @ weights["tattn.wv"].T
    grads["d_x"] = dx
    return grads


# ---------------------------------------------------------------------------
# Pyramid decoder
# ---------------------------------------------------------------------------

def decode_pyramid(x: np.ndarray, weights: WeightBundle
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode a (W, rows, cols, d) window of state tokens in one pass into
    the tuple of 3 token-resolution levels by chained channel mixes: level
    l is (W, rows, cols, C_l) with C_l = C_{l-1} @ dec.w_l + dec.b_l, slice
    t being the decode of step t. The _tiled mixes act on each token alone,
    so the (n, W, d) rows of some of the window's tokens decode bit for bit.

    Nearest-neighbour upsampling commutes with the per-token mixes, so
    level l, each token repeated into a 2**l x 2**l block, is the map an
    upsampling decoder would build at stride patch / 2**l. The refiner's
    sampler reads those blocks in place, so no upsampled copy is built."""
    levels = []
    for lvl in range(3):
        x = _tiled(x, weights[f"dec.w{lvl}"], weights[f"dec.b{lvl}"])
        levels.append(x)
    return tuple(levels)
