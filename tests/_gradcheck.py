"""Central-finite-difference verification helpers for the analytic
backward passes. Each helper builds a seeded random instance, computes
analytic gradients of a random linear readout of the forward output, and
compares against central differences over every coordinate."""

import numpy as np

from tapfuse.fusion import (
    Tokens,
    clwf_backward,
    clwf_fuse,
    temporal_attention,
    temporal_attention_backward,
)
from tapfuse.weights import FusionConfig, WeightBundle

FD_STEP = 1e-4

CLWF_PARAMS = ("clwf.wq", "clwf.wk", "clwf.wv", "clwf.bq", "clwf.bk",
               "clwf.bv", "clwf.bias_table")
TATTN_PARAMS = ("tattn.wq", "tattn.wk", "tattn.wv", "tattn.bq", "tattn.bk",
                "tattn.bv", "tattn.wo", "tattn.bo")


def _rel_err(analytic, numeric):
    scale = np.maximum(1e-2, np.maximum(np.abs(analytic), np.abs(numeric)))
    return np.max(np.abs(analytic - numeric) / scale)


def _fd_grad(loss, arr, h=FD_STEP):
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        ix = it.multi_index
        orig = arr[ix]
        arr[ix] = orig + h
        up = loss()
        arr[ix] = orig - h
        dn = loss()
        arr[ix] = orig
        g[ix] = (up - dn) / (2 * h)
    return g


def _randomize(weights, names, rng, scale=0.5):
    for name in names:
        weights.params[name] = rng.normal(scale=scale,
                                          size=weights.params[name].shape)


def clwf_grad_max_rel_err(seed, d=4, grid=(3, 3), radius=1):
    """Max relative error between clwf_backward and central differences."""
    rng = np.random.default_rng(seed)
    cfg = FusionConfig(d=d, radius=radius)
    weights = WeightBundle.initialize(cfg, seed)
    _randomize(weights, CLWF_PARAMS, rng)
    n = grid[0] * grid[1]
    ev = rng.normal(size=(n, d))
    im = rng.normal(size=(n, d))
    g = rng.normal(size=(n, d))

    event_tokens = Tokens(values=ev, grid=grid)
    image_tokens = Tokens(values=im, grid=grid)

    def loss():
        out = clwf_fuse(event_tokens, image_tokens, weights)
        return float(np.sum(g * out.values))

    grads = clwf_backward(event_tokens, image_tokens, g, weights)

    worst = _rel_err(grads["d_event"], _fd_grad(loss, ev))
    worst = max(worst, _rel_err(grads["d_image"], _fd_grad(loss, im)))
    for name in CLWF_PARAMS:
        worst = max(worst, _rel_err(grads[f"d_{name}"],
                                    _fd_grad(loss, weights.params[name])))
    return worst


def tattn_grad_max_rel_err(seed, t_len=3, n=4, d=4):
    """Max relative error between temporal_attention_backward and central
    differences."""
    rng = np.random.default_rng(seed)
    cfg = FusionConfig(d=d)
    weights = WeightBundle.initialize(cfg, seed)
    _randomize(weights, TATTN_PARAMS, rng)
    x = rng.normal(size=(t_len, n, d))
    g = rng.normal(size=(t_len, n, d))

    def loss():
        return float(np.sum(g * temporal_attention(x, weights)))

    grads = temporal_attention_backward(x, g, weights)

    worst = _rel_err(grads["d_x"], _fd_grad(loss, x))
    for name in TATTN_PARAMS:
        worst = max(worst, _rel_err(grads[f"d_{name}"],
                                    _fd_grad(loss, weights.params[name])))
    return worst
