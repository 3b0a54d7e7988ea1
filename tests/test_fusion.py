import dataclasses
import hashlib
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _gradcheck import clwf_grad_max_rel_err, tattn_grad_max_rel_err
from tapfuse.arrayio import tensor_record
from tapfuse.errors import (
    DataError,
    GeometryMismatch,
    MalformedRecord,
    NonFiniteValue,
    ShapeMismatch,
    TapfuseError,
    TimeRegression,
)
from tapfuse.events import Event, EventBatch
from tapfuse.fusion import (
    Tokens,
    TransientState,
    _attention_block,
    _block_tables,
    _clwf_attention,
    _layer_norm,
    _linear,
    _live_event_tokens,
    _neighbor_table,
    _patch_blocks,
    _residual_out,
    _sdpa,
    _softmax,
    _temporal_attention_parts,
    _tiled,
    _update_rows,
    clwf_backward,
    clwf_fuse,
    decode_pyramid,
    sinusoidal_encoding,
    taf_init,
    taf_update,
    temporal_attention,
    tokenize_events,
    tokenize_frame,
)
from tapfuse.representations import EventTensor, sbt_time_surface
from tapfuse.weights import (
    TFW_MAGIC,
    FusionConfig,
    WeightBundle,
    load_weights,
    parameter_specs,
    save_weights,
)


def small_weights(seed=0, **kw):
    return WeightBundle.initialize(FusionConfig(**kw), seed)


def make_batch(events, bin_start, bin_end):
    evs = sorted(events, key=lambda e: (e.t, e.y, e.x, e.p))
    return EventBatch(
        t=np.array([e.t for e in evs], dtype=np.uint64),
        x=np.array([e.x for e in evs], dtype=np.uint16),
        y=np.array([e.y for e in evs], dtype=np.uint16),
        p=np.array([e.p for e in evs], dtype=np.int8),
        bin_start=bin_start, bin_end=bin_end)


def random_tokens(rng, grid, d):
    return Tokens(values=rng.normal(size=(grid[0] * grid[1], d)), grid=grid)


class TestTokenizers:
    def test_frame_tokens_match_manual_patch_matmul(self):
        rng = np.random.default_rng(0)
        weights = small_weights(d=6, patch=4)
        image = rng.normal(size=(8, 12)) ** 2 + 1.0
        toks = tokenize_frame(image, weights)
        assert toks.grid == (2, 3)
        for r in range(2):
            for c in range(3):
                patch = image[4 * r:4 * r + 4, 4 * c:4 * c + 4].ravel()
                want = patch @ weights["phi_i.w"] + weights["phi_i.b"]
                np.testing.assert_allclose(toks.values[r * 3 + c], want)

    def test_event_tokens_match_manual_patch_matmul(self):
        rng = np.random.default_rng(1)
        weights = small_weights(d=6, patch=4, subwindows=3)
        data = rng.normal(size=(8, 8, 3))
        toks = tokenize_events(EventTensor(data=data), weights)
        patch = data[0:4, 4:8].transpose(0, 1, 2).reshape(-1)
        want = patch @ weights["phi_e.w"] + weights["phi_e.b"]
        np.testing.assert_allclose(toks.values[1], want)

    def test_indivisible_image_rejected(self):
        with pytest.raises(ShapeMismatch):
            tokenize_frame(np.ones((10, 16)), small_weights(patch=8))


class TestClwf:
    def test_radius_zero_reads_own_token(self):
        rng = np.random.default_rng(2)
        weights = small_weights(seed=3, d=4, radius=0)
        ev = random_tokens(rng, (3, 3), 4)
        im = random_tokens(rng, (3, 3), 4)
        out = clwf_fuse(ev, im, weights)
        v = im.values @ weights["clwf.wv"] + weights["clwf.bv"]
        np.testing.assert_allclose(out.values, ev.values + v)

    def test_zero_keys_give_neighborhood_mean(self):
        rng = np.random.default_rng(3)
        weights = small_weights(seed=4, d=4)
        weights.params["clwf.wk"] = np.zeros((4, 4))
        ev = random_tokens(rng, (4, 4), 4)
        im = random_tokens(rng, (4, 4), 4)
        out = clwf_fuse(ev, im, weights)
        v = (im.values @ weights["clwf.wv"] + weights["clwf.bv"]).reshape(4, 4, 4)
        # interior token (1, 2) averages its full 3x3 neighborhood
        want = ev.values.reshape(4, 4, 4)[1, 2] + v[0:3, 1:4].mean(axis=(0, 1))
        np.testing.assert_allclose(out.values[1 * 4 + 2], want)

    def test_two_token_hand_weights(self):
        # scalar tokens, identity projections, keys {0, ln 3}:
        # softmax weights are exactly {1/4, 3/4}
        weights = small_weights(d=1)
        for name in ("clwf.wq", "clwf.wk", "clwf.wv"):
            weights.params[name] = np.ones((1, 1))
        ev = Tokens(values=np.array([[1.0], [1.0]]), grid=(1, 2))
        im = Tokens(values=np.array([[0.0], [np.log(3.0)]]), grid=(1, 2))
        out = clwf_fuse(ev, im, weights)
        want = 1.0 + (0.25 * 0.0 + 0.75 * np.log(3.0))
        assert out.values[0, 0] == pytest.approx(want)
        assert out.values[1, 0] == pytest.approx(want)

    def test_attention_rows_stochastic_and_masked(self):
        rng = np.random.default_rng(4)
        weights = small_weights(seed=5, d=8)
        _, _, _, a, _, mask = _clwf_attention(
            random_tokens(rng, (5, 6), 8), random_tokens(rng, (5, 6), 8),
            weights)
        np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(a[~mask] == 0.0)

    def test_far_image_token_has_exactly_zero_influence(self):
        rng = np.random.default_rng(5)
        weights = small_weights(seed=6, d=4)
        ev = random_tokens(rng, (5, 5), 4)
        im = rng.normal(size=(25, 4))
        base = clwf_fuse(ev, Tokens(values=im, grid=(5, 5)), weights)
        bumped = im.copy()
        bumped[24] += 10.0  # token (4, 4), Chebyshev distance 4 from (0, 0)
        out = clwf_fuse(ev, Tokens(values=bumped, grid=(5, 5)), weights)
        np.testing.assert_array_equal(base.values[0], out.values[0])
        assert not np.allclose(base.values[24], out.values[24])

    def test_uniform_bias_shift_is_invariant(self):
        rng = np.random.default_rng(6)
        weights = small_weights(seed=7, d=4)
        ev = random_tokens(rng, (3, 4), 4)
        im = random_tokens(rng, (3, 4), 4)
        base = clwf_fuse(ev, im, weights)
        weights.params["clwf.bias_table"] = weights["clwf.bias_table"] + 3.7
        shifted = clwf_fuse(ev, im, weights)
        np.testing.assert_allclose(base.values, shifted.values, atol=1e-12)

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(7)
        d, grid = 6, (4, 5)
        weights = small_weights(seed=8, d=d)
        weights.params["clwf.bias_table"] = rng.normal(size=9)
        ev = random_tokens(rng, grid, d)
        im = random_tokens(rng, grid, d)
        got = clwf_fuse(ev, im, weights).values

        q = ev.values @ weights["clwf.wq"] + weights["clwf.bq"]
        k = im.values @ weights["clwf.wk"] + weights["clwf.bk"]
        v = im.values @ weights["clwf.wv"] + weights["clwf.bv"]
        rows, cols = grid
        want = np.zeros_like(got)
        for r in range(rows):
            for c in range(cols):
                n = r * cols + c
                logits, vals = [], []
                for oi, (dy, dx) in enumerate(
                        [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]):
                    nr, nc = r + dy, c + dx
                    if not (0 <= nr < rows and 0 <= nc < cols):
                        continue
                    m = nr * cols + nc
                    logits.append(q[n] @ k[m] / np.sqrt(d)
                                  + weights["clwf.bias_table"][oi])
                    vals.append(v[m])
                w = np.exp(np.array(logits) - max(logits))
                w /= w.sum()
                want[n] = ev.values[n] + w @ np.array(vals)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_grid_mismatch_rejected(self):
        rng = np.random.default_rng(8)
        weights = small_weights(d=4)
        with pytest.raises(ShapeMismatch):
            clwf_fuse(random_tokens(rng, (2, 3), 4),
                      random_tokens(rng, (3, 2), 4), weights)

    def test_backward_rejects_grids_that_differ_as_the_forward_does(self):
        """The backward pass recomputes the forward from its inputs, so
        tokens of two grids stop it before any gradient is formed."""
        rng = np.random.default_rng(0)
        with pytest.raises(ShapeMismatch, match="grids differ"):
            clwf_backward(random_tokens(rng, (2, 3), 4),
                          random_tokens(rng, (3, 2), 4), np.zeros((6, 4)),
                          small_weights(d=4))

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_match_finite_differences(self, seed):
        assert clwf_grad_max_rel_err(seed) < 1e-4


class TestTransientState:
    def frame_and_batch(self, rng, size=16):
        frame = rng.normal(size=(size, size)) ** 2 + 1.0
        events = [Event(x=int(rng.integers(0, size)),
                        y=int(rng.integers(0, size)),
                        t=int(rng.integers(1, 1001)),
                        p=int(rng.choice([-1, 1]))) for _ in range(80)]
        return frame, make_batch(events, 0, 1000)

    def test_init_composes_tokenizers_and_clwf(self):
        rng = np.random.default_rng(9)
        weights = small_weights(seed=10, d=8, patch=8)
        frame, batch = self.frame_and_batch(rng)
        state = taf_init(frame, 1000, batch, weights)
        tensor = sbt_time_surface(batch, 16, 16, weights.config.subwindows)
        want = clwf_fuse(tokenize_events(tensor, weights),
                         tokenize_frame(frame, weights), weights)
        np.testing.assert_array_equal(state.tokens.values, want.values)
        assert state.state_time == 1000

    def test_empty_batch_skip_is_bit_identical(self):
        rng = np.random.default_rng(10)
        weights = small_weights(seed=11, d=8, patch=8)
        frame, batch = self.frame_and_batch(rng)
        state = taf_init(frame, 1000, batch, weights)
        out = taf_update(state, make_batch([], 1000, 2000), weights)
        assert out.tokens.values is state.tokens.values
        assert out.state_time == 2000

    def test_time_regression_rejected(self):
        rng = np.random.default_rng(11)
        weights = small_weights(seed=12, d=8, patch=8)
        frame, batch = self.frame_and_batch(rng)
        state = taf_init(frame, 1000, batch, weights)
        with pytest.raises(TimeRegression):
            taf_update(state, make_batch([], 0, 500), weights)

    def test_zero_output_projection_is_identity_update(self):
        rng = np.random.default_rng(12)
        weights = small_weights(seed=13, d=8, patch=8)
        assert not weights["upd.wo"].any()  # zero by construction
        frame, batch = self.frame_and_batch(rng)
        state = taf_init(frame, 1000, batch, weights)
        _, batch2 = self.frame_and_batch(rng)
        later = [Event(int(batch2.x[i]), int(batch2.y[i]),
                       int(batch2.t[i]) + 1000, int(batch2.p[i]))
                 for i in range(len(batch2))]
        out = taf_update(state, make_batch(later, 1000, 2000), weights)
        np.testing.assert_array_equal(out.tokens.values, state.tokens.values)
        assert out.state_time == 2000

    def test_update_is_deterministic(self):
        rng = np.random.default_rng(13)
        weights = small_weights(seed=14, d=8, patch=8)
        weights.params["upd.wo"] = np.random.default_rng(99).normal(size=(8, 8))
        frame, batch = self.frame_and_batch(rng)
        state = taf_init(frame, 1000, batch, weights)
        nb = make_batch([Event(3, 3, 1500, 1), Event(9, 2, 1700, -1)], 1000, 2000)
        a = taf_update(state, nb, weights)
        b = taf_update(state, nb, weights)
        np.testing.assert_array_equal(a.tokens.values, b.tokens.values)
        assert not np.array_equal(a.tokens.values, state.tokens.values)


class TestTemporalAttention:
    def rand_weights(self, seed, d=6):
        weights = small_weights(seed=seed, d=d)
        rng = np.random.default_rng(seed + 100)
        weights.params["tattn.wo"] = rng.normal(scale=0.3, size=(d, d))
        return weights

    def test_time_constant_input_stays_time_constant(self):
        rng = np.random.default_rng(14)
        weights = self.rand_weights(15)
        xc = rng.normal(size=(4, 6))
        x = np.broadcast_to(xc, (5, 4, 6)).copy()
        out = temporal_attention(x, weights)
        for t in range(1, 5):
            np.testing.assert_allclose(out[t], out[0], atol=1e-12)

    def test_single_step_window(self):
        rng = np.random.default_rng(15)
        weights = self.rand_weights(16)
        x = rng.normal(size=(1, 3, 6))
        out = temporal_attention(x, weights)
        v = x @ weights["tattn.wv"] + weights["tattn.bv"]
        want = x + v @ weights["tattn.wo"] + weights["tattn.bo"]
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_zero_output_projection_is_identity(self):
        rng = np.random.default_rng(16)
        weights = small_weights(seed=17, d=6)
        x = rng.normal(size=(4, 5, 6))
        np.testing.assert_array_equal(temporal_attention(x, weights), x)

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(17)
        weights = self.rand_weights(18)
        t_len, n, d = 4, 3, 6
        x = rng.normal(size=(t_len, n, d))
        got = temporal_attention(x, weights)
        pe = sinusoidal_encoding(np.arange(t_len), d)
        want = np.zeros_like(x)
        for j in range(n):
            xin = x[:, j, :] + pe
            q = xin @ weights["tattn.wq"] + weights["tattn.bq"]
            k = xin @ weights["tattn.wk"] + weights["tattn.bk"]
            v = x[:, j, :] @ weights["tattn.wv"] + weights["tattn.bv"]
            logits = q @ k.T / np.sqrt(d)
            a = np.exp(logits - logits.max(axis=1, keepdims=True))
            a /= a.sum(axis=1, keepdims=True)
            want[:, j, :] = x[:, j, :] + (a @ v) @ weights["tattn.wo"] \
                + weights["tattn.bo"]
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_match_finite_differences(self, seed):
        assert tattn_grad_max_rel_err(seed) < 1e-4


def upsample(level, block):
    """The full-resolution map a token-resolution level stands for: each
    token repeated into a block x block square (nearest neighbour)."""
    return np.repeat(np.repeat(level, block, axis=-3), block, axis=-2)


class TestPyramidDecoder:
    def test_level_shapes_are_token_resolution(self):
        rng = np.random.default_rng(19)
        weights = small_weights(seed=20, d=8)
        pyr = decode_pyramid(rng.normal(size=(1, 4, 6, 8)), weights)
        assert [lvl.shape for lvl in pyr] == [
            (1, 4, 6, 64), (1, 4, 6, 32), (1, 4, 6, 16)]
        # the maps they stand for, at strides patch / 2**l
        assert upsample(pyr[1], 2).shape == (1, 8, 12, 32)
        assert upsample(pyr[2], 4).shape == (1, 16, 24, 16)

    def test_matches_manual_composition(self):
        """Upsampled, the levels equal the full-resolution decoder:
        nearest-neighbour 2x upsampling, then the channel mix. The oracle
        mixes with _tiled, whose rows do not depend on the BLAS kernel's
        blocking of the product, as a plain (3, 3, 8) @ (8, C) does."""
        rng = np.random.default_rng(20)
        weights = small_weights(seed=21, d=8)
        x = rng.normal(size=(3, 3, 8))
        pyr = decode_pyramid(x[None], weights)
        l0 = _tiled(x, weights["dec.w0"], weights["dec.b0"])
        l1 = _tiled(upsample(l0, 2), weights["dec.w1"], weights["dec.b1"])
        l2 = _tiled(upsample(l1, 2), weights["dec.w2"], weights["dec.b2"])
        for lvl, want in enumerate((l0, l1, l2)):
            assert np.array_equal(upsample(pyr[lvl][0], 2 ** lvl), want)

    def test_window_decode_equals_per_state_decodes(self):
        rng = np.random.default_rng(22)
        weights = small_weights(seed=23, d=8)
        x = rng.normal(size=(5, 3, 4, 8))
        window = decode_pyramid(x, weights)
        for lvl, stacked in enumerate(window):
            assert stacked.shape[0] == 5
            for t in range(5):
                single = decode_pyramid(x[t:t + 1], weights)[lvl]
                assert np.array_equal(stacked[t], single[0])


@st.composite
def token_subsets(draw):
    """A (T, rows, cols) window shape and a subset of its rows * cols token
    positions, in any order."""
    t_len = draw(st.integers(1, 16))
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(1, 12))
    n = rows * cols
    subset = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                           unique=True))
    return t_len, rows, cols, subset


@settings(max_examples=100, deadline=None)
@given(drawn=token_subsets(), d=st.sampled_from([8, 17, 24, 64, 65, 100]),
       seed=st.integers(0, 2**16))
def test_attention_and_decoder_act_per_token_column(drawn, d, seed):
    """The tracker decodes a window only at the tokens its refiner reads:
    temporal attention and the decoder on any token columns, one alone or
    a one-token-wide grid's included, give the dense window's values for
    them bit for bit at every width. A layer that mixed token positions
    would fail here, and so would a product whose rows round by the row
    count, as a plain matmul's do at d = 17, 65 and 100 or on its vector
    path for one row."""
    t_len, rows, cols, subset = drawn
    weights = perturbed_weights(seed % 50, d=d)
    x = np.random.default_rng(seed).normal(size=(t_len, rows * cols, d))
    dense = temporal_attention(x, weights)
    dense_levels = decode_pyramid(dense.reshape(t_len, rows, cols, d),
                                  weights)
    part = temporal_attention(x[:, subset], weights)
    assert np.array_equal(part.view(np.uint64),
                          dense[:, subset].view(np.uint64))
    for got, want in zip(decode_pyramid(part, weights), dense_levels):
        got = got.reshape(t_len, len(subset), -1)
        want = want.reshape(t_len, rows * cols, -1)[:, subset]
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# ---------------------------------------------------------------------------
# In-place forward passes
# ---------------------------------------------------------------------------

# Out-of-place references: the same operations in the same order, each
# into a fresh array. The in-place forward passes must equal them bit for
# bit.

def ref_softmax(logits):
    a = np.exp(logits - logits.max(axis=-1, keepdims=True))
    a /= a.sum(axis=-1, keepdims=True)
    return a


def ref_sdpa(q, k, v):
    a = ref_softmax(q @ np.swapaxes(k, -1, -2) / np.sqrt(q.shape[-1]))
    return a @ v, a


def ref_linear(x, w, b):
    return x @ w + b


def ref_residual_out(x, read, wo, bo):
    return x + read @ wo + bo


def ref_qkv(q_in, k_in, v_in, weights, prefix):
    return tuple(ref_linear(x, weights[f"{prefix}.w{n}"],
                            weights[f"{prefix}.b{n}"])
                 for n, x in zip("qkv", (q_in, k_in, v_in)))


def perturbed_weights(seed, **kw):
    """Seeded init with every all-zero parameter (the residual output
    projections, the biases, the bias table) drawn instead, so every branch
    of every pass contributes."""
    weights = small_weights(seed=seed, **kw)
    rng = np.random.default_rng(seed + 1000)
    for name, value in weights.params.items():
        if not value.any():
            weights.params[name] = rng.normal(scale=0.3, size=value.shape)
    return weights


class TestInPlaceExactness:
    @pytest.mark.parametrize("d", [24, 63, 64])
    def test_sdpa_2d(self, d):
        # sqrt(d) is a power of two only for d = 64, where dividing by it is
        # exact in any order
        rng = np.random.default_rng(d)
        q = 3.0 * rng.normal(size=(70, d))
        k, v = rng.normal(size=(90, d)), rng.normal(size=(90, d))
        read, a = _sdpa(q, k, v)
        want_read, want_a = ref_sdpa(q, k, v)
        assert np.array_equal(read, want_read)
        assert np.array_equal(a, want_a)

    def test_sdpa_batched_over_time(self):
        """(N, T, T) attention on transposed (T, N, d) projections, the
        layout temporal attention hands to _sdpa."""
        rng = np.random.default_rng(30)
        q, k, v = (rng.normal(size=(16, 40, 24)).transpose(1, 0, 2)
                   for _ in range(3))
        read, a = _sdpa(q, k, v)
        want_read, want_a = ref_sdpa(q, k, v)
        assert a.shape == (40, 16, 16)
        assert np.array_equal(read, want_read)
        assert np.array_equal(a, want_a)

    def test_temporal_attention(self):
        rng = np.random.default_rng(31)
        weights = perturbed_weights(32, d=24)
        x = rng.normal(size=(16, 12, 24))
        t_len, _, d = x.shape
        xin = x + sinusoidal_encoding(np.arange(t_len), d)[:, None, :]
        q, k, v = ref_qkv(xin, xin, x, weights, "tattn")
        read, a = ref_sdpa(*(m.transpose(1, 0, 2) for m in (q, k, v)))
        read = read.transpose(1, 0, 2)
        want = ref_residual_out(x, read, weights["tattn.wo"],
                                weights["tattn.bo"])
        assert np.array_equal(temporal_attention(x, weights), want)
        *_, got_read, got_a = _temporal_attention_parts(x, weights)
        assert np.array_equal(got_a, a)
        assert np.array_equal(got_read.transpose(1, 0, 2), read)

    def test_attention_block_at_token_count(self):
        """taf_update's block on 256 tokens of width 64."""
        rng = np.random.default_rng(33)
        weights = perturbed_weights(34, d=64)
        x, h, e = (rng.normal(size=(256, 64)) for _ in range(3))
        read, _ = ref_sdpa(*ref_qkv(h, e, e, weights, "upd"))
        want = ref_residual_out(x, read, weights["upd.wo"], weights["upd.bo"])
        assert np.array_equal(_attention_block(x, h, e, e, weights, "upd"),
                              want)

    def test_softmax_rows_with_masked_logits(self):
        """CLWF rows: -inf outside each token's neighbourhood."""
        rng = np.random.default_rng(35)
        logits = rng.normal(scale=4.0, size=(50, 9))
        mask = rng.random(size=(50, 9)) < 0.6
        mask[:, 4] = True  # every token sees itself
        masked = np.where(mask, logits, -np.inf)
        got = _softmax(masked.copy())
        assert np.array_equal(got, ref_softmax(masked))
        assert not got[~mask].any()

    def test_clwf_fuse(self):
        rng = np.random.default_rng(36)
        grid, d = (5, 7), 24
        weights = perturbed_weights(37, d=d)
        ev, im = random_tokens(rng, grid, d), random_tokens(rng, grid, d)
        E, I = ev.values, im.values
        q, k, v = ref_qkv(E, I, I, weights, "clwf")
        idx, mask = _neighbor_table(grid, weights.config.radius)
        logits = (np.einsum("nd,nkd->nk", q, k[idx]) / np.sqrt(d)
                  + weights["clwf.bias_table"][None, :])
        a = ref_softmax(np.where(mask, logits, -np.inf))
        want = E + np.einsum("nk,nkd->nd", a, v[idx])
        assert np.array_equal(clwf_fuse(ev, im, weights).values, want)
        assert np.array_equal(_clwf_attention(ev, im, weights)[3], a)

    @pytest.mark.parametrize("lead", [(37,), (5, 37), (3, 4, 5)])
    def test_linear_and_residual_broadcast_bias(self, lead):
        rng = np.random.default_rng(len(lead))
        x = rng.normal(size=lead + (24,))
        w, b = rng.normal(size=(24, 63)), rng.normal(size=63)
        assert np.array_equal(_linear(x, w, b), ref_linear(x, w, b))
        read = rng.normal(size=lead + (63,))
        wo, bo = rng.normal(size=(63, 24)), rng.normal(size=24)
        assert np.array_equal(_residual_out(x, read, wo, bo),
                              ref_residual_out(x, read, wo, bo))


def arrays_in(obj):
    """Every ndarray reachable from obj through dataclass fields, dicts,
    lists and tuples."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if dataclasses.is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif isinstance(obj, dict):
        obj = list(obj.values())
    elif not isinstance(obj, (list, tuple)):
        return []
    return [a for item in obj for a in arrays_in(item)]


def call_untouched(fn, *args):
    """fn(*args), asserting that it leaves every array in args, the weights
    among them, byte-equal to a copy taken before the call."""
    arrays = arrays_in(args)
    before = [(a.dtype, a.shape, a.tobytes()) for a in arrays]
    out = fn(*args)
    assert [(a.dtype, a.shape, a.tobytes()) for a in arrays] == before, \
        fn.__name__
    return out


def test_forward_passes_leave_inputs_and_weights_alone():
    """The passes of one track run, on perturbed weights. Two overlapping
    windows are views of one token stack, so a pass that wrote into its
    inputs would corrupt the second window."""
    rng = np.random.default_rng(40)
    weights = perturbed_weights(41, d=8, patch=8)
    size = 32

    def batch(start, end, n=60):
        return make_batch([Event(x=int(rng.integers(0, size)),
                                 y=int(rng.integers(0, size)),
                                 t=int(rng.integers(start + 1, end + 1)),
                                 p=int(rng.choice([-1, 1])))
                           for _ in range(n)], start, end)

    frame = rng.normal(size=(size, size)) ** 2 + 1.0
    exposure = batch(0, 1000)
    tensor = sbt_time_surface(exposure, size, size, weights.config.subwindows)
    itok = call_untouched(tokenize_frame, frame, weights)
    etok = call_untouched(tokenize_events, tensor, weights)
    call_untouched(clwf_fuse, etok, itok, weights)
    states = [call_untouched(taf_init, frame, 1000, exposure, weights)]
    for step in range(1, 7):
        n = 0 if step == 3 else 60  # one empty batch
        states.append(call_untouched(taf_update, states[-1],
                                     batch(1000 * step, 1000 * (step + 1), n),
                                     weights))
    tokens = np.stack([s.tokens.values for s in states])
    first, second = tokens[:5], tokens[3:]
    alone = temporal_attention(second.copy(), weights)
    for window in (first, second):
        fused = call_untouched(temporal_attention, window, weights)
        call_untouched(decode_pyramid,
                       fused.reshape(len(fused), *states[0].tokens.grid, -1),
                       weights)
    assert np.array_equal(fused, alone)


def traced_peak(fn, *args):
    """Peak bytes allocated while fn(*args) runs, as tracemalloc sees them;
    numpy reports its data buffers to it."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAllocationPeaks:
    def test_sdpa_holds_one_logits_matrix(self):
        # out of place: logits, shifted logits and exp, 3.0 N x N arrays;
        # in place: the logits plus the readout, 1.13
        rng = np.random.default_rng(42)
        q, k, v = (rng.normal(size=(512, 64)) for _ in range(3))
        assert traced_peak(_sdpa, q, k, v) < 1.5 * 512 * 512 * 8

    def test_temporal_attention_peak(self):
        # out of place: 7.29 x the input's size; in place: 6.29
        rng = np.random.default_rng(43)
        weights = small_weights(seed=44, d=64)
        x = rng.normal(size=(16, 256, 64))
        assert traced_peak(temporal_attention, x, weights) \
            < 6.8 * x.nbytes


# ---------------------------------------------------------------------------
# taf_update on live event patches
# ---------------------------------------------------------------------------

def update_inputs(state, batch, weights):
    """The residual x and the normed queries and keys of taf_update's block
    over all N event tokens, the dense path."""
    rows, cols = state.tokens.grid
    patch = weights.config.patch
    tensor = sbt_time_surface(batch, cols * patch, rows * patch,
                              weights.config.subwindows)
    r = state.tokens.values
    hq = _layer_norm(r, weights["upd.ln_state.g"], weights["upd.ln_state.b"])
    hk = _layer_norm(tokenize_events(tensor, weights).values,
                     weights["upd.ln_events.g"], weights["upd.ln_events.b"])
    return r, hq, hk, tensor


def live_patches(tensor, patch):
    h, w, c = tensor.data.shape
    blocks = tensor.data.reshape(h // patch, patch, w // patch, patch, c)
    return int(np.count_nonzero(blocks.any(axis=(1, 3, 4))))


def grid_state(rng, grid, d):
    return TransientState(tokens=random_tokens(rng, grid, d), state_time=1000)


SPARSE_PATCH = 4
SPARSE_WEIGHTS = perturbed_weights(50, d=8, patch=SPARSE_PATCH, subwindows=3)


@st.composite
def sparse_batches(draw):
    """A token grid and a batch in (1000, 2000] whose live patches are none,
    one, all or a drawn set. Polarity-0 events give a time-surface value of
    0, so their patch stays all zero; they alone fill the batch when no
    patch is live."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n = rows * cols
    kind = draw(st.sampled_from(["none", "one", "all", "some"]))
    live = {"none": set(), "one": {draw(st.integers(0, n - 1))},
            "all": set(range(n)),
            "some": draw(st.sets(st.integers(0, n - 1), min_size=1))}[kind]
    pix = st.integers(0, SPARSE_PATCH - 1)
    t = st.integers(1001, 2000)

    def event(tile, p):
        r, c = divmod(tile, cols)
        return Event(x=c * SPARSE_PATCH + draw(pix),
                     y=r * SPARSE_PATCH + draw(pix), t=draw(t), p=p)

    events = [event(tile, draw(st.sampled_from([-1, 1])))
              for tile in sorted(live)
              for _ in range(draw(st.integers(1, 3)))]
    dead = sorted(set(range(n)) - live)
    if dead:
        events += [event(draw(st.sampled_from(dead)), 0)
                   for _ in range(draw(st.integers(not live, 3)))]
    return (rows, cols), kind, make_batch(events, 1000, 2000)


@settings(max_examples=150, deadline=None)
@given(drawn=sparse_batches(), seed=st.integers(0, 2**16))
def test_update_matches_dense_attention_over_every_event_token(drawn, seed):
    grid, kind, batch = drawn
    weights = SPARSE_WEIGHTS
    state = grid_state(np.random.default_rng(seed), grid, 8)
    r, hq, hk, tensor = update_inputs(state, batch, weights)
    n_live = live_patches(tensor, SPARSE_PATCH)
    assert n_live == {"none": 0, "one": 1, "all": len(r)}.get(kind, n_live)
    read, _ = ref_sdpa(*ref_qkv(hq, hk, hk, weights, "upd"))
    want = ref_residual_out(r, read, weights["upd.wo"], weights["upd.bo"])
    got = taf_update(state, batch, weights).tokens.values
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestSparseTafUpdate:
    def test_no_empty_patch_is_the_dense_path_bit_for_bit(self):
        rng = np.random.default_rng(51)
        weights = perturbed_weights(52, d=16, patch=4)
        grid = (6, 8)
        events = [Event(x=4 * c + int(rng.integers(0, 4)),
                        y=4 * r + int(rng.integers(0, 4)),
                        t=int(rng.integers(1001, 2001)),
                        p=int(rng.choice([-1, 1])))
                  for r in range(grid[0]) for c in range(grid[1])]
        batch = make_batch(events, 1000, 2000)
        state = grid_state(rng, grid, 16)
        r, hq, hk, tensor = update_inputs(state, batch, weights)
        assert live_patches(tensor, 4) == len(r)
        want = _attention_block(r, hq, hk, hk, weights, "upd")
        assert np.array_equal(taf_update(state, batch, weights).tokens.values,
                              want)

    def test_shared_token_is_projected_not_assumed(self):
        """A polarity-0 event leaves every patch event-free; an inf in
        phi_e.w makes their token zeros @ phi_e.w + phi_e.b NaN although
        phi_e.b is finite."""
        rng = np.random.default_rng(53)
        weights = perturbed_weights(54, d=8, patch=4)
        weights.params["phi_e.w"] = weights["phi_e.w"].copy()
        weights.params["phi_e.w"][-1, 0] = np.inf
        batch = make_batch([Event(1, 1, 1500, 0)], 1000, 2000)
        with pytest.raises(NonFiniteValue, match="non-finite"), \
                np.errstate(invalid="ignore"):
            taf_update(grid_state(rng, (2, 2), 8), batch, weights)

    def test_fan_in_mismatch_rejected(self):
        """A phi_e.w whose fan-in is not patch**2 * subwindows is refused
        when the bundle is built, before any batch reads it."""
        weights = perturbed_weights(56, d=8, patch=4)
        params = {**weights.params, "phi_e.w": np.zeros((4 * 4 * 5 + 1, 8))}
        with pytest.raises(ShapeMismatch, match=re.escape(
                "phi_e.w: shape (81, 8) != expected (80, 8)")):
            WeightBundle(params=params, config=weights.config, seed=0)

    @pytest.mark.parametrize("x, y", [(8, 1), (1, 8), (8, 8)])
    def test_event_outside_the_token_grid_rejected(self, x, y):
        rng = np.random.default_rng(65)
        weights = perturbed_weights(66, d=8, patch=4)
        batch = make_batch([Event(1, 1, 1200, 1), Event(x, y, 1500, 1)],
                           1000, 2000)
        with pytest.raises(GeometryMismatch, match="geometry"):
            taf_update(grid_state(rng, (2, 2), 8), batch, weights)

    def test_hollow_update_peak_follows_the_events(self):
        """On a 1,024 x 1,024 sensor the dense (H, W, 5) time surface alone
        is 40 MB; a hollow state's update with 150 events allocates what
        its events touch. The first call builds the cached block tables,
        which every later call of that geometry shares."""
        rng = np.random.default_rng(67)
        weights = perturbed_weights(68, d=64, patch=8)
        size = 1024
        batch = make_batch([Event(x=int(rng.integers(0, size)),
                                  y=int(rng.integers(0, size)),
                                  t=int(rng.integers(1001, 2001)),
                                  p=int(rng.choice([-1, 1])))
                            for _ in range(150)], 1000, 2000)
        grid = (size // 8, size // 8)
        bare = TransientState(Tokens(np.empty((0, 64)), grid), 1000)
        taf_update(bare, batch, weights)
        assert traced_peak(taf_update, bare, batch, weights) \
            < size * size * 5 * 8 / 8

    def test_peak_is_well_under_one_token_by_token_matrix(self):
        # 1,024 tokens, 32 live patches: the dense path peaked at 1.75
        # N x N float64 arrays, the live patches of a 2.6 MB time surface
        # at 0.34, and the events scattered into the live patches' blocks
        # at 0.30 (0.42 on the call that builds the cached block tables)
        rng = np.random.default_rng(57)
        weights = perturbed_weights(58, d=64, patch=8)
        n = 32 * 32
        tiles = rng.choice(n, size=32, replace=False)
        batch = make_batch([Event(x=8 * int(t % 32) + int(rng.integers(0, 8)),
                                  y=8 * int(t // 32) + int(rng.integers(0, 8)),
                                  t=int(rng.integers(1001, 2001)), p=1)
                            for t in tiles for _ in range(4)], 1000, 2000)
        state = grid_state(rng, (32, 32), 64)
        assert traced_peak(taf_update, state, batch, weights) < 0.5 * n * n * 8


@st.composite
def keyed_row_subsets(draw):
    """A token grid of patch-4 tokens, a batch in (1000, 2000] that leaves
    n_keys - 1 patches live, so that taf_update attends to n_keys keys
    (the last shared by the event-free patches), and a subset of the token
    rows in any order. Each batch also holds one polarity-0 event, worth 0
    in the time surface, in an event-free patch: with n_keys = 1 it is the
    batch's only event."""
    n_keys = draw(st.sampled_from([1, 2, 17, 33]))
    rows = draw(st.integers(1, 7))
    lo = -(-n_keys // rows)
    cols = draw(st.integers(lo, max(lo, 9)))
    n = rows * cols
    tiles = draw(st.permutations(range(n)))
    pix = st.integers(0, 3)
    t = st.integers(1001, 2000)

    def event(tile, p):
        r, c = divmod(tile, cols)
        return Event(x=4 * c + draw(pix), y=4 * r + draw(pix), t=draw(t), p=p)

    events = [event(tile, draw(st.sampled_from([-1, 1])))
              for tile in tiles[:n_keys - 1]
              for _ in range(draw(st.integers(1, 2)))]
    events.append(event(tiles[-1], 0))
    subset = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                           unique=True))
    return (rows, cols), n_keys, make_batch(events, 1000, 2000), subset


@settings(max_examples=120, deadline=None)
@given(drawn=keyed_row_subsets(),
       d=st.sampled_from([8, 17, 24, 64, 65, 100]),
       seed=st.integers(0, 2**16))
def test_state_rows_equal_the_dense_update_rows(drawn, d, seed):
    """The tracker computes a step's state only at the token rows its
    refiner reads: _update_rows replaying the batch's kept keys on them
    gives the dense update's rows bit for bit. Token counts need not be
    multiples of 8, and the widths and key counts include those at which a
    plain product of a few rows rounds apart from the dense product's rows
    (d = 17, 65, 100; 1, 2 or 17 keys), and a lone row, which a plain
    matmul would multiply on its vector path."""
    grid, n_keys, batch, subset = drawn
    weights = perturbed_weights(seed % 50, d=d, patch=4)
    state = grid_state(np.random.default_rng(seed), grid, d)
    dense = taf_update(state, batch, weights)
    assert len(dense.keys[0]) == n_keys
    rows = np.array(subset)
    replayed = _update_rows(state.tokens.values[rows], dense.keys, weights)
    assert np.array_equal(replayed.view(np.uint64),
                          dense.tokens.values[rows].view(np.uint64))


def test_a_state_without_rows_runs_only_the_event_side():
    rng = np.random.default_rng(59)
    weights = perturbed_weights(60, d=8, patch=4)
    batch = make_batch([Event(5, 2, 1500, 1), Event(1, 1, 1600, -1)],
                       1000, 2000)
    dense = taf_update(grid_state(rng, (2, 3), 8), batch, weights)
    bare = TransientState(Tokens(np.empty((0, 8)), (2, 3)), 1000)
    out = taf_update(bare, batch, weights)
    assert out.tokens.values.shape == (0, 8) and out.state_time == 2000
    for got, want in zip(out.keys, dense.keys):
        assert np.array_equal(got, want)


@st.composite
def tiled_operands(draw):
    """An (m, k) operand of 1 to 300 rows at the widths the layers take, a
    (k, n) weight of ragged width, an optional bias, and any rows of the
    operand: a subset, in any order, of any count from 1 to 300, repeats
    allowed."""
    m = draw(st.integers(1, 300))
    k = draw(st.sampled_from([8, 17, 33, 64, 65, 100]))
    n = draw(st.integers(1, 230))
    rows = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=300))
    return m, k, n, draw(st.booleans()), rows


@settings(max_examples=150, deadline=None)
@given(drawn=tiled_operands(), seed=st.integers(0, 2**16))
def test_tiled_rows_equal_the_full_product_rows(drawn, seed):
    """_tiled gives each row the same bits whatever the other rows: a
    product of some rows equals those rows of the product of all of them.
    A plain matmul does not, at k = 17, 33, 65 and 100, or for one row."""
    m, k, n, biased, rows = drawn
    rng = np.random.default_rng(seed)
    x, w = rng.normal(size=(m, k)), rng.normal(size=(k, n))
    b = rng.normal(size=n) if biased else None
    full = _tiled(x, w, b)
    assert full.shape == (m, n)
    part = _tiled(x[rows], w, b)
    assert np.array_equal(part.view(np.uint64), full[rows].view(np.uint64))
    # a (steps, tokens, k) operand is tiled over its rows in memory order
    assert np.array_equal(_tiled(x[None, rows], w, b)[0].view(np.uint64),
                          full[rows].view(np.uint64))


@pytest.mark.parametrize("threads", ["1", "2"])
def test_tiled_rows_are_row_stable_at_each_blas_thread_count(threads):
    """The property above in a fresh interpreter whose OpenBLAS runs on one
    thread, as perfbench pins it, or on two. Two threads split a large
    tile's rows between them, which moves the kernel's row blocking:
    48-row tiles are row-stable on one thread but not on two."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([str(root / "src"),
                                           str(root / "tests")]),
               PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_tiled_rows_equal_the_full_product_rows"],
        cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    assert "1 passed" in run.stdout


@lru_cache
def block_weights(patch, subwindows):
    return perturbed_weights(61, d=8, patch=patch, subwindows=subwindows)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), rows=st.integers(1, 6), cols=st.integers(1, 6),
       patch=st.sampled_from([1, 2, 4, 8]), subwindows=st.integers(1, 5),
       bin_start=st.sampled_from([1000, 2**55]),
       duration=st.sampled_from([1, 2, 3, 7, 10, 1000]))
def test_live_event_tokens_equal_the_dense_path(
        data, rows, cols, patch, subwindows, bin_start, duration):
    """The events scattered into the live patches' blocks give the dense
    path's key rows, key bias and live count bit for bit: sbt_time_surface,
    _patch_blocks, a test of every patch for a non-zero value, _linear.
    Events fall on patch borders and several on one cell; a patch whose
    events all write ±0 (polarity 0, or a time past 2**55 that rounds onto
    its sub-window's start) is not live."""
    h, w = rows * patch, cols * patch

    def coordinate(n):
        borders = sorted({k + e for k in range(0, n, patch)
                          for e in (0, patch - 1)})
        return st.one_of(st.integers(0, n - 1), st.sampled_from(borders))

    t = st.integers(bin_start + 1, bin_start + duration)
    p = st.sampled_from([-1, 0, 1])
    events = data.draw(st.lists(st.builds(Event, x=coordinate(w),
                                          y=coordinate(h), t=t, p=p),
                                max_size=20))
    events += [Event(e.x, e.y, data.draw(t), data.draw(p))
               for e in data.draw(st.lists(st.sampled_from(events),
                                           max_size=10))] if events else []
    batch = make_batch(events, bin_start, bin_start + duration)
    weights = block_weights(patch, subwindows)
    keys, key_bias = _live_event_tokens(batch, (rows, cols), weights)

    blocks = _patch_blocks(sbt_time_surface(batch, w, h, subwindows).data,
                           weights, "phi_e")
    live = blocks.any(axis=(2, 3, 4))
    n_live = int(np.count_nonzero(live))
    flat = blocks[live].reshape(n_live, patch * patch * subwindows)
    if n_live < live.size:
        flat = np.concatenate([flat, np.zeros((1, flat.shape[1]))])
        want_bias = np.zeros(n_live + 1)
        want_bias[-1] = np.log(live.size - n_live)
        assert np.array_equal(key_bias.view(np.uint64),
                              want_bias.view(np.uint64))
    else:
        assert key_bias is None
    want = _linear(flat, weights["phi_e.w"], weights["phi_e.b"])
    assert len(keys) - (key_bias is not None) == n_live
    assert np.array_equal(keys.view(np.uint64), want.view(np.uint64))


def test_neighbor_table_is_cached_read_only():
    idx, mask = _neighbor_table((5, 7), 2)
    again = _neighbor_table((5, 7), 2)
    assert again[0] is idx and again[1] is mask
    assert not idx.flags.writeable and not mask.flags.writeable
    with pytest.raises(ValueError):
        idx[0, 0] = 1


def test_block_tables_are_cached_read_only():
    tile, offset = _block_tables((3, 5), 4, 2)
    again = _block_tables((3, 5), 4, 2)
    assert again[0] is tile and again[1] is offset
    assert not tile.flags.writeable and not offset.flags.writeable
    with pytest.raises(ValueError):
        tile[0] = 1
    # pixel (y, x) = (5, 14) of the 12 x 20 sensor lies in token (1, 3), at
    # (py, px) = (1, 2) of its patch
    assert tile[5 * 20 + 14] == 1 * 5 + 3
    assert offset[5 * 20 + 14] == (1 * 4 + 2) * 2


def test_sinusoidal_encoding_odd_dim_has_one_more_sin_slot():
    pos = np.arange(5.0)
    odd, even = sinusoidal_encoding(pos, 7), sinusoidal_encoding(pos, 6)
    assert odd.shape == (5, 7)
    np.testing.assert_array_equal(odd[:, 1::2], np.cos(pos[:, None] * np.exp(
        -np.log(10000.0) * np.arange(3) / 3)))
    np.testing.assert_array_equal(odd[:, 0::2], np.sin(pos[:, None] * np.exp(
        -np.log(10000.0) * np.arange(4) / 3)))
    np.testing.assert_array_equal(odd[:, :6], even)


def tfw_file(records) -> bytes:
    """A TFW1 file of the (name, array) records in their order, whether or
    not they make a config's parameter table."""
    chunks = [TFW_MAGIC]
    for name, arr in records:
        chunks += [struct.pack("<I", len(name)), name.encode(),
                   *tensor_record(arr)]
    return b"".join(chunks)


SMALL_CONFIG = FusionConfig(d=8)


class TestWeightIO:
    def test_round_trip_exact(self):
        bundle = WeightBundle.initialize(FusionConfig(), seed=5)
        back = load_weights(save_weights(bundle), FusionConfig(), seed=5)
        assert set(back.params) == set(bundle.params)
        for name in bundle.params:
            np.testing.assert_array_equal(back.params[name], bundle.params[name])

    @pytest.mark.parametrize("data", [b"", b"TF", b"XXXX" + b"\x00" * 16])
    def test_bad_magic_rejected(self, data):
        with pytest.raises(MalformedRecord):
            load_weights(data)

    def test_non_finite_parameter_is_named_by_the_constructor(self):
        """A NaN passed to the constructor stops it, naming the record,
        rather than surfacing later in whichever layer reads it first."""
        params = WeightBundle.initialize(FusionConfig(), seed=0).params
        params["upd.wo"] = params["upd.wo"].copy()
        params["upd.wo"][2, 3] = np.nan
        with pytest.raises(NonFiniteValue, match=r"^weights record 'upd\.wo' "
                           r"holds a non-finite value$"):
            WeightBundle(params=params, config=FusionConfig(), seed=0)

    def test_repeated_record_is_data_error(self):
        """The later of two records of one name was kept without a word."""
        blob = save_weights(WeightBundle.initialize(SMALL_CONFIG, seed=0))
        extra = tfw_file([("phi_i.b", np.full(8, 7.0))])[len(TFW_MAGIC):]
        with pytest.raises(MalformedRecord, match=re.escape(
                f"weights record 'phi_i.b' at byte {len(blob)} repeats an "
                f"earlier record")):
            load_weights(blob + extra, SMALL_CONFIG)

    @pytest.mark.parametrize("edit, message", [
        (dict(drop="ref.head.b"), r"missing=\['ref\.head\.b'\] extra=\[\]"),
        (dict(add=("upd.extra", np.zeros(8))),
         r"missing=\[\] extra=\['upd\.extra'\]"),
        (dict(add=("upd.wq", np.zeros((8, 7)))),
         r"^upd\.wq: shape \(8, 7\) != expected \(8, 8\)$"),
        (dict(add=("clwf.bias_table", np.zeros(8))),
         r"^clwf\.bias_table: shape \(8,\) != expected \(9,\)$"),
        (dict(add=("dec.b0", "abc")),
         r"^weights record 'dec\.b0' does not hold numbers$"),
    ], ids=["missing", "extra", "shape", "bias_table", "string"])
    def test_constructor_refuses_a_table_other_than_the_configs(self, edit,
                                                                message):
        """A missing, extra or mis-shaped record, or one that holds no
        numbers, raised a KeyError, a numpy ValueError or a TypeError in
        track_sequence, or ran to completion."""
        params = dict(WeightBundle.initialize(SMALL_CONFIG, seed=0).params)
        params.pop(edit.get("drop"), None)
        params.update([edit["add"]] if "add" in edit else [])
        with pytest.raises(ShapeMismatch, match=message):
            WeightBundle(params=params, config=SMALL_CONFIG, seed=0)

    def test_constructor_takes_records_as_float64_arrays(self):
        """A float64 array is kept as it is, so writes into it land; a list
        or an integer array becomes a float64 array."""
        params = WeightBundle.initialize(SMALL_CONFIG, seed=0).params
        kept = params["upd.wq"]
        params["phi_i.b"] = list(range(8))
        params["dec.b0"] = np.arange(64)
        bundle = WeightBundle(params=params, config=SMALL_CONFIG, seed=0)
        assert bundle["upd.wq"] is kept
        for name in ("phi_i.b", "dec.b0"):
            assert bundle[name].dtype == np.float64
            np.testing.assert_array_equal(bundle[name], np.arange(len(bundle[name])))

    @pytest.mark.parametrize("seed", [-1, 1.5, "a", None])
    def test_seed_outside_its_domain_is_shape_mismatch(self, seed):
        """-1 raised a builtin ValueError, 1.5 and "a" a TypeError."""
        with pytest.raises(ShapeMismatch, match=re.escape(
                f"WeightBundle.seed = {seed!r} is outside its domain >= 0")):
            WeightBundle.initialize(SMALL_CONFIG, seed)

    def test_numpy_integer_seed_draws_as_its_int(self):
        a = WeightBundle.initialize(SMALL_CONFIG, np.uint8(3))
        b = WeightBundle.initialize(SMALL_CONFIG, 3)
        assert a.seed == 3 and type(a.seed) is int
        assert all(np.array_equal(a[n], b[n]) for n in b.params)

    def test_shape_validation(self):
        bundle = WeightBundle.initialize(FusionConfig(), seed=0)
        blob = save_weights(bundle)
        with pytest.raises(ShapeMismatch):
            load_weights(blob, FusionConfig(d=32))

    @pytest.mark.parametrize("keep", [5, 10, 20, 100, 0.5, -1])
    def test_truncated_file_is_data_error(self, keep):
        blob = save_weights(WeightBundle.initialize(FusionConfig(), seed=0))
        cut = int(len(blob) * keep) if isinstance(keep, float) else keep
        with pytest.raises(MalformedRecord):
            load_weights(blob[:cut])
        assert issubclass(MalformedRecord, DataError)

    @pytest.mark.parametrize("record", [
        b"\x02\x00\x00\x00\xff\xfe\x00\x00\x00\x00" + b"\x00" * 8,
        b"\x01\x00\x00\x00a\xff\xff\xff\xff",
        b"\x01\x00\x00\x00a\x02\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff",
        b"\xff\xff\xff\xffa",
        b"\x01\x00\x00\x00a\x03\x00\x00\x00\x00\x00\x00\x00" + b"\xff" * 8,
        b"\x01\x00\x00\x00a\x41\x00\x00\x00" + b"\x01\x00\x00\x00" * 65
        + b"\x00" * 8,
    ])
    def test_malformed_record_is_data_error(self, record):
        # a non-UTF-8 name, a rank or dims far past the end, a long name,
        # a 0-size shape too big for numpy, 65 dims
        with pytest.raises(MalformedRecord):
            load_weights(b"TFW1" + record)

    @pytest.mark.parametrize("cfg, digest", [
        (FusionConfig(), "f67ee60c08c1509b"),
        (FusionConfig(d=24, radius=2, patch_radius=1), "7148a9c8b79e935d"),
    ])
    def test_parameter_specs_are_pinned(self, cfg, digest):
        # the seeded draws follow this list, so a reordered or renamed spec
        # changes every initialized weight after it
        specs = repr(parameter_specs(cfg)).encode()
        assert hashlib.sha256(specs).hexdigest()[:16] == digest

    def test_residual_projections_start_at_zero(self):
        bundle = WeightBundle.initialize(FusionConfig(), seed=0)
        for name in ("upd.wo", "tattn.wo", "ref.b0.attn.wo", "ref.b1.attn.wo",
                     "ref.b0.mlp.w2", "ref.b1.mlp.w2", "ref.head.w",
                     "ref.head.b"):
            assert not bundle[name].any(), name

    @pytest.mark.parametrize("name, floor, below", [
        ("d", 1, 0), ("patch", 1, 0), ("radius", 0, -1), ("subwindows", 1, 0),
        ("window", 2, 1), ("patch_radius", 0, -1), ("iterations", 1, 0),
    ])
    def test_config_field_below_its_floor_is_shape_mismatch(self, name,
                                                            floor, below):
        """Below its floor a field would give an empty width (an inf
        uniform bound in initialize) or a zero window stride; every field
        is named here."""
        names = {f.name for f in dataclasses.fields(FusionConfig)}
        assert name in names and len(names) == 7
        FusionConfig(**{name: floor})
        with pytest.raises(ShapeMismatch, match=rf"FusionConfig\.{name} = "):
            FusionConfig(**{name: below})

    @pytest.mark.parametrize("kw", [dict(d=8.5), dict(d="8")])
    def test_config_field_that_is_not_an_integer_is_shape_mismatch(self, kw):
        """d = 8.5 was accepted and initialize raised a TypeError; "8"
        raised a TypeError from the floor comparison."""
        name, = kw
        with pytest.raises(ShapeMismatch,
                           match=rf"FusionConfig\.{name} = .* is outside its "
                                 rf"domain >= 1$"):
            FusionConfig(**kw)

    def test_numpy_integer_fields_are_kept_as_ints(self):
        cfg = FusionConfig(d=np.int64(8), window=np.int64(4))
        assert cfg == FusionConfig(d=8, window=4)
        assert type(cfg.d) is int and type(cfg.window) is int
        WeightBundle.initialize(cfg, seed=0)

    @pytest.mark.parametrize("width, value, message", [
        ("DECODER_CHANNELS", (64, 32, 8),
         r"^dec\.b2: shape \(8,\) != expected \(16,\)$"),
        ("CORR_HIDDEN", 48, r"^corr\.l0\.b1: shape \(48,\) != expected \(64,\)$"),
        ("CORR_EMBED", 16, r"^corr\.l0\.b2: shape \(16,\) != expected \(32,\)$"),
        ("MOTION_FREQS", 16,
         r"^ref\.in\.w: shape \(161, 64\) != expected \(225, 64\)$"),
        ("REFINER_WIDTH", 32,
         r"^ref\.b0\.attn\.bk: shape \(32,\) != expected \(64,\)$"),
        ("REFINER_BLOCKS", 1, r"missing=\['ref\.b1\.attn\.bk', .* extra=\[\]$"),
        ("REFINER_BLOCKS", 3, r"missing=\[\] extra=\['ref\.b2\.attn\.bk', "),
    ], ids=["DECODER_CHANNELS", "CORR_HIDDEN", "CORR_EMBED", "MOTION_FREQS",
            "REFINER_WIDTH", "REFINER_BLOCKS=1", "REFINER_BLOCKS=3"])
    def test_a_file_saved_at_another_fixed_width_is_shape_mismatch(
            self, monkeypatch, width, value, message):
        """The fixed widths are no config field, so a weights file written
        at another width fails on load at the first record it reshapes, or
        names the refiner blocks it lacks or adds."""
        import tapfuse.weights as weights_module

        with monkeypatch.context() as patched:
            patched.setattr(weights_module, width, value)
            blob = save_weights(WeightBundle.initialize(SMALL_CONFIG, seed=0))
        with pytest.raises(ShapeMismatch, match=message):
            load_weights(blob, SMALL_CONFIG)


# three records that make no config's table, so built from raw records
TINY_TFW = tfw_file([("a", np.arange(6.0).reshape(2, 3)), ("bb", np.ones(2)),
                     ("s", np.array(1.5))])
TFW_MUTATIONS = st.one_of(
    st.binary(max_size=4),
    st.sampled_from([b"\x00", b"\xff", b"\xff\xff\xff\xff", b"\x07\x00\x00\x00",
                     b"TFW1"]))


@settings(max_examples=300, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(0, len(TINY_TFW) - 1),
                                TFW_MUTATIONS), min_size=1, max_size=4),
       cut=st.integers(0, len(TINY_TFW) + 8))
def test_mutated_weights_file_raises_only_typed_errors(edits, cut):
    """Each edit replaces one byte with a short byte string (a delete,
    replace or insert); then the file is cut at a random length."""
    blob = bytearray(TINY_TFW)
    for pos, repl in edits:
        pos = min(pos, len(blob) - 1)
        blob[pos:pos + 1] = repl
    try:
        load_weights(bytes(blob[:cut]))
    except TapfuseError:
        pass
