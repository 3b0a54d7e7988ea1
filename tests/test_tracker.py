import dataclasses
import hashlib
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tapfuse.errors import (
    GeometryMismatch,
    GridMismatch,
    NonFiniteValue,
    QueryOutOfRange,
    ShapeMismatch,
    TapfuseError,
)
from tapfuse.events import EventStream, Timeline
from tapfuse.tracker import (
    QueryPoint,
    TrackSet,
    _refiner_transformer,
    _WindowPyramid,
    correlation_features,
    parse_track_set,
    refine_track,
    sample_patch,
    serialize_track_set,
    track_sequence,
)
from tapfuse.fusion import (
    Tokens,
    TransientState,
    _update_rows,
    decode_pyramid,
    sinusoidal_encoding,
    taf_init,
    taf_update,
    temporal_attention,
)
from tapfuse.weights import (
    CORR_EMBED,
    MOTION_FREQS,
    REFINER_WIDTH,
    FusionConfig,
    WeightBundle,
)

from _tracker_oracle import (
    count_state_calls,
    dense_track_sequence,
    drifting_weights,
    small_sequence,
)
from test_fusion import traced_peak


def sample_one(level, center, r, stride=1):
    """sample_patch on a one-step window: an (h, w, C) map and one centre."""
    return sample_patch(level[None], np.array([center], dtype=float), r,
                        stride)[0]


class TestSamplePatch:
    def test_integer_center_reads_exact_values(self):
        rng = np.random.default_rng(0)
        level = rng.normal(size=(10, 12, 3))
        patch = sample_one(level, (5.0, 4.0), r=1)
        np.testing.assert_allclose(patch, level[3:6, 4:7])

    def test_constant_field_interior(self):
        level = np.full((8, 8, 2), 3.5)
        patch = sample_one(level, (4.25, 3.75), r=2)
        np.testing.assert_allclose(patch, 3.5)

    def test_fractional_center_scalar_oracle(self):
        level = np.zeros((4, 4, 1))
        level[1, 1, 0] = 1.0
        # center (1.25, 1.5): tap (0,0) lands at that point
        patch = sample_one(level, (1.25, 1.5), r=0)
        assert patch[0, 0, 0] == pytest.approx(0.75 * 0.5)

    def test_out_of_bounds_taps_read_zero(self):
        level = np.ones((4, 4, 1))
        patch = sample_one(level, (0.0, 0.0), r=1)
        assert patch[0, 0, 0] == 0.0   # (-1, -1)
        assert patch[1, 1, 0] == 1.0   # center
        assert patch[0, 1, 0] == 0.0   # y = -1

    def test_stride_scales_lookup(self):
        rng = np.random.default_rng(1)
        level = rng.normal(size=(6, 6, 2))
        a = sample_one(level, (8.0, 4.0), r=1, stride=2)
        b = sample_one(level, (4.0, 2.0), r=1, stride=1)
        np.testing.assert_allclose(a, b)


class TestCorrelationFeatures:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        cfg = FusionConfig(patch_radius=1)
        weights = WeightBundle.initialize(cfg, seed=3)
        taps = (2 * cfg.patch_radius + 1) ** 2
        patches = [rng.normal(size=(4, taps, c)) for c in (5, 3, 2)]
        got = correlation_features(patches, weights)
        assert got.shape == (4, 3 * CORR_EMBED)
        for lvl in range(3):
            anchor = patches[lvl][0]
            for t in range(4):
                corr = patches[lvl][t] @ anchor.T
                h = np.maximum(corr.ravel() @ weights[f"corr.l{lvl}.w1"]
                               + weights[f"corr.l{lvl}.b1"], 0.0)
                want = h @ weights[f"corr.l{lvl}.w2"] + weights[f"corr.l{lvl}.b2"]
                np.testing.assert_allclose(
                    got[t, CORR_EMBED * lvl:CORR_EMBED * (lvl + 1)], want,
                    atol=1e-12)

    def test_wrong_level_count_rejected(self):
        weights = WeightBundle.initialize(FusionConfig(), seed=0)
        with pytest.raises(ShapeMismatch):
            correlation_features([np.zeros((2, 49, 1))] * 2, weights)

    def test_default_correlation_geometry(self):
        cfg = FusionConfig()
        taps = (2 * cfg.patch_radius + 1) ** 2
        assert taps == 49
        assert taps * taps == 2401
        assert cfg.window == 16
        assert WeightBundle.initialize(cfg, 0)["corr.l0.w1"].shape[0] == 2401


def make_pyramids(rng, n, channels=(64, 32, 16), size=8):
    """A window pyramid of random token-resolution levels, (n, size, size,
    C_l) each: what decode_pyramid gives for a size x size token grid."""
    return tuple(rng.normal(size=(n, size, size, c)) for c in channels)


def upsample(level, block):
    """The full-resolution map a token-resolution level stands for: each
    token repeated into a block x block square (nearest neighbour)."""
    return np.repeat(np.repeat(level, block, axis=-3), block, axis=-2)


def with_iterations(weights, m):
    """weights refining m times: the same arrays under another config."""
    return dataclasses.replace(
        weights, config=dataclasses.replace(weights.config, iterations=m))


def randomized_refiner(seed):
    weights = WeightBundle.initialize(FusionConfig(window=4), seed=seed)
    rng = np.random.default_rng(seed + 500)
    for name in ("ref.head.w", "ref.head.b", "ref.b0.attn.wo", "ref.b1.attn.wo",
                 "ref.b0.mlp.w2", "ref.b1.mlp.w2"):
        weights.params[name] = rng.normal(
            scale=0.05, size=weights.params[name].shape)
    return weights


class TestRefineTrack:
    def make_track(self, rng, w=4):
        """(W, 2) positions and W visibility logits."""
        return rng.uniform(10, 40, size=(w, 2)), rng.normal(size=w)

    def test_zero_initialized_head_is_identity(self):
        rng = np.random.default_rng(4)
        weights = WeightBundle.initialize(FusionConfig(window=4), seed=5)
        pos, logit = self.make_track(rng)
        pyrs = make_pyramids(rng, 4)
        out_pos, out_logit = refine_track(pos, logit, pyrs, weights)
        np.testing.assert_array_equal(out_pos, pos)
        np.testing.assert_array_equal(out_logit, logit)

    def test_iterations_compose(self):
        rng = np.random.default_rng(5)
        weights = randomized_refiner(6)
        track = self.make_track(rng)
        pyrs = make_pyramids(rng, 4)
        fused = refine_track(*track, pyrs, with_iterations(weights, 3))
        step = track
        for _ in range(3):
            step = refine_track(*step, pyrs, with_iterations(weights, 1))
        np.testing.assert_allclose(fused[0], step[0], atol=1e-12)
        np.testing.assert_allclose(fused[1], step[1], atol=1e-12)

    def test_deterministic_and_input_preserved(self):
        rng = np.random.default_rng(6)
        weights = randomized_refiner(7)
        pos, logit = self.make_track(rng)
        snapshot = pos.copy()
        pyrs = make_pyramids(rng, 4)
        a = refine_track(pos, logit, pyrs, weights)
        b = refine_track(pos, logit, pyrs, weights)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(pos, snapshot)

    def test_read_only_inputs_give_the_same_result(self):
        """track_sequence passes views of its output arrays, which
        refine_track only reads."""
        rng = np.random.default_rng(9)
        weights = randomized_refiner(10)
        pos, logit = self.make_track(rng)
        pyrs = make_pyramids(rng, 4)
        frozen = pos.copy(), logit.copy()
        for arr in frozen:
            arr.flags.writeable = False
        got = refine_track(*frozen, pyrs, weights)
        want = refine_track(pos, logit, pyrs, weights)
        assert not np.array_equal(got[0], pos)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_pyramid_count_must_match_window(self):
        rng = np.random.default_rng(7)
        weights = WeightBundle.initialize(FusionConfig(window=4), seed=8)
        with pytest.raises(ShapeMismatch):
            refine_track(*self.make_track(rng), make_pyramids(rng, 3), weights)

    def test_zero_iterations_rejected(self):
        rng = np.random.default_rng(8)
        weights = WeightBundle.initialize(FusionConfig(window=4), seed=9)
        with pytest.raises(ShapeMismatch, match="^FusionConfig.iterations = 0 "
                                                "is outside its domain >= 1$"):
            refine_track(*self.make_track(rng), make_pyramids(rng, 4),
                         with_iterations(weights, 0))

    def test_logit_count_must_match_window(self):
        rng = np.random.default_rng(10)
        weights = WeightBundle.initialize(FusionConfig(window=4), seed=11)
        pos, logit = self.make_track(rng)
        with pytest.raises(ShapeMismatch, match="3 visibility logits for 4"):
            refine_track(pos, logit[:3], make_pyramids(rng, 4), weights)


# ---------------------------------------------------------------------------
# Reference: the per-step refiner loop on full-resolution maps
# ---------------------------------------------------------------------------

def loop_sample_patch(level, center, r, stride=1):
    """Single-centre bilinear patch on a full-resolution (h, w, C) map, one
    gather per corner."""
    h, w, c = level.shape
    cx, cy = center[0] / stride, center[1] / stride
    offs = np.arange(-r, r + 1, dtype=np.float64)
    px = cx + offs[None, :]
    py = cy + offs[:, None]
    x0 = np.floor(px).astype(np.int64)
    y0 = np.floor(py).astype(np.int64)
    fx, fy = px - x0, py - y0
    patch = np.zeros((2 * r + 1, 2 * r + 1, c))
    for dy_i, wy in ((0, 1.0 - fy), (1, fy)):
        for dx_i, wx in ((0, 1.0 - fx), (1, fx)):
            xs, ys = x0 + dx_i, y0 + dy_i
            ok = (xs >= 0) & (xs < w) & (ys >= 0) & (ys < h)
            weight = np.where(ok, wy * wx, 0.0)
            vals = level[np.clip(ys, 0, h - 1), np.clip(xs, 0, w - 1)]
            patch += weight[:, :, None] * vals
    return patch


def loop_refine_track(positions, logits, dense_levels, weights):
    """refine_track on the full-resolution maps of the window pyramid
    (level l is (W, h_l, w_l, C_l) at stride patch / 2**l), sampling one
    window step at a time."""
    cfg = weights.config
    r = cfg.patch_radius
    for _ in range(cfg.iterations):
        patches_per_level = []
        for lvl in range(3):
            stride = cfg.patch / 2 ** lvl
            taps = []
            for t, level in enumerate(dense_levels[lvl]):
                patch = loop_sample_patch(level, tuple(positions[t]), r,
                                          stride)
                taps.append(patch.reshape(-1, patch.shape[-1]))
            patches_per_level.append(np.stack(taps))
        desc = correlation_features(patches_per_level, weights)
        rel = positions - positions[0]
        tokens = np.concatenate(
            [desc, logits[:, None]]
            + [sinusoidal_encoding(rel[:, axis], 2 * MOTION_FREQS)
               for axis in (0, 1)], axis=1)
        x = tokens @ weights["ref.in.w"] + weights["ref.in.b"]
        x = _refiner_transformer(
            x, weights, sinusoidal_encoding(np.arange(len(x)), REFINER_WIDTH))
        delta = x @ weights["ref.head.w"] + weights["ref.head.b"]
        positions = positions + delta[:, :2]
        logits = logits + delta[:, 2]
    return positions, logits


class TestWindowedRefinerExactness:
    """Sampling a token-resolution level in blocks keeps the per-step
    loop's arithmetic on the upsampled map, so the results are equal, not
    merely close."""

    @pytest.mark.parametrize("patch", [4, 8, 16])
    @pytest.mark.parametrize("lvl", range(3))
    def test_token_level_patch_equals_loop_on_upsampled_map(self, patch, lvl):
        rng = np.random.default_rng(30 + lvl)
        block, stride = 2 ** lvl, patch / 2 ** lvl
        tokens = make_pyramids(rng, 6)[lvl]
        dense = upsample(tokens, block)
        # interior, border-straddling and fully outside centres of the
        # 8 * patch px input
        centers = np.array([[31.3, 30.7], [0.0, 0.0], [-3.5, 12.25],
                            [63.9, 64.2], [70.0, -9.0], [-200.0, 300.0]]
                           ) * patch / 8
        got = sample_patch(tokens, centers, 3, stride, block)
        assert got.shape == (6, 7, 7, tokens.shape[-1])
        assert np.array_equal(got, sample_patch(dense, centers, 3, stride))
        for t in range(6):
            assert np.array_equal(
                got[t], loop_sample_patch(dense[t], centers[t], 3, stride))

    def test_window_center_count_must_match(self):
        level = np.zeros((4, 8, 8, 2))
        with pytest.raises(ShapeMismatch):
            sample_patch(level, np.zeros((3, 2)), 1)

    @pytest.mark.parametrize("seed", range(3))
    def test_refine_track_equals_per_step_loop(self, seed):
        weights = randomized_refiner(seed)
        rng = np.random.default_rng(seed + 40)
        w = weights.config.window
        pyramid = make_pyramids(rng, w)
        dense = [upsample(lvl, 2 ** l) for l, lvl in enumerate(pyramid)]
        # near and beyond the border of the 64 px input at every stride
        positions = rng.uniform(-12.0, 76.0, size=(w, 2))
        positions[0] = (0.5, 63.5)
        logits = rng.normal(size=w)
        assert weights.config.iterations == 3
        got = refine_track(positions, logits, pyramid, weights)
        want = loop_refine_track(positions, logits, dense, weights)
        assert not np.array_equal(got[0], positions)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("patch", [4, 8, 16])
def test_refiner_reads_the_token_containing_each_centre(patch, monkeypatch):
    """With patch p, level l is read at stride p / 2**l in blocks of 2**l:
    at every level a centre on a token corner reads that token, across the
    whole 64 px input."""
    import tapfuse.tracker as tracker

    weights = WeightBundle.initialize(
        FusionConfig(patch=patch, window=4, patch_radius=1, iterations=1),
        seed=0)
    n = 64 // patch
    rows, cols = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    token_ids = np.broadcast_to(np.stack([rows, cols], axis=-1).astype(float),
                                (4, n, n, 2))
    seen = []

    def capture(patches_per_level, w):
        seen.append(patches_per_level)
        return np.zeros((len(patches_per_level[0]),
                         3 * CORR_EMBED))

    monkeypatch.setattr(tracker, "correlation_features", capture)
    cells = np.array([[0, 0], [1, 3], [n - 1, 2], [n - 1, n - 1]])  # (col, row)
    refine_track(cells * float(patch), np.zeros(4), (token_ids,) * 3, weights)
    (levels,) = seen
    for patches in levels:
        centre_tap = patches[:, patches.shape[1] // 2]
        assert np.array_equal(centre_tap, cells[:, ::-1])


# ---------------------------------------------------------------------------
# The one-take sampler against the per-corner sampler it replaced
# ---------------------------------------------------------------------------

def ref_sample_patch(level, centers, r, stride=1, block=1):
    """The windowed sampler with one 3-D fancy-index gather and np.clip per
    bilinear corner, as sample_patch computed it before one take gathered
    all four corners."""
    level = np.asarray(level, dtype=np.float64)
    n, rows, cols, c = level.shape
    h, w = rows * block, cols * block
    centers = np.asarray(centers, dtype=np.float64)
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


@st.composite
def sampler_cases(draw):
    """A level with -0.0 entries in one of three layouts, and (W, 2)
    centres, or a stack of up to 3 such tracks, inside, on the edge of,
    beyond and left of or above its grid."""
    n = draw(st.integers(1, 4))
    lead = draw(st.sampled_from([(), (1,), (2,), (3,)]))
    r = draw(st.integers(0, 4))
    c = draw(st.integers(1, 5))
    lvl = draw(st.integers(0, 2))
    patch = draw(st.sampled_from([1, 2, 3, 4, 6, 16]))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    block, stride = 2 ** lvl, patch / 2 ** lvl
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=(n, rows, cols, c))
    values[rng.random(values.shape) < 0.3] = -0.0
    layout = draw(st.sampled_from(["contiguous", "read-only", "strided"]))
    if layout == "read-only":
        values.flags.writeable = False
        level = values
    elif layout == "strided":
        # every other channel of a wider, column-reversed array
        wide = np.zeros((n, rows, cols, 2 * c))
        wide[..., ::2] = values[:, :, ::-1]
        level = wide[:, :, ::-1, ::2]
    else:
        level = values
    # the input px extent of the grid, and the values that land on its edge
    ext = np.array([cols, rows]) * patch
    centers = np.empty((*lead, n, 2))
    for t in np.ndindex(centers.shape[:-1]):
        for axis in range(2):
            kind = draw(st.sampled_from(["inside", "edge", "beyond", "negative"]))
            if kind == "inside":
                v = draw(st.floats(0, ext[axis], allow_nan=False))
            elif kind == "edge":
                v = draw(st.sampled_from([0.0, -0.0, ext[axis],
                                          ext[axis] - stride]))
                nudge = draw(st.sampled_from([None, 1e-9, -1e-9, 0.5, -0.5]))
                if nudge is not None:
                    v += nudge
            elif kind == "beyond":
                v = ext[axis] + draw(st.floats(0, 2 * ext[axis] + 40))
            else:
                v = -draw(st.floats(0, 2 * ext[axis] + 40))
            centers[(*t, axis)] = v
    return level, centers, r, stride, block


@settings(max_examples=300, deadline=None)
@given(sampler_cases())
# a patch of one value, whose corners np.einsum would sum in another order
@example((np.array([[[[-2.3], [-0.2]], [[-1.2], [-0.7]]]]),
          np.array([[0.8, 0.5]]), 0, 1, 1))
def test_sample_patch_equals_the_per_corner_sampler_byte_for_byte(case):
    """Each track of a stack is sampled as it is alone, with one gather
    per corner."""
    level, centers, r, stride, block = case
    got = sample_patch(level, centers, r, stride, block)
    assert got.shape == (*centers.shape[:-1], 2 * r + 1, 2 * r + 1,
                         level.shape[-1])
    n = len(level)
    for track, patch in zip(centers.reshape(-1, n, 2),
                            got.reshape(-1, n, *got.shape[-3:])):
        want = ref_sample_patch(level, track, r, stride, block)
        assert patch.dtype == want.dtype
        assert patch.tobytes() == want.tobytes()


@pytest.mark.parametrize("far", [1e300, -1e300, 1e19, -1e19])
def test_far_centres_read_nothing_without_a_floating_point_error(far):
    """A centre so far out that its taps' int64 cast would overflow reads
    nothing, +0.0 at every tap, as the per-corner sampler does through its
    overflowing cast; sample_patch clamps the taps first, so no operation
    overflows or casts an out-of-range value."""
    rng = np.random.default_rng(0)
    level = rng.normal(size=(3, 4, 4, 5))
    level[rng.random(level.shape) < 0.3] = -0.0
    centers = np.array([[far, 3.0], [5.0, far], [far, -far]])
    for stride, block in ((8, 1), (4, 2), (2, 4)):
        with np.errstate(all="raise"):
            got = sample_patch(level, centers, 2, stride, block)
        with np.errstate(all="ignore"):
            want = ref_sample_patch(level, centers, 2, stride, block)
        assert got.tobytes() == want.tobytes() == bytes(got.nbytes)


@st.composite
def track_stacks(draw):
    """1 to 5 tracks on one window of a randomized refiner: positions
    inside, near and beyond the 64 px input, with some NaN or far-off
    centres, on a pyramid with -0.0 entries."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    weights = randomized_refiner(seed % 7)
    w = weights.config.window
    pyramid = make_pyramids(rng, w)
    for level in pyramid:
        level[rng.random(level.shape) < 0.3] = -0.0
    q = draw(st.integers(1, 5))
    positions = rng.uniform(-12.0, 76.0, size=(q, w, 2))
    for _ in range(draw(st.integers(0, 3))):
        track, step, axis = (draw(st.integers(0, n - 1)) for n in (q, w, 2))
        positions[track, step, axis] = draw(st.sampled_from(
            [np.nan, 1e6, -1e6, 1e300, -1e300]))
    return positions, rng.normal(size=(q, w)), pyramid, weights


@settings(max_examples=100, deadline=None)
@given(track_stacks())
def test_a_stack_of_tracks_refines_each_as_alone_byte_for_byte(case):
    """refine_track on a (Q, W, 2) stack gives each track's refinement
    alone, and calls fill with the Q tracks, as track_sequence's groups
    need."""
    positions, logits, pyramid, weights = case
    filled = []
    with np.errstate(all="ignore"):
        got = refine_track(positions, logits, pyramid, weights,
                           lambda *tracks: filled.append(tracks))
        for qi in range(len(positions)):
            alone = []
            want = refine_track(positions[qi], logits[qi], pyramid, weights,
                                lambda *tracks: alone.append(tracks))
            assert got[0][qi].tobytes() == want[0].tobytes()
            assert got[1][qi].tobytes() == want[1].tobytes()
            assert [len(f) for f in alone] == [1] * weights.config.iterations
            assert all(a[0].tobytes() == f[qi].tobytes()
                       for a, f in zip(alone, filled))
    assert [len(f) for f in filled] == ([len(positions)]
                                       * weights.config.iterations)


class TestRefinerAllocationPeaks:
    """One take gathers the four corners of a window's tracks: 4 patches
    of values per track, plus the output. track_sequence stacks only as
    many of a window's queries as keep that gather within
    tracker._GATHER_BYTES, so the peak does not grow with the number of
    queries; one buffer per window step would multiply it."""

    def test_sample_patch_peak(self):
        # one take: 5.17 x the output at C = 64
        rng = np.random.default_rng(60)
        level = rng.normal(size=(16, 8, 8, 64))
        centers = rng.uniform(-10.0, 80.0, size=(16, 2))
        out = sample_patch(level, centers, 3, 8.0, 1)
        assert traced_peak(sample_patch, level, centers, 3, 8.0, 1) \
            < 6 * out.nbytes

    def test_refine_track_peak(self):
        # 5.58 x one level-0 patch window (W x 49 taps x 64 channels),
        # reached inside the level-0 gather
        weights = WeightBundle.initialize(FusionConfig(), seed=0)
        w = weights.config.window
        rng = np.random.default_rng(61)
        pyramid = make_pyramids(rng, w)
        positions = rng.uniform(0.0, 64.0, size=(w, 2))
        patch_bytes = w * 49 * 64 * 8
        assert traced_peak(refine_track, positions, np.zeros(w), pyramid,
                           weights) < 6.5 * patch_bytes

    def test_track_sequence_peak_stays_within_the_group_bound(self,
                                                              monkeypatch):
        """12 queries on the default config, whose level-0 gather is
        1.53 MiB per query: groups of 3 peak at 1.28 x the 5 MiB bound
        inside refine_track (the gather and its sum, 1.39 x the gather),
        and one stack of the whole window would peak at 5.1 x."""
        import tapfuse.tracker as tracker

        frames, timeline, stream, _ = small_sequence()
        weights = WeightBundle.initialize(FusionConfig(), seed=0)
        qs = [QueryPoint(0, 4.0 + 2 * i, 30.0 - 2 * i) for i in range(12)]
        bound = 1.5 * tracker._GATHER_BYTES
        sizes, peaks = [], []

        def refine(positions, *args):
            sizes.append(len(positions))
            tracemalloc.start()
            try:
                out = refine_track(positions, *args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            return out

        monkeypatch.setattr(tracker, "refine_track", refine)
        track_sequence(frames, stream, timeline, qs, weights)
        assert sizes == [3] * 4 * 5
        assert max(peaks) < bound
        sizes.clear()
        monkeypatch.setattr(tracker, "_GATHER_BYTES", 2 ** 40)
        track_sequence(frames, stream, timeline, qs, weights)
        assert sizes == [12] * 5
        assert max(peaks) > 3 * bound


class TestTrackSequence:
    def test_scheduler_cadence(self, monkeypatch):
        frames, timeline, stream, _ = small_sequence()
        weights = WeightBundle.initialize(FusionConfig(), seed=0)
        counts = count_state_calls(monkeypatch)
        tracks = track_sequence(frames, stream, timeline,
                                [QueryPoint(0, 16.0, 16.0)], weights)
        assert len(tracks.times) == 48
        assert counts["taf_init"] == 12
        assert counts["taf_update"] == 36

    def test_states_are_built_per_window_and_dropped_after_it(self,
                                                             monkeypatch):
        """Each window's states are built when it is reached, and no more
        than one window of them is alive at a time."""
        import weakref

        import tapfuse.tracker as tracker

        frames, timeline, stream, _ = small_sequence()
        weights = WeightBundle.initialize(FusionConfig(), seed=0)
        built = []
        seen = []

        def keep_ref(fn):
            def wrapped(*args):
                state = fn(*args)
                built.append(weakref.ref(state))
                return state
            return wrapped

        def attend(states, w):
            alive = sum(ref() is not None for ref in built)
            seen.append((len(built), alive, len(states)))
            return temporal_attention(states, w)

        temporal_attention = tracker.temporal_attention
        monkeypatch.setattr(tracker, "taf_init", keep_ref(tracker.taf_init))
        monkeypatch.setattr(tracker, "taf_update", keep_ref(tracker.taf_update))
        monkeypatch.setattr(tracker, "temporal_attention", attend)
        track_sequence(frames, stream, timeline,
                       [QueryPoint(0, 16.0, 16.0)], weights)
        # window starts 0, 8, 16, 24, 32 of 16 steps over 48 query steps
        assert seen == [(stop, 16, 16) for stop in (16, 24, 32, 40, 48)]

    def test_untrained_network_is_identity_tracker(self):
        frames, timeline, stream, _ = small_sequence(seed=1)
        weights = WeightBundle.initialize(FusionConfig(), seed=1)
        q = QueryPoint(int(timeline.query_times[0]), 12.0, 20.0)
        tracks = track_sequence(frames, stream, timeline, [q], weights)
        np.testing.assert_array_equal(tracks.positions[0, :, 0], 12.0)
        np.testing.assert_array_equal(tracks.positions[0, :, 1], 20.0)
        assert tracks.visibility[0].all()

    def test_late_query_frozen_before_start(self):
        frames, timeline, stream, _ = small_sequence(seed=2)
        weights = WeightBundle.initialize(FusionConfig(), seed=2)
        t_q = int(timeline.query_times[10])
        tracks = track_sequence(frames, stream, timeline,
                                [QueryPoint(t_q, 8.0, 8.0)], weights)
        assert not tracks.visibility[0, :10].any()
        assert tracks.visibility[0, 10:].all()
        np.testing.assert_array_equal(tracks.positions[0, :10],
                                      [[8.0, 8.0]] * 10)

    def test_bit_identical_reruns(self):
        frames, timeline, stream, _ = small_sequence(seed=3)
        weights = WeightBundle.initialize(FusionConfig(), seed=3)
        qs = [QueryPoint(0, 10.0, 10.0), QueryPoint(0, 22.0, 18.0)]
        a = track_sequence(frames, stream, timeline, qs, weights)
        b = track_sequence(frames, stream, timeline, qs, weights)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.visibility, b.visibility)

    def test_off_grid_query_rejected(self):
        frames, timeline, stream, _ = small_sequence(seed=4)
        weights = WeightBundle.initialize(FusionConfig(), seed=4)
        with pytest.raises(QueryOutOfRange):
            track_sequence(frames, stream, timeline,
                           [QueryPoint(123, 5.0, 5.0)], weights)

    def test_first_step_must_carry_frame(self):
        frames, timeline, stream, _ = small_sequence(seed=5)
        weights = WeightBundle.initialize(FusionConfig(), seed=5)
        shifted = Timeline(frame_times=list(timeline.frame_times)[1:],
                           query_times=list(timeline.query_times),
                           exposure_us=timeline.exposure_us)
        with pytest.raises(GridMismatch):
            track_sequence(frames[1:], stream, shifted, [], weights)

    @pytest.mark.parametrize("side", [36, 4])
    def test_frame_side_not_a_multiple_of_the_patch_is_shape_mismatch(
            self, side):
        """The window's token grid is taken from the frames' shape, which
        must hold a positive multiple of the patch on each side: 36 px is
        4.5 patches of 8 px, and 4 px gives no token."""
        weights = WeightBundle.initialize(FusionConfig(), seed=6)
        timeline = Timeline(frame_times=[0], query_times=[0, 10, 20],
                            exposure_us=5)
        stream = EventStream.from_events([], side, side, 0, 100)
        with pytest.raises(ShapeMismatch, match="not divisible by patch"):
            track_sequence(np.zeros((1, side, side)), stream, timeline,
                           [QueryPoint(0, 1.0, 1.0)], weights)


    def test_timeline_without_frames_is_grid_mismatch(self):
        weights = WeightBundle.initialize(FusionConfig(), seed=6)
        timeline = Timeline(frame_times=[], query_times=[0, 10],
                            exposure_us=5)
        stream = small_sequence()[2]
        with pytest.raises(GridMismatch, match="first query step"):
            track_sequence(np.zeros((0, 32, 32)), stream, timeline, [],
                           weights)

    @pytest.mark.parametrize("frame_hw, sensor_wh", [((48, 64), (64, 32)),
                                                      ((32, 64), (64, 48))])
    def test_frames_off_the_event_sensor_are_geometry_mismatch(
            self, frame_hw, sensor_wh):
        """Frames and events come from one sensor: frames larger or smaller
        than it raise GeometryMismatch naming both sizes, width first."""
        weights = WeightBundle.initialize(FusionConfig(), seed=6)
        timeline = Timeline(frame_times=[0], query_times=[0, 10, 20],
                            exposure_us=5)
        stream = EventStream.from_events([], *sensor_wh, 0, 100)
        (fh, fw), (sw, sh) = frame_hw, sensor_wh
        with pytest.raises(GeometryMismatch, match=f"{fw}x{fh} frames against "
                                                   f"a {sw}x{sh} event sensor"):
            track_sequence(np.ones((1, *frame_hw)), stream, timeline,
                           [QueryPoint(0, 1.0, 1.0)], weights)


# ---------------------------------------------------------------------------
# Decoding each window only where the refiner reads
# ---------------------------------------------------------------------------

# the widths, then a 5 x 5 CLWF neighbourhood and 5 refiner iterations,
# whose later passes reach tokens the first did not
WIDTHS = [dict(d=d) for d in (8, 17, 24, 64, 65, 100)] + [
    dict(d=33, radius=2), dict(d=17, iterations=5)]


# a small config: 8-step windows, 3 x 3 taps
SMALL_REFINER = dict(window=8, patch_radius=1)


@settings(max_examples=50, deadline=None)
@given(name=st.sampled_from(sorted(drifting_weights(**SMALL_REFINER).params)),
       index=st.integers(0, 2**32 - 1), huge=st.sampled_from([1e300, -1e300]))
def test_a_huge_weight_gives_finite_tracks_or_names_the_functions(
        name, index, huge):
    """One finite but huge entry in any weight array: the run returns
    finite tracks, or stops with NonFiniteValue naming numpy's reason, the
    chain of tapfuse functions down to the operation and the window. No
    FloatingPointError, other error or RuntimeWarning gets out."""
    import tapfuse.fusion as fusion
    import tapfuse.representations as representations
    import tapfuse.tracker as tracker

    frames, timeline, stream, _ = small_sequence(size=32, n_query=24)
    weights = drifting_weights(**SMALL_REFINER)
    value = weights[name].copy()
    value.flat[index % value.size] = huge
    weights.params[name] = value
    qs = [QueryPoint(0, 16.0, 16.0),
          QueryPoint(int(timeline.query_times[6]), 5.0, 27.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            got = track_sequence(frames, stream, timeline, qs, weights)
        except NonFiniteValue as exc:
            match = re.fullmatch(r"(overflow|invalid value|divide by zero) "
                                 r"encountered in \w+ at ([\w >]+), window "
                                 r"steps \d+\.\.\d+(, queries \[[\d, ]+\])?",
                                 str(exc))
            assert match, str(exc)
            known = {"step_states", *vars(_WindowPyramid)}
            for module in (fusion, representations, tracker):
                known.update(vars(module))
            assert set(match[2].split(" > ")) <= known, str(exc)
            return
    assert np.isfinite(got.positions).all()


class TestOnDemandDecode:
    @pytest.mark.parametrize("frame_every", [4, 16])
    @pytest.mark.parametrize("kw", WIDTHS, ids=lambda kw: "-".join(
        f"{k}={v}" for k, v in kw.items()))
    def test_tracks_equal_the_dense_decode_to_the_last_bit(
            self, monkeypatch, kw, frame_every):
        """On 16 x 16 tokens: a query in a corner, whose taps are clamped,
        one that starts mid-window, and one the head drives off the
        sensor. The tracks equal the dense computation's at every width,
        including those at which a plain product of some rows rounds apart
        from the full product's rows (d = 17, 65, 100), at radius 2 and at 5
        refiner iterations; with frames every 16 steps, the states between
        frames replay their rows from the frame before."""
        import tapfuse.tracker as tracker

        frames, timeline, stream, _ = small_sequence(
            size=128, frame_every=frame_every)
        weights = drifting_weights(patch_radius=1, **kw)
        qs = [QueryPoint(int(timeline.query_times[step]), x, y)
              for step, x, y in [(0, 1.0, 126.0), (5, 40.0, 30.0),
                                 (0, 110.0, 60.0)]]
        want = dense_track_sequence(frames, stream, timeline, qs, weights)
        decoded = []

        def attend(x, w):
            decoded.append(x.shape[1])
            return temporal_attention(x, w)

        monkeypatch.setattr(tracker, "temporal_attention", attend)
        got = track_sequence(frames, stream, timeline, qs, weights)
        assert got.positions.tobytes() == want[0].tobytes()
        assert got.visibility.tobytes() == want[1].tobytes()
        assert (got.positions[:, -1, 0] > 128).any()
        # the 5 windows decode well under half of their tokens, some only
        # when a refiner iteration reaches them
        assert len(decoded) > 5
        assert sum(decoded) < 0.5 * 256 * 5

    @pytest.mark.parametrize("drift", [0.0, 5.0])
    def test_states_between_frames_equal_the_dense_state_machine(
            self, monkeypatch, drift):
        """Frames every 16 steps, so the windows that start at steps 8 and
        24 begin between frames and replay their new rows from the frame
        before; the query that starts at step 17 first appears in the
        window that starts at step 8. Without drift, the state rows
        computed stay well under the dense count, one row per token per
        update step. Drifting queries
        leave the tokens of a window's first pass, and from the first
        refiner iteration that does, every window computes every token's
        rows: the update steps computed stay within two windows' replay of
        the dense machine's one per step."""
        import tapfuse.tracker as tracker

        frames, timeline, stream, _ = small_sequence(size=128,
                                                     frame_every=16)
        weights = drifting_weights(drift=drift, patch_radius=1)
        qs = [QueryPoint(int(timeline.query_times[step]), x, y)
              for step, x, y in [(0, 1.0, 126.0), (5, 40.0, 30.0),
                                 (0, 110.0, 60.0), (17, 70.0, 100.0)]]
        want = dense_track_sequence(frames, stream, timeline, qs, weights)
        computed = []

        def update_rows(values, *args):
            computed.append(len(values))
            return _update_rows(values, *args)

        monkeypatch.setattr(tracker, "_update_rows", update_rows)
        counts = count_state_calls(monkeypatch)
        got = track_sequence(frames, stream, timeline, qs, weights)
        assert got.positions.tobytes() == want[0].tobytes()
        assert got.visibility.tobytes() == want[1].tobytes()
        assert counts == {"taf_init": 3, "taf_update": 45}
        if drift:
            assert (got.positions[:, -1, 0] > 128).any()
            assert len(computed) < counts["taf_update"] + 2 * 16
        else:
            assert 0 < sum(computed) < 0.5 * 256 * counts["taf_update"]

    def test_non_finite_state_rows_fail_the_track(self):
        """A huge upd.wo overflows the updated states, and the track stops
        at the first replayed row update that overflows, naming the chain
        from the first window's cover down to it. Only the rows computed
        can overflow: a row the refiner never reads is never computed."""
        frames, timeline, stream, _ = small_sequence(size=128,
                                                     frame_every=16)
        weights = drifting_weights(patch_radius=1)
        weights.params["upd.wo"] = np.full_like(weights["upd.wo"], 1e308)
        with pytest.raises(NonFiniteValue, match=r"^overflow encountered in "
                           r"\w+ at cover > _state_rows > _update_rows\b.*, "
                           r"window steps 0\.\.15$"):
            track_sequence(frames, stream, timeline,
                           [QueryPoint(0, 40.0, 30.0)], weights)

    @pytest.mark.parametrize("drift, digest", [(0.0, "75663f5c4f4e295c"),
                                               (5.0, "f71638cd72098ec1")])
    def test_far_queries_complete_with_the_tracks_they_gave(self, drift,
                                                             digest):
        """Queries at x = 1e300 or -1e19, or at y = -1e300 from step 20,
        are finite: they run to the end under the floating-point trap
        beside a query on the sensor, with pinned tracks, those of taps
        that read nothing however far out they are."""
        frames, timeline, stream, _ = small_sequence(size=32)
        weights = drifting_weights(drift=drift, patch_radius=1)
        qs = [QueryPoint(0, 1e300, 10.0), QueryPoint(0, -1e19, 20.0),
              QueryPoint(int(timeline.query_times[20]), 12.0, -1e300),
              QueryPoint(0, 16.0, 16.0)]
        got = track_sequence(frames, stream, timeline, qs, weights)
        assert hashlib.sha256(got.positions.tobytes()
                              + got.visibility.tobytes()
                              ).hexdigest()[:16] == digest

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_is_out_of_range(self, axis, value):
        """NaN arithmetic raises no floating-point error, so a query that
        is not finite is rejected where it enters, naming it."""
        frames, timeline, stream, _ = small_sequence(size=32)
        xy = [8.0, 8.0]
        xy[axis] = value
        qs = [QueryPoint(0, 16.0, 16.0), QueryPoint(0, *xy)]
        with pytest.raises(QueryOutOfRange, match=r"^query 1 at non-finite "
                           rf"\({xy[0]}, {xy[1]}\)$"):
            track_sequence(frames, stream, timeline, qs,
                           drifting_weights(patch_radius=1))

    def test_any_finite_intensity_is_tracked(self):
        """The tracker takes no log, so frames of zeros and negative
        frames run to the end under the floating-point trap."""
        frames, timeline, stream, _ = small_sequence(size=32)
        weights = drifting_weights(patch_radius=1)
        for scale in (0.0, -1.0):
            got = track_sequence(frames * scale, stream, timeline,
                                 [QueryPoint(0, 16.0, 16.0)], weights)
            assert np.isfinite(got.positions).all()

    def test_one_token_wide_grid_equals_the_dense_decode(self):
        """A 128 x 8 sensor is one token wide, so the dense decode
        multiplies rows of one token; the tracks still equal it."""
        frames, timeline, stream, _ = small_sequence(size=128, width=8)
        weights = drifting_weights(patch_radius=1)
        qs = [QueryPoint(int(timeline.query_times[step]), x, y)
              for step, x, y in [(0, 4.0, 126.0), (5, 1.0, 60.0),
                                 (0, 6.0, 20.0)]]
        want = dense_track_sequence(frames, stream, timeline, qs, weights)
        got = track_sequence(frames, stream, timeline, qs, weights)
        assert got.positions.tobytes() == want[0].tobytes()
        assert got.visibility.tobytes() == want[1].tobytes()

    def test_non_finite_refined_track_stops_the_run(self, monkeypatch):
        """A finite but huge decoder weight overflows the first correlation
        of the refiner. The run stops right there, naming the chain down to
        correlation_features, the window and the group's queries in active
        order, rather than refining every later window from NaN estimates,
        for which cover would decode the whole grid. Query 0 starts at step
        20, outside the first window, or at step 0, in one group with
        query 1."""
        import tapfuse.tracker as tracker

        frames, timeline, stream, _ = small_sequence()
        weights = WeightBundle.initialize(FusionConfig(), seed=0)
        weights.params["dec.w1"] = weights["dec.w1"].copy()
        weights.params["dec.w1"][0, 0] = 1e300
        refined = []

        def refine(positions, *args):
            refined.append(positions.shape)
            return refine_track(positions, *args)

        monkeypatch.setattr(tracker, "refine_track", refine)
        for first_step, group in [(20, [1]), (0, [0, 1])]:
            refined.clear()
            qs = [QueryPoint(int(timeline.query_times[first_step]), 8.0, 8.0),
                  QueryPoint(0, 16.0, 16.0)]
            with pytest.raises(NonFiniteValue) as info:
                track_sequence(frames, stream, timeline, qs, weights)
            assert str(info.value) == (
                "overflow encountered in matmul at refine_track > "
                f"correlation_features, window steps 0..15, queries {group}")
            assert isinstance(info.value.__cause__, FloatingPointError)
            assert refined == [(len(group), 16, 2)]

    @pytest.mark.parametrize("drift", [0.0, 5.0])
    def test_groups_of_one_give_the_tracks_of_the_default_groups(
            self, monkeypatch, drift):
        """A window's active queries are refined in groups, here of all of
        them; groups of one, made by shrinking the gather bound, give the
        same tracks bit for bit, with estimates that stay and that drift
        into fills. Queries 0 and 3 are the same query."""
        import tapfuse.tracker as tracker

        frames, timeline, stream, _ = small_sequence(size=64)
        weights = drifting_weights(drift=drift, patch_radius=1)
        qs = [QueryPoint(int(timeline.query_times[step]), x, y)
              for step, x, y in [(0, 1.0, 62.0), (5, 20.0, 30.0),
                                 (0, 50.0, 40.0), (0, 1.0, 62.0),
                                 (20, 33.0, 12.0)]]
        sizes = []

        def refine(positions, *args):
            sizes.append(len(positions))
            return refine_track(positions, *args)

        monkeypatch.setattr(tracker, "refine_track", refine)
        grouped = track_sequence(frames, stream, timeline, qs, weights)
        # window starts 0, 8, 16, 24, 32; query 4 is active from the second
        assert sizes == [4, 5, 5, 5, 5]
        sizes.clear()
        monkeypatch.setattr(tracker, "_GATHER_BYTES", 1)
        alone = track_sequence(frames, stream, timeline, qs, weights)
        assert sizes == [1] * 24
        assert grouped.positions.tobytes() == alone.positions.tobytes()
        assert grouped.visibility.tobytes() == alone.visibility.tobytes()
        if drift:
            assert (grouped.positions[:, -1, 0] > 64).any()

    def test_only_a_frame_state_holds_rows(self, monkeypatch):
        """Frames at steps 0, 16 and 40 of 48, so two are 24 > W = 16
        steps apart: no taf_update result holds a row, and, with estimates
        that stay in the first pass, the window replays each row it reads
        from the last frame. The states alive after each load are those
        from the last frame at or before the window start to its last
        step, within the bound load documents. The tracks equal the dense
        computation's."""
        import weakref

        import tapfuse.tracker as tracker

        frames, timeline, stream, _ = small_sequence(size=128,
                                                     frame_every=1)
        at = [0, 16, 40]
        timeline = Timeline(
            frame_times=[timeline.query_times[step] for step in at],
            query_times=timeline.query_times,
            exposure_us=timeline.exposure_us)
        frames = frames[at]
        weights = drifting_weights(drift=0.0, patch_radius=1)
        qs = [QueryPoint(int(timeline.query_times[step]), x, y)
              for step, x, y in [(0, 1.0, 126.0), (5, 40.0, 30.0),
                                 (0, 110.0, 60.0)]]
        want = dense_track_sequence(frames, stream, timeline, qs, weights)
        held, built, alive = [], [], []

        def keep_ref(fn):
            def wrapped(*args):
                state = fn(*args)
                built.append(weakref.ref(state))
                if fn is taf_update:
                    held.append(len(state.tokens.values))
                return state
            return wrapped

        def load(self, start):
            load_window(self, start)
            alive.append(sum(ref() is not None for ref in built))

        load_window = tracker._WindowPyramid.load
        monkeypatch.setattr(tracker, "taf_init", keep_ref(taf_init))
        monkeypatch.setattr(tracker, "taf_update", keep_ref(taf_update))
        monkeypatch.setattr(tracker._WindowPyramid, "load", load)
        got = track_sequence(frames, stream, timeline, qs, weights)
        assert got.positions.tobytes() == want[0].tobytes()
        assert got.visibility.tobytes() == want[1].tobytes()
        assert held == [0] * 45
        # window starts 0, 8, 16, 24, 32; last frames 0, 0, 16, 16, 16
        assert alive == [16, 24, 16, 24, 32]
        w = weights.config.window
        assert max(alive) <= 2 * w + w // 2

    @pytest.mark.parametrize("drift", [0.0, 5.0])
    @pytest.mark.parametrize("window", [16, 3])
    @pytest.mark.parametrize("frame_every", [4, 16, 17, 24, 33, 48])
    def test_tracks_equal_the_dense_computation_at_every_frame_gap(
            self, monkeypatch, frame_every, window, drift):
        """On 8 x 8 tokens, frames every 4 to 48 steps of 48, with or
        without fills: the tracks equal the dense computation's whether
        the window replays rows from the last frame or, with a replay that
        would start more than W steps before the window, computes every
        row; and history stays within the bound load documents."""
        import tapfuse.tracker as tracker

        frames, timeline, stream, _ = small_sequence(
            size=64, frame_every=frame_every)
        weights = drifting_weights(drift=drift, patch_radius=1,
                                   window=window)
        qs = [QueryPoint(int(timeline.query_times[step]), x, y)
              for step, x, y in [(0, 1.0, 62.0), (5, 20.0, 30.0),
                                 (0, 50.0, 40.0)]]
        want = dense_track_sequence(frames, stream, timeline, qs, weights)
        kept = []

        def load(self, start):
            load_window(self, start)
            kept.append(len(self.history))

        load_window = tracker._WindowPyramid.load
        monkeypatch.setattr(tracker._WindowPyramid, "load", load)
        got = track_sequence(frames, stream, timeline, qs, weights)
        assert got.positions.tobytes() == want[0].tobytes()
        assert got.visibility.tobytes() == want[1].tobytes()
        assert max(kept) <= 2 * window + window // 2

    def test_history_stays_bounded_before_the_first_query(self,
                                                          monkeypatch):
        """One frame and a query that starts at step 40 of 48: the windows
        before it read nothing, yet the switch turns on where a replay
        would start more than W steps back, so history stays within the
        bound load documents instead of holding every state since the
        frame."""
        import tapfuse.tracker as tracker

        frames, timeline, stream, _ = small_sequence(size=64,
                                                     frame_every=48)
        weights = drifting_weights(drift=0.0, patch_radius=1)
        qs = [QueryPoint(int(timeline.query_times[40]), 20.0, 30.0)]
        want = dense_track_sequence(frames, stream, timeline, qs, weights)
        kept = []

        def load(self, start):
            load_window(self, start)
            kept.append(len(self.history))

        load_window = tracker._WindowPyramid.load
        monkeypatch.setattr(tracker._WindowPyramid, "load", load)
        got = track_sequence(frames, stream, timeline, qs, weights)
        assert got.positions.tobytes() == want[0].tobytes()
        assert got.visibility.tobytes() == want[1].tobytes()
        # window starts 0, 8, 16, 24 read nothing; the switch turns on at 24
        assert kept == [16, 24, 32, 40, 16]

    def window(self, seed, grid=(8, 8), steps=4):
        """Drifting weights, a window of random states loaded into a
        _WindowPyramid, and that window's dense levels. Each state holds
        every token, as a frame's does."""
        weights = drifting_weights(window=steps)
        x = np.random.default_rng(seed).normal(
            size=(steps, grid[0] * grid[1], weights.config.d))
        pyramid = _WindowPyramid(iter([TransientState(Tokens(v, grid), t)
                                       for t, v in enumerate(x)]),
                                 steps, grid, weights)
        pyramid.load(0)
        dense = decode_pyramid(temporal_attention(x, weights).reshape(
            steps, *grid, -1), weights)
        return weights, pyramid, dense

    def test_non_finite_centre_reads_no_undecoded_cell(self, monkeypatch):
        """A level cell stays NaN until it is decoded, and sample_patch
        multiplies the cells a NaN centre reads by 0: a cell read before
        it was decoded makes a NaN patch where the dense levels give 0."""
        import tapfuse.tracker as tracker

        weights, pyramid, dense = self.window(12)
        pos = np.random.default_rng(13).uniform(16.0, 40.0, size=(4, 2))
        pos[2, 0] = np.nan
        patches = []

        def sample(*args):
            patches.append(sample_patch(*args))
            return patches[-1]

        monkeypatch.setattr(tracker, "sample_patch", sample)
        with np.errstate(invalid="ignore"):
            want = refine_track(pos, np.zeros(4), dense, weights)
            dense_patches, patches[:] = patches[:], []
            got = refine_track(pos, np.zeros(4), pyramid.levels, weights,
                               pyramid.cover)
        assert len(patches) == len(dense_patches) == 3 * 3
        for a, b in zip(patches, dense_patches):
            assert a.tobytes() == b.tobytes()
        assert not np.isnan(patches[0]).any()
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    def test_cover_decodes_the_box_around_the_taps(self):
        weights, pyramid, dense = self.window(15, grid=(12, 12))
        # centres in tokens (5, 6) and (6, 6); level 0 taps reach 3 tokens
        # left and up and 4 right and down, plus a token of margin
        pyramid.cover(np.array([[6.5, 5.5], [6.5, 6.5]]) * 8)
        want = np.zeros((12, 12), dtype=bool)
        want[1:12, 2:12] = True
        assert np.array_equal(pyramid.decoded, want)
        for got, ref in zip(pyramid.levels, dense):
            assert got[:, want].tobytes() == ref[:, want].tobytes()
            assert np.isnan(got[:, ~want]).all()


@st.composite
def oracle_cases(draw):
    """A model config, a sensor 1 to 12 tokens a side, 4 to 24 query steps,
    a frame gap (one frame in all included), the seeded init or weights
    that drift the tracks by a drawn step, and 1 to 4 queries starting at
    any step: inside the sensor, in a corner or off it."""
    patch = draw(st.sampled_from([4, 8]))
    kw = dict(d=draw(st.sampled_from([4, 8, 17, 24])), patch=patch,
              window=draw(st.sampled_from([2, 3, 4, 8, 16])),
              patch_radius=draw(st.integers(0, 2)),
              radius=draw(st.integers(0, 2)),
              iterations=draw(st.integers(1, 3)))
    width, height = (patch * draw(st.integers(1, 12)) for _ in range(2))
    steps = draw(st.integers(4, 24))
    frame_every = draw(st.sampled_from([1, 2, 3, 5, 8, steps]))
    drift = draw(st.sampled_from([None, -5.0, 0.0, 2.5, 5.0]))
    inside = st.tuples(st.floats(0.0, width - 1.0),
                       st.floats(0.0, height - 1.0))
    corner = st.tuples(st.sampled_from([0.0, width - 1.0]),
                       st.sampled_from([0.0, height - 1.0]))
    off = st.tuples(st.sampled_from([-3.0, width + 2.5]),
                    st.floats(-10.0, height + 10.0))
    queries = draw(st.lists(st.tuples(st.integers(0, steps - 1),
                                      st.one_of(inside, corner, off)),
                            min_size=1, max_size=4))
    return kw, width, height, steps, frame_every, drift, queries


@settings(max_examples=60, deadline=None)
@given(case=oracle_cases())
def test_drawn_tracks_equal_the_dense_decode_and_each_query_alone(case):
    """Over drawn configs, sensors, frame gaps, drift and query places, the
    on-demand decode gives the dense decode's tracks to the last bit, and
    each query's track is the one it gets when tracked alone."""
    kw, width, height, steps, frame_every, drift, places = case
    frames, timeline, stream, _ = small_sequence(
        n_query=steps, frame_every=frame_every, size=height, width=width)
    if drift is None:
        weights = WeightBundle.initialize(FusionConfig(**kw), seed=0)
    else:
        weights = drifting_weights(drift=drift, **kw)
    qs = [QueryPoint(int(timeline.query_times[step]), x, y)
          for step, (x, y) in places]
    want = dense_track_sequence(frames, stream, timeline, qs, weights)
    got = track_sequence(frames, stream, timeline, qs, weights)
    assert got.positions.tobytes() == want[0].tobytes()
    assert got.visibility.tobytes() == want[1].tobytes()
    for qi, q in enumerate(qs):
        alone = track_sequence(frames, stream, timeline, [q], weights)
        assert alone.positions.tobytes() == got.positions[qi].tobytes()
        assert alone.visibility.tobytes() == got.visibility[qi].tobytes()


class TestTrackFileFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(8)
        ts = TrackSet(times=np.arange(5, dtype=np.int64) * 1000,
                      positions=rng.uniform(0, 64, size=(3, 5, 2)),
                      visibility=rng.integers(0, 2, size=(3, 5)))
        back = parse_track_set(serialize_track_set(ts))
        np.testing.assert_array_equal(back.times, ts.times)
        np.testing.assert_allclose(back.positions, ts.positions, rtol=1e-8)
        np.testing.assert_array_equal(back.visibility, ts.visibility)

    def test_header_and_layout(self):
        ts = TrackSet(times=np.array([0, 10]),
                      positions=np.zeros((2, 2, 2)),
                      visibility=np.ones((2, 2), dtype=np.int64))
        text = serialize_track_set(ts).decode()
        lines = text.strip().split("\n")
        assert lines[0] == "# queries=2 steps=2"
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "0"

    @pytest.mark.parametrize("field, value", [
        ("x", np.nan), ("y", np.inf), ("x", -np.inf), ("v", np.nan)])
    def test_writer_refuses_non_finite_field_naming_query_and_step(
            self, field, value):
        ts = TrackSet(times=np.array([0, 10, 20]),
                      positions=np.zeros((2, 3, 2)),
                      visibility=np.ones((2, 3)))
        if field == "v":
            ts.visibility[1, 2] = value
        else:
            ts.positions[1, 2, "xy".index(field)] = value
        with pytest.raises(GridMismatch, match="query 1 at step 2"):
            serialize_track_set(ts)

    @pytest.mark.parametrize("field, value", [
        ("x", np.nan), ("y", -np.inf), ("v", np.inf)])
    def test_non_finite_field_rejected_at_construction(self, field, value):
        """A NaN position once reached MetricReport.to_json and raised a
        builtin ValueError there."""
        positions, visibility = np.zeros((2, 3, 2)), np.ones((2, 3))
        if field == "v":
            visibility[1, 2] = value
        else:
            positions[1, 2, "xy".index(field)] = value
        with pytest.raises(GridMismatch, match=r"query 1 at step 2 \(t = 20 us"):
            TrackSet(times=np.array([0, 10, 20]), positions=positions,
                     visibility=visibility)

    @pytest.mark.parametrize("times", [[], [0, 0], [10, 5], [0, 0, 5]])
    def test_writer_refuses_what_the_parser_rejects(self, times):
        """TrackSet holds the rules, so the set is never built: an EvalPair
        on times [0, 0, 5] once scored FA 1.0."""
        with pytest.raises(GridMismatch, match="strictly increasing"):
            TrackSet(times=np.array(times, dtype=np.int64),
                     positions=np.zeros((1, len(times), 2)),
                     visibility=np.ones((1, len(times))))

    def test_missing_header_rejected(self):
        with pytest.raises(GridMismatch):
            parse_track_set(b"0,1,2,3\n")

    def test_step_count_mismatch_rejected(self):
        with pytest.raises(GridMismatch):
            parse_track_set(b"# queries=1 steps=3\n0,1,2,1\n")

    @pytest.mark.parametrize("data", [
        b"# queries=x steps=1\n0,1,1,1\n",
        b"# queries=1\n0,1,1,1\n",
        b"# queries=1 steps\n0,1,1,1\n",
        b"# queries=-1 steps=1\n0,1,1,1\n",
        b"# queries=1 steps=1\n0,1,y,1\n",
        b"# queries=1 steps=1\n0,1,1\n",
        b"# queries=1 steps=2\n0,1,1,1\n1,1,1,1,1\n",
        b"# queries=1 steps=1\n1e3,1,1,1\n",
        b"# queries=1 steps=1\n99999999999999999999,1,1,1\n",
        b"# queries=99999999999999999999 steps=0\n",
        b"\xff\xfe",
        # what the writer never writes: no steps, a non-finite field, step
        # times that repeat or fall
        b"# queries=1 steps=0\n",
        b"# queries=0 steps=0\n",
        b"# queries=1 steps=1\n0,nan,1,1\n",
        b"# queries=1 steps=1\n0,1,inf,1\n",
        b"# queries=1 steps=1\n0,1,1,-inf\n",
        b"# queries=1 steps=2\n5,1,1,1\n5,1,1,1\n",
        b"# queries=1 steps=2\n5,1,1,1\n4,1,1,1\n",
    ])
    def test_malformed_file_is_grid_mismatch(self, data):
        with pytest.raises(GridMismatch):
            parse_track_set(data)


VALID_TRACKS = serialize_track_set(TrackSet(
    times=np.array([0, 20833, 41667]),
    positions=np.array([[[16.5, 3.25], [17.0, 3.5], [17.75, 4.0]],
                        [[40.0, 50.0], [-1.5, 2e-3], [63.999, 0.0]]]),
    visibility=np.array([[1, 1, 0], [0, 1, 1]])))
MUTATION_BYTES = st.one_of(
    st.binary(max_size=3),
    st.sampled_from([b"=", b",", b"#", b"\n", b"-", b" ", b".", b"e", b"x",
                     b"\xff", b"9" * 25]))


@settings(max_examples=300, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(0, len(VALID_TRACKS) - 1),
                                MUTATION_BYTES), min_size=1, max_size=4),
       cut=st.integers(0, len(VALID_TRACKS)))
def test_mutated_track_file_raises_only_typed_errors(edits, cut):
    """Each edit replaces one byte with a short byte string (a delete,
    replace or insert); then the file is cut at a random length."""
    blob = bytearray(VALID_TRACKS)
    for pos, repl in edits:
        pos = min(pos, len(blob) - 1)
        blob[pos:pos + 1] = repl
    try:
        parse_track_set(bytes(blob[:cut]))
    except TapfuseError:
        pass
