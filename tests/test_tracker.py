import numpy as np
import pytest

from tapfuse.errors import GridMismatch, QueryOutOfRange, ShapeMismatch
from tapfuse.events import Timeline
from tapfuse.synth import SceneConfig, SceneObject, render_intensity_video, simulate_events
from tapfuse.tracker import (
    QueryPoint,
    TrackSet,
    TrackState,
    _motion_encoding,
    _refiner_transformer,
    correlation_features,
    parse_track_set,
    refine_track,
    sample_patch,
    serialize_track_set,
    track_sequence,
)
from tapfuse.fusion import FeaturePyramid
from tapfuse.weights import FusionConfig, WeightBundle


class TestSamplePatch:
    def test_integer_center_reads_exact_values(self):
        rng = np.random.default_rng(0)
        level = rng.normal(size=(10, 12, 3))
        patch = sample_patch(level, (5.0, 4.0), r=1)
        np.testing.assert_allclose(patch, level[3:6, 4:7])

    def test_constant_field_interior(self):
        level = np.full((8, 8, 2), 3.5)
        patch = sample_patch(level, (4.25, 3.75), r=2)
        np.testing.assert_allclose(patch, 3.5)

    def test_fractional_center_scalar_oracle(self):
        level = np.zeros((4, 4, 1))
        level[1, 1, 0] = 1.0
        # center (1.25, 1.5): tap (0,0) lands at that point
        patch = sample_patch(level, (1.25, 1.5), r=0)
        assert patch[0, 0, 0] == pytest.approx(0.75 * 0.5)

    def test_out_of_bounds_taps_read_zero(self):
        level = np.ones((4, 4, 1))
        patch = sample_patch(level, (0.0, 0.0), r=1)
        assert patch[0, 0, 0] == 0.0   # (-1, -1)
        assert patch[1, 1, 0] == 1.0   # center
        assert patch[0, 1, 0] == 0.0   # y = -1

    def test_stride_scales_lookup(self):
        rng = np.random.default_rng(1)
        level = rng.normal(size=(6, 6, 2))
        a = sample_patch(level, (8.0, 4.0), r=1, stride=2)
        b = sample_patch(level, (4.0, 2.0), r=1, stride=1)
        np.testing.assert_allclose(a, b)


class TestCorrelationFeatures:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        cfg = FusionConfig(patch_radius=1, corr_hidden=8, corr_embed=4)
        weights = WeightBundle.initialize(cfg, seed=3)
        taps = (2 * cfg.patch_radius + 1) ** 2
        patches = [rng.normal(size=(4, taps, c)) for c in (5, 3, 2)]
        got = correlation_features(patches, weights)
        assert got.shape == (4, 3 * cfg.corr_embed)
        for lvl in range(3):
            anchor = patches[lvl][0]
            for t in range(4):
                corr = patches[lvl][t] @ anchor.T
                h = np.maximum(corr.ravel() @ weights[f"corr.l{lvl}.w1"]
                               + weights[f"corr.l{lvl}.b1"], 0.0)
                want = h @ weights[f"corr.l{lvl}.w2"] + weights[f"corr.l{lvl}.b2"]
                np.testing.assert_allclose(
                    got[t, 4 * lvl:4 * lvl + 4], want, atol=1e-12)

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


def make_step_levels(rng, n, channels=(64, 32, 16), size=8):
    """n per-step level triples, each level (h, w, C)."""
    return [tuple(rng.normal(size=(size * (2 ** l), size * (2 ** l), c))
                  for l, c in enumerate(channels))
            for _ in range(n)]


def stack_pyramid(step_levels):
    """The window pyramid refine_track takes: level l is (W, h, w, C)."""
    return FeaturePyramid(levels=tuple(np.stack(lvl)
                                       for lvl in zip(*step_levels)))


def make_pyramids(rng, n, channels=(64, 32, 16), size=8):
    return stack_pyramid(make_step_levels(rng, n, channels, size))


def randomized_refiner(seed):
    weights = WeightBundle.initialize(FusionConfig(window=4), seed=seed)
    rng = np.random.default_rng(seed + 500)
    for name in ("ref.head.w", "ref.head.b", "ref.b0.attn.wo", "ref.b1.attn.wo",
                 "ref.b0.mlp.w2", "ref.b1.mlp.w2"):
        weights.params[name] = rng.normal(
            scale=0.05, size=weights.params[name].shape)
    return weights


class TestRefineTrack:
    def make_state(self, rng, w=4):
        return TrackState(
            positions=rng.uniform(10, 40, size=(w, 2)),
            visibility_logits=rng.normal(size=w),
            window_times=np.arange(w) * 1000)

    def test_zero_initialized_head_is_identity(self):
        rng = np.random.default_rng(4)
        weights = WeightBundle.initialize(FusionConfig(window=4), seed=5)
        state = self.make_state(rng)
        pyrs = make_pyramids(rng, 4)
        out = refine_track(state, pyrs, weights)
        np.testing.assert_array_equal(out.positions, state.positions)
        np.testing.assert_array_equal(out.visibility_logits,
                                      state.visibility_logits)

    def test_iterations_compose(self):
        rng = np.random.default_rng(5)
        weights = randomized_refiner(6)
        state = self.make_state(rng)
        pyrs = make_pyramids(rng, 4)
        fused = refine_track(state, pyrs, weights, iterations=3)
        step = state
        for _ in range(3):
            step = refine_track(step, pyrs, weights, iterations=1)
        np.testing.assert_allclose(fused.positions, step.positions, atol=1e-12)
        np.testing.assert_allclose(fused.visibility_logits,
                                   step.visibility_logits, atol=1e-12)

    def test_deterministic_and_input_preserved(self):
        rng = np.random.default_rng(6)
        weights = randomized_refiner(7)
        state = self.make_state(rng)
        snapshot = state.positions.copy()
        pyrs = make_pyramids(rng, 4)
        a = refine_track(state, pyrs, weights)
        b = refine_track(state, pyrs, weights)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(state.positions, snapshot)

    def test_pyramid_count_must_match_window(self):
        rng = np.random.default_rng(7)
        weights = WeightBundle.initialize(FusionConfig(window=4), seed=8)
        with pytest.raises(ShapeMismatch):
            refine_track(self.make_state(rng), make_pyramids(rng, 3), weights)


# ---------------------------------------------------------------------------
# Reference: the per-step refiner loop the windowed refiner replaced
# ---------------------------------------------------------------------------

def loop_sample_patch(level, center, r, stride=1):
    """Single-centre bilinear patch, one gather per corner."""
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


def loop_refine_track(state, step_pyramids, weights, iterations):
    """refine_track over a list of per-step pyramids, sampling one window
    step at a time."""
    cfg = weights.config
    r = cfg.patch_radius
    state = state.copy()
    for _ in range(iterations):
        patches_per_level = []
        for lvl in range(3):
            stride = step_pyramids[0].strides[lvl]
            taps = []
            for t, pyr in enumerate(step_pyramids):
                patch = loop_sample_patch(pyr.levels[lvl],
                                          tuple(state.positions[t]), r, stride)
                taps.append(patch.reshape(-1, patch.shape[-1]))
            patches_per_level.append(np.stack(taps))
        desc = correlation_features(patches_per_level, weights)
        rel = state.positions - state.positions[0]
        tokens = np.concatenate(
            [desc, state.visibility_logits[:, None],
             _motion_encoding(rel, cfg.motion_freqs)], axis=1)
        x = tokens @ weights["ref.in.w"] + weights["ref.in.b"]
        x = _refiner_transformer(x, weights)
        delta = x @ weights["ref.head.w"] + weights["ref.head.b"]
        state.positions = state.positions + delta[:, :2]
        state.visibility_logits = state.visibility_logits + delta[:, 2]
    return state


class TestWindowedRefinerExactness:
    """The windowed refiner keeps the per-step loop's arithmetic, so its
    results are equal to the loop's, not merely close."""

    @pytest.mark.parametrize("lvl,stride", [(0, 8), (1, 4), (2, 2)])
    def test_windowed_patch_equals_stacked_single_centre_calls(self, lvl,
                                                               stride):
        rng = np.random.default_rng(30 + lvl)
        levels = make_step_levels(rng, 6)
        stacked = stack_pyramid(levels).levels[lvl]
        # interior, border-straddling and fully outside centres (64 px input)
        centers = np.array([[31.3, 30.7], [0.0, 0.0], [-3.5, 12.25],
                            [63.9, 64.2], [70.0, -9.0], [-200.0, 300.0]])
        got = sample_patch(stacked, centers, 3, stride)
        assert got.shape == (6, 7, 7, stacked.shape[-1])
        for t in range(6):
            single = sample_patch(stacked[t], tuple(centers[t]), 3, stride)
            assert np.array_equal(got[t], single)
            assert np.array_equal(
                got[t], loop_sample_patch(levels[t][lvl], centers[t], 3, stride))

    def test_window_center_count_must_match(self):
        level = np.zeros((4, 8, 8, 2))
        with pytest.raises(ShapeMismatch):
            sample_patch(level, np.zeros((3, 2)), 1)

    @pytest.mark.parametrize("seed", range(3))
    def test_refine_track_equals_per_step_loop(self, seed):
        weights = randomized_refiner(seed)
        rng = np.random.default_rng(seed + 40)
        w = weights.config.window
        levels = make_step_levels(rng, w)
        # near and beyond the border of the 64 px input at every stride
        positions = rng.uniform(-12.0, 76.0, size=(w, 2))
        positions[0] = (0.5, 63.5)
        state = TrackState(positions=positions,
                           visibility_logits=rng.normal(size=w),
                           window_times=np.arange(w) * 1000)
        got = refine_track(state, stack_pyramid(levels), weights, iterations=3)
        want = loop_refine_track(
            state, [FeaturePyramid(levels=lv) for lv in levels], weights, 3)
        assert not np.array_equal(got.positions, state.positions)
        assert np.array_equal(got.positions, want.positions)
        assert np.array_equal(got.visibility_logits, want.visibility_logits)


def small_sequence(seed=0, n_query=48, frame_every=4, size=32):
    cfg = SceneConfig(width=size, height=size, duration_us=1_000_000,
                      fps=n_query, objects=[
                          SceneObject("gaussian_blob", (size / 2, size / 2),
                                      (6.0, -4.0), 3.0, 2.0)])
    video, gt = render_intensity_video(cfg)
    stream = simulate_events(video, 0.2)
    timeline = Timeline(
        frame_times=[int(t) for t in video.frame_times[::frame_every]],
        query_times=[int(t) for t in video.frame_times],
        exposure_us=4000)
    frames = video.frames[::frame_every]
    return frames, timeline, stream, gt


class TestTrackSequence:
    def test_scheduler_cadence(self):
        frames, timeline, stream, _ = small_sequence()
        weights = WeightBundle.initialize(FusionConfig(), seed=0)
        counters = {}
        tracks = track_sequence(frames, list(timeline.frame_times), stream,
                                timeline, [QueryPoint(0, 16.0, 16.0)],
                                weights, counters=counters)
        assert len(tracks.times) == 48
        assert counters["taf_init"] == 12
        assert counters["taf_update"] == 36

    def test_untrained_network_is_identity_tracker(self):
        frames, timeline, stream, _ = small_sequence(seed=1)
        weights = WeightBundle.initialize(FusionConfig(), seed=1)
        q = QueryPoint(int(timeline.query_times[0]), 12.0, 20.0)
        tracks = track_sequence(frames, list(timeline.frame_times), stream,
                                timeline, [q], weights)
        np.testing.assert_array_equal(tracks.positions[0, :, 0], 12.0)
        np.testing.assert_array_equal(tracks.positions[0, :, 1], 20.0)
        assert tracks.visibility[0].all()

    def test_late_query_frozen_before_start(self):
        frames, timeline, stream, _ = small_sequence(seed=2)
        weights = WeightBundle.initialize(FusionConfig(), seed=2)
        t_q = int(timeline.query_times[10])
        tracks = track_sequence(frames, list(timeline.frame_times), stream,
                                timeline, [QueryPoint(t_q, 8.0, 8.0)], weights)
        assert not tracks.visibility[0, :10].any()
        assert tracks.visibility[0, 10:].all()
        np.testing.assert_array_equal(tracks.positions[0, :10],
                                      [[8.0, 8.0]] * 10)

    def test_bit_identical_reruns(self):
        frames, timeline, stream, _ = small_sequence(seed=3)
        weights = WeightBundle.initialize(FusionConfig(), seed=3)
        qs = [QueryPoint(0, 10.0, 10.0), QueryPoint(0, 22.0, 18.0)]
        a = track_sequence(frames, list(timeline.frame_times), stream,
                           timeline, qs, weights)
        b = track_sequence(frames, list(timeline.frame_times), stream,
                           timeline, qs, weights)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.visibility, b.visibility)

    def test_off_grid_query_rejected(self):
        frames, timeline, stream, _ = small_sequence(seed=4)
        weights = WeightBundle.initialize(FusionConfig(), seed=4)
        with pytest.raises(QueryOutOfRange):
            track_sequence(frames, list(timeline.frame_times), stream,
                           timeline, [QueryPoint(123, 5.0, 5.0)], weights)

    def test_first_step_must_carry_frame(self):
        frames, timeline, stream, _ = small_sequence(seed=5)
        weights = WeightBundle.initialize(FusionConfig(), seed=5)
        shifted = Timeline(frame_times=list(timeline.frame_times)[1:],
                           query_times=list(timeline.query_times),
                           exposure_us=timeline.exposure_us)
        with pytest.raises(GridMismatch):
            track_sequence(frames[1:], list(shifted.frame_times), stream,
                           shifted, [], weights)


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

    def test_missing_header_rejected(self):
        with pytest.raises(GridMismatch):
            parse_track_set(b"0,1,2,3\n")

    def test_step_count_mismatch_rejected(self):
        with pytest.raises(GridMismatch):
            parse_track_set(b"# queries=1 steps=3\n0,1,2,1\n")
