import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tapfuse.errors import (
    GridMismatch,
    QueryOutOfRange,
    ShapeMismatch,
    TapfuseError,
)
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


def make_pyramids(rng, n, channels=(64, 32, 16), size=8):
    """A window pyramid of random token-resolution levels, (n, size, size,
    C_l) each: what decode_pyramid gives for a size x size token grid."""
    return FeaturePyramid(levels=tuple(rng.normal(size=(n, size, size, c))
                                       for c in channels))


def upsample(level, block):
    """The full-resolution map a token-resolution level stands for: each
    token repeated into a block x block square (nearest neighbour)."""
    return np.repeat(np.repeat(level, block, axis=-3), block, axis=-2)


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

    def test_read_only_inputs_give_the_same_result(self):
        """track_sequence passes views of its output arrays, which
        refine_track only reads."""
        rng = np.random.default_rng(9)
        weights = randomized_refiner(10)
        state = self.make_state(rng)
        pyrs = make_pyramids(rng, 4)
        frozen = TrackState(positions=state.positions.copy(),
                            visibility_logits=state.visibility_logits.copy(),
                            window_times=state.window_times.copy())
        for arr in (frozen.positions, frozen.visibility_logits,
                    frozen.window_times):
            arr.flags.writeable = False
        got = refine_track(frozen, pyrs, weights)
        want = refine_track(state, pyrs, weights)
        assert not np.array_equal(got.positions, state.positions)
        assert np.array_equal(got.positions, want.positions)
        assert np.array_equal(got.visibility_logits, want.visibility_logits)

    def test_pyramid_count_must_match_window(self):
        rng = np.random.default_rng(7)
        weights = WeightBundle.initialize(FusionConfig(window=4), seed=8)
        with pytest.raises(ShapeMismatch):
            refine_track(self.make_state(rng), make_pyramids(rng, 3), weights)


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


def loop_refine_track(state, dense_levels, weights, iterations):
    """refine_track on the full-resolution maps of the window pyramid
    (level l is (W, h_l, w_l, C_l) at stride patch / 2**l), sampling one
    window step at a time."""
    cfg = weights.config
    r = cfg.patch_radius
    state = dataclasses.replace(state)
    for _ in range(iterations):
        patches_per_level = []
        for lvl in range(3):
            stride = cfg.patch / 2 ** lvl
            taps = []
            for t, level in enumerate(dense_levels[lvl]):
                patch = loop_sample_patch(level, tuple(state.positions[t]), r,
                                          stride)
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
    """Sampling a token-resolution level in blocks keeps the per-step
    loop's arithmetic on the upsampled map, so the results are equal, not
    merely close."""

    @pytest.mark.parametrize("patch", [4, 8, 16])
    @pytest.mark.parametrize("lvl", range(3))
    def test_token_level_patch_equals_loop_on_upsampled_map(self, patch, lvl):
        rng = np.random.default_rng(30 + lvl)
        block, stride = 2 ** lvl, patch / 2 ** lvl
        tokens = make_pyramids(rng, 6).levels[lvl]
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
        dense = [upsample(lvl, 2 ** l) for l, lvl in enumerate(pyramid.levels)]
        # near and beyond the border of the 64 px input at every stride
        positions = rng.uniform(-12.0, 76.0, size=(w, 2))
        positions[0] = (0.5, 63.5)
        state = TrackState(positions=positions,
                           visibility_logits=rng.normal(size=w),
                           window_times=np.arange(w) * 1000)
        got = refine_track(state, pyramid, weights, iterations=3)
        want = loop_refine_track(state, dense, weights, 3)
        assert not np.array_equal(got.positions, state.positions)
        assert np.array_equal(got.positions, want.positions)
        assert np.array_equal(got.visibility_logits, want.visibility_logits)


@pytest.mark.parametrize("patch", [4, 8, 16])
def test_refiner_reads_the_token_containing_each_centre(patch, monkeypatch):
    """With patch p, level l is read at stride p / 2**l in blocks of 2**l:
    at every level a centre on a token corner reads that token, across the
    whole 64 px input."""
    import tapfuse.tracker as tracker

    weights = WeightBundle.initialize(
        FusionConfig(patch=patch, window=4, patch_radius=1), seed=0)
    n = 64 // patch
    rows, cols = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    token_ids = np.broadcast_to(np.stack([rows, cols], axis=-1).astype(float),
                                (4, n, n, 2))
    seen = []

    def capture(patches_per_level, w):
        seen.append(patches_per_level)
        return np.zeros((len(patches_per_level[0]),
                         3 * w.config.corr_embed))

    monkeypatch.setattr(tracker, "correlation_features", capture)
    cells = np.array([[0, 0], [1, 3], [n - 1, 2], [n - 1, n - 1]])  # (col, row)
    state = TrackState(positions=cells * float(patch),
                       visibility_logits=np.zeros(4),
                       window_times=np.arange(4) * 1000)
    refine_track(state, FeaturePyramid(levels=(token_ids,) * 3), weights,
                 iterations=1)
    (levels,) = seen
    for patches in levels:
        centre_tap = patches[:, patches.shape[1] // 2]
        assert np.array_equal(centre_tap, cells[:, ::-1])


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
        track_sequence(frames, list(timeline.frame_times), stream, timeline,
                       [QueryPoint(0, 16.0, 16.0)], weights)
        # window starts 0, 8, 16, 24, 32 of 16 steps over 48 query steps
        assert seen == [(stop, 16, 16) for stop in (16, 24, 32, 40, 48)]

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
