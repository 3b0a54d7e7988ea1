import warnings

import numpy as np
import pytest

from tapfuse.errors import DegenerateScene, EmptyWindow, GeometryViolation
from tapfuse.events import EventStream
from tapfuse.synth import (
    IntensityVideo,
    SceneConfig,
    SceneObject,
    edi_blur,
    reconstruct_log_intensity,
    render_intensity_video,
    simulate_events,
)


def blob(x, y, vx=0.0, vy=0.0, size=3.0, intensity=2.0):
    return SceneObject(shape="gaussian_blob", position=(x, y),
                       velocity=(vx, vy), size=size, intensity=intensity)


def single_pixel_video(log_values, times):
    frames = np.exp(np.asarray(log_values, dtype=np.float64)).reshape(-1, 1, 1)
    return IntensityVideo(frames=frames,
                          frame_times=np.asarray(times, dtype=np.int64),
                          fps=1e6 / (times[1] - times[0]))


class TestRender:
    def test_static_scene_constant(self):
        cfg = SceneConfig(width=32, height=32, duration_us=500_000, fps=24,
                          objects=[blob(16, 16)])
        video, gt = render_intensity_video(cfg)
        for frame in video.frames[1:]:
            np.testing.assert_array_equal(frame, video.frames[0])
        np.testing.assert_allclose(gt.positions[0], [[16, 16]] * len(gt.times))
        assert gt.visibility.all()

    def test_analytic_motion(self):
        cfg = SceneConfig(width=64, height=64, duration_us=1_000_000, fps=48,
                          objects=[blob(10, 10, vx=24.0)])
        video, gt = render_intensity_video(cfg)
        for k, t in enumerate(gt.times):
            assert gt.positions[0, k, 0] == pytest.approx(10 + 24 * t / 1e6)
            assert gt.positions[0, k, 1] == pytest.approx(10.0)

    def test_visibility_flips_on_exit(self):
        cfg = SceneConfig(width=32, height=32, duration_us=1_000_000, fps=20,
                          objects=[blob(28, 16, vx=16.0)])
        _, gt = render_intensity_video(cfg)
        xs = gt.positions[0, :, 0]
        expected = (xs < 32).astype(int)
        np.testing.assert_array_equal(gt.visibility[0], expected)
        assert gt.visibility[0, 0] == 1 and gt.visibility[0, -1] == 0

    def test_zero_size_object_rejected(self):
        with pytest.raises(DegenerateScene):
            SceneConfig(width=8, height=8, duration_us=100_000, fps=24,
                        objects=[SceneObject("gaussian_blob", (4, 4), (0, 0),
                                             0.0, 1.0)])

    @pytest.mark.parametrize("obj", [
        blob(np.nan, 4), blob(4, 4, vx=np.inf), blob(4, 4, size=np.inf),
        blob(4, 4, intensity=np.nan)])
    def test_non_finite_object_rejected(self, obj):
        with pytest.raises(DegenerateScene, match="non-finite"):
            SceneConfig(width=8, height=8, duration_us=100_000, fps=24,
                        objects=[obj])


class TestSimulate:
    def test_constant_video_no_events(self):
        video = single_pixel_video([0.5, 0.5, 0.5], [0, 1000, 2000])
        assert len(simulate_events(video, c=0.2)) == 0

    def test_step_crossing_count(self):
        c = 0.2
        video = single_pixel_video([0.0, 2.5 * c], [0, 1000])
        stream = simulate_events(video, c)
        assert len(stream) == 2
        assert np.all(stream.p == 1)

    def test_linear_ramp_event_times(self):
        c = 0.2
        # slope c per millisecond over 10 ms
        video = single_pixel_video([0.0, 10 * c], [0, 10_000])
        stream = simulate_events(video, c)
        assert len(stream) == 10
        np.testing.assert_array_equal(stream.t.astype(np.int64),
                                      np.arange(1000, 11_000, 1000))

    def test_negative_ramp_polarity(self):
        video = single_pixel_video([1.0, 0.0], [0, 5000])
        stream = simulate_events(video, c=0.3)
        assert len(stream) == 3
        assert np.all(stream.p == -1)

    def test_polarity_antisymmetry(self):
        rng = np.random.default_rng(21)
        cfg = SceneConfig(width=24, height=24, duration_us=400_000, fps=50,
                          objects=[blob(6, 12, vx=20.0)])
        video, _ = render_intensity_video(cfg)
        c = 0.2
        fwd = simulate_events(video, c)
        logs = np.log(video.frames)
        mirrored = IntensityVideo(frames=np.exp(2 * logs.mean() - logs),
                                  frame_times=video.frame_times, fps=video.fps)
        rev = simulate_events(mirrored, c)
        a = sorted(zip(fwd.t.tolist(), fwd.x.tolist(), fwd.y.tolist(),
                       (-fwd.p).tolist()))
        b = sorted(zip(rev.t.tolist(), rev.x.tolist(), rev.y.tolist(),
                       rev.p.tolist()))
        assert len(a) == len(b)
        for (ta, xa, ya, pa), (tb, xb, yb, pb) in zip(a, b):
            assert (xa, ya, pa) == (xb, yb, pb)
            assert abs(ta - tb) <= 1

    @pytest.mark.parametrize("shape", [(1, 65537), (65537, 1)])
    def test_side_beyond_u16_is_geometry_violation(self, shape):
        # a pixel past x or y = 65535 brightens; its events would wrap mod 2**16
        frames = np.ones((2, *shape))
        frames[1, -1, -1] = 3.0
        video = IntensityVideo(frames=frames, frame_times=np.array([0, 1000]),
                               fps=1000.0)
        with pytest.raises(GeometryViolation, match="u16"):
            simulate_events(video, c=0.2)

    def test_side_of_65536_keeps_its_coordinates(self):
        frames = np.ones((2, 1, 65536))
        frames[1, 0, 65535] = 3.0
        video = IntensityVideo(frames=frames, frame_times=np.array([0, 1000]),
                               fps=1000.0)
        stream = simulate_events(video, c=0.2)
        assert len(stream) == 5
        assert np.all(stream.x == 65535)

    def test_level_left_over_on_a_still_pixel_fires_at_interval_start(self):
        """Float rounding leaves pixel (0, 0) one level short when its last
        moving interval ends at 666667 us. Its pixel then holds still, and
        the left-over event fires at that interval boundary, not at a
        0/0 time clipped to t = 0."""
        cfg = SceneConfig(width=4, height=2, duration_us=1_000_000, fps=6.0,
                          objects=[SceneObject("textured_square", (2.0, 1.0),
                                               (-5.0, 0.0), 1.0, 2.0)],
                          background=0.890625)
        video, _ = render_intensity_video(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            stream = simulate_events(video, c=0.1)
        at = (stream.x == 0) & (stream.y == 0)
        assert stream.t[at].min() > 0
        assert stream.t[at][-1] == 666_667 and stream.p[at][-1] == -1

    def test_event_count_non_increasing_in_threshold(self):
        cfg = SceneConfig(width=24, height=24, duration_us=400_000, fps=50,
                          objects=[blob(6, 12, vx=25.0)])
        video, _ = render_intensity_video(cfg)
        counts = [len(simulate_events(video, c))
                  for c in (0.05, 0.1, 0.2, 0.4, 0.8)]
        assert counts == sorted(counts, reverse=True)


class TestReconstruct:
    def test_no_events_identity(self):
        stream = EventStream.from_events([], 4, 4, 0, 1000)
        anchor = np.random.default_rng(0).normal(size=(4, 4))
        out = reconstruct_log_intensity(anchor, stream, 0, 1000, c=0.2)
        np.testing.assert_array_equal(out, anchor)

    def test_single_event_adds_threshold(self):
        from tapfuse.events import Event
        stream = EventStream.from_events([Event(3, 3, 500, 1)], 8, 8, 0, 1000)
        anchor = np.zeros((8, 8))
        out = reconstruct_log_intensity(anchor, stream, 0, 1000, c=0.2)
        assert out[3, 3] == pytest.approx(0.2)
        assert np.count_nonzero(out) == 1

    @pytest.mark.parametrize("c", [0.1, 0.2, 0.4])
    def test_round_trip_quantization_bound(self, c):
        cfg = SceneConfig(width=32, height=32, duration_us=500_000, fps=48,
                          objects=[blob(8, 16, vx=30.0), blob(24, 10, vy=-20.0)])
        video, _ = render_intensity_video(cfg)
        stream = simulate_events(video, c)
        anchor = np.log(video.frames[0])
        for k, t in enumerate(video.frame_times):
            recon = reconstruct_log_intensity(anchor, stream, 0, int(t), c)
            true = np.log(video.frames[k])
            assert np.max(np.abs(recon - true)) <= c + 1e-9


class TestEdiBlur:
    def test_zero_events_identity(self):
        stream = EventStream.from_events([], 8, 8, 0, 100_000)
        sharp = np.random.default_rng(1).normal(size=(8, 8))
        out = edi_blur(sharp, stream, 50_000, 20_000, c=0.25)
        np.testing.assert_allclose(out, sharp, atol=1e-12)

    def test_single_event_closed_form(self):
        from tapfuse.events import Event
        c = 0.3
        stream = EventStream.from_events([Event(2, 2, 50_000, 1)],
                                         8, 8, 0, 100_000)
        sharp = np.zeros((8, 8))
        out = edi_blur(sharp, stream, 50_000, 20_000, c=c)
        assert out[2, 2] == pytest.approx(np.log((1 + np.exp(c)) / 2), abs=1e-9)
        assert np.count_nonzero(out) == 1

    def test_static_video_exact(self):
        cfg = SceneConfig(width=16, height=16, duration_us=400_000, fps=25,
                          objects=[blob(8, 8)])
        video, _ = render_intensity_video(cfg)
        stream = simulate_events(video, c=0.2)
        assert len(stream) == 0
        sharp = np.log(video.frames[4])
        out = edi_blur(sharp, stream, int(video.frame_times[4]), 100_000, c=0.2)
        np.testing.assert_allclose(out, sharp, atol=1e-9)

    def test_matches_piecewise_integration_oracle(self):
        cfg = SceneConfig(width=24, height=24, duration_us=400_000, fps=50,
                          objects=[blob(6, 12, vx=25.0)])
        video, _ = render_intensity_video(cfg)
        c = 0.2
        stream = simulate_events(video, c)
        t_center = int(video.frame_times[10])
        T = 100_000
        sharp = np.log(video.frames[10])
        got = edi_blur(sharp, stream, t_center, T, c)

        # oracle: integrate exp(c * E(t)) with E reconstructed frame-wide at
        # every knot between event timestamps
        t_lo, t_hi = t_center - T / 2, t_center + T / 2
        in_win = (stream.t.astype(np.float64) > t_lo) \
            & (stream.t.astype(np.float64) <= t_hi)
        knots = np.unique(np.r_[t_lo, stream.t[in_win].astype(np.float64),
                                float(t_center), t_hi])
        total = np.zeros(sharp.shape)
        for a, b in zip(knots[:-1], knots[1:]):
            e_count = np.zeros(sharp.shape)
            if a >= t_center:
                # forward: events in [t_center, a] have already fired
                sel = in_win & (stream.t.astype(np.float64) >= t_center) \
                    & (stream.t.astype(np.float64) <= a)
                sign = 1.0
            else:
                # backward: events in [b, t_center) still to be undone
                sel = in_win & (stream.t.astype(np.float64) >= b) \
                    & (stream.t.astype(np.float64) < t_center)
                sign = -1.0
            np.add.at(e_count, (stream.y[sel].astype(int),
                                stream.x[sel].astype(int)),
                      sign * stream.p[sel].astype(np.float64))
            total += np.exp(c * e_count) * (b - a)
        want = sharp + np.log(total / T)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_empty_window_rejected(self):
        stream = EventStream.from_events([], 4, 4, 0, 100)
        with pytest.raises(EmptyWindow):
            edi_blur(np.zeros((4, 4)), stream, 50, 0)
