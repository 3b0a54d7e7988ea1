import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tapfuse import synth
from tapfuse.errors import (
    DegenerateScene,
    EmptyWindow,
    GeometryMismatch,
    GeometryViolation,
    NonPositiveIntensity,
)
from tapfuse.events import Event, EventStream
from tapfuse.synth import (
    IntensityVideo,
    SceneConfig,
    SceneObject,
    _rasterize,
    _reach,
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
                          frame_times=np.asarray(times, dtype=np.int64))


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

    @pytest.mark.parametrize("background", [0.0, -1.0, np.nan])
    def test_background_that_is_not_positive_rejected(self, background):
        """A NaN background has no ulp to bound a blob's reach by."""
        with pytest.raises(DegenerateScene, match="background"):
            SceneConfig(width=8, height=8, duration_us=100_000, fps=24,
                        objects=[blob(4, 4)], background=background)

    @pytest.mark.parametrize("obj", [
        blob(np.nan, 4), blob(4, 4, vx=np.inf), blob(4, 4, size=np.inf),
        blob(4, 4, intensity=np.nan)])
    def test_non_finite_object_rejected(self, obj):
        with pytest.raises(DegenerateScene,
                           match=r" = (nan|inf) is outside its domain"):
            SceneConfig(width=8, height=8, duration_us=100_000, fps=24,
                        objects=[obj])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("obj, name", [
        (blob(4, 4, size=1e300), "size"),
        (blob(4, 4, size=1e-300), "size"),
        (blob(4, 4, intensity=1e300), "intensity"),
        (blob(1e300, 4), "x"),
        (SceneObject("textured_square", (4, 4), (1e300, 0), 2.0, 1.0), "vx"),
        (SceneObject("textured_square", (4, 4), (2e6, 0), 2.0, 1.0), "vx"),
        (SceneObject("textured_square", (4, 4), (0, -1e6), 2.0, 1.0),
         "y at the scene's end"),
        (SceneObject("gaussian_blob", (np.float64(-np.inf), 4.0),
                     (np.float64(np.inf), 0.0), 2.0, 1.0), "x"),
    ])
    def test_object_outside_its_domain_rejected(self, obj, name):
        """The config's object domains hold for a library scene too: a
        size of 1e300 overflowed in _rasterize, 1e-300 divided by zero
        there, and an intensity of 1e300 simulated no event. An end of
        numpy -inf + inf is a NaN, not a RuntimeWarning."""
        with pytest.raises(DegenerateScene, match=f"^object {name} = ") as info:
            SceneConfig(width=8, height=8, duration_us=100_000, fps=24,
                        objects=[obj])
        domain = synth.OBJECT_DOMAINS[name.split()[0]]
        assert str(info.value).endswith(f" is outside its domain {domain}")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("field, value, name", [
        ("width", 0, "width"), ("width", 8.5, "width"),
        ("height", 70000, "height"),
        ("duration_us", -5, "duration_us"),
        ("duration_us", 1.5e5, "duration_us"),
        ("fps", np.nan, "fps"), ("fps", 0, "fps"), ("fps", 2e6, "fps"),
        ("background", 0.0, "background"),
        ("background", 1e300, "background"),
        # 10 fps for 0.1 s: one frame
        ("fps", 10.0, "duration_us"),
        ("fps", "24", "fps"), ("background", "1", "background"),
    ])
    def test_scene_field_outside_its_domain_rejected(self, field, value,
                                                     name):
        """The config's scene domains and two-frame rule hold for a library
        scene too, when it is built: a width of 0 divided by zero, 8.5
        raised a TypeError, a NaN fps a ValueError, and a background of
        1e300 simulated no event, and a string fps or background raised a
        TypeError from the domain's comparison."""
        scene = dict(width=8, height=8, duration_us=100_000, fps=24,
                     objects=[blob(4, 4)])
        with pytest.raises(DegenerateScene, match=f"^{name} = ") as info:
            SceneConfig(**{**scene, field: value})
        domain = synth.SCENE_DOMAINS[field]
        if value not in domain:
            assert str(info.value).endswith(f" is outside its domain {domain}")

    def test_numpy_integer_sides_and_duration_accepted(self):
        cfg = SceneConfig(width=np.int64(8), height=np.uint16(6),
                          duration_us=np.int64(100_000), fps=24,
                          objects=[blob(4, 4)])
        video, _ = render_intensity_video(cfg)
        assert cfg.n_frames == 2 and video.frames.shape == (2, 6, 8)

    @pytest.mark.parametrize("times", [[0, 2000, 1000], [1000, 0, 2000],
                                       [0, 0, 1000]])
    def test_frame_times_that_do_not_strictly_increase_rejected(self, times):
        """Were they accepted, [0, 2000, 1000] would squeeze the events of a
        log ramp into [0, 1000], and [1000, 0, 2000] would clip the first
        interval's events to t = 1000."""
        frames = np.exp(np.array([0.0, 4.0, 8.0])).reshape(3, 1, 1) \
            * np.ones((3, 2, 2))
        with pytest.raises(DegenerateScene, match="strictly increase"):
            IntensityVideo(frames=frames, frame_times=np.array(times))

    @pytest.mark.parametrize("value, error", [
        (0.0, NonPositiveIntensity), (np.nan, NonPositiveIntensity),
        (np.inf, DegenerateScene)])
    def test_intensity_that_is_not_positive_and_finite_rejected(self, value,
                                                                error):
        frames = np.ones((2, 2, 2))
        frames[1, 0, 1] = value
        with pytest.raises(error):
            IntensityVideo(frames=frames, frame_times=np.array([0, 1000]))


class TestSimulate:
    def test_constant_video_no_events(self):
        video = single_pixel_video([0.5, 0.5, 0.5], [0, 1000, 2000])
        assert len(simulate_events(video, c=0.2)) == 0

    @pytest.mark.parametrize("c", [0.0, -0.2, np.nan, np.inf, "0.2", 1e-300,
                                   0.005, pytest.param(10**400, id="10**400")])
    def test_contrast_outside_its_domain_rejected(self, c):
        """A NaN or infinite contrast simulated no event, a string raised a
        TypeError, 1e-300 a RuntimeWarning from a cast of about 1e300
        levels, and 10**400 an OverflowError in the crossing-time division;
        the domain is the config's sim.contrast domain, 0.01..1e+06."""
        video = single_pixel_video([0.0, 1.0], [0, 1000])
        with pytest.raises(DegenerateScene, match="^contrast = "):
            simulate_events(video, c)

    @pytest.mark.parametrize("chunks, bad", [
        ([([0, 1000, 500], 3)], "500 follows 1000"),
        ([([0, 1000], 2), ([1000], 1)], "1000 follows 1000"),
        ([([0], 1), ([1000, 2000], 2), ([1500], 1)], "1500 follows 2000")],
        ids=["in-a-chunk", "repeat-across-chunks", "back-across-chunks"])
    def test_chunk_times_that_do_not_strictly_increase_rejected(self, chunks,
                                                                bad):
        """A plain chunk iterable is not an IntensityVideo, which checks its
        own times. Times [0, 1000, 500] gave 10 events and t_end = 500, and
        chunks ([0, 1000], [1000]) put every down-crossing at 1000."""
        ramp = iter(np.exp([0.0, 2.0, 0.0, 2.0]))
        video = [(np.array(times),
                  np.stack([np.full((2, 2), next(ramp)) for _ in range(n)]))
                 for times, n in chunks]
        with pytest.raises(DegenerateScene,
                           match=f"^frame times must strictly increase: "
                                 f"{bad}$"):
            simulate_events(video, c=0.2)

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
                                  frame_times=video.frame_times)
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
        video = IntensityVideo(frames=frames, frame_times=np.array([0, 1000]))
        with pytest.raises(GeometryViolation, match="u16"):
            simulate_events(video, c=0.2)

    def test_side_of_65536_keeps_its_coordinates(self):
        frames = np.ones((2, 1, 65536))
        frames[1, 0, 65535] = 3.0
        video = IntensityVideo(frames=frames, frame_times=np.array([0, 1000]))
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

    @pytest.mark.parametrize("chunk", [4, 2, 1])
    def test_time_past_the_last_frame_is_clipped_in_any_chunking(self, chunk):
        """Float rounding puts the one crossing of interval (1000, 2000] at
        2167 us, past the last frame at 2001 us. It is clipped to 2001 also
        when the frames arrive in chunks and its interval ends before the
        last chunk."""
        logs = [-0.020101384972418757, 0.17989861502758117,
                0.17989861502758123, 0.17989861502758123]
        video = IntensityVideo(frames=np.exp(np.reshape(logs, (4, 1, 1))),
                               frame_times=[0, 1000, 2000, 2001])
        cuts = range(chunk, 4, chunk)
        stream = simulate_events(zip(np.split(video.frame_times, cuts),
                                     np.split(video.frames, cuts)), c=0.2)
        assert stream.t.tolist() == [2001] and stream.p.tolist() == [1]

    def test_rendered_video_is_read_in_bounded_chunks(self, monkeypatch):
        """Iterating a rendered video renders it chunk by chunk into one
        buffer of at most _CHUNK_BYTES; once .frames has been read, it
        yields those frames as one chunk."""
        cfg = SceneConfig(width=16, height=8, duration_us=1_000_000, fps=11,
                          objects=[blob(4, 4, vx=9.0)])
        monkeypatch.setattr(synth, "_CHUNK_BYTES", 3 * 8 * 16 * 8 + 7)
        video, _ = render_intensity_video(cfg)
        chunks = [(times.copy(), frames.copy(), frames.base)
                  for times, frames in video]
        assert [len(times) for times, _, _ in chunks] == [3, 3, 3, 2]
        assert len({id(base) for _, _, base in chunks}) == 1
        assert np.concatenate([t for t, _, _ in chunks]).tolist() == \
            video.frame_times.tolist()
        frames = video.frames
        assert np.concatenate([f for _, f, _ in chunks]).tobytes() == \
            frames.tobytes()
        [(times, whole)] = list(video)
        assert whole is frames and times is video.frame_times

    @pytest.mark.parametrize("at", [np.s_[0], np.s_[1], np.s_[2], np.s_[:],
                                    np.s_[1:]],
                             ids=["first", "second", "last", "every",
                                  "from-second"])
    @pytest.mark.parametrize("value, error", [
        (np.nan, NonPositiveIntensity), (np.inf, DegenerateScene)])
    def test_frames_changed_after_construction_raise_typed_errors(
            self, at, value, error):
        """IntensityVideo keeps the caller's array. A NaN or an inf written
        into it afterwards, in one frame or in several, makes
        simulate_events raise the error the constructor raises for it."""
        frames = np.ones((3, 2, 2))
        frames[:, 1, 1] = [1.0, 5.0, 0.2]
        video = IntensityVideo(frames=frames,
                               frame_times=np.array([0, 1000, 2000]))
        frames[at, 0, 1] = value
        with pytest.raises(error):
            IntensityVideo(frames=frames, frame_times=video.frame_times)
        with pytest.raises(error):
            simulate_events(video, c=0.2)

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


def piecewise_edi_oracle(sharp, stream, t_center, T, c):
    """edi_blur by brute force: integrate exp(c * E(t)) with E rebuilt
    frame-wide, one event at a time, on every segment between the knots
    t_lo, the window's event times, t_center and t_hi."""
    t_lo, t_hi = t_center - T / 2, t_center + T / 2
    times = stream.t.astype(np.float64)
    in_win = (times > t_lo) & (times <= t_hi)
    knots = np.unique(np.r_[t_lo, times[in_win], float(t_center), t_hi])
    total = np.zeros(sharp.shape)
    for a, b in zip(knots[:-1], knots[1:]):
        e_count = np.zeros(sharp.shape)
        if a >= t_center:
            # forward: events in [t_center, a] have already fired
            sel = in_win & (times >= t_center) & (times <= a)
            sign = 1.0
        else:
            # backward: events in [b, t_center) still to be undone
            sel = in_win & (times >= b) & (times < t_center)
            sign = -1.0
        np.add.at(e_count, (stream.y[sel].astype(int),
                            stream.x[sel].astype(int)),
                  sign * stream.p[sel].astype(np.float64))
        total += np.exp(c * e_count) * (b - a)
    return sharp + np.log(total / T)


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
        sharp = np.log(video.frames[10])
        got = edi_blur(sharp, stream, t_center, 100_000, c)
        want = piecewise_edi_oracle(sharp, stream, t_center, 100_000, c)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_odd_window_holds_the_events_between_its_half_integer_ends(self):
        """T = 5 around 10 is (7.5, 12.5]: the events at 8 and 12 each spend
        0.5 us of it one step away, and those at 7 and 13 lie outside."""
        from tapfuse.events import Event
        c = 0.5

        def blur(events):
            stream = EventStream.from_events(events, 2, 1, 0, 20)
            return edi_blur(np.zeros((1, 2)), stream, 10, 5, c)

        inside = [Event(0, 0, 8, 1), Event(1, 0, 12, -1)]
        got = blur(inside + [Event(0, 0, 7, 1), Event(1, 0, 13, 1)])
        assert got.tobytes() == blur(inside).tobytes()
        want = np.log((4.5 + 0.5 * np.exp(-c)) / 5)
        np.testing.assert_allclose(got, [[want, want]], rtol=0, atol=1e-12)

    def test_empty_window_rejected(self):
        stream = EventStream.from_events([], 4, 4, 0, 100)
        with pytest.raises(EmptyWindow):
            edi_blur(np.zeros((4, 4)), stream, 50, 0)


@settings(max_examples=60, deadline=None)
@given(sharp=st.integers(0, 2**32 - 1), width=st.integers(1, 12),
       height=st.integers(1, 12), t_center=st.integers(-10**6, 10**7),
       window_us=st.integers(1, 10**6), c=st.floats(0.01, 1.0),
       outside=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11),
                                  st.integers(0, 10**6),
                                  st.sampled_from([-1, 1])), max_size=20))
def test_edi_blur_without_window_events_returns_sharp_log(
        sharp, width, height, t_center, window_us, c, outside):
    """With no event in (t_center - T/2, t_center + T/2] every pixel
    integrates exp(0) over the window, so the blurred frame is sharp_log
    itself, whatever the window, its centre and the events outside it."""
    sharp_log = np.random.default_rng(sharp).normal(size=(height, width))
    half = window_us / 2
    events = [Event(x % width, y % height, t, p) for x, y, t, p in outside
              if not t_center - half < t <= t_center + half]
    stream = EventStream.from_events(events, width, height, 0, 10**6)
    out = edi_blur(sharp_log, stream, t_center, window_us, c)
    assert out.tobytes() == sharp_log.tobytes()


@st.composite
def window_streams(draw):
    """A small stream around an odd or even window, with events at
    t_center, at and just past both window ends, and one event repeated
    at its pixel and time."""
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    t_center = draw(st.integers(0, 60))
    window_us = draw(st.integers(1, 40))
    lo = int(np.floor(t_center - window_us / 2))
    hi = int(np.floor(t_center + window_us / 2))
    edges = [t for t in (lo, lo + 1, t_center, hi, hi + 1) if t >= 0]
    times = st.one_of(st.sampled_from(edges), st.integers(0, 100))
    events = draw(st.lists(st.builds(Event, st.integers(0, width - 1),
                                     st.integers(0, height - 1), times,
                                     st.sampled_from([-1, 1])),
                           max_size=30))
    events += events[:1] * draw(st.integers(0, 3))
    event("odd window" if window_us % 2 else "even window")
    stream = EventStream.from_events(events, width, height, 0, 200)
    return stream, t_center, window_us


@settings(max_examples=200, deadline=None)
@given(case=window_streams(), sharp=st.integers(0, 2**32 - 1),
       c=st.floats(0.01, 1.0))
def test_edi_blur_matches_the_piecewise_oracle(case, sharp, c):
    stream, t_center, window_us = case
    sharp_log = np.random.default_rng(sharp).normal(
        size=(stream.height, stream.width))
    got = edi_blur(sharp_log, stream, t_center, window_us, c)
    want = piecewise_edi_oracle(sharp_log, stream, t_center, window_us, c)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(case=window_streams(), anchor=st.integers(0, 2**32 - 1),
       t0=st.integers(-5, 100), span=st.integers(0, 100),
       c=st.floats(0.01, 1.0))
def test_reconstruct_matches_a_per_event_sum(case, anchor, t0, span, c):
    stream = case[0]
    start = np.random.default_rng(anchor).normal(
        size=(stream.height, stream.width))
    got = reconstruct_log_intensity(start, stream, t0, t0 + span, c)
    times = stream.t.astype(np.int64)
    sel = (times > t0) & (times <= t0 + span)
    want = start.copy()
    np.add.at(want, (stream.y[sel].astype(int), stream.x[sel].astype(int)),
              c * stream.p[sel].astype(np.float64))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("frame,where", [((2, 4), (5, 0)), ((1, 8), (3, 1))],
                         ids=["narrower", "shorter"])
@pytest.mark.parametrize("integral", [
    lambda frame, stream: edi_blur(frame, stream, 50, 20),
    lambda frame, stream: reconstruct_log_intensity(frame, stream, 0, 100),
], ids=["edi_blur", "reconstruct_log_intensity"])
def test_a_frame_smaller_than_the_sensor_is_rejected(integral, frame, where):
    """An 8x2 sensor's event at (5, 0) lies outside a 4x2 frame, and one
    at (3, 1) outside an 8x1 frame: neither may land on another pixel."""
    stream = EventStream.from_events([Event(*where, 50, 1)], 8, 2, 0, 100)
    with pytest.raises(GeometryMismatch):
        integral(np.zeros(frame), stream)


# ---------------------------------------------------------------------------
# Exactness of the array rasterizer and level index against the formulas
# they replace
# ---------------------------------------------------------------------------

def ref_rasterize(config, t_us):
    """The frame on a full np.mgrid coordinate grid, one image per object."""
    yy, xx = np.mgrid[0:config.height, 0:config.width].astype(np.float64)
    img = np.full((config.height, config.width), config.background)
    for obj in config.objects:
        cx, cy = obj.position_at(t_us)
        if obj.shape == "gaussian_blob":
            img += obj.intensity * np.exp(
                -((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * obj.size ** 2))
        else:
            inside = (np.abs(xx - cx) <= obj.size) & (np.abs(yy - cy) <= obj.size)
            tex = 0.6 + 0.4 * np.sin(2 * np.pi * (xx - cx) / 4.0) \
                * np.sin(2 * np.pi * (yy - cy) / 4.0)
            img = np.where(inside, config.background + obj.intensity * tex, img)
    return img


def ref_simulate_events(video, c):
    """simulate_events with the level index built by one np.arange per
    active pixel."""
    H, W = video.frames.shape[1:]
    L = np.log(video.frames.reshape(len(video.frames), -1))
    ref = L[0].copy()
    ts_out, pix_out, pol_out = [np.zeros(0, dtype=np.int64)], \
        [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int8)]
    for j in range(len(video.frame_times) - 1):
        L0, L1 = L[j], L[j + 1]
        t0 = float(video.frame_times[j])
        t1 = float(video.frame_times[j + 1])
        slope = L1 - L0
        for sign in (1.0, -1.0):
            n = np.maximum(np.floor(sign * (L1 - ref) / c).astype(np.int64), 0)
            active = np.flatnonzero(n > 0)
            if active.size == 0:
                continue
            counts = n[active]
            pix = np.repeat(active, counts)
            k = np.concatenate([np.arange(1, m + 1) for m in counts])
            levels = ref[pix] + sign * k * c
            with np.errstate(divide="ignore", invalid="ignore"):
                tt = t0 + (levels - L0[pix]) / slope[pix] * (t1 - t0)
            tt[~np.isfinite(tt)] = t0
            ts_out.append(np.round(tt).astype(np.int64))
            pix_out.append(pix)
            pol_out.append(np.full(pix.shape, int(sign), dtype=np.int8))
            ref[active] += sign * counts * c
    t = np.clip(np.concatenate(ts_out), video.frame_times[0],
                video.frame_times[-1])
    pix = np.concatenate(pix_out)
    return EventStream(
        t=t.astype(np.uint64), x=(pix % W).astype(np.uint16),
        y=(pix // W).astype(np.uint16), p=np.concatenate(pol_out),
        width=W, height=H, t_start=int(video.frame_times[0]),
        t_end=int(video.frame_times[-1]))


def ref_ground_truth(config, times):
    """render_intensity_video's ground truth, one object and time at a time:
    a later object whose square covers an earlier object's center hides it."""
    def covers(obj, px, py, t_us):
        cx, cy = obj.position_at(t_us)
        return max(abs(px - cx), abs(py - cy)) <= obj.size

    Q, T = len(config.objects), len(times)
    positions = np.zeros((Q, T, 2))
    visibility = np.zeros((Q, T), dtype=np.int64)
    for qi, obj in enumerate(config.objects):
        for ti, t in enumerate(times):
            px, py = obj.position_at(t)
            positions[qi, ti] = (px, py)
            in_bounds = 0 <= px < config.width and 0 <= py < config.height
            occluded = any(covers(other, px, py, t)
                           for other in config.objects[qi + 1:])
            visibility[qi, ti] = int(in_bounds and not occluded)
    return positions, visibility


def assert_same_stream(got, want):
    for col in "txyp":
        assert getattr(got, col).tobytes() == getattr(want, col).tobytes(), col


# widths and heights off any SIMD lane count, and the benchmark's widths
SIDES = [1, 3, 5, 7, 17, 24, 33, 40, 64, 129, 200]


@st.composite
def scenes(draw):
    width, height = draw(st.sampled_from(SIDES)), draw(st.sampled_from(SIDES))

    def obj():
        return SceneObject(
            shape=draw(st.sampled_from(["gaussian_blob", "textured_square"])),
            position=(draw(st.floats(-8, width + 8)),
                      draw(st.floats(-8, height + 8))),
            velocity=(draw(st.floats(-80, 80)), draw(st.floats(-80, 80))),
            size=draw(st.floats(0.5, 12)), intensity=draw(st.floats(0.1, 3)))

    return SceneConfig(width=width, height=height,
                       duration_us=draw(st.integers(200_000, 400_000)),
                       fps=draw(st.sampled_from([10.0, 24.0, 30.0])),
                       objects=[obj() for _ in range(draw(st.integers(1, 3)))],
                       background=draw(st.floats(0.25, 4.0)))


@st.composite
def far_reaching_scenes(draw):
    """Objects whose support box reaches far past a few sigma: intensity
    up to 1e6 over a background down to 1e-3 (a blob then changes pixels
    out to ~10.7 sigma), sigma up to 200 px, and centers up to 300 px off
    the sensor. Sizes and intensities are log-uniform."""
    width, height = draw(st.sampled_from(SIDES)), draw(st.sampled_from(SIDES))

    def obj():
        return SceneObject(
            shape=draw(st.sampled_from(["gaussian_blob", "textured_square"])),
            position=(draw(st.floats(-300, width + 300)),
                      draw(st.floats(-300, height + 300))),
            velocity=(draw(st.floats(-80, 80)), draw(st.floats(-80, 80))),
            size=10 ** draw(st.floats(-1, 2.3)),
            intensity=10 ** draw(st.floats(-3, 6)))

    return SceneConfig(width=width, height=height, duration_us=200_000,
                       fps=10.0,
                       objects=[obj() for _ in range(draw(st.integers(1, 3)))],
                       background=10 ** draw(st.floats(-3, 3)))


@st.composite
def crossing_scenes(draw):
    """Objects that cross the sensor during the video: each enters past
    one side, leaves past the opposite one, and is 1 to 20 times brighter
    than the background, so nearly every draw moves some pixel by a
    level."""
    width, height = draw(st.sampled_from(SIDES)), draw(st.sampled_from(SIDES))
    duration_us = draw(st.integers(200_000, 400_000))
    background = draw(st.floats(0.25, 4.0))

    def obj():
        size = draw(st.floats(0.5, 12))
        ends = [[draw(st.floats(0, width)), draw(st.floats(0, height))]
                for _ in range(2)]
        axis = draw(st.integers(0, 1))
        far = (width, height)[axis] + size + 1
        ends[0][axis], ends[1][axis] = ((-size - 1, far) if draw(st.booleans())
                                        else (far, -size - 1))
        (x0, y0), (x1, y1) = ends
        seconds = duration_us / 1e6
        return SceneObject(
            shape=draw(st.sampled_from(["gaussian_blob", "textured_square"])),
            position=(x0, y0),
            velocity=((x1 - x0) / seconds, (y1 - y0) / seconds), size=size,
            intensity=background * 10 ** draw(st.floats(0, 1.3)))

    return SceneConfig(width=width, height=height, duration_us=duration_us,
                       fps=draw(st.sampled_from([10.0, 24.0, 30.0])),
                       objects=[obj() for _ in range(draw(st.integers(1, 3)))],
                       background=background)


MAX_EVENTS = 20_000


def check_video_and_events(cfg, c):
    """cfg's video equals the full-grid frames, and its stream the two
    sign passes', byte for byte."""
    video, _ = render_intensity_video(cfg)
    want = np.stack([ref_rasterize(cfg, t) for t in video.frame_times])
    assert video.frames.tobytes() == want.tobytes()
    # a pixel's events in an interval are at most |dL| / c + 1
    assume(np.abs(np.diff(np.log(video.frames), axis=0)).sum() / c
           <= MAX_EVENTS)
    got = simulate_events(video, c)
    event("events" if len(got) else "no events")
    assert_same_stream(got, ref_simulate_events(video, c))


class TestArraySimulationExactness:
    @settings(max_examples=450, deadline=None)
    @given(cfg=st.one_of(scenes(), far_reaching_scenes()),
           t_us=st.integers(0, 10**6))
    def test_rasterize_matches_full_grid(self, cfg, t_us):
        """Each object drawn on its support box alone gives the full-grid
        frame byte for byte, however bright, wide or far off the sensor."""
        out = np.empty((1, cfg.height, cfg.width))
        _rasterize(cfg, _reach(cfg), [t_us], out)
        assert out.tobytes() == ref_rasterize(cfg, t_us).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(cfg=st.one_of(scenes(), far_reaching_scenes()),
           c=st.floats(0.01, 1.0))
    def test_video_and_events_match_reference(self, cfg, c):
        """One signed count per pixel and interval gives the two sign
        passes' stream byte for byte."""
        check_video_and_events(cfg, c)

    @settings(max_examples=200, deadline=None)
    @given(cfg=crossing_scenes(), c=st.floats(0.01, 1.0))
    def test_crossing_video_and_events_match_reference(self, cfg, c):
        """The same on objects that cross the sensor, which make events in
        nearly every draw, where the scenes above make none in about half
        (--hypothesis-show-statistics gives the shares)."""
        check_video_and_events(cfg, c)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), c=st.floats(0.01, 1.0),
           t_start=st.integers(0, 10**12))
    def test_rising_and_falling_logs_match_reference(self, data, c, t_start):
        """Per-pixel logs that rise and fall across intervals, by whole
        levels and by fractions of one, on frame gaps from 1 us."""
        n = data.draw(st.integers(2, 8), label="frames")
        logs = data.draw(arrays(np.float64, (n, 2, 3),
                                elements=st.floats(-8, 14)), label="logs")
        gaps = data.draw(st.lists(st.integers(1, 10**6), min_size=n - 1,
                                  max_size=n - 1), label="gaps")
        video = IntensityVideo(frames=np.exp(logs),
                               frame_times=t_start + np.cumsum([0] + gaps))
        want = ref_simulate_events(video, c)
        assert_same_stream(simulate_events(video, c), want)
        # the same frames read in chunks, as a rendered video yields them
        cuts = sorted(data.draw(st.sets(st.integers(1, n - 1)), label="cuts"))
        chunks = zip(np.split(video.frame_times, cuts),
                     np.split(video.frames, cuts))
        assert_same_stream(simulate_events(chunks, c), want)

    @settings(max_examples=100, deadline=None)
    @given(cfg=scenes(), step=st.integers(1_000, 50_000))
    def test_ground_truth_matches_reference(self, cfg, step):
        _, gt = render_intensity_video(cfg, np.arange(0, cfg.duration_us, step))
        positions, visibility = ref_ground_truth(cfg, gt.times)
        assert gt.positions.tobytes() == positions.tobytes()
        assert gt.visibility.tobytes() == visibility.tobytes()

    @pytest.mark.parametrize("objects", [[], [
        blob(10, 10, vx=30.0),
        SceneObject("textured_square", (20, 10), (-30, 0), 4.0, 1.0),
        blob(14, 10, size=6.0)]])
    def test_ground_truth_without_objects_and_under_overlaps(self, objects):
        """A scene without objects has empty tracks; in the second scene the
        blobs and the square pass over each other, and a later object hides
        an earlier one's in-bounds center whatever its own shape."""
        cfg = SceneConfig(width=32, height=20, duration_us=1_000_000, fps=24,
                          objects=objects)
        _, gt = render_intensity_video(cfg)
        positions, visibility = ref_ground_truth(cfg, gt.times)
        assert gt.positions.shape == (len(objects), 24, 2)
        assert gt.positions.tobytes() == positions.tobytes()
        assert gt.visibility.tobytes() == visibility.tobytes()
        if objects:
            in_bounds = (gt.positions >= 0).all(axis=2) \
                & (gt.positions < (32, 20)).all(axis=2)
            hidden = in_bounds & (gt.visibility == 0)
            assert hidden[0].any() and hidden[1].any()
            assert gt.visibility[0].any() and gt.visibility[2].all()

    def test_simulate_holds_two_frames_of_logs(self):
        """One pass per interval holds two frames' logs and the sensor-wide
        temporaries of one interval, never a log table of the whole video."""
        cfg = SceneConfig(width=64, height=64, duration_us=2_000_000, fps=48,
                          objects=[blob(20, 20, vx=10.0),
                                   SceneObject("textured_square", (40, 30),
                                               (-5, 5), 6.0, 2.0)])
        video, _ = render_intensity_video(cfg)
        assert video.frames.shape == (96, 64, 64)
        tracemalloc.start()
        try:
            stream = simulate_events(video, c=0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(stream) > 1000
        assert peak < 0.25 * video.frames.nbytes

    def test_render_peaks_near_its_output(self):
        """Reading .frames renders them into one preallocated video: the
        peak is the video plus a frame's temporaries and the positivity
        mask, not the 2x of a frame list stacked at the end."""
        cfg = SceneConfig(width=64, height=48, duration_us=2_000_000, fps=48,
                          objects=[blob(20, 20, vx=10.0),
                                   SceneObject("textured_square", (40, 30),
                                               (-5, 5), 6.0, 2.0)])
        video, _ = render_intensity_video(cfg)
        tracemalloc.start()
        try:
            frames = video.frames
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * frames.nbytes
