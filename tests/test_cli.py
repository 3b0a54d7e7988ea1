import contextlib
import hashlib
import io
import json
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tapfuse import arrayio, config, synth
from tapfuse.cli import cmd_bench, cmd_simulate, main
from tapfuse.config import RunConfig, parse_run_config
from tapfuse.errors import ConfigError
from tapfuse.events import serialize_event_stream
from tapfuse.synth import IntensityVideo, render_intensity_video, simulate_events
from tapfuse.tracker import (
    QueryPoint,
    parse_track_set,
    serialize_track_set,
    track_sequence,
)
from tapfuse.weights import WeightBundle, parameter_specs, save_weights

SMALL_CONFIG = """\
# compact scene for fast end-to-end runs
scene.width = 32
scene.height = 32
scene.duration_us = 1000000
scene.fps = 24
scene.n_random_objects = 0
scene.object0 = gaussian_blob, 16, 16, 6, -4, 3, 2
timeline.query_hz = 24
timeline.frame_hz = 12
bench.n_events = 20000
"""


class TestConfigParsing:
    def test_defaults(self):
        cfg = parse_run_config("")
        assert cfg.scene_width == 64
        assert cfg.timeline_query_hz == 48.0
        assert cfg.sim_contrast == 0.2
        assert cfg.model_window == 16

    def test_overrides_and_comments(self):
        cfg = parse_run_config(SMALL_CONFIG)
        assert cfg.scene_width == 32
        assert cfg.scene_fps == 24.0
        assert len(cfg.scene_objects) == 1
        obj = cfg.scene_objects[0]
        assert obj.shape == "gaussian_blob"
        assert obj.velocity == (6.0, -4.0)

    def test_unknown_key_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_run_config("seed = 1\n\nscene.wdith = 10\n")

    def test_bad_value_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_run_config("scene.width = ten\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_run_config("seed = 1\nscene.width\n")

    def test_malformed_object_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_run_config("scene.object0 = gaussian_blob, 1, 2\n")


# every documented scalar key, the RunConfig field it sets, and its type
CONFIG_KEYS = {
    "scene.width": ("scene_width", int),
    "scene.height": ("scene_height", int),
    "scene.duration_us": ("scene_duration_us", int),
    "scene.fps": ("scene_fps", float),
    "scene.background": ("scene_background", float),
    "scene.n_random_objects": ("scene_n_random_objects", int),
    "sim.contrast": ("sim_contrast", float),
    "timeline.query_hz": ("timeline_query_hz", float),
    "timeline.frame_hz": ("timeline_frame_hz", float),
    "timeline.exposure_us": ("timeline_exposure_us", int),
    "model.d": ("model_d", int),
    "model.patch": ("model_patch", int),
    "model.radius": ("model_radius", int),
    "model.subwindows": ("model_subwindows", int),
    "model.window": ("model_window", int),
    "model.patch_radius": ("model_patch_radius", int),
    "model.iterations": ("model_iterations", int),
    "seed": ("seed", int),
    "bench.n_events": ("bench_n_events", int),
    "eval.err_threshold": ("eval_err_threshold", float),
}


class TestConfigKeyTable:
    @pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
    def test_key_sets_its_field_with_its_type(self, key):
        attr, kind = CONFIG_KEYS[key]
        cfg = parse_run_config(f"{key} = 7\n")
        value = getattr(cfg, attr)
        assert type(value) is kind
        assert value == 7
        assert getattr(RunConfig(), attr) != 7

    @pytest.mark.parametrize(
        "key", sorted(k for k, (_, kind) in CONFIG_KEYS.items() if kind is int))
    def test_int_key_rejects_fraction(self, key):
        with pytest.raises(ConfigError, match="line 1"):
            parse_run_config(f"{key} = 1.5\n")

    @pytest.mark.parametrize(
        "key", sorted(k for k in CONFIG_KEYS if k.startswith("model.")))
    def test_model_key_reaches_fusion_config(self, key):
        fc = parse_run_config(f"{key} = 7\n").fusion_config()
        assert fc == replace(RunConfig().fusion_config(),
                             **{key.removeprefix("model."): 7})

    def test_field_name_is_not_a_key(self):
        with pytest.raises(ConfigError, match="unknown key 'scene_width'"):
            parse_run_config("scene_width = 32\n")

    def test_table_holds_exactly_the_documented_keys(self):
        assert config._KEYMAP == CONFIG_KEYS


class TestTimelineDerivation:
    def test_default_cadence(self):
        tl = RunConfig().timeline()
        assert len(tl.query_times) == 96
        assert len(tl.frame_times) == 24
        assert tl.query_times[0] == 0
        assert tl.frame_times == tl.query_times[::4]

    def test_non_integer_stride_rejected(self):
        cfg = RunConfig(timeline_query_hz=48.0, timeline_frame_hz=13.0)
        with pytest.raises(ConfigError):
            cfg.timeline()


# 128x128 sensor, 256 tokens at the default patch size, 24 query steps
LARGE_CONFIG = """\
scene.width = 128
scene.height = 128
scene.duration_us = 500000
scene.fps = 48
scene.n_random_objects = 0
scene.object0 = textured_square, 40, 64, 30, -20, 10, 2
scene.object1 = gaussian_blob, 88, 60, -25, 15, 8, 2
timeline.query_hz = 48
timeline.frame_hz = 12
"""

# a W x 24 sensor, one textured square and one blob crossing it
WIDTH_CONFIG = """\
seed = {w}
scene.width = {w}
scene.height = 24
scene.duration_us = 250000
scene.fps = 48
scene.object0 = textured_square, 10.3, 11.7, 17, -9, 5.5, 2.5
scene.object1 = gaussian_blob, 13.1, 12.2, -11, 6, 3.5, 1.75
timeline.query_hz = 48
timeline.frame_hz = 12
sim.contrast = 0.05
"""

# 256x256 over a background of 1e-3: a blob of 1e6 whose center starts 6
# sigma off the left edge, so its tail changes pixels out to ~10.7 sigma,
# and a textured square straddling the right edge
FAR_BLOB_CONFIG = """\
scene.width = 256
scene.height = 256
scene.duration_us = 125000
scene.fps = 48
scene.background = 0.001
scene.n_random_objects = 0
scene.object0 = gaussian_blob, -150, 100, 400, 300, 25, 1000000
scene.object1 = textured_square, 250, 30, -40, 20, 18, 2.5
timeline.query_hz = 48
timeline.frame_hz = 12
"""


def perturbed_weights(config_text):
    """The config's seeded init with small seeded values in every zero-init
    matrix (the residual attention outputs, the refiner's MLP outputs and
    its head), so the refiner moves the tracks."""
    cfg = parse_run_config(config_text)
    bundle = WeightBundle.initialize(cfg.fusion_config(), cfg.seed)
    rng = np.random.default_rng(7)
    for name, shape, init in parameter_specs(cfg.fusion_config()):
        if init == "zeros" and len(shape) == 2:
            bundle.params[name] = rng.uniform(
                -0.2, 0.2, size=shape) / np.sqrt(shape[0])
    return bundle


def write_perturbed_weights(config_text, path):
    path.write_bytes(save_weights(perturbed_weights(config_text)))
    return path


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CONFIG)
    return path


def run_cli(args):
    return main([str(a) for a in args])


class TestSimulate:
    def test_deterministic_manifest(self, tmp_path, small_cfg, capsys):
        cfg = parse_run_config(SMALL_CONFIG)
        m1 = cmd_simulate(cfg, tmp_path / "a")
        m2 = cmd_simulate(cfg, tmp_path / "b")
        assert m1 == m2
        for name, digest in m1.items():
            fname = {"video": "video.tns", "events": "events.evbin",
                     "tracks": "tracks.txt"}[name]
            data = (tmp_path / "a" / fname).read_bytes()
            assert hashlib.sha256(data).hexdigest()[:16] == digest

    @pytest.mark.parametrize("text, manifest", [
        # the default config: two seeded random objects on 64x64
        ("", {"video": "0f6b010ae62df3c0", "events": "3eef3cb8af924a06",
              "tracks": "84803b2ca827e51b"}),
        # widths off the SIMD lane counts, both shapes at c = 0.05
        (WIDTH_CONFIG.format(w=24),
         {"video": "73fba71c3369e809", "events": "bf530ea6100ca6a8",
          "tracks": "74f6e76fd18655b5"}),
        (WIDTH_CONFIG.format(w=40),
         {"video": "1a6041042bde2294", "events": "26ea07be755d6d9d",
          "tracks": "c2252ec17b467549"}),
        (WIDTH_CONFIG.format(w=200),
         {"video": "e9fa049ded666ccb", "events": "4f7860305e7110bb",
          "tracks": "31f101e2afefd314"}),
        (FAR_BLOB_CONFIG,
         {"video": "956438dffdbbb472", "events": "d4202a6d5306f514",
          "tracks": "cc9dde608872aa9c"}),
    ], ids=["default", "w24", "w40", "w200", "far_blob"])
    def test_golden_manifest(self, tmp_path, capsys, text, manifest):
        """Video, events and ground truth byte for byte, as the per-frame
        np.mgrid rasterizer and the per-pixel level index wrote them."""
        assert cmd_simulate(parse_run_config(text).validate(),
                            tmp_path) == manifest

    def test_seed_changes_output(self, tmp_path):
        cfg = parse_run_config(SMALL_CONFIG + "scene.n_random_objects = 1\n")
        m1 = cmd_simulate(cfg, tmp_path / "a")
        cfg.seed = 1
        m2 = cmd_simulate(cfg, tmp_path / "b")
        assert m1 != m2

    def test_cli_entry_and_outputs(self, tmp_path, small_cfg, capsys):
        rc = run_cli(["--config", small_cfg, "--out", tmp_path / "out",
                      "simulate"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("simulate ")
        video = arrayio.read_array((tmp_path / "out" / "video.tns").read_bytes())
        assert video.shape == (24, 32, 32)
        gt = parse_track_set((tmp_path / "out" / "tracks.txt").read_bytes())
        assert gt.positions.shape[1] == 24


def scene_text(width, height, n_frames, fps=48, objects=(), contrast=0.2):
    """A config of n_frames rendered frames, a query step per frame and a
    frame step every fourth."""
    lines = [f"scene.width = {width}", f"scene.height = {height}",
             f"scene.duration_us = {round(n_frames * 1e6 / fps)}",
             f"scene.fps = {fps}", "scene.n_random_objects = 0",
             f"timeline.query_hz = {fps}", f"timeline.frame_hz = {fps / 4}",
             f"sim.contrast = {contrast}"]
    lines += [f"scene.object{i} = {obj}" for i, obj in enumerate(objects)]
    return "\n".join(lines) + "\n"


def sha16(data):
    return hashlib.sha256(data).hexdigest()[:16]


def library_manifest(cfg):
    """cmd_simulate's outputs made the library way: the whole video
    rendered at once and simulated as one chunk."""
    scene = cfg.scene_config(np.random.default_rng(cfg.seed))
    video, gt = render_intensity_video(
        scene, query_times=cfg.timeline().query_times)
    whole = IntensityVideo(video.frames, video.frame_times)
    stream = simulate_events(whole, cfg.sim_contrast)
    return {"video": sha16(arrayio.write_array(whole.frames)),
            "events": sha16(serialize_event_stream(stream, "evbin")),
            "tracks": sha16(serialize_track_set(gt))}


def streamed_manifest(cfg, out):
    with contextlib.redirect_stdout(io.StringIO()):
        return cmd_simulate(cfg, out)


MOVERS = ("gaussian_blob, 20, 30, 40, -25, 4, 2",
          "textured_square, 40, 20, -30, 35, 6, 1.5")


class TestStreamedSimulate:
    """simulate renders, writes and simulates a chunk of frames at a time;
    its files must equal the whole-video library path byte for byte."""

    # a 64x64 frame is 32 KiB: one chunk holds 64 of them
    CHUNK = synth._CHUNK_BYTES // (8 * 64 * 64)

    @pytest.mark.parametrize("n_frames", [2, CHUNK - 1, CHUNK, CHUNK + 1],
                             ids=["two", "chunk-1", "chunk", "chunk+1"])
    def test_chunk_boundaries_equal_the_library_path(self, tmp_path, n_frames):
        cfg = parse_run_config(scene_text(64, 64, n_frames,
                                          objects=MOVERS)).validate()
        assert streamed_manifest(cfg, tmp_path) == library_manifest(cfg)

    def test_frame_larger_than_a_chunk(self, tmp_path):
        """A 520x512 frame is 2.03 MiB, more than a chunk's bytes: each
        chunk then holds one frame."""
        cfg = parse_run_config(scene_text(
            520, 512, 3, objects=["gaussian_blob, 100, 300, 400, -300, 6, 2",
                                  "textured_square, 400, 100, 0, 0, 9, 1"])
        ).validate()
        assert 8 * 520 * 512 > synth._CHUNK_BYTES
        assert streamed_manifest(cfg, tmp_path) == library_manifest(cfg)

    @settings(max_examples=40, deadline=None)
    @given(width=st.sampled_from([8, 24, 40]),
           height=st.sampled_from([8, 16, 56]),
           n_frames=st.integers(2, 13), fps=st.sampled_from([24, 48, 96]),
           objects=st.lists(st.sampled_from(MOVERS + (
               "gaussian_blob, 3, 5, 90, 60, 2.5, 2.5",
               "textured_square, 6, 4, 15, 9, 3.5, 0.5")), max_size=3),
           contrast=st.sampled_from([0.05, 0.2]),
           chunk_frames=st.integers(1, 6))
    def test_streamed_equals_library_path(self, width, height, n_frames,
                                          fps, objects, contrast,
                                          chunk_frames):
        cfg = parse_run_config(scene_text(width, height, n_frames, fps,
                                          objects, contrast))
        chunk_bytes = chunk_frames * 8 * width * height
        with tempfile.TemporaryDirectory() as out, \
                mock.patch.object(synth, "_CHUNK_BYTES", chunk_bytes):
            assert streamed_manifest(cfg, Path(out)) == library_manifest(cfg)

    @pytest.mark.parametrize("value, code", [(np.nan, 3), (np.inf, 4)],
                             ids=["nan", "inf"])
    def test_bad_last_frame_leaves_the_outputs_as_they_were(
            self, tmp_path, small_cfg, monkeypatch, capsys, value, code):
        """The last chunk fails simulate_events' checks after the earlier
        chunks were written: video.tns, events and tracks keep their bytes,
        and no temporary file remains."""
        out = tmp_path / "sim"
        assert run_cli(["--config", small_cfg, "--out", out, "simulate"]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        cfg = parse_run_config(SMALL_CONFIG)
        scene = cfg.scene_config(np.random.default_rng(cfg.seed))
        video, _ = render_intensity_video(scene)
        last = video.frame_times[-1]
        rasterize = synth._rasterize

        def poisoned(config, reach, times, frames):
            rasterize(config, reach, times, frames)
            if times[-1] == last:
                frames[-1, 3, 5] = value

        # 24 frames of 32x32 in chunks of 5
        monkeypatch.setattr(synth, "_CHUNK_BYTES", 5 * 8 * 32 * 32)
        monkeypatch.setattr(synth, "_rasterize", poisoned)
        capsys.readouterr()
        assert run_cli(["--config", small_cfg, "--out", out,
                        "simulate"]) == code
        assert "intensity must be" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_peak_memory_does_not_grow_with_duration(self, tmp_path):
        """A 128x128 video of 4 s holds 24 MiB of frames; simulate's peak
        stays near that of 0.5 s, and under a quarter of the video."""
        def peak(n_frames):
            cfg = parse_run_config(scene_text(
                128, 128, n_frames,
                objects=["gaussian_blob, 40, 60, 3, 2, 5, 2"])).validate()
            tracemalloc.start()
            try:
                streamed_manifest(cfg, tmp_path / str(n_frames))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak(24), peak(192)
        assert long <= 1.25 * short
        assert long < 0.25 * 192 * 128 * 128 * 8


class TestTrack:
    def run_pipeline(self, tmp_path, small_cfg):
        out = tmp_path / "sim"
        assert run_cli(["--config", small_cfg, "--out", out, "simulate"]) == 0
        trk = tmp_path / "trk"
        rc = run_cli(["--config", small_cfg, "--out", trk, "track",
                      "--stream", out / "events.evbin",
                      "--frames", out / "video.tns",
                      "--query", "0,16,16", "--query", "0,10,20"])
        return rc, trk / "tracks.txt"

    def test_zero_init_tracks_are_constant(self, tmp_path, small_cfg, capsys):
        rc, path = self.run_pipeline(tmp_path, small_cfg)
        assert rc == 0
        tracks = parse_track_set(path.read_bytes())
        assert tracks.positions.shape == (2, 24, 2)
        np.testing.assert_array_equal(tracks.positions[0, :, 0], 16.0)
        np.testing.assert_array_equal(tracks.positions[1, :, 1], 20.0)
        assert tracks.visibility.all()

    def test_reruns_bit_identical(self, tmp_path, small_cfg, capsys):
        _, p1 = self.run_pipeline(tmp_path / "r1", self._cfg(tmp_path / "r1"))
        _, p2 = self.run_pipeline(tmp_path / "r2", self._cfg(tmp_path / "r2"))
        assert p1.read_bytes() == p2.read_bytes()

    @staticmethod
    def _cfg(base):
        base.mkdir(parents=True, exist_ok=True)
        path = base / "run.cfg"
        path.write_text(SMALL_CONFIG)
        return path

    def test_missing_stream_is_data_error(self, tmp_path, small_cfg, capsys):
        rc = run_cli(["--config", small_cfg, "--out", tmp_path, "track",
                      "--stream", tmp_path / "nope.evbin",
                      "--frames", tmp_path / "nope.tns"])
        assert rc == 3

    def test_truncated_frames_is_data_error(self, tmp_path, small_cfg, capsys):
        out = tmp_path / "sim"
        assert run_cli(["--config", small_cfg, "--out", out, "simulate"]) == 0
        cut = tmp_path / "cut.tns"
        cut.write_bytes((out / "video.tns").read_bytes()[:10])
        rc = run_cli(["--config", small_cfg, "--out", tmp_path / "trk",
                      "track", "--stream", out / "events.evbin",
                      "--frames", cut, "--query", "0,16,16"])
        assert rc == 3

    @pytest.mark.parametrize("edit", [
        lambda data, video: b"TNS2" + data[4:],
        lambda data, video: data[:-1],
        lambda data, video: data + b"\x00",
        lambda data, video: arrayio.write_array(video[0]),
        lambda data, video: arrayio.write_array(video[:-2]),
    ], ids=["bad_magic", "payload_byte_short", "trailing_byte", "rank_2",
            "short_video"])
    def test_bad_frames_file_is_data_error(self, tmp_path, small_cfg, capsys,
                                           edit):
        out = tmp_path / "sim"
        assert run_cli(["--config", small_cfg, "--out", out, "simulate"]) == 0
        data = (out / "video.tns").read_bytes()
        bad = tmp_path / "bad.tns"
        bad.write_bytes(edit(data, arrayio.read_array(data)))
        rc = run_cli(["--config", small_cfg, "--out", tmp_path / "trk",
                      "track", "--stream", out / "events.evbin",
                      "--frames", bad, "--query", "0,16,16"])
        assert rc == 3
        assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "trk" / "tracks.txt").exists()

    def test_non_finite_frame_is_data_error_naming_it(self, tmp_path,
                                                      small_cfg, capsys):
        """A NaN in one tracked frame of video.tns is bad input: exit 3,
        naming the frame, and no tracks file."""
        out = tmp_path / "sim"
        assert run_cli(["--config", small_cfg, "--out", out, "simulate"]) == 0
        video = arrayio.read_array((out / "video.tns").read_bytes())
        index = parse_run_config(SMALL_CONFIG).frame_indices()[1]
        video[index, 3, 5] = np.nan
        bad = tmp_path / "nan.tns"
        bad.write_bytes(arrayio.write_array(video))
        capsys.readouterr()
        rc = run_cli(["--config", small_cfg, "--out", tmp_path / "trk",
                      "track", "--stream", out / "events.evbin",
                      "--frames", bad, "--query", "0,16,16"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "data error" in err and f"frame {index} " in err
        assert not (tmp_path / "trk" / "tracks.txt").exists()

    @pytest.mark.parametrize("stream_side, frame_side", [(32, 64), (64, 32)])
    def test_frames_off_the_event_sensor_exit_4(self, tmp_path, small_cfg,
                                                capsys, stream_side,
                                                frame_side):
        """Events from one sensor size and frames from another: either way
        round is a contract violation naming both sizes, and no tracks."""
        sims = {}
        for side in (32, 64):
            cfg = tmp_path / f"run{side}.cfg"
            cfg.write_text(SMALL_CONFIG.replace("= 32", f"= {side}"))
            sims[side] = tmp_path / f"sim{side}"
            assert run_cli(["--config", cfg, "--out", sims[side],
                            "simulate"]) == 0
        capsys.readouterr()
        rc = run_cli(["--config", small_cfg, "--out", tmp_path / "trk",
                      "track", "--stream", sims[stream_side] / "events.evbin",
                      "--frames", sims[frame_side] / "video.tns",
                      "--query", "0,16,16"])
        assert rc == 4
        err = capsys.readouterr().err
        assert (f"{frame_side}x{frame_side} frames against a "
                f"{stream_side}x{stream_side} event sensor") in err
        assert not (tmp_path / "trk" / "tracks.txt").exists()

    def test_odd_model_width_runs(self, tmp_path, capsys):
        base = tmp_path / "odd"
        base.mkdir()
        cfg = base / "run.cfg"
        cfg.write_text(SMALL_CONFIG + "model.d = 63\n")
        rc, path = self.run_pipeline(base, cfg)
        assert rc == 0
        tracks = parse_track_set(path.read_bytes())
        assert tracks.positions.shape == (2, 24, 2)

    def test_golden_tracks_with_perturbed_weights(self, tmp_path, small_cfg,
                                                  capsys):
        """simulate -> track with perturbed weights, so the refiner moves
        the tracks; the second query starts mid-window. The digest pins the
        tracks file byte for byte."""
        weights = write_perturbed_weights(SMALL_CONFIG,
                                          tmp_path / "perturbed.tfw")
        out = tmp_path / "sim"
        assert run_cli(["--config", small_cfg, "--out", out, "simulate"]) == 0
        assert run_cli(["--config", small_cfg, "--out", tmp_path / "trk",
                        "track", "--stream", out / "events.evbin",
                        "--frames", out / "video.tns", "--weights", weights,
                        "--query", "0,16,16", "--query", "208333,14,18"]) == 0
        data = (tmp_path / "trk" / "tracks.txt").read_bytes()
        tracks = parse_track_set(data)
        # query 1 starts at step 5 of the first 16-step window
        assert not tracks.visibility[1, :5].any()
        assert np.all(tracks.positions[:, -1] != [[16, 16], [14, 18]])
        assert hashlib.sha256(data).hexdigest()[:16] == "ffeba7e180c66cd8"

    def test_perturbed_tracks_in_memory_to_the_last_bit(self):
        """The run of test_golden_tracks_with_perturbed_weights without the
        files, pinned on the float64 arrays: the tracks file keeps 9
        significant digits, so it cannot show a last-bit change in the
        refiner."""
        cfg = parse_run_config(SMALL_CONFIG).validate()
        timeline = cfg.timeline()
        video, _ = render_intensity_video(
            cfg.scene_config(np.random.default_rng(cfg.seed)),
            query_times=timeline.query_times)
        stream = simulate_events(video, cfg.sim_contrast)
        queries = [QueryPoint(0, 16.0, 16.0), QueryPoint(208333, 14.0, 18.0)]
        tracks = track_sequence(video.frames[cfg.frame_indices()], stream,
                                timeline, queries,
                                perturbed_weights(SMALL_CONFIG))
        assert hashlib.sha256(tracks.positions.tobytes()).hexdigest() == (
            "065f081d00491fb990787a110421be14618bb9db151ab1829c8f4eb8759b2e37")
        assert hashlib.sha256(tracks.visibility.tobytes()).hexdigest() == (
            "961812259bbd85bdf3acad666148901c0465dc8beac9771a746bee1c5825960d")

    def test_golden_tracks_at_256_tokens(self, tmp_path, capsys):
        """The perturbed-weights digest on a 128x128 sensor: 256 tokens, a
        size at which BLAS may pick other kernels for taf_update's attention
        and the decoder's products than it does at 16 tokens."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(LARGE_CONFIG)
        weights = write_perturbed_weights(LARGE_CONFIG,
                                          tmp_path / "perturbed.tfw")
        out = tmp_path / "sim"
        assert run_cli(["--config", cfg, "--out", out, "simulate"]) == 0
        assert run_cli(["--config", cfg, "--out", tmp_path / "trk",
                        "track", "--stream", out / "events.evbin",
                        "--frames", out / "video.tns", "--weights", weights,
                        "--query", "0,40,64",
                        "--query", "41667,88.5,60.25"]) == 0
        data = (tmp_path / "trk" / "tracks.txt").read_bytes()
        tracks = parse_track_set(data)
        assert tracks.positions.shape == (2, 24, 2)
        assert np.all(tracks.positions[:, -1] != [[40, 64], [88.5, 60.25]])
        assert hashlib.sha256(data).hexdigest()[:16] == "480d584cac3a4061"

    def test_golden_tracks_on_the_border_and_mid_window(self, tmp_path,
                                                        small_cfg, capsys):
        """Perturbed weights and six queries: on the sensor's corners and
        edges, just outside it, and starting mid-way through the first and
        the second window. Most of their taps fall on or beyond the border
        at every pyramid level, so the digest pins how border taps are
        weighted and clamped."""
        weights = write_perturbed_weights(SMALL_CONFIG,
                                          tmp_path / "perturbed.tfw")
        out = tmp_path / "sim"
        assert run_cli(["--config", small_cfg, "--out", out, "simulate"]) == 0
        queries = ["0,0,0", "0,31.5,16", "0,32,32", "208333,0,31",
                   "500000,16,0", "833333,-0.5,20"]
        assert run_cli(["--config", small_cfg, "--out", tmp_path / "trk",
                        "track", "--stream", out / "events.evbin",
                        "--frames", out / "video.tns", "--weights", weights,
                        *[a for q in queries for a in ("--query", q)]]) == 0
        data = (tmp_path / "trk" / "tracks.txt").read_bytes()
        tracks = parse_track_set(data)
        # steps 5, 12 and 20: mid first window, mid second, second's end
        for qi, start in ((3, 5), (4, 12), (5, 20)):
            assert not tracks.visibility[qi, :start].any()
        assert hashlib.sha256(data).hexdigest()[:16] == "7406725dd00813e7"

    def test_overflowing_weights_exit_4_without_a_tracks_file(
            self, tmp_path, small_cfg, capsys):
        """A finite but huge decoder weight overflows the refiner's first
        correlation: the run stops there, a contract violation that names
        the function chain, the window and the query, with no numpy
        warning (one would raise here) and no tracks file."""
        cfg = parse_run_config(SMALL_CONFIG)
        bundle = WeightBundle.initialize(cfg.fusion_config(), cfg.seed)
        bundle.params["dec.w1"][0, 0] = 1e300
        weights = tmp_path / "huge.tfw"
        weights.write_bytes(save_weights(bundle))
        out = tmp_path / "sim"
        assert run_cli(["--config", small_cfg, "--out", out, "simulate"]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = run_cli(["--config", small_cfg, "--out", tmp_path / "trk",
                          "track", "--stream", out / "events.evbin",
                          "--frames", out / "video.tns", "--weights", weights,
                          "--query", "0,16,16"])
        assert rc == 4
        assert capsys.readouterr().err == (
            "contract violation: overflow encountered in matmul at "
            "refine_track > correlation_features, window steps 0..15, "
            "queries [0]\n")
        assert not (tmp_path / "trk" / "tracks.txt").exists()


class TestEval:
    def test_file_against_itself_scores_one(self, tmp_path, small_cfg, capsys):
        out = tmp_path / "sim"
        run_cli(["--config", small_cfg, "--out", out, "simulate"])
        rc = run_cli(["--config", small_cfg, "--out", tmp_path / "ev", "eval",
                      "--pred", out / "tracks.txt", "--ref", out / "tracks.txt"])
        assert rc == 0
        report = json.loads((tmp_path / "ev" / "metrics.json").read_text())
        assert report["aj"] == 1.0
        assert report["delta_avg_vis"] == 1.0
        assert report["oa"] == 1.0
        assert (tmp_path / "ev" / "metrics.csv").exists()

    def test_zero_tracks_write_strict_json(self, tmp_path, capsys):
        """No objects and no --query: the metrics that average over tracks
        are undefined and written as null, never as NaN."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(line for line in SMALL_CONFIG.split("\n")
                                 if not line.startswith("scene.object")))
        sim, trk, ev = tmp_path / "sim", tmp_path / "trk", tmp_path / "ev"
        assert run_cli(["--config", cfg, "--out", sim, "simulate"]) == 0
        assert run_cli(["--config", cfg, "--out", trk, "track",
                        "--stream", sim / "events.evbin",
                        "--frames", sim / "video.tns"]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["--config", cfg, "--out", ev, "eval",
                            "--pred", trk / "tracks.txt",
                            "--ref", sim / "tracks.txt"]) == 0

        def reject(constant):
            raise AssertionError(f"{constant} in metrics.json")

        report = json.loads((ev / "metrics.json").read_text(),
                            parse_constant=reject)
        assert report["oa"] is None and report["efa"] is None
        assert "auc_v" not in report and report["per_track"] == []
        # no tracks, no score: none of them reads as perfect or as failed
        for key in ("aj", "delta_avg_vis", "fa"):
            assert report[key] is None, key
        assert report["per_threshold"] and all(
            value is None for row in report["per_threshold"].values()
            for value in row.values())

    def test_grid_mismatch_is_contract_error(self, tmp_path, small_cfg, capsys):
        out = tmp_path / "sim"
        run_cli(["--config", small_cfg, "--out", out, "simulate"])
        pred = out / "tracks.txt"
        short = tmp_path / "short.txt"
        lines = pred.read_text().strip().split("\n")
        short.write_text("# queries=1 steps=1\n0,1,1,1\n")
        rc = run_cli(["--config", small_cfg, "--out", tmp_path / "ev", "eval",
                      "--pred", pred, "--ref", short])
        assert rc == 4
        assert len(lines) == 25

    @pytest.mark.parametrize("data", [
        b"# queries=x steps=1\n0,1,1,1\n",
        b"# queries=1\n0,1,1,1\n",
        b"\xff\xfe",
    ])
    def test_malformed_tracks_is_contract_error(self, tmp_path, small_cfg,
                                                 capsys, data):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(data)
        rc = run_cli(["--config", small_cfg, "--out", tmp_path / "ev", "eval",
                      "--pred", bad, "--ref", bad])
        assert rc == 4
        assert "contract violation" in capsys.readouterr().err

    def test_bad_config_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("scene.nope = 1\n")
        rc = run_cli(["--config", bad, "--out", tmp_path, "simulate"])
        assert rc == 2


class TestBenchAndRepr:
    def test_bench_schema(self, capsys):
        cfg = parse_run_config(SMALL_CONFIG)
        report = cmd_bench(cfg)
        assert set(report) == {"events_per_s", "steps_per_s", "n_events"}
        assert set(report["events_per_s"]) == {
            "parse", "serialize", "bin", "time_surface", "count_image",
            "voxel_grid"}
        assert set(report["steps_per_s"]) == {"taf_update"}
        assert report["n_events"] == 20000
        assert all(v > 0 for v in report["events_per_s"].values())

    def test_repr_writes_tensor(self, tmp_path, small_cfg, capsys):
        out = tmp_path / "sim"
        run_cli(["--config", small_cfg, "--out", out, "simulate"])
        rc = run_cli(["--config", small_cfg, "--out", tmp_path / "r", "repr",
                      "--stream", out / "events.evbin", "--bin", "3",
                      "--kind", "voxel_grid"])
        assert rc == 0
        tensor = arrayio.read_array((tmp_path / "r" / "tensor.tns").read_bytes())
        assert tensor.shape == (32, 32, 5)

    def test_repr_default_bin_runs(self, tmp_path, small_cfg, capsys):
        out = tmp_path / "sim"
        run_cli(["--config", small_cfg, "--out", out, "simulate"])
        rc = run_cli(["--config", small_cfg, "--out", tmp_path / "r", "repr",
                      "--stream", out / "events.evbin"])
        assert rc == 0
        tensor = arrayio.read_array((tmp_path / "r" / "tensor.tns").read_bytes())
        assert tensor.shape == (32, 32, 5)

    def test_unknown_kind_is_config_error(self, tmp_path, small_cfg, capsys):
        out = tmp_path / "sim"
        run_cli(["--config", small_cfg, "--out", out, "simulate"])
        rc = run_cli(["--config", small_cfg, "--out", tmp_path / "r", "repr",
                      "--stream", out / "events.evbin", "--kind", "nope"])
        assert rc == 2


class TestMalformedInputFiles:
    """Inputs that once escaped as tracebacks exit with a data error."""

    def simulate(self, tmp_path, small_cfg):
        out = tmp_path / "sim"
        assert run_cli(["--config", small_cfg, "--out", out, "simulate"]) == 0
        return out

    @pytest.mark.parametrize("record", [b"5,70000,1,1",
                                        b"18446744073709551616,1,1,1"])
    def test_csv_field_beyond_its_column_is_data_error(self, tmp_path,
                                                       small_cfg, record,
                                                       capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"# width=32 height=32 t_start=0 t_end=1000000\n"
                        + record + b"\n")
        rc = run_cli(["--config", small_cfg, "--out", tmp_path / "r", "repr",
                      "--stream", bad])
        assert rc == 3
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("header, message", [
        (b"width=32 height=32 t_start=-5 t_end=1000000",
         "t_start = -5 is outside its domain 0..18446744073709551615"),
        (b"width=32 height=32 t_start=0 t_end=18446744073709551616",
         "t_end = 18446744073709551616 is outside its domain "
         "0..18446744073709551615"),
        (b"width=-3 height=32 t_start=0 t_end=1000000",
         "width = -3 is outside its domain 1..65536"),
        (b"width=32 height=4294967296 t_start=0 t_end=1000000",
         "height = 4294967296 is outside its domain 1..65536")])
    def test_csv_header_outside_its_range_is_data_error(
            self, tmp_path, small_cfg, header, message, capsys):
        out = self.simulate(tmp_path, small_cfg)
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"# " + header + b"\n5,1,1,1\n")
        rc = run_cli(["--config", small_cfg, "--out", tmp_path / "trk",
                      "track", "--stream", bad, "--frames", out / "video.tns",
                      "--query", "0,16,16"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "data error" in err and message in err
        assert not (tmp_path / "trk" / "tracks.txt").exists()

    def test_csv_stream_runs_repr(self, tmp_path, small_cfg, capsys):
        out = tmp_path / "sim"
        assert run_cli(["--config", small_cfg, "--out", out, "--format", "csv",
                        "simulate"]) == 0
        rc = run_cli(["--config", small_cfg, "--out", tmp_path / "r", "repr",
                      "--stream", out / "events.csv"])
        assert rc == 0

    @pytest.mark.parametrize("blob", [b"", b"TF", b"XXXX" + b"\x00" * 16])
    def test_bad_weights_magic_is_data_error(self, tmp_path, small_cfg, blob,
                                             capsys):
        out = self.simulate(tmp_path, small_cfg)
        bad = tmp_path / "bad.tfw"
        bad.write_bytes(blob)
        rc = run_cli(["--config", small_cfg, "--out", tmp_path / "trk",
                      "track", "--stream", out / "events.evbin",
                      "--frames", out / "video.tns", "--weights", bad,
                      "--query", "0,16,16"])
        assert rc == 3
        assert "bad weights magic" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["phi_e.w", "tattn.wq", "dec.w2",
                                      "ref.head.w"])
    def test_non_finite_weight_is_data_error(self, tmp_path, small_cfg, name,
                                             capsys):
        out = self.simulate(tmp_path, small_cfg)
        cfg = parse_run_config(SMALL_CONFIG)
        bundle = WeightBundle.initialize(cfg.fusion_config(), cfg.seed)
        bundle.params[name].flat[1] = np.nan
        bad = tmp_path / "nan.tfw"
        bad.write_bytes(save_weights(bundle))
        rc = run_cli(["--config", small_cfg, "--out", tmp_path / "trk",
                      "track", "--stream", out / "events.evbin",
                      "--frames", out / "video.tns", "--weights", bad,
                      "--query", "0,16,16"])
        assert rc == 3
        assert name in capsys.readouterr().err
        assert not (tmp_path / "trk" / "tracks.txt").exists()

    @pytest.mark.parametrize("keep", [10, 20, 100, 0.5])
    def test_truncated_weights_is_data_error(self, tmp_path, small_cfg, keep,
                                             capsys):
        out = self.simulate(tmp_path, small_cfg)
        cfg = parse_run_config(SMALL_CONFIG)
        blob = save_weights(WeightBundle.initialize(cfg.fusion_config(),
                                                    cfg.seed))
        cut = tmp_path / "cut.tfw"
        cut.write_bytes(blob[:int(len(blob) * keep) if isinstance(keep, float)
                             else keep])
        rc = run_cli(["--config", small_cfg, "--out", tmp_path / "trk",
                      "track", "--stream", out / "events.evbin",
                      "--frames", out / "video.tns", "--weights", cut,
                      "--query", "0,16,16"])
        assert rc == 3
