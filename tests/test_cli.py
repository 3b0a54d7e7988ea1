import hashlib
import json

import numpy as np
import pytest

from tapfuse import arrayio
from tapfuse.cli import cmd_bench, cmd_simulate, main
from tapfuse.config import RunConfig, parse_run_config
from tapfuse.errors import ConfigError
from tapfuse.tracker import parse_track_set

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

    def test_odd_model_width_runs(self, tmp_path, capsys):
        base = tmp_path / "odd"
        base.mkdir()
        cfg = base / "run.cfg"
        cfg.write_text(SMALL_CONFIG + "model.d = 63\n")
        rc, path = self.run_pipeline(base, cfg)
        assert rc == 0
        tracks = parse_track_set(path.read_bytes())
        assert tracks.positions.shape == (2, 24, 2)


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

    def test_bad_config_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("scene.nope = 1\n")
        rc = run_cli(["--config", bad, "--out", tmp_path, "simulate"])
        assert rc == 2


class TestBenchAndRepr:
    def test_bench_schema(self, capsys):
        cfg = parse_run_config(SMALL_CONFIG)
        report = cmd_bench(cfg)
        assert set(report) == {"events_per_s", "steps_per_s", "n_events",
                               "threads"}
        assert set(report["events_per_s"]) == {"parse", "bin", "time_surface",
                                               "count_image", "voxel_grid"}
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
