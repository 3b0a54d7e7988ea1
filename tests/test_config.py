"""Declared config domains, the rules between keys, and exit 2 for every
config or CLI argument they reject."""

import contextlib
import io
import math
import re
import sys
import tempfile
import types
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tapfuse.cli import _parse_thresholds, build_parser, main
from tapfuse.config import (
    DOMAINS,
    RunConfig,
    _KEYMAP,
    load_run_config,
    parse_run_config,
)
from tapfuse.errors import ConfigError
from tapfuse.metrics import DEFAULT_AGE_THRESHOLD, DEFAULT_THRESHOLDS
from tapfuse.synth import (
    CONTRAST_DOMAIN,
    DEFAULT_CONTRAST,
    OBJECT_DOMAINS,
    SceneConfig,
)
from tapfuse.weights import FUSION_DOMAINS, SEED_DOMAIN, FusionConfig

from test_cli import SMALL_CONFIG, run_cli

README = Path(__file__).resolve().parents[1] / "README.md"


class TestDomains:
    def test_every_key_has_a_domain_holding_its_default(self):
        assert set(DOMAINS) == set(_KEYMAP)
        defaults = RunConfig()
        for key, (attr, _) in _KEYMAP.items():
            assert getattr(defaults, attr) in DOMAINS[key], key
        assert defaults.validate() is defaults

    def test_library_defaults_and_floors_have_one_owner(self):
        """The model.* keys, the contrast, the background and the eval
        thresholds restate nothing: each reads its library declaration."""
        defaults = RunConfig()
        assert defaults.fusion_config() == FusionConfig()
        for key, domain in DOMAINS.items():
            if key.startswith("model."):
                name = key.removeprefix("model.")
                assert domain is FUSION_DOMAINS[name], key
        eval_args = build_parser().parse_args(["eval", "--pred", "p",
                                               "--ref", "r"])
        assert _parse_thresholds(eval_args.thresholds) == DEFAULT_THRESHOLDS
        assert defaults.sim_contrast == DEFAULT_CONTRAST
        assert defaults.scene_background == SceneConfig.background
        assert defaults.eval_err_threshold == DEFAULT_AGE_THRESHOLD

    def test_fusion_config_is_exactly_the_model_keys(self):
        """A FusionConfig field that no model.* key sets is a knob only a
        library caller could turn; the fixed widths live in weights.py."""
        model = {f.name.removeprefix("model_") for f in fields(RunConfig)
                 if f.name.startswith("model_")}
        assert {f.name for f in fields(FusionConfig)} == model

    def test_contrast_and_seed_domains_have_one_owner(self):
        """sim.contrast's domain is the simulator's, and seed's is the
        weight initializer's; each prints as the README's table does."""
        assert DOMAINS["sim.contrast"] is CONTRAST_DOMAIN
        assert DOMAINS["seed"] is SEED_DOMAIN
        assert ((str(CONTRAST_DOMAIN), str(SEED_DOMAIN))
                == ("0.01..1e+06", ">= 0"))

    @pytest.mark.parametrize("value, inside", [
        (1, True), (65536, True), (0, False), (65537, False)])
    def test_closed_range(self, value, inside):
        assert (value in DOMAINS["scene.width"]) is inside

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_open_bound_and_non_finite_floats_are_outside(self, value):
        assert value not in DOMAINS["sim.contrast"]

    def test_parse_is_pure_and_load_validates(self, tmp_path):
        cfg = parse_run_config("model.window = 0\n")
        assert cfg.model_window == 0
        with pytest.raises(ConfigError, match="model.window"):
            cfg.validate()
        path = tmp_path / "run.cfg"
        path.write_text("model.window = 0\n")
        with pytest.raises(ConfigError, match="model.window"):
            load_run_config(path)

    def test_non_utf8_config_is_config_error(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"seed = 1 # \xff\n")
        with pytest.raises(ConfigError, match="cannot read"):
            load_run_config(path)


class TestRulesBetweenKeys:
    @pytest.mark.parametrize("extra, key", [
        ("timeline.frame_hz = 10", "timeline.query_hz"),
        ("timeline.frame_hz = 48", "timeline.query_hz"),
        ("scene.fps = 12", "scene.fps"),
        ("scene.height = 36", "scene.height"),
        ("scene.height = 65544", "scene.height"),
        ("scene.duration_us = 10000", "scene.duration_us"),
        # one query step, one rendered frame
        ("scene.duration_us = 41667", "scene.duration_us"),
        ("scene.n_random_objects = 1\nscene.width = 16", "scene.n_random_objects"),
        ("scene.object1 = blob, 1, 2, 0, 0, 3, 2", "scene.object"),
        ("scene.object1 = gaussian_blob, 1, 2, 0, 0, 0, 2", "scene.object"),
        ("scene.object1 = gaussian_blob, nan, 2, 0, 0, 3, 2", "scene.object"),
        ("scene.object1 = gaussian_blob, 1, 2, inf, 0, 3, 2", "scene.object"),
    ])
    def test_rule_names_its_key(self, extra, key):
        cfg = parse_run_config(SMALL_CONFIG + extra + "\n")
        with pytest.raises(ConfigError, match=re.escape(key)):
            cfg.validate()

    def test_frame_indices_follow_the_rendered_rate(self):
        assert RunConfig().frame_indices() == range(0, 96, 4)
        cfg = parse_run_config(SMALL_CONFIG + "scene.fps = 72\n").validate()
        # 3 rendered frames per query step, a frame every 2nd query step
        assert cfg.frame_indices() == range(0, 72, 6)
        assert len(cfg.frame_indices()) == len(cfg.timeline().frame_times)


# the configs that used to crash, exit 3 or 4, or wrap event coordinates
BAD_CONFIGS = [
    "model.window = 0",
    "model.window = 1",
    "model.patch_radius = -1",
    "model.subwindows = 0",
    "model.d = 0",
    "model.patch = 5",
    "model.iterations = 0",
    "model.radius = -1",
    "sim.contrast = 0",
    "timeline.exposure_us = -1",
    "scene.width = 0",
    "scene.width = 70000",
    "scene.fps = 0",
    "timeline.query_hz = 24\nscene.fps = 36",
    "scene.background = 0",
    "seed = -1",
]


def command_args(command, cfg, out):
    args = ["--config", cfg, "--out", out, command]
    if command == "track":
        args += ["--stream", out / "events.evbin", "--frames",
                 out / "video.tns", "--query", "0,16,16"]
    return args


@pytest.mark.parametrize("command", ["simulate", "track"])
@pytest.mark.parametrize("extra", BAD_CONFIGS)
def test_bad_config_exits_2_naming_its_key(tmp_path, capsys, command, extra):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CONFIG + extra + "\n")
    assert run_cli(command_args(command, cfg, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error")
    assert extra.split("\n")[-1].split(" = ")[0] in err


@pytest.mark.parametrize("obj, name", [
    ("gaussian_blob, 16, 16, 6, -4, 1e300, 2", "size"),
    ("gaussian_blob, 16, 16, 6, -4, 1e-300, 2", "size"),
    ("gaussian_blob, 16, 16, 6, -4, 3, 1e300", "intensity"),
])
@pytest.mark.parametrize("command", ["simulate", "track"])
def test_extreme_object_magnitude_exits_2_naming_it(tmp_path, capsys, command,
                                                    obj, name):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CONFIG + f"scene.object1 = {obj}\n")
    assert run_cli(command_args(command, cfg, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: scene.object {name} = ")


# validate() builds no random object, so only the bound stops a count that
# simulate would then build one by one
HUGE_OBJECT_COUNT = "scene.n_random_objects = 1000000000000\n"


def test_huge_random_object_count_is_a_config_error():
    cfg = parse_run_config(SMALL_CONFIG + HUGE_OBJECT_COUNT)
    with pytest.raises(ConfigError,
                       match=r"scene\.n_random_objects = 1000000000000 is "
                             r"outside its domain 0\.\.100"):
        cfg.validate()


def test_huge_random_object_count_exits_2_from_simulate(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CONFIG + HUGE_OBJECT_COUNT)
    assert run_cli(["--config", cfg, "--out", tmp_path / "sim",
                    "simulate"]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: scene.n_random_objects = ")
    assert not (tmp_path / "sim").exists()


def test_tiny_contrast_is_a_config_error(tmp_path):
    # load only: simulate on sim.contrast = 1e-9 would ask for 21.6 GiB
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CONFIG + "sim.contrast = 1e-9\n")
    with pytest.raises(ConfigError, match="sim.contrast = 1e-09"):
        load_run_config(path)


@pytest.mark.parametrize("contrast", [0.044, 0.2])
@pytest.mark.parametrize("size", [4.5, 6.0, 13.0])
def test_benchmark_magnitudes_stay_valid(contrast, size):
    cfg = parse_run_config(
        SMALL_CONFIG + f"sim.contrast = {contrast}\n"
        f"scene.object1 = textured_square, 16, 16, 25, 0, {size}, 2.5\n")
    assert cfg.validate() is cfg


@pytest.mark.parametrize("extra, message", [
    # overflowed to inf in the ground-truth tracks once
    ("scene.object1 = gaussian_blob, 16, 16, 1e308, 0, 3, 2",
     "scene.object vx = 1e+308 is outside its domain -1e+06..1e+06"),
    ("scene.object1 = gaussian_blob, 16, 16, 0, -2e6, 3, 2",
     "scene.object vy = -2000000.0 is outside its domain -1e+06..1e+06"),
    ("scene.object1 = gaussian_blob, 1e308, 16, 0, 0, 3, 2",
     "scene.object x = 1e+308 is outside its domain -65536..131072"),
    ("scene.object1 = textured_square, 16, -70000, 0, 0, 3, 2",
     "scene.object y = -70000"),
    # inside both domains at the start, 200016 px at the end of 1 s
    ("scene.object1 = gaussian_blob, 16, 16, 2e5, 0, 3, 2",
     "scene.object x at the scene's end = 200016"),
    ("scene.object1 = gaussian_blob, 16, 16, 0, -1e6, 3, 2\n"
     "scene.duration_us = 2000000", "scene.object y at the scene's end"),
    ("scene.background = 1e7", "scene.background = 10000000.0"),
])
def test_unbounded_scene_magnitudes_are_config_errors(tmp_path, extra,
                                                      message):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CONFIG + extra + "\n")
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_run_config(path)


@pytest.mark.parametrize("extra", [
    "scene.object1 = gaussian_blob, -65536, 131072, 0, 0, 3, 2",
    "scene.object1 = textured_square, 131072, -65536, -1e5, 1e5, 3, 2\n"
    "scene.duration_us = 1000000",
    "scene.background = 1e6",
])
def test_scene_magnitudes_on_their_bounds_are_valid(extra):
    cfg = parse_run_config(SMALL_CONFIG + extra + "\n")
    assert cfg.validate() is cfg


@pytest.mark.parametrize("extra, message", [
    # each raised OverflowError (a traceback, exit 1) inside validate()
    ("scene.duration_us = 1" + "0" * 399, "scene.duration_us = 1000"),
    ("scene.fps = 1e308\ntimeline.query_hz = 1e308\ntimeline.frame_hz = 1e308",
     "scene.fps = 1e+308 is outside its domain > 0 and <= 1e+06"),
    ("timeline.query_hz = 1e308\ntimeline.frame_hz = 1e308",
     "timeline.query_hz = 1e+308 is outside its domain > 0 and <= 1e+06"),
    ("timeline.frame_hz = 1e-308",
     "must be an integer multiple of timeline.frame_hz = 1e-308"),
    ("timeline.query_hz = 1e-308\ntimeline.frame_hz = 1e-308",
     "must be an integer multiple of timeline.query_hz = 1e-308"),
    # query times are whole microseconds: 2 MHz steps would collide
    ("scene.fps = 2e6\ntimeline.query_hz = 2e6\ntimeline.frame_hz = 2e6",
     "scene.fps = 2000000.0 is outside its domain"),
])
def test_overflowing_rates_and_durations_are_config_errors(tmp_path, extra,
                                                           message):
    # validate() and load only: none of these is ever run
    cfg = parse_run_config(SMALL_CONFIG + extra + "\n")
    with pytest.raises(ConfigError, match=re.escape(message)):
        cfg.validate()
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CONFIG + extra + "\n")
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_run_config(path)


def test_rates_and_duration_on_their_bounds_validate():
    # validate() only: 1e18 us at 1 MHz would be 1e18 query steps
    cfg = parse_run_config(
        "scene.duration_us = 1000000000000000000\n"
        "scene.n_random_objects = 0\n"
        "scene.object0 = gaussian_blob, 16, 16, 0, 0, 3, 2\n"
        "scene.fps = 1e6\ntimeline.query_hz = 1e6\ntimeline.frame_hz = 1e6\n")
    assert cfg.validate() is cfg


def load_workloads():
    """perfbench/workloads.py, without writing bytecode next to it."""
    module = types.ModuleType("perfbench_workloads")
    path = README.parent / "perfbench" / "workloads.py"
    sys.modules[module.__name__] = module  # dataclasses look the module up
    exec(compile(path.read_bytes(), str(path), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("seed", range(1, 6))
def test_benchmark_workloads_stay_valid(seed):
    wl = load_workloads()
    for workload in wl.WORKLOADS.values():
        text = wl.config_text(workload, seed, wl.scene_objects(workload, seed))
        cfg = parse_run_config(text)
        assert cfg.validate() is cfg


class TestFlags:
    def test_every_flag_is_declared_once(self):
        """No flag shadows a config key: `seed` and `eval.err_threshold`
        are set in the config only."""
        ap = build_parser()
        sub = next(a for a in ap._actions if a.dest == "command")
        flags = {"": ap, **sub.choices}
        assert {name: sorted(s for a in p._actions for s in a.option_strings
                             if s != "-h" and s != "--help")
                for name, p in flags.items()} == {
            "": ["--config", "--format", "--out"],
            "simulate": [],
            "track": ["--frames", "--query", "--stream", "--weights"],
            "eval": ["--pred", "--ref", "--thresholds"],
            "bench": [],
            "repr": ["--bin", "--kind", "--stream"],
        }

    @pytest.mark.parametrize("args", [["--seed", "1", "simulate"],
                                      ["eval", "--pred", "a", "--ref", "b",
                                       "--err-threshold", "2"]])
    def test_removed_flags_are_usage_errors(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2

    @pytest.mark.parametrize("query", ["a,16,16", "0,nan,16", "0,16,inf",
                                       "0,16", "1.5,16,16", "0,16,16,1"])
    def test_bad_query_is_config_error(self, tmp_path, small_cfg, capsys,
                                       query):
        assert run_cli(["--config", small_cfg, "--out", tmp_path, "track",
                        "--stream", tmp_path / "e.evbin", "--frames",
                        tmp_path / "v.tns", "--query", query]) == 2
        assert "config error: --query" in capsys.readouterr().err

    @pytest.mark.parametrize("thresholds", ["1,x", "", "1,,2", "nan", "1,-2",
                                            "0"])
    def test_bad_thresholds_is_config_error(self, tmp_path, small_cfg, capsys,
                                            thresholds):
        assert run_cli(["--config", small_cfg, "--out", tmp_path, "eval",
                        "--pred", tmp_path / "p.txt", "--ref",
                        tmp_path / "r.txt", "--thresholds", thresholds]) == 2
        assert "config error: --thresholds" in capsys.readouterr().err

    @pytest.mark.parametrize("thresholds", ["1,1", "1,4,1.0000001"])
    def test_thresholds_sharing_a_key_is_config_error(self, tmp_path,
                                                       small_cfg, capsys,
                                                       thresholds):
        """Thresholds that print alike would share one per_threshold entry
        of the report."""
        assert run_cli(["--config", small_cfg, "--out", tmp_path, "eval",
                        "--pred", tmp_path / "p.txt", "--ref",
                        tmp_path / "r.txt", "--thresholds", thresholds]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --thresholds")
        assert err.rstrip().endswith("share the per-threshold key '1'")


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CONFIG)
    return path


# ---------------------------------------------------------------------------
# Property: small configs drawn from the declared domains run end to end
# ---------------------------------------------------------------------------

@st.composite
def small_configs(draw):
    """Every scalar key, drawn from a small corner of its domain that also
    keeps the rules between keys, and the query arguments: one query per
    ground-truth track, so eval can compare them."""
    patch = draw(st.sampled_from([2, 4, 8, 16]))
    width = patch * draw(st.integers(1, 32 // patch))
    height = patch * draw(st.integers(1, 32 // patch))
    frame_hz = draw(st.sampled_from([6.0, 7.5, 12.0, 25.0]))
    query_hz = frame_hz * draw(st.integers(1, 3))
    steps = draw(st.integers(2, 12))
    duration = round(steps * 1e6 / query_hz)
    values = {
        "scene.width": width,
        "scene.height": height,
        "scene.duration_us": duration,
        "scene.fps": query_hz * draw(st.integers(1, 2)),
        "scene.background": draw(st.floats(0.5, 2.0)),
        "scene.n_random_objects": (draw(st.integers(0, 1))
                                   if min(width, height) >= 24 else 0),
        "sim.contrast": draw(st.floats(0.05, 0.5)),
        "timeline.query_hz": query_hz,
        "timeline.frame_hz": frame_hz,
        "timeline.exposure_us": draw(st.integers(1, 100_000)),
        "model.d": draw(st.integers(1, 12)),
        "model.patch": patch,
        "model.radius": draw(st.integers(0, 2)),
        "model.subwindows": draw(st.integers(1, 5)),
        "model.window": draw(st.integers(2, 6)),
        "model.patch_radius": draw(st.integers(0, 3)),
        "model.iterations": draw(st.integers(1, 2)),
        "seed": draw(st.integers(0, 2**40)),
        "bench.n_events": draw(st.integers(1, 10**6)),
        "eval.err_threshold": draw(st.floats(0.0, 20.0)),
    }
    assert set(values) == set(_KEYMAP)
    obj = (f"{draw(st.sampled_from(['gaussian_blob', 'textured_square']))}, "
           f"{width / 2}, {height / 2}, "
           f"{draw(st.floats(-30, 30))!r}, {draw(st.floats(-30, 30))!r}, "
           f"{draw(st.floats(1.0, 4.0))!r}, {draw(st.floats(0.5, 3.0))!r}")
    query_times = [round(k * 1e6 / query_hz) for k in range(steps)]
    queries = [f"{draw(st.sampled_from(query_times))},"
               f"{draw(st.floats(0, width))!r},{draw(st.floats(0, height))!r}"
               for _ in range(1 + values["scene.n_random_objects"])]
    return values, obj, queries


def config_text(values, obj):
    return "".join(f"{k} = {v!r}\n" for k, v in values.items()) \
        + f"scene.object0 = {obj}\n"


def just_outside(draw, key):
    domain, kind = DOMAINS[key], _KEYMAP[key][1]
    if domain.hi < math.inf and draw(st.booleans()):
        return domain.hi + 1
    if domain.above:
        return kind(domain.lo)
    return domain.lo - 1 if kind is int else math.nextafter(domain.lo, -math.inf)


def quiet_main(args):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        rc = main([str(a) for a in args])
    return rc, err.getvalue()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(drawn=small_configs(), data=st.data())
def test_configs_inside_their_domains_run_to_completion(drawn, data):
    values, obj, queries = drawn
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        cfg = base / "run.cfg"
        cfg.write_text(config_text(values, obj))
        sim, trk = base / "sim", base / "trk"
        assert quiet_main(["--config", cfg, "--out", sim, "simulate"]) == (0, "")
        qargs = [a for q in queries for a in ("--query", q)]
        assert quiet_main(["--config", cfg, "--out", trk, "track",
                           "--stream", sim / "events.evbin",
                           "--frames", sim / "video.tns", *qargs]) == (0, "")
        assert quiet_main(["--config", cfg, "--out", base / "ev", "eval",
                           "--pred", trk / "tracks.txt",
                           "--ref", sim / "tracks.txt"]) == (0, "")

        key = data.draw(st.sampled_from(sorted(DOMAINS)))
        cfg.write_text(config_text({**values, key: just_outside(data.draw, key)},
                                   obj))
        for command in ("simulate", "track"):
            rc, err = quiet_main(command_args(command, cfg, sim))
            assert rc == 2 and f"config error: {key} = " in err


# ---------------------------------------------------------------------------
# README drift
# ---------------------------------------------------------------------------

def readme_config_table() -> dict[str, tuple[str, str]]:
    rows = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        m = re.fullmatch(r"\| `([a-z_.]+)` \| ([^|]+) \| ([^|]+) \|.*", line)
        if m:
            rows[m[1]] = (m[2].strip(), m[3].strip())
    return rows


def test_readme_config_table_matches_the_declared_domains():
    rows = readme_config_table()
    assert set(rows) == set(_KEYMAP)
    defaults = RunConfig()
    for key, (attr, _) in _KEYMAP.items():
        assert rows[key] == (repr(getattr(defaults, attr)), str(DOMAINS[key])), key


def test_readme_lists_the_object_domains():
    text = README.read_text(encoding="utf-8")
    for names in (("x", "y"), ("vx", "vy"), ("size",), ("intensity",)):
        assert f"| {', '.join(names)} | {OBJECT_DOMAINS[names[0]]} |" in text
