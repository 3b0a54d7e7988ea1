"""The one value rule: every declared domain table accepts a value exactly
when the value lies in its domain, and otherwise raises its site's typed
error in the one message form, never a builtin exception."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tapfuse.arrayio import read_frames, write_array
from tapfuse.config import DOMAINS, RunConfig, _KEYMAP
from tapfuse.errors import (
    ConfigError,
    DataError,
    DegenerateScene,
    Domain,
    EmptyTimeline,
    GridMismatch,
    MalformedRecord,
    ShapeMismatch,
)
from tapfuse.events import (
    HEADER_DOMAINS,
    TIMELINE_DOMAINS,
    EventStream,
    Timeline,
    exposure_window_events,
)
from tapfuse.metrics import (
    AGE_THRESHOLD_DOMAIN,
    THRESHOLD_DOMAIN,
    EvalPair,
    threshold_keys,
    track_ages,
)
from tapfuse.synth import (
    CONTRAST_DOMAIN,
    MAX_DURATION_US,
    OBJECT_DOMAINS,
    SCENE_DOMAINS,
    IntensityVideo,
    SceneConfig,
    SceneObject,
    simulate_events,
)
from tapfuse.tracker import TrackSet
from tapfuse.weights import (
    FUSION_DOMAINS,
    SEED_DOMAIN,
    FusionConfig,
    WeightBundle,
)


def header(name, value):
    fields = dict(width=4, height=4, t_start=0, t_end=2**64 - 1)
    return EventStream.from_events([], **{**fields, name: value})


def scene(name, value):
    """A scene of 10**12 frames, 10**18 us at fps 1, so that only a rate
    or a duration near its domain's low end breaks the 2-frame rule."""
    fields = dict(width=8, height=8, duration_us=MAX_DURATION_US, fps=1.0,
                  background=1.0)
    return SceneConfig(objects=[], **{**fields, name: value})


def scene_object(name, value):
    """One object in a 2 us scene: with one field off its base, the object
    ends within its position domain whenever it starts within it."""
    fields = dict(x=4.0, y=4.0, vx=0.0, vy=0.0, size=2.0, intensity=1.0)
    f = {**fields, name: value}
    obj = SceneObject("gaussian_blob", (f["x"], f["y"]), (f["vx"], f["vy"]),
                      f["size"], f["intensity"])
    return SceneConfig(width=8, height=8, duration_us=2, fps=1e6,
                       objects=[obj])


STREAM = EventStream.from_events([], 4, 4, 0, 10)
# two 1x1 frames a log unit apart: any contrast in its domain simulates
VIDEO = IntensityVideo(frames=np.exp([[[0.0]], [[1.0]]]),
                       frame_times=np.array([0, 1000]))
TINY_MODEL = FusionConfig(d=1, patch=1, window=2, patch_radius=0)
# one query's one-step track
TRACK = TrackSet(times=np.array([0]), positions=np.zeros((1, 1, 2)),
                 visibility=np.ones((1, 1)))
TIME, EXPOSURE = TIMELINE_DOMAINS.values()

# (label, domain, the name its message gives, the site's error, build);
# build(value) raises or returns with value in place
SITES = [
    *[(f"header.{name}", domain, name, error,
       lambda v, name=name: header(name, v))
      for name, (domain, error) in HEADER_DOMAINS.items()],
    ("timeline.time", TIME, "frame_time", MalformedRecord,
     lambda v: Timeline(frame_times=[v], query_times=[v], exposure_us=1)),
    ("timeline.exposure_us", EXPOSURE, "exposure_us", MalformedRecord,
     lambda v: Timeline(frame_times=[0], query_times=[0], exposure_us=v)),
    ("exposure_window.frame_time", TIME, "frame_time", EmptyTimeline,
     lambda v: exposure_window_events(STREAM, v, 1)),
    ("exposure_window.exposure_us", EXPOSURE, "exposure_us", EmptyTimeline,
     lambda v: exposure_window_events(STREAM, 10, v)),
    *[(f"fusion.{name}", domain, f"FusionConfig.{name}", ShapeMismatch,
       lambda v, name=name: FusionConfig(**{name: v}))
      for name, domain in FUSION_DOMAINS.items()],
    *[(f"scene.{name}", domain, name, DegenerateScene,
       lambda v, name=name: scene(name, v))
      for name, domain in SCENE_DOMAINS.items()],
    *[(f"object.{name}", domain, f"object {name}", DegenerateScene,
       lambda v, name=name: scene_object(name, v))
      for name, domain in OBJECT_DOMAINS.items()],
    ("synth.contrast", CONTRAST_DOMAIN, "contrast", DegenerateScene,
     lambda v: simulate_events(VIDEO, v)),
    ("weights.seed", SEED_DOMAIN, "WeightBundle.seed", ShapeMismatch,
     lambda v: WeightBundle.initialize(TINY_MODEL, v)),
    ("metrics.image_height", SCENE_DOMAINS["height"], "EvalPair.image_height",
     GridMismatch,
     lambda v: EvalPair(predicted=TRACK, reference=TRACK, image_height=v)),
    ("metrics.threshold", THRESHOLD_DOMAIN, "threshold", GridMismatch,
     lambda v: threshold_keys((v,))),
    ("metrics.err_threshold", AGE_THRESHOLD_DOMAIN, "err_threshold",
     GridMismatch, lambda v: track_ages(
         EvalPair(predicted=TRACK, reference=TRACK, image_height=1), v)),
    ("config.eval.err_threshold", AGE_THRESHOLD_DOMAIN, "eval.err_threshold",
     ConfigError, lambda v: RunConfig(eval_err_threshold=v).validate()),
    # the run config's own settings, whose domains no library type owns
    *[(f"config.{key}", DOMAINS[key], key, ConfigError,
       lambda v, key=key: RunConfig(**{_KEYMAP[key][0]: v}).validate())
      for key in ("scene.n_random_objects", "bench.n_events")],
]


@pytest.fixture(scope="module")
def video(tmp_path_factory):
    path = tmp_path_factory.mktemp("video") / "video.tns"
    path.write_bytes(write_array(np.ones((4, 2, 2))))
    return path


def values(domain):
    """Python and numpy integers, floats with NaN and both infinities,
    strings and None, and the integers and floats at and next to each
    finite bound."""
    bounds = [b for b in (domain.lo, domain.hi) if math.isfinite(b)]
    near = [int(b) + d for b in bounds for d in (-1, 0, 1)]
    return st.one_of(
        st.integers(), st.integers(-2**63, 2**63 - 1).map(np.int64),
        st.integers(0, 2**64 - 1).map(np.uint64),
        st.integers(0, 255).map(np.uint8),
        st.floats(), st.sampled_from([math.nan, math.inf, -math.inf]),
        st.text(max_size=3), st.none(),
        st.sampled_from(near), st.sampled_from([float(v) for v in near]))


def assert_rule(build, domain, name, error, value):
    """build(value) returns when value is in domain; otherwise it raises
    error as '<name> = <value!r> is outside its domain <domain>'. The one
    rule tying fields together here is the scene's 2-frame rule, which
    may refuse a duration or rate inside its domain."""
    try:
        build(value)
    except error as exc:
        if value in domain:
            assert "gives fewer than 2 frames" in str(exc)
        else:
            assert str(exc) == (f"{name} = {value!r} is outside its domain "
                                f"{domain}")
    else:
        assert value in domain


@pytest.mark.parametrize("label, domain, name, error, build", SITES,
                         ids=[site[0] for site in SITES])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_declared_site_accepts_exactly_its_domain(label, domain, name,
                                                    error, build, data):
    assert_rule(build, domain, name, error, data.draw(values(domain)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_read_frames_accepts_exactly_the_indices_of_the_video(video, data):
    domain = Domain(0, 3, integer=True)
    assert_rule(lambda v: read_frames(video, [v]), domain, "frame index",
                DataError, data.draw(values(domain)))


def test_integer_bounds_print_exactly_and_others_as_g():
    assert str(Domain(0, 2**64 - 1, integer=True)) == "0..18446744073709551615"
    assert str(SCENE_DOMAINS["duration_us"]) == "1..1000000000000000000"
    assert str(Domain(1, integer=True)) == ">= 1"
    assert str(Domain(0, 1e6, above=True)) == "> 0 and <= 1e+06"
    assert str(Domain(-1e6, 1e6)) == "-1e+06..1e+06"


def test_an_integer_domain_keeps_numpy_integers_as_ints():
    checked = Domain(0, 10, integer=True).check("n", np.uint16(7), DataError)
    assert type(checked) is int and checked == 7
    assert 7.0 not in Domain(0, 10, integer=True) and 7.0 in Domain(0, 10)
    assert 10**400 in Domain(0) and 10**400 not in Domain(0, 1e300)
