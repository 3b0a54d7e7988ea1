"""Flat-text run configuration.

One "key = value" per line, "#" comments, dotted section prefixes
(e.g. scene.fps = 48). Every key has a default and a domain declared
next to it; unknown keys are a hard error reported with the offending
line number. validate() checks each value against its domain and the
rules that tie the rates and sizes together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .errors import ConfigError, DegenerateScene
from .events import MAX_SENSOR_SIDE, Timeline
from .synth import SceneConfig, SceneObject
from .weights import FusionConfig


@dataclass(frozen=True)
class Domain:
    """lo <= value <= hi (lo < value when above); floats must be finite."""

    lo: float
    hi: float = math.inf
    above: bool = False

    def __contains__(self, value) -> bool:
        if isinstance(value, float) and not math.isfinite(value):
            return False
        return value <= self.hi and (value > self.lo if self.above
                                     else value >= self.lo)

    def __str__(self) -> str:
        if self.hi < math.inf:
            if self.above:
                return f"> {self.lo:g} and <= {self.hi:g}"
            return f"{self.lo:g}..{self.hi:g}"
        return f"{'>' if self.above else '>='} {self.lo:g}"


def _setting(default, lo, hi=math.inf, above=False):
    return field(default=default, metadata={"domain": Domain(lo, hi, above)})


# random objects start at least this far inside the sensor, px
RANDOM_OBJECT_MARGIN = 12
# a scene.object's size (blob sigma or square half-side, px) and its
# intensity above the background: the pixel grid does not sample a size
# below a tenth of a pixel, a size above the sensor side covers the whole
# sensor, and 1e6 is an event sensor's 120 dB dynamic range
OBJECT_DOMAINS = {"size": Domain(0.1, MAX_SENSOR_SIDE),
                  "intensity": Domain(0, 1e6, above=True)}


@dataclass
class RunConfig:
    # scene
    scene_width: int = _setting(64, 1, MAX_SENSOR_SIDE)
    scene_height: int = _setting(64, 1, MAX_SENSOR_SIDE)
    scene_duration_us: int = _setting(2_000_000, 1)
    scene_fps: float = _setting(48.0, 0, above=True)
    scene_background: float = _setting(1.0, 0, above=True)
    scene_n_random_objects: int = _setting(2, 0)
    scene_objects: list[SceneObject] = field(default_factory=list)
    # event simulation
    # events grow as 1/contrast: 0.01 gives 27x the events of 0.2 on the
    # default scene, 1e-9 would ask for tens of GiB
    sim_contrast: float = _setting(0.2, 0.01)
    # timeline
    timeline_query_hz: float = _setting(48.0, 0, above=True)
    timeline_frame_hz: float = _setting(12.0, 0, above=True)
    timeline_exposure_us: int = _setting(4_000, 1)
    # model hyperparameters
    model_d: int = _setting(64, 1)
    model_patch: int = _setting(8, 1)
    model_radius: int = _setting(1, 0)
    model_subwindows: int = _setting(5, 1)
    model_window: int = _setting(16, 2)
    model_patch_radius: int = _setting(3, 0)
    model_iterations: int = _setting(3, 1)
    # misc
    seed: int = _setting(0, 0)
    bench_n_events: int = _setting(1_000_000, 1)
    eval_err_threshold: float = _setting(8.0, 0)

    def fusion_config(self) -> FusionConfig:
        """The model_<name> fields as FusionConfig(<name>=...)."""
        return FusionConfig(**{
            f.name.removeprefix("model_"): getattr(self, f.name)
            for f in fields(self) if f.name.startswith("model_")})

    def _get(self, key: str):
        return getattr(self, _KEYMAP[key][0])

    def _multiple(self, key: str, base: str) -> int:
        """k such that the value of key is k times the value of base."""
        value, of = self._get(key), self._get(base)
        k = round(value / of)
        if k < 1 or abs(value / of - k) > 1e-9:
            raise ConfigError(f"{key} = {value:g} must be an integer multiple "
                              f"of {base} = {of:g}")
        return k

    def _query_steps(self) -> int:
        n = round(self.scene_duration_us * self.timeline_query_hz / 1e6)
        if n < 1:
            raise ConfigError("scene.duration_us * timeline.query_hz gives "
                              "no query steps")
        return n

    def timeline(self) -> Timeline:
        """Regular query grid at query_hz with every stride-th step carrying
        a frame."""
        stride = self._multiple("timeline.query_hz", "timeline.frame_hz")
        q = [round(k * 1e6 / self.timeline_query_hz)
             for k in range(self._query_steps())]
        return Timeline(frame_times=q[::stride], query_times=q,
                        exposure_us=self.timeline_exposure_us)

    def frame_indices(self) -> range:
        """Index into the rendered video (scene.fps) of each frame step of
        timeline()."""
        per_step = self._multiple("scene.fps", "timeline.query_hz")
        stride = self._multiple("timeline.query_hz", "timeline.frame_hz")
        return range(0, self._query_steps() * per_step, stride * per_step)

    def validate(self) -> RunConfig:
        """Raise ConfigError naming the first key outside its domain or the
        first broken rule between keys; return self otherwise."""
        for key, domain in DOMAINS.items():
            if self._get(key) not in domain:
                raise ConfigError(f"{key} = {self._get(key)} is outside its domain "
                                  f"{domain}")
        self._multiple("timeline.query_hz", "timeline.frame_hz")
        self._multiple("scene.fps", "timeline.query_hz")
        for key in ("scene.width", "scene.height"):
            if self._get(key) % self.model_patch:
                raise ConfigError(f"{key} = {self._get(key)} must be a multiple "
                                  f"of model.patch = {self.model_patch}")
        if self.scene_n_random_objects and min(
                self.scene_width, self.scene_height) < 2 * RANDOM_OBJECT_MARGIN:
            raise ConfigError(
                f"scene.n_random_objects needs scene.width and scene.height "
                f">= {2 * RANDOM_OBJECT_MARGIN}")
        self._query_steps()
        if round(self.scene_fps * self.scene_duration_us / 1e6) < 2:
            raise ConfigError("scene.fps * scene.duration_us gives fewer "
                              "than 2 rendered frames")
        for obj in self.scene_objects:
            for name, domain in OBJECT_DOMAINS.items():
                if getattr(obj, name) not in domain:
                    raise ConfigError(
                        f"scene.object {name} = {getattr(obj, name):g} is "
                        f"outside its domain {domain}")
        try:
            self.scene_config()
        except DegenerateScene as exc:
            raise ConfigError(f"scene.object: {exc}") from exc
        return self

    def scene_config(self, rng=None) -> SceneConfig:
        objects = list(self.scene_objects)
        m = RANDOM_OBJECT_MARGIN
        if self.scene_n_random_objects and rng is not None:
            for _ in range(self.scene_n_random_objects):
                objects.append(SceneObject(
                    shape=str(rng.choice(["gaussian_blob", "textured_square"])),
                    position=(float(rng.uniform(m, self.scene_width - m)),
                              float(rng.uniform(m, self.scene_height - m))),
                    velocity=(float(rng.uniform(-10, 10)),
                              float(rng.uniform(-10, 10))),
                    size=float(rng.uniform(2.5, 5.0)),
                    intensity=float(rng.uniform(1.0, 3.0))))
        return SceneConfig(
            width=self.scene_width, height=self.scene_height,
            duration_us=self.scene_duration_us, fps=self.scene_fps,
            objects=objects, background=self.scene_background)


# key -> (RunConfig field, converter); a field's first "_" becomes the section
# dot, and scene objects have their own scene.object<N> lines
_FIELDS = {f.name.replace("_", ".", 1): f
           for f in fields(RunConfig) if f.name != "scene_objects"}
_KEYMAP = {key: (f.name, {"int": int, "float": float}[f.type])
           for key, f in _FIELDS.items()}
# key -> its declared domain
DOMAINS = {key: f.metadata["domain"] for key, f in _FIELDS.items()}


def _parse_object(value: str, lineno: int) -> SceneObject:
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != 7:
        raise ConfigError(
            f"line {lineno}: object needs shape,x,y,vx,vy,size,intensity")
    try:
        return SceneObject(
            shape=parts[0],
            position=(float(parts[1]), float(parts[2])),
            velocity=(float(parts[3]), float(parts[4])),
            size=float(parts[5]), intensity=float(parts[6]))
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: {exc}") from exc


def parse_run_config(text: str) -> RunConfig:
    cfg = RunConfig()
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = (s.strip() for s in line.partition("="))
        if key.startswith("scene.object"):
            cfg.scene_objects.append(_parse_object(value, lineno))
            continue
        if key not in _KEYMAP:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        attr, conv = _KEYMAP[key]
        try:
            setattr(cfg, attr, conv(value))
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return cfg


def load_run_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_run_config(text).validate()
