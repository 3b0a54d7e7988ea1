"""Flat-text run configuration.

One "key = value" per line, "#" comments, dotted section prefixes
(e.g. scene.fps = 48). Every key has a default; unknown keys are a hard
error reported with the offending line number.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .events import Timeline
from .synth import SceneConfig, SceneObject
from .weights import FusionConfig


@dataclass
class RunConfig:
    # scene
    scene_width: int = 64
    scene_height: int = 64
    scene_duration_us: int = 2_000_000
    scene_fps: float = 48.0
    scene_background: float = 1.0
    scene_n_random_objects: int = 2
    scene_objects: list[SceneObject] = field(default_factory=list)
    # event simulation
    sim_contrast: float = 0.2
    # timeline
    timeline_query_hz: float = 48.0
    timeline_frame_hz: float = 12.0
    timeline_exposure_us: int = 4_000
    # model hyperparameters
    model_d: int = 64
    model_patch: int = 8
    model_radius: int = 1
    model_subwindows: int = 5
    model_window: int = 16
    model_patch_radius: int = 3
    model_iterations: int = 3
    # misc
    seed: int = 0
    bench_n_events: int = 1_000_000
    eval_err_threshold: float = 8.0

    def fusion_config(self) -> FusionConfig:
        """The model_<name> fields as FusionConfig(<name>=...)."""
        return FusionConfig(**{
            f.name.removeprefix("model_"): getattr(self, f.name)
            for f in fields(self) if f.name.startswith("model_")})

    def timeline(self) -> Timeline:
        """Regular query grid at query_hz with every stride-th step carrying
        a frame; query_hz must be an integer multiple of frame_hz."""
        stride = self.timeline_query_hz / self.timeline_frame_hz
        if abs(stride - round(stride)) > 1e-9 or round(stride) < 1:
            raise ConfigError(
                f"query_hz={self.timeline_query_hz} must be an integer "
                f"multiple of frame_hz={self.timeline_frame_hz}")
        n = round(self.scene_duration_us * self.timeline_query_hz / 1e6)
        if n < 1:
            raise ConfigError("timeline has no query steps")
        q = [round(k * 1e6 / self.timeline_query_hz) for k in range(n)]
        return Timeline(frame_times=q[::round(stride)], query_times=q,
                        exposure_us=self.timeline_exposure_us)

    def scene_config(self, rng=None) -> SceneConfig:
        objects = list(self.scene_objects)
        if self.scene_n_random_objects and rng is not None:
            for _ in range(self.scene_n_random_objects):
                objects.append(SceneObject(
                    shape=str(rng.choice(["gaussian_blob", "textured_square"])),
                    position=(float(rng.uniform(12, self.scene_width - 12)),
                              float(rng.uniform(12, self.scene_height - 12))),
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
_KEYMAP = {
    f.name.replace("_", ".", 1): (f.name, {"int": int, "float": float}[f.type])
    for f in fields(RunConfig) if f.name != "scene_objects"
}


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
            return parse_run_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
