"""The benchmark's workloads: seeded scenes, query sets and weight files.

Everything here is built by the benchmark from its ``--seed``; the program
only ever sees the generated config file, the ``--query`` arguments and the
TFW1 weight files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Output projections that the seeded init leaves at zero (the residual
# branches of the state updater, temporal attention and refiner, and the
# refiner head). The perturbed weight file gives them small seeded values.
PERTURBED_PREFIXES = ("upd.wo", "tattn.wo", "ref.head.w")
PERTURBED_PATTERNS = (".attn.wo", ".mlp.w2")
PERTURB_SCALE = 0.05


@dataclass(frozen=True)
class SceneObj:
    shape: str
    x: float
    y: float
    vx: float
    vy: float
    size: float
    intensity: float

    def config_value(self) -> str:
        return (f"{self.shape},{self.x!r},{self.y!r},{self.vx!r},{self.vy!r},"
                f"{self.size!r},{self.intensity!r}")

    def position_at(self, t_us: int) -> tuple[float, float]:
        s = t_us / 1e6
        return self.x + self.vx * s, self.y + self.vy * s


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    width: int
    height: int
    duration_us: int
    fps: float
    query_hz: float
    frame_hz: float
    contrast: float
    # query start steps, fixed per workload so that the tracker's work does
    # not depend on the seed; query i sits on object i % n_objects
    query_starts: tuple[int, ...]
    # per timed round: simulate calls (the pipeline pass's own included),
    # and for each throughput section (samples, back-to-back calls per
    # sample); a sample is about 0.1-0.3 s of work, except the 1M-event CSV
    # sections, one call of 2-3 s
    simulate_calls: int
    reps: dict

    def query_times(self) -> list[int]:
        n = round(self.duration_us * self.query_hz / 1e6)
        return [round(k * 1e6 / self.query_hz) for k in range(n)]


def _paced_objects(rng: np.random.Generator, wl: Workload, shapes: list[str],
                   speed: float, size: float, intensity: float
                   ) -> list[SceneObj]:
    """Objects of fixed size, speed and brightness, one per cell of a grid
    over the sensor (2 cells side by side, or 2 x 2), each moving along a
    seeded diagonal from a seeded start on a path that stays inside its
    cell. Objects never meet, so the event count barely depends on the
    seed."""
    dur = wl.duration_us / 1e6
    cols, rows = (2, 1) if len(shapes) <= 2 else (2, 2)
    cw, ch = wl.width / cols, wl.height / rows
    objs = []
    for i, shape in enumerate(shapes):
        ang = math.pi / 4 + math.pi / 2 * int(rng.integers(4))
        vx, vy = speed * math.cos(ang), speed * math.sin(ang)
        margin = size * 2 if shape == "gaussian_blob" else size + 1
        x0, y0 = (i % cols) * cw, (i // cols) * ch
        lo_x = x0 + margin + max(0.0, -vx * dur)
        hi_x = x0 + cw - margin - max(0.0, vx * dur)
        lo_y = y0 + margin + max(0.0, -vy * dur)
        hi_y = y0 + ch - margin - max(0.0, vy * dur)
        if hi_x < lo_x or hi_y < lo_y:
            raise ValueError(f"{wl.name}: object path does not fit its cell")
        objs.append(SceneObj(shape=shape,
                             x=float(rng.uniform(lo_x, hi_x)),
                             y=float(rng.uniform(lo_y, hi_y)),
                             vx=vx, vy=vy, size=size, intensity=intensity))
    return objs


WORKLOADS = {
    "refine_many_queries": Workload(
        name="refine_many_queries",
        why="default 64x64 scene, 12 queries (6 start mid-sequence): the "
            "per-query refiner does nearly all the work, fusion and event IO "
            "almost none",
        width=64, height=64, duration_us=2_000_000, fps=48.0, query_hz=48.0,
        frame_hz=12.0, contrast=0.2,
        query_starts=(0,) * 6 + (16, 32, 64) + (21, 38, 70),
        simulate_calls=6,
        reps={"ingest_evbin": (2, 150), "ingest_csv": (2, 10),
              "export_evbin": (2, 5000), "export_csv": (2, 15),
              "repr": (2, 5)}),
    "fusion_high_rate": Workload(
        name="fusion_high_rate",
        why="256x256 sensor at 192 query steps/s against 12 Hz frames, one "
            "query: taf_update, temporal attention, the decoder and the 50 MB "
            "video dominate",
        width=256, height=256, duration_us=500_000, fps=192.0,
        query_hz=192.0, frame_hz=12.0, contrast=0.2,
        query_starts=(0,),
        simulate_calls=1,
        reps={"ingest_evbin": (2, 50), "ingest_csv": (2, 5),
              "export_evbin": (2, 1000), "export_csv": (2, 8),
              "repr": (2, 1)}),
    "ingest_dense": Workload(
        name="ingest_dense",
        why="about 1M events on 128x128 from fast low-contrast textured "
            "objects, one query: event IO, sorting, binning, representations "
            "and event simulation dominate",
        width=128, height=128, duration_us=2_000_000, fps=48.0, query_hz=48.0,
        frame_hz=12.0, contrast=0.044,
        query_starts=(0,),
        simulate_calls=1,
        reps={"ingest_evbin": (3, 1), "ingest_csv": (1, 1),
              "export_evbin": (2, 5), "export_csv": (1, 1),
              "repr": (2, 1)}),
}


def scene_objects(wl: Workload, seed: int) -> list[SceneObj]:
    rng = np.random.default_rng([seed, 1])
    if wl.name == "refine_many_queries":
        return _paced_objects(rng, wl, ["textured_square", "gaussian_blob"],
                              speed=9.0, size=4.5, intensity=2.5)
    if wl.name == "fusion_high_rate":
        return _paced_objects(rng, wl, ["textured_square", "gaussian_blob",
                                        "textured_square", "gaussian_blob"],
                              speed=40.0, size=6.0, intensity=2.0)
    return _paced_objects(rng, wl, ["textured_square"] * 4,
                          speed=25.0, size=13.0, intensity=2.5)


def config_text(wl: Workload, seed: int, objects: list[SceneObj]) -> str:
    lines = [
        f"# {wl.name}, seed {seed}",
        f"seed = {seed}",
        f"scene.width = {wl.width}",
        f"scene.height = {wl.height}",
        f"scene.duration_us = {wl.duration_us}",
        f"scene.fps = {wl.fps}",
        "scene.n_random_objects = 0",
        f"sim.contrast = {wl.contrast}",
        f"timeline.query_hz = {wl.query_hz}",
        f"timeline.frame_hz = {wl.frame_hz}",
    ]
    lines += [f"scene.object{i} = {o.config_value()}"
              for i, o in enumerate(objects)]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Query:
    step: int
    t_us: int
    x: float
    y: float
    obj: int

    def arg(self) -> str:
        return f"{self.t_us},{self.x!r},{self.y!r}"


def queries(wl: Workload, objects: list[SceneObj]) -> list[Query]:
    """Query i starts at its fixed step on object i % n_objects, at the
    object's true position rounded to 1/1000 px (exact in the tracks file's
    9 significant digits)."""
    qt = wl.query_times()
    out = []
    for i, step in enumerate(wl.query_starts):
        j = i % len(objects)
        x, y = objects[j].position_at(qt[step])
        out.append(Query(step=step, t_us=qt[step], x=round(x, 3),
                         y=round(y, 3), obj=j))
    return out


def is_perturbed(name: str) -> bool:
    return name in PERTURBED_PREFIXES or name.endswith(PERTURBED_PATTERNS)


def perturb(params: dict, seed: int) -> dict:
    """Copy of the seeded init with small seeded values in the zero-init
    output projections: uniform(-s, s) with s = PERTURB_SCALE / sqrt(fan_in),
    drawn in sorted name order."""
    rng = np.random.default_rng([seed, 2])
    out = dict(params)
    for name in sorted(params):
        if is_perturbed(name):
            shape = params[name].shape
            bound = PERTURB_SCALE / math.sqrt(shape[0])
            out[name] = rng.uniform(-bound, bound, size=shape)
    return out
