"""Synthetic scenes, the event generation model, and the EDI blur model.

This module is the physics oracle for everything downstream: it renders
analytic intensity videos with exact ground-truth trajectories, converts
them to event streams by tracking per-pixel log-intensity threshold
crossings, reconstructs log intensity from events, and evaluates the
event-based double-integral blur relation (Pan et al. 2019) in closed
form; both integrals are bincounts over one (a, b] cut of the stream.

A video reaches the event model as (times, frames) chunks in time order,
as ESIM (Rebecq et al. 2018) and v2e (Hu et al. 2021) feed it frames. The
video of render_intensity_video renders each chunk into one reused buffer
of at most _CHUNK_BYTES only when it is read, so simulating it, and
writing it out chunk by chunk as cmd_simulate does, never holds the
whole video.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateScene,
    Domain,
    EmptyWindow,
    GeometryViolation,
    NonPositiveIntensity,
)
from .events import MAX_SENSOR_SIDE, EventStream, _cut
from .representations import _pixels
from .tracker import TrackSet

DEFAULT_CONTRAST = 0.2
# events grow as 1/contrast: 0.01 gives 27x the events of 0.2 on the
# default scene, 1e-9 would ask for tens of GiB. A float64 log intensity
# spans under 1,500, so no contrast above 1e6 is ever crossed, and 1e400
# would overflow the crossing-time division
CONTRAST_DOMAIN = Domain(0.01, 1e6)
# an intensity above 1e6 is beyond an event sensor's 120 dB dynamic range
MAX_INTENSITY = 1e6
# frame and query times are whole microseconds, so above 1 MHz two steps
# would share a time
MAX_RATE_HZ = 1e6
# event times are int64 microseconds; 1e18 us is some 31,700 years
MAX_DURATION_US = 10**18

# the frames a rendered video holds at once while it is iterated: at most
# this many bytes, and at least one frame. Chunks of 1 to 32 frames of
# 256x256 simulate within 4 % of each other; the peak grows with the chunk.
_CHUNK_BYTES = 2 * 2 ** 20


def _check_intensity(frames: np.ndarray) -> None:
    """Raise unless every value is positive and finite (NaN is not > 0)."""
    if not (frames > 0).all():
        raise NonPositiveIntensity("intensity must be positive everywhere")
    if not (frames < np.inf).all():
        raise DegenerateScene("intensity must be finite everywhere")


class IntensityVideo:
    """Linear-intensity frames (all values > 0) at integer-microsecond times.

    Iterating a video yields its frames as (times, frames) chunks in time
    order, the form simulate_events reads. This one checks and keeps the
    caller's array and yields it as a single chunk; simulate_events checks
    it again, as the caller may have written into it since.
    """

    def __init__(self, frames, frame_times):
        frames = np.asarray(frames, dtype=np.float64)
        times = np.asarray(frame_times, dtype=np.int64)
        if frames.ndim != 3 or frames.shape[0] != times.shape[0]:
            raise DegenerateScene("frames/frame_times shape mismatch")
        if np.any(np.diff(times) <= 0):
            raise DegenerateScene("frame times must strictly increase")
        _check_intensity(frames)
        self.frames = frames            # T x H x W, positive reals
        self.frame_times = times        # T, int64 microseconds

    def __iter__(self):
        yield self.frame_times, self.frames


# the scene's own fields
SCENE_DOMAINS = {"width": Domain(1, MAX_SENSOR_SIDE, integer=True),
                 "height": Domain(1, MAX_SENSOR_SIDE, integer=True),
                 "duration_us": Domain(1, MAX_DURATION_US, integer=True),
                 "fps": Domain(0, MAX_RATE_HZ, above=True),
                 "background": Domain(0, MAX_INTENSITY, above=True)}

# the fields of a scene object after its shape. A position (x, y, px)
# stays within one largest sensor side of the sensor at the start and at
# the end of the scene, so at every time between; a velocity (vx, vy, px/s)
# moves at most one pixel per microsecond, the event time resolution. The
# pixel grid does not sample a size (blob sigma or square half-side, px)
# below a tenth of a pixel, and a size above the sensor side covers the
# whole sensor. The intensity is above the background.
_POSITION = Domain(-MAX_SENSOR_SIDE, 2 * MAX_SENSOR_SIDE)
_VELOCITY = Domain(-1e6, 1e6)
OBJECT_DOMAINS = {"x": _POSITION, "y": _POSITION,
                  "vx": _VELOCITY, "vy": _VELOCITY,
                  "size": Domain(0.1, MAX_SENSOR_SIDE),
                  "intensity": Domain(0, MAX_INTENSITY, above=True)}


@dataclass(frozen=True)
class SceneObject:
    shape: str                      # gaussian_blob | textured_square
    position: tuple[float, float]   # initial (x, y) in px
    velocity: tuple[float, float]   # px / s
    size: float                     # blob sigma or square half-side, px
    intensity: float                # peak intensity above background

    def position_at(self, t_us: float) -> tuple[float, float]:
        s = t_us / 1e6
        return (self.position[0] + self.velocity[0] * s,
                self.position[1] + self.velocity[1] * s)


@dataclass(frozen=True)
class SceneConfig:
    width: int
    height: int
    duration_us: int
    fps: float
    objects: Sequence[SceneObject]
    background: float = 1.0

    def __post_init__(self):
        """Fields lie in SCENE_DOMAINS with at least 2 frames, and object
        fields and end positions in OBJECT_DOMAINS, or DegenerateScene."""
        for name, domain in SCENE_DOMAINS.items():
            object.__setattr__(self, name, domain.check(
                name, getattr(self, name), DegenerateScene))
        if self.n_frames < 2:
            raise DegenerateScene(f"duration_us = {self.duration_us} at fps = "
                                  f"{self.fps:g} gives fewer than 2 frames")
        for obj in self.objects:
            values = (*obj.position, *obj.velocity, obj.size, obj.intensity)
            for name, value in zip(OBJECT_DOMAINS, values):
                OBJECT_DOMAINS[name].check(f"object {name}", value,
                                           DegenerateScene)
            for name, value in zip("xy", obj.position_at(self.duration_us)):
                OBJECT_DOMAINS[name].check(f"object {name} at the scene's end",
                                           value, DegenerateScene)
            if obj.shape not in ("gaussian_blob", "textured_square"):
                raise DegenerateScene(f"object unknown shape {obj.shape!r}")

    @property
    def n_frames(self) -> int:
        """fps * duration_us / 1e6 rounded, in Python numbers (no overflow)."""
        return round(float(self.fps) * int(self.duration_us) / 1e6)


def _box(center: float, reach: float, side: int) -> tuple[int, int]:
    """[lo, hi): the pixels of a sensor side within reach of center."""
    return (math.floor(max(center - reach, 0.0)),
            math.floor(min(center + reach, side - 1.0)) + 1)


def _reach(config: SceneConfig) -> list[float]:
    """Each object's reach, the distance from its center beyond which it
    changes no pixel (see _rasterize)."""
    log_half_ulp = math.log(math.ulp(config.background)) - math.log(2.0)
    return [obj.size + 2.0 if obj.shape == "textured_square" else
            obj.size * math.sqrt(
                2.0 * max(math.log(obj.intensity) - log_half_ulp, 0.0)) + 2.0
            for obj in config.objects]


def _rasterize(config: SceneConfig, reach: Sequence[float],
               times: Sequence[float], out: np.ndarray) -> None:
    """Write the scene at each of times into the (T, H, W) array out;
    reach is _reach(config).

    Each object writes only its support box, the pixels within its reach
    of its center; objects whose box misses the sensor are skipped. A
    square reaches its half-side. A blob reaches the distance beyond which
    intensity * exp(-d**2 / 2 sigma**2) is below half an ulp of the
    background. Both add a 2 px margin for the rounding of that bound.
    Outside its box a blob changes no pixel: no pixel is ever below the
    background (fill sets it, blobs add positive terms, squares write
    background + intensity * tex with tex >= 0.2), so an addend under half
    the background's ulp rounds away.

    Inside the box an (h, 1) row coordinate broadcasts against a (1, w)
    column coordinate, and each pixel takes the same float operations as
    on a full np.mgrid, so the frame is byte-identical to that as long as
    numpy's exp and sin give an element the same value whatever the
    array's shape (pinned in test_synth.py)."""
    bg = config.background
    for frame, t_us in zip(out, times):
        frame.fill(bg)
        for obj, r in zip(config.objects, reach):
            cx, cy = obj.position_at(t_us)
            x0, x1 = _box(cx, r, config.width)
            y0, y1 = _box(cy, r, config.height)
            if x0 >= x1 or y0 >= y1:
                continue
            box = frame[y0:y1, x0:x1]
            yy = np.arange(y0, y1, dtype=np.float64)[:, None]
            xx = np.arange(x0, x1, dtype=np.float64)
            if obj.shape == "gaussian_blob":
                box += obj.intensity * np.exp(
                    -((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * obj.size ** 2))
            else:  # textured_square, texture anchored to the object
                inside = ((np.abs(xx - cx) <= obj.size)
                          & (np.abs(yy - cy) <= obj.size))
                tex = 0.6 + 0.4 * np.sin(2 * np.pi * (xx - cx) / 4.0) \
                    * np.sin(2 * np.pi * (yy - cy) / 4.0)
                np.copyto(box, bg + obj.intensity * tex, where=inside)


class _SceneVideo(IntensityVideo):
    """The video of a scene at frame_times, rendered when it is read.

    Iterating it renders a chunk of frames at a time into one buffer of at
    most _CHUNK_BYTES, and at least one frame, which the next chunk
    overwrites; simulate_events checks each chunk as it reads it. Reading
    .frames renders, checks and keeps the whole video, and iteration then
    yields that. Each pass works out each object's reach once.
    """

    def __init__(self, scene: SceneConfig, frame_times: np.ndarray):
        self.scene, self.frame_times = scene, frame_times

    @cached_property
    def frames(self) -> np.ndarray:
        frames = np.empty((len(self.frame_times), self.scene.height,
                           self.scene.width))
        _rasterize(self.scene, _reach(self.scene), self.frame_times, frames)
        _check_intensity(frames)
        return frames

    def __iter__(self):
        if "frames" in vars(self):
            yield from super().__iter__()
            return
        height, width = self.scene.height, self.scene.width
        n = max(1, _CHUNK_BYTES // (8 * height * width))
        buffer = np.empty((min(n, len(self.frame_times)), height, width))
        reach = _reach(self.scene)
        for start in range(0, len(self.frame_times), n):
            times = self.frame_times[start:start + n]
            frames = buffer[:len(times)]
            _rasterize(self.scene, reach, times, frames)
            yield times, frames


def _ground_truth(config: SceneConfig, times: np.ndarray) -> TrackSet:
    """Each object's exact position at times, one track per object.
    Visibility flips to 0 when an object's center leaves the image or is
    covered by a nearer (later-listed) object's square."""
    # position_at's float operations, for every object and time at once
    motion = np.array([(obj.position, obj.velocity) for obj in config.objects],
                      dtype=np.float64).reshape(-1, 2, 1, 2)
    positions = motion[:, 0] + motion[:, 1] * (times / 1e6)[:, None]
    visible = np.all((0 <= positions)
                     & (positions < (config.width, config.height)), axis=2)
    for i, obj in enumerate(config.objects):
        # a later object's square hides the centres of the objects before it
        visible[:i] &= ~np.all(np.abs(positions[:i] - positions[i]) <= obj.size,
                               axis=2)
    return TrackSet(times=times, positions=positions,
                    visibility=visible.astype(np.int64))


def render_intensity_video(config: SceneConfig,
                           query_times: Sequence[int] | None = None
                           ) -> tuple[IntensityVideo, TrackSet]:
    """The scene's video at each frame time, and its exact ground truth.

    The video renders its frames when it is read: simulate_events reads
    it a chunk at a time, and .frames renders it whole (see _SceneVideo).
    Ground truth is sampled on query_times when given (must contain the
    frame grid or be denser), else on the frame grid itself.
    """
    frame_times = np.round(np.arange(config.n_frames) * 1e6
                           / config.fps).astype(np.int64)
    gt_times = np.asarray(query_times if query_times is not None else frame_times,
                          dtype=np.int64)
    return _SceneVideo(config, frame_times), _ground_truth(config, gt_times)


def simulate_events(video: Iterable[tuple[np.ndarray, np.ndarray]],
                    c: float = DEFAULT_CONTRAST) -> EventStream:
    """Emit events where linearly interpolated log intensity crosses the
    per-pixel reference by +-c, updating the reference by +-c per event.

    video is an IntensityVideo, or any iterable of (times, frames) chunks
    in time order as iterating one yields them. Each chunk is checked
    positive and finite as it is read, and only the reference and the last
    frame's log and time pass from one chunk to the next, so the model
    holds one chunk of the video at a time.

    Log intensity is interpolated linearly in time between frames (the
    trigger condition lives in the log domain, which makes crossing times
    closed-form), so between two frames a pixel crosses levels of one sign
    only, as in ESIM (Rebecq et al. 2018). One pass per frame interval,
    holding two frames' logs, gives each pixel floor(|q|) levels of the
    sign of q = (L1 - ref) / c, indexed by one array expression whose
    integers equal one np.arange per pixel. Timestamps are rounded to the
    nearest microsecond and clipped to the first and last frame times;
    the merged stream is in canonical order.

    The stream is byte-identical to an up and then a down pass, each
    counting floor(sign * (L1 - ref) / c): 1.0 * x is x and (-x) / c is
    -(x / c); after floor(q) up crossings ref is within a few ulps of L1
    or below it, so for c far above a log's ulp the down pass adds none;
    and the canonical order makes the order of emission irrelevant.
    """
    c = CONTRAST_DOMAIN.check("contrast", c, DegenerateScene)
    # each interval's (t, x, y, p) columns, in the stream's dtypes
    cols = [(np.zeros(0, np.uint64), np.zeros(0, np.uint16),
             np.zeros(0, np.uint16), np.zeros(0, np.int8))]
    L1 = t0 = t1 = None     # t0 is set from the second frame on
    for times, frames in video:
        _check_intensity(frames)
        for frame, t_frame in zip(frames, times):
            L0, L1 = L1, np.log(frame.reshape(-1))
            t0, t1 = t1, float(t_frame)
            if L0 is None:
                H, W = frame.shape
                if max(H, W) > MAX_SENSOR_SIDE:
                    raise GeometryViolation(
                        f"{W}x{H} video: event x and y are u16, so a side is "
                        f"at most {MAX_SENSOR_SIDE} px")
                t_first = int(t_frame)
                ref = L1.copy()
                continue
            q = (L1 - ref) / c
            active = np.flatnonzero(np.abs(q) >= 1)
            if active.size == 0:
                continue
            sign = np.sign(q[active])
            counts = np.floor(sign * q[active]).astype(np.int64)
            pix = np.repeat(active, counts)
            # level index 1..n per pixel: running index minus pixel start
            k = np.arange(1, pix.size + 1) - np.repeat(np.cumsum(counts) - counts,
                                                        counts)
            s = np.repeat(sign, counts)
            levels = ref[pix] + s * k * c
            with np.errstate(divide="ignore", invalid="ignore"):
                tt = t0 + (levels - L0[pix]) / (L1[pix] - L0[pix]) * (t1 - t0)
            # float rounding can carry a level crossed at the end of the
            # previous interval over to a pixel that holds still in this one
            tt[~np.isfinite(tt)] = t0
            t = np.clip(np.round(tt).astype(np.int64), t_first, None)
            cols.append((t.astype(np.uint64), (pix % W).astype(np.uint16),
                         (pix // W).astype(np.uint16), s.astype(np.int8)))
            ref[active] += sign * counts * c
    if t0 is None:
        raise DegenerateScene("need at least 2 frames to simulate")

    t, x, y, p = map(np.concatenate, zip(*cols))
    # the clip's upper bound, the last frame time, is known only now; it is
    # applied in int64, as the lower bound was, so t holds one np.clip's bits
    t_last, t64 = int(t_frame), t.view(np.int64)
    np.minimum(t64, t_last, out=t64)
    return EventStream(t=t, x=x, y=y, p=p, width=W, height=H,
                       t_start=t_first, t_end=t_last)


def reconstruct_log_intensity(anchor: np.ndarray, stream: EventStream,
                              t0: int, query_time: int,
                              c: float = DEFAULT_CONTRAST) -> np.ndarray:
    """L(query_time) = anchor + c * sum of polarities in (t0, query_time]."""
    if query_time < t0:
        raise EmptyWindow("query_time must be >= anchor time")
    anchor = np.asarray(anchor, dtype=np.float64)
    H, W = anchor.shape
    batch = _cut(stream, [t0, query_time])[0]
    steps = np.bincount(_pixels(batch, W, H), weights=batch.p, minlength=H * W)
    return anchor + c * steps.reshape(H, W)


def edi_blur(sharp_log: np.ndarray, stream: EventStream, t_center: int,
             window_us: int, c: float = DEFAULT_CONTRAST) -> np.ndarray:
    """Blurred log frame via the double-integral relation.

    Returns sharp_log + log((1/T) * integral of exp(c * E(t)) dt) over
    (t_lo, t_hi] = (t_center - T/2, t_center + T/2], where E(t) at a pixel
    is the signed event count relative to t_center; an event exactly at
    t_center counts toward the forward half only. So E starts at
    E_0 = -(sum of p over the pixel's events before t_center) and steps by
    p at each event: over its events at tau_1 <= ... <= tau_k the integral
    is sum_i exp(c * (E_0 + P_i)) * (tau_(i+1) - tau_i), i = 0..k, with
    tau_0 = t_lo, tau_(k+1) = t_hi and P_i the sum of the first i p's.
    """
    if window_us <= 0:
        raise EmptyWindow("window duration must be positive")
    sharp_log = np.asarray(sharp_log, dtype=np.float64)
    H, W = sharp_log.shape
    t_lo, t_hi = t_center - window_us / 2, t_center + window_us / 2

    # an integer t lies in (t_lo, t_hi] exactly when it lies in
    # (floor(t_lo), floor(t_hi)]
    batch = _cut(stream, [math.floor(t_lo), math.floor(t_hi)])[0]
    # knots: each pixel's events in time order, then a p = 0 one at t_hi;
    # each knot ends one segment, on which E is E_0 + P_i
    pix = np.r_[_pixels(batch, W, H), np.arange(H * W)]
    order = np.argsort(pix, kind="stable")
    pix = pix[order]
    t = np.r_[batch.t.astype(np.float64), np.full(H * W, t_hi)][order]
    p = np.r_[batch.p.astype(np.float64), np.zeros(H * W)][order]
    first = np.r_[True, pix[1:] != pix[:-1]]
    before = np.cumsum(p) - p  # polarity sum of all earlier knots
    # before - base = E_0 + P_i: less the other pixels' knots, and less
    # the pixel's events before t_center
    base = before[first] + np.bincount(pix, weights=p * (t < t_center))
    seg_start = np.where(first, t_lo, np.r_[t_lo, t[:-1]])
    integral = np.bincount(pix, weights=np.exp(c * (before - base[pix]))
                           * (t - seg_start))
    return sharp_log + np.log(integral.reshape(H, W) / window_us)
