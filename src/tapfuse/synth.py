"""Synthetic scenes, the event generation model, and the EDI blur model.

This module is the physics oracle for everything downstream: it renders
analytic intensity videos with exact ground-truth trajectories, converts
them to event streams by tracking per-pixel log-intensity threshold
crossings, reconstructs log intensity from events, and evaluates the
event-based double-integral blur relation piecewise-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateScene,
    EmptyWindow,
    GeometryViolation,
    NonPositiveIntensity,
)
from .events import MAX_SENSOR_SIDE, EventStream
from .tracker import TrackSet

DEFAULT_CONTRAST = 0.2


@dataclass(frozen=True)
class IntensityVideo:
    """Linear-intensity frames (all values > 0) at integer-microsecond times."""

    frames: np.ndarray       # T x H x W, positive reals
    frame_times: np.ndarray  # T, int64 microseconds
    fps: float

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float64)
        times = np.asarray(self.frame_times, dtype=np.int64)
        if frames.ndim != 3 or frames.shape[0] != times.shape[0]:
            raise DegenerateScene("frames/frame_times shape mismatch")
        if np.any(frames <= 0):
            raise NonPositiveIntensity("intensity must be positive everywhere")
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "frame_times", times)


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

    def covers(self, px: float, py: float, t_us: float) -> bool:
        cx, cy = self.position_at(t_us)
        return max(abs(px - cx), abs(py - cy)) <= self.size


@dataclass(frozen=True)
class SceneConfig:
    width: int
    height: int
    duration_us: int
    fps: float
    objects: Sequence[SceneObject]
    background: float = 1.0

    def __post_init__(self):
        if self.background <= 0:
            raise DegenerateScene("background intensity must be positive")
        for obj in self.objects:
            if not all(map(math.isfinite, (*obj.position, *obj.velocity,
                                           obj.size, obj.intensity))):
                raise DegenerateScene(f"non-finite object value in {obj}")
            if obj.size <= 0:
                raise DegenerateScene("zero-size object")
            if obj.intensity <= 0:
                raise DegenerateScene("non-positive object intensity")
            if obj.shape not in ("gaussian_blob", "textured_square"):
                raise DegenerateScene(f"unknown shape {obj.shape!r}")


def _rasterize(config: SceneConfig, t_us: float, out: np.ndarray) -> None:
    """Write the scene at t_us into the (H, W) array out. An (H, 1) row
    coordinate broadcasts against a (1, W) column coordinate; each pixel
    takes the same float operations as on a full np.mgrid, so the frame is
    byte-identical to that as long as numpy's exp and sin give an element
    the same value whatever the array's shape (pinned in test_synth.py)."""
    yy = np.arange(config.height, dtype=np.float64)[:, None]
    xx = np.arange(config.width, dtype=np.float64)
    out.fill(config.background)
    for obj in config.objects:
        cx, cy = obj.position_at(t_us)
        if obj.shape == "gaussian_blob":
            out += obj.intensity * np.exp(
                -((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * obj.size ** 2))
        else:  # textured_square, texture anchored to the object
            inside = (np.abs(xx - cx) <= obj.size) & (np.abs(yy - cy) <= obj.size)
            tex = 0.6 + 0.4 * np.sin(2 * np.pi * (xx - cx) / 4.0) \
                * np.sin(2 * np.pi * (yy - cy) / 4.0)
            np.copyto(out, config.background + obj.intensity * tex, where=inside)


def render_intensity_video(config: SceneConfig,
                           query_times: Sequence[int] | None = None
                           ) -> tuple[IntensityVideo, TrackSet]:
    """Render the scene at each frame time and sample exact ground truth,
    one track per object.

    Ground truth is sampled on query_times when given (must contain the
    frame grid or be denser), else on the frame grid itself. Visibility
    flips to 0 when an object's center leaves the image or is covered by
    a nearer (later-listed) object.
    """
    n_frames = int(round(config.fps * config.duration_us / 1e6))
    if n_frames < 2:
        raise DegenerateScene("need at least 2 frames (fps * duration >= 2)")
    frame_times = np.round(np.arange(n_frames) * 1e6 / config.fps).astype(np.int64)
    frames = np.empty((n_frames, config.height, config.width))
    for frame, t in zip(frames, frame_times):
        _rasterize(config, t, frame)
    video = IntensityVideo(frames=frames, frame_times=frame_times, fps=config.fps)

    gt_times = np.asarray(query_times if query_times is not None else frame_times,
                          dtype=np.int64)
    Q, T = len(config.objects), len(gt_times)
    positions = np.zeros((Q, T, 2))
    visibility = np.zeros((Q, T), dtype=np.int64)
    for qi, obj in enumerate(config.objects):
        for ti, t in enumerate(gt_times):
            px, py = obj.position_at(t)
            positions[qi, ti] = (px, py)
            in_bounds = 0 <= px < config.width and 0 <= py < config.height
            occluded = any(other.covers(px, py, t)
                           for other in config.objects[qi + 1:])
            visibility[qi, ti] = int(in_bounds and not occluded)
    return video, TrackSet(times=gt_times, positions=positions,
                           visibility=visibility)


def simulate_events(video: IntensityVideo, c: float = DEFAULT_CONTRAST
                    ) -> EventStream:
    """Emit events where linearly interpolated log intensity crosses the
    per-pixel reference by +-c, updating the reference by +-c per event.

    Log intensity is interpolated linearly in time between frames (the
    trigger condition lives in the log domain, which makes crossing times
    closed-form). Timestamps are rounded to the nearest microsecond and
    the merged stream is returned in canonical order. The level index is
    built in one array expression whose integers equal one np.arange per
    pixel, so the stream is byte-identical to that loop's.
    """
    if c <= 0:
        raise DegenerateScene("contrast threshold must be positive")
    if len(video.frame_times) < 2:
        raise DegenerateScene("need at least 2 frames to simulate")
    if np.any(video.frames <= 0):
        raise NonPositiveIntensity("intensity must be positive everywhere")
    H, W = video.frames.shape[1:]
    if max(H, W) > MAX_SENSOR_SIDE:
        raise GeometryViolation(f"{W}x{H} video: event x and y are u16, so "
                                f"a side is at most {MAX_SENSOR_SIDE} px")

    L = np.log(video.frames.reshape(len(video.frames), -1))  # T x (H*W)
    n_pix = H * W
    ref = L[0].copy()
    ts_out, pix_out, pol_out = [], [], []

    for j in range(len(video.frame_times) - 1):
        L0, L1 = L[j], L[j + 1]
        t0 = float(video.frame_times[j])
        t1 = float(video.frame_times[j + 1])
        slope = L1 - L0
        for sign in (1.0, -1.0):
            # number of +-c levels crossed moving from ref toward L1
            n = np.floor(sign * (L1 - ref) / c).astype(np.int64)
            n = np.maximum(n, 0)
            active = np.flatnonzero(n > 0)
            if active.size == 0:
                continue
            counts = n[active]
            pix = np.repeat(active, counts)
            # level index 1..n per pixel: running index minus pixel start
            k = np.arange(1, pix.size + 1) - np.repeat(np.cumsum(counts) - counts,
                                                        counts)
            levels = ref[pix] + sign * k * c
            with np.errstate(divide="ignore", invalid="ignore"):
                tt = t0 + (levels - L0[pix]) / slope[pix] * (t1 - t0)
            # float rounding can carry a level crossed at the end of the
            # previous interval over to a pixel that holds still in this one
            tt[~np.isfinite(tt)] = t0
            ts_out.append(np.round(tt).astype(np.int64))
            pix_out.append(pix)
            pol_out.append(np.full(pix.shape, int(sign), dtype=np.int8))
            ref[active] += sign * counts * c

    if ts_out:
        t = np.concatenate(ts_out)
        pix = np.concatenate(pix_out)
        p = np.concatenate(pol_out)
    else:
        t = np.zeros(0, dtype=np.int64)
        pix = np.zeros(0, dtype=np.int64)
        p = np.zeros(0, dtype=np.int8)
    t = np.clip(t, video.frame_times[0], video.frame_times[-1])
    return EventStream(
        t=t.astype(np.uint64),
        x=(pix % W).astype(np.uint16),
        y=(pix // W).astype(np.uint16),
        p=p,
        width=W, height=H,
        t_start=int(video.frame_times[0]), t_end=int(video.frame_times[-1]))


def reconstruct_log_intensity(anchor: np.ndarray, stream: EventStream,
                              t0: int, query_time: int,
                              c: float = DEFAULT_CONTRAST) -> np.ndarray:
    """L(query_time) = anchor + c * sum of polarities in (t0, query_time]."""
    if query_time < t0:
        raise EmptyWindow("query_time must be >= anchor time")
    out = np.asarray(anchor, dtype=np.float64).copy()
    lo = np.searchsorted(stream.t, np.uint64(max(t0, 0)), side="right")
    hi = np.searchsorted(stream.t, np.uint64(max(query_time, 0)), side="right")
    if hi > lo:
        np.add.at(out, (stream.y[lo:hi].astype(np.int64),
                        stream.x[lo:hi].astype(np.int64)),
                  c * stream.p[lo:hi].astype(np.float64))
    return out


def edi_blur(sharp_log: np.ndarray, stream: EventStream, t_center: int,
             window_us: int, c: float = DEFAULT_CONTRAST) -> np.ndarray:
    """Blurred log frame via the double-integral relation.

    Returns sharp_log + log((1/T) * integral of exp(c * E(t)) dt) over
    (t_center - T/2, t_center + T/2], where E(t) at a pixel is the signed
    cumulative event count relative to t_center. The integral is evaluated
    exactly on the piecewise-constant segments between event timestamps.
    An event exactly at t_center counts toward the forward half only.
    """
    if window_us <= 0:
        raise EmptyWindow("window duration must be positive")
    sharp_log = np.asarray(sharp_log, dtype=np.float64)
    H, W = sharp_log.shape
    half = window_us / 2.0
    t_lo, t_hi = t_center - half, t_center + half

    lo = np.searchsorted(stream.t.astype(np.float64), t_lo, side="right")
    hi = np.searchsorted(stream.t.astype(np.float64), t_hi, side="right")
    integral = np.full((H, W), float(window_us))  # exp(0) everywhere baseline

    # group window events per pixel
    pix = (stream.y[lo:hi].astype(np.int64) * W + stream.x[lo:hi].astype(np.int64))
    tt = stream.t[lo:hi].astype(np.float64)
    pp = stream.p[lo:hi].astype(np.float64)
    order = np.argsort(pix, kind="stable")
    pix, tt, pp = pix[order], tt[order], pp[order]
    starts = (np.flatnonzero(np.r_[True, pix[1:] != pix[:-1]])
              if pix.size else np.zeros(0, dtype=np.int64))
    for si, s in enumerate(starts):
        e = starts[si + 1] if si + 1 < len(starts) else len(pix)
        times, pols = tt[s:e], pp[s:e]
        fwd = times >= t_center
        acc = 0.0
        # forward half: E steps up at each event time
        knots = np.r_[t_center, times[fwd], t_hi]
        levels = np.r_[0.0, np.cumsum(pols[fwd])]
        for a, b, ee in zip(knots[:-1], knots[1:], levels):
            acc += math.exp(c * ee) * (b - a)
        # backward half: walking back from t_center, E drops by p at each event
        bt, bp = times[~fwd][::-1], pols[~fwd][::-1]
        knots = np.r_[t_center, bt, t_lo]
        levels = np.r_[0.0, -np.cumsum(bp)]
        for a, b, ee in zip(knots[:-1], knots[1:], levels):
            acc += math.exp(c * ee) * (a - b)
        integral.reshape(-1)[pix[s]] = acc
    return sharp_log + np.log(integral / float(window_us))
