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
from .events import MAX_SENSOR_SIDE, EventStream, _cut
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
        if np.any(np.diff(times) <= 0):
            raise DegenerateScene("frame times must strictly increase")
        if not np.all(frames > 0):
            raise NonPositiveIntensity("intensity must be positive everywhere")
        if not np.all(frames < np.inf):
            raise DegenerateScene("intensity must be finite everywhere")
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


@dataclass(frozen=True)
class SceneConfig:
    width: int
    height: int
    duration_us: int
    fps: float
    objects: Sequence[SceneObject]
    background: float = 1.0

    def __post_init__(self):
        if not self.background > 0:
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


def _box(center: float, reach: float, side: int) -> tuple[int, int]:
    """[lo, hi): the pixels of a sensor side within reach of center."""
    return (math.floor(max(center - reach, 0.0)),
            math.floor(min(center + reach, side - 1.0)) + 1)


def _rasterize(config: SceneConfig, times: Sequence[float],
               out: np.ndarray) -> None:
    """Write the scene at each of times into the (T, H, W) array out.

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
    log_half_ulp = math.log(math.ulp(bg)) - math.log(2.0)
    reach = [obj.size + 2.0 if obj.shape == "textured_square" else
             obj.size * math.sqrt(
                 2.0 * max(math.log(obj.intensity) - log_half_ulp, 0.0)) + 2.0
             for obj in config.objects]
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
    _rasterize(config, frame_times, frames)
    video = IntensityVideo(frames=frames, frame_times=frame_times, fps=config.fps)

    gt_times = np.asarray(query_times if query_times is not None else frame_times,
                          dtype=np.int64)
    # position_at's float operations, for every object and time at once
    motion = np.array([(obj.position, obj.velocity) for obj in config.objects],
                      dtype=np.float64).reshape(-1, 2, 1, 2)
    positions = motion[:, 0] + motion[:, 1] * (gt_times / 1e6)[:, None]
    visible = np.all((0 <= positions)
                     & (positions < (config.width, config.height)), axis=2)
    for i, obj in enumerate(config.objects):
        # a later object's square hides the centres of the objects before it
        visible[:i] &= ~np.all(np.abs(positions[:i] - positions[i]) <= obj.size,
                               axis=2)
    return video, TrackSet(times=gt_times, positions=positions,
                           visibility=visible.astype(np.int64))


def simulate_events(video: IntensityVideo, c: float = DEFAULT_CONTRAST
                    ) -> EventStream:
    """Emit events where linearly interpolated log intensity crosses the
    per-pixel reference by +-c, updating the reference by +-c per event.

    Log intensity is interpolated linearly in time between frames (the
    trigger condition lives in the log domain, which makes crossing times
    closed-form), so between two frames a pixel crosses levels of one sign
    only, as in ESIM (Rebecq et al. 2018). One pass per frame interval,
    holding two frames' logs, gives each pixel floor(|q|) levels of the
    sign of q = (L1 - ref) / c, indexed by one array expression whose
    integers equal one np.arange per pixel. Timestamps are rounded to the
    nearest microsecond; the merged stream is in canonical order.

    The stream is byte-identical to an up and then a down pass, each
    counting floor(sign * (L1 - ref) / c): 1.0 * x is x and (-x) / c is
    -(x / c); after floor(q) up crossings ref is within a few ulps of L1
    or below it, so for c far above a log's ulp the down pass adds none;
    and the canonical order makes the order of emission irrelevant.
    """
    if c <= 0:
        raise DegenerateScene("contrast threshold must be positive")
    if len(video.frame_times) < 2:
        raise DegenerateScene("need at least 2 frames to simulate")
    # the caller may have written into the frames since the video was built:
    # this test fails on NaN, and an inf fails the finiteness tests of the
    # first frame's log and of each interval's q, without another pass
    if not (video.frames > 0).all():
        raise NonPositiveIntensity("intensity must be positive everywhere")
    H, W = video.frames.shape[1:]
    if max(H, W) > MAX_SENSOR_SIDE:
        raise GeometryViolation(f"{W}x{H} video: event x and y are u16, so "
                                f"a side is at most {MAX_SENSOR_SIDE} px")

    frames = video.frames.reshape(len(video.frames), -1)  # T x (H*W)
    t_first, t_last = video.frame_times[[0, -1]]
    L1 = np.log(frames[0])
    finite = "intensity must be finite everywhere"
    if not np.isfinite(L1).all():
        raise DegenerateScene(finite)
    ref = L1.copy()     # stays finite: a later inf makes q infinite there
    # each interval's (t, x, y, p) columns, in the stream's dtypes
    cols = [(np.zeros(0, np.uint64), np.zeros(0, np.uint16),
             np.zeros(0, np.uint16), np.zeros(0, np.int8))]
    for j in range(len(frames) - 1):
        L0, L1 = L1, np.log(frames[j + 1])
        t0, t1 = map(float, video.frame_times[j:j + 2])
        q = (L1 - ref) / c
        active = np.flatnonzero(np.abs(q) >= 1)
        if active.size == 0:
            continue
        if not np.isfinite(q[active]).all():
            raise DegenerateScene(finite)
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
        t = np.clip(np.round(tt).astype(np.int64), t_first, t_last)
        cols.append((t.astype(np.uint64), (pix % W).astype(np.uint16),
                     (pix // W).astype(np.uint16), s.astype(np.int8)))
        ref[active] += sign * counts * c

    t, x, y, p = map(np.concatenate, zip(*cols))
    return EventStream(t=t, x=x, y=y, p=p, width=W, height=H,
                       t_start=int(t_first), t_end=int(t_last))


def reconstruct_log_intensity(anchor: np.ndarray, stream: EventStream,
                              t0: int, query_time: int,
                              c: float = DEFAULT_CONTRAST) -> np.ndarray:
    """L(query_time) = anchor + c * sum of polarities in (t0, query_time]."""
    if query_time < t0:
        raise EmptyWindow("query_time must be >= anchor time")
    out = np.asarray(anchor, dtype=np.float64).copy()
    batch = _cut(stream, [t0, query_time])[0]
    np.add.at(out, (batch.y.astype(np.int64), batch.x.astype(np.int64)),
              c * batch.p.astype(np.float64))
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

    # an integer t lies in (t_lo, t_hi] exactly when it lies in
    # (floor(t_lo), floor(t_hi)]
    batch = _cut(stream, [math.floor(t_lo), math.floor(t_hi)])[0]
    integral = np.full((H, W), float(window_us))  # exp(0) everywhere baseline

    # group window events per pixel
    pix = batch.y.astype(np.int64) * W + batch.x.astype(np.int64)
    tt = batch.t.astype(np.float64)
    pp = batch.p.astype(np.float64)
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
