"""Dense tensor representations of event batches.

Three kinds, all H x W x B float64: the default maximal-timestamp SBT
time surface, a signed event-count image, and a triangular-kernel voxel
grid. The bin (bin_start, bin_end] is split into B equal sub-windows; the
time surface and count image are computed per sub-window, while the voxel
grid places its B channel centers at (b + 0.5)/B of the bin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryMismatch
from .events import EventBatch

DEFAULT_SUBWINDOWS = 5


@dataclass(frozen=True)
class EventTensor:
    data: np.ndarray  # H x W x B float64
    bin_start: int
    bin_end: int
    kind: str  # time_surface | count_image | voxel_grid


def _check_geometry(batch: EventBatch, width: int, height: int):
    if len(batch) and (int(batch.x.max()) >= width or int(batch.y.max()) >= height):
        raise GeometryMismatch(
            f"batch events exceed {width}x{height} target geometry")
    if batch.duration <= 0:
        raise GeometryMismatch("batch duration must be positive")


def _subwindow_index(batch: EventBatch, B: int) -> np.ndarray:
    """Sub-window index per event for the right-closed convention: event at
    exactly a sub-window's end belongs to that sub-window."""
    rel = batch.t.astype(np.float64) - float(batch.bin_start)
    frac = rel / float(batch.duration)  # in (0, 1]
    b = np.ceil(frac * B) - 1
    return np.clip(b, 0, B - 1).astype(np.int64)


def sbt_time_surface(batch: EventBatch, width: int, height: int,
                     B: int = DEFAULT_SUBWINDOWS) -> EventTensor:
    """Maximal-timestamp time surface: per pixel and sub-window, the value
    is p* (t* - s_b) / len_b of the latest event there; 0 where none."""
    _check_geometry(batch, width, height)
    data = np.zeros((height, width, B), dtype=np.float64)
    if len(batch):
        b = _subwindow_index(batch, B)
        len_b = batch.duration / B
        s_b = float(batch.bin_start) + b * len_b
        # s_b is rounded apart from t, so an event at a sub-window's end can
        # come out a few ulps above 1
        mag = np.minimum((batch.t.astype(np.float64) - s_b) / len_b, 1.0)
        val = batch.p.astype(np.float64) * mag
        flat = (batch.y.astype(np.int64) * width + batch.x.astype(np.int64)) * B + b
        # canonical batch order is time-ascending, so keep the last write
        # per cell: sort stably by cell, take each group's final entry
        order = np.argsort(flat, kind="stable")
        flat, val = flat[order], val[order]
        last = np.flatnonzero(np.r_[flat[1:] != flat[:-1], True])
        data.reshape(-1)[flat[last]] = val[last]
    return EventTensor(data=data, bin_start=batch.bin_start,
                       bin_end=batch.bin_end, kind="time_surface")


def event_count_image(batch: EventBatch, width: int, height: int,
                      B: int = DEFAULT_SUBWINDOWS) -> EventTensor:
    """Signed event count (sum of polarities) per pixel and sub-window."""
    _check_geometry(batch, width, height)
    data = np.zeros((height, width, B), dtype=np.float64)
    if len(batch):
        b = _subwindow_index(batch, B)
        np.add.at(data, (batch.y.astype(np.int64), batch.x.astype(np.int64), b),
                  batch.p.astype(np.float64))
    return EventTensor(data=data, bin_start=batch.bin_start,
                       bin_end=batch.bin_end, kind="count_image")


def voxel_grid(batch: EventBatch, width: int, height: int,
               B: int = DEFAULT_SUBWINDOWS) -> EventTensor:
    """Triangular-kernel voxel grid: each event's polarity mass is split
    between the two nearest temporal channels by linear interpolation.

    Channel centers sit at bin_start + (b + 0.5)/B of the bin; events
    outside the outermost centers give full mass to the nearest channel,
    so per-event mass is always conserved.
    """
    _check_geometry(batch, width, height)
    data = np.zeros((height, width, B), dtype=np.float64)
    if len(batch):
        rel = batch.t.astype(np.float64) - float(batch.bin_start)
        u = rel / float(batch.duration) * B - 0.5  # channel coordinate
        u = np.clip(u, 0.0, B - 1.0)
        lo = np.floor(u).astype(np.int64)
        hi = np.minimum(lo + 1, B - 1)
        w_hi = u - lo
        pol = batch.p.astype(np.float64)
        yy = batch.y.astype(np.int64)
        xx = batch.x.astype(np.int64)
        np.add.at(data, (yy, xx, lo), pol * (1.0 - w_hi))
        np.add.at(data, (yy, xx, hi), pol * w_hi)
    return EventTensor(data=data, bin_start=batch.bin_start,
                       bin_end=batch.bin_end, kind="voxel_grid")


REPRESENTATIONS = {
    "time_surface": sbt_time_surface,
    "count_image": event_count_image,
    "voxel_grid": voxel_grid,
}
