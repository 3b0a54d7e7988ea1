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


def _pixels(batch: EventBatch, width: int, height: int) -> np.ndarray:
    """Each event's pixel index y * width + x, once the events are checked
    to lie in a width x height frame."""
    if len(batch) and (int(batch.x.max()) >= width or int(batch.y.max()) >= height):
        raise GeometryMismatch(
            f"batch events exceed {width}x{height} target geometry")
    return batch.y.astype(np.int64) * width + batch.x


def _cells(batch: EventBatch, width: int, height: int) -> np.ndarray:
    """_pixels of a batch long enough to split into sub-windows."""
    if batch.duration <= 0:
        raise GeometryMismatch("batch duration must be positive")
    return _pixels(batch, width, height)


def _subwindow_index(batch: EventBatch, B: int) -> np.ndarray:
    """Sub-window index per event for the right-closed convention: sub-window
    k of the bin is (k * duration / B, (k + 1) * duration / B] after
    bin_start, so an event at exactly a sub-window's end belongs to that
    sub-window. In integers, the first k with rel <= (k + 1) * duration // B
    is (rel * B - 1) // duration, exact while duration * B < 2**64."""
    if batch.duration * B >= 2**64:
        raise GeometryMismatch(
            f"batch duration {batch.duration} x {B} sub-windows exceeds 2**64")
    # bin_start < t <= bin_end, so rel lies in [1, duration]; a bin_start
    # below 0 subtracts modulo 2**64, which adds its magnitude
    rel = batch.t - np.uint64(batch.bin_start % 2**64)
    rel *= np.uint64(B)
    rel -= np.uint64(1)
    rel //= np.uint64(batch.duration)
    return rel.astype(np.int64)


def _subwindow_values(batch: EventBatch, B: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Each event's sub-window b and time-surface value p * m, where m is
    (t - s_b) / len_b clamped to [0, 1] and s_b the sub-window's start."""
    b = _subwindow_index(batch, B)
    len_b = batch.duration / B
    s_b = float(batch.bin_start) + b * len_b
    # s_b is rounded apart from t, so an event at a sub-window's end can
    # come out a few ulps above 1; past 2**53, where times round, one just
    # after a sub-window's start can come out below 0
    mag = np.clip((batch.t.astype(np.float64) - s_b) / len_b, 0.0, 1.0)
    return b, batch.p.astype(np.float64) * mag


def _last_write(out: np.ndarray, flat: np.ndarray, val: np.ndarray) -> None:
    """Write into the flat, zero-filled float64 out, at each index that
    flat holds, the val of the last event in batch order to hold it.

    The last write is found in O(n) with out as its only scratch:
    np.maximum.at leaves each touched index holding its last event's
    1-based position, the events whose position it holds are the last
    ones, and their values overwrite it; no index is assigned twice."""
    # the 1-based positions are exact in float64 below 2**53 events
    order = np.arange(1, len(flat) + 1, dtype=np.float64)
    np.maximum.at(out, flat, order)
    last = out[flat] == order
    out[flat[last]] = val[last]


def sbt_time_surface(batch: EventBatch, width: int, height: int,
                     B: int = DEFAULT_SUBWINDOWS) -> EventTensor:
    """Maximal-timestamp time surface: per pixel and sub-window, the value
    is p* m*, with m* = (t* - s_b) / len_b clamped to [0, 1], of the cell's
    last event in batch order (canonical order, so the latest event and,
    at equal t, the larger polarity); +0.0 where no event falls."""
    cells = _cells(batch, width, height)
    data = np.zeros((height, width, B), dtype=np.float64)
    if len(batch):
        b, val = _subwindow_values(batch, B)
        _last_write(data.reshape(-1), cells * B + b, val)
    return EventTensor(data=data)


def event_count_image(batch: EventBatch, width: int, height: int,
                      B: int = DEFAULT_SUBWINDOWS) -> EventTensor:
    """Signed event count (sum of polarities) per pixel and sub-window,
    summed in event order."""
    cells = _cells(batch, width, height) * B + _subwindow_index(batch, B)
    data = np.bincount(cells, weights=batch.p, minlength=height * width * B)
    # an empty batch gives integer zeros
    return EventTensor(data=data.astype(np.float64, copy=False)
                       .reshape(height, width, B))


def voxel_grid(batch: EventBatch, width: int, height: int,
               B: int = DEFAULT_SUBWINDOWS) -> EventTensor:
    """Triangular-kernel voxel grid: each event's polarity mass is split
    between the two nearest temporal channels by linear interpolation.

    Channel centers sit at bin_start + (b + 0.5)/B of the bin; events
    outside the outermost centers give full mass to the nearest channel,
    so per-event mass is always conserved.
    """
    cells = _cells(batch, width, height) * B
    # subtracted in u64 as in _subwindow_index, so times past 2**53 keep
    # their offset into the bin exact up to the one rounding of the cast
    rel = (batch.t - np.uint64(batch.bin_start % 2**64)).astype(np.float64)
    u = rel / float(batch.duration) * B - 0.5  # channel coordinate
    u = np.clip(u, 0.0, B - 1.0)
    lo = np.floor(u).astype(np.int64)
    hi = np.minimum(lo + 1, B - 1)
    w_hi = u - lo
    pol = batch.p.astype(np.float64)
    # each cell sums its events' low shares in event order, then their
    # high shares
    data = np.bincount(np.concatenate((cells + lo, cells + hi)),
                       weights=np.concatenate((pol * (1.0 - w_hi), pol * w_hi)),
                       minlength=height * width * B)
    return EventTensor(data=data.astype(np.float64, copy=False)
                       .reshape(height, width, B))


REPRESENTATIONS = {
    "time_surface": sbt_time_surface,
    "count_image": event_count_image,
    "voxel_grid": voxel_grid,
}
