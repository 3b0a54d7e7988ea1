"""Bit-exact dense array container shared across modules.

A tensor record is u32 rank, rank u32 dims, then the row-major f64
payload, all little-endian. A TNS1 file is the magic "TNS1" and one
record; a TFW1 weights file holds one record per named parameter.
"""

from __future__ import annotations

import math
import os
import struct
from typing import Sequence

import numpy as np

from .errors import DataError, Domain, MalformedRecord

TNS_MAGIC = b"TNS1"


def record_header(shape: Sequence[int]) -> bytes:
    """The rank-and-dims header of the record of an array of that shape."""
    return struct.pack(f"<I{len(shape)}I", len(shape), *shape)


def tensor_record(arr: np.ndarray) -> list:
    """The record of arr as chunks: the header bytes and the array itself,
    whose buffer b"".join or a file write reads without a tobytes() copy."""
    arr = np.ascontiguousarray(arr, dtype="<f8")
    return [record_header(arr.shape), arr]


def span(data: bytes, pos: int, n: int, what: str) -> int:
    """Offset just past data[pos:pos + n], which must all be there."""
    if n > len(data) - pos:
        raise MalformedRecord(f"{what} at byte {pos} needs {n} bytes, "
                              f"{len(data) - pos} left")
    return pos + n


def record_dims(data: bytes, pos: int, what: str
                ) -> tuple[tuple[int, ...], int]:
    """The dims of the record whose header starts at data[pos], and the
    offset of its payload. A header cut short raises MalformedRecord."""
    dims_at = span(data, pos, 4, what)
    (rank,) = struct.unpack_from("<I", data, pos)
    at = span(data, dims_at, 4 * rank, what)
    return struct.unpack_from(f"<{rank}I", data, dims_at), at


def read_tensor_record(data: bytes, pos: int, what: str
                       ) -> tuple[np.ndarray, int]:
    """The array whose record starts at data[pos], and the offset just past
    it. A record cut short, or a shape numpy cannot hold (more than 64
    dims, or a 0-size shape whose other dims overflow), raises
    MalformedRecord."""
    dims, at = record_dims(data, pos, what)
    count = math.prod(dims)
    end = span(data, at, 8 * count, what)
    try:
        arr = np.frombuffer(data, dtype="<f8", count=count, offset=at)
        return arr.copy().reshape(dims), end
    except ValueError as exc:
        raise MalformedRecord(f"{what} at byte {pos}: bad shape {dims}") from exc


def write_array(arr: np.ndarray) -> bytes:
    return b"".join([TNS_MAGIC, *tensor_record(arr)])


# the longest header of an array numpy can hold: magic, rank and 64 dims
MAX_HEADER = 8 + 4 * 64


def tns_header(head: bytes, size: int) -> tuple[tuple[int, ...], int]:
    """The dims and the payload offset of the array in a TNS1 file of size
    bytes whose first bytes are head: the whole file, or at least
    MAX_HEADER bytes of it. Bad magic, a header cut short, and a payload
    short of the dims or followed by more bytes raise MalformedRecord."""
    if head[:4] != TNS_MAGIC:
        raise MalformedRecord(f"bad array magic {head[:4]!r}")
    dims, at = record_dims(head, 4, "array record")
    extra = size - at - 8 * math.prod(dims)
    if extra < 0:
        raise MalformedRecord(f"array record payload at byte {at} is "
                              f"{-extra} bytes short of its dims {dims}")
    if extra > 0:
        raise MalformedRecord(f"{extra} bytes after the array record")
    return dims, at


def read_array(data: bytes) -> np.ndarray:
    tns_header(data, len(data))
    return read_tensor_record(data, 4, "array record")[0]


def read_frames(path: str | os.PathLike, indices: Sequence[int]
                ) -> np.ndarray:
    """The frames at indices, in their order, of the (T, H, W) video in the
    TNS1 file at path. The header and the file's length are checked first;
    then only those frames' bytes are read. A video of another rank, no
    index, an index that is not an integer in 0..T-1, or a non-finite
    value in a frame read raises DataError."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        dims, at = tns_header(f.read(MAX_HEADER), size)
        if len(dims) != 3:
            raise DataError(f"frames container must be rank 3, got {len(dims)}")
        n, height, width = dims
        if not len(indices):
            raise DataError("no frame index was asked for")
        index = Domain(0, n - 1, integer=True)
        indices = [index.check("frame index", i, DataError) for i in indices]
        frames = np.empty((len(indices), height, width), dtype="<f8")
        for frame, i in zip(frames, indices):
            f.seek(at + i * frame.nbytes)
            if f.readinto(frame) != frame.nbytes:
                raise MalformedRecord(f"frame {i} cut short")
            if not np.isfinite(frame).all():
                raise DataError(f"frame {i} holds a non-finite value")
    return frames
