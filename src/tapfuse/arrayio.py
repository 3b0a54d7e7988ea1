"""Bit-exact dense array container shared across modules.

A tensor record is u32 rank, rank u32 dims, then the row-major f64
payload, all little-endian. A TNS1 file is the magic "TNS1" and one
record; a TFW1 weights file holds one record per named parameter.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import MalformedRecord

TNS_MAGIC = b"TNS1"


def tensor_record(arr: np.ndarray) -> list:
    """The record of arr as chunks: the header bytes and the array itself,
    whose buffer b"".join or a file write reads without a tobytes() copy."""
    arr = np.ascontiguousarray(arr, dtype="<f8")
    return [struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape), arr]


def span(data: bytes, pos: int, n: int, what: str) -> int:
    """Offset just past data[pos:pos + n], which must all be there."""
    if n > len(data) - pos:
        raise MalformedRecord(f"{what} at byte {pos} needs {n} bytes, "
                              f"{len(data) - pos} left")
    return pos + n


def read_tensor_record(data: bytes, pos: int, what: str
                       ) -> tuple[np.ndarray, int]:
    """The array whose record starts at data[pos], and the offset just past
    it. A record cut short, or a shape numpy cannot hold (more than 64
    dims, or a 0-size shape whose other dims overflow), raises
    MalformedRecord."""
    dims_at = span(data, pos, 4, what)
    (rank,) = struct.unpack_from("<I", data, pos)
    at = span(data, dims_at, 4 * rank, what)
    dims = struct.unpack_from(f"<{rank}I", data, dims_at)
    count = math.prod(dims)
    end = span(data, at, 8 * count, what)
    try:
        arr = np.frombuffer(data, dtype="<f8", count=count, offset=at)
        return arr.copy().reshape(dims), end
    except ValueError as exc:
        raise MalformedRecord(f"{what} at byte {pos}: bad shape {dims}") from exc


def write_array(arr: np.ndarray) -> bytes:
    return b"".join([TNS_MAGIC, *tensor_record(arr)])


def read_array(data: bytes) -> np.ndarray:
    if data[:4] != TNS_MAGIC:
        raise MalformedRecord(f"bad array magic {data[:4]!r}")
    arr, end = read_tensor_record(data, 4, "array record")
    if end != len(data):
        raise MalformedRecord(f"{len(data) - end} bytes after the array record")
    return arr
