"""Bit-exact dense array container shared across modules.

Layout: magic "TNS1", u32 rank, rank u32 dims, then the row-major f64
payload, all little-endian.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import MalformedRecord

TNS_MAGIC = b"TNS1"


def write_array(arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    head = TNS_MAGIC + struct.pack("<I", arr.ndim)
    head += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return head + arr.tobytes()


def read_array(data: bytes) -> np.ndarray:
    if data[:4] != TNS_MAGIC:
        raise MalformedRecord(f"bad array magic {data[:4]!r}")
    if len(data) < 8:
        raise MalformedRecord(f"array header cut short at {len(data)} bytes")
    (rank,) = struct.unpack_from("<I", data, 4)
    offset = 8 + 4 * rank
    if len(data) < offset:
        raise MalformedRecord(
            f"array header is {len(data)} bytes, rank {rank} needs {offset}")
    dims = struct.unpack_from(f"<{rank}I", data, 8)
    count = int(np.prod(dims)) if rank else 1
    if len(data) != offset + 8 * count:
        raise MalformedRecord(
            f"array payload is {len(data) - offset} bytes, expected {8 * count}")
    return np.frombuffer(data, dtype="<f8", count=count, offset=offset) \
        .copy().reshape(dims)
