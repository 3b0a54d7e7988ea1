"""Event data model, bit-exact file I/O, and temporal binning.

Events are timestamped polarity spikes (x, y, t, p). Streams keep a
canonical sort order (t, y, x, p) so that every downstream dense
representation is deterministic regardless of wire order. Timestamps are
64-bit unsigned microseconds throughout; no floating-point time is used
anywhere in this module.
"""

from __future__ import annotations

import io
import re
import struct
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    ConfigError,
    EmptyTimeline,
    GeometryViolation,
    MalformedRecord,
    NonMonotonicHeader,
)

EVBIN_MAGIC = b"EVB1"
# x and y are u16, so a sensor side holds at most 2**16 pixels
MAX_SENSOR_SIDE = 65536
# (u64 t, u16 x, u16 y, i8 p, 3 zero pad bytes), little-endian, 16 bytes.
EVBIN_RECORD = np.dtype([
    ("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "i1"), ("pad", "u1", 3),
])


class Event(NamedTuple):
    x: int
    y: int
    t: int
    p: int


def _is_canonical(t, x, y, p) -> bool:
    """Whether the columns are already in (t, y, x, p) order, in O(n): t
    never decreases, and a packed (y, x, p) key never decreases where t
    ties. p must hold only -1 and +1."""
    if (t[1:] < t[:-1]).any():
        return False
    tied = t[1:] == t[:-1]
    if not tied.any():
        return True
    key = (y.astype(np.uint64) << 17) | (x.astype(np.uint64) << 1) | (p > 0)
    return not (key[1:][tied] < key[:-1][tied]).any()


@dataclass(frozen=True)
class EventStream:
    """A canonically sorted event stream with mandatory sensor geometry.

    Columns are stored as parallel numpy arrays: t (uint64 microseconds),
    x/y (uint16), p (int8, values -1/+1).
    """

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray
    width: int
    height: int
    t_start: int
    t_end: int

    def __post_init__(self):
        if self.t_end < self.t_start:
            raise NonMonotonicHeader(
                f"t_end={self.t_end} < t_start={self.t_start}")
        object.__setattr__(self, "t", np.asarray(self.t, dtype=np.uint64))
        object.__setattr__(self, "x", np.asarray(self.x, dtype=np.uint16))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=np.uint16))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=np.int8))
        if not (len(self.t) == len(self.x) == len(self.y) == len(self.p)):
            raise MalformedRecord("column length mismatch")
        if len(self.p) and not np.all(np.abs(self.p) == 1):
            raise MalformedRecord("polarity must be -1 or +1")
        if len(self.x) and (self.x.max() >= self.width or self.y.max() >= self.height):
            raise GeometryViolation(
                f"event outside {self.width}x{self.height} sensor")
        if len(self.t) and (self.t.min() < self.t_start or self.t.max() > self.t_end):
            raise NonMonotonicHeader("event timestamp outside [t_start, t_end]")
        if not _is_canonical(self.t, self.x, self.y, self.p):
            order = np.lexsort((self.p, self.x, self.y, self.t))
            object.__setattr__(self, "t", self.t[order])
            object.__setattr__(self, "x", self.x[order])
            object.__setattr__(self, "y", self.y[order])
            object.__setattr__(self, "p", self.p[order])

    def __len__(self):
        return len(self.t)

    def __getitem__(self, i: int) -> Event:
        return Event(int(self.x[i]), int(self.y[i]), int(self.t[i]), int(self.p[i]))

    @classmethod
    def from_events(cls, events: Iterable[Event], width: int, height: int,
                    t_start: int, t_end: int) -> "EventStream":
        evs = list(events)
        return cls(
            t=np.array([e.t for e in evs], dtype=np.uint64),
            x=np.array([e.x for e in evs], dtype=np.uint16),
            y=np.array([e.y for e in evs], dtype=np.uint16),
            p=np.array([e.p for e in evs], dtype=np.int8),
            width=width, height=height, t_start=t_start, t_end=t_end,
        )


@dataclass(frozen=True)
class EventBatch:
    """Events of one time bin (bin_start, bin_end], half-open right-closed."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray
    bin_start: int
    bin_end: int

    def __post_init__(self):
        if len(self.t) and (int(self.t.min()) <= self.bin_start
                            or int(self.t.max()) > self.bin_end):
            raise MalformedRecord(
                "batch events must satisfy bin_start < t <= bin_end")

    def __len__(self):
        return len(self.t)

    @property
    def duration(self) -> int:
        return self.bin_end - self.bin_start


@dataclass(frozen=True)
class Timeline:
    """Frame arrival times and the denser tracker query-time grid."""

    frame_times: Sequence[int]
    query_times: Sequence[int]
    exposure_us: int

    def __post_init__(self):
        object.__setattr__(self, "frame_times", tuple(int(t) for t in self.frame_times))
        object.__setattr__(self, "query_times", tuple(int(t) for t in self.query_times))
        if any(b <= a for a, b in zip(self.frame_times, self.frame_times[1:])):
            raise MalformedRecord("frame_times must be strictly ascending")
        if any(b <= a for a, b in zip(self.query_times, self.query_times[1:])):
            raise MalformedRecord("query_times must be strictly ascending")
        if len(self.frame_times) > len(self.query_times):
            raise MalformedRecord("query grid must be at least as dense as frames")
        qset = set(self.query_times)
        if not all(ft in qset for ft in self.frame_times):
            raise MalformedRecord("every frame time must land on the query grid")
        if self.exposure_us <= 0:
            raise MalformedRecord("exposure_us must be positive")


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------

def parse_event_stream(source: bytes, format: str = "csv") -> EventStream:
    """Parse a byte buffer in csv or evbin format into an EventStream."""
    if format == "csv":
        return _parse_csv(source)
    if format == "evbin":
        return _parse_evbin(source)
    raise ConfigError(f"unknown event format {format!r}")


def serialize_event_stream(stream: EventStream, format: str = "csv") -> bytes:
    if format == "csv":
        return _write_csv(stream)
    if format == "evbin":
        return _write_evbin(stream)
    raise ConfigError(f"unknown event format {format!r}")


# One CSV record: loadtxt rejects a field that is not an integer of its
# column's type, so a minus sign on t, x or y, x or y above 65535, t above
# 2**64 - 1 and p outside int8 are parse errors; EventStream rejects the
# other polarities.
_CSV_RECORD = np.dtype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "i1")])
# spaces or tabs that open a blank or a header line: loadtxt skips a line
# only when it is empty or starts with the comment character
_LINE_INDENT = re.compile(rb"^[ \t]+(?=#|\r?$)", re.MULTILINE)
_NON_SPACE = re.compile(rb"\S")
# events per CSV formatting block, small enough for its scratch to stay in
# cache
_CSV_BLOCK = 1 << 14


def _read_header_line(line: bytes, header: dict[str, int], lineno: int):
    try:
        tokens = line.decode("utf-8").split()
    except UnicodeDecodeError as exc:
        raise MalformedRecord(f"line {lineno}: header is not UTF-8: {exc}") from exc
    for token in tokens:
        if "=" not in token:
            raise MalformedRecord(f"line {lineno}: bad header token {token!r}")
        key, _, val = token.partition("=")
        try:
            header[key] = int(val)
        except ValueError as exc:
            raise MalformedRecord(f"line {lineno}: non-integer {token!r}") from exc


def _parse_csv(source: bytes) -> EventStream:
    """Header lines are found with bytes.find, then one np.loadtxt pass
    over the whole buffer parses the records and skips the header lines as
    comments."""
    header: dict[str, int] = {}
    has_data = spaced = False
    pos, lineno = 0, 1      # the start of a line and its number
    while True:
        hash_at = source.find(b"#", pos)
        data_end = len(source) if hash_at < 0 else hash_at
        has_data = has_data or _NON_SPACE.search(source, pos, data_end) is not None
        spaced = (spaced or source.find(b" ", pos, data_end) >= 0
                  or source.find(b"\t", pos, data_end) >= 0)
        if hash_at < 0:
            break
        lineno += source.count(b"\n", pos, hash_at)
        line_start = max(pos, source.rfind(b"\n", pos, hash_at) + 1)
        if source[line_start:hash_at].strip(b" \t"):
            raise MalformedRecord(f"line {lineno}: '#' inside a data line")
        eol = source.find(b"\n", hash_at)
        eol = len(source) if eol < 0 else eol
        _read_header_line(source[hash_at + 1:eol], header, lineno)
        pos, lineno = eol + 1, lineno + 1
    if spaced:
        source = _LINE_INDENT.sub(b"", source)
    missing = {"width", "height", "t_start", "t_end"} - set(header)
    if missing:
        raise MalformedRecord(f"missing header keys: {sorted(missing)}")
    rec = np.zeros(0, dtype=_CSV_RECORD)
    if has_data:
        try:
            rec = np.loadtxt(io.BytesIO(source), dtype=_CSV_RECORD,
                             delimiter=",", comments="#", ndmin=1)
        except ValueError as exc:
            raise MalformedRecord(f"csv record: {exc}") from exc
    return EventStream(
        t=rec["t"].copy(), x=rec["x"].copy(), y=rec["y"].copy(),
        p=rec["p"].copy(), width=header["width"], height=header["height"],
        t_start=header["t_start"], t_end=header["t_end"],
    )


def _write_csv(stream: EventStream) -> bytes:
    """Lines of t,x,y,p in decimal, formatted in numpy a block at a time."""
    chunks = [f"# width={stream.width} height={stream.height} "
              f"t_start={stream.t_start} t_end={stream.t_end}\n".encode()]
    for lo in range(0, len(stream), _CSV_BLOCK):
        block = slice(lo, lo + _CSV_BLOCK)
        numbers = (stream.t[block], stream.x[block], stream.y[block])
        widths = [len(str(int(v.max()))) for v in numbers]
        # text[i, k] is byte i of event k's line: each number zero-padded
        # to its block width and a comma, then "-1" and a newline; keep
        # drops the padding zeros, and the "-" where p is +1
        text = np.empty((sum(widths) + 6, len(numbers[0])), dtype=np.uint8)
        keep = np.ones(text.shape, dtype=bool)
        row = 0
        for v, width in zip(numbers, widths):
            for i in range(row + width - 1, row, -1):
                v, text[i] = np.divmod(v, 10)
                keep[i - 1] = v != 0
            text[row] = v
            text[row:row + width] += ord("0")
            text[row + width] = ord(",")
            row += width + 1
        text[row], text[row + 1], text[row + 2] = ord("-"), ord("1"), ord("\n")
        keep[row] = stream.p[block] < 0
        chunks.append(text.T[keep.T])
    return b"".join(chunks)


_EVBIN_HEADER = struct.Struct("<4sIIQQQ")


def _parse_evbin(source: bytes) -> EventStream:
    if len(source) < _EVBIN_HEADER.size:
        raise MalformedRecord("evbin buffer shorter than header")
    magic, width, height, t_start, t_end, count = _EVBIN_HEADER.unpack_from(source)
    if magic != EVBIN_MAGIC:
        raise MalformedRecord(f"bad magic {magic!r}")
    if t_end < t_start:
        raise NonMonotonicHeader(f"t_end={t_end} < t_start={t_start}")
    body = source[_EVBIN_HEADER.size:]
    if len(body) != count * EVBIN_RECORD.itemsize:
        raise MalformedRecord(
            f"expected {count} records ({count * EVBIN_RECORD.itemsize} bytes), "
            f"got {len(body)} bytes")
    rec = np.frombuffer(body, dtype=EVBIN_RECORD)
    if rec.size and np.any(rec["pad"] != 0):
        raise MalformedRecord("nonzero pad bytes")
    p = rec["p"]
    if rec.size and not np.all(np.abs(p.astype(np.int16)) == 1):
        raise MalformedRecord("polarity must be -1 or +1")
    return EventStream(
        t=rec["t"].copy(), x=rec["x"].copy(), y=rec["y"].copy(), p=p.copy(),
        width=width, height=height, t_start=t_start, t_end=t_end,
    )


def _write_evbin(stream: EventStream) -> bytes:
    rec = np.zeros(len(stream), dtype=EVBIN_RECORD)
    rec["t"] = stream.t
    rec["x"] = stream.x
    rec["y"] = stream.y
    rec["p"] = stream.p
    header = _EVBIN_HEADER.pack(EVBIN_MAGIC, stream.width, stream.height,
                                stream.t_start, stream.t_end, len(stream))
    return b"".join((header, rec))


# ---------------------------------------------------------------------------
# Binning and windowing
# ---------------------------------------------------------------------------

def bin_events(stream: EventStream, timeline: Timeline) -> list[EventBatch]:
    """Partition a stream into one right-closed batch per query step.

    Batch k holds events with query_times[k-1] < t <= query_times[k]; the
    first batch's left edge is the stream's t_start.
    """
    if not timeline.query_times:
        raise EmptyTimeline("timeline has no query times")
    edges = [stream.t_start] + list(timeline.query_times)
    # index of first event strictly greater than each edge
    cuts = np.searchsorted(stream.t, np.array(edges, dtype=np.uint64), side="right")
    batches = []
    for k in range(len(timeline.query_times)):
        lo, hi = cuts[k], cuts[k + 1]
        batches.append(EventBatch(
            t=stream.t[lo:hi], x=stream.x[lo:hi], y=stream.y[lo:hi],
            p=stream.p[lo:hi],
            bin_start=edges[k], bin_end=edges[k + 1]))
    return batches


def exposure_window_events(stream: EventStream, frame_time: int,
                           exposure_us: int) -> EventBatch:
    """Events in the exposure window (frame_time - exposure_us, frame_time]."""
    if exposure_us <= 0:
        raise EmptyTimeline("exposure_us must be positive")
    left = max(frame_time - exposure_us, 0)
    lo = np.searchsorted(stream.t, np.uint64(left), side="right")
    hi = np.searchsorted(stream.t, np.uint64(frame_time), side="right")
    return EventBatch(
        t=stream.t[lo:hi], x=stream.x[lo:hi], y=stream.y[lo:hi], p=stream.p[lo:hi],
        bin_start=frame_time - exposure_us, bin_end=frame_time)
