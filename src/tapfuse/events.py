"""Event data model, bit-exact file I/O, and temporal binning.

Events are timestamped polarity spikes (x, y, t, p). Streams keep a
canonical sort order (t, y, x, p) so that every downstream dense
representation is deterministic regardless of wire order. A stream out of
that order is sorted as one packed u64 key per event, t - t_start above y
above x above a bit for p > 0, whose integer order is the canonical order;
a span too wide for the key falls back to np.lexsort. Timestamps are
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
    Domain,
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
# a stream header field's domain, and the error it raises outside it
_SIDE = (Domain(1, MAX_SENSOR_SIDE, integer=True), GeometryViolation)
_U64 = (Domain(0, 2**64 - 1, integer=True), NonMonotonicHeader)
HEADER_DOMAINS = {"width": _SIDE, "height": _SIDE,
                  "t_start": _U64, "t_end": _U64}
# a frame or query time is searched for among the u64 event times and held
# as int64; an exposure window holds at least 1 us
TIMELINE_DOMAINS = {"time": Domain(0, 2**63 - 1, integer=True),
                    "exposure_us": Domain(1, integer=True)}


class Event(NamedTuple):
    x: int
    y: int
    t: int
    p: int


# neighbouring pairs per block of the order check, small enough for its
# scratch to stay in cache
_ORDER_BLOCK = 1 << 16


def _is_canonical(t, x, y, p) -> bool:
    """Whether the columns are already in (t, y, x, p) order, in O(n) over
    blocks of _ORDER_BLOCK neighbouring pairs: t never decreases, and
    where t ties, a u32 y << 16 | x key never decreases, and p never
    decreases where that key ties too. Each block compares its pairs in
    place, so the check holds a few bytes per pair of one block and no
    n-sized scratch."""
    for lo in range(0, len(t) - 1, _ORDER_BLOCK):
        hi = min(lo + _ORDER_BLOCK, len(t) - 1)
        t0, t1 = t[lo:hi], t[lo + 1:hi + 1]
        if (t1 < t0).any():
            return False
        tied = t1 == t0
        if not tied.any():
            continue
        key = y[lo:hi + 1].astype(np.uint32)
        key <<= 16
        key |= x[lo:hi + 1]
        k0, k1 = key[:-1], key[1:]
        # out of order: t ties, and the key falls, or it ties and p falls
        bad = k1 == k0
        bad &= p[lo + 1:hi + 1] < p[lo:hi]
        bad |= k1 < k0
        bad &= tied
        if bad.any():
            return False
    return True


def _sort_packed(t, x, y, p, width: int, height: int, t_start: int):
    """The columns in (t, y, x, p) order, sorted on the packed key that
    EventStream describes, or lexsorted when the span does not fit it.
    Equal keys are equal events, so an unstable in-place sort is exact.
    The sorted key is unpacked, then turned into t in place, so nothing is
    held beyond the 13 B/event of output."""
    x_bits, y_bits = (width - 1).bit_length(), (height - 1).bit_length()
    if (int(t.max()) - t_start) >> (64 - x_bits - y_bits - 1):
        order = np.lexsort((p, x, y, t))
        return t[order], x[order], y[order], p[order]
    key = t - np.uint64(t_start)
    key <<= y_bits
    key |= y
    key <<= x_bits
    key |= x
    key <<= 1
    key |= p > 0
    key.sort()
    # astype keeps a field's low bits, and the masks drop the fields above
    p = key.astype(np.int8)
    p &= 1
    p *= 2
    p -= 1
    key >>= 1
    x = key.astype(np.uint16)
    x &= (1 << x_bits) - 1
    key >>= x_bits
    y = key.astype(np.uint16)
    y &= (1 << y_bits) - 1
    key >>= y_bits
    key += np.uint64(t_start)
    return key, x, y, p


@dataclass(frozen=True)
class EventStream:
    """A canonically sorted event stream with mandatory sensor geometry.

    Columns are stored as parallel numpy arrays: t (uint64 microseconds),
    x/y (uint16), p (int8, values -1/+1). Each header field lies in its
    HEADER_DOMAINS entry, numpy integers too, and is kept as an int, and
    t_start <= t_end. Columns already in (t, y, x, p)
    order, which _is_canonical checks a block of neighbouring pairs at a
    time in place, are kept as given, and their time range is checked
    from t[0] and t[-1]. Others are sorted on one u64 key
    of b = (width - 1).bit_length() + (height - 1).bit_length() + 1 low bits
    of y, x and p under t - t_start, which fits when
    max(t) - t_start < 2**(64 - b); a wider span is lexsorted.
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
        for name, (domain, error) in HEADER_DOMAINS.items():
            object.__setattr__(self, name,
                               domain.check(name, getattr(self, name), error))
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
        canonical = _is_canonical(self.t, self.x, self.y, self.p)
        if len(self.t):
            first, last = ((self.t[0], self.t[-1]) if canonical
                           else (self.t.min(), self.t.max()))
            if first < self.t_start or last > self.t_end:
                raise NonMonotonicHeader(
                    "event timestamp outside [t_start, t_end]")
        if not canonical:
            cols = _sort_packed(self.t, self.x, self.y, self.p, self.width,
                                self.height, self.t_start)
            for name, col in zip("txyp", cols):
                object.__setattr__(self, name, col)

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
    """Frame arrival times and the denser tracker query-time grid, each
    time and the exposure in TIMELINE_DOMAINS, numpy integers kept as ints."""

    frame_times: Sequence[int]
    query_times: Sequence[int]
    exposure_us: int

    def __post_init__(self):
        time, exposure = TIMELINE_DOMAINS.values()
        for name in ("frame_times", "query_times"):
            times = tuple(time.check(name[:-1], t, MalformedRecord)
                          for t in getattr(self, name))
            if any(b <= a for a, b in zip(times, times[1:])):
                raise MalformedRecord(f"{name} must be strictly ascending")
            object.__setattr__(self, name, times)
        object.__setattr__(self, "exposure_us", exposure.check(
            "exposure_us", self.exposure_us, MalformedRecord))
        if len(self.frame_times) > len(self.query_times):
            raise MalformedRecord("query grid must be at least as dense as frames")
        qset = set(self.query_times)
        if not all(ft in qset for ft in self.frame_times):
            raise MalformedRecord("every frame time must land on the query grid")


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


def serialize_event_stream(stream: EventStream, format: str = "csv"
                           ) -> bytearray:
    """The stream in csv or evbin format, as one bytearray."""
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
    missing = set(HEADER_DOMAINS) - set(header)
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


def _write_csv(stream: EventStream) -> bytearray:
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
    return bytearray().join(chunks)


_EVBIN_HEADER = struct.Struct("<4sIIQQQ")


def _parse_evbin(source: bytes) -> EventStream:
    if len(source) < _EVBIN_HEADER.size:
        raise MalformedRecord("evbin buffer shorter than header")
    magic, width, height, t_start, t_end, count = _EVBIN_HEADER.unpack_from(source)
    if magic != EVBIN_MAGIC:
        raise MalformedRecord(f"bad magic {magic!r}")
    size = len(source) - _EVBIN_HEADER.size
    if size != count * EVBIN_RECORD.itemsize:
        raise MalformedRecord(
            f"expected {count} records ({count * EVBIN_RECORD.itemsize} bytes), "
            f"got {size} bytes")
    rec = np.frombuffer(source, dtype=EVBIN_RECORD, offset=_EVBIN_HEADER.size)
    # a record's last 4 bytes, p and the zero pad, read 0x01 or 0xFF as <u4
    tail = np.frombuffer(source, dtype="<u4", offset=_EVBIN_HEADER.size)[3::4]
    if not ((tail == 0x01) | (tail == 0xFF)).all():
        raise MalformedRecord("nonzero pad bytes" if (tail >> 8).any()
                              else "polarity must be -1 or +1")
    return EventStream(
        t=rec["t"].copy(), x=rec["x"].copy(), y=rec["y"].copy(),
        p=rec["p"].copy(),
        width=width, height=height, t_start=t_start, t_end=t_end,
    )


def _write_evbin(stream: EventStream) -> bytearray:
    """The header and the records, filled in place in one zeroed buffer,
    so the pad bytes are zero from its allocation."""
    out = bytearray(_EVBIN_HEADER.size + len(stream) * EVBIN_RECORD.itemsize)
    _EVBIN_HEADER.pack_into(out, 0, EVBIN_MAGIC, stream.width, stream.height,
                            stream.t_start, stream.t_end, len(stream))
    rec = np.frombuffer(out, dtype=EVBIN_RECORD, offset=_EVBIN_HEADER.size)
    rec["t"] = stream.t
    rec["x"] = stream.x
    rec["y"] = stream.y
    rec["p"] = stream.p
    return out


# ---------------------------------------------------------------------------
# Binning and windowing
# ---------------------------------------------------------------------------

def _cut(stream: EventStream, edges: Sequence[int]) -> list[EventBatch]:
    """Cut the stream at integer edges: batch k holds the events with
    edges[k] < t <= edges[k + 1]. An edge below 0 lies below every event,
    and one above 2**64 - 1 above every event."""
    keys = np.array([min(max(e, 0), 2**64 - 1) for e in edges], dtype=np.uint64)
    cuts = np.searchsorted(stream.t, keys, side="right")
    cuts[[e < 0 for e in edges]] = 0
    return [EventBatch(t=stream.t[lo:hi], x=stream.x[lo:hi], y=stream.y[lo:hi],
                       p=stream.p[lo:hi], bin_start=a, bin_end=b)
            for lo, hi, a, b in zip(cuts, cuts[1:], edges, edges[1:])]


def bin_events(stream: EventStream, timeline: Timeline) -> list[EventBatch]:
    """Partition a stream into one right-closed batch per query step.

    Batch k holds events with query_times[k-1] < t <= query_times[k]; the
    first batch's left edge is the stream's t_start. Every event window is
    one such (a, b] cut of the stream.
    """
    if not timeline.query_times:
        raise EmptyTimeline("timeline has no query times")
    return _cut(stream, [stream.t_start, *timeline.query_times])


def exposure_window_events(stream: EventStream, frame_time: int,
                           exposure_us: int) -> EventBatch:
    """Events in the exposure window (frame_time - exposure_us, frame_time],
    the same (a, b] cut as bin_events. A window that starts below 0 holds
    the events at t = 0. Both arguments lie in TIMELINE_DOMAINS."""
    time, exposure = TIMELINE_DOMAINS.values()
    frame_time = time.check("frame_time", frame_time, EmptyTimeline)
    exposure_us = exposure.check("exposure_us", exposure_us, EmptyTimeline)
    return _cut(stream, [frame_time - exposure_us, frame_time])[0]
