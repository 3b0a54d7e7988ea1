import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tapfuse.errors import (
    ConfigError,
    EmptyTimeline,
    GeometryViolation,
    MalformedRecord,
    NonMonotonicHeader,
    TapfuseError,
)
from tapfuse.events import (
    Event,
    EventBatch,
    EventStream,
    Timeline,
    _cut,
    bin_events,
    exposure_window_events,
    parse_event_stream,
    serialize_event_stream,
)
from tapfuse.synth import reconstruct_log_intensity


def random_stream(rng, n=1000, width=32, height=24, t_end=100_000):
    return EventStream(
        t=rng.integers(0, t_end + 1, size=n).astype(np.uint64),
        x=rng.integers(0, width, size=n).astype(np.uint16),
        y=rng.integers(0, height, size=n).astype(np.uint16),
        p=rng.choice(np.array([-1, 1], dtype=np.int8), size=n),
        width=width, height=height, t_start=0, t_end=t_end)


class TestParsing:
    def test_empty_csv_body(self):
        src = b"# width=4 height=4 t_start=0 t_end=100\n"
        stream = parse_event_stream(src, "csv")
        assert len(stream) == 0
        assert (stream.width, stream.height) == (4, 4)

    def test_single_record(self):
        src = b"# width=8 height=8 t_start=0 t_end=2000\n1000,2,3,1\n"
        stream = parse_event_stream(src, "csv")
        assert stream[0] == Event(x=2, y=3, t=1000, p=1)

    @pytest.mark.parametrize("fmt", ["csv", "evbin"])
    def test_round_trip_10k(self, fmt):
        rng = np.random.default_rng(7)
        stream = random_stream(rng, n=10_000)
        back = parse_event_stream(serialize_event_stream(stream, fmt), fmt)
        assert np.array_equal(back.t, stream.t)
        assert np.array_equal(back.x, stream.x)
        assert np.array_equal(back.y, stream.y)
        assert np.array_equal(back.p, stream.p)
        assert (back.width, back.height) == (stream.width, stream.height)
        assert (back.t_start, back.t_end) == (stream.t_start, stream.t_end)

    def test_evbin_byte_identical_round_trip(self):
        rng = np.random.default_rng(11)
        blob = serialize_event_stream(random_stream(rng, n=500), "evbin")
        assert serialize_event_stream(parse_event_stream(blob, "evbin"),
                                      "evbin") == blob

    def test_bad_field_count(self):
        src = b"# width=4 height=4 t_start=0 t_end=10\n1,2,3\n"
        with pytest.raises(MalformedRecord):
            parse_event_stream(src, "csv")

    def test_zero_polarity_rejected(self):
        src = b"# width=4 height=4 t_start=0 t_end=10\n5,1,1,0\n"
        with pytest.raises(MalformedRecord):
            parse_event_stream(src, "csv")

    def test_non_integer_field(self):
        src = b"# width=4 height=4 t_start=0 t_end=10\n5,1.5,1,1\n"
        with pytest.raises(MalformedRecord):
            parse_event_stream(src, "csv")

    def test_geometry_violation(self):
        src = b"# width=4 height=4 t_start=0 t_end=10\n5,4,1,1\n"
        with pytest.raises(GeometryViolation):
            parse_event_stream(src, "csv")

    def test_non_monotonic_header(self):
        src = b"# width=4 height=4 t_start=10 t_end=5\n"
        with pytest.raises(NonMonotonicHeader):
            parse_event_stream(src, "csv")

    @pytest.mark.parametrize("t_start, t_end", [
        (-5, 10), (-1, -1), (2**64, 2**64), (0, 2**64), (7, 2**70)])
    def test_header_times_outside_u64_rejected(self, t_start, t_end):
        with pytest.raises(NonMonotonicHeader):
            EventStream.from_events([], 4, 4, t_start, t_end)
        src = f"# width=4 height=4 t_start={t_start} t_end={t_end}\n".encode()
        with pytest.raises(NonMonotonicHeader):
            parse_event_stream(src, "csv")

    @pytest.mark.parametrize("width, height", [
        (-3, 4), (0, 4), (2**32, 4), (65537, 4), (4, -3), (4, 0), (4, 2**32),
        (4, 65537)])
    def test_sensor_side_outside_range_rejected(self, width, height):
        with pytest.raises(GeometryViolation):
            EventStream.from_events([], width, height, 0, 10)
        src = f"# width={width} height={height} t_start=0 t_end=10\n".encode()
        with pytest.raises(GeometryViolation):
            parse_event_stream(src, "csv")

    def test_header_at_the_range_limits_round_trips(self):
        stream = EventStream.from_events(
            [Event(65535, 0, 2**64 - 1, 1), Event(0, 65535, 0, -1)],
            65536, 65536, 0, 2**64 - 1)
        for fmt in ("csv", "evbin"):
            back = parse_event_stream(serialize_event_stream(stream, fmt), fmt)
            assert (back.width, back.height, back.t_start, back.t_end) == (
                65536, 65536, 0, 2**64 - 1)
            assert [back[i] for i in range(2)] == [stream[0], stream[1]]

    def test_evbin_nonzero_pad_rejected(self):
        rng = np.random.default_rng(0)
        blob = bytearray(serialize_event_stream(random_stream(rng, n=3), "evbin"))
        blob[-1] = 0xFF  # last pad byte
        with pytest.raises(MalformedRecord):
            parse_event_stream(bytes(blob), "evbin")

    @pytest.mark.parametrize("tail, message", [
        (b"\x00\x00\x00\x00", "polarity"), (b"\x02\x00\x00\x00", "polarity"),
        (b"\x7f\x00\x00\x00", "polarity"), (b"\xfe\x00\x00\x00", "polarity"),
        (b"\x01\x01\x00\x00", "pad"), (b"\xff\x00\x80\x00", "pad"),
        (b"\x01\x00\x00\x01", "pad"), (b"\x00\x00\x07\x00", "pad")],
        ids=["p=0", "p=2", "p=127", "p=-2", "pad1", "pad2", "pad3",
             "pad2_and_p=0"])
    def test_evbin_record_tail_names_what_is_wrong(self, tail, message):
        """p and the three pad bytes are checked in one pass; the error
        names the pad when it is not zero, and else the polarity."""
        rng = np.random.default_rng(0)
        blob = bytearray(serialize_event_stream(random_stream(rng, n=3), "evbin"))
        blob[-20:-16] = tail  # the middle record's p and pad
        with pytest.raises(MalformedRecord, match=message):
            parse_event_stream(bytes(blob), "evbin")

    def test_canonical_tie_break_order(self):
        # equal timestamps sort by (y, x, p)
        evs = [Event(3, 1, 50, 1), Event(0, 2, 50, -1), Event(3, 1, 50, -1),
               Event(1, 1, 50, 1)]
        stream = EventStream.from_events(evs, 8, 8, 0, 100)
        got = [stream[i] for i in range(len(stream))]
        assert got == [Event(1, 1, 50, 1), Event(3, 1, 50, -1),
                       Event(3, 1, 50, 1), Event(0, 2, 50, -1)]


class TestBinning:
    def make_timeline(self, times, exposure=100):
        return Timeline(frame_times=[times[0]], query_times=times,
                        exposure_us=exposure)

    def test_empty_stream_gives_empty_batches(self):
        stream = EventStream.from_events([], 4, 4, 0, 1000)
        tl = self.make_timeline(list(range(100, 1100, 100)))
        batches = bin_events(stream, tl)
        assert len(batches) == 10
        assert all(len(b) == 0 for b in batches)

    def test_boundary_event_right_closed(self):
        stream = EventStream.from_events([Event(0, 0, 200, 1)], 4, 4, 0, 1000)
        tl = self.make_timeline([100, 200, 300])
        batches = bin_events(stream, tl)
        assert len(batches[1]) == 1
        assert len(batches[0]) == 0 and len(batches[2]) == 0

    def test_counts_match_brute_force(self):
        rng = np.random.default_rng(3)
        stream = random_stream(rng, n=1000, t_end=100_000)
        times = sorted(rng.choice(np.arange(1, 100_001), 20, replace=False))
        tl = self.make_timeline([int(t) for t in times])
        batches = bin_events(stream, tl)
        edges = [0] + [int(t) for t in times]
        for k, batch in enumerate(batches):
            expected = sum(1 for i in range(len(stream))
                           if edges[k] < stream[i].t <= edges[k + 1])
            assert len(batch) == expected

    def test_partition_property(self):
        rng = np.random.default_rng(4)
        stream = random_stream(rng, n=500, t_end=10_000)
        tl = self.make_timeline(list(range(1000, 11_000, 1000)))
        batches = bin_events(stream, tl)
        ts = np.concatenate([b.t for b in batches])
        keep = stream.t <= 10_000
        assert np.array_equal(np.sort(ts), np.sort(stream.t[keep]))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 300),
           t_start=st.integers(0, 10**6), span=st.integers(0, 5000),
           data=st.data())
    def test_partition_property_drawn(self, seed, n, t_start, span, data):
        """Batches are consecutive slices of the stream: concatenated, they
        are exactly its events with t_start < t <= the last query time, in
        stream order, and each lies in its own (bin_start, bin_end]."""
        rng = np.random.default_rng(seed)
        stream = EventStream(
            t=rng.integers(t_start, t_start + span + 1, size=n),
            x=rng.integers(0, 5, size=n), y=rng.integers(0, 4, size=n),
            p=rng.choice(np.array([-1, 1], dtype=np.int8), size=n),
            width=5, height=4, t_start=t_start, t_end=t_start + span)
        times = data.draw(st.lists(
            st.integers(t_start, t_start + span + 100), min_size=1,
            max_size=30, unique=True).map(sorted))
        batches = bin_events(stream, self.make_timeline(times))
        assert len(batches) == len(times)
        keep = (stream.t > t_start) & (stream.t <= times[-1])
        for col in "txyp":
            got = np.concatenate([getattr(b, col) for b in batches])
            assert np.array_equal(got, getattr(stream, col)[keep])
        for b, lo, hi in zip(batches, [t_start, *times], times):
            assert (b.bin_start, b.bin_end) == (lo, hi)
            assert np.all((b.t > lo) & (b.t <= hi))

    def test_refinement_merge_equals_coarse(self):
        rng = np.random.default_rng(5)
        stream = random_stream(rng, n=800, t_end=8000)
        coarse = self.make_timeline(list(range(1000, 9000, 1000)))
        fine = self.make_timeline(list(range(500, 8500, 500)))
        cb = bin_events(stream, coarse)
        fb = bin_events(stream, fine)
        for k in range(len(cb)):
            merged = np.sort(np.concatenate([fb[2 * k].t, fb[2 * k + 1].t]))
            assert np.array_equal(merged, np.sort(cb[k].t))

    def test_empty_timeline_rejected(self):
        stream = EventStream.from_events([], 4, 4, 0, 100)
        with pytest.raises((EmptyTimeline, MalformedRecord)):
            bin_events(stream, Timeline(frame_times=[], query_times=[],
                                        exposure_us=10))


class TestExposureWindow:
    def test_saturated_window(self):
        evs = [Event(0, 0, t, 1) for t in (10, 20, 30, 40)]
        stream = EventStream.from_events(evs, 4, 4, 0, 100)
        batch = exposure_window_events(stream, 35, 1_000_000)
        assert np.array_equal(np.asarray(batch.t, dtype=np.int64), [10, 20, 30])

    def test_left_edge_open(self):
        evs = [Event(0, 0, 100, 1)]
        stream = EventStream.from_events(evs, 4, 4, 0, 1000)
        assert len(exposure_window_events(stream, 150, 50)) == 0
        assert len(exposure_window_events(stream, 150, 51)) == 1

    def test_membership_matches_brute_force(self):
        rng = np.random.default_rng(6)
        stream = random_stream(rng, n=1000, t_end=50_000)
        for ft in (5_000, 25_000, 50_000):
            batch = exposure_window_events(stream, ft, 5_000)
            expected = [stream[i].t for i in range(len(stream))
                        if ft - 5_000 < stream[i].t <= ft]
            assert np.array_equal(np.sort(batch.t),
                                  np.sort(np.array(expected, dtype=np.uint64)))


# ---------------------------------------------------------------------------
# One window rule: every cut is (a, b] of the stream
# ---------------------------------------------------------------------------

@st.composite
def cut_cases(draw):
    """A canonical stream with events at t = 0, at t_start and at repeated
    times, t_start up to 2**64 - 1, and integer edges from -10**6 to the
    stream's end, some at or next to an event time, and some at 2**64."""
    t_start = draw(st.one_of(st.just(0), st.just(2**64 - 1),
                             st.integers(0, 2**64 - 1)))
    t_end = t_start + draw(st.integers(0, min(5000, 2**64 - 1 - t_start)))
    times = draw(st.lists(st.one_of(st.just(t_start), st.just(t_end),
                                    st.integers(t_start, t_end)), max_size=40))
    n = len(times)
    stream = EventStream(
        t=np.array(times, dtype=np.uint64),
        x=draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)),
        y=draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
        p=draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)),
        width=3, height=2, t_start=t_start, t_end=t_end)
    near = st.sampled_from([t + d for t in (0, t_start, t_end, *times)
                            for d in (-1, 0, 1)])
    edges = draw(st.lists(st.one_of(near.filter(lambda e: e <= t_end),
                                    st.integers(-10**6, t_end),
                                    st.just(2**64)),
                          min_size=2, max_size=8))
    return stream, edges


def assert_is_cut(batch, stream, a, b):
    """batch holds exactly the stream's events with a < t <= b, in stream
    order, column for column; the comparison runs on Python ints."""
    keep = np.array([a < t <= b for t in stream.t.tolist()], dtype=bool)
    for col in "txyp":
        assert np.array_equal(getattr(batch, col),
                              getattr(stream, col)[keep]), col
    assert (batch.bin_start, batch.bin_end) == (a, b)


@settings(max_examples=300, deadline=None)
@given(cut_cases())
def test_every_window_is_one_open_closed_cut(case):
    """_cut, bin_events and exposure_window_events all select
    (a < t) & (t <= b), for edges below 0, at t = 0, at t_start near
    2**64 - 1 and above every u64; _cut's edges need not ascend."""
    stream, edges = case
    for batch, a, b in zip(_cut(stream, edges), edges, edges[1:]):
        assert_is_cut(batch, stream, a, b)
    query_times = sorted({e for e in edges if 0 <= e < 2**63})
    if query_times:
        timeline = Timeline(frame_times=[query_times[0]],
                            query_times=query_times, exposure_us=1)
        bins = bin_events(stream, timeline)
        assert len(bins) == len(query_times)
        for batch, a, b in zip(bins, [stream.t_start, *query_times],
                               query_times):
            assert_is_cut(batch, stream, a, b)
    for a, b in zip(edges, edges[1:]):
        if a < b and 0 <= b < 2**63:
            assert_is_cut(exposure_window_events(stream, b, b - a),
                          stream, a, b)


def test_events_at_zero_fall_in_a_window_that_starts_below_zero():
    """A stream that starts at 0 keeps its first events: the exposure
    window of the first frame and the reconstruction from before 0 both
    hold the two events at t = 0."""
    stream = EventStream.from_events(
        [Event(0, 0, 0, 1), Event(1, 0, 0, 1), Event(2, 0, 500, -1)],
        4, 4, 0, 1000)
    assert len(exposure_window_events(stream, 0, 4000)) == 2
    assert len(exposure_window_events(stream, 1000, 4000)) == 3
    out = reconstruct_log_intensity(np.zeros((4, 4)), stream, -5, 100, c=0.5)
    assert out[0].tolist() == [0.5, 0.5, 0.0, 0.0]
    assert not out[1:].any()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 15),
                          st.integers(0, 15), st.sampled_from([-1, 1])),
                max_size=200))
def test_serialization_lossless_property(records):
    evs = [Event(x=x, y=y, t=t, p=p) for t, x, y, p in records]
    stream = EventStream.from_events(evs, 16, 16, 0, 10_000)
    for fmt in ("csv", "evbin"):
        back = parse_event_stream(serialize_event_stream(stream, fmt), fmt)
        assert np.array_equal(back.t, stream.t)
        assert np.array_equal(back.x, stream.x)
        assert np.array_equal(back.y, stream.y)
        assert np.array_equal(back.p, stream.p)


def test_timeline_requires_frames_on_query_grid():
    with pytest.raises(MalformedRecord):
        Timeline(frame_times=[0, 150], query_times=[0, 100, 200], exposure_us=10)


@pytest.mark.parametrize("frame_times, query_times", [
    ([-4], [-4, 2, 6]),
    ([0], [0, 2, 2**64]),
    ([0], [0, 2**63]),
])
def test_timeline_times_outside_the_int64_range_rejected(frame_times,
                                                         query_times):
    """bin_events and exposure_window_events search the stream's uint64
    times for these, and track_sequence holds them as int64."""
    with pytest.raises(MalformedRecord, match=r"\[0, 2\*\*63\)"):
        Timeline(frame_times=frame_times, query_times=query_times,
                 exposure_us=3)


def test_exposure_window_of_a_negative_frame_time_rejected():
    stream = EventStream.from_events([Event(0, 0, 1, 1)], 4, 4, 0, 10)
    with pytest.raises(EmptyTimeline, match="frame_time -4"):
        exposure_window_events(stream, -4, 3)


def test_batch_invariant_enforced():
    with pytest.raises(MalformedRecord):
        EventBatch(t=np.array([5], dtype=np.uint64),
                   x=np.zeros(1, dtype=np.uint16),
                   y=np.zeros(1, dtype=np.uint16),
                   p=np.ones(1, dtype=np.int8), bin_start=10, bin_end=20)


# ---------------------------------------------------------------------------
# The array codec against the per-line codec it replaced
# ---------------------------------------------------------------------------

def loop_parse_csv(source: bytes) -> EventStream:
    """The per-line CSV parser the array codec replaced, kept as the oracle
    for files in the documented grammar."""
    text = source.decode("utf-8")
    header: dict[str, int] = {}
    ts, xs, ys, ps = [], [], [], []
    for line in text.split("\n"):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                key, _, val = token.partition("=")
                header[key] = int(val)
            continue
        t, x, y, p = (int(f) for f in line.split(","))
        ts.append(t); xs.append(x); ys.append(y); ps.append(p)
    return EventStream(
        t=np.array(ts, dtype=np.uint64), x=np.array(xs, dtype=np.uint16),
        y=np.array(ys, dtype=np.uint16), p=np.array(ps, dtype=np.int8),
        width=header["width"], height=header["height"],
        t_start=header["t_start"], t_end=header["t_end"])


def loop_write_csv(stream: EventStream) -> bytes:
    """The per-event CSV writer the array codec replaced."""
    lines = [f"# width={stream.width} height={stream.height} "
             f"t_start={stream.t_start} t_end={stream.t_end}\n"]
    for i in range(len(stream)):
        lines.append(f"{int(stream.t[i])},{int(stream.x[i])},"
                     f"{int(stream.y[i])},{int(stream.p[i])}\n")
    return "".join(lines).encode("utf-8")


def assert_same_stream(a: EventStream, b: EventStream):
    for col in "txyp":
        got, want = getattr(a, col), getattr(b, col)
        assert got.dtype == want.dtype and np.array_equal(got, want), col
    assert ((a.width, a.height, a.t_start, a.t_end)
            == (b.width, b.height, b.t_start, b.t_end))


T_MAX = 2 ** 64 - 1
SPACES = st.sampled_from(["", " ", "  ", "\t", " \t"])
EOL = st.sampled_from(["\n", "\r\n"])


@st.composite
def csv_variants(draw):
    """A CSV in the documented grammar: header lines anywhere, indented or
    split in two; blank and whitespace-only lines; LF or CRLF; spaces and
    tabs around fields; '+' signs and leading zeros; t up to 2**64 - 1."""
    width = draw(st.integers(1, 65536))
    height = draw(st.integers(1, 65536))
    t_start = draw(st.sampled_from([0, 1, 10 ** 6, T_MAX - 1000]))
    t_end = draw(st.sampled_from([t_start, t_start + 1000, T_MAX]))

    def number(v):
        sign = draw(st.sampled_from(["", "+"]))
        zeros = "0" * draw(st.integers(0, 3))
        return draw(SPACES) + sign + zeros + str(v) + draw(SPACES)

    lines = []
    for _ in range(draw(st.integers(0, 30))):
        t = draw(st.integers(t_start, t_end))
        x = draw(st.integers(0, width - 1))
        y = draw(st.integers(0, height - 1))
        p = draw(st.sampled_from(["1", "+1", "-1", "01", "-01"]))
        lines.append(",".join([number(t), number(x), number(y),
                               draw(SPACES) + p + draw(SPACES)]))
    tokens = [f"width={width}", f"height={height}", f"t_start={t_start}",
              f"t_end={t_end}"]
    cut = draw(st.integers(0, 4))
    for part in (tokens[:cut], tokens[cut:]):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(SPACES) + "#" + draw(SPACES) + " ".join(part))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(SPACES))
    text = "".join(line + draw(EOL) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode("ascii")


class TestCsvCodecEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(csv_variants())
    def test_parse_equals_per_line_parser(self, source):
        assert_same_stream(parse_event_stream(source, "csv"),
                           loop_parse_csv(source))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_written_bytes_equal_per_event_writer(self, data):
        n = data.draw(st.integers(0, 40_000), label="n")
        t_end = data.draw(st.sampled_from([0, 9, 10 ** 6, T_MAX]))
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        t = rng.integers(0, t_end, size=n, dtype=np.uint64, endpoint=True)
        stream = EventStream(
            t=t, x=rng.integers(0, 65536, size=n), y=rng.integers(0, 65536, size=n),
            p=rng.choice(np.array([-1, 1], dtype=np.int8), size=n),
            width=65536, height=65536, t_start=0, t_end=t_end)
        assert serialize_event_stream(stream, "csv") == loop_write_csv(stream)

    @pytest.mark.parametrize("t,x,y", [
        ([], [], []), ([T_MAX], [65535], [65535]), ([0], [0], [0]),
        ([0, 9, 10, 99, 100, T_MAX], [0, 9, 10, 65535, 99, 100],
         [65535, 100, 9, 0, 10, 99])])
    def test_written_bytes_at_the_column_limits(self, t, x, y):
        n = len(t)
        stream = EventStream(
            t=np.array(t, dtype=np.uint64), x=np.array(x, dtype=np.uint16),
            y=np.array(y, dtype=np.uint16),
            p=np.array([(-1) ** i for i in range(n)], dtype=np.int8),
            width=65536, height=65536, t_start=0, t_end=T_MAX)
        blob = serialize_event_stream(stream, "csv")
        assert blob == loop_write_csv(stream)
        assert_same_stream(parse_event_stream(blob, "csv"), stream)

    @pytest.mark.parametrize("source", [
        b"# width=4 height=4 t_start=0 t_end=10\n1,2,3,1 # note\n",
        b"# width=4 height=4 t_start=0 t_end=10\n1,2,3,1\n2,2,#,1\n",
        b"# width=4 height=4 t_start=0 t_end=10\n1.5,2,3,1\n",
        b"# width=4 height=4 t_start=0 t_end=10\n1,,3,1\n",
        b"# width=4 height=4 t_start=0 t_end=10\n1,2,3,1,\n",
        b"# width=4 height=4 t_start=0 t_end=10\n-1,2,3,1\n",
        b"# width=4 height=4 t_start=0 t_end=10\n1,-2,3,1\n",
        b"# width=4 height=4 t_start=0 t_end=10\n1,2,3,2\n",
        b"# width=4 height=4 t_start=0 t_end=10\n1,2,3,128\n",
        b"# width=4 height=4 t_start=0 t_end=10\n1,2,3,1\r5,1,1,1\n",
        b"# width=4 height=4 t_start=0 t_end=10\n1 2,2,3,1\n",
        b"# width=4 height=4 t_start=0 t_end=10\n0x1,2,3,1\n",
        b"# width=4 height=4 t_start=0 t_end=10\n1_0,2,3,1\n",
        b"# width=4 height=4 t_start=0 t_end=10\n1,2,3,1\xff\n",
        b"# width=4 height=4 t_start=0 t_end=10\n5,70000,1,1\n",
        b"# width=4 height=4 t_start=0 t_end=10\n18446744073709551616,1,1,1\n",
        b"# width=4 height=4 t_start=0 t_end=10\n1,2,3,99999999999999999999\n",
        b"# width=4 height=4 t_start=0\n1,2,3,1\n",
        b"# width=4 height=4 t_start=0 t_end=1x\n",
        b"# width=4 height=4 t_start=0 t_end\n",
        b"# width=4 height=\xff t_start=0 t_end=10\n",
    ])
    def test_malformed_record(self, source):
        with pytest.raises(MalformedRecord):
            parse_event_stream(source, "csv")

    def test_header_values_keep_int_spellings(self):
        src = b"# width=0_8 height=+8 t_start=00 t_end=1_000\n7,1,1,1\n"
        stream = parse_event_stream(src, "csv")
        assert (stream.width, stream.height, stream.t_end) == (8, 8, 1000)


@pytest.mark.parametrize("fmt", ["bin", "CSV", ""])
def test_unknown_format_is_config_error(fmt):
    stream = EventStream.from_events([], 4, 4, 0, 10)
    with pytest.raises(ConfigError):
        parse_event_stream(b"", fmt)
    with pytest.raises(ConfigError):
        serialize_event_stream(stream, fmt)


def lexsorted(t, x, y, p):
    order = np.lexsort((p, x, y, t))
    return t[order], x[order], y[order], p[order]


class TestCanonicalFastPath:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(0, 300),
           span=st.sampled_from([1, 3, 50, 10 ** 9, 2 ** 40, 2 ** 63]),
           base=st.sampled_from([0, 12_345, 2 ** 64 - 5_000]),
           geometry=st.sampled_from([(2, 2), (5, 5), (65536, 65536), (1, 1),
                                     (1, 7), (9, 1)]),
           layout=st.sampled_from(["shuffled", "sorted", "reversed",
                                   "one_swap"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_lexsort(self, n, span, base, geometry, layout, seed):
        """Tie-heavy (small spans and sensors), shuffled, reversed and
        almost-sorted inputs give exactly the lexsort order: with t_start
        up to 2**64 - 5000, with spans too wide for the packed key (2**40
        on a 65536-px sensor, 2**63 on any but 1x1), and with 0-bit x or y
        fields."""
        width, height = geometry
        t_start = min(base, 2 ** 64 - span)
        rng = np.random.default_rng(seed)
        cols = (rng.integers(0, span, size=n, dtype=np.uint64)
                + np.uint64(t_start),
                rng.integers(0, width, size=n).astype(np.uint16),
                rng.integers(0, height, size=n).astype(np.uint16),
                rng.choice(np.array([-1, 1], dtype=np.int8), size=n))
        want = lexsorted(*cols)
        if layout == "sorted":
            cols = want
        elif layout == "reversed":
            cols = tuple(c[::-1].copy() for c in want)
        elif layout == "one_swap" and n >= 2:
            i = int(rng.integers(0, n - 1))
            cols = tuple(np.concatenate([c[:i], c[i + 1:i + 2], c[i:i + 1],
                                         c[i + 2:]]) for c in want)
        stream = EventStream(*cols, width=width, height=height,
                             t_start=t_start, t_end=t_start + span - 1)
        for got, exp in zip((stream.t, stream.x, stream.y, stream.p), want):
            assert got.dtype == exp.dtype
            assert np.array_equal(got, exp)

    @pytest.mark.parametrize("width, height", [(1, 1), (1, 2), (128, 128),
                                               (640, 480), (65536, 65536)])
    @pytest.mark.parametrize("t_start", [0, 1_000])
    def test_key_fits_up_to_a_span_of_one_bit_below_the_fields(
            self, monkeypatch, width, height, t_start):
        """With b bits of x, y and p, a span of 2**(64 - b) - 1 is sorted
        by the packed key, and a span of 2**(64 - b) by lexsort."""
        bits = (width - 1).bit_length() + (height - 1).bit_length() + 1
        for span, key_fits in [(2 ** (64 - bits) - 1, True),
                               (2 ** (64 - bits), False)]:
            t = np.array([t_start + span, t_start, t_start + span, t_start],
                         dtype=np.uint64)
            x = np.array([0, width - 1, width - 1, 0], dtype=np.uint16)
            y = np.array([height - 1, 0, 0, height - 1], dtype=np.uint16)
            p = np.array([-1, 1, 1, -1], dtype=np.int8)
            with monkeypatch.context() as m:
                if key_fits:
                    m.setattr(np, "lexsort", None)  # the key path must not call it
                stream = EventStream(t=t, x=x, y=y, p=p, width=width,
                                     height=height, t_start=t_start,
                                     t_end=t_start + span)
            for got, exp in zip((stream.t, stream.x, stream.y, stream.p),
                                lexsorted(t, x, y, p)):
                assert np.array_equal(got, exp)

    def test_canonical_columns_are_kept_as_given(self):
        rng = np.random.default_rng(3)
        t, x, y, p = lexsorted(
            rng.integers(0, 50, size=500).astype(np.uint64),
            rng.integers(0, 8, size=500).astype(np.uint16),
            rng.integers(0, 8, size=500).astype(np.uint16),
            rng.choice(np.array([-1, 1], dtype=np.int8), size=500))
        stream = EventStream(t=t, x=x, y=y, p=p, width=8, height=8,
                             t_start=0, t_end=50)
        assert (stream.t is t and stream.x is x and stream.y is y
                and stream.p is p)

    def test_sort_allocates_little_beyond_its_output(self):
        """Sorting shuffled events allocates the 13 B/event of sorted
        columns and little else; lexsort's order and gathers took
        21 B/event."""
        n = 200_000
        rng = np.random.default_rng(4)
        cols = (rng.integers(0, 2_000_000, size=n).astype(np.uint64),
                rng.integers(0, 128, size=n).astype(np.uint16),
                rng.integers(0, 128, size=n).astype(np.uint16),
                rng.choice(np.array([-1, 1], dtype=np.int8), size=n))
        tracemalloc.start()
        try:
            stream = EventStream(*cols, width=128, height=128, t_start=0,
                                 t_end=2_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stream.t is not cols[0]
        assert peak <= 16 * n

    @staticmethod
    def tie_heavy_canonical(n):
        """n lexsorted events over 2,000 microseconds on 128x128, so
        about 99 % of neighbouring pairs tie in t."""
        rng = np.random.default_rng(5)
        return lexsorted(
            rng.integers(0, 2_000, size=n).astype(np.uint64),
            rng.integers(0, 128, size=n).astype(np.uint16),
            rng.integers(0, 128, size=n).astype(np.uint16),
            rng.choice(np.array([-1, 1], dtype=np.int8), size=n))

    def test_order_check_allocates_no_column_sized_scratch(self):
        """Keeping canonical columns allocates at most 4 B/event: the order
        check compares one block of pairs at a time in place, where boolean
        gathers and a u64 key per event took 25 B/event."""
        n = 200_000
        cols = self.tie_heavy_canonical(n)
        tracemalloc.start()
        try:
            stream = EventStream(*cols, width=128, height=128, t_start=0,
                                 t_end=2_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stream.t is cols[0]
        assert peak <= 4 * n

    def test_evbin_export_allocates_one_buffer(self):
        """The EVB1 writer fills its one output buffer in place: at most
        17 B/event beside the 16 B records, where a record array and its
        joined copy took 32 B/event."""
        n = 200_000
        stream = EventStream(*self.tie_heavy_canonical(n), width=128,
                             height=128, t_start=0, t_end=2_000)
        tracemalloc.start()
        try:
            blob = serialize_event_stream(stream, "evbin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(blob, bytearray) and len(blob) == 36 + 16 * n
        assert peak <= 17 * n

    @pytest.mark.parametrize("first, second", [
        ((3, 2, 1), (3, 1, 1)),             # y only
        ((0, 2, 1), (5, 1, 1)),             # y, while x rises
        ((3, 2, 1), (2, 2, 1)),             # x only
        ((3, 2, 1), (3, 2, -1)),            # p only
        ((0, 1, 1), (65535, 0, 1)),         # y, with x at 65535
        ((1, 65535, 1), (0, 65535, 1)),     # x, with y at 65535
        ((65535, 65535, 1), (65535, 65535, -1)),
    ])
    @pytest.mark.parametrize("at", [3, 4, 5])
    def test_a_pair_across_a_block_boundary_is_checked(
            self, monkeypatch, first, second, at):
        """An out-of-order (x, y, p) pair at one t, as events at and at + 1,
        across the boundary of 4-pair blocks (or beside it), is sorted, and
        the same pair in order is kept as given."""
        import tapfuse.events as events
        monkeypatch.setattr(events, "_ORDER_BLOCK", 4)
        n = 12
        for a, b, canonical in [(first, second, False),
                                (second, first, True)]:
            t = np.arange(n, dtype=np.uint64)
            t[at + 1] = t[at]
            x = np.zeros(n, dtype=np.uint16)
            y = np.zeros(n, dtype=np.uint16)
            p = np.ones(n, dtype=np.int8)
            x[at], y[at], p[at] = a
            x[at + 1], y[at + 1], p[at + 1] = b
            stream = EventStream(t=t, x=x, y=y, p=p, width=65536,
                                 height=65536, t_start=0, t_end=n)
            want = lexsorted(t, x, y, p)
            for got, exp in zip((stream.t, stream.x, stream.y, stream.p),
                                want):
                assert np.array_equal(got, exp)
            assert (stream.x is x) == canonical

    @pytest.mark.parametrize("t_start, t_end", [(1, 20), (0, 8)])
    def test_events_outside_the_header_range_rejected(self, t_start, t_end):
        """A canonical stream's range is checked from its end events, and
        a stream out of order from its extremes."""
        for t in ([0, 3, 3, 9], [3, 9, 0, 3]):
            with pytest.raises(NonMonotonicHeader):
                EventStream(t=np.array(t, dtype=np.uint64),
                            x=np.zeros(4, dtype=np.uint16),
                            y=np.zeros(4, dtype=np.uint16),
                            p=np.ones(4, dtype=np.int8), width=2, height=2,
                            t_start=t_start, t_end=t_end)

    def test_each_key_breaks_a_tie(self):
        # t ties broken by y, then x, then p; each pair is out of order
        for a, b in [((5, 0, 1, 1), (5, 0, 0, 1)), ((5, 1, 0, 1), (5, 0, 0, 1)),
                     ((5, 0, 0, 1), (5, 0, 0, -1)), ((6, 0, 0, 1), (5, 9, 9, 1))]:
            t, x, y, p = (np.array(c) for c in zip(a, b))
            stream = EventStream(t=t, x=x, y=y, p=p, width=10, height=10,
                                 t_start=0, t_end=10)
            assert [stream[i] for i in range(2)] == [
                Event(x=b[1], y=b[2], t=b[0], p=b[3]),
                Event(x=a[1], y=a[2], t=a[0], p=a[3])]


# ---------------------------------------------------------------------------
# Byte-mutation fuzzing: only typed errors escape the parsers
# ---------------------------------------------------------------------------

VALID_CSV = (b"# width=8 height=6 t_start=0 t_end=5000\n"
             b"10,1,2,1\n10,1,2,-1\n250,7,5,1\n  # note=1\n4999,0,0,-1\r\n")
VALID_EVBIN = serialize_event_stream(parse_event_stream(VALID_CSV, "csv"),
                                     "evbin")
MUTATION_BYTES = st.one_of(
    st.binary(max_size=3),
    st.sampled_from([b"#", b",", b"\n", b"\r", b"-", b"+", b" ", b"=", b".",
                     b"\x00", b"\xff", b"9" * 25, b"\x01\x00\x00\x00"]))


def mutate(base: bytes, edits, cut) -> bytes:
    """Each edit replaces one byte with a short byte string (a delete,
    replace or insert); then the buffer is cut at a random length."""
    blob = bytearray(base)
    for pos, repl in edits:
        pos = min(pos, max(len(blob) - 1, 0))
        blob[pos:pos + 1] = repl
    return bytes(blob[:cut])


@pytest.mark.parametrize("fmt,base", [("csv", VALID_CSV),
                                      ("evbin", VALID_EVBIN)])
@settings(max_examples=300, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(0, 120), MUTATION_BYTES),
                      min_size=1, max_size=4),
       cut=st.integers(0, 130))
def test_mutated_event_file_raises_only_typed_errors(fmt, base, edits, cut):
    try:
        parse_event_stream(mutate(base, edits, cut), fmt)
    except TapfuseError:
        pass
