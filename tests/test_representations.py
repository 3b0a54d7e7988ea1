import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tapfuse.errors import GeometryMismatch
from tapfuse.events import Event, EventBatch, EventStream
from tapfuse.representations import (
    _subwindow_index,
    event_count_image,
    sbt_time_surface,
    voxel_grid,
)


def make_batch(events, bin_start, bin_end):
    evs = sorted(events, key=lambda e: (e.t, e.y, e.x, e.p))
    return EventBatch(
        t=np.array([e.t for e in evs], dtype=np.uint64),
        x=np.array([e.x for e in evs], dtype=np.uint16),
        y=np.array([e.y for e in evs], dtype=np.uint16),
        p=np.array([e.p for e in evs], dtype=np.int8),
        bin_start=bin_start, bin_end=bin_end)


def random_batch(rng, n=300, width=16, height=12, bin_start=0, bin_end=10_000):
    events = [Event(x=int(rng.integers(0, width)), y=int(rng.integers(0, height)),
                    t=int(rng.integers(bin_start + 1, bin_end + 1)),
                    p=int(rng.choice([-1, 1]))) for _ in range(n)]
    return make_batch(events, bin_start, bin_end)


def brute_force_time_surface(batch, width, height, B):
    out = np.zeros((height, width, B))
    dur = batch.bin_end - batch.bin_start
    len_b = dur / B
    for i in range(len(batch)):
        t, x, y, p = int(batch.t[i]), int(batch.x[i]), int(batch.y[i]), int(batch.p[i])
        frac = (t - batch.bin_start) / dur
        b = min(B - 1, int(np.ceil(frac * B)) - 1)
        s_b = batch.bin_start + b * len_b
        best = None
        for j in range(len(batch)):
            if (int(batch.x[j]), int(batch.y[j])) != (x, y):
                continue
            fj = (int(batch.t[j]) - batch.bin_start) / dur
            if min(B - 1, int(np.ceil(fj * B)) - 1) != b:
                continue
            key = (int(batch.t[j]), int(batch.p[j]))
            if best is None or key > best:
                best = key
        out[y, x, b] = best[1] * min((best[0] - s_b) / len_b, 1.0)
    return out


def exact_subwindow(t, bin_start, duration, B):
    """The right-closed sub-window of an event at t in exact rationals: the
    k with k / B < (t - bin_start) / duration <= (k + 1) / B."""
    return math.ceil(Fraction(t - bin_start, duration) * B) - 1


def cell_index(batch, width, B):
    """Each event's flat (y, x, sub-window) cell, as sbt_time_surface
    assigns it, and its sub-window."""
    b = np.array([exact_subwindow(int(t), batch.bin_start, batch.duration, B)
                  for t in batch.t], dtype=np.int64)
    return (batch.y.astype(np.int64) * width + batch.x) * B + b, b


def argsort_time_surface(batch, width, height, B):
    """The stable-argsort last write that np.maximum.at replaced, kept as
    the oracle for its bytes."""
    data = np.zeros((height, width, B), dtype=np.float64)
    if len(batch):
        flat, b = cell_index(batch, width, B)
        len_b = batch.duration / B
        s_b = float(batch.bin_start) + b * len_b
        mag = np.clip((batch.t.astype(np.float64) - s_b) / len_b, 0.0, 1.0)
        val = batch.p.astype(np.float64) * mag
        order = np.argsort(flat, kind="stable")
        flat, val = flat[order], val[order]
        last = np.flatnonzero(np.r_[flat[1:] != flat[:-1], True])
        data.reshape(-1)[flat[last]] = val[last]
    return data


class TestTimeSurface:
    def test_empty_batch(self):
        batch = make_batch([], 0, 1000)
        tensor = sbt_time_surface(batch, 6, 4, B=5)
        assert tensor.data.shape == (4, 6, 5)
        assert not tensor.data.any()

    def test_event_at_subwindow_end_normalizes_to_one(self):
        # bin (0, 1000], B=5: sub-window 1 is (200, 400]
        batch = make_batch([Event(2, 1, 400, 1)], 0, 1000)
        tensor = sbt_time_surface(batch, 4, 4, B=5)
        assert tensor.data[1, 2, 1] == pytest.approx(1.0)
        assert np.count_nonzero(tensor.data) == 1

    def test_later_event_wins(self):
        # sub-window 0 of (0, 1000] with B=1... use B=5, sub-window 2: (400, 600]
        batch = make_batch([Event(0, 0, 460, 1), Event(0, 0, 560, -1)], 0, 1000)
        tensor = sbt_time_surface(batch, 2, 2, B=5)
        assert tensor.data[0, 0, 2] == pytest.approx(-0.8)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(10)
        batch = random_batch(rng)
        got = sbt_time_surface(batch, 16, 12, B=5).data
        want = brute_force_time_surface(batch, 16, 12, B=5)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_duplicate_event_idempotent(self):
        rng = np.random.default_rng(11)
        batch = random_batch(rng, n=50)
        events = [Event(int(batch.x[i]), int(batch.y[i]), int(batch.t[i]),
                        int(batch.p[i])) for i in range(len(batch))]
        dup = make_batch(events + [events[7]], batch.bin_start, batch.bin_end)
        a = sbt_time_surface(batch, 16, 12).data
        b = sbt_time_surface(dup, 16, 12).data
        np.testing.assert_array_equal(a, b)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(12)
        data = sbt_time_surface(random_batch(rng), 16, 12).data
        assert np.all(np.abs(data) <= 1.0)

    def test_event_at_bin_end_stays_within_one(self):
        # len_b = 4166.8 is inexact, so s_b of the last sub-window rounds
        # apart from t and the unclamped value came out 1 + 6.7e-16
        batch = make_batch([Event(0, 0, 41667, 1)], 20833, 41667)
        data = sbt_time_surface(batch, 1, 1, B=5).data
        assert data[0, 0, 4] == 1.0

    def test_geometry_mismatch(self):
        batch = make_batch([Event(10, 1, 5, 1)], 0, 10)
        with pytest.raises(GeometryMismatch):
            sbt_time_surface(batch, 8, 8)


@settings(max_examples=200, deadline=None)
@given(bin_start=st.one_of(st.integers(0, 10**9), st.integers(2**53, 2**62)),
       duration=st.integers(1, 10**6), B=st.integers(1, 8),
       events=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 3),
                                 st.integers(0, 2), st.sampled_from([-1, 1])),
                       max_size=40))
# past 2**53 t and the sub-window's start s_b round apart: t = 230 of this
# (0, 912] bin lies just past sub-window 2's start, 228, but rounds below it
@example(bin_start=1117559093848664280, duration=912, B=8,
         events=[(230 / 912, 1, 0, 1)])
def test_time_surface_values_lie_in_unit_interval(bin_start, duration, B,
                                                  events):
    evs = [Event(x, y, bin_start + max(1, round(f * duration)), p)
           for f, x, y, p in events]
    # the sub-window ends, where rounding pushes the value past 1
    evs += [Event(0, 0, bin_start + max(1, round(k * duration / B)), 1)
            for k in range(1, B + 1)]
    data = sbt_time_surface(make_batch(evs, bin_start, bin_start + duration),
                            4, 3, B=B).data
    assert np.all(np.abs(data) <= 1.0)


# ---------------------------------------------------------------------------
# The sub-window index in integers
# ---------------------------------------------------------------------------

@st.composite
def subwindow_cases(draw):
    """A bin, possibly starting below 0 or past 2**53, where times no
    longer fit float64, B in 1..200, and events anywhere in it, on its
    sub-window ends and just after them."""
    B = draw(st.integers(1, 200))
    duration = draw(st.integers(1, 10**6))
    bin_start = draw(st.one_of(st.integers(-duration + 1, 10**9),
                               st.integers(2**53, 2**62)))
    bin_end = bin_start + duration
    first = max(bin_start + 1, 0)
    ends = sorted({bin_start + duration * k // B + d
                   for k in range(B + 1) for d in (0, 1)})
    t = st.one_of(st.integers(first, bin_end),
                  st.sampled_from([e for e in ends if first <= e <= bin_end]))
    events = draw(st.lists(st.builds(Event, x=st.just(0), y=st.just(0), t=t,
                                     p=st.just(1)), min_size=1, max_size=30))
    return make_batch(events, bin_start, bin_end), B


@settings(max_examples=300, deadline=None)
@given(subwindow_cases())
def test_subwindow_index_is_exact(case):
    batch, B = case
    want = [exact_subwindow(int(t), batch.bin_start, batch.duration, B)
            for t in batch.t]
    assert _subwindow_index(batch, B).tolist() == want


def test_an_event_on_a_subwindow_end_stays_in_it():
    # B = 25 over (0, 25]: fl(fl(7 / 25) * 25) > 7, so float64 put t = 7,
    # the end of sub-window 6, into sub-window 7 with the value +0.0
    batch = make_batch([Event(0, 0, 7, 1)], 0, 25)
    surface = sbt_time_surface(batch, 1, 1, B=25).data[0, 0]
    assert surface[6] == 1.0 and np.count_nonzero(surface) == 1
    counts = event_count_image(batch, 1, 1, B=25).data[0, 0]
    assert counts[6] == 1.0 and np.count_nonzero(counts) == 1


def test_duration_past_the_integer_range_rejected():
    batch = make_batch([Event(0, 0, 1, 1)], 0, 2**62)
    with pytest.raises(GeometryMismatch, match="2\\*\\*64"):
        sbt_time_surface(batch, 1, 1, B=5)


# ---------------------------------------------------------------------------
# The last write against the stable-argsort body it replaced
# ---------------------------------------------------------------------------

@st.composite
def surface_cases(draw):
    """A batch with many events on few cells, equal-t ties of both
    polarities in one cell, and events on sub-window ends and just after
    sub-window starts. A bin start past 2**55 rounds times onto their
    sub-window's start in float64, so events there write +0.0 or -0.0."""
    width, height = draw(st.sampled_from([(1, 1), (2, 1), (1, 3), (4, 3)]))
    B = draw(st.integers(1, 8))
    bin_start = draw(st.one_of(st.integers(0, 10**9),
                               st.integers(2**55, 2**62)))
    bin_end = bin_start + draw(st.integers(1, 10**5))
    ends = {bin_start + (bin_end - bin_start) * k // B + d
            for k in range(B + 1) for d in (0, 1)}
    t = st.one_of(st.integers(bin_start + 1, bin_end),
                  st.sampled_from(sorted(e for e in ends
                                         if bin_start < e <= bin_end)))
    cells = draw(st.lists(st.tuples(st.integers(0, width - 1),
                                    st.integers(0, height - 1)),
                          min_size=1, max_size=3))
    events = draw(st.lists(st.builds(lambda xy, t, p: Event(*xy, t, p),
                                     st.sampled_from(cells), t,
                                     st.sampled_from([-1, 1])),
                           max_size=80))
    if events:
        events += [Event(e.x, e.y, e.t, -e.p)
                   for e in draw(st.lists(st.sampled_from(events),
                                          max_size=20))]
    return make_batch(events, bin_start, bin_end), width, height, B


@settings(max_examples=300, deadline=None)
@given(surface_cases())
@example((make_batch([], 0, 10), 1, 1, 1))
def test_time_surface_keeps_the_argsort_bytes(case):
    batch, width, height, B = case
    got = sbt_time_surface(batch, width, height, B).data
    want = argsort_time_surface(batch, width, height, B)
    assert got.dtype == np.float64 and got.shape == (height, width, B)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(surface_cases())
def test_cells_without_events_read_positive_zero(case):
    """The event indices written into the output as scratch never survive
    in a cell that no event touched."""
    batch, width, height, B = case
    got = sbt_time_surface(batch, width, height, B).data.reshape(-1)
    untouched = np.ones(got.size, dtype=bool)
    untouched[cell_index(batch, width, B)[0]] = False
    assert not got.view(np.uint64)[untouched].any()


def test_last_event_writing_negative_zero_keeps_it():
    # t rounds onto the bin start in float64: cell (0, 0) gets +0.0 then
    # -0.0, cell (1, 0) -0.0 then +0.0
    s = 2**55
    batch = make_batch([Event(0, 0, s + 1, 1), Event(0, 0, s + 3, -1),
                        Event(1, 0, s + 1, -1), Event(1, 0, s + 2, 1)],
                       s, s + 100)
    data = sbt_time_surface(batch, 2, 1, B=1).data
    assert data[0, 0, 0] == 0.0 and np.signbit(data[0, 0, 0])
    assert data[0, 1, 0] == 0.0 and not np.signbit(data[0, 1, 0])


class TestCountImage:
    def test_empty(self):
        assert not event_count_image(make_batch([], 0, 100), 4, 4).data.any()

    def test_signed_accumulation(self):
        evs = [Event(1, 1, 50, 1), Event(1, 1, 60, 1), Event(1, 1, 70, 1),
               Event(1, 1, 80, -1)]
        tensor = event_count_image(make_batch(evs, 0, 500), 4, 4, B=5)
        assert tensor.data[1, 1, 0] == pytest.approx(2.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(13)
        batch = random_batch(rng)
        got = event_count_image(batch, 16, 12, B=5).data
        want = np.zeros((12, 16, 5))
        dur = batch.bin_end - batch.bin_start
        for i in range(len(batch)):
            frac = (int(batch.t[i]) - batch.bin_start) / dur
            b = min(4, int(np.ceil(frac * 5)) - 1)
            want[int(batch.y[i]), int(batch.x[i]), b] += int(batch.p[i])
        np.testing.assert_allclose(got, want)

    def test_linearity_over_disjoint_batches(self):
        rng = np.random.default_rng(14)
        a = random_batch(rng, n=100, bin_start=0, bin_end=10_000)
        b = random_batch(rng, n=100, bin_start=0, bin_end=10_000)
        merged_events = [Event(int(batch.x[i]), int(batch.y[i]), int(batch.t[i]),
                               int(batch.p[i]))
                         for batch in (a, b) for i in range(len(batch))]
        merged = make_batch(merged_events, 0, 10_000)
        np.testing.assert_allclose(
            event_count_image(merged, 16, 12).data,
            event_count_image(a, 16, 12).data + event_count_image(b, 16, 12).data)


class TestVoxelGrid:
    def test_event_at_channel_center(self):
        # bin (0, 1000], B=5: channel 1 center at 300
        batch = make_batch([Event(0, 0, 300, 1)], 0, 1000)
        data = voxel_grid(batch, 2, 2, B=5).data
        assert data[0, 0, 1] == pytest.approx(1.0)
        assert data.sum() == pytest.approx(1.0)

    def test_event_midway_between_centers(self):
        # centers at 300 and 500; event at 400 splits evenly
        batch = make_batch([Event(0, 0, 400, -1)], 0, 1000)
        data = voxel_grid(batch, 2, 2, B=5).data
        assert data[0, 0, 1] == pytest.approx(-0.5)
        assert data[0, 0, 2] == pytest.approx(-0.5)

    def test_mass_conservation(self):
        rng = np.random.default_rng(15)
        batch = random_batch(rng, n=500)
        data = voxel_grid(batch, 16, 12).data
        assert data.sum() == pytest.approx(batch.p.astype(np.float64).sum(),
                                           abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), width=st.integers(1, 9), height=st.integers(1, 9),
           B=st.integers(1, 7), bin_start=st.integers(0, 10**9),
           duration=st.integers(1, 10**6))
    def test_mass_conservation_property(self, data, width, height, B,
                                        bin_start, duration):
        """Every event's polarity lands in its own pixel's channels, whole,
        wherever it falls in the bin (the first and last half channels
        included)."""
        events = data.draw(st.lists(st.builds(
            Event, x=st.integers(0, width - 1), y=st.integers(0, height - 1),
            t=st.integers(bin_start + 1, bin_start + duration),
            p=st.sampled_from([-1, 1])), max_size=60))
        batch = make_batch(events, bin_start, bin_start + duration)
        want = np.zeros((height, width))
        np.add.at(want, (batch.y.astype(int), batch.x.astype(int)), batch.p)
        got = voxel_grid(batch, width, height, B).data.sum(axis=2)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_times_past_2_53_keep_their_offset_into_the_bin(self):
        """The offset into the bin is taken in u64 before the float cast,
        so a (2**55, 2**55 + 100] bin gives the (0, 100] bin's grid."""
        events = [Event(x, y, t, p) for x, y, t, p in
                  [(0, 0, 3, 1), (1, 0, 21, -1), (1, 1, 50, 1), (0, 1, 77, 1),
                   (0, 0, 100, -1)]]
        want = voxel_grid(make_batch(events, 0, 100), 2, 2, B=5).data
        s = 2**55
        shifted = make_batch([e._replace(t=s + e.t) for e in events],
                             s, s + 100)
        assert voxel_grid(shifted, 2, 2, B=5).data.tobytes() == want.tobytes()

    def test_matches_per_event_kernel_oracle(self):
        rng = np.random.default_rng(16)
        batch = random_batch(rng, n=200)
        B = 5
        want = np.zeros((12, 16, B))
        dur = batch.bin_end - batch.bin_start
        for i in range(len(batch)):
            u = (int(batch.t[i]) - batch.bin_start) / dur * B - 0.5
            u = min(max(u, 0.0), B - 1.0)
            for b in range(B):
                w = max(0.0, 1.0 - abs(u - b))
                want[int(batch.y[i]), int(batch.x[i]), b] += int(batch.p[i]) * w
        np.testing.assert_allclose(voxel_grid(batch, 16, 12, B).data, want,
                                   atol=1e-12)


def shift_batch(batch, dx, dy, width, height):
    return EventBatch(
        t=batch.t, x=(batch.x.astype(np.int64) + dx).astype(np.uint16),
        y=(batch.y.astype(np.int64) + dy).astype(np.uint16),
        p=batch.p, bin_start=batch.bin_start, bin_end=batch.bin_end)


@pytest.mark.parametrize("fn", [sbt_time_surface, event_count_image, voxel_grid])
def test_translation_equivariance(fn):
    rng = np.random.default_rng(17)
    batch = random_batch(rng, n=200, width=10, height=8)
    shifted = shift_batch(batch, 3, 2, 16, 12)
    a = fn(batch, 16, 12).data
    b = fn(shifted, 16, 12).data
    np.testing.assert_array_equal(a[:-2, :-3], b[2:, 3:])
    assert not b[:2, :, :].any() and not b[:, :3, :].any()


# ---------------------------------------------------------------------------
# The per-cell sums against the np.add.at bodies they replaced
# ---------------------------------------------------------------------------

def add_at_count_image(batch, width, height, B):
    """The np.add.at count image that np.bincount replaced, kept as the
    oracle for its bytes."""
    data = np.zeros((height, width, B), dtype=np.float64)
    if len(batch):
        rel = batch.t.astype(np.float64) - float(batch.bin_start)
        frac = rel / float(batch.duration)
        b = np.clip(np.ceil(frac * B) - 1, 0, B - 1).astype(np.int64)
        np.add.at(data, (batch.y.astype(np.int64), batch.x.astype(np.int64), b),
                  batch.p.astype(np.float64))
    return data


def add_at_voxel_grid(batch, width, height, B):
    """The two-np.add.at voxel grid that np.bincount replaced, kept as the
    oracle for its bytes."""
    data = np.zeros((height, width, B), dtype=np.float64)
    if len(batch):
        rel = batch.t.astype(np.float64) - float(batch.bin_start)
        u = rel / float(batch.duration) * B - 0.5
        u = np.clip(u, 0.0, B - 1.0)
        lo = np.floor(u).astype(np.int64)
        hi = np.minimum(lo + 1, B - 1)
        w_hi = u - lo
        pol = batch.p.astype(np.float64)
        yy = batch.y.astype(np.int64)
        xx = batch.x.astype(np.int64)
        np.add.at(data, (yy, xx, lo), pol * (1.0 - w_hi))
        np.add.at(data, (yy, xx, hi), pol * w_hi)
    return data


@st.composite
def sum_cases(draw):
    """A batch on a small sensor, sometimes all on one cell, with events
    anywhere in the bin, at sub-window ends, just past them and at the bin
    end."""
    width, height = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    B = draw(st.integers(1, 7))
    bin_start = draw(st.integers(0, 10**9))
    bin_end = bin_start + draw(st.integers(1, 10**5))
    ends = {bin_start + (bin_end - bin_start) * k // B + d
            for k in range(1, B + 1) for d in (0, 1)}
    t = st.one_of(st.integers(bin_start + 1, bin_end), st.just(bin_end),
                  st.sampled_from(sorted(e for e in ends
                                         if bin_start < e <= bin_end)))
    if draw(st.booleans()):
        x, y = st.integers(0, width - 1), st.integers(0, height - 1)
    else:
        x, y = st.just(width - 1), st.just(0)
    events = draw(st.lists(st.builds(Event, x=x, y=y, t=t,
                                     p=st.sampled_from([-1, 1])),
                           max_size=80))
    return make_batch(events, bin_start, bin_end), width, height, B


@settings(max_examples=300, deadline=None)
@given(sum_cases())
@example((make_batch([], 0, 10), 3, 2, 4))
@example((make_batch([Event(2, 1, 10, -1)], 0, 10), 3, 2, 4))
def test_per_cell_sums_keep_the_add_at_bytes(case):
    """np.bincount adds each cell's weights in event order, as np.add.at
    does, so the count image and the voxel grid keep their bytes."""
    batch, width, height, B = case
    for fn, oracle in ((event_count_image, add_at_count_image),
                       (voxel_grid, add_at_voxel_grid)):
        got = fn(batch, width, height, B).data
        assert got.dtype == np.float64 and got.shape == (height, width, B)
        assert got.tobytes() == oracle(batch, width, height, B).tobytes()
