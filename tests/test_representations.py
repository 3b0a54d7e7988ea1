import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tapfuse.errors import GeometryMismatch
from tapfuse.events import Event, EventBatch, EventStream
from tapfuse.representations import (
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
        out[y, x, b] = best[1] * (best[0] - s_b) / len_b
    return out


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
        np.testing.assert_allclose(got, want, atol=1e-12)

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
@given(bin_start=st.integers(0, 10**9), duration=st.integers(1, 10**6),
       B=st.integers(1, 8),
       events=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 3),
                                 st.integers(0, 2), st.sampled_from([-1, 1])),
                       max_size=40))
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
