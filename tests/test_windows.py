"""Window math and stage-2 aggregator behaviour."""

import random

import pytest

from streamq import OutOfOrderTuple, WindowAggregator, WindowSpec, window_starts


def brute_force_starts(t, spec):
    """Enumerate every candidate start up to t and filter by membership."""
    return [s for s in range(0, t + 1, spec.advance) if s + spec.size > t]


class TestWindowStarts:
    def test_overlapping_ten_five(self):
        assert window_starts(7, WindowSpec(10, 5)) == [0, 5]

    def test_origin_only(self):
        assert window_starts(0, WindowSpec(4, 2)) == [0]

    def test_mid_stream(self):
        assert window_starts(5, WindowSpec(4, 2)) == [2, 4]

    def test_boundary_is_half_open(self):
        # t = size falls out of the first window but into later ones.
        assert window_starts(4, WindowSpec(4, 2)) == [2, 4]

    def test_tumbling(self):
        assert window_starts(9, WindowSpec(5, 5)) == [5]
        assert window_starts(10, WindowSpec(5, 5)) == [10]

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
            window_starts(-1, WindowSpec(4, 2))

    @pytest.mark.parametrize("size,advance", [(10, 5), (4, 2), (7, 3), (5, 5)])
    def test_matches_brute_force(self, size, advance):
        spec = WindowSpec(size, advance)
        for t in range(0, 500):
            assert window_starts(t, spec) == brute_force_starts(t, spec), t

    def test_matches_brute_force_random_specs(self):
        rng = random.Random(2024)
        for _ in range(200):
            size = rng.randint(1, 50)
            advance = rng.randint(1, size)
            spec = WindowSpec(size, advance)
            t = rng.randint(0, 10_000)
            assert window_starts(t, spec) == brute_force_starts(t, spec)


class TestWindowSpec:
    def test_advance_beyond_size_rejected(self):
        with pytest.raises(ValueError):
            WindowSpec(4, 5)

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            WindowSpec(0, 1)
        with pytest.raises(ValueError):
            WindowSpec(4, 0)


class TestWindowAggregator:
    def test_expiry_trace(self):
        agg = WindowAggregator(WindowSpec(4, 2))
        assert agg.update(0, 5) == []
        assert agg.update(1, 3) == []
        assert agg.update(2, 7) == []
        expired = agg.update(4, 1)
        assert [(p.start, p.total) for p in expired] == [(0, 15)]

    def test_finalize_flushes_remaining(self):
        agg = WindowAggregator(WindowSpec(4, 2))
        for ts, value in [(0, 5), (1, 3), (2, 7), (4, 1)]:
            agg.update(ts, value)
        remaining = agg.finalize()
        assert [(p.start, p.total) for p in remaining] == [(2, 8), (4, 1)]
        assert agg.finalize() == []

    def test_update_after_finalize_rejected(self):
        # A tuple after the flush would reopen window 0, already emitted.
        agg = WindowAggregator(WindowSpec(4, 2))
        agg.update(0, 1)
        assert [(p.start, p.total) for p in agg.finalize()] == [(0, 1)]
        with pytest.raises(OutOfOrderTuple):
            agg.update(1, 1)
        with pytest.raises(OutOfOrderTuple):
            agg.update(100, 1)
        assert agg.finalize() == []
        assert agg.emitted_count == 1

    def test_update_after_empty_finalize_rejected(self):
        agg = WindowAggregator(WindowSpec(4, 2))
        assert agg.finalize() == []
        with pytest.raises(OutOfOrderTuple):
            agg.update(0, 1)

    def test_fresh_finalize_empty(self):
        assert WindowAggregator(WindowSpec(4, 2)).finalize() == []

    def test_single_tuple_finalize(self):
        agg = WindowAggregator(WindowSpec(4, 2))
        agg.update(0, 9)
        assert [(p.start, p.total) for p in agg.finalize()] == [(0, 9)]

    def test_equal_timestamps_accepted(self):
        agg = WindowAggregator(WindowSpec(4, 2))
        agg.update(3, 1)
        agg.update(3, 2)
        assert agg.watermark == 3

    def test_out_of_order_rejected(self):
        agg = WindowAggregator(WindowSpec(4, 2))
        agg.update(5, 1)
        with pytest.raises(OutOfOrderTuple):
            agg.update(4, 1)

    def test_expiry_is_ascending_and_monotone(self):
        rng = random.Random(99)
        agg = WindowAggregator(WindowSpec(7, 3))
        ts = 0
        emitted = []
        for _ in range(2000):
            ts += rng.choice((0, 1, 1, 2, 9))
            emitted += agg.update(ts, rng.randint(0, 10))
        emitted += agg.finalize()
        starts = [p.start for p in emitted]
        assert starts == sorted(starts)
        assert len(set(starts)) == len(starts)
        assert agg.emitted_count == len(emitted)

    def test_sparse_stream_skips_empty_windows(self):
        agg = WindowAggregator(WindowSpec(4, 2))
        agg.update(0, 1)
        expired = agg.update(100, 1)
        assert [(p.start, p.total) for p in expired] == [(0, 1)]
        # Nothing between the two bursts materialized a window.
        assert [(p.start, p.total) for p in agg.finalize()] == [(98, 1), (100, 1)]


class DictAggregator:
    """Reference stage-2 aggregator: every tuple adds its value to each
    window ``window_starts`` names, and a window is emitted once the
    watermark passes its end. A window exists once a tuple lands in it."""

    def __init__(self, spec, source):
        self.spec = spec
        self.source = source
        self.sums = {}
        self.watermark = -1
        self.emitted_count = 0

    def update(self, timestamp, value):
        for s in window_starts(timestamp, self.spec):
            self.sums[s] = self.sums.get(s, 0) + value
        self.watermark = timestamp
        return self._expire(timestamp - self.spec.size)

    def finalize(self):
        return self._expire(None)

    def _expire(self, horizon):
        starts = sorted(s for s in self.sums if horizon is None or s <= horizon)
        self.emitted_count += len(starts)
        return [(s, self.sums.pop(s), self.source) for s in starts]


def random_trace(rng, size, length):
    """A sorted trace with repeated timestamps, short steps, gaps wider
    than the window, and zero and negative values."""
    ts = rng.randint(0, 3 * size)
    trace = []
    for _ in range(length):
        ts += rng.choice((0, 0, 1, 1, 2, size + rng.randint(1, 2 * size)))
        trace.append((ts, rng.choice((0, 0, -1, rng.randint(-5, 5)))))
    return trace


def assert_same_partials(spec, trace):
    panes = WindowAggregator(spec, source=7)
    reference = DictAggregator(spec, source=7)
    for ts, value in trace:
        got = [tuple(p) for p in panes.update(ts, value)]
        assert got == reference.update(ts, value), (spec, ts)
        assert panes.watermark == reference.watermark
        assert panes.emitted_count == reference.emitted_count
    assert [tuple(p) for p in panes.finalize()] == reference.finalize(), spec
    assert panes.emitted_count == reference.emitted_count
    assert panes.finalize() == []


class TestPanesMatchPerWindowSums:
    @pytest.mark.parametrize(
        "size,advance", [(64, 1), (4, 2), (10, 4), (6, 4), (5, 5)]
    )
    def test_fixed_specs(self, size, advance):
        rng = random.Random(size * 100 + advance)
        spec = WindowSpec(size, advance)
        for _ in range(40):
            assert_same_partials(spec, random_trace(rng, size, rng.randint(0, 150)))

    def test_random_specs(self):
        rng = random.Random(8)
        for _ in range(400):
            size = rng.randint(1, 40)
            spec = WindowSpec(size, rng.randint(1, size))
            assert_same_partials(spec, random_trace(rng, size, rng.randint(0, 80)))

    def test_zero_sum_window_is_still_emitted(self):
        agg = WindowAggregator(WindowSpec(4, 2))
        agg.update(1, 3)
        agg.update(1, -3)
        assert [tuple(p) for p in agg.update(9, 0)] == [(0, 0, 0)]

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
            WindowAggregator(WindowSpec(4, 2)).update(-1, 1)

    def test_negative_timestamp_named_before_the_watermark(self):
        # -5 is also below the fresh aggregator's watermark of -1, which
        # the caller never set: the error names the timestamp's own fault.
        with pytest.raises(ValueError, match="non-negative"):
            WindowAggregator(WindowSpec(4, 2)).update(-5, 1)
