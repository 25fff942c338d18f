"""Final aggregator: contribution tracking, watermarks, inactivity, and
the final stage that feeds it from its queues."""

import random
import threading

import pytest

from streamq import (
    AlreadyInactive,
    DuplicateContribution,
    FinalAggregator,
    InactiveSource,
    QueueConfig,
    QueueKind,
    WindowAggregator,
    WindowPartial,
    WindowSpec,
    new_queue,
)
from streamq.pipeline import SourceDone, _run_final

SPEC = WindowSpec(4, 2)


def test_window_ready_once_all_sources_pass_it():
    fa = FinalAggregator(SPEC, sources=[0, 1])
    assert fa.accept(WindowPartial(0, 10, 0)) == []
    assert fa.accept(WindowPartial(0, 5, 1)) == [(0, 15)]


def test_waiting_on_silent_active_source():
    fa = FinalAggregator(SPEC, sources=[0, 1])
    assert fa.accept(WindowPartial(0, 10, 0)) == []
    # Source 1 is active with no report: nothing may be released.
    assert fa.partials


def test_later_report_advances_watermark_past_skipped_windows():
    fa = FinalAggregator(SPEC, sources=[0, 1])
    fa.accept(WindowPartial(0, 10, 0))
    # Source 1 had nothing in [0,4) but reports [6,10): it can never
    # contribute to [0,4) anymore.
    released = fa.accept(WindowPartial(6, 2, 1))
    assert released == [(0, 10)]


def test_duplicate_contribution_rejected():
    fa = FinalAggregator(SPEC, sources=[0, 1])
    fa.accept(WindowPartial(0, 10, 0))
    with pytest.raises(DuplicateContribution):
        fa.accept(WindowPartial(0, 3, 0))


def test_inactive_source_rejected():
    fa = FinalAggregator(SPEC, sources=[0, 1])
    fa.mark_inactive(0)
    with pytest.raises(InactiveSource):
        fa.accept(WindowPartial(0, 1, 0))


def test_unknown_source_rejected():
    fa = FinalAggregator(SPEC, sources=[0])
    with pytest.raises(InactiveSource):
        fa.accept(WindowPartial(0, 1, 7))


def test_unknown_source_cannot_be_marked_inactive():
    fa = FinalAggregator(SPEC, sources=[0])
    with pytest.raises(InactiveSource):
        fa.mark_inactive(7)
    # Source 0 is still active: it reports, then ends.
    assert not fa.all_inactive()
    assert fa.accept(WindowPartial(0, 3, 0)) == [(0, 3)]
    assert fa.mark_inactive(0) == []
    assert fa.all_inactive()


def test_last_straggler_releases_everything_ascending():
    fa = FinalAggregator(SPEC, sources=[0, 1, 2])
    fa.accept(WindowPartial(0, 1, 0))
    fa.accept(WindowPartial(2, 2, 0))
    fa.accept(WindowPartial(0, 4, 1))
    fa.mark_inactive(0)
    fa.mark_inactive(1)
    released = fa.mark_inactive(2)
    assert released == [(0, 5), (2, 2)]
    assert fa.all_inactive()
    assert not fa.partials


def test_mark_inactive_twice_rejected():
    fa = FinalAggregator(SPEC, sources=[0])
    fa.mark_inactive(0)
    with pytest.raises(AlreadyInactive):
        fa.mark_inactive(0)


def test_inactive_with_nothing_pending_returns_empty():
    fa = FinalAggregator(SPEC, sources=[0, 1])
    assert fa.mark_inactive(0) == []


def test_each_window_reported_exactly_once():
    fa = FinalAggregator(SPEC, sources=[0, 1])
    out = []
    out += fa.accept(WindowPartial(0, 1, 0))
    out += fa.accept(WindowPartial(0, 1, 1))
    out += fa.accept(WindowPartial(2, 1, 0))
    out += fa.accept(WindowPartial(2, 1, 1))
    out += fa.mark_inactive(0)
    out += fa.mark_inactive(1)
    starts = [s for s, _ in out]
    assert starts == sorted(set(starts))
    assert fa.reported == set(starts)


class RecomputingFinal:
    """Reference final aggregator: recomputes the lowest watermark of the
    active sources on every call and releases every pending window whose
    end is at or below it, ascending."""

    def __init__(self, spec, sources):
        self.size = spec.size
        self.watermarks = {s: 0 for s in sources}
        self.active = set(self.watermarks)
        self.totals = {}
        self.contributors = {}
        self.reported = set()

    def accept(self, partial):
        start, total, source = partial
        if source not in self.active:
            raise InactiveSource(source)
        if start + self.size <= self.watermarks[source]:
            raise DuplicateContribution(start)
        self.totals[start] = self.totals.get(start, 0) + total
        self.contributors.setdefault(start, set()).add(source)
        self.watermarks[source] = max(self.watermarks[source], start + self.size)
        return self._release()

    def mark_inactive(self, source):
        if source not in self.watermarks:
            raise InactiveSource(source)
        if source not in self.active:
            raise AlreadyInactive(source)
        self.active.remove(source)
        return self._release()

    def _release(self):
        floor = min((self.watermarks[s] for s in self.active), default=None)
        ready = sorted(
            s for s in self.totals if floor is None or s + self.size <= floor
        )
        self.reported.update(ready)
        for s in ready:
            del self.contributors[s]
        return [(s, self.totals.pop(s)) for s in ready]


def outcome(call, *args):
    try:
        return call(*args)
    except ValueError as exc:
        return type(exc)


def test_cached_floor_matches_recomputed_floor():
    rng = random.Random(5)
    for _ in range(400):
        size = rng.randint(1, 12)
        spec = WindowSpec(size, rng.randint(1, size))
        n = rng.randint(1, 6)
        shipped, reference = FinalAggregator(spec, range(n)), RecomputingFinal(spec, range(n))
        # Each source reports ascending window starts, often in lockstep
        # with the others, so several sources sit at the floor at once.
        streams = []
        for _source in range(n):
            k, starts = rng.randint(0, 3), []
            for _ in range(rng.randint(0, 25)):
                starts.append(k * spec.advance)
                k += rng.choice((1, 1, 1, 2, 6))
            streams.append(starts)
        live = list(range(n))
        while live:
            source = rng.choice(live)
            if not streams[source] or rng.random() < 0.03:
                live.remove(source)
                call = ("mark_inactive", source)
            elif rng.random() < 0.05:  # a stray partial, often rejected
                call = ("accept", WindowPartial(
                    rng.randint(0, 60) * spec.advance, 1, rng.randint(0, n)
                ))
            else:
                call = ("accept", WindowPartial(
                    streams[source].pop(0), rng.randint(-3, 3), source
                ))
            name, arg = call
            got = outcome(getattr(shipped, name), arg)
            assert got == outcome(getattr(reference, name), arg), call
        assert shipped.reported == reference.reported
        assert not shipped.partials and shipped.all_inactive()


def test_any_int_is_a_source_id():
    # Sparse, negative and huge ids, in no particular order, each
    # compared call by call with the reference.
    sources = [10**9, -4, 3]
    shipped, reference = FinalAggregator(SPEC, sources), RecomputingFinal(SPEC, sources)
    calls = [
        ("accept", WindowPartial(0, 1, -4), []),
        ("accept", WindowPartial(0, 2, 3), []),
        ("accept", WindowPartial(0, 5, 3), DuplicateContribution),  # same source again
        ("accept", WindowPartial(2, 4, 10**9), [(0, 3)]),
        ("accept", WindowPartial(0, 1, 10**9), DuplicateContribution),  # already released
        ("accept", WindowPartial(2, 1, 7), InactiveSource),  # unknown source
        ("accept", WindowPartial(2, 6, -4), []),
        ("mark_inactive", -4, []),
        ("accept", WindowPartial(4, 1, -4), InactiveSource),  # inactive source
        ("accept", WindowPartial(4, 2, 3), [(2, 10)]),
        ("mark_inactive", 10**9, [(4, 2)]),
        ("mark_inactive", 3, []),
    ]
    for name, arg, want in calls:
        got = outcome(getattr(shipped, name), arg)
        assert got == want, (name, arg)
        assert outcome(getattr(reference, name), arg) == want, (name, arg)
    assert shipped.reported == reference.reported == {0, 2, 4}
    assert not shipped.partials and shipped.all_inactive()


class RecordingFinal(FinalAggregator):
    """Records the source of each partial it accepts, in arrival order."""

    def __init__(self, spec, sources):
        super().__init__(spec, sources)
        self.sources_seen = []

    def accept(self, partial):
        self.sources_seen.append(partial.source)
        return super().accept(partial)


def test_final_stage_drains_each_queue_it_visits():
    # Every queue holds its partials, its end marker and its finish before
    # the final stage starts, so the stage runs alone, in this thread.
    sources = range(3)
    consumers, partials = [], []
    for source in sources:
        agg = WindowAggregator(SPEC, source)
        out = [p for t in range(source, 12 + source) for p in agg.update(t, t * (source + 1))]
        out += agg.finalize()
        producer, consumer = new_queue(QueueKind.LAMPORT, QueueConfig(capacity=64))
        for message in out + [SourceDone(source)]:
            assert producer.try_enqueue(message)
        producer.producer_finish()
        consumers.append(consumer)
        partials.append(out)
    fa, results = RecordingFinal(SPEC, sources), {}
    _run_final(fa, consumers, results, threading.Event())
    # One visit takes all that a queue holds, so the accepts come grouped
    # by queue rather than one per queue in turn.
    assert fa.sources_seen == [p.source for out in partials for p in out]
    reference, expected = RecomputingFinal(SPEC, sources), {}
    for source, out in zip(sources, partials):
        for p in out:
            expected.update(reference.accept(p))
        expected.update(reference.mark_inactive(source))
    assert results == expected


def test_start_that_is_no_window_start_rejected():
    fa = FinalAggregator(SPEC, sources=[0, 1])
    for start in (3, -2, -1):  # unaligned, negative, both
        with pytest.raises(ValueError, match=rf"start {start} .*WindowSpec") as exc:
            fa.accept(WindowPartial(start, 1, 0))
        assert exc.type is ValueError
    assert not fa.partials
    assert fa.accept(WindowPartial(2, 5, 0)) == []
    assert fa.accept(WindowPartial(2, 1, 1)) == [(2, 6)]
    # Below the floor an unaligned start is no released window either.
    with pytest.raises(ValueError, match="start 1 ") as exc:
        fa.accept(WindowPartial(1, 1, 1))
    assert exc.type is ValueError
    assert fa.reported == {2}


def test_late_partials_rejected_and_gaps_append_runs():
    # Sparse windows leave gaps among the released starts: a release past
    # a gap appends one run. A partial that does not end past its
    # source's watermark raises, whether the window was released, is
    # pending or was never seen. Each call is compared with the
    # reference, and the last column is the number of runs after it.
    shipped, reference = FinalAggregator(SPEC, [0, 1]), RecomputingFinal(SPEC, [0, 1])
    calls = [
        ("accept", WindowPartial(4, 1, 0), [], 0),
        ("accept", WindowPartial(4, 2, 1), [(4, 3)], 1),
        ("accept", WindowPartial(6, 1, 0), [], 1),
        ("accept", WindowPartial(6, 1, 1), [(6, 2)], 1),
        ("accept", WindowPartial(10, 1, 0), [], 1),
        ("accept", WindowPartial(10, 1, 1), [(10, 2)], 2),  # 8 is missing
        ("accept", WindowPartial(8, 5, 0), DuplicateContribution, 2),  # never seen
        ("accept", WindowPartial(6, 1, 1), DuplicateContribution, 2),  # released
        ("accept", WindowPartial(12, 1, 0), [], 2),
        ("accept", WindowPartial(12, 1, 0), DuplicateContribution, 2),  # pending
        ("accept", WindowPartial(12, 1, 1), [(12, 2)], 2),
        ("accept", WindowPartial(18, 1, 0), [], 2),
        ("accept", WindowPartial(24, 1, 0), [], 2),
        ("accept", WindowPartial(24, 1, 1), [(18, 1), (24, 2)], 4),  # 14, 16, 20, 22 missing
        ("mark_inactive", 0, [], 4),
        ("accept", WindowPartial(26, 3, 1), [(26, 3)], 4),  # extends the last run
        ("mark_inactive", 1, [], 4),
    ]
    for name, arg, want, runs in calls:
        assert outcome(getattr(shipped, name), arg) == want, (name, arg)
        assert outcome(getattr(reference, name), arg) == want, (name, arg)
        assert shipped.reported == reference.reported, (name, arg)
        assert len(shipped._firsts) == len(shipped._afters) == runs, (name, arg)
    assert shipped.reported == {4, 6, 10, 12, 18, 24, 26}
    assert (shipped._firsts, shipped._afters) == ([4, 10, 18, 24], [8, 14, 20, 28])


def test_never_seen_window_below_watermark_names_it():
    fa = FinalAggregator(SPEC, sources=[0, 1])
    assert fa.accept(WindowPartial(6, 1, 0)) == []
    with pytest.raises(DuplicateContribution, match=r"window 2 .*watermark 10$"):
        fa.accept(WindowPartial(2, 1, 0))
    assert list(fa.partials) == [6] and not fa.reported
