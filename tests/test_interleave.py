"""Exhaustive interleaving exploration of the shipped queue classes."""

import pytest

from streamq import (
    BoundsExceeded, InvalidConfig, QueueConfig, QueueKind, explore_interleavings, new_queue,
)
from streamq.interleave import MAX_STATES, _Shared, _slots, _System, explore
from streamq.queues import (
    EMPTY, BatchQueueConsumer, BatchQueueProducer, LamportConsumer, LamportProducer,
    MCRingProducer, ProducerEndpoint, _Cell,
)


ALL_KINDS = list(QueueKind)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("capacity", [2, 3, 4])
def test_all_schedules_clean(kind, capacity):
    if kind is QueueKind.BATCHQUEUE and capacity % 2:
        pytest.skip("BatchQueue needs an even capacity")
    assert explore_interleavings(kind, capacity, 6) is None


def test_mcr_with_batching_clean():
    assert explore_interleavings(QueueKind.MCRINGBUFFER, 4, 6, mcr_batch=2) is None


def test_lamport_reference_scripts():
    assert explore_interleavings(QueueKind.LAMPORT, 2, 3) is None
    assert explore_interleavings(QueueKind.FASTFORWARD, 2, 2) is None


def test_publish_before_write_mutation_caught():
    trace = explore_interleavings(
        QueueKind.LAMPORT, 2, 2, mutation="publish_before_write"
    )
    assert trace is not None
    assert "FIFO" in trace.reason
    assert trace.steps  # a concrete schedule is attached
    assert any("early" in s for s in trace.steps)


def test_mutation_on_other_kind_rejected():
    with pytest.raises(ValueError):
        explore_interleavings(
            QueueKind.FASTFORWARD, 2, 2, mutation="publish_before_write"
        )


class TestBounds:
    def test_capacity_bound(self):
        with pytest.raises(BoundsExceeded):
            explore_interleavings(QueueKind.LAMPORT, 5, 2)

    def test_ops_bound(self):
        with pytest.raises(BoundsExceeded):
            explore_interleavings(QueueKind.LAMPORT, 2, 7)


def test_unreachable_scripts_rejected():
    # Batch equal to capacity is an invalid config (InvalidConfig is a
    # ValueError): such a ring would stall before the finish flush.
    with pytest.raises(ValueError):
        explore_interleavings(QueueKind.MCRINGBUFFER, 2, 6, mcr_batch=2)


@pytest.mark.parametrize("enqueues", [3, 4])
def test_mcr_batch_equal_capacity_is_invalid_config(enqueues):
    # Rejected before any run, not reported as a script that cannot
    # complete: 3 enqueues fit the ring, 4 do not.
    with pytest.raises(InvalidConfig):
        explore_interleavings(QueueKind.MCRINGBUFFER, 4, enqueues, mcr_batch=4)


def test_batch_grain_limits_default_dequeues():
    # 5 enqueues at half size 2 publish only two complete halves before
    # the finish; the consumer drains the rest after it, and the run
    # stays clean.
    assert explore_interleavings(QueueKind.BATCHQUEUE, 4, 5) is None
    assert explore_interleavings(QueueKind.MCRINGBUFFER, 4, 5, mcr_batch=2) is None


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_instrumentation_leaves_no_raw_shared_state(kind, monkeypatch):
    # The search sees only accesses made through the stand-ins, so a
    # shared field that bypasses them (one added without a _Cell, say)
    # would hide its interleavings. It must fail here instead.
    built = []

    def recording_new_queue(kind, config):
        built.append(new_queue(kind, config))
        return built[-1]

    monkeypatch.setattr("streamq.interleave.new_queue", recording_new_queue)
    system = _System(kind, QueueConfig(capacity=4))
    [pair] = built
    shared = system.shared
    assert shared is pair[0]._shared
    # The swap leaves the raw cells and ring only in new_queue's endpoints.
    raw = [v for e in pair for v in (getattr(e, n) for n in _slots(e))
           if isinstance(v, (_Cell, list))]
    assert raw
    for obj in (shared,) + system.endpoints[1:]:
        assert not getattr(obj, "__dict__", None), "state outside the slots"
        for name in _slots(obj):
            value = getattr(obj, name)
            assert not isinstance(value, _Cell), name
            assert all(value is not r for r in raw), name
    for name in _slots(shared):
        value = getattr(shared, name)
        assert isinstance(value, _Shared) or type(value) is int, name


@pytest.mark.parametrize("period", [1, 2])
@pytest.mark.parametrize("enqueues", range(1, 7))
def test_mcr_heartbeat_and_partial_flush_clean(period, enqueues):
    config = QueueConfig(capacity=4, mcr_batch_size=2, mcr_heartbeat_period=period)
    assert explore(QueueKind.MCRINGBUFFER, config, enqueues) is None


@pytest.mark.parametrize("enqueues", range(1, 7))
def test_batchqueue_leftovers_and_pending_publish_clean(enqueues):
    # Half size 2: every leftover remainder, and from 4 elements on a
    # completed half whose publication waits for the consumer.
    assert explore(QueueKind.BATCHQUEUE, QueueConfig(capacity=4), enqueues) is None


class _FinishWithoutFlush(MCRingProducer):
    """Seeded bug: producer_finish forgets the unpublished partial batch."""

    __slots__ = ()

    def producer_finish(self):
        self._shared.producer_done.value = True


def test_finish_without_flush_mutation_caught():
    trace = explore(
        QueueKind.MCRINGBUFFER,
        QueueConfig(capacity=4, mcr_batch_size=2),
        3,
        producer_class=_FinishWithoutFlush,
    )
    assert trace is not None
    assert "conservation" in trace.reason
    assert any("producer_finish" in s for s in trace.steps)


class _NeverPublishes(LamportProducer):
    """Seeded bug: the slot is written but the shared tail never stored."""

    __slots__ = ()

    def try_enqueue(self, item):
        tail = self._tail
        nxt = (tail + 1) % self._capacity
        if nxt == self._head_box.value:
            return False
        self._ring[tail] = item
        self._tail = nxt
        return True


class _AlwaysFull(LamportProducer):
    """Seeded bug: the ring always reads full."""

    __slots__ = ()

    def try_enqueue(self, item):
        return False


@pytest.mark.parametrize("enqueues", [2, 3])
@pytest.mark.parametrize("producer_class,reason", [
    (_NeverPublishes, "invariant violated: occupancy"),
    (_AlwaysFull, "progress violated"),
], ids=["never_publishes", "always_full"])
def test_stall_is_a_counterexample_not_a_bad_script(producer_class, reason, enqueues):
    # The consumer never sees an element, and at capacity 2 the producer
    # stalls after at most one: no fair run gets the script in.
    trace = explore(QueueKind.LAMPORT, QueueConfig(2), enqueues, producer_class=producer_class)
    assert trace is not None
    assert trace.reason.startswith(reason), trace.reason


class _PublishesEveryOther(LamportProducer):
    """Seeded bug with state of its own: the tail is published on every
    other enqueue only."""

    __slots__ = ("_skip",)

    def __init__(self, shared):
        super().__init__(shared)
        self._skip = False

    def try_enqueue(self, item):
        tail = self._tail
        nxt = (tail + 1) % self._capacity
        if nxt == self._head_box.value:
            return False
        self._ring[tail] = item
        self._tail = nxt
        if not self._skip:
            self._tail_box.value = nxt
        self._skip = not self._skip
        return True


def test_seeded_producer_with_its_own_slots_caught():
    # The seeded class is built from the shared state like the shipped
    # one, so it may add slots and set them in __init__.
    trace = explore(QueueKind.LAMPORT, QueueConfig(3), 3, producer_class=_PublishesEveryOther)
    assert trace is not None
    assert trace.reason.startswith("invariant violated: occupancy"), trace.reason


class _PublishWithoutWaiting(BatchQueueProducer):
    """Seeded bug: a pending hand-off is dropped instead of waited for,
    so the producer writes on into the half the consumer still owns."""

    __slots__ = ()

    def try_enqueue(self, item):
        self._pending_publish = False
        return super().try_enqueue(item)


@pytest.mark.parametrize("capacity,enqueues", [(2, 3), (4, 5)])
def test_batchqueue_half_ownership_violation_caught(capacity, enqueues):
    trace = explore(
        QueueKind.BATCHQUEUE, QueueConfig(capacity), enqueues,
        producer_class=_PublishWithoutWaiting,
    )
    assert trace is not None
    assert "half owned by the consumer" in trace.reason, trace.reason
    assert "store ring[" in trace.steps[-1]


class _FinishWithoutIndex(BatchQueueProducer):
    """Seeded bug: producer_finish never stores the final index, so the
    consumer cannot see the elements left over past the last half."""

    __slots__ = ()

    def producer_finish(self):
        ProducerEndpoint.producer_finish(self)


@pytest.mark.parametrize("enqueues,reason", [
    (1, "conservation violated"), (3, "FIFO violated"), (5, "conservation violated"),
])
def test_batchqueue_finish_without_index_caught(enqueues, reason):
    # The final index is the one store the end of the stream relies on.
    trace = explore(
        QueueKind.BATCHQUEUE, QueueConfig(4), enqueues, producer_class=_FinishWithoutIndex,
    )
    assert trace is not None
    assert trace.reason.startswith(reason), trace.reason


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_explore_checks_the_config_it_is_given(kind, monkeypatch):
    seen = []

    def recording_new_queue(kind, config):
        seen.append(config)
        return new_queue(kind, config)

    monkeypatch.setattr("streamq.interleave.new_queue", recording_new_queue)
    config = QueueConfig(capacity=4)
    assert explore(kind, config, 2) is None
    assert len(seen) == 1 and seen[0] is config


class _CountsCalls(LamportProducer):
    """Seeded producer whose own slot takes unboundedly many values: it
    counts its enqueue attempts, so a spin retry never revisits a state."""

    __slots__ = ("_calls",)

    def __init__(self, shared):
        super().__init__(shared)
        self._calls = 0

    def try_enqueue(self, item):
        self._calls += 1
        return super().try_enqueue(item)


def test_endless_search_raises_bounds_exceeded():
    with pytest.raises(BoundsExceeded, match=f"more than {MAX_STATES} states"):
        explore(QueueKind.LAMPORT, QueueConfig(2), 2, producer_class=_CountsCalls)


class _FinishedIgnoresStaging(BatchQueueConsumer):
    """Seeded bug: finished() forgets the elements still in the staging
    list, so it can hold before the consumer has taken them."""

    __slots__ = ()

    def finished(self):
        shared = self._shared
        return (shared.producer_done.value and not self._is_full.value
                and shared.enq_index.value == self._deq_index)


@pytest.mark.parametrize("enqueues", [2, 4, 6])
def test_batchqueue_finished_ignoring_staging_list_caught(enqueues):
    # The consumer also asks finished() after each element it takes, so a
    # half copied into the staging list is still being taken when it asks.
    trace = explore(
        QueueKind.BATCHQUEUE, QueueConfig(4), enqueues, consumer_class=_FinishedIgnoresStaging,
    )
    assert trace is not None
    assert trace.reason.startswith("conservation violated"), trace.reason
    assert trace.steps[-1].startswith("C: finished()")


class _ClearsAfterHandBack(BatchQueueConsumer):
    """Seeded bug: the copied half is cleared only after is_full has
    handed it back, so the clear can erase what the producer wrote."""

    __slots__ = ()

    def _refill(self, count):  # copies without clearing
        deq = self._deq_index
        self._copy_buf = self._ring[deq:deq + count][::-1]
        self._deq_index = (deq + count) % self._capacity
        return self._copy_buf

    def try_dequeue(self):
        deq = self._deq_index
        item = super().try_dequeue()
        count = (self._deq_index - deq) % self._capacity  # the range it copied, if any
        if count:
            self._ring[deq:deq + count] = [None] * count
        return item


@pytest.mark.parametrize("capacity,enqueues", [(2, 3), (4, 5), (4, 6)])
def test_batchqueue_clear_after_hand_back_caught(capacity, enqueues):
    trace = explore(
        QueueKind.BATCHQUEUE, QueueConfig(capacity), enqueues, consumer_class=_ClearsAfterHandBack,
    )
    # The consumer's operation still stores into the half after handing it
    # back, so the producer's next write there lands in a half it owns.
    assert trace is not None
    assert "half owned by the consumer" in trace.reason, trace.reason


class _ClearsTheNextSlot(LamportConsumer):
    """Seeded bug: the consumer clears the slot after the one it took."""

    __slots__ = ()

    def try_dequeue(self):
        head = self._head
        if head == self._tail_box.value:
            return EMPTY
        item = self._ring[head]
        nxt = (head + 1) % self._capacity
        self._ring[nxt] = None  # the wrong slot
        self._head = nxt
        self._head_box.value = nxt
        return item


def test_lamport_clear_of_the_wrong_slot_caught():
    # At capacity 2 the slot after the head is the guard slot, which the
    # producer cannot fill before the head moves: the search needs 3.
    trace = explore(QueueKind.LAMPORT, QueueConfig(3), 3, consumer_class=_ClearsTheNextSlot)
    assert trace is not None
    assert trace.reason.startswith("FIFO violated"), trace.reason
