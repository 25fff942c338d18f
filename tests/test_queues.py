"""Unit tests for the four queue kinds against hand-traced expectations."""

import ast
import os
import threading
import time
from pathlib import Path

import pytest

import streamq
from streamq import (
    EMPTY,
    Aborted,
    EndpointStats,
    InvalidConfig,
    QueueConfig,
    QueueKind,
    QueueTimeout,
    new_queue,
)
from streamq.queues import Waiter

ALL_KINDS = list(QueueKind)


def make(kind, capacity, **kw):
    return new_queue(kind, QueueConfig(capacity=capacity, **kw))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_fresh_queue_is_empty(kind):
    _, consumer = make(kind, 128)
    assert consumer.try_dequeue() is EMPTY


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_fifo_on_fresh_queue(kind):
    producer, consumer = make(kind, 8)
    for value in (1, 2, 3):
        assert producer.try_enqueue(value)
    producer.producer_finish()
    assert consumer.drain() == [1, 2, 3]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_capacity_below_two_rejected(kind):
    with pytest.raises(InvalidConfig):
        make(kind, 1)


def test_batchqueue_odd_capacity_rejected():
    with pytest.raises(InvalidConfig):
        make(QueueKind.BATCHQUEUE, 127)


def test_mcr_batch_must_divide_capacity():
    with pytest.raises(InvalidConfig):
        make(QueueKind.MCRINGBUFFER, 128, mcr_batch_size=96)
    with pytest.raises(InvalidConfig):
        make(QueueKind.MCRINGBUFFER, 8, mcr_batch_size=16)


def test_lamport_keeps_one_slot_free():
    producer, _ = make(QueueKind.LAMPORT, 2)
    assert producer.try_enqueue("a")
    assert not producer.try_enqueue("b")


def test_fastforward_uses_every_cell():
    producer, _ = make(QueueKind.FASTFORWARD, 2)
    assert producer.try_enqueue("a")
    assert producer.try_enqueue("b")
    assert not producer.try_enqueue("c")


def test_fastforward_carries_none_payloads():
    producer, consumer = make(QueueKind.FASTFORWARD, 4)
    assert producer.try_enqueue(None)
    assert producer.try_enqueue(0)
    assert consumer.try_dequeue() is None
    assert consumer.try_dequeue() == 0


def test_mcr_unpublished_elements_stay_invisible():
    producer, consumer = make(QueueKind.MCRINGBUFFER, 4, mcr_batch_size=4)
    for i in range(3):
        assert producer.try_enqueue(i)
    assert consumer.try_dequeue() is EMPTY


def test_mcr_batch_equal_capacity_publishes_once():
    # With batch == capacity the ring (one guard slot) fills before the
    # batch does; the only publication is the partial flush at finish.
    producer, consumer = make(QueueKind.MCRINGBUFFER, 128, mcr_batch_size=128)
    accepted = 0
    for i in range(128):
        if producer.try_enqueue(i):
            accepted += 1
    assert accepted == 127
    assert producer.stats().publication_events == 0
    producer.producer_finish()
    assert producer.stats().publication_events == 1
    assert consumer.drain() == list(range(127))


def test_batchqueue_half_buffer_handoff():
    producer, consumer = make(QueueKind.BATCHQUEUE, 8)
    for i in range(3):
        assert producer.try_enqueue(i)
    assert consumer.try_dequeue() is EMPTY
    assert producer.try_enqueue(3)
    assert consumer.try_dequeue() == 0
    assert [consumer.try_dequeue() for _ in range(3)] == [1, 2, 3]


def test_batchqueue_leftover_flush_unaligned():
    producer, consumer = make(QueueKind.BATCHQUEUE, 8)
    for i in range(6):
        assert producer.try_enqueue(i)
    # One full half is published; two elements wait in the second half.
    assert consumer.try_dequeue() == 0
    producer.producer_finish()
    assert consumer.drain() == [1, 2, 3, 4, 5]


def test_batchqueue_exact_halves_signal_no_leftovers():
    producer, consumer = make(QueueKind.BATCHQUEUE, 8)
    for i in range(4):
        assert producer.try_enqueue(i)
    producer.producer_finish()
    assert not producer._shared.leftover_flag.value
    assert consumer.drain() == [0, 1, 2, 3]


def test_batchqueue_pending_half_recovered_at_finish():
    # Fill both halves without consuming: the second half's hand-off
    # stays pending and must surface through the termination protocol.
    producer, consumer = make(QueueKind.BATCHQUEUE, 4)
    for i in range(4):
        assert producer.try_enqueue(i)
    assert not producer.try_enqueue(99)
    producer.producer_finish()
    assert consumer.drain() == [0, 1, 2, 3]


def test_mcr_finish_flushes_partial_batch():
    producer, consumer = make(QueueKind.MCRINGBUFFER, 16, mcr_batch_size=8)
    for i in range(5):
        assert producer.try_enqueue(i)
    assert consumer.try_dequeue() is EMPTY
    producer.producer_finish()
    assert consumer.drain() == [0, 1, 2, 3, 4]


class _LoadThenRun:
    """Wraps a _Cell; its first load runs ``interrupt`` after reading, so
    the reader acts on the value from before ``interrupt`` ran."""

    __slots__ = ("_cell", "_interrupt")

    def __init__(self, cell, interrupt):
        self._cell = cell
        self._interrupt = interrupt

    @property
    def value(self):
        value = self._cell.value
        interrupt, self._interrupt = self._interrupt, None
        if interrupt is not None:
            interrupt()
        return value

    @value.setter
    def value(self, value):
        self._cell.value = value


@pytest.mark.parametrize("capacity, total", [(2, 2), (4, 3), (8, 8)])
def test_batchqueue_half_published_while_consumer_checks_leftovers(capacity, total):
    # The consumer loads is_full (False) and is preempted; the producer
    # publishes a half, fills the next and finishes. The consumer then
    # sees producer_done and the leftover flag, and must still take the
    # published half before the leftovers.
    producer, consumer = make(QueueKind.BATCHQUEUE, capacity)

    def produce_all():
        for i in range(1, total + 1):
            assert producer.try_enqueue(i)
        producer.producer_finish()

    consumer._is_full = _LoadThenRun(consumer._is_full, produce_all)
    assert consumer.drain() == list(range(1, total + 1))


@pytest.mark.parametrize("kind", [QueueKind.LAMPORT, QueueKind.FASTFORWARD])
def test_finish_then_drain_plain_kinds(kind):
    producer, consumer = make(kind, 16)
    for i in range(5):
        assert producer.try_enqueue(i)
    producer.producer_finish()
    assert consumer.drain() == list(range(5))
    assert consumer.finished()


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_finished_false_before_finish(kind):
    producer, consumer = make(kind, 8)
    producer.try_enqueue(1)
    assert not consumer.finished()


class TestStats:
    def test_fresh_endpoints_all_zero(self):
        producer, consumer = make(QueueKind.LAMPORT, 8)
        assert producer.stats() == EndpointStats()
        assert consumer.stats() == EndpointStats()

    def test_lamport_publishes_every_operation(self):
        producer, consumer = make(QueueKind.LAMPORT, 128)
        for i in range(100):
            assert producer.try_enqueue(i)
        stats = producer.stats()
        assert stats.enq_attempts == stats.enq_successes == 100
        assert stats.publication_events == 100
        for _ in range(40):
            consumer.try_dequeue()
        assert consumer.stats().publication_events == 40

    def test_failed_attempts_counted(self):
        producer, _ = make(QueueKind.LAMPORT, 2)
        producer.try_enqueue(1)
        producer.try_enqueue(2)
        stats = producer.stats()
        assert stats.enq_attempts == 2
        assert stats.enq_successes == 1

    def test_mcr_publication_arithmetic_aligned(self):
        # 320 enqueues at batch 32: ten publications, no flush at finish.
        producer, consumer = make(QueueKind.MCRINGBUFFER, 64, mcr_batch_size=32)
        sent = 0
        while sent < 320:
            if producer.try_enqueue(sent):
                sent += 1
            else:
                assert consumer.try_dequeue() is not EMPTY
        producer.producer_finish()
        assert producer.stats().publication_events == 320 // 32


class TestSpinWrappers:
    def test_enqueue_spin_immediate(self):
        producer, _ = make(QueueKind.LAMPORT, 8)
        producer.enqueue_spin(7, budget=1)

    def test_enqueue_spin_timeout_on_full(self):
        producer, _ = make(QueueKind.LAMPORT, 2)
        producer.enqueue_spin("a")
        with pytest.raises(QueueTimeout):
            producer.enqueue_spin("b", budget=1000)

    def test_dequeue_spin_immediate(self):
        producer, consumer = make(QueueKind.FASTFORWARD, 8)
        producer.try_enqueue(42)
        assert consumer.dequeue_spin(budget=1) == 42

    def test_dequeue_spin_timeout_on_empty(self):
        _, consumer = make(QueueKind.FASTFORWARD, 8)
        with pytest.raises(QueueTimeout):
            consumer.dequeue_spin(budget=100)

    def test_dequeue_spin_returns_empty_once_finished(self):
        producer, consumer = make(QueueKind.FASTFORWARD, 8)
        producer.try_enqueue(1)
        producer.producer_finish()
        assert consumer.dequeue_spin(budget=1) == 1
        assert consumer.dequeue_spin(budget=1) is EMPTY

    def test_enqueue_spin_aborts_on_full(self):
        producer, _ = make(QueueKind.LAMPORT, 2)
        producer.enqueue_spin("a")
        abort = threading.Event()
        timer = threading.Timer(0.05, abort.set)
        timer.start()
        t0 = time.perf_counter()
        with pytest.raises(Aborted):
            producer.enqueue_spin("b", abort=abort)
        timer.join()
        assert time.perf_counter() - t0 < 5.0

    def test_dequeue_spin_aborts_on_empty(self):
        _, consumer = make(QueueKind.LAMPORT, 2)
        abort = threading.Event()
        timer = threading.Timer(0.05, abort.set)
        timer.start()
        t0 = time.perf_counter()
        with pytest.raises(Aborted):
            consumer.dequeue_spin(abort=abort)
        timer.join()
        assert time.perf_counter() - t0 < 5.0


class TestWaitPolicy:
    def test_yields_then_sleeps_and_resets(self, monkeypatch):
        calls = []
        monkeypatch.setattr(os, "sched_yield", lambda: calls.append("yield"))
        monkeypatch.setattr(time, "sleep", calls.append)
        wait = Waiter()
        for _ in range(66):
            wait()
        wait.misses = 0
        wait()
        assert calls == ["yield"] * 64 + [0.0001] * 2 + ["yield"]
        assert 0 not in calls  # never time.sleep(0)

    def test_waiter_is_the_only_sleeper(self):
        # One wait policy: nothing else in the package may sleep or
        # yield, import a sleep or yield function or keep a reference to
        # one, and the waiter names each of them once.
        scopes = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        waits = {"sleep", "sched_yield"}

        def sleepers(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, scopes):
                    inner = f"{scope}.{child.name}"
                else:
                    names = {getattr(child, a, None) for a in ("id", "attr", "name")}
                    for name in sorted(waits & names):
                        yield scope, name
                yield from sleepers(child, inner)

        package = Path(streamq.__file__).parent
        found = [
            where
            for path in sorted(package.glob("*.py"))
            for where in sleepers(ast.parse(path.read_text()), path.stem)
        ]
        assert sorted(found) == [
            ("queues.Waiter.__call__", "sched_yield"),
            ("queues.Waiter.__call__", "sleep"),
        ]


class TestHeartbeat:
    def test_heartbeat_forces_publication(self):
        # Two real elements at batch 4 would normally stay invisible;
        # the heartbeat publishes them once two are unpublished.
        producer, consumer = make(
            QueueKind.MCRINGBUFFER, 8, mcr_batch_size=4, mcr_heartbeat_period=2
        )
        assert producer.try_enqueue("x")
        assert producer.try_enqueue("y")
        assert consumer.try_dequeue() == "x"
        assert consumer.try_dequeue() == "y"
        assert consumer.try_dequeue() is EMPTY

    def test_heartbeat_elements_never_surface(self):
        # Period 1 publishes every element; drain as needed and check
        # that exactly the enqueued elements come out, in order.
        producer, consumer = make(
            QueueKind.MCRINGBUFFER, 8, mcr_batch_size=4, mcr_heartbeat_period=1
        )
        got = []
        sent = 0
        for _ in range(1000):
            if sent == 5:
                break
            if producer.try_enqueue(sent):
                sent += 1
                continue
            item = consumer.try_dequeue()
            if item is not EMPTY:
                got.append(item)
        assert sent == 5
        producer.producer_finish()
        got += consumer.drain()
        assert got == list(range(5))

    def test_heartbeat_publishes_into_a_nearly_full_ring(self):
        # Period 1 makes each element visible as soon as it is written;
        # publishing takes no ring slot, however little room is left.
        producer, consumer = make(
            QueueKind.MCRINGBUFFER, 4, mcr_batch_size=2, mcr_heartbeat_period=1
        )
        assert producer.try_enqueue(1)
        assert producer.try_enqueue(2)
        assert [consumer.try_dequeue(), consumer.try_dequeue()] == [1, 2]

    def test_disabled_by_default(self):
        producer, consumer = make(QueueKind.MCRINGBUFFER, 8, mcr_batch_size=4)
        producer.try_enqueue("x")
        producer.try_enqueue("y")
        assert consumer.try_dequeue() is EMPTY


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_endpoints_keep_state_in_slots_only(kind):
    # No instance __dict__: a misspelled attribute raises instead of
    # adding state the model checker would not save and restore.
    for endpoint in make(kind, 4):
        assert not hasattr(endpoint, "__dict__")
        with pytest.raises(AttributeError):
            endpoint._misspelled = 0


def test_fastforward_indices_are_endpoint_private():
    # Synchronization flows only through the cells: neither endpoint
    # object holds a reference to the other side's index.
    producer, consumer = make(QueueKind.FASTFORWARD, 8)
    assert "_head" not in producer.__slots__
    assert "_tail" not in consumer.__slots__
    shared_attrs = set(type(producer._shared).__slots__)
    assert shared_attrs == {"ring", "capacity", "producer_done"}


def test_batchqueue_debug_ownership_checks_pass_under_use():
    producer, consumer = new_queue(
        QueueKind.BATCHQUEUE, QueueConfig(capacity=8, debug=True)
    )
    sent = 0
    got = []
    while sent < 20:
        if producer.try_enqueue(sent):
            sent += 1
        else:
            item = consumer.try_dequeue()
            assert item is not EMPTY
            got.append(item)
    producer.producer_finish()
    got += consumer.drain()
    assert got == list(range(20))
