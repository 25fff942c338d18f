"""Bounded single-producer/single-consumer queues.

Four interchangeable ring-buffer algorithms behind one endpoint-pair
interface:

* ``LAMPORT`` -- the classic two-index ring; both indices are shared and
  republished on every operation.
* ``FASTFORWARD`` -- occupancy-tagged cells; the indices stay private to
  their endpoint and all synchronization flows through the cells.
* ``BATCHQUEUE`` -- the array is split into two halves that producer and
  consumer exchange wholesale through a single ownership flag.
* ``MCRINGBUFFER`` -- private working indices republished to the shared
  control pair only every ``batch_size`` operations (the producer's
  every ``mcr_heartbeat_period``, if that is smaller).

``new_queue`` returns a ``(producer, consumer)`` endpoint pair over one
shared ring. Each endpoint must be driven by at most one thread at a
time; the two endpoints may run fully concurrently. The non-blocking
``try_enqueue``/``try_dequeue`` are the primitives; ``enqueue_spin`` and
``dequeue_spin`` wrap them in a ``Waiter``, the one wait policy every
poll loop in the package uses: ``os.sched_yield()`` for a short run of
misses, then short sleeps. The yield needs a POSIX ``os.sched_yield``.

Memory ordering: every payload write happens before the single store
that publishes it (index, cell, or flag), and consumers read that
location before touching the payload. CPython's interpreter lock makes
attribute and list-slot stores sequentially consistent, which satisfies
the release/acquire contract the algorithms need; the store/load
placement in this module mirrors what a weak-memory port would fence.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from enum import Enum
from typing import Any, Optional


class QueueKind(Enum):
    """The four queue algorithms shipped by this package."""

    LAMPORT = "lamport"
    FASTFORWARD = "fastforward"
    BATCHQUEUE = "batchqueue"
    MCRINGBUFFER = "mcringbuffer"


class InvalidConfig(ValueError):
    """Raised when a queue or pipeline configuration is unusable."""


class QueueTimeout(Exception):
    """Raised by a wait when its attempt budget runs out."""


class Aborted(Exception):
    """Raised by a wait when its abort event is set: another thread of
    the same run has failed and this one should unwind."""


class _Sentinel:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


#: Returned by try_dequeue when no element is available. A dedicated
#: sentinel (not None) so that None is a legal payload on every kind.
EMPTY = _Sentinel("EMPTY")

# Waiter's policy. Sleeping for real after a run of yields keeps
# many-thread pipelines from thrashing. The yields use os.sched_yield,
# not time.sleep(0): since Python 3.11 sleep(0) goes through
# clock_nanosleep and pays the thread's timer slack (50 us by default
# on Linux), where sched_yield costs well under a microsecond.
_YIELD_MISSES = 64
_SLEEP_SECONDS = 0.0001


class Waiter:
    """The one wait/backoff policy for every poll loop in the package.

    A poll loop calls the waiter after each miss (a full or empty queue,
    or a sweep that made no progress). The first ``_YIELD_MISSES``
    consecutive misses yield with ``os.sched_yield()``, which releases
    the interpreter lock around the call; later ones sleep
    ``_SLEEP_SECONDS``. A loop that makes progress resets ``misses`` to
    0. ``budget`` bounds the misses (QueueTimeout once reached) and a
    set ``abort`` event ends the wait (Aborted); both are checked
    before yielding or sleeping.
    """

    __slots__ = ("misses", "_budget", "_abort")

    def __init__(
        self, budget: Optional[int] = None, abort: Optional[threading.Event] = None
    ):
        self.misses = 0
        self._budget = budget
        self._abort = abort

    def __call__(self) -> None:
        self.misses += 1
        if self._abort is not None and self._abort.is_set():
            raise Aborted("wait aborted: another thread of the run failed")
        if self._budget is not None and self.misses >= self._budget:
            raise QueueTimeout(f"gave up after {self.misses} attempts")
        # Both are looked up per call, so a patched one is honoured.
        if self.misses <= _YIELD_MISSES:
            os.sched_yield()
        else:
            time.sleep(_SLEEP_SECONDS)


@dataclass(frozen=True)
class QueueConfig:
    """Construction parameters shared by all queue kinds.

    ``capacity`` is the slot count of the backing array. BatchQueue
    requires it to be even (two equal halves). ``mcr_batch_size`` and
    ``mcr_heartbeat_period`` only affect MCRingBuffer; the batch size
    must divide the capacity. The heartbeat period is a publication
    threshold: the producer publishes its index once ``min(batch size,
    period)`` elements are unpublished, so a stalled input never hides
    that many. ``debug`` enables extra ownership assertions on the hot
    paths.
    """

    capacity: int
    mcr_batch_size: int = 1
    mcr_heartbeat_period: Optional[int] = None
    debug: bool = False

    def validate(self, kind: QueueKind) -> None:
        if self.capacity < 2:
            raise InvalidConfig(f"capacity must be >= 2, got {self.capacity}")
        if kind is QueueKind.BATCHQUEUE and self.capacity % 2 != 0:
            raise InvalidConfig(
                f"BatchQueue capacity must be even, got {self.capacity}"
            )
        if kind is QueueKind.MCRINGBUFFER:
            if self.mcr_batch_size < 1:
                raise InvalidConfig("mcr_batch_size must be positive")
            if self.mcr_batch_size > self.capacity:
                raise InvalidConfig(
                    f"mcr_batch_size {self.mcr_batch_size} exceeds "
                    f"capacity {self.capacity}"
                )
            if self.capacity % self.mcr_batch_size != 0:
                raise InvalidConfig(
                    f"mcr_batch_size {self.mcr_batch_size} must divide "
                    f"capacity {self.capacity}"
                )
            if self.mcr_heartbeat_period is not None and self.mcr_heartbeat_period < 1:
                raise InvalidConfig("mcr_heartbeat_period must be positive")


@dataclass
class EndpointStats:
    """Operation counters snapshot for one endpoint.

    ``publication_events`` counts release stores that make element data
    visible to the peer (index, cell tag, or ownership flag stores);
    termination flags are not counted.
    """

    enq_attempts: int = 0
    enq_successes: int = 0
    deq_attempts: int = 0
    deq_successes: int = 0
    publication_events: int = 0


class _Cell:
    """A shared control variable that endpoints hold by reference."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value


class ProducerEndpoint:
    """Base producer handle: the shared ring, spin wrapper, finish
    protocol and stats. Subclasses add only their own synchronization."""

    __slots__ = (
        "_shared", "_ring", "_capacity",
        "_enq_attempts", "_enq_successes", "_publications",
    )

    def __init__(self, shared: Any):
        self._shared = shared
        self._ring = shared.ring
        self._capacity = shared.capacity
        self._enq_attempts = 0
        self._enq_successes = 0
        self._publications = 0

    def try_enqueue(self, item: Any) -> bool:
        raise NotImplementedError

    def producer_finish(self) -> None:
        """Mark the stream complete. A subclass that holds elements back
        publishes them first, then calls this last."""
        self._shared.producer_done.value = True

    def enqueue_spin(
        self,
        item: Any,
        budget: Optional[int] = None,
        abort: Optional[threading.Event] = None,
    ) -> None:
        """Retry try_enqueue until it succeeds, waiting between attempts.

        ``budget`` bounds the number of try_enqueue calls; None spins
        until success. Raises QueueTimeout when the budget is exhausted
        and Aborted once ``abort`` is set while the queue is full.
        """
        if self.try_enqueue(item):
            return
        wait = Waiter(budget, abort)  # made on the first miss only
        while True:
            wait()
            if self.try_enqueue(item):
                return

    def stats(self) -> EndpointStats:
        return EndpointStats(
            enq_attempts=self._enq_attempts,
            enq_successes=self._enq_successes,
            publication_events=self._publications,
        )


class ConsumerEndpoint:
    """Base consumer handle: the shared ring, spin wrapper, drain helper
    and stats. Subclasses add only their own synchronization."""

    __slots__ = (
        "_shared", "_ring", "_capacity",
        "_deq_attempts", "_deq_successes", "_publications",
    )

    def __init__(self, shared: Any):
        self._shared = shared
        self._ring = shared.ring
        self._capacity = shared.capacity
        self._deq_attempts = 0
        self._deq_successes = 0
        self._publications = 0

    def try_dequeue(self) -> Any:
        raise NotImplementedError

    def finished(self) -> bool:
        """True once the producer called producer_finish and every
        committed element has been dequeued."""
        raise NotImplementedError

    def dequeue_spin(
        self,
        budget: Optional[int] = None,
        abort: Optional[threading.Event] = None,
    ) -> Any:
        """Retry try_dequeue until it returns an element, waiting between
        attempts; return EMPTY once the queue is finished().

        ``budget`` bounds the number of try_dequeue calls; None spins
        until an element or the end. Raises QueueTimeout when the
        budget is exhausted and Aborted once ``abort`` is set while the
        queue is empty.
        """
        item = self.try_dequeue()
        if item is EMPTY:
            wait = Waiter(budget, abort)  # made on the first miss only
            while item is EMPTY and not self.finished():
                wait()
                item = self.try_dequeue()
        return item

    def drain(self) -> list:
        """Dequeue until the producer has finished and the queue is empty.

        Only safe to call when the producer is guaranteed to call
        producer_finish eventually; otherwise this waits forever.
        """
        return list(iter(self.dequeue_spin, EMPTY))

    def stats(self) -> EndpointStats:
        return EndpointStats(
            deq_attempts=self._deq_attempts,
            deq_successes=self._deq_successes,
            publication_events=self._publications,
        )


# ---------------------------------------------------------------------------
# Lamport: shared head and tail, republished on every operation.


class _LamportShared:
    __slots__ = ("ring", "capacity", "head", "tail", "producer_done")

    def __init__(self, config: QueueConfig):
        self.ring = [None] * config.capacity
        self.capacity = config.capacity
        self.head = _Cell(0)
        self.tail = _Cell(0)
        self.producer_done = _Cell(False)


class LamportProducer(ProducerEndpoint):
    __slots__ = ("_tail", "_tail_box", "_head_box")

    def __init__(self, shared: _LamportShared, config: QueueConfig):
        super().__init__(shared)
        self._tail = 0  # private mirror of the shared tail
        self._tail_box = shared.tail
        self._head_box = shared.head

    def try_enqueue(self, item: Any) -> bool:
        self._enq_attempts += 1
        tail = self._tail
        nxt = tail + 1
        if nxt == self._capacity:
            nxt = 0
        if nxt == self._head_box.value:  # full: one slot is kept free
            return False
        self._ring[tail] = item
        self._tail = nxt
        self._tail_box.value = nxt  # publish
        self._enq_successes += 1
        self._publications += 1
        return True


class LamportConsumer(ConsumerEndpoint):
    __slots__ = ("_head", "_head_box", "_tail_box")

    def __init__(self, shared: _LamportShared):
        super().__init__(shared)
        self._head = 0
        self._head_box = shared.head
        self._tail_box = shared.tail

    def try_dequeue(self) -> Any:
        self._deq_attempts += 1
        head = self._head
        if head == self._tail_box.value:
            return EMPTY
        item = self._ring[head]
        nxt = head + 1
        if nxt == self._capacity:
            nxt = 0
        self._head = nxt
        self._head_box.value = nxt  # publish consumption
        self._deq_successes += 1
        self._publications += 1
        return item

    def finished(self) -> bool:
        return self._shared.producer_done.value and self._head == self._tail_box.value


# ---------------------------------------------------------------------------
# FastForward: cells tagged with their occupancy, indices endpoint-private.
#
# A full cell holds a one-element tuple wrapping the payload; an empty
# cell holds None. Storing the wrapper is a single release event that
# publishes occupancy and payload together, so any payload value
# (including None) is legal.


class _FastForwardShared:
    __slots__ = ("ring", "capacity", "producer_done")

    def __init__(self, config: QueueConfig):
        self.ring = [None] * config.capacity
        self.capacity = config.capacity
        self.producer_done = _Cell(False)


class FastForwardProducer(ProducerEndpoint):
    __slots__ = ("_tail",)

    def __init__(self, shared: _FastForwardShared, config: QueueConfig):
        super().__init__(shared)
        self._tail = 0  # never read by the consumer

    def try_enqueue(self, item: Any) -> bool:
        self._enq_attempts += 1
        tail = self._tail
        if self._ring[tail] is not None:  # cell still occupied
            return False
        self._ring[tail] = (item,)  # payload + Full tag, one store
        nxt = tail + 1
        self._tail = 0 if nxt == self._capacity else nxt
        self._enq_successes += 1
        self._publications += 1
        return True


class FastForwardConsumer(ConsumerEndpoint):
    __slots__ = ("_head",)

    def __init__(self, shared: _FastForwardShared):
        super().__init__(shared)
        self._head = 0  # never read by the producer

    def try_dequeue(self) -> Any:
        self._deq_attempts += 1
        head = self._head
        cell = self._ring[head]
        if cell is None:
            return EMPTY
        self._ring[head] = None  # clear tag first, then advance
        nxt = head + 1
        self._head = 0 if nxt == self._capacity else nxt
        self._deq_successes += 1
        self._publications += 1
        return cell[0]

    def finished(self) -> bool:
        return self._shared.producer_done.value and self._ring[self._head] is None


# ---------------------------------------------------------------------------
# BatchQueue: two halves of N slots exchanged through one ownership flag.
#
# The producer fills one half while the consumer copies the other into a
# private staging buffer. Completing a half publishes it by setting
# is_full; the consumer clears the flag after copying. The blocking
# publish of the reference algorithm becomes a deferred publication
# here: when a half is complete but is_full is still set, the producer
# records the pending hand-off and reports Full until it resolves.
#
# Termination: leftovers (a partially filled half, or a completed half
# whose publication never resolved) are exposed through leftover_flag
# plus the producer's index; the consumer only reads that range after
# observing producer_done, so no write can race the drain. A half that
# was published after the consumer last loaded is_full is taken first.


class _BatchQueueShared:
    __slots__ = (
        "ring", "half", "capacity", "is_full", "enq_index",
        "leftover_flag", "producer_done",
    )

    def __init__(self, config: QueueConfig):
        self.ring = [None] * config.capacity
        self.half = config.capacity // 2
        self.capacity = config.capacity
        self.is_full = _Cell(False)
        self.enq_index = _Cell(0)  # written only at finish
        self.leftover_flag = _Cell(False)
        self.producer_done = _Cell(False)


class BatchQueueProducer(ProducerEndpoint):
    __slots__ = (
        "_half", "_is_full", "_enq_index", "_pending_publish",
        "_published_half", "_debug",
    )

    def __init__(self, shared: _BatchQueueShared, config: QueueConfig):
        super().__init__(shared)
        self._half = shared.half
        self._is_full = shared.is_full
        self._enq_index = 0  # private; exposed via shared box at finish
        self._pending_publish = False
        self._published_half = -1
        self._debug = config.debug

    def try_enqueue(self, item: Any) -> bool:
        self._enq_attempts += 1
        if self._pending_publish:
            if self._is_full.value:
                return False  # consumer still owns the previous half
            self._publish()
        idx = self._enq_index
        if self._debug and self._is_full.value and idx // self._half == self._published_half:
            raise AssertionError("producer writing into the half owned by the consumer")
        self._ring[idx] = item
        idx += 1
        if idx == self._capacity:
            idx = 0
        self._enq_index = idx
        if idx % self._half == 0:  # half completed
            if self._is_full.value:
                self._pending_publish = True
            else:
                self._publish()
        self._enq_successes += 1
        return True

    def _publish(self) -> None:
        half = self._half
        self._published_half = (self._enq_index // half - 1) % (self._capacity // half)
        self._pending_publish = False
        self._is_full.value = True  # hand the completed half over
        self._publications += 1

    def producer_finish(self) -> None:
        shared = self._shared
        if self._pending_publish and not self._is_full.value:
            self._publish()
        shared.enq_index.value = self._enq_index
        leftovers = self._pending_publish or self._enq_index % self._half != 0
        if leftovers:
            shared.leftover_flag.value = True
            self._publications += 1  # exposes committed elements
        super().producer_finish()


class BatchQueueConsumer(ConsumerEndpoint):
    __slots__ = (
        "_half", "_is_full", "_deq_index", "_copy_buf", "_copy_pos",
        "_leftovers_taken",
    )

    def __init__(self, shared: _BatchQueueShared):
        super().__init__(shared)
        self._half = shared.half
        self._is_full = shared.is_full
        self._deq_index = 0
        self._copy_buf: list = []
        self._copy_pos = 0
        self._leftovers_taken = False

    def try_dequeue(self) -> Any:
        self._deq_attempts += 1
        pos = self._copy_pos
        if pos < len(self._copy_buf):
            item = self._copy_buf[pos]
            self._copy_pos = pos + 1
            self._deq_successes += 1
            return item
        if self._is_full.value:
            return self._take_half()
        shared = self._shared
        if shared.producer_done.value and shared.leftover_flag.value and not self._leftovers_taken:
            # The producer may have published a half and finished since
            # is_full was loaded above; that half precedes the leftovers.
            if self._is_full.value:
                return self._take_half()
            count = (shared.enq_index.value - self._deq_index) % self._capacity
            self._leftovers_taken = True
            if count:
                self._refill(count)
                return self._take_first()
        return EMPTY

    def _take_half(self) -> Any:
        self._refill(self._half)
        self._is_full.value = False  # return the half to the producer
        self._publications += 1
        return self._take_first()

    def _refill(self, count: int) -> None:
        # Halves are aligned, so [deq, deq+count) never wraps the ring.
        deq = self._deq_index
        self._copy_buf = self._ring[deq:deq + count]
        self._copy_pos = 0
        self._deq_index = (deq + count) % self._capacity

    def _take_first(self) -> Any:
        self._copy_pos = 1
        self._deq_successes += 1
        return self._copy_buf[0]

    def finished(self) -> bool:
        shared = self._shared
        if not shared.producer_done.value:
            return False
        if self._copy_pos < len(self._copy_buf) or self._is_full.value:
            return False
        return not shared.leftover_flag.value or self._leftovers_taken


# ---------------------------------------------------------------------------
# MCRingBuffer: batched publication of private working indices.


class _MCRingShared:
    __slots__ = ("ring", "capacity", "read", "write", "batch_size", "producer_done")

    def __init__(self, config: QueueConfig):
        self.ring = [None] * config.capacity
        self.capacity = config.capacity
        self.read = _Cell(0)    # published consumer index
        self.write = _Cell(0)   # published producer index
        self.batch_size = config.mcr_batch_size
        self.producer_done = _Cell(False)


class MCRingProducer(ProducerEndpoint):
    __slots__ = (
        "_publish_every", "_write_box", "_read_box", "_local_read",
        "_next_write", "_w_batch",
    )

    def __init__(self, shared: _MCRingShared, config: QueueConfig):
        super().__init__(shared)
        batch = shared.batch_size
        self._publish_every = min(batch, config.mcr_heartbeat_period or batch)
        self._write_box = shared.write
        self._read_box = shared.read
        self._local_read = 0
        self._next_write = 0
        self._w_batch = 0  # elements written since the last publication

    def try_enqueue(self, item: Any) -> bool:
        self._enq_attempts += 1
        nxt = self._next_write + 1
        if nxt == self._capacity:
            nxt = 0
        if nxt == self._local_read:
            self._local_read = self._read_box.value  # refresh snapshot
            if nxt == self._local_read:
                return False
        self._ring[self._next_write] = item
        self._next_write = nxt
        self._w_batch += 1
        if self._w_batch >= self._publish_every:
            self._write_box.value = nxt  # batched publication
            self._w_batch = 0
            self._publications += 1
        self._enq_successes += 1
        return True

    def producer_finish(self) -> None:
        if self._w_batch > 0:
            self._write_box.value = self._next_write  # flush partial batch
            self._w_batch = 0
            self._publications += 1
        super().producer_finish()


class MCRingConsumer(ConsumerEndpoint):
    __slots__ = ("_batch", "_write_box", "_read_box", "_local_write", "_next_read", "_r_batch")

    def __init__(self, shared: _MCRingShared):
        super().__init__(shared)
        self._batch = shared.batch_size
        self._write_box = shared.write
        self._read_box = shared.read
        self._local_write = 0
        self._next_read = 0
        self._r_batch = 0

    def try_dequeue(self) -> Any:
        self._deq_attempts += 1
        nxt = self._next_read
        if nxt == self._local_write:
            self._local_write = self._write_box.value
            if nxt == self._local_write:
                return EMPTY
        item = self._ring[nxt]
        nxt += 1
        self._next_read = 0 if nxt == self._capacity else nxt
        self._r_batch += 1
        if self._r_batch >= self._batch:
            self._read_box.value = self._next_read
            self._r_batch = 0
            self._publications += 1
        self._deq_successes += 1
        return item

    def finished(self) -> bool:
        if not self._shared.producer_done.value:
            return False
        if self._next_read != self._local_write:
            return False
        self._local_write = self._write_box.value
        return self._next_read == self._local_write


# ---------------------------------------------------------------------------


_KINDS = {
    QueueKind.LAMPORT: (_LamportShared, LamportProducer, LamportConsumer),
    QueueKind.FASTFORWARD: (_FastForwardShared, FastForwardProducer, FastForwardConsumer),
    QueueKind.BATCHQUEUE: (_BatchQueueShared, BatchQueueProducer, BatchQueueConsumer),
    QueueKind.MCRINGBUFFER: (_MCRingShared, MCRingProducer, MCRingConsumer),
}


def new_queue(
    kind: QueueKind, config: QueueConfig
) -> tuple[ProducerEndpoint, ConsumerEndpoint]:
    """Create an empty queue of the given kind and return its endpoints.

    Usable capacity per kind: Lamport keeps one slot free (capacity-1);
    FastForward uses every cell; BatchQueue holds up to capacity
    elements but exchanges them a half at a time; MCRingBuffer keeps
    one guard slot free (capacity-1).
    """
    config.validate(kind)
    if kind not in _KINDS:
        raise InvalidConfig(f"unknown queue kind: {kind!r}")
    shared_class, producer_class, consumer_class = _KINDS[kind]
    shared = shared_class(config)
    return producer_class(shared, config), consumer_class(shared)
