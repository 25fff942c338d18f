"""Exhaustive interleaving exploration of the shipped queue classes.

``explore`` runs the shipped endpoint classes over every schedule of a
tiny instance. Each ``_Cell`` and the ring of the shared object that
``new_queue`` builds are swapped for recording stand-ins, and fresh
endpoints are then built from that shared object, so each load or store
of shared state is one step. A step resumes an endpoint by restoring
its slots from the snapshot taken when its current operation began and
running the operation again: the accesses already recorded are
replayed (loads return the recorded value, stores are skipped), the
next one is made for real, and the operation stops just before the
access after that, or returns. No threads or tracing are involved, and preemption happens at
every shared access, however many share a source line. The state is the
shared values plus, per endpoint, its script position, its slots minus
the operation counters (so a spin retry that changes nothing revisits a
state) and the values its current operation has recorded.

The producer enqueues ``1..n`` and calls ``producer_finish()``; the
consumer calls ``try_dequeue()`` and, after each call, ``finished()``,
until that returns True. Each schedule is checked for FIFO (the consumer
sees ``1, 2, ...`` and nothing else), conservation (it has all ``n``
whenever ``finished()`` holds), progress (every reachable state can still
complete both scripts), exceptions from the queue code, BatchQueue
half ownership (no producer store to the ring lands in the half the
consumer owns while ``is_full`` is set) and, between operations,
Lamport occupancy and MCRingBuffer publication lag read from the slots:
each endpoint's lag stays below the batch size, and the producer's also
below the heartbeat period of the ``QueueConfig`` given to ``explore``.
"""

from __future__ import annotations

import linecache
import os
import sys
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple, Type

from .queues import (
    EMPTY,
    ConsumerEndpoint,
    LamportProducer,
    ProducerEndpoint,
    QueueConfig,
    QueueKind,
    _Cell,
    new_queue,
)

MAX_CAPACITY = 4
MAX_OPS = 6
#: ``explore`` raises BoundsExceeded once it has visited more states
#: than this. The largest instance ``explore_interleavings`` accepts
#: visits 717.
MAX_STATES = 50_000

#: Endpoint slots that only count operations (``EndpointStats``).
_COUNTERS = frozenset(
    ("_enq_attempts", "_enq_successes", "_deq_attempts", "_deq_successes", "_publications")
)

# Positions in a search state, and the consumer's script phases.
_PRODUCER, _CONSUMER = 1, 2
_DEQUEUE, _FINISHED, _DONE = 0, 1, 2

#: ``_System.access``'s ``store`` argument for a load.
_LOAD = object()


class BoundsExceeded(ValueError):
    """The requested instance is larger than the explorer supports."""


@dataclass(frozen=True)
class CounterexampleTrace:
    """A schedule that violated an invariant, one label per step."""

    reason: str
    steps: Tuple[str, ...]

    def __str__(self) -> str:
        lines = [self.reason] + [f"  {i}: {s}" for i, s in enumerate(self.steps)]
        return "\n".join(lines)


class _Preempt(BaseException):
    """Ends a step at its second new shared access; a BaseException so
    that no handler in the queue code catches it."""


class _Shared:
    """Stand-in for a shared ``_Cell`` (used through ``value``) or list
    (used by index or slice): each element loaded or stored is a step.
    A list's contents are kept as a tuple, so saving a state copies
    nothing."""

    __slots__ = ("v", "name", "system")

    def __init__(self, system: "_System", name: str, raw: Any):
        self.v = raw.value if isinstance(raw, _Cell) else tuple(raw)
        self.name, self.system = name, system

    @property
    def value(self) -> Any:
        return self.system.access(self, None, _LOAD)

    @value.setter
    def value(self, v: Any) -> None:
        self.system.access(self, None, v)

    def __getitem__(self, i: Any) -> Any:
        if isinstance(i, slice):
            out = []
            for j in range(*i.indices(len(self.v))):
                out.append(self.system.access(self, j, _LOAD))
            return out
        return self.system.access(self, i, _LOAD)

    def __setitem__(self, i: Any, x: Any) -> None:
        if isinstance(i, slice):
            for j, v in zip(range(*i.indices(len(self.v))), x, strict=True):
                self.system.access(self, j, v)
        else:
            self.system.access(self, i, x)


def _slots(obj: Any) -> List[str]:
    return [n for cls in type(obj).__mro__ for n in cls.__dict__.get("__slots__", ())]


class _System:
    """A queue built by ``new_queue(kind, config)`` with its shared state
    behind stand-ins, and endpoints built over them; ``producer_class``
    and ``consumer_class`` replace the endpoints' classes."""

    def __init__(self, kind: QueueKind, config: QueueConfig,
                 producer_class: Optional[Type[ProducerEndpoint]] = None,
                 consumer_class: Optional[Type[ConsumerEndpoint]] = None):
        producer, consumer = new_queue(kind, config)
        self.kind, self.shared = kind, producer._shared
        self.stand_ins = []
        for name in _slots(self.shared):
            raw = getattr(self.shared, name)
            if isinstance(raw, (_Cell, list)):
                stand_in = _Shared(self, name, raw)
                setattr(self.shared, name, stand_in)
                self.stand_ins.append(stand_in)
        producer = (producer_class or type(producer))(self.shared)
        consumer = (consumer_class or type(consumer))(self.shared)
        self.endpoints = (None, producer, consumer)  # indexed by _PRODUCER, _CONSUMER
        self.names = [None] + [
            tuple(n for n in _slots(e) if n not in _COUNTERS
                  and not isinstance(getattr(e, n), (_Shared, type(self.shared))))
            for e in (producer, consumer)
        ]
        self.lists = {n for e in (producer, consumer) for n in _slots(e)
                      if type(getattr(e, n)) is list}
        self.log, self.pos, self.new = (), 0, None
        # MCRingBuffer's (producer, consumer) lag bounds; the heartbeat
        # period caps the producer's unpublished elements too.
        batch = config.mcr_batch_size
        self.lag_bounds = (min(batch, config.mcr_heartbeat_period or batch), batch)
        # BatchQueue: the consumer's _deq_index in its saved slots, and
        # during a producer step the half it owns while is_full is set.
        bq = kind is QueueKind.BATCHQUEUE
        self.deq_at = self.names[_CONSUMER].index("_deq_index") if bq else None
        self.consumer_half = None

    def access(self, target: _Shared, index: Optional[int], store: Any) -> Any:
        """Replay the current operation's recorded accesses; make one new one."""
        i = self.pos
        self.pos = i + 1
        if i < len(self.log):
            return self.log[i]
        if self.new is not None:
            raise _Preempt
        if store is _LOAD:
            value = target.v if index is None else target.v[index]
        elif index is None:
            target.v = value = store
        else:
            target.v = target.v[:index] + (store,) + target.v[index + 1:]
            value = store
        frame = sys._getframe(2)  # the queue code that made the access
        where = target.name if index is None else f"{target.name}[{index}]"
        self.new = (store is _LOAD, where, value, frame.f_code.co_filename, frame.f_lineno)
        half = self.consumer_half
        if (half is not None and store is not _LOAD and index is not None  # a ring store
                and self.shared.is_full.v and index // self.shared.half == half):
            raise AssertionError(f"producer writing into the half owned by the consumer: "
                                 f"{where} is in half {half} while is_full is set")
        return value

    def save(self, who: int) -> tuple:
        endpoint = self.endpoints[who]
        values = (getattr(endpoint, n) for n in self.names[who])
        return tuple(tuple(v) if type(v) is list else v for v in values)

    def load(self, shared: tuple, who: int, slots: tuple) -> None:
        for stand_in, v in zip(self.stand_ins, shared):
            stand_in.v = v
        for n, v in zip(self.names[who], slots):
            setattr(self.endpoints[who], n, list(v) if n in self.lists else v)

    def initial(self) -> tuple:
        return (tuple(s.v for s in self.stand_ins), (0, self.save(_PRODUCER), ()),
                ((_DEQUEUE, 0), self.save(_CONSUMER), ()))

    def step(self, state: tuple, who: int, n: int):
        """Run endpoint ``who`` for one step; return (state, label, error)."""
        script, slots, log = state[who]
        self.load(state[0], who, slots)
        self.log, self.pos, self.new = log, 0, None
        self.consumer_half = (state[_CONSUMER][1][self.deq_at] // self.shared.half
                              if who == _PRODUCER and self.deq_at is not None else None)
        _, producer, consumer = self.endpoints
        error = None
        try:
            if who == _PRODUCER:
                result = producer.try_enqueue(script + 1) if script < n else producer.producer_finish()
            else:
                result = consumer.try_dequeue() if script[0] == _DEQUEUE else consumer.finished()
        except _Preempt:
            result, mine = _Preempt, (script, slots, log + (self.new[2],))
        except Exception as exc:  # a failure of the queue code is a counterexample
            label = (who, script, self.new, _Preempt)
            return None, label, f"invariant violated: {type(exc).__name__}: {exc}"
        else:
            after, error = _advance(who, script, result, n)
            mine = (after, self.save(who), ())
        shared = tuple(s.v for s in self.stand_ins)
        nxt = (shared, mine, state[2]) if who == _PRODUCER else (shared, state[1], mine)
        return nxt, (who, script, self.new, result), error

    def check(self, state: tuple, n: int) -> Optional[str]:
        """Structural invariants, read from the real slots between operations."""
        (sent, p_slots, p_log), ((_, received), c_slots, c_log) = state[1:]
        if p_log or c_log:
            return None
        self.load(state[0], _PRODUCER, p_slots)
        self.load(state[0], _CONSUMER, c_slots)
        shared = self.shared
        if self.kind is QueueKind.LAMPORT:
            occupancy = (shared.tail.v - shared.head.v) % shared.capacity
            if occupancy != min(sent, n) - received:
                return f"occupancy {occupancy} != enqueued {min(sent, n)} - dequeued {received}"
        elif self.kind is QueueKind.MCRINGBUFFER:
            lags = ((self.endpoints[_PRODUCER]._next_write - shared.write.v) % shared.capacity,
                    (self.endpoints[_CONSUMER]._next_read - shared.read.v) % shared.capacity)
            if any(lag >= bound for lag, bound in zip(lags, self.lag_bounds)):
                return f"publication lags {lags} reach bounds {self.lag_bounds}"
        return None


def _advance(who: int, script: Any, result: Any, n: int):
    """Move a script past a completed operation; return (script, error)."""
    if who == _PRODUCER:
        return (script + 1 if result or script == n else script), None
    phase, received = script
    if phase == _FINISHED:
        if not result:
            return (_DEQUEUE, received), None
        lost = f"conservation violated: finished() after {received} of {n} elements"
        return (_DONE, received), (lost if received != n else None)
    if result is EMPTY:
        return (_FINISHED, received), None
    if result != received + 1:
        return script, (f"FIFO violated: dequeue #{received} returned {result!r}, "
                        f"expected {received + 1}")
    return (_FINISHED, received + 1), None


def _describe(label: tuple, n: int) -> str:
    """Format a step; ``result`` is ``_Preempt`` if the operation did not end."""
    who, script, access, result = label
    if who == _PRODUCER:
        text = f"P: try_enqueue({script + 1})" if script < n else "P: producer_finish()"
    else:
        text = "C: try_dequeue()" if script[0] == _DEQUEUE else "C: finished()"
    if access is not None:
        load, where, value, path, line = access
        source = linecache.getline(path, line).strip()
        text += (f" {'load' if load else 'store'} {where} {'->' if load else '='} {value!r}"
                 f"  [{os.path.basename(path)}:{line}: {source}]")
    return text if result is _Preempt else f"{text}, returns {result!r}"


def explore(
    kind: QueueKind,
    config: QueueConfig,
    enqueues: int,
    *,
    producer_class: Optional[Type[ProducerEndpoint]] = None,
    consumer_class: Optional[Type[ConsumerEndpoint]] = None,
) -> Optional[CounterexampleTrace]:
    """Search every schedule of the queue ``new_queue(kind, config)``
    builds; None means all clean, else the first failing schedule.

    ``producer_class`` and ``consumer_class`` replace the endpoints'
    classes, which is how a seeded bug is checked: a subclass of the
    kind's endpoint, built from the shared object alone. It may add
    slots and an ``__init__``, but every slot it adds is part of the
    search state, so each must take finitely many values: a call
    counter, say, makes the search raise BoundsExceeded once it has
    visited more than ``MAX_STATES`` states.
    The consumer always drains to ``finished()``, and a run that stalls
    before the finish comes back as a counterexample.
    """
    n = enqueues
    system = _System(kind, config, producer_class, consumer_class)
    init = system.initial()
    parents = {init: None}
    preds: dict = {}
    stack = [init]

    def trace(state: tuple, reason: str, last: Optional[tuple] = None) -> CounterexampleTrace:
        labels = [] if last is None else [last]
        while parents[state] is not None:
            state, label = parents[state]
            labels.append(label)
        return CounterexampleTrace(reason, tuple(_describe(x, n) for x in reversed(labels)))

    while stack:
        state = stack.pop()
        msg = system.check(state, n)
        if msg is not None:
            return trace(state, f"invariant violated: {msg}")
        for who in (_PRODUCER, _CONSUMER):
            if state[_PRODUCER][0] > n if who == _PRODUCER else state[_CONSUMER][0][0] == _DONE:
                continue
            nxt, label, error = system.step(state, who, n)
            if error is not None:
                return trace(state, error, label)
            if nxt != state:
                preds.setdefault(nxt, []).append(state)
                if nxt not in parents:
                    parents[nxt] = (state, label)
                    stack.append(nxt)
                    if len(parents) > MAX_STATES:
                        raise BoundsExceeded(f"search visited more than {MAX_STATES} states")

    finals = [s for s in parents if s[_PRODUCER][0] > n and s[_CONSUMER][0][0] == _DONE]
    live, todo = set(finals), finals
    while todo:
        for prev in preds.get(todo.pop(), ()):
            if prev not in live:
                live.add(prev)
                todo.append(prev)
    for s in parents:
        if s not in live:
            return trace(s, f"progress violated: no schedule completes both scripts "
                            f"from here ({s[_CONSUMER][0][1]}/{n} dequeued)")
    return None


class _PublishBeforeWrite(LamportProducer):
    """Seeded bug: the tail is published before the payload is written."""

    __slots__ = ()

    def try_enqueue(self, item: Any) -> bool:
        tail = self._tail
        nxt = (tail + 1) % self._capacity
        if nxt == self._head_box.value:
            return False
        self._tail = nxt
        self._tail_box.value = nxt  # publish early
        self._ring[tail] = item
        return True


def explore_interleavings(
    kind: QueueKind,
    capacity: int,
    enqueues: int,
    *,
    mcr_batch: int = 1,
    mutation: Optional[str] = None,
) -> Optional[CounterexampleTrace]:
    """Explore every schedule of a tiny instance; None means all clean.

    The producer enqueues ``1..enqueues`` and finishes; the consumer
    drains to ``finished()``. The only ``mutation`` is
    ``"publish_before_write"``, on Lamport.
    """
    if capacity < 2 or capacity > MAX_CAPACITY:
        raise BoundsExceeded(f"capacity must be in 2..{MAX_CAPACITY}, got {capacity}")
    if enqueues < 0 or enqueues > MAX_OPS:
        raise BoundsExceeded(f"enqueues must be in 0..{MAX_OPS}, got {enqueues}")
    producer_class = None
    if mutation is not None:
        if mutation != "publish_before_write" or kind is not QueueKind.LAMPORT:
            raise ValueError(f"unsupported mutation {mutation!r} for {kind.value}")
        producer_class = _PublishBeforeWrite
    config = QueueConfig(capacity, mcr_batch_size=mcr_batch)
    return explore(kind, config, enqueues, producer_class=producer_class)
