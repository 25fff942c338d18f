"""Multiway aggregation pipeline over SPSC queues.

Topology: each producer owns a block of stage-2 aggregators (a
contiguous, even partition) and a dedicated queue to each of them;
every aggregator owns one queue to the single final aggregator. Each
producer deals its sorted tuples round-robin across its block, so every
aggregator still sees a sorted stream.

Termination: a producer calls producer_finish on each of its queues
(which publishes what a batching kind still holds, or the final
index from which BatchQueue's consumer takes the elements left over); an
aggregator drains its input, flushes its still-open windows, then sends
an inactivity marker. The final aggregator visits its queues in turn
and drains each one it visits, taking every message the queue holds
before it moves on; queues are FIFO, so a marker is the last message of
its queue, and the final aggregator drops the queue as it marks the
source inactive. Once every queue is dropped, every window is released.

Failure: the stages run under run_stages, which passes them all one
abort event and sets it when any stage raises. A stage therefore needs
no cleanup on its error path: each stage still waiting raises Aborted
at its next miss and unwinds, and run_stages re-raises the first
stage's error. The two-thread handoff of the micro benchmark and the
FIFO stress runs is the other user of run_stages.

Placement: run_stages starts every stage thread on the caller's current
CPU. Under CPython's interpreter lock the stages take turns anyway, and
on one CPU a stage that waits in ``os.sched_yield()`` hands the CPU to
the peer it woke; across CPUs every lock handoff would wake the other
CPU while the yield returns at once to an empty run queue.

All cross-thread communication goes through the queues; every other
piece of state is owned by exactly one thread.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import cycle
from typing import Callable, Dict, List, NamedTuple, Tuple

from .aggregation import FinalAggregator, WindowAggregator, WindowSpec
from .queues import (
    EMPTY,
    Aborted,
    ConsumerEndpoint,
    InvalidConfig,
    ProducerEndpoint,
    QueueConfig,
    QueueKind,
    Waiter,
    new_queue,
)


class SourceDone(NamedTuple):
    """Inactivity marker an aggregator sends after its last partial."""

    source: int


def validate_topology(producers: int, aggregators: int) -> None:
    """Raise InvalidConfig unless every producer owns at least one aggregator."""
    if producers < 1:
        raise InvalidConfig("need at least one producer")
    if aggregators < 1:
        raise InvalidConfig("need at least one aggregator")
    if producers > aggregators:
        raise InvalidConfig(
            f"{producers} producers cannot partition {aggregators} aggregators"
        )


@dataclass
class PipelineConfig:
    producers: int
    aggregators: int
    queue_kind: QueueKind
    queue_config: QueueConfig
    spec: WindowSpec
    workloads: List[List[Tuple[int, int]]]  # one sorted tuple list per producer

    def validate(self) -> None:
        validate_topology(self.producers, self.aggregators)
        if len(self.workloads) != self.producers:
            raise InvalidConfig(
                f"expected {self.producers} workloads, got {len(self.workloads)}"
            )
        self.queue_config.validate(self.queue_kind)
        for i, workload in enumerate(self.workloads):
            last = -1
            for ts, _value in workload:
                if ts < 0:
                    raise InvalidConfig(f"producer {i}: negative timestamp {ts}")
                if ts < last:
                    raise InvalidConfig(
                        f"producer {i}: workload not sorted at timestamp {ts}"
                    )
                last = ts


@dataclass
class RunMetrics:
    elapsed_s: float
    tuples: int
    partials: int
    messages: int = field(init=False)

    def __post_init__(self):
        self.messages = self.tuples + self.partials


def partition_aggregators(producers: int, aggregators: int) -> List[range]:
    """Contiguous, even split of aggregator ids across producers."""
    base, extra = divmod(aggregators, producers)
    blocks = []
    lo = 0
    for i in range(producers):
        hi = lo + base + (1 if i < extra else 0)
        blocks.append(range(lo, hi))
        lo = hi
    return blocks


def _run_producer(
    workload: List[Tuple[int, int]],
    outputs: List[ProducerEndpoint],
    abort: threading.Event,
) -> None:
    for item, out in zip(workload, cycle(outputs)):
        out.enqueue_spin(item, abort=abort)
    for out in outputs:
        out.producer_finish()


def _run_aggregator(
    source: int,
    spec: WindowSpec,
    inp: ConsumerEndpoint,
    out: ProducerEndpoint,
    counters: Dict[int, int],
    abort: threading.Event,
) -> None:
    agg = WindowAggregator(spec, source=source)
    send = out.enqueue_spin
    deq = inp.try_dequeue
    while True:
        item = deq()
        if item is EMPTY:
            item = inp.dequeue_spin(abort=abort)
            if item is EMPTY:
                break
        for p in agg.update(item[0], item[1]):
            send(p, abort=abort)
    for p in agg.finalize():
        send(p, abort=abort)
    send(SourceDone(source), abort=abort)
    out.producer_finish()
    counters[source] = agg.emitted_count


def _run_final(
    fa: FinalAggregator,
    inputs: List[ConsumerEndpoint],
    results: Dict[int, int],
    abort: threading.Event,
) -> None:
    live = list(inputs)
    wait = Waiter(abort=abort)
    accept = fa.accept
    while live:
        progressed = False
        for q in live[:]:  # each visit drains the queue; dropped ones leave `live`
            deq = q.try_dequeue
            item = deq()
            while item is not EMPTY:
                progressed = True
                if isinstance(item, SourceDone):  # FIFO: the queue's last message
                    results.update(fa.mark_inactive(item.source))
                    live.remove(q)
                    break
                released = accept(item)
                if released:
                    results.update(released)
                item = deq()
        if progressed:
            wait.misses = 0
        else:
            wait()
    assert fa.all_inactive(), "final aggregator exited with active sources"
    assert not fa.partials, "final aggregator exited with unreleased windows"


def _current_cpu() -> int:
    """The CPU the calling thread last ran on: field 39 of its
    ``/proc`` stat line. The command name (field 2) may hold spaces, so
    the fields are split after its closing parenthesis, from field 3."""
    with open("/proc/thread-self/stat") as f:
        return int(f.read().rpartition(")")[2].split()[36])


def run_stages(stages: Dict[str, Callable[[threading.Event], None]]) -> float:
    """Run each stage in its own thread, named by its key, and return the
    wall time from releasing the threads to the last join.

    Every stage is called with the run's abort event, which is set as
    soon as any stage raises. Once all threads have joined, the first
    error is re-raised, preferring the root cause over the Aborted and
    AssertionError it set off in the other stages. If a thread fails to
    start, the ones already started return without running their stage,
    and the error is re-raised once they have joined.

    All the stage threads share one CPU, the one the caller is running
    on: the caller is confined to it while it starts them (new threads
    inherit the mask) and gets its own mask back once they have
    started. Under the interpreter lock only one thread runs bytecode
    at a time, so this costs no parallelism. Spread over CPUs, each
    lock handoff would have to wake the other CPU, while the stage that
    gave the lock up in ``os.sched_yield()`` finds its own run queue
    empty and takes the lock straight back; on one CPU the yield hands
    the CPU to the peer it has just woken. Where the platform has no
    affinity calls or no ``/proc``, the stages run unconfined.
    """
    start = threading.Event()
    abort = threading.Event()
    errors: List[BaseException] = []
    released = False  # every thread has started: the stages may run

    def runner(stage):
        start.wait()
        if not released:  # another thread failed to start
            return
        try:
            stage(abort)
        except BaseException as exc:  # surfaced after join
            errors.append(exc)
            abort.set()

    threads = [
        threading.Thread(target=runner, args=(stage,), name=name)
        for name, stage in stages.items()
    ]
    try:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {_current_cpu()})
    except (OSError, AttributeError):
        allowed = None  # no affinity control here: run unconfined
    try:
        for t in threads:
            t.start()  # a new thread inherits its creator's CPU mask
    except BaseException:
        start.set()  # the threads already started return unrun
        for t in threads:
            if t.is_alive():
                t.join()
        raise
    finally:
        if allowed is not None:
            os.sched_setaffinity(0, allowed)
    released = True
    t0 = time.perf_counter()
    start.set()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0
    if errors:
        raise next(
            (e for e in errors if not isinstance(e, (AssertionError, Aborted))),
            errors[0],
        )
    return elapsed


def run_pipeline(config: PipelineConfig) -> Tuple[Dict[int, int], RunMetrics]:
    """Run the full pipeline and return the window totals plus metrics.

    The clock is run_stages', so construction and wiring are excluded.
    The first exception in a stage aborts every other stage's waits and
    is re-raised here; windows still in flight are discarded.
    """
    config.validate()
    blocks = partition_aggregators(config.producers, config.aggregators)

    aggs = range(config.aggregators)
    # (producer, consumer) pairs, indexed by aggregator id
    feeds = [new_queue(config.queue_kind, config.queue_config) for _ in aggs]
    outputs = [new_queue(config.queue_kind, config.queue_config) for _ in aggs]

    fa = FinalAggregator(config.spec, sources=aggs)
    results: Dict[int, int] = {}
    partial_counts: Dict[int, int] = {}
    stages = {
        f"producer-{i}": partial(
            _run_producer, config.workloads[i], [feeds[j][0] for j in block]
        )
        for i, block in enumerate(blocks)
    }
    for j in aggs:
        stages[f"aggregator-{j}"] = partial(
            _run_aggregator, j, config.spec, feeds[j][1], outputs[j][0], partial_counts
        )
    stages["final-aggregator"] = partial(
        _run_final, fa, [c for _p, c in outputs], results
    )
    elapsed = run_stages(stages)

    metrics = RunMetrics(
        elapsed_s=elapsed,
        tuples=sum(len(w) for w in config.workloads),
        partials=sum(partial_counts.values()),
    )
    return results, metrics
