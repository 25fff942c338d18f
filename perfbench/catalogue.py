"""Workloads and metrics of the streamq benchmark.

This module is the single description of what the benchmark runs and
reports. ``BENCHMARK.json`` at the repository root must agree with it;
the smoke test checks that they do.

Every workload reports every metric, because the benchmark contract
asks for the same metric set on each run. A per-layer metric whose
layer a workload does not enter (for example ``trace.aggregation.*``
spans on ``spsc-tight``) is a count or a ratio and reads 0 there; no
metric with a time unit is ever a placeholder.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

KINDS = ("lamport", "fastforward", "batchqueue", "mcringbuffer")

#: Seconds one run measures: the run_seconds of BENCHMARK.json.
RUN_SECONDS = 40

#: Faults the runner can inject, to check that the benchmark catches them.
FAULTS = ("wrong-expected", "drop-element", "stall")

Stream = List[Tuple[int, int]]


@dataclass(frozen=True)
class Workload:
    """One set of inputs.

    ``mode`` is ``pipeline`` (timed ``run_pipeline`` passes) or ``spsc``
    (a two-thread handoff over one queue). ``tuples`` is the input size
    of one pass. ``producers``, ``aggregators`` and ``window`` give the
    aggregation job: the pipeline topology, or for ``spsc`` the 1-to-1
    job its single-thread replays run on the element stream.
    ``capacity`` is the ring size of every queue.
    """

    name: str
    why: str
    mode: str
    tuples: int
    producers: int
    aggregators: int
    window: Tuple[int, int]
    capacity: int
    l1_elements: int  # elements of the two-thread handoff replay

    def sized(self, scale: float) -> "Workload":
        """The same workload with ``scale`` times the input, for self-tests."""
        return Workload(
            self.name, self.why, self.mode,
            max(200, int(self.tuples * scale)),
            self.producers, self.aggregators, self.window, self.capacity,
            max(200, int(self.l1_elements * scale)),
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pipe-1x10-narrow",
            why=(
                "the paper's reference 1x10 topology, window (4,2): two "
                "partials per tuple, so FinalAggregator.accept carries most "
                "of the aggregation work"
            ),
            mode="pipeline",
            tuples=12_500,
            producers=1,
            aggregators=10,
            window=(4, 2),
            capacity=128,
            l1_elements=10_000,
        ),
        Workload(
            name="pipe-3x8-wide",
            why=(
                "the paper's 3x8 topology, window (64,1): update cost grows "
                "with size/advance and three streams exercise per-source "
                "watermarks"
            ),
            mode="pipeline",
            tuples=6_000,
            producers=3,
            aggregators=8,
            window=(64, 1),
            capacity=128,
            l1_elements=10_000,
        ),
        Workload(
            name="spsc-tight",
            why=(
                "one producer and one consumer thread over a capacity-4 "
                "queue, waiting in enqueue_spin and dequeue_spin: bound by the "
                "handoff, so it isolates the queues and their wait policy"
            ),
            mode="spsc",
            tuples=20_000,
            producers=1,
            aggregators=1,
            window=(4, 2),
            capacity=4,
            l1_elements=20_000,
        ),
    )
}


def make_streams(workload: Workload, seed: int) -> List[Stream]:
    """Sorted ``(timestamp, value)`` streams, one per producer.

    Timestamps advance by one with probability 3/4 and repeat
    otherwise; values are uniform in [0, 100]. The same workload and
    seed always give the same streams. Built here, not by the program,
    so that no change to the program can alter the inputs.
    """
    base, extra = divmod(workload.tuples, workload.producers)
    streams = []
    for p in range(workload.producers):
        rng = random.Random(f"{workload.name}/{seed}/{p}")
        ts = 0
        stream = []
        for _ in range(base + (1 if p < extra else 0)):
            stream.append((ts, rng.randint(0, 100)))
            if rng.random() < 0.75:
                ts += 1
        streams.append(stream)
    return streams


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: str  # what the metric should move, or what moves it
    bound: float = 0.0  # end-to-end only


def _per_kind(stem: str, unit: str, better: str, moves: str) -> List[Metric]:
    return [Metric(f"{stem}.{k}", unit, better, moves) for k in KINDS]


END_TO_END: List[Metric] = [
    *[
        Metric(
            f"items_per_s.{k}", "1/s", "higher",
            "input items per second of wall time, median over the run's "
            "passes: tuples fully aggregated per RunMetrics.elapsed_s in the "
            "pipelines, or elements handed over in spsc-tight",
            bound=0.25,
        )
        for k in KINDS
    ],
    Metric(
        "setup_s", "s", "lower",
        "median per pass of the program's set-up, in wall time: a "
        "run_pipeline call minus its elapsed_s, or new_queue plus the "
        "producer thread's start",
        bound=0.25,
    ),
    Metric(
        "peak_mem_mib", "MiB", "lower",
        "peak Python memory one pass allocates over the level before it "
        "(tracemalloc, in separate untimed passes), median over two passes "
        "of each kind",
        bound=0.25,
    ),
]

_SPAN_MOVES = {
    "queues.enqueue_spin": "producer-side waiting on full queues; items_per_s on both pipelines",
    "queues.try_enqueue": "queue op cost and full retries; items_per_s everywhere",
    "queues.try_dequeue": "queue op cost and empty polls; items_per_s everywhere",
    "aggregation.update": "items_per_s on pipe-3x8-wide (update grows with size/advance)",
    "aggregation.finalize": "flush cost at end of stream; barely moves items_per_s",
    "aggregation.accept": "items_per_s on pipe-1x10-narrow (accept dominates there)",
    "aggregation.mark_inactive": "end-of-stream release cost; barely moves items_per_s",
}
#: Spans whose call count is fixed by the topology; only their CPU share is reported.
FIXED_COUNT_SPANS = ("aggregation.finalize", "aggregation.mark_inactive")
SPANS = tuple(_SPAN_MOVES)

PER_LAYER: List[Metric] = [
    *_per_kind(
        "queues.pair_ns", "ns", "lower",
        "one try_enqueue plus try_dequeue, single thread, capacity 128; moves "
        "items_per_s on the pipelines a little (about 3 queue ops per tuple) "
        "and spsc-tight barely",
    ),
    *_per_kind(
        "queues.enq_retry_frac", "ratio", "lower",
        "1 - enq_successes/enq_attempts in the two-thread handoff at the "
        "workload's capacity; moves items_per_s on spsc-tight",
    ),
    *_per_kind(
        "queues.deq_empty_frac", "ratio", "lower",
        "1 - deq_successes/deq_attempts in the same handoff; moves items_per_s "
        "on spsc-tight",
    ),
    *_per_kind(
        "queues.pubs_per_item", "count", "lower",
        "publication_events of both endpoints per element in the same handoff; "
        "moves items_per_s on spsc-tight",
    ),
    *_per_kind(
        "queues.handoff_p50_us", "us", "lower",
        "median time of one element from the enqueue_spin call to its "
        "dequeue, in the same handoff; "
        "moves items_per_s on spsc-tight",
    ),
    *_per_kind(
        "queues.handoff_p99_us", "us", "lower",
        "99th percentile of the same handoff time; moves items_per_s on "
        "spsc-tight",
    ),
    Metric(
        "aggregation.update_us", "us", "lower",
        "WindowAggregator.update per tuple, single-thread replay; moves "
        "items_per_s mostly on pipe-3x8-wide",
    ),
    Metric(
        "aggregation.accept_us", "us", "lower",
        "FinalAggregator.accept per partial, single-thread replay; moves "
        "items_per_s mostly on pipe-1x10-narrow",
    ),
    Metric(
        "aggregation.partials_per_tuple", "ratio", "lower",
        "partials emitted per tuple: the amount of accept work",
    ),
    Metric(
        "aggregation.peak_pending", "count", "lower",
        "most windows pending in FinalAggregator during the replay; moves "
        "peak_mem_mib",
    ),
    Metric(
        "aggregation.reported_entries", "count", "lower",
        "size of FinalAggregator.reported after the replay; moves peak_mem_mib",
    ),
    Metric(
        "pipeline.sequential_items_per_s", "1/s", "higher",
        "the same job through update and accept in one thread, no queues: "
        "the single-thread baseline that bounds what queue work can win",
    ),
    Metric(
        "oracle.us_per_tuple", "us", "lower",
        "oracle_aggregate per tuple: the price of verification; moves no "
        "end-to-end metric",
    ),
    *[
        m
        for span in SPANS
        if span not in FIXED_COUNT_SPANS
        for m in _per_kind(
            f"trace.{span}.calls", "count", "lower",
            f"calls in the traced pass; {_SPAN_MOVES[span]}",
        )
    ],
    *[
        m
        for span in SPANS
        for m in _per_kind(
            f"trace.{span}.cpu_frac", "ratio", "lower",
            f"share of the traced pass's program CPU spent in this span's own "
            f"code; {_SPAN_MOVES[span]}",
        )
    ],
    *_per_kind(
        "trace.pipeline.cpu_frac", "ratio", "lower",
        "share of program CPU outside every span: the pipeline's (or the "
        "handoff harness's) own loops, thread start and validation",
    ),
    *_per_kind(
        "trace.pipeline.process_cpu_s", "s", "lower",
        "process CPU of the traced pass, tracing cost removed; the base of "
        "every cpu_frac",
    ),
    *_per_kind(
        "trace.queues.full_frac", "ratio", "lower",
        "try_enqueue calls that found the queue full, traced pass; moves "
        "items_per_s",
    ),
    *_per_kind(
        "trace.queues.empty_frac", "ratio", "lower",
        "try_dequeue calls that found the queue empty, traced pass; moves "
        "items_per_s",
    ),
    *_per_kind(
        "trace.idle.sleep_calls", "count", "lower",
        "time.sleep calls in the traced pass: the wait policy's idle steps",
    ),
    *_per_kind(
        "trace.idle.wall_frac", "ratio", "lower",
        "wall time inside time.sleep summed over threads, per second of the "
        "traced pass",
    ),
    Metric(
        "trace.pipeline.release_lag_p50_ms", "ms", "lower",
        "median wall time from enqueuing the last input a result depends on to "
        "the call that releases it (a window, or on spsc-tight the dequeued "
        "element), all kinds pooled, traced",
    ),
    Metric(
        "trace.pipeline.release_lag_p99_ms", "ms", "lower",
        "99th percentile of the same release lag",
    ),
    Metric(
        "trace.overhead", "ratio", "lower",
        "untraced over traced items per second, all kinds pooled; read every "
        "traced share against it",
    ),
]


def percentile(sorted_values, q: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def benchmark_spec() -> dict:
    """The ``BENCHMARK.json`` content this catalogue implies."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }

