"""Benchmark harness: queue microbenchmarks and pipeline benchmarks.

Micro mode pushes a fixed element count through one queue with a
producer and a consumer thread, sweeping queue kind, capacity, and
element size; pipeline mode times the full aggregation pipeline and
verifies its output against the sequential oracle before reporting.
Timing covers the span from releasing the worker threads to the last
completion; construction and prefill sit outside the clock. Every
configuration runs ``reps`` times and a mean row is appended per
configuration.

Energy measurement is delegated to an external command (invoked with
``start`` before each run, set-up included, and ``stop`` after it; the
stop output must contain one decimal joules number), so reports stay
hardware-agnostic.
"""

from __future__ import annotations

import json
import logging
import os
import random
import re
import shlex
import subprocess
import threading
import time
from array import array
from dataclasses import dataclass, field
from io import StringIO
from typing import Any, List, Optional, Sequence, Tuple

from .aggregation import WindowSpec
from .oracle import OpLog, check_fifo, oracle_aggregate
from .pipeline import PipelineConfig, run_pipeline
from .queues import EMPTY, InvalidConfig, QueueConfig, QueueKind, new_queue

log = logging.getLogger(__name__)

#: Base payload footprint of a (timestamp, value) element; element-size
#: sweeps pad beyond this with inert bytes carried through the queue.
BASE_ELEMENT_BYTES = 12

CSV_HEADER = (
    "kind,capacity,element_size,tuples,producers,aggregators,rep,"
    "elapsed_ms,ops,throughput_ops_per_ms,joules,joules_per_message"
)

_KIND_ALIASES = {
    "lamport": QueueKind.LAMPORT,
    "fastforward": QueueKind.FASTFORWARD,
    "ff": QueueKind.FASTFORWARD,
    "batchqueue": QueueKind.BATCHQUEUE,
    "bq": QueueKind.BATCHQUEUE,
    "mcringbuffer": QueueKind.MCRINGBUFFER,
    "mcr": QueueKind.MCRINGBUFFER,
}


def parse_kind(name: str) -> QueueKind:
    try:
        return _KIND_ALIASES[name.strip().lower()]
    except KeyError:
        raise InvalidConfig(f"unknown queue kind {name!r}") from None


class OracleMismatch(RuntimeError):
    """A pipeline benchmark run disagreed with the sequential oracle."""


class ProbeFailure(RuntimeError):
    """The external energy probe failed or produced unusable output."""


@dataclass
class BenchConfig:
    mode: str  # "micro" or "pipeline"
    kinds: List[QueueKind] = field(default_factory=lambda: list(QueueKind))
    capacities: List[int] = field(default_factory=lambda: [128])
    element_sizes: List[int] = field(default_factory=lambda: [BASE_ELEMENT_BYTES])
    tuples: int = 100_000
    producers: int = 1
    aggregators: int = 10
    window: WindowSpec = field(default_factory=lambda: WindowSpec(4, 2))
    prefill: Optional[int] = None  # None: half of a 128 ring, else 150, clamped
    reps: int = 5
    warmup: int = 0
    seed: int = 0
    mcr_batch: int = 1
    verify: bool = True
    energy_cmd: Optional[str] = None
    strict_energy: bool = False

    def validate(self) -> None:
        if self.mode not in ("micro", "pipeline"):
            raise InvalidConfig(f"mode must be micro or pipeline, got {self.mode!r}")
        if self.reps < 1:
            raise InvalidConfig("reps must be >= 1")
        if self.warmup < 0:
            raise InvalidConfig("warmup must be >= 0")
        if self.tuples < 0:
            raise InvalidConfig("tuples must be >= 0")
        if not self.kinds:
            raise InvalidConfig("at least one queue kind required")
        if not self.capacities:
            raise InvalidConfig("at least one capacity required")
        for size in self.element_sizes:
            if size < BASE_ELEMENT_BYTES:
                raise InvalidConfig(
                    f"element size {size} below the {BASE_ELEMENT_BYTES}-byte element"
                )
        if self.mode == "pipeline" and self.producers > self.aggregators:
            raise InvalidConfig("more producers than aggregators")


@dataclass
class ReportRow:
    kind: str
    capacity: int
    element_size: Optional[int]
    tuples: int
    producers: int
    aggregators: Optional[int]
    rep: str  # "0".."n-1" or "mean"
    elapsed_ms: float
    ops: int
    throughput_ops_per_ms: float
    joules: Optional[float] = None
    joules_per_message: Optional[float] = None

    @classmethod
    def measured(
        cls, *, elapsed_ms: float, ops: int, joules: Optional[float], **fields: Any
    ) -> "ReportRow":
        """A row whose throughput and energy per message are derived
        from ``ops``, ``elapsed_ms`` and ``joules``."""
        return cls(
            elapsed_ms=elapsed_ms,
            ops=ops,
            throughput_ops_per_ms=ops / elapsed_ms if elapsed_ms > 0 else 0.0,
            joules=joules,
            joules_per_message=joules / ops if joules is not None and ops else None,
            **fields,
        )

    def to_csv(self) -> str:
        def opt(v) -> str:
            return "" if v is None else str(v)

        return ",".join(
            [
                self.kind,
                str(self.capacity),
                opt(self.element_size),
                str(self.tuples),
                str(self.producers),
                opt(self.aggregators),
                self.rep,
                str(self.elapsed_ms),
                str(self.ops),
                str(self.throughput_ops_per_ms),
                opt(self.joules),
                opt(self.joules_per_message),
            ]
        )

    @classmethod
    def from_csv(cls, line: str) -> "ReportRow":
        parts = line.rstrip("\n").split(",")
        if len(parts) != 12:
            raise ValueError(f"expected 12 fields, got {len(parts)}")

        def opt_int(s: str) -> Optional[int]:
            return int(s) if s else None

        def opt_float(s: str) -> Optional[float]:
            return float(s) if s else None

        return cls(
            kind=parts[0],
            capacity=int(parts[1]),
            element_size=opt_int(parts[2]),
            tuples=int(parts[3]),
            producers=int(parts[4]),
            aggregators=opt_int(parts[5]),
            rep=parts[6],
            elapsed_ms=float(parts[7]),
            ops=int(parts[8]),
            throughput_ops_per_ms=float(parts[9]),
            joules=opt_float(parts[10]),
            joules_per_message=opt_float(parts[11]),
        )


def rows_to_csv(rows: Sequence[ReportRow]) -> str:
    out = StringIO()
    out.write(CSV_HEADER + "\n")
    for row in rows:
        out.write(row.to_csv() + "\n")
    return out.getvalue()


def rows_from_csv(text: str) -> List[ReportRow]:
    lines = text.strip().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or unexpected CSV header")
    return [ReportRow.from_csv(line) for line in lines[1:]]


def rows_to_json(rows: Sequence[ReportRow]) -> str:
    return json.dumps([row.__dict__ for row in rows], indent=2)


def rows_from_json(text: str) -> List[ReportRow]:
    return [ReportRow(**record) for record in json.loads(text)]


# ---------------------------------------------------------------------------
# Workload generation


def generate_workload(
    n: int, seed: int, value_range: Tuple[int, int] = (0, 100)
) -> List[Tuple[int, int]]:
    """Deterministic sorted (timestamp, value) stream.

    Timestamps advance by one unit most of the time with occasional
    repeats, mimicking merged smart-meter readings; the same seed always
    yields the same stream.
    """
    rng = random.Random(seed)
    lo, hi = value_range
    ts = 0
    out = []
    for _ in range(n):
        out.append((ts, rng.randint(lo, hi)))
        if rng.random() < 0.75:
            ts += 1
    return out


def split_workload(
    total: int, producers: int, seed: int
) -> List[List[Tuple[int, int]]]:
    """Independent sorted streams, one per producer, ``total`` tuples overall."""
    base, extra = divmod(total, producers)
    return [
        generate_workload(base + (1 if i < extra else 0), seed * 1_000_003 + i)
        for i in range(producers)
    ]


# ---------------------------------------------------------------------------
# Energy probe


class EnergyProbe:
    """Wraps an external measurement command.

    ``cmd start`` is invoked before the measured run and ``cmd stop``
    after it; the first decimal number on the stop output is taken as
    joules for the region.
    """

    _NUMBER = re.compile(r"[-+]?\d*\.?\d+(?:[eE][-+]?\d+)?")

    def __init__(self, cmd: str):
        self._argv = shlex.split(cmd)

    def start(self) -> None:
        self._invoke("start")

    def stop(self) -> float:
        out = self._invoke("stop")
        match = self._NUMBER.search(out)
        if match is None:
            raise ProbeFailure(f"no joules value in probe output: {out!r}")
        return float(match.group())

    def _invoke(self, phase: str) -> str:
        try:
            proc = subprocess.run(
                self._argv + [phase], capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise ProbeFailure(f"probe {phase} failed: {exc}") from exc
        if proc.returncode != 0:
            raise ProbeFailure(
                f"probe {phase} exited {proc.returncode}: {proc.stderr.strip()!r}"
            )
        return proc.stdout


# ---------------------------------------------------------------------------
# FIFO stress harness (shared by tests and the acceptance suite)


def fifo_stress_run(
    kind: QueueKind, capacity: int, count: int, config: Optional[QueueConfig] = None
) -> OpLog:
    """Push ``count`` sequence-numbered elements through a two-thread run.

    Returns a complete OpLog (the producer finishes, the consumer drains
    fully) ready for check_fifo plus a multiset comparison.
    """
    qconfig = config or QueueConfig(capacity=capacity)
    producer, consumer = new_queue(kind, qconfig)
    dequeued = array("q")

    # Both loops try inline and fall back to the spin wrappers only on a
    # miss, so the wait policy costs nothing on the success path.
    def produce():
        enq = producer.try_enqueue
        for seq in range(count):
            if not enq(seq):
                producer.enqueue_spin(seq)
        producer.producer_finish()

    def consume():
        deq = consumer.try_dequeue
        got = dequeued.append
        while True:
            item = deq()
            if item is EMPTY:
                item = consumer.dequeue_spin()
                if item is EMPTY:
                    return
            got(item)

    tp = threading.Thread(target=produce, name="stress-producer")
    tc = threading.Thread(target=consume, name="stress-consumer")
    tp.start()
    tc.start()
    tp.join()
    tc.join()
    return OpLog(enqueued=range(count), dequeued=dequeued, complete=True)


def fifo_stress_verify(
    kind: QueueKind,
    capacity: int,
    count: int,
    pin_cpu: Optional[int] = None,
) -> Tuple[float, Optional[str]]:
    """Run a stress round and verify it in place.

    Returns (elapsed_seconds, None) on success or (elapsed, reason).
    Designed for worker pools: verification happens here so only a
    small result crosses the process boundary. Pinning both stress
    threads to one CPU shortens the wake-up path at tiny capacities.
    """
    if pin_cpu is not None:
        try:
            os.sched_setaffinity(0, {pin_cpu})
        except (OSError, AttributeError):
            pass
    t0 = time.perf_counter()
    log = fifo_stress_run(kind, capacity, count)
    elapsed = time.perf_counter() - t0
    violation = check_fifo(log)
    if violation is not None:
        return elapsed, f"{kind.value}@{capacity}: {violation}"
    if sorted(log.dequeued) != list(range(count)):
        return elapsed, f"{kind.value}@{capacity}: terminal multiset mismatch"
    return elapsed, None


# ---------------------------------------------------------------------------
# Micro benchmark


def default_prefill(kind: QueueKind, capacity: int) -> int:
    """Ring pre-population giving the producer a head start: half the
    ring at the 128 reference size, 150 elements otherwise, clamped to
    what the kind can hold."""
    usable = capacity if kind is QueueKind.BATCHQUEUE else capacity - 1
    target = capacity // 2 if capacity == 128 else 150
    return min(target, usable)


def _run_micro_once(
    kind: QueueKind,
    capacity: int,
    element_size: int,
    count: int,
    prefill: int,
    mcr_batch: int,
) -> float:
    """One timed producer/consumer run; returns elapsed seconds."""
    qconfig = QueueConfig(capacity=capacity, mcr_batch_size=mcr_batch)
    producer, consumer = new_queue(kind, qconfig)
    # Padding is allocated per element inside the timed loop; carrying
    # it through the queue is what the element-size sweep measures.
    pad_len = element_size - BASE_ELEMENT_BYTES

    for seq in range(prefill):
        if not producer.try_enqueue((seq, bytes(pad_len))):
            raise InvalidConfig(
                f"prefill {prefill} does not fit a {kind.value} ring of {capacity}"
            )

    total = prefill + count
    start = threading.Event()
    consumer_error: List[str] = []

    def produce():
        start.wait()
        enq = producer.try_enqueue
        for seq in range(prefill, total):
            item = (seq, bytes(pad_len))
            if not enq(item):
                producer.enqueue_spin(item)
        producer.producer_finish()

    def consume():
        start.wait()
        deq = consumer.try_dequeue
        expected = 0
        while True:
            item = deq()
            if item is EMPTY:
                item = consumer.dequeue_spin()
                if item is EMPTY:
                    if expected != total:
                        consumer_error.append(
                            f"drained {expected} of {total} elements"
                        )
                    return
            if item[0] != expected:  # inline FIFO verification
                consumer_error.append(
                    f"sequence break: expected {expected}, got {item[0]}"
                )
                return
            expected += 1

    tp = threading.Thread(target=produce, name="micro-producer")
    tc = threading.Thread(target=consume, name="micro-consumer")
    tp.start()
    tc.start()
    t0 = time.perf_counter()
    start.set()
    tp.join()
    tc.join()
    elapsed = time.perf_counter() - t0
    if consumer_error:
        raise OracleMismatch(f"micro run failed FIFO check: {consumer_error[0]}")
    return elapsed


def _with_energy(config: BenchConfig, fn, *args):
    """Run ``fn(*args)`` between the energy probe's start and stop and
    return ``(result, joules)``.

    Without a probe command joules is None. A probe failure raises
    ProbeFailure under strict_energy; otherwise it is logged, the run's
    result is kept and joules is None.
    """
    if not config.energy_cmd:
        return fn(*args), None
    probe = EnergyProbe(config.energy_cmd)
    try:
        probe.start()
    except ProbeFailure as exc:
        _probe_failed(config, exc)
        return fn(*args), None
    result = fn(*args)
    try:
        return result, probe.stop()
    except ProbeFailure as exc:
        _probe_failed(config, exc)
        return result, None


def _probe_failed(config: BenchConfig, exc: ProbeFailure) -> None:
    if config.strict_energy:
        raise exc
    log.warning("energy probe failed, row kept: %s", exc)


def _summarize(rows: List[ReportRow]) -> ReportRow:
    """Mean row over one configuration's repetitions; the throughput is
    recomputed from the mean elapsed so the ops/elapsed identity holds."""
    first = rows[0]
    joules = [r.joules for r in rows if r.joules is not None]
    return ReportRow.measured(
        kind=first.kind,
        capacity=first.capacity,
        element_size=first.element_size,
        tuples=first.tuples,
        producers=first.producers,
        aggregators=first.aggregators,
        rep="mean",
        elapsed_ms=sum(r.elapsed_ms for r in rows) / len(rows),
        ops=first.ops,
        joules=sum(joules) / len(joules) if joules else None,
    )


def run_micro(config: BenchConfig) -> List[ReportRow]:
    """Sweep (kind, capacity, element size) and report ops per ms.

    One op is an enqueue/dequeue pair. Probe failures downgrade the row
    to joules-absent with a warning unless strict_energy is set.
    """
    config.validate()
    rows: List[ReportRow] = []
    for kind in config.kinds:
        for capacity in config.capacities:
            if kind is QueueKind.BATCHQUEUE and capacity % 2 != 0:
                raise InvalidConfig(
                    f"BatchQueue cannot run at odd capacity {capacity}"
                )
            prefill = (
                config.prefill
                if config.prefill is not None
                else default_prefill(kind, capacity)
            )
            for element_size in config.element_sizes:
                rep_rows: List[ReportRow] = []
                for rep in range(config.warmup + config.reps):
                    elapsed, joules = _with_energy(
                        config, _run_micro_once, kind, capacity, element_size,
                        config.tuples, prefill, config.mcr_batch,
                    )
                    if rep < config.warmup:
                        continue
                    rep_rows.append(
                        ReportRow.measured(
                            kind=kind.value,
                            capacity=capacity,
                            element_size=element_size,
                            tuples=config.tuples,
                            producers=1,
                            aggregators=None,
                            rep=str(rep - config.warmup),
                            elapsed_ms=elapsed * 1000.0,
                            ops=config.tuples,
                            joules=joules,
                        )
                    )
                rows.extend(rep_rows)
                rows.append(_summarize(rep_rows))
    return rows


# ---------------------------------------------------------------------------
# Pipeline benchmark


def run_pipeline_bench(config: BenchConfig) -> List[ReportRow]:
    """Benchmark the aggregation pipeline across kinds and capacities.

    Every repetition is checked against the sequential oracle before it
    may contribute a row; a mismatch aborts with both maps attached.
    """
    config.validate()
    rows: List[ReportRow] = []
    for kind in config.kinds:
        for capacity in config.capacities:
            rep_rows: List[ReportRow] = []
            for rep in range(config.warmup + config.reps):
                workloads = split_workload(
                    config.tuples, config.producers, config.seed + rep
                )
                pconfig = PipelineConfig(
                    producers=config.producers,
                    aggregators=config.aggregators,
                    queue_kind=kind,
                    queue_config=QueueConfig(
                        capacity=capacity, mcr_batch_size=config.mcr_batch
                    ),
                    spec=config.window,
                    workloads=workloads,
                )
                (totals, metrics), joules = _with_energy(config, run_pipeline, pconfig)
                if config.verify:
                    merged = sorted(
                        (t for w in workloads for t in w), key=lambda t: t[0]
                    )
                    expected = oracle_aggregate(merged, config.window)
                    if totals != expected:
                        raise OracleMismatch(
                            f"{kind.value} capacity {capacity} rep {rep}: "
                            f"pipeline produced {totals!r} but the oracle "
                            f"says {expected!r}"
                        )
                if rep < config.warmup:
                    continue
                rep_rows.append(
                    ReportRow.measured(
                        kind=kind.value,
                        capacity=capacity,
                        element_size=None,
                        tuples=config.tuples,
                        producers=config.producers,
                        aggregators=config.aggregators,
                        rep=str(rep - config.warmup),
                        elapsed_ms=metrics.elapsed_s * 1000.0,
                        ops=metrics.messages,
                        joules=joules,
                    )
                )
            rows.extend(rep_rows)
            rows.append(_summarize(rep_rows))
    return rows


def run_bench(config: BenchConfig) -> List[ReportRow]:
    if config.mode == "micro":
        return run_micro(config)
    return run_pipeline_bench(config)
