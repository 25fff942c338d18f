"""Benchmark harness: queue microbenchmarks and pipeline benchmarks.

Micro mode pushes a fixed element count through one queue with a
producer and a consumer thread, sweeping queue kind, capacity, and
element size, and checks every run's log with ``check_fifo``; pipeline
mode times the full aggregation pipeline and verifies its output
against the sequential oracle before reporting. Timing covers the span
from releasing the worker threads to the last completion; construction
and prefill sit outside the clock. Every configuration runs ``reps``
times and a mean row is appended per configuration.

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
from array import array
from contextlib import suppress
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Any, List, Optional, Sequence, Tuple, get_args, get_type_hints

from .aggregation import WindowSpec
from .oracle import OpLog, check_fifo, oracle_aggregate
from .pipeline import PipelineConfig, run_pipeline, run_stages, validate_topology
from .queues import EMPTY, InvalidConfig, QueueConfig, QueueKind, new_queue

log = logging.getLogger(__name__)

#: Base payload footprint of a (timestamp, value) element; element-size
#: sweeps pad beyond this with inert bytes carried through the queue.
BASE_ELEMENT_BYTES = 12

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
    """A benchmark run failed its trusted check: the sequential oracle for
    a pipeline run, check_fifo for a micro run."""


class ProbeFailure(RuntimeError):
    """The external energy probe failed or produced unusable output."""


def _usable_capacity(kind: QueueKind, capacity: int) -> int:
    """Elements a ring of ``capacity`` holds with no consumer: Lamport and
    MCRingBuffer keep one slot free, FastForward and BatchQueue do not."""
    if kind in (QueueKind.LAMPORT, QueueKind.MCRINGBUFFER):
        return capacity - 1
    return capacity


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
        if self.mode == "pipeline":
            validate_topology(self.producers, self.aggregators)
        if self.prefill is not None and self.prefill < 0:
            raise InvalidConfig(f"prefill must be >= 0, got {self.prefill}")
        for kind in self.kinds:
            for capacity in self.capacities:
                QueueConfig(capacity, mcr_batch_size=self.mcr_batch).validate(kind)
                usable = _usable_capacity(kind, capacity)
                if self.mode == "micro" and (self.prefill or 0) > usable:
                    raise InvalidConfig(
                        f"prefill {self.prefill} does not fit a {kind.value} "
                        f"ring of {capacity}, which holds {usable}"
                    )


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
        cls, *, elapsed_ms: float, ops: int, joules: Optional[float], **columns: Any
    ) -> "ReportRow":
        """A row whose throughput and energy per message are derived
        from ``ops``, ``elapsed_ms`` and ``joules``."""
        return cls(
            elapsed_ms=elapsed_ms,
            ops=ops,
            throughput_ops_per_ms=ops / elapsed_ms if elapsed_ms > 0 else 0.0,
            joules=joules,
            joules_per_message=joules / ops if joules is not None and ops else None,
            **columns,
        )

    def to_csv(self) -> str:
        values = (getattr(self, name) for name, _ in _COLUMNS)
        return ",".join("" if value is None else str(value) for value in values)

    @classmethod
    def from_csv(cls, line: str) -> "ReportRow":
        parts = line.rstrip("\n").split(",")
        if len(parts) != len(_COLUMNS):
            raise ValueError(f"expected {len(_COLUMNS)} fields, got {len(parts)}")
        return cls(**{name: parse(s) for (name, parse), s in zip(_COLUMNS, parts)})


def _column_parser(annotation: Any):
    """Text to field value; an ``Optional`` column reads "" as None."""
    present = [t for t in get_args(annotation) if t is not type(None)]
    if not present:
        return annotation
    return lambda s: present[0](s) if s else None


_COLUMNS = [
    (f.name, _column_parser(get_type_hints(ReportRow)[f.name]))
    for f in fields(ReportRow)
]
CSV_HEADER = ",".join(name for name, _ in _COLUMNS)


def rows_to_csv(rows: Sequence[ReportRow]) -> str:
    return "".join(line + "\n" for line in [CSV_HEADER] + [r.to_csv() for r in rows])


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
# Two-thread handoff (the micro benchmark and the FIFO stress runs)


def _handoff(
    kind: QueueKind, qconfig: QueueConfig, count: int, prefill: int = 0, pad_len: int = 0
) -> Tuple[float, OpLog]:
    """Push elements ``(seq, bytes(pad_len))`` through one queue with a
    producer and a consumer thread; return ``(elapsed_s, log)``.

    The first ``prefill`` elements go in before the clock starts, the
    next ``count`` while it runs; the clock is run_stages'. The consumer
    always drains until the queue is finished() and records each
    ``seq``, so the log is complete: a lost, duplicated or reordered
    element shows up in check_fifo, never as a producer stuck on a full
    ring. An error on either side aborts the other side's wait and is
    raised here.
    """
    producer, consumer = new_queue(kind, qconfig)
    for seq in range(prefill):
        if not producer.try_enqueue((seq, bytes(pad_len))):
            raise InvalidConfig(
                f"prefill {prefill} does not fit a {kind.value} ring of "
                f"{qconfig.capacity}"
            )
    total = prefill + count
    dequeued = array("q")

    # Both loops try inline and fall back to the spin wrappers only on a
    # miss, so the wait policy costs nothing on the success path. The
    # padding is allocated per element inside the clock: carrying it
    # through the queue is what the element-size sweep measures.
    def produce(abort):
        enq = producer.try_enqueue
        for seq in range(prefill, total):
            item = (seq, bytes(pad_len))
            if not enq(item):
                producer.enqueue_spin(item, abort=abort)
        producer.producer_finish()

    def consume(abort):
        deq = consumer.try_dequeue
        got = dequeued.append
        while True:
            item = deq()
            if item is EMPTY:
                item = consumer.dequeue_spin(abort=abort)
                if item is EMPTY:
                    return
            got(item[0])

    elapsed = run_stages({"handoff-producer": produce, "handoff-consumer": consume})
    return elapsed, OpLog(enqueued=range(total), dequeued=dequeued, complete=True)


def fifo_stress_run(
    kind: QueueKind, capacity: int, count: int, config: Optional[QueueConfig] = None
) -> OpLog:
    """Push ``count`` sequence-numbered elements through a two-thread run.

    Returns a complete OpLog (the producer finishes, the consumer drains
    fully) ready for check_fifo plus a multiset comparison.
    """
    return _handoff(kind, config or QueueConfig(capacity=capacity), count)[1]


def fifo_stress_verify(
    kind: QueueKind,
    capacity: int,
    count: int,
    pin_cpu: Optional[int] = None,
) -> Tuple[float, Optional[str]]:
    """Run a stress round and verify it in place.

    Returns (elapsed_seconds, None) on success or (elapsed, reason).
    Designed for worker pools: verification happens here so only a
    small result crosses the process boundary. ``pin_cpu`` pins the
    calling process to that CPU.
    """
    if pin_cpu is not None:
        try:
            os.sched_setaffinity(0, {pin_cpu})
        except (OSError, AttributeError):
            pass
    elapsed, log = _handoff(kind, QueueConfig(capacity=capacity), count)
    violation = check_fifo(log)
    if violation is not None:
        return elapsed, f"{kind.value}@{capacity}: {violation}"
    if sorted(log.dequeued) != list(range(count)):
        return elapsed, f"{kind.value}@{capacity}: terminal multiset mismatch"
    return elapsed, None


# ---------------------------------------------------------------------------
# Sweeps


def default_prefill(kind: QueueKind, capacity: int) -> int:
    """Ring pre-population giving the producer a head start: half the
    ring at the 128 reference size, 150 elements otherwise, clamped to
    what the kind can hold."""
    target = capacity // 2 if capacity == 128 else 150
    return min(target, _usable_capacity(kind, capacity))


def _with_energy(config: BenchConfig, fn, *args):
    """Run ``fn(*args)`` between the energy probe's start and stop and
    return ``(result, joules)``.

    Without a probe command joules is None. A probe failure raises
    ProbeFailure under strict_energy; otherwise it is logged, the run's
    result is kept and joules is None. If the run raises, the probe is
    still stopped, its reading and any ProbeFailure are dropped, and the
    run's error propagates.
    """
    if not config.energy_cmd:
        return fn(*args), None
    probe = EnergyProbe(config.energy_cmd)
    try:
        probe.start()
    except ProbeFailure as exc:
        _probe_failed(config, exc)
        return fn(*args), None
    try:
        result = fn(*args)
    except BaseException:
        with suppress(ProbeFailure):
            probe.stop()
        raise
    try:
        return result, probe.stop()
    except ProbeFailure as exc:
        _probe_failed(config, exc)
        return result, None


def _probe_failed(config: BenchConfig, exc: ProbeFailure) -> None:
    if config.strict_energy:
        raise exc
    log.warning("energy probe failed, row kept: %s", exc)


def _sweep(config: BenchConfig, cells) -> List[ReportRow]:
    """Validate ``config``, then measure every cell.

    ``cells`` yields ``(cell, measure)``: the row's identifying columns
    and ``measure(rep) -> (elapsed_s, ops, joules)``. Each cell runs
    ``warmup + reps`` times; the kept rows are followed by a mean row
    whose throughput is recomputed from the mean elapsed, so the
    ops/elapsed identity holds.
    """
    config.validate()
    rows: List[ReportRow] = []
    for cell, measure in cells:
        runs = [measure(rep) for rep in range(config.warmup + config.reps)]
        kept = [
            ReportRow.measured(
                rep=str(i), elapsed_ms=elapsed_s * 1000.0, ops=ops, joules=joules, **cell
            )
            for i, (elapsed_s, ops, joules) in enumerate(runs[config.warmup:])
        ]
        joules = [r.joules for r in kept if r.joules is not None]
        rows += kept
        rows.append(
            ReportRow.measured(
                rep="mean",
                elapsed_ms=sum(r.elapsed_ms for r in kept) / len(kept),
                ops=kept[0].ops,
                joules=sum(joules) / len(joules) if joules else None,
                **cell,
            )
        )
    return rows


def _micro_rep(
    config: BenchConfig,
    kind: QueueKind,
    qconfig: QueueConfig,
    prefill: int,
    pad_len: int,
    rep: int,
) -> Tuple[float, int, Optional[float]]:
    (elapsed, oplog), joules = _with_energy(
        config, _handoff, kind, qconfig, config.tuples, prefill, pad_len
    )
    violation = check_fifo(oplog)
    if violation is not None:
        raise OracleMismatch(
            f"micro run failed FIFO check: {kind.value}@{qconfig.capacity} "
            f"rep {rep}: {violation}"
        )
    return elapsed, config.tuples, joules


def run_micro(config: BenchConfig) -> List[ReportRow]:
    """Sweep (kind, capacity, element size) and report ops per ms.

    One op is an enqueue/dequeue pair. Every run is checked with
    check_fifo after the clock and outside the energy bracket; a
    violation raises OracleMismatch. Probe failures downgrade the row to
    joules-absent with a warning unless strict_energy is set.
    """
    def cells():
        for kind in config.kinds:
            for capacity in config.capacities:
                qconfig = QueueConfig(capacity, mcr_batch_size=config.mcr_batch)
                prefill = (
                    config.prefill
                    if config.prefill is not None
                    else default_prefill(kind, capacity)
                )
                for size in config.element_sizes:
                    yield dict(
                        kind=kind.value, capacity=capacity, element_size=size,
                        tuples=config.tuples, producers=1, aggregators=None,
                    ), partial(
                        _micro_rep, config, kind, qconfig, prefill,
                        size - BASE_ELEMENT_BYTES,
                    )

    return _sweep(config, cells())


def _pipeline_rep(
    config: BenchConfig, kind: QueueKind, qconfig: QueueConfig, rep: int
) -> Tuple[float, int, Optional[float]]:
    workloads = split_workload(config.tuples, config.producers, config.seed + rep)
    pconfig = PipelineConfig(
        producers=config.producers,
        aggregators=config.aggregators,
        queue_kind=kind,
        queue_config=qconfig,
        spec=config.window,
        workloads=workloads,
    )
    (totals, metrics), joules = _with_energy(config, run_pipeline, pconfig)
    if config.verify:
        merged = sorted((t for w in workloads for t in w), key=lambda t: t[0])
        expected = oracle_aggregate(merged, config.window)
        if totals != expected:
            raise OracleMismatch(
                f"{kind.value} capacity {qconfig.capacity} rep {rep}: "
                f"pipeline produced {totals!r} but the oracle says {expected!r}"
            )
    return metrics.elapsed_s, metrics.messages, joules


def run_pipeline_bench(config: BenchConfig) -> List[ReportRow]:
    """Benchmark the aggregation pipeline across kinds and capacities.

    Every repetition, warmups included, is checked against the
    sequential oracle outside the energy bracket before it may
    contribute a row; a mismatch aborts with both maps attached.
    """
    def cells():
        for kind in config.kinds:
            for capacity in config.capacities:
                qconfig = QueueConfig(capacity, mcr_batch_size=config.mcr_batch)
                yield dict(
                    kind=kind.value, capacity=capacity, element_size=None,
                    tuples=config.tuples, producers=config.producers,
                    aggregators=config.aggregators,
                ), partial(_pipeline_rep, config, kind, qconfig)

    return _sweep(config, cells())


def run_bench(config: BenchConfig) -> List[ReportRow]:
    if config.mode == "micro":
        return run_micro(config)
    return run_pipeline_bench(config)
