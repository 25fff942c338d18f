"""End-to-end pipeline runs checked against the sequential oracle."""

import threading
import tracemalloc

import pytest

from streamq import (
    FinalAggregator,
    InvalidConfig,
    PipelineConfig,
    QueueConfig,
    QueueKind,
    WindowAggregator,
    WindowSpec,
    oracle_aggregate,
    run_pipeline,
    window_starts,
)
from streamq.bench import split_workload
from streamq.pipeline import partition_aggregators
from streamq.queues import ProducerEndpoint

SPEC = WindowSpec(4, 2)


def config(producers, aggregators, kind, workloads, capacity=64, spec=SPEC):
    return PipelineConfig(
        producers=producers,
        aggregators=aggregators,
        queue_kind=kind,
        queue_config=QueueConfig(capacity=capacity),
        spec=spec,
        workloads=workloads,
    )


def merged(workloads):
    return sorted((t for w in workloads for t in w), key=lambda t: t[0])


def test_single_producer_single_aggregator_trace():
    cfg = config(1, 1, QueueKind.LAMPORT, [[(0, 5), (1, 3), (2, 7), (4, 1)]])
    totals, metrics = run_pipeline(cfg)
    assert totals == {0: 15, 2: 8, 4: 1}
    assert metrics.tuples == 4


def test_empty_workload():
    cfg = config(1, 2, QueueKind.BATCHQUEUE, [[]])
    totals, metrics = run_pipeline(cfg)
    assert totals == {}
    assert metrics.messages == 0


@pytest.mark.parametrize("kind", list(QueueKind))
def test_three_by_six_matches_oracle(kind):
    workloads = split_workload(10_000, 3, seed=13)
    cfg = config(3, 6, kind, workloads)
    totals, _ = run_pipeline(cfg)
    assert totals == oracle_aggregate(merged(workloads), SPEC)


def test_one_by_ten_matches_oracle():
    workloads = split_workload(5_000, 1, seed=5)
    cfg = config(1, 10, QueueKind.MCRINGBUFFER, workloads, capacity=128)
    totals, _ = run_pipeline(cfg)
    assert totals == oracle_aggregate(merged(workloads), SPEC)


def test_interleaving_independent_totals():
    workloads = split_workload(3_000, 2, seed=3)
    outputs = [
        run_pipeline(config(2, 4, QueueKind.FASTFORWARD, workloads))[0]
        for _ in range(5)
    ]
    assert all(out == outputs[0] for out in outputs)


def test_conservation_on_pipeline_output():
    workloads = split_workload(4_000, 3, seed=21)
    totals, _ = run_pipeline(config(3, 5, QueueKind.LAMPORT, workloads))
    stream = merged(workloads)
    assert sum(totals.values()) == sum(
        v * len(window_starts(t, SPEC)) for t, v in stream
    )


def test_window_never_reported_twice():
    workloads = split_workload(2_000, 2, seed=8)
    totals, _ = run_pipeline(config(2, 4, QueueKind.BATCHQUEUE, workloads))
    # run_pipeline builds the map from exactly-once releases; a repeat
    # would have tripped the final aggregator's reported-set guard.
    assert totals == oracle_aggregate(merged(workloads), SPEC)


def test_memory_does_not_grow_with_stream_length():
    def held_mib(tuples):
        """The run's tracemalloc peak less what it leaves behind, the
        result map: memory the stages held while they ran."""
        workloads = split_workload(tuples, 1, seed=4)
        cfg = config(1, 10, QueueKind.LAMPORT, workloads, capacity=128)
        tracemalloc.start()
        try:
            totals, _ = run_pipeline(cfg)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert totals == oracle_aggregate(merged(workloads), SPEC)
        return (peak - retained) / 2**20

    # The lower of two runs, as the schedule moves the peak a little.
    short = min(held_mib(5_000) for _ in range(2))
    long = min(held_mib(20_000) for _ in range(2))
    # Four times the stream: an entry per released window would add 0.4 MiB.
    assert long - short < 0.1, (short, long)


# The methods a span tracer wraps by patching ``owner.__dict__[name]``,
# with the number of calls one run must make of each.
TRACED = {
    "update": (WindowAggregator, lambda n, m, aggs: n),
    "finalize": (WindowAggregator, lambda n, m, aggs: aggs),
    "accept": (FinalAggregator, lambda n, m, aggs: m.partials),
    "mark_inactive": (FinalAggregator, lambda n, m, aggs: aggs),
    # one send per tuple and per partial, and one end marker per aggregator
    "enqueue_spin": (ProducerEndpoint, lambda n, m, aggs: n + m.partials + aggs),
}


@pytest.mark.parametrize("kind", list(QueueKind))
@pytest.mark.parametrize(
    "producers,aggregators,spec", [(3, 8, WindowSpec(64, 1)), (1, 10, WindowSpec(4, 2))]
)
def test_call_counts_a_tracer_relies_on(monkeypatch, kind, producers, aggregators, spec):
    counts = dict.fromkeys(TRACED, 0)
    lock = threading.Lock()

    def counting(name, original):
        def wrapper(*args, **kwargs):
            with lock:
                counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name, (owner, _want) in TRACED.items():
        assert name in owner.__dict__, f"{owner.__name__}.{name} is inherited"
        monkeypatch.setattr(owner, name, counting(name, owner.__dict__[name]))
    workloads = split_workload(3_000, producers, seed=17)
    cfg = config(producers, aggregators, kind, workloads, capacity=128, spec=spec)
    totals, metrics = run_pipeline(cfg)
    assert totals == oracle_aggregate(merged(workloads), spec)
    n = sum(len(w) for w in workloads)
    assert counts == {
        name: want(n, metrics, aggregators) for name, (_owner, want) in TRACED.items()
    }


class TestConfigValidation:
    def test_unsorted_workload_rejected(self):
        cfg = config(1, 1, QueueKind.LAMPORT, [[(3, 1), (2, 1)]])
        with pytest.raises(InvalidConfig):
            run_pipeline(cfg)

    def test_negative_timestamp_rejected(self):
        cfg = config(1, 1, QueueKind.LAMPORT, [[(-1, 1)]])
        with pytest.raises(InvalidConfig):
            run_pipeline(cfg)

    def test_more_producers_than_aggregators_rejected(self):
        cfg = config(3, 2, QueueKind.LAMPORT, [[], [], []])
        with pytest.raises(InvalidConfig):
            run_pipeline(cfg)

    def test_workload_count_mismatch_rejected(self):
        cfg = config(2, 4, QueueKind.LAMPORT, [[]])
        with pytest.raises(InvalidConfig):
            run_pipeline(cfg)

    def test_queue_config_checked(self):
        cfg = PipelineConfig(
            1, 1, QueueKind.BATCHQUEUE, QueueConfig(capacity=7), SPEC, [[]]
        )
        with pytest.raises(InvalidConfig):
            run_pipeline(cfg)


class TestPartition:
    def test_even_split(self):
        assert partition_aggregators(2, 8) == [range(0, 4), range(4, 8)]

    def test_uneven_split_is_contiguous(self):
        blocks = partition_aggregators(3, 8)
        assert blocks == [range(0, 3), range(3, 6), range(6, 8)]
        assert sum(len(b) for b in blocks) == 8

    def test_one_producer_takes_all(self):
        assert partition_aggregators(1, 10) == [range(0, 10)]


class InjectedFault(Exception):
    """The error a fault-injection test makes one stage raise."""


# Each stage fails at its 100th call of the patched method; the filter
# picks one thread, so the call counter is never shared.
FAULTS = {
    "producer": (
        ProducerEndpoint, "enqueue_spin",
        lambda _self: threading.current_thread().name == "producer-0",
    ),
    "aggregator": (WindowAggregator, "update", lambda self: self.source == 1),
    "final": (FinalAggregator, "accept", lambda _self: True),
}


@pytest.mark.parametrize("stage", sorted(FAULTS))
@pytest.mark.parametrize(
    "kind,capacity",
    [
        (kind, capacity)
        for kind in QueueKind
        for capacity in (2, 3, 4)
        if not (kind is QueueKind.BATCHQUEUE and capacity % 2)
    ],
)
def test_stage_fault_is_raised_not_hung(monkeypatch, stage, kind, capacity):
    owner, name, chosen = FAULTS[stage]
    original = getattr(owner, name)
    calls = [0]

    def faulty(self, *args, **kwargs):
        if chosen(self):
            calls[0] += 1
            if calls[0] == 100:
                raise InjectedFault(f"{stage} fault")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, faulty)
    cfg = config(1, 3, kind, split_workload(3_000, 1, seed=4), capacity=capacity)
    outcome = []

    def run():
        try:
            run_pipeline(cfg)
        except BaseException as exc:
            outcome.append(exc)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=10.0)
    assert not runner.is_alive(), f"{stage} fault left run_pipeline waiting"
    assert calls[0] >= 100, "the fault was never injected"
    assert len(outcome) == 1 and type(outcome[0]) is InjectedFault, outcome
