"""Benchmark harness: workloads, reports, probe, runners."""

import json
import stat
import threading
from pathlib import Path

import pytest

import streamq.bench
from streamq import QueueConfig, QueueKind, WindowSpec, new_queue, oracle_aggregate
from streamq.bench import (
    BASE_ELEMENT_BYTES,
    BenchConfig,
    CSV_HEADER,
    EnergyProbe,
    InvalidConfig,
    OracleMismatch,
    ProbeFailure,
    ReportRow,
    default_prefill,
    generate_workload,
    parse_kind,
    rows_from_csv,
    rows_from_json,
    rows_to_csv,
    rows_to_json,
    run_micro,
    run_pipeline_bench,
    split_workload,
)
from streamq.oracle import conservation_delta


class TestWorkload:
    def test_empty(self):
        assert generate_workload(0, seed=1) == []

    def test_deterministic(self):
        assert generate_workload(5_000, seed=42) == generate_workload(5_000, seed=42)

    def test_sorted_with_repeats(self):
        w = generate_workload(10_000, seed=42)
        assert all(a[0] <= b[0] for a, b in zip(w, w[1:]))
        assert any(a[0] == b[0] for a, b in zip(w, w[1:]))

    def test_large_workload_conserves(self):
        w = generate_workload(100_000, seed=42)
        spec = WindowSpec(4, 2)
        totals = oracle_aggregate(w, spec)
        assert conservation_delta(w, spec, totals) == 0

    def test_split_covers_total(self):
        parts = split_workload(10_001, 3, seed=9)
        assert sum(map(len, parts)) == 10_001
        for part in parts:
            assert all(a[0] <= b[0] for a, b in zip(part, part[1:]))


class TestKindParsing:
    @pytest.mark.parametrize(
        "name,kind",
        [
            ("lamport", QueueKind.LAMPORT),
            ("ff", QueueKind.FASTFORWARD),
            ("FastForward", QueueKind.FASTFORWARD),
            ("bq", QueueKind.BATCHQUEUE),
            ("mcr", QueueKind.MCRINGBUFFER),
            ("mcringbuffer", QueueKind.MCRINGBUFFER),
        ],
    )
    def test_aliases(self, name, kind):
        assert parse_kind(name) is kind

    def test_unknown_rejected(self):
        with pytest.raises(InvalidConfig):
            parse_kind("treiber")


class TestReportRows:
    def row(self, **kw):
        base = dict(
            kind="lamport", capacity=128, element_size=12, tuples=1000,
            producers=1, aggregators=None, rep="0", elapsed_ms=1.25,
            ops=1000, throughput_ops_per_ms=800.0,
        )
        base.update(kw)
        return ReportRow(**base)

    def test_csv_round_trip(self):
        rows = [
            self.row(),
            self.row(rep="mean", joules=1.5, joules_per_message=0.0015),
            self.row(kind="batchqueue", element_size=None, aggregators=10),
        ]
        assert rows_from_csv(rows_to_csv(rows)) == rows

    def test_header_exact(self):
        assert rows_to_csv([]).strip() == CSV_HEADER
        assert CSV_HEADER.split(",") == [
            "kind", "capacity", "element_size", "tuples", "producers",
            "aggregators", "rep", "elapsed_ms", "ops",
            "throughput_ops_per_ms", "joules", "joules_per_message",
        ]

    def test_absent_optionals_serialize_empty(self):
        line = self.row(element_size=None).to_csv()
        assert line.split(",")[2] == ""
        assert line.split(",")[10] == ""

    def test_json_contains_fields(self):
        data = json.loads(rows_to_json([self.row(joules=2.0)]))
        assert data[0]["kind"] == "lamport"
        assert data[0]["joules"] == 2.0

    def test_json_round_trip(self):
        rows = [self.row(), self.row(rep="mean", joules=0.25, joules_per_message=2.5e-4)]
        assert rows_from_json(rows_to_json(rows)) == rows

    def test_header_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rows_from_csv("bogus,header\n")


class TestPrefillRule:
    def test_reference_capacity_half_filled(self):
        assert default_prefill(QueueKind.LAMPORT, 128) == 64

    def test_larger_rings_take_150(self):
        assert default_prefill(QueueKind.LAMPORT, 2048) == 150
        assert default_prefill(QueueKind.MCRINGBUFFER, 16384) == 150

    def test_clamped_to_usable(self):
        assert default_prefill(QueueKind.LAMPORT, 64) == 63
        assert default_prefill(QueueKind.BATCHQUEUE, 64) == 64

    def test_fastforward_uses_the_whole_ring(self):
        assert default_prefill(QueueKind.FASTFORWARD, 64) == 64
        assert default_prefill(QueueKind.FASTFORWARD, 128) == 64
        assert default_prefill(QueueKind.FASTFORWARD, 2048) == 150

    @pytest.mark.parametrize("kind", list(QueueKind))
    def test_clamp_fills_the_ring_exactly(self, kind):
        for capacity in (2, 4, 64, 128, 150, 152):
            producer, _ = new_queue(kind, QueueConfig(capacity))
            n = default_prefill(kind, capacity)
            assert all(producer.try_enqueue(i) for i in range(n)), capacity
            if n < (64 if capacity == 128 else 150):
                assert not producer.try_enqueue(n), capacity


class TestRunMicro:
    def test_rows_and_mean(self):
        cfg = BenchConfig(
            mode="micro", kinds=[QueueKind.LAMPORT], capacities=[128],
            tuples=5_000, reps=3,
        )
        rows = run_micro(cfg)
        assert len(rows) == 4
        assert [r.rep for r in rows] == ["0", "1", "2", "mean"]
        for row in rows:
            assert row.throughput_ops_per_ms > 0
            assert row.ops == 5_000
            assert row.throughput_ops_per_ms == pytest.approx(
                row.ops / row.elapsed_ms
            )

    def test_sweep_cardinality(self):
        cfg = BenchConfig(
            mode="micro", capacities=[16, 32], tuples=500, reps=2,
        )
        rows = run_micro(cfg)
        # 4 kinds x 2 capacities x (2 reps + 1 mean)
        assert len(rows) == 4 * 2 * 3

    def test_element_size_sweep(self):
        cfg = BenchConfig(
            mode="micro", kinds=[QueueKind.FASTFORWARD], capacities=[128],
            element_sizes=[12, 64, 128, 192], tuples=2_000, reps=1,
        )
        rows = run_micro(cfg)
        assert [r.element_size for r in rows if r.rep == "mean"] == [12, 64, 128, 192]

    def test_warmup_discarded(self):
        cfg = BenchConfig(
            mode="micro", kinds=[QueueKind.LAMPORT], capacities=[64],
            tuples=500, reps=2, warmup=1,
        )
        rows = run_micro(cfg)
        assert [r.rep for r in rows] == ["0", "1", "mean"]

    def test_element_size_below_base_rejected(self):
        cfg = BenchConfig(mode="micro", element_sizes=[8], tuples=10)
        with pytest.raises(InvalidConfig):
            run_micro(cfg)

    @pytest.mark.parametrize(
        "kind,usable",
        [
            (QueueKind.LAMPORT, 7),
            (QueueKind.FASTFORWARD, 8),
            (QueueKind.BATCHQUEUE, 8),
            (QueueKind.MCRINGBUFFER, 7),
        ],
    )
    def test_prefill_limited_to_usable_capacity(self, kind, usable):
        def config(prefill):
            return BenchConfig(
                mode="micro", kinds=[kind], capacities=[8], prefill=prefill,
                tuples=100, reps=1,
            )

        config(usable).validate()
        assert len(run_micro(config(usable))) == 2  # the full ring really fits
        with pytest.raises(InvalidConfig):
            config(usable + 1).validate()

    @pytest.mark.parametrize("kind", list(QueueKind))
    def test_lost_element_raises_instead_of_hanging(self, monkeypatch, kind):
        class DroppingProducer:
            """A producer that reports sequence 1000 as enqueued but loses it."""

            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def try_enqueue(self, item):
                return item[0] == 1_000 or self._inner.try_enqueue(item)

        real_new_queue = streamq.bench.new_queue

        def dropping_new_queue(kind, config):
            producer, consumer = real_new_queue(kind, config)
            return DroppingProducer(producer), consumer

        monkeypatch.setattr(streamq.bench, "new_queue", dropping_new_queue)
        cfg = BenchConfig(
            mode="micro", kinds=[kind], capacities=[16], tuples=5_000, reps=1,
        )
        outcome = []

        def run():
            try:
                run_micro(cfg)
            except Exception as exc:
                outcome.append(exc)

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=10.0)
        assert not runner.is_alive(), "a lost element left run_micro waiting"
        assert len(outcome) == 1 and type(outcome[0]) is OracleMismatch, outcome
        assert "expected sequence 1000, got 1001" in str(outcome[0])


class TestRunPipelineBench:
    def test_verified_rows(self):
        cfg = BenchConfig(
            mode="pipeline", kinds=[QueueKind.BATCHQUEUE], capacities=[64],
            tuples=2_000, reps=2, producers=1, aggregators=4,
        )
        rows = run_pipeline_bench(cfg)
        assert len(rows) == 3
        for row in rows:
            assert row.throughput_ops_per_ms > 0
            assert row.aggregators == 4

    def test_three_producer_topology(self):
        cfg = BenchConfig(
            mode="pipeline", kinds=[QueueKind.LAMPORT], capacities=[64],
            tuples=1_500, reps=1, producers=3, aggregators=8,
        )
        rows = run_pipeline_bench(cfg)
        assert rows[0].producers == 3
        assert rows[0].ops > 1_500  # tuples plus forwarded partials


def _write_probe(tmp_path: Path, body: str) -> str:
    script = tmp_path / "probe.sh"
    script.write_text(f"#!/bin/sh\n{body}\n")
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    return str(script)


class TestEnergyProbe:
    def test_no_probe_leaves_joules_absent(self):
        cfg = BenchConfig(
            mode="micro", kinds=[QueueKind.LAMPORT], capacities=[64],
            tuples=200, reps=1,
        )
        rows = run_micro(cfg)
        assert all(r.joules is None for r in rows)

    def test_stub_probe_records_joules(self, tmp_path):
        probe = _write_probe(tmp_path, 'if [ "$1" = stop ]; then echo 1.5; fi')
        cfg = BenchConfig(
            mode="micro", kinds=[QueueKind.LAMPORT], capacities=[64],
            tuples=200, reps=2, energy_cmd=probe,
        )
        rows = run_micro(cfg)
        assert [r.joules for r in rows] == [1.5, 1.5, 1.5]
        per_msg = rows[0].joules_per_message
        assert per_msg == pytest.approx(1.5 / 200)

    def test_failing_probe_keeps_row(self, tmp_path):
        probe = _write_probe(tmp_path, "exit 3")
        cfg = BenchConfig(
            mode="micro", kinds=[QueueKind.LAMPORT], capacities=[64],
            tuples=200, reps=1, energy_cmd=probe,
        )
        rows = run_micro(cfg)
        assert len(rows) == 2
        assert all(r.joules is None for r in rows)

    def test_strict_energy_raises(self, tmp_path):
        probe = _write_probe(tmp_path, "exit 3")
        cfg = BenchConfig(
            mode="micro", kinds=[QueueKind.LAMPORT], capacities=[64],
            tuples=200, reps=1, energy_cmd=probe, strict_energy=True,
        )
        with pytest.raises(ProbeFailure):
            run_micro(cfg)

    def test_probe_stopped_when_the_run_raises(self, tmp_path, monkeypatch):
        # The run's error propagates, and the probe is not left running.
        probe_log = tmp_path / "probe.log"
        probe = _write_probe(tmp_path, f'echo "$1" >> {probe_log}; echo 1.5')

        def failing_run(pconfig):
            raise RuntimeError("run failed")

        monkeypatch.setattr(streamq.bench, "run_pipeline", failing_run)
        cfg = BenchConfig(
            mode="pipeline", kinds=[QueueKind.LAMPORT], capacities=[64],
            tuples=200, reps=1, energy_cmd=probe,
        )
        with pytest.raises(RuntimeError, match="run failed"):
            run_pipeline_bench(cfg)
        assert probe_log.read_text().split() == ["start", "stop"]

    def test_unparsable_output_is_failure(self, tmp_path):
        probe = _write_probe(tmp_path, "echo watts-unknown")
        with pytest.raises(ProbeFailure):
            EnergyProbe(probe).stop()

    def test_probe_parses_plain_decimal(self, tmp_path):
        probe = _write_probe(tmp_path, "echo 'joules: 42.75'")
        assert EnergyProbe(probe).stop() == 42.75


def test_base_element_size_constant():
    assert BASE_ELEMENT_BYTES == 12
