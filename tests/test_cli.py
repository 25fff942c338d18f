"""Command-line interface: flags, formats, exit codes."""

import json
import stat

import pytest

import streamq.bench
from streamq.aggregation import DuplicateContribution, FinalAggregator
from streamq.bench import BenchConfig, rows_from_csv
from streamq.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_ORACLE,
    EXIT_PROBE,
    build_parser,
    config_from_args,
    main,
)
from streamq.pipeline import RunMetrics


def test_micro_csv_to_file(tmp_path):
    out = tmp_path / "report.csv"
    code = main([
        "--mode", "micro", "--kind", "lamport", "--capacity", "32",
        "--tuples", "500", "--reps", "2", "--out", str(out),
    ])
    assert code == EXIT_OK
    rows = rows_from_csv(out.read_text())
    assert len(rows) == 3
    assert {r.kind for r in rows} == {"lamport"}


def test_micro_stdout_default_kinds(capsys):
    code = main(["--mode", "micro", "--capacity", "16", "--tuples", "200", "--reps", "1"])
    assert code == EXIT_OK
    rows = rows_from_csv(capsys.readouterr().out)
    assert {r.kind for r in rows} == {
        "lamport", "fastforward", "batchqueue", "mcringbuffer"
    }


def test_pipeline_json(tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "--mode", "pipeline", "--kind", "mcr", "--capacity", "64",
        "--tuples", "1000", "--reps", "1", "--producers", "1",
        "--aggregators", "3", "--format", "json", "--out", str(out),
    ])
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert data[0]["kind"] == "mcringbuffer"
    assert data[0]["aggregators"] == 3


def test_kind_aliases_accepted(tmp_path):
    out = tmp_path / "r.csv"
    code = main([
        "--mode", "micro", "--kind", "bq", "--kind", "ff",
        "--capacity", "16", "--tuples", "100", "--reps", "1",
        "--out", str(out),
    ])
    assert code == EXIT_OK
    kinds = {r.kind for r in rows_from_csv(out.read_text())}
    assert kinds == {"batchqueue", "fastforward"}


class TestExitCodes:
    def test_unknown_kind_is_config_error(self, capsys):
        code = main(["--mode", "micro", "--kind", "nope", "--tuples", "10"])
        assert code == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_bad_window_is_config_error(self, capsys):
        code = main([
            "--mode", "pipeline", "--window-size", "2", "--window-advance", "5",
            "--tuples", "10",
        ])
        assert code == EXIT_CONFIG

    def test_odd_batchqueue_capacity_is_config_error(self, capsys):
        code = main([
            "--mode", "micro", "--kind", "bq", "--capacity", "33",
            "--tuples", "10", "--reps", "1",
        ])
        assert code == EXIT_CONFIG

    def test_mcr_batch_of_the_whole_ring_is_config_error(self, capsys):
        # Such a ring would stall mid-run; it is rejected before any run.
        code = main([
            "--mode", "micro", "--kind", "mcr", "--capacity", "8",
            "--mcr-batch", "8", "--tuples", "100", "--reps", "1", "--prefill", "0",
        ])
        assert code == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_config_error_exits_before_any_run_or_probe_call(self, tmp_path, capsys):
        # Capacity 64 is valid for a batch of 4 and capacity 6 is not; the
        # error must surface before the capacity-64 runs, probe included.
        calls = tmp_path / "calls.log"
        probe = tmp_path / "probe.sh"
        probe.write_text(f'#!/bin/sh\necho "$1" >> "{calls}"\necho 1.0\n')
        probe.chmod(probe.stat().st_mode | stat.S_IEXEC)
        code = main([
            "--mode", "micro", "--kind", "mcr", "--mcr-batch", "4",
            "--capacity", "64", "--capacity", "6", "--energy-cmd", str(probe),
        ])
        assert code == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err
        assert not calls.exists(), calls.read_text()

    @pytest.mark.parametrize("prefill", ["100", "-1"])
    def test_bad_prefill_exits_before_any_run_or_probe_call(self, tmp_path, capsys, prefill):
        # A Lamport ring of 16 holds 15 elements, and no ring holds -1.
        calls = tmp_path / "calls.log"
        probe = tmp_path / "probe.sh"
        probe.write_text(f'#!/bin/sh\necho "$1" >> "{calls}"\necho 1.0\n')
        probe.chmod(probe.stat().st_mode | stat.S_IEXEC)
        code = main([
            "--mode", "micro", "--kind", "lamport", "--capacity", "16",
            "--prefill", prefill, "--tuples", "50", "--reps", "1",
            "--energy-cmd", str(probe),
        ])
        assert code == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err
        assert not calls.exists(), calls.read_text()

    @pytest.mark.parametrize("producers,aggregators", [(0, 10), (0, 0), (-1, 10), (1, 0)])
    def test_bad_topology_exits_before_any_run_or_probe_call(
        self, tmp_path, capsys, producers, aggregators
    ):
        # Every producer must own a block of at least one aggregator.
        calls = tmp_path / "calls.log"
        probe = tmp_path / "probe.sh"
        probe.write_text(f'#!/bin/sh\necho "$1" >> "{calls}"\necho 1.0\n')
        probe.chmod(probe.stat().st_mode | stat.S_IEXEC)
        code = main([
            "--mode", "pipeline", "--kind", "lamport", "--capacity", "16",
            "--producers", str(producers), "--aggregators", str(aggregators),
            "--tuples", "50", "--reps", "1", "--energy-cmd", str(probe),
        ])
        assert code == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err
        assert not calls.exists(), calls.read_text()

    def test_wrong_pipeline_output_is_oracle_mismatch(self, monkeypatch, capsys):
        def broken_pipeline(config):
            return {999: 1}, RunMetrics(elapsed_s=0.001, tuples=50, partials=0)

        monkeypatch.setattr(streamq.bench, "run_pipeline", broken_pipeline)
        code = main([
            "--mode", "pipeline", "--kind", "lamport", "--capacity", "64",
            "--tuples", "50", "--reps", "1", "--aggregators", "2",
        ])
        assert code == EXIT_ORACLE
        assert "oracle mismatch" in capsys.readouterr().err

    def test_run_time_error_propagates(self, monkeypatch):
        # A ValueError raised by a run is not a configuration error.
        def duplicate(self, partial):
            raise DuplicateContribution(f"window {partial.start} injected")

        monkeypatch.setattr(FinalAggregator, "accept", duplicate)
        with pytest.raises(DuplicateContribution):
            main([
                "--mode", "pipeline", "--kind", "lamport", "--capacity", "64",
                "--tuples", "50", "--reps", "1", "--aggregators", "2",
            ])

    def test_strict_energy_probe_failure(self, tmp_path, capsys):
        probe = tmp_path / "probe.sh"
        probe.write_text("#!/bin/sh\nexit 9\n")
        probe.chmod(probe.stat().st_mode | stat.S_IEXEC)
        code = main([
            "--mode", "micro", "--kind", "lamport", "--capacity", "16",
            "--tuples", "50", "--reps", "1",
            "--energy-cmd", str(probe), "--strict-energy",
        ])
        assert code == EXIT_PROBE

    def test_lenient_energy_probe_failure_still_reports(self, tmp_path, capsys):
        probe = tmp_path / "probe.sh"
        probe.write_text("#!/bin/sh\nexit 9\n")
        probe.chmod(probe.stat().st_mode | stat.S_IEXEC)
        code = main([
            "--mode", "micro", "--kind", "lamport", "--capacity", "16",
            "--tuples", "50", "--reps", "1", "--energy-cmd", str(probe),
        ])
        assert code == EXIT_OK
        rows = rows_from_csv(capsys.readouterr().out)
        assert all(r.joules is None for r in rows)


@pytest.mark.parametrize("mode", ["micro", "pipeline"])
def test_flag_defaults_are_the_config_defaults(mode):
    args = build_parser().parse_args(["--mode", mode])
    assert config_from_args(args) == BenchConfig(mode=mode)


def test_verify_off_still_runs(tmp_path):
    out = tmp_path / "r.csv"
    code = main([
        "--mode", "pipeline", "--kind", "lamport", "--capacity", "64",
        "--tuples", "500", "--reps", "1", "--aggregators", "2",
        "--verify", "off", "--out", str(out),
    ])
    assert code == EXIT_OK
