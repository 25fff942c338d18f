"""Smoke test of the benchmark itself, at tiny input sizes.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py

It checks that BENCHMARK.json matches the catalogue and the benchmark
contract, that every run emits every metric with its unit, and that
injected faults (a wrong expected answer, a dropped element, a stalled
pass) are counted as failed passes and make the run exit nonzero.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from catalogue import END_TO_END, PER_LAYER, WORKLOADS, benchmark_spec  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(*args: str, cwd: Path = ROOT) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seconds", "1",
         "--scale", "0.02", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stdout + proc.stderr


def test_benchmark_json_matches_catalogue_and_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec == benchmark_spec()
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    code, result, out = run("--workload", workload, "--seed", "5", "--trace", trace)
    assert code == 0, out
    assert result["correct"] is True and result["failed"] == 0, out
    assert result["attempted"] >= 1
    catalogue = PER_LAYER if trace == "1" else END_TO_END
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m.name: m.unit for m in catalogue
    }
    values = {n: m["value"] for n, m in result["metrics"].items()}
    if trace == "0":
        assert all(v > 0 for v in values.values()), values
    else:
        assert values["trace.overhead"] > 1
        assert all(values[f"queues.pair_ns.{k}"] > 0 for k in ("lamport", "batchqueue"))
        # Every workload hands over through the program's own spin wrapper.
        assert values["trace.queues.enqueue_spin.calls.lamport"] > 0


@pytest.mark.parametrize("workload,fault", [
    ("pipe-1x10-narrow", "wrong-expected"),
    ("pipe-3x8-wide", "drop-element"),
    ("spsc-tight", "wrong-expected"),
    ("spsc-tight", "drop-element"),
])
def test_faults_are_counted_as_failed_passes(workload, fault):
    code, result, out = run("--workload", workload, "--seed", "5", "--trace", "0",
                            "--fault", fault)
    assert code != 0
    assert result is not None, out
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0
    assert "FAILED" in out


def test_stalled_pass_is_abandoned_and_counted():
    code, result, out = run("--workload", "spsc-tight", "--seed", "5", "--trace", "0",
                            "--fault", "stall")
    assert code != 0
    assert result is not None and result["failed"] >= 1, out
    assert "no reply within" in out


def test_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = run("--workload", "spsc-tight", "--seed", "1", "--trace", "0",
                          cwd=tmp_path)
    assert code != 0
    assert result is None


def test_git_rev_falls_back_to_packed_refs(tmp_path, monkeypatch):
    import run as runner

    git = tmp_path / ".git"
    git.mkdir()
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    sha = "0123456789abcdef0123456789abcdef01234567"
    (git / "packed-refs").write_text(
        f"# pack-refs with: peeled fully-peeled sorted\n{sha} refs/heads/main\n")
    monkeypatch.setattr(runner, "ROOT", tmp_path)
    assert runner._git_rev() == sha
