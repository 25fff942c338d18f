"""streamq benchmark runner.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` times untraced passes of every queue kind for about
``--seconds`` seconds and reports the end-to-end metrics; ``--trace 1``
runs the single-thread replays and one handoff, untraced and traced
pass per kind, and reports the per-layer metrics. The last line of the
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it describe the run, its
inputs and its environment. The exit code is 0 only when every pass
was correct; a checkout without ``src/streamq`` exits with 2 and no
result. Workloads and metrics are defined in ``catalogue.py``.

Passes run in a child process (``worker.py``) that is killed when a
pass overruns its time limit; the pass counts as failed and the run
goes on with a fresh child.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from catalogue import END_TO_END, FAULTS, KINDS, PER_LAYER, WORKLOADS, percentile  # noqa: E402

ROOT = HERE.parent
#: Every run ends within this many seconds, whatever its passes do.
RUN_BUDGET_S = 150.0
STARTUP_TIMEOUT_S = 60.0
#: Passes under tracemalloc per kind, before the timed passes.
MEMORY_PASSES_PER_KIND = 2


class WorkerLost(Exception):
    """The worker overran its time limit or exited; it has been killed."""


class Worker:
    """A child process holding one workload's inputs; see worker.py."""

    def __init__(self, args, deadline: float):
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--scale", str(args.scale)]
        if args.fault:
            cmd += ["--fault", args.fault]
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join(
                       [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        self._buf = b""
        self.deadline = deadline
        hello = self._read(min(STARTUP_TIMEOUT_S, deadline - time.monotonic()))
        self.info = hello["info"]

    def _read(self, timeout: float) -> dict:
        end = time.monotonic() + max(0.0, timeout)
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = end - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                self.close()
                raise WorkerLost(f"no reply within {timeout:.0f} s")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                self.close()
                raise WorkerLost(f"worker exited with code {self.proc.returncode}")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def call(self, request: dict, timeout: float) -> dict:
        """Send one request and return its reply, within ``timeout``."""
        self.proc.stdin.write((json.dumps(request) + "\n").encode())
        self.proc.stdin.flush()
        return self._read(min(timeout, self.deadline - time.monotonic()))

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for f in (self.proc.stdin, self.proc.stdout):
            try:
                f.close()
            except OSError:
                pass


# ---------------------------------------------------------------------------
# Environment


def _cpu_line() -> list:
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def _git_rev() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return f"unknown ({ref} not found)"


def environment(cpu0: list, cpu1: list, worker_info: dict) -> dict:
    env = {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "switch_interval_s": worker_info.get("switch_interval_s"),
        "gc_enabled": worker_info.get("python_gc_enabled"),
        "git_rev": _git_rev(),
    }
    if cpu0 and cpu1:
        delta = [b - a for a, b in zip(cpu0, cpu1)]
        total = sum(delta[:8]) or 1
        # /proc/stat cpu fields: user nice system idle iowait irq softirq steal
        env["steal_jiffies"] = delta[7]
        env["steal_frac"] = delta[7] / total
        env["host_busy_frac"] = 1 - (delta[3] + delta[4]) / total
    return env


# ---------------------------------------------------------------------------
# Runs


class Run:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.pass_timeout = max(10.0, 1.5 * args.seconds)
        self.attempted = 0
        self.failures: list = []
        self.worker = None
        self.info: dict = {}

    def _worker(self) -> Worker:
        if self.worker is None:
            self.worker = Worker(self.args, self.deadline)
            self.info = self.worker.info
        return self.worker

    def call(self, request: dict, counted: bool = True):
        """One pass (``counted``) or query: its result, or None when it failed."""
        self.attempted += counted
        label = " ".join(str(v) for v in request.values())
        try:
            reply = self._worker().call(request, self.pass_timeout)
        except WorkerLost as exc:
            self.worker = None
            self.failures.append(f"{label}: {exc}")
            return None
        if not reply["ok"]:
            self.failures.append(f"{label}: {reply['error']}")
            return None
        return reply["result"]

    def close(self) -> None:
        if self.worker is not None:
            self.worker.close()
            self.worker = None

    def time_left(self) -> bool:
        return time.monotonic() < self.deadline - self.pass_timeout


def end_to_end(run: Run) -> tuple:
    seconds = run.args.seconds
    passes = {k: [] for k in KINDS}
    rounds = 0
    t0 = time.monotonic()

    def one_pass(kind: str, op: str = "pass", keep: list | None = None) -> bool:
        """Run one pass and ``keep`` its result; False once a failed pass
        has outlasted the run."""
        result = run.call({"op": op, "kind": kind})
        if result is not None and keep is not None:
            keep.append(result)
        return result is not None or time.monotonic() - t0 <= seconds

    # The first pass warms the worker up; it is checked but not timed.
    going = one_pass(KINDS[run.args.seed % 4])
    memory = []
    for kind in KINDS * MEMORY_PASSES_PER_KIND:
        going = going and run.time_left() and one_pass(kind, "memory", memory)
    t_rounds = time.monotonic()
    while going and run.time_left():
        order = KINDS[rounds % 4:] + KINDS[:rounds % 4]
        going = all(one_pass(kind, keep=passes[kind]) for kind in order)
        rounds += 1
        now = time.monotonic()
        if now - t0 + 0.5 * (now - t_rounds) / rounds > seconds:
            break
    measured_s = time.monotonic() - t0
    memory = [m["peak_bytes"] / 2**20 for m in memory]

    metrics = {}
    for kind in KINDS:
        rates = [p["items"] / p["elapsed_s"] for p in passes[kind]]
        metrics[f"items_per_s.{kind}"] = statistics.median(rates) if rates else 0.0
    setups = [p["setup_s"] for ps in passes.values() for p in ps]
    metrics["setup_s"] = statistics.median(setups) if setups else 0.0
    metrics["peak_mem_mib"] = statistics.median(memory) if memory else 0.0
    partials = [p["partials"] / p["items"] for ps in passes.values() for p in ps if "partials" in p]
    notes = {
        "partials_per_tuple": partials[0] if partials else None,
        "rounds": rounds,
        "measured_s": round(measured_s, 3),
        "wall_rates": {k: [round(p["items"] / p["elapsed_s"]) for p in v]
                       for k, v in passes.items()},
        # A diagnostic: rates per second of process CPU time, which leaves
        # out the time the hypervisor stole.
        "cpu_rates": {k: [round(p["items"] / p["cpu_s"]) for p in v if "cpu_s" in p]
                      for k, v in passes.items()},
        "setup_samples": len(setups),
        "peak_mem_mib": [round(m, 4) for m in memory],
    }
    return metrics, notes


def per_layer(run: Run) -> tuple:
    seconds = run.args.seconds
    samples = {m.name: [] for m in PER_LAYER}
    lags, untraced_s, traced_s, handoffs = [], 0.0, 0.0, {}
    rounds = 0
    t0 = time.monotonic()
    while run.time_left():
        for result in [run.call({"op": "layers"})] + [
            run.call({"op": "trace", "kind": kind}) for kind in KINDS
        ]:
            if result is None:
                continue
            if "metrics" not in result:  # the replays
                result = {"metrics": result}
            else:
                lags.extend(result["lag_us"])
                untraced_s += result["untraced_s"]
                traced_s += result["traced_s"]
                handoffs[result["kind"]] = handoffs.get(result["kind"], 0) + result["handoff_samples"]
            for name, value in result["metrics"].items():
                samples[name].append(value)
        rounds += 1
        spent = time.monotonic() - t0
        if spent + 0.5 * spent / rounds > seconds or len(run.failures) > 0:
            break

    metrics = {n: statistics.median(v) if v else 0.0 for n, v in samples.items()}
    if lags:
        lags.sort()
        metrics["trace.pipeline.release_lag_p50_ms"] = percentile(lags, 0.50) / 1e3
        metrics["trace.pipeline.release_lag_p99_ms"] = percentile(lags, 0.99) / 1e3
    if untraced_s > 0:
        metrics["trace.overhead"] = traced_s / untraced_s
    notes = {
        "rounds": rounds,
        "measured_s": round(time.monotonic() - t0, 3),
        "partials_per_tuple": metrics["aggregation.partials_per_tuple"],
        "handoff_samples": handoffs,
        "release_lag_samples": len(lags),
    }
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply input sizes (self-tests use small values)")
    ap.add_argument("--fault", choices=FAULTS,
                    help="inject a fault, to check that the benchmark catches it")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "streamq" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'streamq'}", file=sys.stderr)
        return 2

    cpu0 = _cpu_line()
    run = Run(args)
    try:
        metrics, notes = per_layer(run) if args.trace else end_to_end(run)
    finally:
        run.close()
    cpu1 = _cpu_line()

    catalogue = PER_LAYER if args.trace else END_TO_END
    units = {m.name: m.unit for m in catalogue}
    failed = len(run.failures)
    workload = WORKLOADS[args.workload]
    print(f"workload {args.workload}: {workload.why}")
    print("inputs " + json.dumps(run.info))
    print("environment " + json.dumps(environment(cpu0, cpu1, run.info)))
    print("run " + json.dumps(notes))
    print(f"passes attempted {run.attempted}, failed {failed}, "
          f"failed_frac {failed / max(1, run.attempted):.4f}")
    for failure in run.failures:
        print(f"FAILED {failure}")
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(1, run.attempted),
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
