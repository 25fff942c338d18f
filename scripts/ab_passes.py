"""Alternate single benchmark passes between two source trees.

Usage:

    python3 scripts/ab_passes.py PARENT CHANGE --workload pipe-3x8-wide \\
        --seed 7 --rounds 30

``PARENT`` and ``CHANGE`` are checkouts, each with ``src/streamq`` and
``perfbench/``. Each tree's worker is started by the ``Worker`` class of
that tree's own ``perfbench/run.py``, which runs the tree's
``perfbench/worker.py`` on the tree's ``src``, so nothing under
``perfbench/`` changes. After one warm-up pass per worker, each round
sends, for every queue kind, one ``{"op": "memory"}`` request to each
tree and then one ``{"op": "pass"}`` request to each; the tree that goes
first alternates from round to round. Passes of the two trees thus run
seconds apart, and slow drift of the host falls on both sides alike.

For each metric and kind it prints both sides' medians, the median of
the per-round ratio change/parent with its quartiles, and the rounds in
which the change read better. The last line is the same as one JSON
object. A failed pass or a lost worker stops the script with exit
code 1.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import sys
from math import inf
from types import SimpleNamespace

KINDS = ("lamport", "fastforward", "batchqueue", "mcringbuffer")
#: metric -> (request op, value of one reply, better)
METRICS = {
    "peak_mem_mib": ("memory", lambda r: r["peak_bytes"] / 2**20, "lower"),
    "items_per_s": ("pass", lambda r: r["items"] / r["elapsed_s"], "higher"),
    "setup_s": ("pass", lambda r: r["setup_s"], "lower"),
}
REPLY_TIMEOUT_S = 120.0


class Side:
    """One tree's worker, started by that tree's ``perfbench/run.py``."""

    def __init__(self, index: int, tree: str, workload: str, seed: int):
        self.tree = os.path.abspath(tree)
        path = os.path.join(self.tree, "perfbench", "run.py")
        spec = importlib.util.spec_from_file_location(f"perfbench_run_{index}", path)
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        self.lost = run.WorkerLost
        # The options run.py's own command line would give, at their defaults.
        args = SimpleNamespace(workload=workload, seed=seed, scale=1.0, fault=None)
        try:
            self.worker = run.Worker(args, deadline=inf)
        except self.lost as exc:
            raise RuntimeError(f"{self.tree}: worker did not start: {exc}") from None

    def call(self, op: str, kind: str) -> dict:
        try:
            reply = self.worker.call({"op": op, "kind": kind}, REPLY_TIMEOUT_S)
        except self.lost as exc:
            raise RuntimeError(f"{self.tree}: {op} {kind}: {exc}") from None
        if not reply["ok"]:
            raise RuntimeError(f"{self.tree}: {op} {kind}: {reply['error']}")
        return reply["result"]


def summarize(samples: dict) -> dict:
    """samples[(metric, kind)] = [(parent, change), ...], one pair per round."""
    out = {}
    for (metric, kind), pairs in samples.items():
        better = METRICS[metric][2]
        parent = [p for p, _ in pairs]
        change = [c for _, c in pairs]
        ratios = [c / p for p, c in pairs]
        wins = sum(c < p if better == "lower" else c > p for p, c in pairs)
        p1, pm, p3 = statistics.quantiles(parent, n=4, method="inclusive")
        r1, rm, r3 = statistics.quantiles(ratios, n=4, method="inclusive")
        out[f"{metric}.{kind}"] = {
            "parent_median": pm, "change_median": statistics.median(change),
            "parent_iqr": p3 - p1, "median_ratio": rm, "ratio_q1": r1, "ratio_q3": r3,
            "change_better_rounds": wins, "rounds": len(pairs),
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=30)
    args = ap.parse_args()
    if args.rounds < 2:
        ap.error("--rounds must be at least 2")
    for tree in (args.parent, args.change):
        for need in (("perfbench", "run.py"), ("src", "streamq", "__init__.py")):
            if not os.path.isfile(os.path.join(tree, *need)):
                ap.error(f"{tree} has no {os.path.join(*need)}")

    sides = []
    try:
        for i, tree in enumerate((args.parent, args.change)):
            sides.append(Side(i, tree, args.workload, args.seed))
        for side in sides:
            side.call("pass", KINDS[0])  # warm-up, not kept
        samples = {(m, k): [] for m in METRICS for k in KINDS}
        for r in range(args.rounds):
            order = sides if r % 2 == 0 else sides[::-1]
            for kind in KINDS:
                for op in ("memory", "pass"):
                    replies = {id(s): s.call(op, kind) for s in order}
                    for metric, (m_op, value, _better) in METRICS.items():
                        if m_op == op:
                            samples[metric, kind].append(
                                tuple(value(replies[id(s)]) for s in sides))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for side in sides:
            side.worker.close()

    summary = summarize(samples)
    print(f"{args.workload}, seed {args.seed}, {args.rounds} rounds; ratio is change/parent")
    print(f"{'metric':28} {'parent':>12} {'change':>12} {'ratio':>6} {'q1':>6} {'q3':>6}  better")
    for name, s in summary.items():
        print(f"{name:28} {s['parent_median']:12.4g} {s['change_median']:12.4g} "
              f"{s['median_ratio']:6.3f} {s['ratio_q1']:6.3f} {s['ratio_q3']:6.3f}  "
              f"{s['change_better_rounds']}/{s['rounds']}")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "rounds": args.rounds, "summary": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
