"""Benchmark command line.

Exit codes: 0 success, 2 configuration error, 3 oracle mismatch (a
pipeline run against the oracle, a micro run against check_fifo),
4 probe failure under --strict-energy. Any other error raised during a
run propagates with its traceback.
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import List, Optional

from .aggregation import WindowSpec
from .bench import (
    BenchConfig,
    OracleMismatch,
    ProbeFailure,
    parse_kind,
    rows_to_csv,
    rows_to_json,
    run_bench,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ORACLE = 3
EXIT_PROBE = 4


def build_parser() -> argparse.ArgumentParser:
    d = BenchConfig(mode="micro")  # the flag defaults; none depends on the mode
    parser = argparse.ArgumentParser(
        prog="streamq-bench",
        description=(
            "Benchmark the SPSC queue algorithms on their own (micro mode) "
            "or inside the windowed aggregation pipeline (pipeline mode)."
        ),
    )
    parser.add_argument("--mode", choices=("micro", "pipeline"), required=True)
    parser.add_argument(
        "--kind", action="append", metavar="KIND",
        help="queue kind (lamport, fastforward/ff, batchqueue/bq, "
        "mcringbuffer/mcr); repeatable, default all four",
    )
    parser.add_argument(
        "--capacity", action="append", type=int, metavar="N",
        help=f"queue capacity in elements; repeatable, default {d.capacities}",
    )
    parser.add_argument(
        "--element-size", action="append", type=int, metavar="BYTES",
        help="element footprint for micro mode; repeatable, "
        f"default {d.element_sizes}",
    )
    parser.add_argument("--tuples", type=int, default=d.tuples)
    parser.add_argument("--producers", type=int, default=d.producers)
    parser.add_argument("--aggregators", type=int, default=d.aggregators)
    parser.add_argument("--window-size", type=int, default=d.window.size)
    parser.add_argument("--window-advance", type=int, default=d.window.advance)
    parser.add_argument(
        "--prefill", type=int, default=d.prefill,
        help="elements preloaded before the micro clock starts "
        "(default: 64 at capacity 128, otherwise 150, clamped)",
    )
    parser.add_argument("--reps", type=int, default=d.reps)
    parser.add_argument(
        "--warmup", type=int, default=d.warmup,
        help="extra leading repetitions discarded from the report",
    )
    parser.add_argument("--seed", type=int, default=d.seed)
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", metavar="FILE", default=None)
    parser.add_argument(
        "--energy-cmd", metavar="CMD", default=d.energy_cmd,
        help="external probe; run with 'start' before and 'stop' after the "
        "measured run, joules parsed from the stop output",
    )
    parser.add_argument("--strict-energy", action="store_true")
    parser.add_argument("--mcr-batch", type=int, default=d.mcr_batch)
    parser.add_argument(
        "--verify", choices=("on", "off"), default="on" if d.verify else "off"
    )
    return parser


def config_from_args(args: argparse.Namespace) -> BenchConfig:
    config = BenchConfig(
        mode=args.mode,
        tuples=args.tuples,
        producers=args.producers,
        aggregators=args.aggregators,
        window=WindowSpec(args.window_size, args.window_advance),
        prefill=args.prefill,
        reps=args.reps,
        warmup=args.warmup,
        seed=args.seed,
        mcr_batch=args.mcr_batch,
        verify=args.verify == "on",
        energy_cmd=args.energy_cmd,
        strict_energy=args.strict_energy,
    )
    # Repeatable flags default to None: argparse would append to a list.
    if args.kind:
        config.kinds = [parse_kind(k) for k in args.kind]
    if args.capacity:
        config.capacities = args.capacity
    if args.element_size:
        config.element_sizes = args.element_size
    return config


def main(argv: Optional[List[str]] = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        config.validate()
    except ValueError as exc:  # InvalidConfig included
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        rows = run_bench(config)
    except OracleMismatch as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except ProbeFailure as exc:
        print(f"energy probe failure: {exc}", file=sys.stderr)
        return EXIT_PROBE

    report = rows_to_csv(rows) if args.format == "csv" else rows_to_json(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report)
    else:
        sys.stdout.write(report)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
