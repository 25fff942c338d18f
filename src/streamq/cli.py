"""Benchmark command line.

Exit codes: 0 success, 2 configuration error, 3 oracle mismatch,
4 probe failure under --strict-energy.
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
from .queues import InvalidConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ORACLE = 3
EXIT_PROBE = 4


def build_parser() -> argparse.ArgumentParser:
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
        help="queue capacity in elements; repeatable, default 128",
    )
    parser.add_argument(
        "--element-size", action="append", type=int, metavar="BYTES",
        help="element footprint for micro mode; repeatable, default 12",
    )
    parser.add_argument("--tuples", type=int, default=100_000)
    parser.add_argument("--producers", type=int, default=1)
    parser.add_argument("--aggregators", type=int, default=10)
    parser.add_argument("--window-size", type=int, default=4)
    parser.add_argument("--window-advance", type=int, default=2)
    parser.add_argument(
        "--prefill", type=int, default=None,
        help="elements preloaded before the micro clock starts "
        "(default: 64 at capacity 128, otherwise 150, clamped)",
    )
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument(
        "--warmup", type=int, default=0,
        help="extra leading repetitions discarded from the report",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", metavar="FILE", default=None)
    parser.add_argument(
        "--energy-cmd", metavar="CMD", default=None,
        help="external probe; run with 'start' before and 'stop' after the "
        "measured run, joules parsed from the stop output",
    )
    parser.add_argument("--strict-energy", action="store_true")
    parser.add_argument("--mcr-batch", type=int, default=1)
    parser.add_argument("--verify", choices=("on", "off"), default="on")
    return parser


def config_from_args(args: argparse.Namespace) -> BenchConfig:
    kinds = [parse_kind(k) for k in args.kind] if args.kind else None
    config = BenchConfig(
        mode=args.mode,
        capacities=args.capacity or [128],
        element_sizes=args.element_size or [12],
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
    if kinds is not None:
        config.kinds = kinds
    return config


def main(argv: Optional[List[str]] = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        rows = run_bench(config)
    except (InvalidConfig, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
