#!/usr/bin/env python3
"""Wall-clock cost of one voting round as the farm grows.

Runs the real-clock benchmark over a range of farm sizes and prints
per-size mean and standard deviation, plus the slowdown of each size
relative to a single-node farm.
"""
from __future__ import annotations

import argparse
import sys

from votefarm.harness import SpecError, bench, bench_to_csv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    parser.add_argument("--repetitions", type=int, default=30)
    parser.add_argument("--csv", action="store_true", help="machine readable output")
    args = parser.parse_args()

    try:
        rows = bench(tuple(args.sizes), repetitions=args.repetitions)
    except SpecError as exc:
        parser.error("; ".join(exc.violations))
    if args.csv:
        sys.stdout.write(bench_to_csv(rows))
        return 0

    base = rows[0].mean_duration
    print(f"{'n':>3} {'mean (us)':>12} {'stddev (us)':>12} {'vs n={}'.format(rows[0].n):>10}")
    for row in rows:
        ratio = row.mean_duration / base if base else float("inf")
        print(
            f"{row.n:>3} {row.mean_duration * 1e6:>12.1f}"
            f" {row.stddev_duration * 1e6:>12.1f} {ratio:>9.2f}x"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
