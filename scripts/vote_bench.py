#!/usr/bin/env python3
"""Cost of one vote() per algorithm, farm size and metric.

For each algorithm, each N and each of the `default` and `euclidean`
metrics, builds one seeded slot vector (an honest cluster near 42, a
minority of far outliers and one invalid slot), then records the median
microseconds per vote() over several timed rounds and, beside it, the
deterministic number of metric calls one vote makes.  Prints the rows as
JSON, or writes them to the file named by --out (e.g. BENCH_voting.json).

    PYTHONPATH=src python3 scripts/vote_bench.py --sizes 3 7 15 31 63
"""
from __future__ import annotations

import argparse
import json
import platform
import random
import statistics
import sys
import time

from votefarm.core import AlgorithmId, VoteKind, VoteValue
from votefarm.voting import resolve_metric, vote

METRICS = ("default", "euclidean")
SEED = 1
ROUNDS = 7  # timed rounds per cell
CALLS_PER_ROUND = 5  # vote() calls per round


def make_slots(n: int, metric: str) -> tuple[VoteValue | None, ...]:
    """Honest values agree exactly under `default` and within 0.1 under
    `euclidean`; (n - 1) // 4 slots are outliers, and for n >= 3 the last
    slot is invalid (None)."""
    rng = random.Random(f"vote_bench:{metric}:{n}:{SEED}")
    xs = [42.0 + (rng.uniform(-0.1, 0.1) if metric == "euclidean" else 0.0) for _ in range(n)]
    for i in rng.sample(range(n), (n - 1) // 4):
        xs[i] = rng.choice([-1.0, 1.0]) * rng.uniform(1e3, 1e4)
    slots = [VoteValue.from_floats([x]) for x in xs]
    if n >= 3:
        slots[-1] = None
    return tuple(slots)


def count_metric_calls(algorithm: AlgorithmId, slots, metric) -> tuple[int, bool]:
    calls = 0

    def counted(a, b):
        nonlocal calls
        calls += 1
        return metric(a, b)

    outcome = vote(algorithm, slots, counted)
    return calls, outcome.ok


def time_vote(algorithm: AlgorithmId, slots, metric) -> float:
    """Median over rounds of the mean microseconds per vote()."""
    per_round = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        for _ in range(CALLS_PER_ROUND):
            vote(algorithm, slots, metric)
        per_round.append((time.perf_counter() - t0) / CALLS_PER_ROUND * 1e6)
    return statistics.median(per_round)


def bench_rows(sizes) -> list[dict]:
    rows = []
    for metric_name in METRICS:
        metric, _ = resolve_metric(metric_name)
        epsilon = 0.5 if metric_name == "euclidean" else 0.0
        for kind in VoteKind:
            algorithm = AlgorithmId(kind, epsilon=epsilon, scaling_factor=1.0)
            for n in sizes:
                slots = make_slots(n, metric_name)
                metric_calls, ok = count_metric_calls(algorithm, slots, metric)
                rows.append(
                    {
                        "algorithm": kind.name.lower(),
                        "metric": metric_name,
                        "n": n,
                        "ok": ok,
                        "metric_calls_per_vote": metric_calls,
                        "us_per_vote_p50": time_vote(algorithm, slots, metric),
                    }
                )
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[3, 7, 15, 31, 63])
    parser.add_argument("--out", help="write the JSON here instead of stdout")
    args = parser.parse_args()
    if min(args.sizes) < 1:
        parser.error("--sizes must be >= 1")

    doc = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "rounds": ROUNDS,
        "calls_per_round": CALLS_PER_ROUND,
        "seed": SEED,
        "rows": bench_rows(args.sizes),
    }
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
