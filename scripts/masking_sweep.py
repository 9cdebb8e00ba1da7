#!/usr/bin/env python3
"""Exhaustive single/double fault sweep over small farm sizes.

For every farm size and every subset of injectable positions up to the
masking bound, runs one experiment per assignment of the five fault kinds
and reports whether the surviving voters still agreed on the uncorrupted
input.
"""
from __future__ import annotations

import argparse
import itertools
import sys

from votefarm.harness import (
    DEFAULT_INPUT,
    ExperimentSpec,
    FaultKind,
    FaultSpec,
    PipelineSpec,
    StageSpec,
    run_experiment,
)

def masked(spec: ExperimentSpec) -> bool:
    report = run_experiment(spec)
    rep = report.repetitions[0]
    final = [r for r in rep.voters if r.stage == 2 and r.live]
    if not final:
        return False
    return all(
        r.outcome is not None
        and r.outcome.ok
        and r.outcome.value == DEFAULT_INPUT
        for r in final
    )


def sweep(n: int, seed: int) -> tuple[int, int]:
    bound = (n - 1) // 2
    stage = StageSpec(n=n)
    passed = failed = 0
    for m in range(1, bound + 1):
        for positions in itertools.combinations(range(1, n + 1), m):
            for kinds in itertools.product(FaultKind, repeat=m):
                faults = []
                for pos, kind in zip(positions, kinds):
                    # a voter crash only matters one stage before the
                    # observed one; every other kind hits the stage itself
                    stage_no = 1 if kind is FaultKind.CRASH_VOTER else 2
                    faults.append(FaultSpec(kind=kind, voter=pos, stage=stage_no))
                spec = ExperimentSpec(
                    pipeline=PipelineSpec(stages=(stage, stage)),
                    faults=tuple(faults),
                    seed=seed,
                )
                if masked(spec):
                    passed += 1
                else:
                    failed += 1
    return passed, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[3, 5])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    total_pass = total_fail = 0
    print(f"{'n':>3} {'bound':>5} {'masked':>7} {'leaked':>7}")
    for n in args.sizes:
        if n < 1:
            print(f"farm size must be >= 1, got {n}", file=sys.stderr)
            return 2
        passed, failed = sweep(n, args.seed)
        total_pass += passed
        total_fail += failed
        print(f"{n:>3} {(n - 1) // 2:>5} {passed:>7} {failed:>7}")
    print(f"total: {total_pass} masked, {total_fail} leaked")
    return 0 if total_fail == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
