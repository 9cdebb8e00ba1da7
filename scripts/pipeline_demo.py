#!/usr/bin/env python3
"""Walk through one two-stage run with an injected voter crash.

Prints the per-voter outcomes of both stages so the restoration step is
visible: the crashed element leaves a hole in stage one, and stage two
still agrees because the vote there out-masks the missing input.
"""
from __future__ import annotations

import argparse

from votefarm.core import VoteValue
from votefarm.harness import (
    ExperimentSpec,
    FaultKind,
    FaultSpec,
    PipelineSpec,
    StageSpec,
    run_experiment,
    value_to_json,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--crash", type=int, default=2, help="stage-1 voter to kill")
    parser.add_argument("--input", type=float, default=42.0)
    args = parser.parse_args()

    stage = StageSpec(n=args.n)
    spec = ExperimentSpec(
        pipeline=PipelineSpec(stages=(stage, stage)),
        inputs=tuple(VoteValue.from_floats([args.input]) for _ in range(args.n)),
        faults=(FaultSpec(kind=FaultKind.CRASH_VOTER, voter=args.crash, stage=1),),
    )
    report = run_experiment(spec)
    rep = report.repetitions[0]

    for stage_no in (1, 2):
        print(f"stage {stage_no}")
        for res in rep.voters:
            if res.stage != stage_no:
                continue
            if not res.live:
                line = "crashed"
            elif res.outcome is None:
                line = "no outcome"
            elif res.outcome.ok:
                line = f"voted {value_to_json(res.outcome.value)}"
            else:
                line = f"failed: {res.outcome.failure.name}"
            print(f"  voter {res.voter}: {line}")

    final = [r for r in rep.voters if r.stage == 2 and r.live]
    agreed = bool(final) and all(
        r.outcome is not None
        and r.outcome.ok
        and r.outcome.value.data == final[0].outcome.value.data
        for r in final
    )
    print("restored" if agreed else "not restored")
    return 0 if agreed else 1


if __name__ == "__main__":
    raise SystemExit(main())
