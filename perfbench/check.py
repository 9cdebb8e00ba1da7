#!/usr/bin/env python3
"""Repeat check and per-layer self-time table for the votefarm benchmark.

    python3 perfbench/check.py --seed 1 --seconds 3

Runs every workload twice with tracing on and the same seed, each run in a
process of its own.  On the virtual-clock workloads the per-pass work
counts, the report digest and fail_frac must agree exactly between the two
runs.  Prints one row per workload: per-op self time of each layer, the
tracing overhead and the failures by exception type.  Exits 1 if any run
reports correct=false or any of those figures disagree.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from tracing import LAYERS
from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def traced_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True,
    )
    *_, detail, result = proc.stdout.splitlines()
    return json.loads(detail.removeprefix("detail ")), json.loads(result)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=3.0)
    args = parser.parse_args()

    header = ["workload", "repeat", "fail_frac", "overhead"] + [f"{l} ms/op" for l in LAYERS]
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    ok = True
    for name, workload in WORKLOADS.items():
        (d1, r1), (d2, r2) = (traced_run(name, args.seed, args.seconds) for _ in range(2))
        same = r1["correct"] and r2["correct"]
        if workload.virtual:
            for key in ("counts_per_pass", "digest", "fail_frac"):
                same = same and d1[key] == d2[key]
        ok = ok and same
        row = [
            name,
            "same" if same else "DIFFERS",
            f"{d1['fail_frac']['value']:.4f}",
            f"{r1['metrics']['trace.overhead_frac']['value']:.2f}",
        ] + [f"{d1['self_s_per_op'][layer] * 1e3:.3f}" for layer in LAYERS]
        print("| " + " | ".join(row) + " |")
        if d1["errors"]:
            print(f"  {name} errors by type: {d1['errors']}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
