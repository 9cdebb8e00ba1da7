#!/usr/bin/env python3
"""The votefarm benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload vote_euclid --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from `src/` of the
checkout this file sits in.  With `--trace 0` the result carries the
end-to-end metrics; with `--trace 1` the per-layer metrics of a traced run.
A `detail` line before the result holds the verdict of every op, failure
counts by exception type, the report digest and the work counts.  See
perfbench/README.md.
"""

from __future__ import annotations

import sys
import time

PROCESS_START = time.perf_counter(), time.process_time()

from pathlib import Path  # noqa: E402

# Every import from here on compiles its module from source: bytecode is
# neither written nor read, since it is looked up under a directory that is
# never created.  So set-up costs the same whether or not a `__pycache__`
# (left by a test run, say) sits beside the sources.
sys.dont_write_bytecode = True
sys.pycache_prefix = str(Path(__file__).resolve().parent / ".no-bytecode")

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import typing  # noqa: E402
from collections import Counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from meter import Meter, stamp  # noqa: E402
from tracing import Tracer, per_layer_metrics  # noqa: E402
from workloads import OK, WORKLOADS, WRONG, run_pass  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_REPEATS = 11
DEV_SEED = 1  # seed 7919 is held out for checking claims; see README.md
_MODULES = ("core", "voting", "sim", "transport", "voter", "client", "harness")


def load_program() -> SimpleNamespace:
    """Import votefarm from source, dropping any copy already imported, so
    that every set-up pays the full import."""
    for name in [m for m in sys.modules if m == "votefarm" or m.startswith("votefarm.")]:
        del sys.modules[name]
    # typing caches generic aliases such as Callable[[VoteValue, VoteValue], float],
    # which would keep every earlier copy of the program alive and in peak_rss_mb.
    for clear in typing._cleanups:
        clear()
    vf = SimpleNamespace(
        **{m: importlib.import_module(f"votefarm.{m}") for m in _MODULES}
    )
    if not Path(vf.harness.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"votefarm was imported from {vf.harness.__file__}, not {SRC}")
    return vf


def set_up(workload, seed: int, meter: Meter, start, spent0):
    """Import, generate the pass, run the warm-up ops.  Returns the set-up
    time since `start`, raw and scaled, without the meter's own samples."""
    vf = load_program()
    ops = workload.make_pass(vf, seed, workload.pass_size)
    run_pass(vf, workload, ops[: workload.warmup_size], meter)
    end = stamp()
    wall = end[0] - start[0] - (meter.spent[0] - spent0[0])
    cpu = end[1] - start[1] - (meter.spent[1] - spent0[1])
    return vf, ops, wall, meter.scale(wall, cpu, sleeps=not workload.virtual)


def pass_rate(passes, time_field: str) -> float:
    """Passed ops per second of program time, the median over passes."""
    return statistics.median(p.verdicts.count(OK) / getattr(p, time_field) for p in passes)


def quantile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "votefarm" / "__init__.py").is_file():
        print(f"run.py: no votefarm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    meter = Meter()
    setups, raw_setups = [], []
    start, spent0 = PROCESS_START, (0.0, 0.0)
    for _ in range(SETUP_REPEATS):
        vf, ops, raw, scaled = set_up(workload, args.seed, meter, start, spent0)
        raw_setups.append(raw)
        setups.append(scaled)
        start, spent0 = stamp(), meter.spent

    passes = []  # every pass run, traced ones included
    untraced_s = traced_s = 0.0
    tracers: list[Tracer] = []
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        plain = run_pass(vf, workload, ops, meter)
        passes.append(plain)
        if args.trace:
            tracer = Tracer(vf).install()
            try:
                traced = run_pass(vf, workload, ops, meter, tracer)
            finally:
                tracer.uninstall()
            passes.append(traced)
            tracers.append(tracer)
            untraced_s += plain.program_s
            traced_s += traced.program_s

    verdicts = "".join(p.verdicts for p in passes)
    attempted = len(verdicts)
    failed = attempted - verdicts.count(OK)
    errors: Counter = Counter()
    first_error: dict = {}
    for p in passes:
        errors.update(p.errors)
        for k, v in p.first_error.items():
            first_error.setdefault(k, v)
    checks = {"no_wrong_value": WRONG not in verdicts}
    if not workload.may_fail:
        checks["no_failed_op"] = failed == 0
    if workload.virtual:
        # Every pass replays the same specs, so reports and counts must repeat.
        checks["digest_repeats"] = len({p.digest for p in passes}) == 1
        if tracers:
            checks["counts_repeat"] = len({json.dumps(t.counts()) for t in tracers}) == 1
    correct = all(checks.values())

    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "checks": checks,
        "fail_frac": {"value": failed / attempted, "unit": "frac"},
        "errors": dict(sorted(errors.items())),
        "first_error": first_error,
        "digest": passes[0].digest,
        "verdicts": [p.verdicts for p in passes] if not workload.virtual else passes[0].verdicts,
        "setup_s_samples": setups,
        "raw_setup_s_samples": raw_setups,
    }
    if args.trace:
        metrics, layer_self = per_layer_metrics(
            tracers, len(ops) * len(tracers), traced_s / untraced_s - 1.0
        )
        detail["counts_per_pass"] = tracers[0].counts()
        detail["self_s_per_op"] = layer_self
    else:
        latencies = [x for p in passes for x in p.latencies]
        raw_latencies = [x for p in passes for x in p.raw_latencies]
        if len(latencies) < 2:
            raise SystemExit(f"run.py: {len(latencies)} ops passed, too few to report latency")
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": pass_rate(passes, "program_s"), "unit": "1/s"},
            "op_ms_p50": {"value": quantile(latencies, 50) * 1e3, "unit": "ms"},
            "op_ms_p90": {"value": quantile(latencies, 90) * 1e3, "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
        raw = {
            "setup_s": statistics.median(raw_setups),
            "ops_per_s": pass_rate(passes, "raw_program_s"),
            "op_ms_p50": quantile(raw_latencies, 50) * 1e3,
            "op_ms_p90": quantile(raw_latencies, 90) * 1e3,
        }
        if not workload.virtual:
            # Only realclock has more than ten samples beyond its 99th percentile.
            detail["op_ms_p99"] = {"value": quantile(latencies, 99) * 1e3, "unit": "ms"}
            raw["op_ms_p99"] = quantile(raw_latencies, 99) * 1e3
        detail["latency_samples"] = len(latencies)
        detail["raw"] = raw
    detail["ref_ms_quartiles"] = [q * 1e3 for q in statistics.quantiles(meter.samples, n=4)]
    print("detail " + json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
