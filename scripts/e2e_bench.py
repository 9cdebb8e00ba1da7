#!/usr/bin/env python3
"""Wall time of whole experiments: two-stage virtual-clock pipelines.

For each N and each of the `default` and `euclidean` metrics, runs a
fault-free two-stage majority pipeline through `run_experiment` and
records the median and best milliseconds per run over several timed runs,
and the median milliseconds of set-up, the part of a run before its
world starts to run (placing, linking and spawning the farms).
Beside each time it records the deterministic work of one run, counted
in a separate untimed run: the vote() calls the voters make, the distinct
(farm, algorithm, slot vector) triples among them, the metric calls
(each metric is wrapped in a counter, as scripts/vote_bench.py does),
the scheduler steps, the entries pushed onto the scheduler's timer heap,
the voters' sends, counted as `outbox_items` (one `Fabric.post` per send,
however many fellows a broadcast goes to), the frames the fabric sent,
one per (sender, receiver) copy however many peers one send reaches, read
off the fabric's own counters as the copies it delivered or dropped (a
copy still in flight when the run ends is left out), the frames it
decoded, the messages the voters and handles encoded, and
`float_unpacks`: the calls of `struct.unpack`, which in the package only
`VoteValue.floats` makes, so the times a value's bytes are unpacked.  One
more untimed run, made with the garbage collector disabled, gives
`cyclic_garbage`: the objects a full collection then finds, which
reference counting alone could not free (0 when a finished world holds no
reference cycle).  A last untimed run gives `py_calls`: the Python
`call` events, generator resumptions included, that `sys.setprofile`
sees inside `World.run`, the fixed cost of the frame path counted in
calls, and beside it `c_calls`: the `c_call` events of the same run,
each call of a builtin or C method (a dict lookup by `.get`, a deque
append), which `py_calls` cannot see (the events differ across
interpreter versions, so compare the columns on one).  One more untimed
run gives `py_calls_setup`, the same events from the entry of
`run_experiment` until `World.run` is entered: the cost of checking the
spec and building the world, counted in calls.  One more untimed run,
with the garbage collector disabled, gives `setup_objects`: the net
change of `gc.get_count()[0]` over the same span, the container objects
set-up leaves allocated, which decide how soon a collection runs.
Beside the `rows`, the `crash_heavy` row gives the same columns for one two-stage N = 7 farm in
which two voters and a user never start, so its worlds end with
activities left blocked or never run.  A top-level `src_lines` gives the line count of the package's
modules (`src/votefarm/*.py`), the size a simplification is measured by.
Prints the rows as JSON, or writes them to the file named by --out
(e.g. BENCH_e2e.json).

    PYTHONPATH=src python3 scripts/e2e_bench.py --sizes 3 7 15 31 63

With --against SRC (the src/ directory of another checkout, such as the
parent commit's), the script instead runs itself PAIRS times on each
source tree, in child processes that alternate between SRC and the
sources it imported, and writes each row, `crash_heavy` included, side
by side: `before` (SRC) and `after`, each with its work counts, the
median of the children's ms_p50 and ms_setup_p50 and the best ms_min,
and `after_faster`, the pairs whose `after` ms_p50 was the lower;
`src_lines` then holds both sides' counts.

    PYTHONPATH=src python3 scripts/e2e_bench.py --against ../parent/src
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import votefarm
from votefarm import client, core, sim, transport, voter, voting
from votefarm.harness import (
    ExperimentSpec,
    FaultKind,
    FaultSpec,
    PipelineSpec,
    StageSpec,
    run_experiment,
)

METRICS = ("default", "euclidean")
RUNS = 5  # timed runs per cell
PAIRS = 5  # child runs per source tree under --against
CRASH_N = 7
# two crashed voters and one crashed user across the two stages
CRASH_FAULTS = (
    FaultSpec(FaultKind.CRASH_VOTER, 2),
    FaultSpec(FaultKind.CRASH_USER, 5),
    FaultSpec(FaultKind.CRASH_VOTER, 3, stage=2),
)


def make_spec(n: int, metric: str, faults=()) -> ExperimentSpec:
    return ExperimentSpec(
        pipeline=PipelineSpec((StageSpec(n=n), StageSpec(n=n))),
        metric=metric,
        faults=faults,
    )


def counted(owner, attr: str, counts: dict, key: str):
    """Replace owner.attr by a wrapper that counts its calls in counts[key];
    returns a function that puts the original back (an inherited method is
    restored by deleting the wrapper, not by shadowing the base class's)."""
    own = attr in vars(owner)
    fn = getattr(owner, attr)
    counts[key] = 0

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    setattr(owner, attr, wrapper)

    def restore():
        if own:
            setattr(owner, attr, fn)
        else:
            delattr(owner, attr)

    return restore


def count_work(spec: ExperimentSpec) -> dict:
    """vote() calls, distinct votes per farm, metric calls, scheduler steps,
    heap pushes, voter sends, frames sent, frame decodes, message encodes
    and float unpacks of one run."""
    votes: list = []
    metric_calls = 0
    metric, _ = voting.resolve_metric(spec.metric)
    kernel: dict = {}

    def counted_metric(a, b):
        nonlocal metric_calls
        metric_calls += 1
        return metric(a, b)

    def counted_vote(algorithm, slots, fn):
        # the caller is a Voter method; its name is "<farm>/voter<id>"
        farm = sys._getframe(1).f_locals["self"].name.rpartition("/")[0]
        votes.append((farm, algorithm, tuple(slots)))
        return vote(algorithm, slots, fn)

    def fabric_run(world):
        try:
            run(world)
        finally:
            kernel["frames_sent"] += world.fabric.delivered_total + world.fabric.dropped

    kernel["frames_sent"] = 0
    vote, run = voter.vote, client.World.run
    voter.vote = counted_vote
    client.World.run = fabric_run
    voting.register_metric(spec.metric, counted_metric)
    wrapped = [
        (sim.Scheduler, "_step", "scheduler_steps"),
        (sim.Scheduler, "_push", "heap_pushes"),
        (transport.Fabric, "post", "outbox_items"),
        (transport, "decode_message", "decodes"),
        (transport, "encode_message", "encodes"),
        (client, "encode_message", "encodes"),
        (core.struct, "unpack", "float_unpacks"),
    ]
    restores = [counted(owner, attr, kernel, key) for owner, attr, key in wrapped]
    try:
        report = run_experiment(spec)
    finally:
        voter.vote, client.World.run = vote, run
        voting.register_metric(spec.metric, metric)
        for restore in restores:
            restore()
    live = [v for v in report.repetitions[0].voters if v.live]
    return {
        "ok": all(v.outcome is not None and v.outcome.ok for v in live),
        "vote_calls": len(votes),
        "distinct_votes": len(set(votes)),
        "metric_calls": metric_calls,
        **kernel,
    }


def src_lines() -> int:
    """Lines in the modules of the imported votefarm package."""
    package = Path(votefarm.__file__).resolve().parent
    return sum(len(f.read_text().splitlines()) for f in package.glob("*.py"))


def cyclic_garbage(spec: ExperimentSpec) -> int:
    """Objects of one run that only the cycle collector frees."""
    gc.collect()
    gc.disable()
    try:
        run_experiment(spec)
        return gc.collect()
    finally:
        gc.enable()


def run_calls(spec: ExperimentSpec) -> dict:
    """Python calls, generator resumptions included, and C calls, made
    inside World.run."""
    calls = {"call": 0, "c_call": 0}
    run = client.World.run

    def profile(frame, event, arg):
        if event in calls:
            calls[event] += 1

    def profiled_run(world):
        sys.setprofile(profile)
        try:
            run(world)
        finally:
            sys.setprofile(None)

    client.World.run = profiled_run
    try:
        run_experiment(spec)
    finally:
        client.World.run = run
    return {"py_calls": calls["call"], "c_calls": calls["c_call"]}


def py_calls_setup(spec: ExperimentSpec) -> int:
    """Python calls from the entry of run_experiment until World.run is entered."""
    calls = 0
    run = client.World.run

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    def unprofiled_run(world):
        sys.setprofile(None)
        run(world)

    client.World.run = unprofiled_run
    sys.setprofile(profile)
    try:
        run_experiment(spec)
    finally:
        sys.setprofile(None)
        client.World.run = run
    return calls


def setup_objects(spec: ExperimentSpec) -> int:
    """Net generation-0 allocations from the entry of run_experiment until
    World.run is entered, with the collector disabled."""
    counts = []
    run = client.World.run

    def counted_run(world):
        counts.append(gc.get_count()[0])
        run(world)

    client.World.run = counted_run
    gc.collect()
    gc.disable()
    try:
        start = gc.get_count()[0]
        run_experiment(spec)
    finally:
        gc.enable()
        client.World.run = run
    return counts[0] - start


def time_runs(spec: ExperimentSpec) -> tuple[list[float], list[float]]:
    """The milliseconds of each timed run, and of its set-up: the time
    until its world starts to run."""
    times, setups = [], []
    run = client.World.run

    def timed_run(world):
        setups.append((time.perf_counter() - t0) * 1e3)
        run(world)

    client.World.run = timed_run
    try:
        for _ in range(RUNS):
            t0 = time.perf_counter()
            run_experiment(spec)
            times.append((time.perf_counter() - t0) * 1e3)
    finally:
        client.World.run = run
    return times, setups


def bench_row(metric: str, n: int, faults=()) -> dict:
    spec = make_spec(n, metric, faults)
    times, setups = time_runs(spec)
    return {
        "metric": metric,
        "n": n,
        **count_work(spec),
        "cyclic_garbage": cyclic_garbage(spec),
        **run_calls(spec),
        "py_calls_setup": py_calls_setup(spec),
        "setup_objects": setup_objects(spec),
        "ms_p50": statistics.median(times),
        "ms_setup_p50": statistics.median(setups),
        "ms_min": min(times),
    }


def crash_heavy_row() -> dict:
    return {
        "faults": [f"{f.kind.value}:{f.stage}.{f.voter}" for f in CRASH_FAULTS],
        **bench_row("default", CRASH_N, CRASH_FAULTS),
    }


def child_doc(src: str, sizes) -> dict:
    """The output of this script run in a child process on the sources in
    `src`."""
    proc = subprocess.run(
        [sys.executable, __file__, "--sizes", *map(str, sizes)],
        capture_output=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return json.loads(proc.stdout)


def paired_row(cells: dict[str, list[dict]]) -> dict:
    """One cell's child runs per side folded into one row: the shared keys,
    then each side's work counts and times, then `after_faster`."""
    first = cells["before"][0]
    row = {k: first[k] for k in ("faults", "metric", "n") if k in first}
    for side, side_cells in cells.items():
        row[side] = {
            **{k: v for k, v in side_cells[0].items() if k not in row},
            "ms_p50": statistics.median(c["ms_p50"] for c in side_cells),
            "ms_setup_p50": statistics.median(c["ms_setup_p50"] for c in side_cells),
            "ms_min": min(c["ms_min"] for c in side_cells),
        }
    row["after_faster"] = sum(
        a["ms_p50"] < b["ms_p50"] for a, b in zip(cells["after"], cells["before"])
    )
    return row


def paired_doc(before_src: str, sizes) -> dict:
    after_src = str(Path(votefarm.__file__).resolve().parent.parent)
    runs: dict[str, list[dict]] = {"before": [], "after": []}
    for i in range(PAIRS):
        order = ("before", "after") if i % 2 == 0 else ("after", "before")
        for side in order:
            runs[side].append(child_doc(before_src if side == "before" else after_src, sizes))
    rows = [
        paired_row({side: [child["rows"][i] for child in runs[side]] for side in runs})
        for i in range(len(runs["before"][0]["rows"]))
    ]
    crash = paired_row({side: [child["crash_heavy"] for child in runs[side]] for side in runs})
    lines = {side: runs[side][0]["src_lines"] for side in runs}
    return {"src_lines": lines, "rows": rows, "crash_heavy": crash}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[3, 7, 15, 31, 63])
    parser.add_argument("--out", help="write the JSON here instead of stdout")
    parser.add_argument(
        "--against", metavar="SRC", help="pair each cell with the sources in SRC"
    )
    args = parser.parse_args()
    if min(args.sizes) < 1:
        parser.error("--sizes must be >= 1")
    if args.against and not (Path(args.against) / "votefarm").is_dir():
        parser.error(f"--against {args.against}: no votefarm package there")

    doc = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "runs": RUNS,
        "stages": 2,
        "algorithm": "majority",
    }
    if args.against:
        doc["pairs"] = PAIRS
        doc.update(paired_doc(args.against, args.sizes))
    else:
        doc["src_lines"] = src_lines()
        doc["rows"] = [bench_row(metric, n) for metric in METRICS for n in args.sizes]
        doc["crash_heavy"] = crash_heavy_row()
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
