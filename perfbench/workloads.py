"""Workload generators, op runners and verdicts for the votefarm benchmark.

Every workload is a closed loop in one process with no threads: the next
op starts when the previous one returns.  A workload's inputs are a
*pass*, a fixed list of ops generated from the seed alone; a run replays
whole passes until its time is up, so each pass does exactly the same
work and per-pass counts, digests and the failure fraction repeat exactly.

The program is reached only through a namespace `vf` holding its modules
(`vf.harness`, `vf.client`, ...), because the benchmark imports it anew
for every set-up it times.
"""

from __future__ import annotations

import hashlib
import math
import random
import struct
from collections import Counter
from dataclasses import dataclass, field

from meter import stamp

# Verdict characters, one per op.
OK = "."  # every live final-stage voter holds the expected value
DISAGREE = "D"  # some live final-stage voter has no value or a failure
RAISED = "E"  # the op raised
WRONG = "W"  # a live final-stage voter holds a value other than the expected one

_F64 = struct.Struct("<d")


@dataclass
class PassResult:
    """What one pass of a workload did, as the benchmark observed it.
    Times are host seconds scaled to the reference speed (see meter.py);
    the raw_ fields hold the same times as measured."""

    verdicts: str = ""
    latencies: list[float] = field(default_factory=list)  # ops with verdict OK
    raw_latencies: list[float] = field(default_factory=list)
    program_s: float = 0.0  # time spent inside the program
    raw_program_s: float = 0.0
    errors: Counter = field(default_factory=Counter)
    first_error: dict = field(default_factory=dict)
    digest: str | None = None


@dataclass(frozen=True)
class VirtualOp:
    spec: object  # harness.ExperimentSpec
    expected: bytes  # byte form of the value every final voter must hold


def final_verdict(report, expected: bytes) -> str:
    """Judge one report by the live voters of its last stage."""
    last = len(report.spec["stages"])
    finals = [v for v in report.repetitions[0].voters if v.stage == last and v.live]
    held = [v.outcome.value.data for v in finals if v.outcome is not None and v.outcome.ok]
    if any(data != expected for data in held):
        return WRONG
    if finals and len(held) == len(finals):
        return OK
    return DISAGREE


def run_virtual_pass(vf, ops, meter, tracer=None) -> PassResult:
    """Run every op of a virtual-clock pass; one op is one
    `run_experiment` call.  Reports are serialized, digested and judged
    outside the op's timed region."""
    run = vf.harness.run_experiment
    if tracer is not None:
        run = tracer.root(run, "harness.op", "harness")
    out = PassResult()
    digest = hashlib.sha256()
    verdicts = []
    for op in ops:
        raised = None
        w0, c0 = stamp()
        try:
            report = run(op.spec)
        except Exception as exc:  # an op that raises is counted, never fatal
            raised = type(exc).__name__
            out.errors[raised] += 1
            out.first_error.setdefault(raised, str(exc))
        w1, c1 = stamp()
        scaled = meter.scale(w1 - w0, c1 - c0)
        out.program_s += scaled
        out.raw_program_s += w1 - w0
        if raised:
            digest.update(f"raised {raised}\n".encode())
            verdicts.append(RAISED)
            continue
        digest.update(report.to_json().encode())
        verdict = final_verdict(report, op.expected)
        if tracer is not None:
            tracer.note_report(report)
        if verdict == OK:
            out.latencies.append(scaled)
            out.raw_latencies.append(w1 - w0)
        verdicts.append(verdict)
    out.verdicts = "".join(verdicts)
    out.digest = digest.hexdigest()
    return out


# -- vote_euclid ---------------------------------------------------------------

EUCLID_N = 15
EUCLID_MAX_OUTLIERS = 7


def _generalized_median(xs: list[float]) -> float:
    """The median rule on scalars, written from its definition: discard the
    farthest-apart pair (ties: smallest index pair) until at most two
    remain; of two, the lower index wins."""
    left = list(range(len(xs)))
    while len(left) > 2:
        best, pair = -1.0, None
        for a in range(len(left)):
            for b in range(a + 1, len(left)):
                d = math.sqrt((xs[left[a]] - xs[left[b]]) ** 2)
                if d > best:
                    best, pair = d, (left[a], left[b])
        left = [i for i in left if i not in pair]
    return xs[left[0]]


def vote_euclid_pass(vf, seed: int, size: int) -> list[VirtualOp]:
    h = vf.harness
    kinds = vf.core.VoteKind
    stages = (
        h.StageSpec(EUCLID_N, kinds.MEDIAN),
        h.StageSpec(EUCLID_N, kinds.MAJORITY, epsilon=0.5),
    )
    ops = []
    for i in range(size):
        rng = random.Random(f"vote_euclid:{seed}:{i}")
        xs = [42.0 + rng.uniform(-0.1, 0.1) for _ in range(EUCLID_N)]
        for r in rng.sample(range(EUCLID_N), rng.randint(0, EUCLID_MAX_OUTLIERS)):
            xs[r] = rng.choice((-1.0, 1.0)) * rng.uniform(1e3, 1e6)
        expected = _generalized_median(xs)
        # Outliers are a minority, so the median rule must land on an honest value.
        assert abs(expected - 42.0) <= 0.1
        spec = h.ExperimentSpec(
            pipeline=h.PipelineSpec(stages),
            inputs=tuple(vf.core.VoteValue.from_floats([x]) for x in xs),
            seed=rng.randrange(2**31),
            metric="euclidean",
        )
        ops.append(VirtualOp(spec, _F64.pack(expected)))
    return ops


# -- fabric_default --------------------------------------------------------------

FABRIC_N = 31


def fabric_default_pass(vf, seed: int, size: int) -> list[VirtualOp]:
    h = vf.harness
    stages = (h.StageSpec(FABRIC_N), h.StageSpec(FABRIC_N))
    ops = []
    for i in range(size):
        rng = random.Random(f"fabric_default:{seed}:{i}")
        value = vf.core.VoteValue.from_floats([rng.uniform(-1e3, 1e3)])
        spec = h.ExperimentSpec(
            pipeline=h.PipelineSpec(stages),
            inputs=(value,) * FABRIC_N,
            seed=rng.randrange(2**31),
            metric="default",
        )
        ops.append(VirtualOp(spec, value.data))
    return ops


# -- fault_churn ---------------------------------------------------------------------

CHURN_N = 5
CHURN_STAGES = 3
CHURN_MAX_FAULTS_PER_STAGE = 2


def fault_churn_pass(vf, seed: int, size: int) -> list[VirtualOp]:
    """Seeded fault sets, drawn without filtering: byte-flipped inputs that
    overflow the euclidean metric stay in, and show as failed ops."""
    h = vf.harness
    kinds = list(h.FaultKind)
    stages = (h.StageSpec(CHURN_N),) * CHURN_STAGES
    ops = []
    for i in range(size):
        rng = random.Random(f"fault_churn:{seed}:{i}")
        faults = []
        for stage in range(1, CHURN_STAGES + 1):
            count = rng.randint(0, CHURN_MAX_FAULTS_PER_STAGE)
            for voter in rng.sample(range(1, CHURN_N + 1), count):
                faults.append(
                    h.FaultSpec(
                        kind=rng.choice(kinds),
                        voter=voter,
                        stage=stage,
                        pattern=bytes([rng.randrange(1, 256)]),
                        index=rng.randint(0, 1),
                    )
                )
        spec = h.ExperimentSpec(
            pipeline=h.PipelineSpec(stages),
            faults=tuple(faults),
            seed=rng.randrange(2**31),
            metric="euclidean",
        )
        ops.append(VirtualOp(spec, h.DEFAULT_INPUT.data))
    return ops


# -- realclock -----------------------------------------------------------------------

REAL_N = 7
REAL_DELTA_T = 0.05
REAL_FARM = "rc"


def realclock_pass(vf, seed: int, size: int) -> list:
    """One world of `size` rounds; every user feeds round r the same value."""
    rng = random.Random(f"realclock:{seed}")
    return [vf.core.VoteValue.from_floats([rng.uniform(-1e3, 1e3)]) for _ in range(size)]


def _real_user(vf, world, uid, go, done, values, outcomes):
    """One farm member: wait for each wave's gate, feed that round's value,
    poll for the outcome, report back; close when the gate says stop."""
    handle = vf.client.open_farm(
        world, REAL_FARM, uid, metric="default", delta_t=REAL_DELTA_T
    )
    for node in range(1, REAL_N + 1):
        handle.add(node)
    if not handle.run():
        raise RuntimeError(f"user {uid} could not join the farm: {handle.last_error.name}")
    timeout_code = vf.core.ErrorCode.TIMEOUT
    while True:
        _, r = yield vf.sim.Wait((go,), None)
        if r is None:
            break
        yield from handle.control([vf.client.Input(values[r])])
        out = None
        for _ in range(10):
            out = yield from handle.get(timeout=5 * REAL_DELTA_T)
            if out is not None or handle.last_error == timeout_code:
                break
            yield from vf.sim.sleep(REAL_DELTA_T)
        outcomes[r][uid - 1] = out
        done.put(uid)
    yield from handle.close()


def _real_coordinator(vf, rounds, gates, done, meter, latencies):
    """Gated waves: every member finishes round r before round r+1 opens.
    The reference sample after each round runs between waves, untimed."""
    for r in range(rounds):
        w0, c0 = stamp()
        for gate in gates:
            gate.put(r)
        for _ in gates:
            yield vf.sim.Wait((done,), None)
        w1, c1 = stamp()
        latencies.append((w1 - w0, meter.scale(w1 - w0, c1 - c0)))
    for gate in gates:
        gate.put(None)


def real_world(vf, values, outcomes, meter, latencies) -> None:
    """Build and run one real-clock world through the public client API.
    Results land in `outcomes` and `latencies` even if the run raises."""
    world = vf.client.World(vf.sim.REAL)
    done = vf.sim.WaitSource(world.scheduler)
    gates = [vf.sim.WaitSource(world.scheduler) for _ in range(REAL_N)]
    for uid, gate in enumerate(gates, start=1):
        world.spawn_user(
            REAL_FARM, uid, _real_user(vf, world, uid, gate, done, values, outcomes)
        )
    world.spawn(
        "bench/coordinator",
        _real_coordinator(vf, len(values), gates, done, meter, latencies),
    )
    world.run()


def run_realclock_pass(vf, values, meter, tracer=None) -> PassResult:
    """One op is one round.  The world's whole lifetime, its drain after the
    last round included, counts as program time, and that time
    keeps its sleep; a round's latency is its CPU time alone, because a
    healthy round never sleeps."""
    run = real_world
    if tracer is not None:
        run = tracer.root(run, "bench.world", "bench")
    outcomes = [[None] * REAL_N for _ in values]
    latencies: list[tuple[float, float]] = []
    out = PassResult()
    raised = None
    spent0 = meter.spent
    w0, c0 = stamp()
    try:
        run(vf, values, outcomes, meter, latencies)
    except Exception as exc:  # judged per round below, never fatal
        raised = type(exc).__name__
        out.first_error.setdefault(raised, str(exc))
    w1, c1 = stamp()
    wall = w1 - w0 - (meter.spent[0] - spent0[0])
    cpu = c1 - c0 - (meter.spent[1] - spent0[1])
    out.raw_program_s = wall
    out.program_s = meter.scale(wall, cpu, sleeps=True)
    verdicts = []
    for r, value in enumerate(values):
        held = [o.value.data for o in outcomes[r] if o is not None and o.ok]
        if any(data != value.data for data in held):
            verdict = WRONG
        elif len(held) == REAL_N and r < len(latencies):
            verdict = OK
            out.raw_latencies.append(latencies[r][0])
            out.latencies.append(latencies[r][1])
        else:
            verdict = RAISED if raised else DISAGREE
        if verdict == RAISED:
            out.errors[raised] += 1
        verdicts.append(verdict)
    out.verdicts = "".join(verdicts)
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    virtual: bool
    make_pass: object  # (vf, seed, size) -> list of op inputs
    pass_size: int  # ops per pass
    warmup_size: int  # ops in the warm-up that set-up includes
    may_fail: bool = False  # if not, a single failed op makes the run incorrect


WORKLOADS = {
    w.name: w
    for w in (
        Workload("vote_euclid", True, vote_euclid_pass, 24, 1),
        Workload("fabric_default", True, fabric_default_pass, 8, 1),
        Workload("fault_churn", True, fault_churn_pass, 200, 1, may_fail=True),
        Workload("realclock", False, realclock_pass, 32, 2),
    )
}


def run_pass(vf, workload: Workload, ops, meter, tracer=None) -> PassResult:
    if workload.virtual:
        return run_virtual_pass(vf, ops, meter, tracer)
    return run_realclock_pass(vf, ops, meter, tracer)
