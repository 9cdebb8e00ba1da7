"""Experiment harness: farms and pipelines under injected faults.

An experiment is one or more equally sized farm stages chained so that
stage k's voted outputs are pushed to stage k+1's user modules, which
inject them as their own inputs.  A stage voter that crashed or voted a
failure therefore shows up as one missing input downstream, where the
remaining majority restores the value.  Faults are injected at the
transport (corrupt/drop/delay hooks) or by pre-halting activities
(silent crashes).  Virtual-clock runs are bit-deterministic for a given
seed; reports serialize to JSON and CSV.

This module also hosts the brute-force voting oracle used by the test
suite; it shares no helper code with the voting module.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
from dataclasses import asdict, astuple, dataclass, fields
from enum import Enum

from .client import FarmHandle, Input, World, open_farm
from .core import (
    AlgorithmId,
    ErrorCode,
    Tag,
    VoteKind,
    VoteOutcome,
    VoteValue,
)
from .sim import REAL, TIMED_OUT, VIRTUAL, Wait, WaitSource, sleep
from .transport import Fabric, corrupt_hook, delay_hook, drop_hook
from .voter import FarmRuntime, user_name, voter_name
from .voting import resolve_metric


class FaultKind(Enum):
    CRASH_USER = "crash_user"
    CRASH_VOTER = "crash_voter"
    CORRUPT_INPUT = "corrupt_input"
    DROP_MESSAGE = "drop_message"
    DELAY_MESSAGE = "delay_message"


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault.

    Crashes are permanent and silent (the activity never runs, links stay
    open).  CORRUPT_INPUT flips value bytes of one INPUT frame on the
    user link; DROP/DELAY act on the target voter's broadcast frames, by
    per-link message index.
    """

    kind: FaultKind
    voter: int
    stage: int = 1
    pattern: bytes = b"\xff"
    delay: float | None = None
    index: int = 0


@dataclass(frozen=True)
class StageSpec:
    n: int
    algorithm: VoteKind = VoteKind.MAJORITY
    epsilon: float = 0.0
    scaling: float = 1.0
    delta_t: float = 1.0

    def algorithm_id(self) -> AlgorithmId:
        return AlgorithmId(self.algorithm, self.epsilon, self.scaling)


@dataclass(frozen=True)
class PipelineSpec:
    stages: tuple[StageSpec, ...]


@dataclass(frozen=True)
class ExperimentSpec:
    pipeline: PipelineSpec
    inputs: tuple[VoteValue, ...] | None = None
    faults: tuple[FaultSpec, ...] = ()
    seed: int = 0
    clock: str = VIRTUAL
    repetitions: int = 1
    metric: str = "default"


class SpecError(ValueError):
    """Invalid experiment specification; `violations` lists every problem."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


def validate_spec(spec: ExperimentSpec) -> list[str]:
    """Collect every violated constraint (empty list when valid)."""
    bad: list[str] = []
    stages = spec.pipeline.stages
    if not stages:
        bad.append("pipeline needs at least one stage")
    ns = {s.n for s in stages}
    if len(ns) > 1:
        bad.append(f"all stages must share one cardinality, got {sorted(ns)}")
    for k, s in enumerate(stages, start=1):
        if s.n < 1:
            bad.append(f"stage {k}: n must be >= 1, got {s.n}")
        if not (s.delta_t > 0):
            bad.append(f"stage {k}: delta_t must be > 0, got {s.delta_t}")
        elif s.delta_t == math.inf:
            bad.append(f"stage {k}: delta_t must be finite, got {s.delta_t}")
        if not (s.epsilon >= 0):
            bad.append(f"stage {k}: epsilon must be >= 0, got {s.epsilon}")
        if math.isnan(s.scaling):
            bad.append(f"stage {k}: scaling must not be NaN")
    if spec.repetitions < 1:
        bad.append(f"repetitions must be >= 1, got {spec.repetitions}")
    if spec.clock not in (VIRTUAL, REAL):
        bad.append(f"clock must be virtual or real, got {spec.clock!r}")
    if stages and spec.inputs is not None:
        n = stages[0].n
        if len(spec.inputs) != n:
            bad.append(f"inputs must list one value per user ({n}), got {len(spec.inputs)}")
    for f in spec.faults:
        if not stages:
            break
        if not (1 <= f.stage <= len(stages)):
            bad.append(f"fault stage {f.stage} out of range 1..{len(stages)}")
            continue
        n = stages[f.stage - 1].n
        if not (1 <= f.voter <= n):
            bad.append(f"fault voter {f.voter} out of range 1..{n} (stage {f.stage})")
        if f.kind is FaultKind.CORRUPT_INPUT and not f.pattern:
            bad.append("corrupt_input needs a non-empty byte pattern")
        if f.index < 0:
            bad.append(f"fault message index must be >= 0, got {f.index}")
        if f.delay is not None and not (f.delay >= 0):
            bad.append(f"fault delay must be >= 0, got {f.delay}")
        elif f.delay == math.inf:
            bad.append(f"fault delay must be finite, got {f.delay}")
    try:
        resolve_metric(spec.metric)
    except KeyError:
        bad.append(f"unknown metric {spec.metric!r}")
    return bad


def check_spec(spec: ExperimentSpec) -> None:
    bad = validate_spec(spec)
    if bad:
        raise SpecError(bad)


# -- JSON round trip -------------------------------------------------------------


def value_to_json(value: VoteValue):
    if value.numeric:
        return list(value.floats())
    return {"hex": value.data.hex()}


def value_from_json(obj) -> VoteValue:
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return VoteValue.from_floats([obj])
    if isinstance(obj, list):
        return VoteValue.from_floats(obj)
    if isinstance(obj, dict) and "hex" in obj:
        return VoteValue.from_bytes(bytes.fromhex(obj["hex"]))
    raise SpecError([f"cannot read a vote value from {obj!r}"])


def spec_to_json(spec: ExperimentSpec) -> dict:
    """Canonical JSON form; also echoed verbatim into every Report."""
    out = {
        "stages": [
            {
                "n": s.n,
                "algorithm": s.algorithm.name.lower(),
                "epsilon": s.epsilon,
                "scaling": s.scaling,
                "delta_t": s.delta_t,
            }
            for s in spec.pipeline.stages
        ],
        "inputs": None
        if spec.inputs is None
        else [value_to_json(v) for v in spec.inputs],
        "faults": [
            {
                "kind": f.kind.value,
                "stage": f.stage,
                "voter": f.voter,
                "pattern": f.pattern.hex(),
                "delay": f.delay,
                "index": f.index,
            }
            for f in spec.faults
        ],
        "seed": spec.seed,
        "clock": spec.clock,
        "repetitions": spec.repetitions,
        "metric": spec.metric,
    }
    return out


_ALGO_NAMES = {k.name.lower(): k for k in VoteKind}
_ALGO_NAMES["weighted-average"] = VoteKind.WEIGHTED_AVERAGE
_FAULT_NAMES = {k.value: k for k in FaultKind}


def _int_field(
    obj: dict, key: str, default: int | None, bad: list[str], where: str = ""
) -> int:
    """`obj[key]` as a JSON integer (never a float, string or bool), or
    `default` when the key is absent; a default of None makes the key
    required.  Each violation is appended to `bad`, prefixed by `where`."""
    if key not in obj and default is None:
        bad.append(f"{where}'{key}' is required")
        return 0
    value = obj.get(key, default)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    bad.append(f"{where}'{key}' must be an integer, got {value!r}")
    return 0 if default is None else default


def _float_field(
    obj: dict, key: str, default: float | None, bad: list[str], where: str = ""
) -> float | None:
    """`obj[key]` as a float read from a JSON number (an int or a float,
    never a string or bool), or `default` when the key is absent; a default
    of None lets the key also be null.  Each violation is appended to
    `bad`, prefixed by `where`."""
    value = obj.get(key, default)
    if value is None and default is None:
        return None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            bad.append(f"{where}'{key}' is too large for a float")
            return default
    bad.append(f"{where}'{key}' must be a number, got {value!r}")
    return default


def _list_field(obj: dict, key: str, bad: list[str]) -> list | None:
    value = obj.get(key)
    if value is None or isinstance(value, list):
        return value
    bad.append(f"'{key}' must be a list, got {type(value).__name__}")
    return None


def spec_from_json(obj: dict) -> ExperimentSpec:
    if not isinstance(obj, dict):
        raise SpecError([f"spec must be a JSON object, got {type(obj).__name__}"])
    bad: list[str] = []
    stages = []
    raw_stages = obj.get("stages")
    if not isinstance(raw_stages, list) or not raw_stages:
        bad.append("spec needs a non-empty 'stages' list")
        raw_stages = []
    for k, raw in enumerate(raw_stages, start=1):
        if not isinstance(raw, dict):
            bad.append(f"stage {k}: must be an object, got {type(raw).__name__}")
            continue
        name = str(raw.get("algorithm", "majority")).lower()
        kind = _ALGO_NAMES.get(name)
        if kind is None:
            bad.append(f"stage {k}: unknown algorithm {name!r}")
            kind = VoteKind.MAJORITY
        where = f"stage {k}: "
        stages.append(
            StageSpec(
                n=_int_field(raw, "n", 0, bad, where),
                algorithm=kind,
                epsilon=_float_field(raw, "epsilon", 0.0, bad, where),
                scaling=_float_field(raw, "scaling", 1.0, bad, where),
                delta_t=_float_field(raw, "delta_t", 1.0, bad, where),
            )
        )
    faults = []
    for i, raw in enumerate(_list_field(obj, "faults", bad) or [], start=1):
        if not isinstance(raw, dict):
            bad.append(f"fault {i}: must be an object, got {type(raw).__name__}")
            continue
        kind = _FAULT_NAMES.get(str(raw.get("kind", "")).lower())
        if kind is None:
            bad.append(f"fault {i}: unknown kind {raw.get('kind')!r}")
            continue
        where = f"fault {i}: "
        voter = _int_field(raw, "voter", None, bad, where)
        stage = _int_field(raw, "stage", 1, bad, where)
        index = _int_field(raw, "index", 0, bad, where)
        delay = _float_field(raw, "delay", None, bad, where)
        try:
            faults.append(
                FaultSpec(
                    kind=kind,
                    voter=voter,
                    stage=stage,
                    pattern=bytes.fromhex(raw.get("pattern", "ff")),
                    delay=delay,
                    index=index,
                )
            )
        except (TypeError, ValueError) as exc:
            bad.append(f"fault {i}: {exc!r}")
    inputs = _list_field(obj, "inputs", bad)
    values = None
    if inputs is not None:
        values = []
        for i, raw in enumerate(inputs, start=1):
            try:
                values.append(value_from_json(raw))
            except (SpecError, TypeError, ValueError) as exc:
                bad.append(f"input {i}: {exc}")
    seed = _int_field(obj, "seed", 0, bad)
    repetitions = _int_field(obj, "repetitions", 1, bad)
    if bad:
        raise SpecError(bad)
    spec = ExperimentSpec(
        pipeline=PipelineSpec(tuple(stages)),
        inputs=None if values is None else tuple(values),
        faults=tuple(faults),
        seed=seed,
        clock=str(obj.get("clock", VIRTUAL)),
        repetitions=repetitions,
        metric=str(obj.get("metric", "default")),
    )
    check_spec(spec)
    return spec


# -- experiment execution ----------------------------------------------------------


def _stage_farm(stage_index: int) -> str:
    return f"s{stage_index}"


@dataclass
class _UserRecord:
    injected_at: float | None = None
    messages_sent: int = 0
    closed: bool = False


def _stage_user(
    world: World,
    handle: FarmHandle,
    nodes: tuple[int, ...],
    value: VoteValue | None,
    rec: _UserRecord,
    source_ep,
    source_budget: float,
    delta_t: float,
    poll_limit: int,
):
    """One user module's whole life: obtain an input (given directly or
    pushed by the previous stage), drive the client sequence, poll for the
    outcome, close."""
    if source_ep is not None:
        got = yield Wait((source_ep,), source_budget)
        if got is not TIMED_OUT:
            msg = got[1]
            if msg.tag == Tag.VOTED_VALUE and msg.payload.ok:
                value = msg.payload.value
    for node in nodes:
        if not handle.add(node):
            return
    if not handle.run():
        return
    if value is not None:
        rec.injected_at = world.scheduler.now
        yield from handle.control([Input(value)])
        for _ in range(poll_limit):
            out = yield from handle.get(timeout=(2 * delta_t))
            if out is not None or handle.last_error == ErrorCode.TIMEOUT:
                break
            yield from sleep(delta_t)  # refused: round still open
    rec.messages_sent = handle.messages_sent
    for _ in range(poll_limit):
        rec.closed = yield from handle.close(timeout=(2 * delta_t))
        if rec.closed or handle.last_error == ErrorCode.TIMEOUT:
            break
        yield from sleep(delta_t)  # refused: retry once the round is over


def _install_faults(world: World, spec: ExperimentSpec, rng: random.Random) -> None:
    """Pre-halt crash targets and register per-link hooks.  Must run with
    farms activated (links exist) but users not yet started."""
    for f in spec.faults:
        farm = _stage_farm(f.stage)
        stage = spec.pipeline.stages[f.stage - 1]
        if f.kind is FaultKind.CRASH_USER:
            continue  # handled before farm activation
        if f.kind is FaultKind.CRASH_VOTER:
            continue  # handled before farm activation
        vname = voter_name(farm, f.voter)
        uname = user_name(farm, f.voter)
        if f.kind is FaultKind.CORRUPT_INPUT:
            link = world.fabric.link_between(uname, vname)
            world.fabric.add_hook(
                corrupt_hook(link, vname, f.pattern, index=f.index)
            )
            continue
        # DROP/DELAY: the target voter's broadcast frames, every fellow link.
        n = stage.n
        for other in range(1, n + 1):
            if other == f.voter:
                continue
            peer = voter_name(farm, other)
            link = world.fabric.link_between(vname, peer)
            if f.kind is FaultKind.DROP_MESSAGE:
                world.fabric.add_hook(drop_hook(link, peer, index=f.index))
            else:
                delay = f.delay
                if delay is None:
                    delay = rng.uniform(0.1, 0.9) * stage.delta_t
                world.fabric.add_hook(
                    delay_hook(link, peer, delay, index=f.index)
                )


def _crash_names(spec: ExperimentSpec) -> set[str]:
    names = set()
    for f in spec.faults:
        farm = _stage_farm(f.stage)
        if f.kind is FaultKind.CRASH_USER:
            names.add(user_name(farm, f.voter))
        elif f.kind is FaultKind.CRASH_VOTER:
            names.add(voter_name(farm, f.voter))
    return names


@dataclass
class StageCensus:
    stage: int
    virtual: int
    local: int
    voters: int


@dataclass
class CensusCheck:
    n: int
    expected_virtual: int
    expected_local: int
    expected_voters: int
    found_virtual: int
    found_local: int
    found_voters: int

    @property
    def passed(self) -> bool:
        return (
            self.found_virtual == self.expected_virtual
            and self.found_local == self.expected_local
            and self.found_voters == self.expected_voters
        )

    def detail(self) -> str:
        rows = [
            ("virtual links", self.expected_virtual, self.found_virtual),
            ("local links", self.expected_local, self.found_local),
            ("voter activities", self.expected_voters, self.found_voters),
        ]
        parts = [
            f"{name}: expected {want}, found {got}"
            + ("" if want == got else " (MISMATCH)")
            for name, want, got in rows
        ]
        return f"census n={self.n}: " + "; ".join(parts)


def census_check(fabric: Fabric, n: int) -> CensusCheck:
    """Check one fully wired farm of cardinality n against the counting
    rules: n local user links, n(n-1)/2 voter cross links, n voters."""
    c = fabric.census()
    return CensusCheck(
        n=n,
        expected_virtual=n * (n - 1) // 2,
        expected_local=n,
        expected_voters=n,
        found_virtual=c.virtual,
        found_local=c.local,
        found_voters=c.voters,
    )


@dataclass
class VoterResult:
    stage: int
    voter: int
    live: bool
    outcome: VoteOutcome | None
    round_started: float | None
    round_finished: float | None
    duration: float | None
    timeouts: int
    broadcasts: int
    refusals: int
    client_messages: int | None
    closed: bool


@dataclass
class RepetitionResult:
    repetition: int
    voters: list[VoterResult]
    duration: float | None


@dataclass
class Report:
    spec: dict
    census: list[StageCensus]
    repetitions: list[RepetitionResult]
    mean_duration: float | None
    stddev_duration: float | None

    def to_json_obj(self) -> dict:
        return {
            "spec": self.spec,
            "census": [
                {
                    "stage": c.stage,
                    "virtual": c.virtual,
                    "local": c.local,
                    "voters": c.voters,
                }
                for c in self.census
            ],
            "repetitions": [
                {
                    "repetition": r.repetition,
                    "duration": r.duration,
                    "voters": [
                        {
                            "stage": v.stage,
                            "voter": v.voter,
                            "live": v.live,
                            "ok": None if v.outcome is None else v.outcome.ok,
                            "value": (
                                value_to_json(v.outcome.value)
                                if v.outcome is not None and v.outcome.ok
                                else None
                            ),
                            "failure": (
                                v.outcome.failure.name
                                if v.outcome is not None and not v.outcome.ok
                                else None
                            ),
                            "outcome_hash": outcome_hash(v.outcome),
                            "round_started": v.round_started,
                            "round_finished": v.round_finished,
                            "duration": v.duration,
                            "timeouts": v.timeouts,
                            "broadcasts": v.broadcasts,
                            "refusals": v.refusals,
                            "client_messages": v.client_messages,
                            "closed": v.closed,
                        }
                        for v in r.voters
                    ],
                }
                for r in self.repetitions
            ],
            "aggregate": {
                "count": len(self.repetitions),
                "mean_duration": self.mean_duration,
                "stddev_duration": self.stddev_duration,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        lines = ["repetition,stage,voter,outcome_hash,duration"]
        for r in self.repetitions:
            for v in r.voters:
                dur = "" if v.duration is None else repr(v.duration)
                lines.append(
                    f"{r.repetition},{v.stage},{v.voter},{outcome_hash(v.outcome)},{dur}"
                )
        return "\n".join(lines) + "\n"


def outcome_hash(outcome: VoteOutcome | None) -> str:
    if outcome is None:
        return "none"
    if outcome.ok:
        tagged = b"ok:" + (b"f" if outcome.value.numeric else b"b") + outcome.value.data
    else:
        tagged = b"fail:" + outcome.failure.name.encode()
    return hashlib.sha256(tagged).hexdigest()[:16]


DEFAULT_INPUT = VoteValue.from_floats([42.0])


def _stage_nodes(spec: ExperimentSpec, k: int) -> tuple[int, ...]:
    n = spec.pipeline.stages[k - 1].n
    base = (k - 1) * n
    return tuple(base + i for i in range(1, n + 1))


def _push_budget(spec: ExperimentSpec, k: int) -> float:
    """How long a stage-k user waits for the upstream push: the worst-case
    serial timeout cost of every earlier stage plus any injected delays."""
    budget = 1.0
    for j in range(1, k):
        st = spec.pipeline.stages[j - 1]
        budget += (st.n + 4) * st.delta_t
    for f in spec.faults:
        if f.kind is FaultKind.DELAY_MESSAGE and f.stage < k and f.delay:
            budget += f.delay
    return budget


def _run_single_repetition(
    spec: ExperimentSpec, rep: int
) -> tuple[list[StageCensus], RepetitionResult]:
    rng = random.Random(f"{spec.seed}:{rep}")
    world = World(spec.clock)
    world.scheduler.kill_names |= _crash_names(spec)
    stages = spec.pipeline.stages
    last = len(stages)

    runtimes: list[FarmRuntime] = []
    for k, st in enumerate(stages, start=1):
        targets = None
        if k < last:
            targets = {
                i: user_name(_stage_farm(k + 1), i) for i in range(1, st.n + 1)
            }
        runtimes.append(
            world.activate_farm(
                _stage_farm(k),
                _stage_nodes(spec, k),
                metric=spec.metric,
                delta_t=st.delta_t,
                algorithm=st.algorithm_id(),
                output_targets=targets,
            )
        )
    cross_eps = {}
    for k in range(1, last):
        for i in range(1, stages[k - 1].n + 1):
            uname = user_name(_stage_farm(k + 1), i)
            link = world.fabric.connect(voter_name(_stage_farm(k), i), uname)
            cross_eps[(k + 1, i)] = link.endpoint_for(uname)
    _install_faults(world, spec, rng)

    records: dict[tuple[int, int], _UserRecord] = {}
    for k, st in enumerate(stages, start=1):
        farm = _stage_farm(k)
        nodes = _stage_nodes(spec, k)
        budget = _push_budget(spec, k)
        for i in range(1, st.n + 1):
            rec = records[(k, i)] = _UserRecord()
            if k == 1:
                value = DEFAULT_INPUT if spec.inputs is None else spec.inputs[i - 1]
                source = None
            else:
                value = None
                source = cross_eps[(k, i)]
            handle = open_farm(
                world,
                farm,
                i,
                metric=spec.metric,
                delta_t=st.delta_t,
                algorithm=st.algorithm_id(),
            )
            world.spawn_user(
                farm,
                i,
                _stage_user(
                    world,
                    handle,
                    nodes,
                    value,
                    rec,
                    source,
                    budget,
                    st.delta_t,
                    poll_limit=3 * st.n + 8,
                ),
            )

    census = []
    for k, rt in enumerate(runtimes, start=1):
        c = world.fabric.census(rt.members)
        census.append(StageCensus(k, c.virtual, c.local, c.voters))

    world.run()

    voters: list[VoterResult] = []
    finishes: list[float] = []
    for k, rt in enumerate(runtimes, start=1):
        injected = [
            records[(k, i)].injected_at
            for i in range(1, rt.n + 1)
            if records[(k, i)].injected_at is not None
        ]
        t0 = min(injected) if injected else None
        for i in range(1, rt.n + 1):
            vs = rt.states[i]
            act = world.scheduler.activities[voter_name(rt.farm, i)]
            rec = records[(k, i)]
            duration = None
            if vs.round_finished_at is not None and t0 is not None:
                duration = vs.round_finished_at - t0
            if k == last and vs.round_finished_at is not None:
                finishes.append(vs.round_finished_at)
            voters.append(
                VoterResult(
                    stage=k,
                    voter=i,
                    live=not act.halted,
                    outcome=vs.last_outcome,
                    round_started=vs.round_started_at,
                    round_finished=vs.round_finished_at,
                    duration=duration,
                    timeouts=vs.timeouts,
                    broadcasts=vs.broadcasts_sent,
                    refusals=vs.refusals,
                    client_messages=rec.messages_sent,
                    closed=rec.closed,
                )
            )

    first_injected = [
        records[(1, i)].injected_at
        for i in range(1, stages[0].n + 1)
        if records[(1, i)].injected_at is not None
    ]
    makespan = None
    if finishes and first_injected:
        makespan = max(finishes) - min(first_injected)
    return census, RepetitionResult(rep, voters, makespan)


def run_experiment(spec: ExperimentSpec) -> Report:
    """Validate, run every repetition in a fresh world, aggregate."""
    check_spec(spec)
    census: list[StageCensus] = []
    reps: list[RepetitionResult] = []
    for rep in range(spec.repetitions):
        census, result = _run_single_repetition(spec, rep)
        reps.append(result)
    durations = [r.duration for r in reps]
    mean = stddev = None
    if all(d is not None for d in durations):
        mean = statistics.fmean(durations)
        stddev = statistics.stdev(durations) if len(durations) > 1 else 0.0
    return Report(
        spec=spec_to_json(spec),
        census=census,
        repetitions=reps,
        mean_duration=mean,
        stddev_duration=stddev,
    )


def run_pipeline(spec: ExperimentSpec) -> Report:
    """run_experiment, but insisting on an actual chain of stages."""
    if len(spec.pipeline.stages) < 2:
        raise SpecError(["a pipeline needs at least two stages"])
    return run_experiment(spec)


# -- timing bench -----------------------------------------------------------------


@dataclass
class BenchRow:
    n: int
    repetitions: int
    mean_duration: float
    stddev_duration: float


def bench_to_json(rows: list[BenchRow]) -> str:
    return json.dumps([asdict(r) for r in rows], indent=2, sort_keys=True) + "\n"


def bench_to_csv(rows: list[BenchRow]) -> str:
    lines = [",".join(f.name for f in fields(BenchRow))]
    lines += [",".join(map(repr, astuple(r))) for r in rows]
    return "\n".join(lines) + "\n"


def _bench_user(world, handle, nodes, go, done, delta_t):
    for node in nodes:
        if not handle.add(node):
            return
    if not handle.run():
        return
    while True:
        wave = yield Wait((go,), None)
        if wave[1] is None:
            break
        yield from handle.control([Input(DEFAULT_INPUT)])
        for _ in range(10):
            out = yield from handle.get(timeout=5 * delta_t)
            if out is not None or handle.last_error == ErrorCode.TIMEOUT:
                break
            yield from sleep(delta_t)
        done.put(1)
    yield from handle.close()


def _bench_coordinator(world, n, waves, go_sources, done, durations):
    for _ in range(waves):
        start = world.scheduler.now
        for src in go_sources:
            src.put(0)
        for _ in range(n):
            yield Wait((done,), None)
        durations.append(world.scheduler.now - start)
    for src in go_sources:
        src.put(None)


def bench(
    n_values=(1, 2, 3, 4),
    repetitions: int = 50,
    delta_t: float = 0.05,
    include_warmup: bool = False,
) -> list[BenchRow]:
    """Measure real-clock round latency per farm size.

    Rounds run in gated waves (every voter must finish wave w before any
    wave w+1 input goes in) so repetitions never overlap.  The first wave
    warms caches and is dropped unless asked for.
    """
    if repetitions < 1:
        raise SpecError([f"repetitions must be >= 1, got {repetitions}"])
    rows = []
    for n in n_values:
        world = World(REAL)
        farm = f"bench{n}"
        nodes = tuple(range(1, n + 1))
        world.activate_farm(farm, nodes, delta_t=delta_t)
        sched = world.scheduler
        done = WaitSource(sched)
        durations: list[float] = []
        go_sources = []
        for i in range(1, n + 1):
            go = WaitSource(sched)
            go_sources.append(go)
            handle = open_farm(world, farm, i, delta_t=delta_t)
            world.spawn_user(
                farm, i, _bench_user(world, handle, nodes, go, done, delta_t)
            )
        world.spawn(
            "bench/coordinator",
            _bench_coordinator(world, n, repetitions + 1, go_sources, done, durations),
        )
        world.run()
        kept = durations if include_warmup else durations[1:]
        rows.append(
            BenchRow(
                n=n,
                repetitions=len(kept),
                mean_duration=statistics.fmean(kept),
                stddev_duration=statistics.stdev(kept) if len(kept) > 1 else 0.0,
            )
        )
    return rows


# -- independent voting oracle ------------------------------------------------------


def _oracle_metric(metric):
    if metric is None or metric == "default":
        return lambda a, b: 0.0 if a.data == b.data else 1.0
    if metric == "euclidean":
        def euclid(a, b):
            xs, ys = a.floats(), b.floats()
            if len(xs) != len(ys):
                return float("inf")
            return math.sqrt(sum((x - y) ** 2 for x, y in zip(xs, ys)))
        return euclid
    return metric


def oracle_vote(
    kind: VoteKind,
    values,
    epsilon: float = 0.0,
    metric=None,
    scaling: float = 1.0,
) -> VoteOutcome:
    """Brute-force reference vote over `values` (None marks an invalid
    slot).  Exists solely to check the production algorithms; written from
    the voting rules directly, sharing no code with them.  Sizes beyond a
    handful of slots are out of scope.
    """
    if len(values) > 6:
        raise ValueError("oracle handles at most 6 slots")
    d = _oracle_metric(metric)
    n = len(values)
    valid = [i for i in range(n) if values[i] is not None]

    if kind == VoteKind.MEDIAN:
        if not valid:
            return VoteOutcome(failure=ErrorCode.BAD_STATE)
        left = list(valid)
        while len(left) > 2:
            worst = max(
                (d(values[a], values[b]), (a, b))
                for ai, a in enumerate(left)
                for b in left[ai + 1 :]
            )
            # max() on (distance, pair) picks the lexicographically largest
            # pair among equal distances; the rule wants the smallest.
            worst_d = worst[0]
            pair = min(
                (a, b)
                for ai, a in enumerate(left)
                for b in left[ai + 1 :]
                if d(values[a], values[b]) == worst_d
            )
            left = [i for i in left if i not in pair]
        return VoteOutcome(value=values[min(left)])

    if kind == VoteKind.WEIGHTED_AVERAGE:
        if not valid:
            return VoteOutcome(failure=ErrorCode.BAD_STATE)
        if any(not values[i].numeric for i in valid):
            return VoteOutcome(failure=ErrorCode.BAD_STATE)
        dims = {values[i].dimension for i in valid}
        if len(dims) != 1:
            return VoteOutcome(failure=ErrorCode.BAD_STATE)
        dim = dims.pop()
        raw = {}
        for i in valid:
            total = 0.0
            for j in valid:
                if j != i:
                    total += d(values[i], values[j])
            raw[i] = 1.0 / (1.0 + scaling * total)
        z = sum(raw[i] for i in valid)
        if not (z > 0.0) or math.isinf(z) or math.isnan(z):
            return VoteOutcome(failure=ErrorCode.BAD_STATE)
        out = [0.0] * dim
        for i in valid:
            w = raw[i] / z
            comps = values[i].floats()
            for c in range(dim):
                out[c] += w * comps[c]
        return VoteOutcome(value=VoteValue.from_floats(out))

    # majority / plurality share first-fit classes over the valid slots
    classes: list[list[int]] = []
    for i in valid:
        for cls in classes:
            if d(values[i], values[cls[0]]) <= epsilon:
                cls.append(i)
                break
        else:
            classes.append([i])

    def representative(cls):
        scored = [
            (sum(d(values[i], values[j]) for j in cls), i) for i in cls
        ]
        return min(scored)[1]

    if kind == VoteKind.MAJORITY:
        for cls in classes:
            if 2 * len(cls) > n:
                return VoteOutcome(value=values[representative(cls)])
        return VoteOutcome(failure=ErrorCode.NO_MAJORITY)

    if kind == VoteKind.PLURALITY:
        if not classes:
            return VoteOutcome(failure=ErrorCode.BAD_STATE)
        top = max(len(c) for c in classes)
        best = min(c[0] for c in classes if len(c) == top)
        cls = next(c for c in classes if c[0] == best)
        return VoteOutcome(value=values[representative(cls)])

    raise ValueError(f"oracle does not know {kind!r}")
