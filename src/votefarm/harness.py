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
from dataclasses import astuple, dataclass, fields, is_dataclass
from enum import Enum

from .client import FarmHandle, Input, World
from .core import (
    MAX_SENDER_ID,
    AlgorithmId,
    ErrorCode,
    Tag,
    VoteKind,
    VoteOutcome,
    VoteValue,
)
from .sim import REAL, TIMED_OUT, VIRTUAL, Wait
from .transport import LinkCensus, corrupt_hook, delay_hook, drop_hook
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


def _is_number(obj) -> bool:
    return isinstance(obj, (int, float)) and not isinstance(obj, bool)


def _float(key: str, value) -> float:
    """A number (an int or a float, never a bool) as a float."""
    if not _is_number(value):
        raise SpecError([f"'{key}' must be a number, got {value!r}"])
    try:
        return float(value)
    except OverflowError:
        raise SpecError([f"'{key}' is too large for a float"]) from None


def _instance(cls: type, what: str):
    def check(key: str, value):
        if isinstance(value, cls) and not isinstance(value, bool):
            return value
        raise SpecError([f"'{key}' must be {what}, got {value!r}"])

    return check


# The rule of each declared type of a scalar spec field, by annotation: the
# value the named field holds (a float field's as a float), or a SpecError.
_TYPE_RULES = {
    "int": _instance(int, "an integer"),
    "float": _float,
    "float | None": lambda key, value: None if value is None else _float(key, value),
    "str": _instance(str, "a string"),
    "bytes": _instance(bytes, "bytes"),
    "VoteKind": _instance(VoteKind, "a VoteKind"),
    "FaultKind": _instance(FaultKind, "a FaultKind"),
}
# The rule of each scalar field of each checked class, by field name.
_FIELD_RULES = {
    cls: {f.name: _TYPE_RULES[f.type] for f in fields(cls) if f.type in _TYPE_RULES}
    for cls in (StageSpec, FaultSpec, ExperimentSpec, VoteValue)
}


def _type_errors(record, cls: type) -> list[str]:
    """One violation if `record` is not a `cls`, else one per scalar field
    whose value breaks the rule of its declared type."""
    if not isinstance(record, cls):
        return [f"must be a {cls.__name__}, got {record!r}"]
    bad = []
    for name, rule in _FIELD_RULES[cls].items():
        try:
            rule(name, getattr(record, name))
        except SpecError as exc:
            bad += exc.violations
    return bad


def _typed(items, cls: type, label: str, bad: list[str]) -> dict:
    """The items without a type violation, by 1-based position; each other
    item's violations go to `bad`, prefixed by `label` and its position."""
    out = {}
    for k, item in enumerate(items, start=1):
        errs = _type_errors(item, cls)
        bad += [f"{label} {k}: {err}" for err in errs]
        if not errs:
            out[k] = item
    return out


def _is(key: str, value, cls: type, bad: list[str]) -> bool:
    """Whether `value` is a `cls`; if not, one violation goes to `bad`."""
    if not (ok := isinstance(value, cls)):
        bad.append(f"'{key}' must be a {cls.__name__}, got {value!r}")
    return ok


def validate_spec(spec: ExperimentSpec) -> list[str]:
    """Collect every violated constraint (empty list when valid).  A stage,
    fault or input of the wrong type, or one with a field of the wrong
    type, gets those violations in place of its range checks, and so does
    the spec, its pipeline and a `stages`, `inputs` or `faults` not a tuple."""
    bad: list[str] = []
    pipeline, stages = spec.pipeline, ()
    if _is("pipeline", pipeline, PipelineSpec, bad) and _is("stages", pipeline.stages, tuple, bad):
        stages = pipeline.stages
        if not stages:
            bad.append("pipeline needs at least one stage")
    typed = _typed(stages, StageSpec, "stage", bad)
    ns = {s.n for s in typed.values()}
    if len(ns) > 1:
        bad.append(f"all stages must share one cardinality, got {sorted(ns)}")
    for k, s in typed.items():
        if s.n < 1:
            bad.append(f"stage {k}: n must be >= 1, got {s.n}")
        elif s.n > MAX_SENDER_ID:
            bad.append(f"stage {k}: n must be <= {MAX_SENDER_ID}, got {s.n}")
        if not (s.delta_t > 0):
            bad.append(f"stage {k}: delta_t must be > 0, got {s.delta_t}")
        elif s.delta_t == math.inf:
            bad.append(f"stage {k}: delta_t must be finite, got {s.delta_t}")
        if not (s.epsilon >= 0):
            bad.append(f"stage {k}: epsilon must be >= 0, got {s.epsilon}")
        if math.isnan(s.scaling):
            bad.append(f"stage {k}: scaling must not be NaN")
        elif s.scaling < 0:
            bad.append(f"stage {k}: scaling must be >= 0, got {s.scaling}")
        elif s.scaling == math.inf:
            bad.append(f"stage {k}: scaling must be finite, got {s.scaling}")
    bad += (spec_bad := _type_errors(spec, ExperimentSpec))
    if not spec_bad and spec.repetitions < 1:
        bad.append(f"repetitions must be >= 1, got {spec.repetitions}")
    if not spec_bad and spec.clock not in (VIRTUAL, REAL):
        bad.append(f"clock must be virtual or real, got {spec.clock!r}")
    if spec.inputs is not None and _is("inputs", spec.inputs, tuple, bad):
        _typed(spec.inputs, VoteValue, "input", bad)
        if 1 in typed and len(spec.inputs) != (n := typed[1].n):
            bad.append(f"inputs must list one value per user ({n}), got {len(spec.inputs)}")
    faults = spec.faults if _is("faults", spec.faults, tuple, bad) else ()
    for f in _typed(faults, FaultSpec, "fault", bad).values():
        if not stages:
            break
        if not (1 <= f.stage <= len(stages)):
            bad.append(f"fault stage {f.stage} out of range 1..{len(stages)}")
            continue
        if f.stage in typed and not (1 <= f.voter <= (n := typed[f.stage].n)):
            bad.append(f"fault voter {f.voter} out of range 1..{n} (stage {f.stage})")
        if f.kind is FaultKind.CORRUPT_INPUT and not f.pattern:
            bad.append("corrupt_input needs a non-empty byte pattern")
        if f.index < 0:
            bad.append(f"fault message index must be >= 0, got {f.index}")
        if f.delay is not None and not (f.delay >= 0):
            bad.append(f"fault delay must be >= 0, got {f.delay}")
        elif f.delay == math.inf:
            bad.append(f"fault delay must be finite, got {f.delay}")
    if not spec_bad:
        try:
            resolve_metric(spec.metric)
        except KeyError:
            bad.append(f"unknown metric {spec.metric!r}")
    return bad


def check_spec(spec: ExperimentSpec) -> None:
    if bad := validate_spec(spec):
        raise SpecError(bad)


# -- JSON round trip -------------------------------------------------------------


def value_to_json(value: VoteValue):
    if value.numeric:
        return list(value.floats())
    return {"hex": value.data.hex()}


def value_from_json(obj) -> VoteValue:
    """A JSON number, a non-empty list of JSON numbers, or {"hex": ...}
    (no other key) with at least one byte; anything else raises a
    SpecError.  A list with components that are not JSON numbers (bools,
    strings) raises one SpecError naming each of them."""
    if isinstance(obj, dict) and obj.keys() == {"hex"} and (data := _hex("hex", obj["hex"])):
        return VoteValue.from_bytes(data)
    if _is_number(obj):
        obj = [obj]
    if not isinstance(obj, list) or not obj:
        raise SpecError([f"cannot read a vote value from {obj!r}"])
    bad = [
        f"component {k} must be a number, got {c!r}"
        for k, c in enumerate(obj, start=1)
        if not _is_number(c)
    ]
    if bad:
        raise SpecError(bad)
    try:
        return VoteValue.from_floats(obj)
    except OverflowError:
        raise SpecError(["a component is too large for a float"]) from None


def _to_json(obj):
    """The JSON form of a spec, report or bench object: a dataclass is an
    object of its fields, an enum its lower-case name, bytes their hex, a
    VoteValue its `value_to_json` form and a tuple or list a list.  A
    voter row's outcome is four keys, and its failure keeps the upper-case
    ErrorCode name."""
    if isinstance(obj, VoteValue):
        return value_to_json(obj)
    if is_dataclass(obj):
        out = {f.name: _to_json(getattr(obj, f.name)) for f in fields(obj)}
        if isinstance(obj, VoterResult):
            ok = None if obj.outcome is None else obj.outcome.ok
            del out["outcome"]
            out.update(
                ok=ok,
                value=value_to_json(obj.outcome.value) if ok else None,
                failure=obj.outcome.failure.name if ok is False else None,
                outcome_hash=outcome_hash(obj.outcome),
            )
        return out
    if isinstance(obj, Enum):
        return obj.name.lower()
    if isinstance(obj, bytes):
        return obj.hex()
    if isinstance(obj, (tuple, list)):
        return [_to_json(item) for item in obj]
    return obj


def spec_to_json(spec: ExperimentSpec) -> dict:
    """Canonical JSON form; also echoed verbatim into every Report."""
    out = _to_json(spec)
    out["stages"] = out.pop("pipeline")["stages"]
    return out


_ALGO_NAMES = {k.name.lower(): k for k in VoteKind}
_ALGO_NAMES["weighted-average"] = VoteKind.WEIGHTED_AVERAGE
_FAULT_NAMES = {k.value: k for k in FaultKind}

# Each reader takes a JSON key and its value and returns the spec field, or
# raises a SpecError that names what is wrong with the value.  A field read
# as it is written has no reader: its type rule reads it.


def _hex(key: str, value) -> bytes:
    try:
        return bytes.fromhex(value)
    except (TypeError, ValueError):
        raise SpecError([f"'{key}' must be a hex string, got {value!r}"]) from None


def _one_of(names: dict, what: str):
    def read(key: str, value):
        try:
            return names[str(value).lower()]
        except KeyError:
            raise SpecError([f"unknown {what} {value!r}"]) from None

    return read


def _list(key: str, value) -> list:
    """A JSON list; null reads as an empty one."""
    if value is None or isinstance(value, list):
        return value or []
    raise SpecError([f"'{key}' must be a list, got {type(value).__name__}"])


def _each(read, items: list, label: str) -> tuple:
    """`read` applied to every item; one SpecError names each violation,
    prefixed by the item's label and 1-based position."""
    out, bad = [], []
    for k, item in enumerate(items, start=1):
        try:
            out.append(read(item))
        except SpecError as exc:
            bad.extend(f"{label} {k}: {v}" for v in exc.violations)
    if bad:
        raise SpecError(bad)
    return tuple(out)


def _read_object(obj, cls: type, readers: dict, required: tuple[str, ...] = ()) -> dict:
    """The keys of `obj`, each read by its reader in `readers`, else by
    its field's type rule in `cls`.  Only the keys given are returned, so
    an absent one takes the dataclass's default.  One SpecError names
    every unknown key, missing required key and unreadable value."""
    if not isinstance(obj, dict):
        raise SpecError([f"must be an object, got {type(obj).__name__}"])
    out, bad = {}, []
    for key, value in obj.items():
        if not (read := readers.get(key) or _FIELD_RULES[cls].get(key)):
            bad.append(f"unknown key {key!r}")
            continue
        try:
            out[key] = read(key, value)
        except SpecError as exc:
            bad.extend(exc.violations)
    bad.extend(f"'{key}' is required" for key in required if key not in obj)
    if bad:
        raise SpecError(bad)
    return out


def _stage(obj) -> StageSpec:
    return StageSpec(**_read_object(obj, StageSpec, _STAGE_READERS, required=("n",)))


def _fault(obj) -> FaultSpec:
    return FaultSpec(**_read_object(obj, FaultSpec, _FAULT_READERS, required=("kind", "voter")))


def _stages(key: str, value) -> PipelineSpec:
    if not isinstance(value, list) or not value:
        raise SpecError(["spec needs a non-empty 'stages' list"])
    return PipelineSpec(_each(_stage, value, "stage"))


def _inputs(key: str, value) -> tuple[VoteValue, ...] | None:
    return None if value is None else _each(value_from_json, _list(key, value), "input")


_STAGE_READERS = {"algorithm": _one_of(_ALGO_NAMES, "algorithm")}
_FAULT_READERS = {"kind": _one_of(_FAULT_NAMES, "kind"), "pattern": _hex}
_SPEC_READERS = {
    "stages": _stages,
    "inputs": _inputs,
    "faults": lambda key, value: _each(_fault, _list(key, value), "fault"),
}


def spec_from_json(obj: dict) -> ExperimentSpec:
    """The spec a JSON object describes (the form `spec_to_json` writes).
    A key left out takes the spec dataclass's default; every violation,
    an unknown key included, is listed in one SpecError."""
    if not isinstance(obj, dict):
        raise SpecError([f"spec must be a JSON object, got {type(obj).__name__}"])
    # an absent 'stages' reads as null, which its reader refuses
    read = _read_object({"stages": None, **obj}, ExperimentSpec, _SPEC_READERS)
    spec = ExperimentSpec(pipeline=read.pop("stages"), **read)
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
    handle: FarmHandle,
    value: VoteValue | None,
    rec: _UserRecord,
    source_ep,
    source_budget: float,
):
    """One user module's whole life, on a handle attached to its farm:
    obtain an input (given directly or pushed by the previous stage), feed
    it and ask once for the outcome, and if the round is still open, wait
    for the voter's DONE push and ask again; close.  A user with no input
    waits for the push before it closes, so that its voter takes part in
    the round its fellows open."""
    if source_ep is not None:
        got = yield Wait((source_ep.inbox,), source_budget)
        if got is not TIMED_OUT:
            msg = got[1]
            if msg.tag == Tag.VOTED_VALUE and msg.payload.ok:
                value = msg.payload.value
    timeout = 2 * handle.delta_t
    budget = (3 * len(handle.nodes) + 8) * 3 * handle.delta_t  # 3N + 8 timeouts and sleeps
    if value is None:
        yield from handle.await_done(budget)
    else:
        rec.injected_at = handle.world.scheduler.now
        yield from handle.control([Input(value)])
        if (yield from handle.get(timeout)) is None and handle.last_error is ErrorCode.NONE:
            yield from handle.await_done(budget)
            yield from handle.get(timeout)
    rec.messages_sent = handle.messages_sent
    rec.closed = yield from handle.close(timeout)


def _install_faults(world: World, spec: ExperimentSpec, rng: random.Random) -> None:
    """Pre-halt crash targets and register a hook per faulty sender and
    receiver, by name.  Must run before any farm is activated."""
    fabric = world.fabric
    for f in spec.faults:
        farm = _stage_farm(f.stage)
        vname = voter_name(farm, f.voter)
        uname = user_name(farm, f.voter)
        if f.kind is FaultKind.CRASH_USER:
            world.scheduler.kill_names.add(uname)
        elif f.kind is FaultKind.CRASH_VOTER:
            world.scheduler.kill_names.add(vname)
        elif f.kind is FaultKind.CORRUPT_INPUT:
            fabric.add_hook(corrupt_hook(uname, vname, f.pattern, index=f.index))
        else:
            # DROP/DELAY: the target voter's broadcast frames to every fellow.
            stage = spec.pipeline.stages[f.stage - 1]
            for other in range(1, stage.n + 1):
                if other == f.voter:
                    continue
                peer = voter_name(farm, other)
                if f.kind is FaultKind.DROP_MESSAGE:
                    fabric.add_hook(drop_hook(vname, peer, index=f.index))
                else:
                    delay = f.delay
                    if delay is None:
                        delay = rng.uniform(0.1, 0.9) * stage.delta_t
                    fabric.add_hook(delay_hook(vname, peer, delay, index=f.index))


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
    census: list[LinkCensus]  # one per stage, in stage order
    repetitions: list[RepetitionResult]
    mean_duration: float | None
    stddev_duration: float | None

    def to_json_obj(self) -> dict:
        return {
            "spec": self.spec,
            "census": [{"stage": k, **_to_json(c)} for k, c in enumerate(self.census, start=1)],
            "repetitions": _to_json(self.repetitions),
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
    return tuple(range((k - 1) * n + 1, k * n + 1))


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
) -> tuple[list[LinkCensus], RepetitionResult]:
    rng = random.Random(f"{spec.seed}:{rep}")
    world = World(spec.clock)
    _install_faults(world, spec, rng)
    stages = spec.pipeline.stages
    last = len(stages)

    runtimes: list[FarmRuntime] = []
    for k, st in enumerate(stages, start=1):
        runtimes.append(
            world.activate_farm(
                _stage_farm(k),
                _stage_nodes(spec, k),
                metric=spec.metric,
                delta_t=st.delta_t,
                algorithm=st.algorithm_id(),
            )
        )

    records: list[list[_UserRecord]] = []  # per stage, in user order
    for k, (st, rt) in enumerate(zip(stages, runtimes), start=1):
        budget = _push_budget(spec, k)
        records.append([_UserRecord() for _ in range(st.n)])
        for i, rec in enumerate(records[-1], start=1):
            user = rt.user_endpoints[i].name  # the name the farm formatted
            if k == 1:
                value = DEFAULT_INPUT if spec.inputs is None else spec.inputs[i - 1]
                source = None
            else:
                value = None
                upstream = runtimes[k - 2].states[i]
                upstream.output_target = user  # its voted value goes down the link made next
                _, source = world.fabric.connect(upstream.name, user)
            handle = FarmHandle(world, rt.farm, i)
            handle.attach(rt)
            world.scheduler.spawn(user, _stage_user(handle, value, rec, source, budget), "user")

    census = [world.fabric.census(rt.members) for rt in runtimes]

    try:
        world.run()
    finally:
        world.scheduler.close()  # also after a raise; the results below stay readable

    voters: list[VoterResult] = []
    for k, (rt, recs) in enumerate(zip(runtimes, records), start=1):
        t0 = min([rec.injected_at for rec in recs if rec.injected_at is not None], default=None)
        if k == 1:
            start = t0  # the makespan's start
        for i, rec in enumerate(recs, start=1):
            vs = rt.states[i]
            act = world.scheduler.activities[vs.name]
            duration = None
            if vs.round_finished_at is not None and t0 is not None:
                duration = vs.round_finished_at - t0
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

    finishes = [
        v.round_finished for v in voters if v.stage == last and v.round_finished is not None
    ]
    makespan = None
    if finishes and start is not None:
        makespan = max(finishes) - start
    return census, RepetitionResult(rep, voters, makespan)


def _mean_stddev(durations: list[float]) -> tuple[float, float]:
    """The mean and sample standard deviation (0.0 for one value) of the
    round durations of a report or a bench row."""
    stddev = statistics.stdev(durations) if len(durations) > 1 else 0.0
    return statistics.fmean(durations), stddev


def run_experiment(spec: ExperimentSpec) -> Report:
    """Validate, run every repetition in a fresh world, aggregate."""
    check_spec(spec)
    census: list[LinkCensus] = []
    reps: list[RepetitionResult] = []
    for rep in range(spec.repetitions):
        census, result = _run_single_repetition(spec, rep)
        reps.append(result)
    durations = [r.duration for r in reps]
    mean = stddev = None
    if all(d is not None for d in durations):
        mean, stddev = _mean_stddev(durations)
    return Report(
        spec=spec_to_json(spec),
        census=census,
        repetitions=reps,
        mean_duration=mean,
        stddev_duration=stddev,
    )


# -- timing bench -----------------------------------------------------------------


@dataclass
class BenchRow:
    n: int
    repetitions: int
    mean_duration: float
    stddev_duration: float


def bench_to_json(rows: list[BenchRow]) -> str:
    return json.dumps(_to_json(rows), indent=2, sort_keys=True) + "\n"


def bench_to_csv(rows: list[BenchRow]) -> str:
    lines = [",".join(f.name for f in fields(BenchRow))]
    lines += [",".join(map(repr, astuple(r))) for r in rows]
    return "\n".join(lines) + "\n"


def check_bench(n_values, repetitions: int, delta_t: float) -> list[ExperimentSpec]:
    """The one-stage real-clock spec of each farm size, in size order; one
    SpecError lists every violation of all the sizes, each once."""
    specs = [
        ExperimentSpec(
            PipelineSpec((StageSpec(n, delta_t=delta_t),)),
            clock=REAL,
            repetitions=repetitions,
        )
        for n in n_values
    ]
    bad = dict.fromkeys(v for spec in specs for v in validate_spec(spec))
    if bad:
        raise SpecError(list(bad))
    return specs


def bench(
    n_values=(1, 2, 3, 4), repetitions: int = 50, delta_t: float = 0.05
) -> list[BenchRow]:
    """Measure real-clock round latency per farm size.

    A round's duration is the makespan `run --clock real` reports for the
    size's one-stage spec (see `check_bench`), each repetition in a fresh
    world.  The sizes take turns, repetition by repetition, so a drift in
    the host's speed falls on every size alike.  The first repetition of
    each size warms caches and is dropped.
    """
    specs = check_bench(n_values, repetitions, delta_t)
    durations: list[list[float]] = [[] for _ in specs]
    for rep in range(repetitions + 1):
        for spec, taken in zip(specs, durations):
            taken.append(_run_single_repetition(spec, rep)[1].duration)
    return [
        BenchRow(n, repetitions, *_mean_stddev(taken[1:]))
        for n, taken in zip(n_values, durations)
    ]


# -- independent voting oracle ------------------------------------------------------


def _oracle_metric(metric):
    if metric is None or metric == "default":
        return lambda a, b: 0.0 if a == b else 1.0
    if metric == "euclidean":
        def euclid(a, b):  # values with no numeric view or of two dimensions: equal or inf
            if not (a.numeric and b.numeric) or a.dimension != b.dimension:
                return 0.0 if a == b else float("inf")
            return math.sqrt(sum((x - y) ** 2 for x, y in zip(a.floats(), b.floats())))
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

        def far(a, b):  # a NaN distance counts as +inf
            x = d(values[a], values[b])
            return math.inf if math.isnan(x) else x

        left = list(valid)
        while len(left) > 2:
            worst = max(
                (far(a, b), (a, b))
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
                if far(a, b) == worst_d
            )
            left = [i for i in left if i not in pair]
        return VoteOutcome(value=values[min(left)])

    if kind == VoteKind.WEIGHTED_AVERAGE:  # no valid slot: no dimension, BAD_STATE
        if any(not values[i].numeric for i in valid):
            return VoteOutcome(failure=ErrorCode.BAD_STATE)
        dims = {values[i].dimension for i in valid}
        if len(dims) != 1:
            return VoteOutcome(failure=ErrorCode.BAD_STATE)
        dim = dims.pop()
        # a value with a NaN or infinite component weighs 0 (none left: z = 0)
        valid = [i for i in valid if all(math.isfinite(x) for x in values[i].floats())]
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
