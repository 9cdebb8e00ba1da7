"""Experiment harness: spec validation, fault injection, reports."""

import gc
import hashlib
from collections import Counter
import json
import math
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votefarm import harness, voting
from votefarm.core import MAX_SENDER_ID, ErrorCode, VoteKind, VoteOutcome, VoteValue
from votefarm.harness import (
    DEFAULT_INPUT,
    ExperimentSpec,
    FaultKind,
    FaultSpec,
    PipelineSpec,
    RepetitionResult,
    SpecError,
    StageSpec,
    VoterResult,
    bench,
    outcome_hash,
    run_experiment,
    spec_from_json,
    spec_to_json,
    validate_spec,
    value_from_json,
    value_to_json,
)
from votefarm.client import FarmHandle, World
from votefarm.sim import VIRTUAL
from votefarm.transport import LinkCensus


def tmr(**kw) -> ExperimentSpec:
    stage_kw = {
        k: kw.pop(k)
        for k in ("algorithm", "epsilon", "scaling", "delta_t")
        if k in kw
    }
    return ExperimentSpec(
        pipeline=PipelineSpec((StageSpec(n=3, **stage_kw),)),
        metric="euclidean",
        **kw,
    )


def one_float(outcome: VoteOutcome) -> float:
    assert outcome is not None and outcome.ok
    return outcome.value.floats()[0]


# -- validation ---------------------------------------------------------------


def test_validation_collects_every_violation():
    spec = ExperimentSpec(
        pipeline=PipelineSpec(
            (
                StageSpec(n=3, delta_t=0.0),
                StageSpec(n=2, epsilon=-1.0, scaling=float("nan")),
            )
        ),
        inputs=(DEFAULT_INPUT,),
        faults=(
            FaultSpec(kind=FaultKind.CORRUPT_INPUT, voter=9, stage=7),
            FaultSpec(
                kind=FaultKind.CORRUPT_INPUT,
                voter=1,
                pattern=b"",
                delay=-0.5,
                index=-1,
            ),
            FaultSpec(kind=FaultKind.CRASH_USER, voter=4),
        ),
        clock="lunar",
        repetitions=0,
        metric="nope",
    )
    bad = validate_spec(spec)
    text = "\n".join(bad)
    for needle in (
        "share one cardinality",
        "stage 1: delta_t must be > 0",
        "stage 2: epsilon must be >= 0",
        "stage 2: scaling must not be NaN",
        "repetitions must be >= 1",
        "clock must be virtual or real",
        "inputs must list one value per user (3), got 1",
        "fault stage 7 out of range 1..2",
        "fault voter 4 out of range 1..3 (stage 1)",
        "non-empty byte pattern",
        "index must be >= 0",
        "delay must be >= 0",
        "unknown metric 'nope'",
    ):
        assert needle in text, needle
    assert len(bad) == 13
    with pytest.raises(SpecError) as err:
        run_experiment(spec)
    assert err.value.violations == bad
    assert "share one cardinality" in str(err.value)


def test_valid_spec_has_no_violations():
    assert validate_spec(tmr()) == []


def test_infinite_delta_t_is_a_spec_error():
    """A real-clock run would overflow its timer arithmetic on a crashed
    voter's silence; validation must reject the spec first."""
    spec = tmr(
        delta_t=math.inf,
        clock="real",
        faults=(FaultSpec(FaultKind.CRASH_VOTER, voter=2),),
    )
    assert validate_spec(spec) == ["stage 1: delta_t must be finite, got inf"]
    with pytest.raises(SpecError):
        run_experiment(spec)


def test_a_farm_larger_than_the_sender_field_is_a_spec_error(monkeypatch):
    """Voter 65536 cannot be named in a frame, so a stage that large is
    refused before any world is built."""
    monkeypatch.setattr(harness, "World", None)  # building one would raise

    def spec(n):
        return ExperimentSpec(pipeline=PipelineSpec((StageSpec(n=3), StageSpec(n=n))))

    assert MAX_SENDER_ID == 65535
    assert validate_spec(spec(3)) == []
    assert validate_spec(spec(65536)) == [
        "all stages must share one cardinality, got [3, 65536]",
        "stage 2: n must be <= 65535, got 65536",
    ]
    with pytest.raises(SpecError):
        run_experiment(spec(65536))


def test_infinite_scaling_is_a_spec_error():
    """A weight of inf * 0 is NaN, which would fail every weighted-average
    vote; validation must reject the spec first."""
    spec = tmr(algorithm=VoteKind.WEIGHTED_AVERAGE, scaling=math.inf)
    assert validate_spec(spec) == ["stage 1: scaling must be finite, got inf"]
    with pytest.raises(SpecError):
        run_experiment(spec)


def test_infinite_fault_delay_is_a_spec_error():
    spec = tmr(faults=(FaultSpec(FaultKind.DELAY_MESSAGE, voter=1, delay=math.inf),))
    assert validate_spec(spec) == ["fault delay must be finite, got inf"]
    with pytest.raises(SpecError):
        run_experiment(spec)


@pytest.mark.parametrize(
    "spec,violation",
    [
        (tmr(faults=(FaultSpec(FaultKind.CRASH_VOTER, voter=1.0),)),
         "fault 1: 'voter' must be an integer, got 1.0"),
        (tmr(faults=(FaultSpec(FaultKind.CRASH_VOTER, voter=True),)),
         "fault 1: 'voter' must be an integer, got True"),
        (tmr(faults=(FaultSpec("crash_voter", voter=1),)),
         "fault 1: 'kind' must be a FaultKind, got 'crash_voter'"),
        (tmr(faults=(FaultSpec(FaultKind.DROP_MESSAGE, voter=1, index=0.5),)),
         "fault 1: 'index' must be an integer, got 0.5"),
        (tmr(faults=(FaultSpec(FaultKind.CRASH_VOTER, voter=1, stage=1.0),)),
         "fault 1: 'stage' must be an integer, got 1.0"),
        (ExperimentSpec(PipelineSpec((StageSpec(n=3.0),))),
         "stage 1: 'n' must be an integer, got 3.0"),
        (tmr(repetitions=1.5), "'repetitions' must be an integer, got 1.5"),
        (tmr(delta_t="1"), "stage 1: 'delta_t' must be a number, got '1'"),
        (tmr(epsilon=None), "stage 1: 'epsilon' must be a number, got None"),
        (tmr(scaling="2"), "stage 1: 'scaling' must be a number, got '2'"),
        (tmr(faults=(FaultSpec(FaultKind.DELAY_MESSAGE, voter=1, delay="1"),)),
         "fault 1: 'delay' must be a number, got '1'"),
        (tmr(faults=(FaultSpec(FaultKind.CORRUPT_INPUT, voter=1, pattern="ff"),)),
         "fault 1: 'pattern' must be bytes, got 'ff'"),
        (tmr(seed=1.5), "'seed' must be an integer, got 1.5"),
        (ExperimentSpec(PipelineSpec((StageSpec(n=3),)), metric=3),
         "'metric' must be a string, got 3"),
        (tmr(algorithm="median"), "stage 1: 'algorithm' must be a VoteKind, got 'median'"),
        (tmr(inputs=(DEFAULT_INPUT, DEFAULT_INPUT, 42.0)),
         "input 3: must be a VoteValue, got 42.0"),
        (tmr(scaling=10**400), "stage 1: 'scaling' is too large for a float"),
        (tmr(faults=("crash_voter",)), "fault 1: must be a FaultSpec, got 'crash_voter'"),
        (ExperimentSpec(PipelineSpec((StageSpec(n=3), 3))),
         "stage 2: must be a StageSpec, got 3"),
        (tmr(faults=None), "'faults' must be a tuple, got None"),
        (tmr(inputs=5), "'inputs' must be a tuple, got 5"),
        (ExperimentSpec(PipelineSpec(None)), "'stages' must be a tuple, got None"),
        (ExperimentSpec(None), "'pipeline' must be a PipelineSpec, got None"),
        (ExperimentSpec(3), "'pipeline' must be a PipelineSpec, got 3"),
    ],
    ids=["voter-float", "voter-bool", "kind-str", "index-float", "stage-float", "n-float",
         "repetitions-float", "delta_t-str", "epsilon-none", "scaling-str", "delay-str",
         "pattern-str", "seed-float", "metric-int", "algorithm-str", "inputs-float",
         "scaling-huge", "fault-str", "stage-int", "faults-none", "inputs-int",
         "stages-none", "pipeline-none", "pipeline-int"],
)
def test_a_field_of_the_wrong_type_is_a_spec_error(spec, violation):
    """A field whose value breaks the rule of its declared type, and a
    stage, fault or input that is not one, is a violation, in the JSON
    reader's words, and no run starts: none injects no fault or the wrong
    one, or raises halfway."""
    assert validate_spec(spec) == [violation]
    with pytest.raises(SpecError) as err:
        run_experiment(spec)
    assert err.value.violations == [violation]
    if not any(rule in violation for rule in ("an integer", "a number", "a string", "too large")):
        return  # a kind, algorithm, pattern or element has a JSON form of its own
    with pytest.raises(SpecError) as err:
        spec_from_json(spec_to_json(spec))
    assert err.value.violations == [violation]


COMPOSITE = {"pipeline", "inputs", "faults"}


def test_every_scalar_spec_field_has_a_type_rule():
    """A spec field added later is checked on both paths, or this fails:
    validate_spec and the JSON reader both take a scalar field's rule from
    its declared type, and a JSON reader only replaces it by another form."""
    for cls, readers in (
        (StageSpec, harness._STAGE_READERS),
        (FaultSpec, harness._FAULT_READERS),
        (ExperimentSpec, harness._SPEC_READERS),
    ):
        for f in fields(cls):
            assert f.name in COMPOSITE or f.type in harness._TYPE_RULES, (cls, f.name)
        names = {f.name for f in fields(cls)} | ({"stages"} if cls is ExperimentSpec else set())
        assert readers.keys() <= names, cls


VALID = ExperimentSpec(
    PipelineSpec((StageSpec(n=3),)), faults=(FaultSpec(FaultKind.DELAY_MESSAGE, voter=1),)
)
# A value of each wrong type, with the declared types it is right for.
WRONG_VALUES = [
    ("1", {"str"}),
    (None, {"float | None"}),
    (True, set()),
    ([1], set()),
    (b"\x01", {"bytes"}),
    (1.5, {"float", "float | None"}),
    (10**400, {"int"}),
]
WRONG_FIELDS = [
    (cls, f.name, value)
    for cls in (StageSpec, FaultSpec, ExperimentSpec)
    for f in fields(cls)
    if f.name not in COMPOSITE
    for value, right_for in WRONG_VALUES
    if f.type not in right_for
]


def with_field(cls, name: str, value) -> ExperimentSpec:
    """VALID with one field of its stage, its fault or itself replaced."""
    if cls is StageSpec:
        stage = replace(VALID.pipeline.stages[0], **{name: value})
        return replace(VALID, pipeline=PipelineSpec((stage,)))
    if cls is FaultSpec:
        return replace(VALID, faults=(replace(VALID.faults[0], **{name: value}),))
    return replace(VALID, **{name: value})


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(WRONG_FIELDS))
def test_a_wrong_type_in_any_scalar_field_is_one_violation_naming_it(case):
    assert validate_spec(VALID) == []
    cls, name, value = case
    spec = with_field(cls, name, value)
    (violation,) = validate_spec(spec)
    assert f"'{name}'" in violation
    with pytest.raises(SpecError) as err:
        run_experiment(spec)
    assert err.value.violations == [violation]


# -- JSON forms ---------------------------------------------------------------


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=1, max_size=8))
def test_numeric_value_json_round_trip(xs):
    value = VoteValue.from_floats(xs)
    assert value_from_json(value_to_json(value)) == value


@given(st.binary(min_size=1, max_size=64))
def test_raw_value_json_round_trip(data):
    value = VoteValue.from_bytes(data)
    obj = value_to_json(value)
    assert obj == {"hex": data.hex()}
    assert value_from_json(obj) == value


def test_value_from_json_accepts_scalars_but_not_bools():
    assert value_from_json(2.5) == VoteValue.from_floats([2.5])
    assert value_from_json(3) == VoteValue.from_floats([3.0])
    with pytest.raises(SpecError):
        value_from_json(True)
    with pytest.raises(SpecError):
        value_from_json({"hey": 1})


def test_spec_json_round_trip():
    spec = ExperimentSpec(
        pipeline=PipelineSpec(
            (
                StageSpec(n=3, algorithm=VoteKind.MEDIAN, delta_t=0.5),
                StageSpec(
                    n=3,
                    algorithm=VoteKind.WEIGHTED_AVERAGE,
                    epsilon=0.25,
                    scaling=2.0,
                ),
            )
        ),
        inputs=(
            VoteValue.from_floats([1.0, 2.0]),
            VoteValue.from_bytes(b"\x10\x20"),
            VoteValue.from_floats([3.0]),
        ),
        faults=(
            FaultSpec(FaultKind.CRASH_USER, voter=2),
            FaultSpec(FaultKind.CORRUPT_INPUT, voter=1, pattern=b"\x11\x22"),
            FaultSpec(FaultKind.DELAY_MESSAGE, voter=3, stage=2, delay=0.125),
            FaultSpec(FaultKind.DROP_MESSAGE, voter=1, stage=2, index=4),
        ),
        seed=99,
        repetitions=3,
        metric="euclidean",
    )
    obj = spec_to_json(spec)
    assert spec_from_json(json.loads(json.dumps(obj))) == spec


def test_spec_from_json_accumulates_errors():
    obj = {
        "stages": [{"n": 3, "algorithm": "quantum"}],
        "faults": [
            {"kind": "meteor", "voter": 1},
            {"kind": "drop_message"},
        ],
        "inputs": [True, 1, 2],
    }
    with pytest.raises(SpecError) as err:
        spec_from_json(obj)
    text = "\n".join(err.value.violations)
    assert "unknown algorithm 'quantum'" in text
    assert "unknown kind 'meteor'" in text
    assert "fault 2" in text  # no voter given
    assert "input 1" in text
    assert len(err.value.violations) == 4


STAGE = {"n": 3}


@pytest.mark.parametrize(
    "obj,needle",
    [
        ([STAGE], "spec must be a JSON object, got list"),
        ({"stages": [STAGE, 3]}, "stage 2: must be an object, got int"),
        ({"stages": [STAGE], "faults": ["crash_user"]}, "fault 1: must be an object"),
        ({"stages": [STAGE], "inputs": 5}, "'inputs' must be a list, got int"),
        ({"stages": [STAGE], "faults": {"kind": "crash_user"}}, "'faults' must be a list"),
        ({"stages": [STAGE], "repetitions": "two"}, "'repetitions' must be an integer"),
        ({"stages": [STAGE], "seed": [1]}, "'seed' must be an integer, got [1]"),
        ({"stages": [{"algorithm": "median"}]}, "stage 1: 'n' is required"),
        ({"stages": [STAGE], "faults": [{"voter": 1}]}, "fault 1: 'kind' is required"),
        ({"stages": [STAGE], "faults": [{"kind": "corrupt_input", "voter": 1, "pattern": "zz"}]},
         "fault 1: 'pattern' must be a hex string, got 'zz'"),
        ({"stages": [STAGE], "inputs": [{"hex": 5}]}, "input 1: 'hex' must be a hex string, got 5"),
        ({"stages": [STAGE], "inputs": [{"hex": "ff", "hx": 1}]},
         "input 1: cannot read a vote value from {'hex': 'ff', 'hx': 1}"),
        ({"stages": [STAGE], "clock": 1}, "'clock' must be a string, got 1"),
        ({"stages": [STAGE], "metric": 5}, "'metric' must be a string, got 5"),
    ],
)
def test_spec_from_json_reports_bad_shapes(obj, needle):
    with pytest.raises(SpecError) as err:
        spec_from_json(obj)
    assert needle in "\n".join(err.value.violations)


@pytest.mark.parametrize(
    "inputs,violations",
    [
        ([[True]], ["input 1: component 1 must be a number, got True"]),
        ([["1"]], ["input 1: component 1 must be a number, got '1'"]),
        (
            [[1.0], [2.0, False, "x"]],
            [
                "input 2: component 2 must be a number, got False",
                "input 2: component 3 must be a number, got 'x'",
            ],
        ),
        ([[1.0, 10**400]], ["input 1: a component is too large for a float"]),
    ],
)
def test_vector_input_components_must_be_json_numbers(inputs, violations):
    with pytest.raises(SpecError) as err:
        spec_from_json({"stages": [{"n": len(inputs)}], "inputs": inputs})
    assert err.value.violations == violations


def test_spec_from_json_lists_every_shape_error():
    obj = {"stages": [7], "faults": "x", "inputs": {}, "seed": 1.5, "repetitions": None}
    with pytest.raises(SpecError) as err:
        spec_from_json(obj)
    assert len(err.value.violations) == 5


def test_spec_from_json_requires_stages():
    with pytest.raises(SpecError) as err:
        spec_from_json({})
    assert "non-empty 'stages' list" in str(err.value)


CRASH = {"kind": "crash_user", "voter": 1}


@pytest.mark.parametrize(
    "obj,needle",
    [
        ({"stages": [{"n": 3.9}]}, "stage 1: 'n' must be an integer, got 3.9"),
        ({"stages": [{"n": "3"}]}, "stage 1: 'n' must be an integer, got '3'"),
        ({"stages": [STAGE, {"n": True}]}, "stage 2: 'n' must be an integer, got True"),
        ({"stages": [STAGE], "faults": [{**CRASH, "voter": 1.7}]},
         "fault 1: 'voter' must be an integer, got 1.7"),
        ({"stages": [STAGE], "faults": [{**CRASH, "voter": "1"}]},
         "fault 1: 'voter' must be an integer, got '1'"),
        ({"stages": [STAGE], "faults": [{"kind": "crash_user"}]},
         "fault 1: 'voter' is required"),
        ({"stages": [STAGE], "faults": [{**CRASH, "stage": 1.0}]},
         "fault 1: 'stage' must be an integer, got 1.0"),
        ({"stages": [STAGE], "faults": [{**CRASH, "index": 0.5}]},
         "fault 1: 'index' must be an integer, got 0.5"),
        ({"stages": [STAGE], "faults": [CRASH, {**CRASH, "index": False}]},
         "fault 2: 'index' must be an integer, got False"),
        ({"stages": [STAGE], "faults": [{**CRASH, "voter": None}]},
         "fault 1: 'voter' must be an integer, got None"),
    ],
)
def test_spec_from_json_rejects_non_integer_fields(obj, needle):
    with pytest.raises(SpecError) as err:
        spec_from_json(obj)
    assert err.value.violations == [needle]


def test_spec_from_json_lists_every_non_integer_field():
    obj = {
        "stages": [{"n": 3.9}, {"n": "3"}],
        "faults": [{"kind": "crash_user", "voter": 1.7, "stage": "1", "index": 0.5}],
        "seed": True,
    }
    with pytest.raises(SpecError) as err:
        spec_from_json(obj)
    assert len(err.value.violations) == 6


def test_spec_from_json_keeps_integer_fields():
    obj = {
        "stages": [{"n": 5}, {"n": 5}],
        "faults": [{"kind": "drop_message", "voter": 2, "stage": 2, "index": 1}],
    }
    spec = spec_from_json(obj)
    assert [s.n for s in spec.pipeline.stages] == [5, 5]
    (fault,) = spec.faults
    assert (fault.voter, fault.stage, fault.index) == (2, 2, 1)


def test_spec_from_json_lists_every_unknown_key():
    obj = {
        "stages": [{"n": 3, "epsiln": 0.5}, {"n": 3, "algo": "median", "dt": 1}],
        "faults": [{**CRASH, "stge": 2}],
        "sead": 7,
    }
    with pytest.raises(SpecError) as err:
        spec_from_json(obj)
    assert err.value.violations == [
        "stage 1: unknown key 'epsiln'",
        "stage 2: unknown key 'algo'",
        "stage 2: unknown key 'dt'",
        "fault 1: unknown key 'stge'",
        "unknown key 'sead'",
    ]


DELAY = {"kind": "delay_message", "voter": 1}


@pytest.mark.parametrize(
    "obj,needle",
    [
        ({"stages": [{"n": 3, "delta_t": "0.5"}]},
         "stage 1: 'delta_t' must be a number, got '0.5'"),
        ({"stages": [{"n": 3, "delta_t": False}]},
         "stage 1: 'delta_t' must be a number, got False"),
        ({"stages": [{"n": 3, "epsilon": True}]},
         "stage 1: 'epsilon' must be a number, got True"),
        ({"stages": [STAGE, {"n": 3, "epsilon": "0"}]},
         "stage 2: 'epsilon' must be a number, got '0'"),
        ({"stages": [{"n": 3, "scaling": "2"}]},
         "stage 1: 'scaling' must be a number, got '2'"),
        ({"stages": [{"n": 3, "scaling": None}]},
         "stage 1: 'scaling' must be a number, got None"),
        ({"stages": [{"n": 3, "epsilon": [1.0]}]},
         "stage 1: 'epsilon' must be a number, got [1.0]"),
        ({"stages": [{"n": 3, "delta_t": 10**400}]},
         "stage 1: 'delta_t' is too large for a float"),
        ({"stages": [STAGE], "faults": [{**DELAY, "delay": "0.3"}]},
         "fault 1: 'delay' must be a number, got '0.3'"),
        ({"stages": [STAGE], "faults": [DELAY, {**DELAY, "delay": True}]},
         "fault 2: 'delay' must be a number, got True"),
    ],
)
def test_spec_from_json_rejects_non_number_fields(obj, needle):
    with pytest.raises(SpecError) as err:
        spec_from_json(obj)
    assert err.value.violations == [needle]


def test_spec_from_json_lists_every_non_number_field():
    obj = {
        "stages": [{"n": 3, "epsilon": True, "scaling": "1", "delta_t": "0.5"}],
        "faults": [{**DELAY, "delay": "0.3"}],
    }
    with pytest.raises(SpecError) as err:
        spec_from_json(obj)
    assert len(err.value.violations) == 4


def test_spec_from_json_keeps_number_fields():
    obj = {
        "stages": [{"n": 3, "epsilon": 1, "scaling": 0.5, "delta_t": 2}],
        "faults": [{**DELAY, "delay": 0}, {**DELAY, "delay": 0.25}, {**DELAY, "delay": None}],
    }
    spec = spec_from_json(obj)
    (stage,) = spec.pipeline.stages
    assert (stage.epsilon, stage.scaling, stage.delta_t) == (1.0, 0.5, 2.0)
    assert all(type(x) is float for x in (stage.epsilon, stage.scaling, stage.delta_t))
    assert [f.delay for f in spec.faults] == [0.0, 0.25, None]
    assert type(spec.faults[0].delay) is float


# -- single-farm experiments ---------------------------------------------------


def test_fault_free_report():
    report = run_experiment(tmr())
    assert report.mean_duration == 0.0
    assert report.stddev_duration == 0.0
    assert report.census == [LinkCensus(virtual=3, local=3, voters=3)]
    (rep,) = report.repetitions
    assert rep.duration == 0.0
    assert len(rep.voters) == 3
    for v in rep.voters:
        assert v.live and v.closed
        assert one_float(v.outcome) == 42.0
        assert v.duration == 0.0
        assert v.timeouts == 0
        assert v.broadcasts == 1
        assert v.client_messages == 2  # one input, one get


REPLICA_VALUES = st.one_of(
    st.lists(st.floats(width=64), min_size=1, max_size=3).map(VoteValue.from_floats),
    st.binary(min_size=1, max_size=8).map(VoteValue.from_bytes),
)


@st.composite
def whole_specs(draw, kinds=tuple(FaultKind)):
    """A virtual-clock spec of 1 to 3 stages of N = 1 to 6 with any
    algorithm and metric, inputs of any kind, and up to four faults of
    `kinds`."""
    n, depth = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    stages = tuple(
        StageSpec(
            n,
            draw(st.sampled_from(VoteKind)),
            epsilon=draw(st.sampled_from((0.0, 0.5, 2.0, math.inf))),
        )
        for _ in range(depth)
    )
    faults = draw(st.lists(st.builds(
        FaultSpec,
        st.sampled_from(kinds),
        voter=st.integers(1, n),
        stage=st.integers(1, depth),
        pattern=st.binary(min_size=1, max_size=3),
        delay=st.none() | st.floats(0.0, 5.0),
        index=st.integers(0, 3),
    ), max_size=4))
    return ExperimentSpec(
        PipelineSpec(stages),
        inputs=draw(st.none() | st.tuples(*[REPLICA_VALUES] * n)),
        faults=tuple(faults),
        seed=draw(st.integers(0, 2**32)),
        repetitions=draw(st.integers(1, 2)),
        metric=draw(st.sampled_from(("default", "euclidean"))),
    )


@settings(max_examples=150, deadline=None)
@given(whole_specs())
def test_every_valid_spec_runs_to_a_report(spec):
    """Below or beyond the masking bound, whatever the inputs: a spec that
    validates runs without raising, to one result per voter."""
    assert validate_spec(spec) == []
    report = run_experiment(spec)
    for rep in report.repetitions:
        assert len(rep.voters) == sum(stage.n for stage in spec.pipeline.stages)


@settings(max_examples=60, deadline=None)
@given(whole_specs((FaultKind.CRASH_USER, FaultKind.CRASH_VOTER)))
def test_a_crash_only_spec_reports_the_same_bytes_on_the_frame_path(frame_path, spec):
    """Crashes install no hook, so these worlds land each voter's Message
    itself; a hook that never matches forces the frame path and changes no
    byte of the report."""
    with frame_path():
        framed = run_experiment(spec).to_json()
    assert framed == run_experiment(spec).to_json()


def test_the_push_budget_scales_with_delta_t():
    """A stage-k user waits for its upstream push in units of the slot
    timeout: one of its own stage and N + 4 of each earlier stage, so the
    whole budget scales with delta_t."""
    for delta_t in (0.01, 0.5, 1.0, 4.0):
        spec = ExperimentSpec(PipelineSpec((StageSpec(3, delta_t=delta_t),) * 3))
        assert harness._push_budget(spec, 2) == pytest.approx(8 * delta_t)
        assert harness._push_budget(spec, 3) == pytest.approx(15 * delta_t)


def test_explicit_inputs_and_algorithm():
    spec = tmr(
        algorithm=VoteKind.MEDIAN,
        inputs=tuple(VoteValue.from_floats([x]) for x in (1.0, 2.0, 10.0)),
    )
    report = run_experiment(spec)
    for v in report.repetitions[0].voters:
        assert one_float(v.outcome) == 2.0


def test_weighted_average_with_zero_scaling_is_the_mean():
    spec = tmr(
        algorithm=VoteKind.WEIGHTED_AVERAGE,
        scaling=0.0,
        inputs=tuple(VoteValue.from_floats([x]) for x in (1.0, 2.0, 3.0)),
    )
    report = run_experiment(spec)
    for v in report.repetitions[0].voters:
        assert math.isclose(one_float(v.outcome), 2.0, rel_tol=0, abs_tol=1e-12)


def test_corrupted_input_is_masked():
    spec = tmr(faults=(FaultSpec(FaultKind.CORRUPT_INPUT, voter=1),))
    report = run_experiment(spec)
    for v in report.repetitions[0].voters:
        assert one_float(v.outcome) == 42.0
        assert v.duration == 0.0  # corruption costs no time


def test_crashed_user_costs_one_timeout_everywhere():
    spec = tmr(faults=(FaultSpec(FaultKind.CRASH_USER, voter=2),))
    report = run_experiment(spec)
    assert report.mean_duration == 1.0
    for v in report.repetitions[0].voters:
        assert one_float(v.outcome) == 42.0
        assert v.round_finished == 1.0


def test_dropped_broadcast_is_one_timeout_everywhere():
    """Dropping voter 1's frames starves the fellows until their windows
    fire; voter 1's own window, armed when its round opened, goes off at
    the same instant, so it books a timeout too.  Everyone still masks."""
    spec = tmr(faults=(FaultSpec(FaultKind.DROP_MESSAGE, voter=1),))
    report = run_experiment(spec)
    for v in report.repetitions[0].voters:
        assert one_float(v.outcome) == 42.0
        assert v.round_finished == 1.0
        assert v.timeouts == 1


def test_fixed_delay_shows_up_as_round_duration():
    spec = tmr(faults=(FaultSpec(FaultKind.DELAY_MESSAGE, voter=1, delay=0.4),))
    report = run_experiment(spec)
    assert report.mean_duration == 0.4
    for v in report.repetitions[0].voters:
        assert one_float(v.outcome) == 42.0
        assert v.timeouts == 0


def test_all_users_crashed_leaves_no_durations():
    spec = tmr(
        faults=tuple(FaultSpec(FaultKind.CRASH_USER, voter=i) for i in (1, 2, 3))
    )
    report = run_experiment(spec)
    assert report.mean_duration is None
    assert report.stddev_duration is None
    for v in report.repetitions[0].voters:
        assert v.outcome is None
        assert v.duration is None
        assert outcome_hash(v.outcome) == "none"


# -- pipelines -----------------------------------------------------------------


def two_stage(faults=()) -> ExperimentSpec:
    return ExperimentSpec(
        pipeline=PipelineSpec((StageSpec(n=3), StageSpec(n=3))),
        faults=faults,
        metric="euclidean",
    )


@pytest.mark.parametrize("crashed", [1, 2, 3])
def test_pipeline_restores_a_crashed_voter(crashed):
    """Losing any one first-stage voter must not show downstream."""
    report = run_experiment(
        two_stage(faults=(FaultSpec(FaultKind.CRASH_VOTER, voter=crashed),))
    )
    assert [c.voters for c in report.census] == [2, 3]
    by_key = {(v.stage, v.voter): v for v in report.repetitions[0].voters}
    dead = by_key[(1, crashed)]
    assert not dead.live
    assert dead.outcome is None
    assert not dead.closed
    for i in (1, 2, 3):
        v = by_key[(2, i)]
        assert v.live and v.closed
        assert one_float(v.outcome) == 42.0


def test_a_faulty_world_is_freed_by_reference_counting():
    """A crashed voter never runs and a dropped broadcast leaves activities
    blocked for good; once the repetition has read their results, closing
    the world breaks their cycles, so with the cyclic garbage collector off
    a whole run leaves nothing for it to find."""
    spec = two_stage(
        faults=(
            FaultSpec(FaultKind.CRASH_VOTER, voter=2),
            FaultSpec(FaultKind.DROP_MESSAGE, voter=3, stage=2),
        )
    )
    gc.collect()
    gc.disable()
    try:
        report = run_experiment(spec)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert [v.live for v in report.repetitions[0].voters].count(False) == 1


def test_a_run_that_raises_is_freed_by_reference_counting(monkeypatch):
    """A metric that raises ends the run mid-round, with activities blocked
    and a voter's sends still queued; the repetition closes its world all
    the same, so with the cyclic garbage collector off the failed run
    leaves nothing for it to find."""

    class Boom(Exception):
        pass

    def boom(a, b):
        raise Boom

    monkeypatch.setitem(voting._METRICS, "test-boom", boom)
    spec = ExperimentSpec(pipeline=PipelineSpec((StageSpec(n=3),)), metric="test-boom")
    gc.collect()
    gc.disable()
    try:
        with pytest.raises(Boom):
            run_experiment(spec)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_harness_users_attach_to_the_farm_without_describing_it(monkeypatch):
    """The harness activates each stage itself and attaches every user's
    handle to it: a two-stage N = 31 run describes no farm again, so no
    handle adds a node, runs or compares a description."""
    calls = Counter()
    for name in ("add", "run", "_matches", "attach"):
        method = getattr(FarmHandle, name)

        def counted(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(FarmHandle, name, counted)
    report = run_experiment(ExperimentSpec(PipelineSpec((StageSpec(n=31),) * 2)))
    assert calls == {"attach": 62}
    assert all(one_float(v.outcome) == 42.0 for v in report.repetitions[0].voters)


def test_pipeline_census_counts_both_stages():
    report = run_experiment(two_stage())
    assert report.census == [LinkCensus(virtual=3, local=3, voters=3)] * 2
    # makespan spans both stages: 1.0 to ferry the values, 0 faults
    assert report.repetitions[0].duration == report.mean_duration


def test_each_upstream_voter_targets_the_downstream_user_it_is_linked_to(monkeypatch):
    """A farm's voters start with no output target; the harness gives
    stage-k voter i stage-(k + 1) user i, over the link it makes for that
    push, and the last stage's voters keep none."""
    worlds = []
    init = World.__init__

    def recording_init(world, clock):
        worlds.append(world)
        init(world, clock)

    monkeypatch.setattr(World, "__init__", recording_init)
    fresh = World(VIRTUAL).activate_farm("f", (1, 2))
    assert [v.output_target for v in fresh.states.values()] == [None, None]
    spec = ExperimentSpec(PipelineSpec((StageSpec(n=3),) * 3))
    assert all(one_float(v.outcome) == 42.0 for v in run_experiment(spec).repetitions[0].voters)
    world = worlds[-1]
    farms = list(world.farms.values())
    for up, down in zip(farms, farms[1:]):
        for i, voter in up.states.items():
            user = down.user_endpoints[i].name
            assert voter.output_target == user
            assert world.fabric.endpoint(voter.name, user).peers == (user,)
    assert all(v.output_target is None for v in farms[-1].states.values())


# -- repetitions and determinism -------------------------------------------------


def test_repetitions_run_in_fresh_worlds():
    spec = tmr(
        repetitions=3,
        faults=(FaultSpec(FaultKind.CRASH_USER, voter=1),),
    )
    report = run_experiment(spec)
    assert [r.repetition for r in report.repetitions] == [0, 1, 2]
    assert {r.duration for r in report.repetitions} == {1.0}
    assert report.mean_duration == 1.0
    assert report.stddev_duration == 0.0


def test_seeded_jitter_is_deterministic():
    def build(seed):
        return tmr(
            seed=seed,
            faults=(FaultSpec(FaultKind.DELAY_MESSAGE, voter=1),),
        )

    first = run_experiment(build(7)).to_json()
    again = run_experiment(build(7)).to_json()
    other = run_experiment(build(8)).to_json()
    assert first == again
    assert first != other
    # and the jitter stayed under one delta_t: no timeout fired
    parsed = json.loads(first)
    assert 0.0 < parsed["aggregate"]["mean_duration"] < 1.0
    for v in parsed["repetitions"][0]["voters"]:
        assert v["timeouts"] == 0


def test_report_serializations():
    spec = tmr(repetitions=2)
    report = run_experiment(spec)
    parsed = json.loads(report.to_json())
    assert parsed["spec"] == spec_to_json(spec)
    assert parsed["aggregate"] == {
        "count": 2,
        "mean_duration": 0.0,
        "stddev_duration": 0.0,
    }
    voter = parsed["repetitions"][0]["voters"][0]
    assert voter["ok"] is True
    assert voter["value"] == [42.0]
    assert voter["failure"] is None

    # every field reaches the JSON: the echo and each row are written from
    # their dataclasses, so none is left out by a hand-kept key list
    def names(cls) -> set[str]:
        return {f.name for f in fields(cls)}

    faulted = tmr(faults=(FaultSpec(FaultKind.DELAY_MESSAGE, voter=2, delay=0.5),))
    echo = json.loads(run_experiment(faulted).to_json())["spec"]
    assert set(echo) == names(ExperimentSpec) - {"pipeline"} | {"stages"}
    assert set(echo["stages"][0]) == names(StageSpec)
    assert set(echo["faults"][0]) == names(FaultSpec)
    assert echo["faults"][0]["kind"] == "delay_message"
    for r in parsed["repetitions"]:
        assert set(r) == names(RepetitionResult)
        for row in r["voters"]:
            assert set(row) == names(VoterResult) - {"outcome"} | {
                "ok",
                "value",
                "failure",
                "outcome_hash",
            }
    for entry in parsed["census"]:
        assert set(entry) == {"stage"} | names(LinkCensus)

    lines = report.to_csv().splitlines()
    assert lines[0] == "repetition,stage,voter,outcome_hash,duration"
    assert len(lines) == 1 + 2 * 3
    rep, stage, voter_id, digest, duration = lines[1].split(",")
    assert (rep, stage, voter_id) == ("0", "1", "1")
    assert len(digest) == 16
    assert float(duration) == 0.0


def test_outcome_hash_forms():
    assert outcome_hash(None) == "none"
    ok = VoteOutcome(value=DEFAULT_INPUT)
    expect = hashlib.sha256(b"ok:f" + DEFAULT_INPUT.data).hexdigest()[:16]
    assert outcome_hash(ok) == expect
    raw = VoteOutcome(value=VoteValue.from_bytes(DEFAULT_INPUT.data))
    assert outcome_hash(raw) != outcome_hash(ok)  # numeric-ness is hashed
    bad = VoteOutcome(failure=ErrorCode.NO_MAJORITY)
    assert outcome_hash(bad) == hashlib.sha256(b"fail:NO_MAJORITY").hexdigest()[:16]


# -- census helpers --------------------------------------------------------------


def test_farm_census_counts_only_the_farm_itself():
    world = World(VIRTUAL)
    rt = world.activate_farm("a", (1, 2, 3, 4), metric="euclidean")
    c = world.fabric.census(rt.members)
    assert (c.virtual, c.local, c.voters) == (6, 4, 4)


# -- bench ------------------------------------------------------------------------


def test_bench_rows_shape():
    rows = bench(n_values=(1, 2), repetitions=3, delta_t=0.01)
    assert [r.n for r in rows] == [1, 2]
    for row in rows:
        assert row.repetitions == 3  # warm-up wave dropped
        assert row.mean_duration > 0.0
        assert row.stddev_duration >= 0.0


def test_bench_runs_each_size_through_the_experiment_runner(monkeypatch):
    """bench takes one repetition of every size in turn from
    _run_single_repetition, drops each size's first one, and aggregates
    the rest as run_experiment does."""
    calls = []

    def duration(n: int, rep: int) -> float:
        return n + rep * rep / 8

    def fake(spec, rep):
        n = spec.pipeline.stages[0].n
        calls.append((n, rep))
        return [], RepetitionResult(rep, [], duration(n, rep))

    monkeypatch.setattr(harness, "_run_single_repetition", fake)
    rows = bench(n_values=(1, 2), repetitions=3)
    assert calls == [(n, rep) for rep in range(4) for n in (1, 2)]
    for row in rows:
        # run_experiment's repetition k is bench's kept repetition k + 1
        monkeypatch.setattr(
            harness, "_run_single_repetition",
            lambda _, rep: ([], RepetitionResult(rep, [], duration(row.n, rep + 1))),
        )
        report = run_experiment(
            ExperimentSpec(PipelineSpec((StageSpec(row.n),)), repetitions=3)
        )
        assert row.repetitions == 3
        assert (row.mean_duration, row.stddev_duration) == (
            report.mean_duration,
            report.stddev_duration,
        )


def test_bench_checks_its_sizes_before_building_a_world(monkeypatch):
    monkeypatch.setattr(harness, "World", None)  # building one would raise
    with pytest.raises(SpecError) as exc:
        bench(n_values=(0,), delta_t=math.inf)
    assert exc.value.violations == [
        "stage 1: n must be >= 1, got 0",
        "stage 1: delta_t must be finite, got inf",
    ]
