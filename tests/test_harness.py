"""Experiment harness: spec validation, fault injection, reports."""

import hashlib
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from votefarm.core import ErrorCode, VoteKind, VoteOutcome, VoteValue
from votefarm.harness import (
    DEFAULT_INPUT,
    ExperimentSpec,
    FaultKind,
    FaultSpec,
    PipelineSpec,
    SpecError,
    StageSpec,
    bench,
    census_check,
    outcome_hash,
    run_experiment,
    run_pipeline,
    spec_from_json,
    spec_to_json,
    validate_spec,
    value_from_json,
    value_to_json,
)
from votefarm.client import World
from votefarm.sim import VIRTUAL


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
        "non-empty byte pattern",
        "index must be >= 0",
        "delay must be >= 0",
        "unknown metric 'nope'",
    ):
        assert needle in text, needle
    assert len(bad) == 12
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


def test_infinite_fault_delay_is_a_spec_error():
    spec = tmr(faults=(FaultSpec(FaultKind.DELAY_MESSAGE, voter=1, delay=math.inf),))
    assert validate_spec(spec) == ["fault delay must be finite, got inf"]
    with pytest.raises(SpecError):
        run_experiment(spec)


def test_run_pipeline_requires_a_chain():
    with pytest.raises(SpecError) as err:
        run_pipeline(tmr())
    assert err.value.violations == ["a pipeline needs at least two stages"]


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
    ],
)
def test_spec_from_json_reports_bad_shapes(obj, needle):
    with pytest.raises(SpecError) as err:
        spec_from_json(obj)
    assert needle in "\n".join(err.value.violations)


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
    assert [(c.stage, c.virtual, c.local, c.voters) for c in report.census] == [
        (1, 3, 3, 3)
    ]
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
    report = run_pipeline(
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


def test_pipeline_census_counts_both_stages():
    report = run_pipeline(two_stage())
    assert [(c.stage, c.virtual, c.local, c.voters) for c in report.census] == [
        (1, 3, 3, 3),
        (2, 3, 3, 3),
    ]
    # makespan spans both stages: 1.0 to ferry the values, 0 faults
    assert report.repetitions[0].duration == report.mean_duration


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


def test_census_check_verdicts():
    world = World(VIRTUAL)
    world.activate_farm("a", (1, 2, 3), metric="euclidean")
    good = census_check(world.fabric, 3)
    assert good.passed
    assert "MISMATCH" not in good.detail()
    bad = census_check(world.fabric, 4)
    assert not bad.passed
    assert "MISMATCH" in bad.detail()


# -- bench ------------------------------------------------------------------------


def test_bench_rows_shape():
    rows = bench(n_values=(1, 2), repetitions=3, delta_t=0.01)
    assert [r.n for r in rows] == [1, 2]
    for row in rows:
        assert row.repetitions == 3  # warm-up wave dropped
        assert row.mean_duration > 0.0
        assert row.stddev_duration >= 0.0
    with_warmup = bench(n_values=(1,), repetitions=2, include_warmup=True)
    assert with_warmup[0].repetitions == 3
