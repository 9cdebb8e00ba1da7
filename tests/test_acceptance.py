"""Acceptance gate: ten end-to-end criteria, one test (and one printed
pass line) per criterion.  Tolerances are stated inline; everything not
marked otherwise is exact equality.
"""

import itertools
import json
import math
import random
import struct
import sys
import time

import pytest

from votefarm.cli import main
from votefarm.client import Input, World, open_farm
from votefarm.core import AlgorithmId, ErrorCode, VoteKind, VoteValue
from votefarm.harness import (
    DEFAULT_INPUT,
    ExperimentSpec,
    FaultKind,
    FaultSpec,
    PipelineSpec,
    StageSpec,
    bench,
    oracle_vote,
    run_experiment,
    spec_from_json,
)
from votefarm.sim import VIRTUAL, Scheduler, sleep
from votefarm.transport import LinkCensus
from votefarm.voting import euclidean_metric, vote


def passed(criterion: int, detail: str) -> None:
    # write past pytest's capture so the line lands in any run's output
    print(f"criterion {criterion}: PASS - {detail}", file=sys.__stdout__)


def single(n: int, faults=(), delta_t: float = 1.0, **kw) -> ExperimentSpec:
    return ExperimentSpec(
        pipeline=PipelineSpec((StageSpec(n=n, delta_t=delta_t, **kw),)),
        faults=tuple(faults),
    )


def chained(n: int, faults=(), seed: int = 0) -> ExperimentSpec:
    return ExperimentSpec(
        pipeline=PipelineSpec((StageSpec(n=n), StageSpec(n=n))),
        faults=tuple(faults),
        seed=seed,
    )


# -- criterion 1: masking bound ------------------------------------------------

MASKABLE = (FaultKind.CORRUPT_INPUT, FaultKind.CRASH_USER, FaultKind.CRASH_VOTER)


def observed_stage_fault(kind: FaultKind, position: int, index: int = 0) -> FaultSpec:
    """Faults as seen by the observed (second) stage: crashing the matching
    voter one stage earlier is the same symptom as losing the input."""
    if kind is FaultKind.CRASH_VOTER:
        return FaultSpec(kind, voter=position, stage=1, index=index)
    return FaultSpec(kind, voter=position, stage=2, index=index)


def test_criterion_01_masking_bound():
    started = time.monotonic()
    runs = 0
    for n in (3, 5):
        budget = (n - 1) // 2
        for positions in itertools.combinations(range(1, n + 1), budget):
            for kinds in itertools.product(MASKABLE, repeat=budget):
                faults = tuple(
                    observed_stage_fault(k, p) for k, p in zip(kinds, positions)
                )
                report = run_experiment(chained(n, faults))
                runs += 1
                voters = report.repetitions[0].voters
                finals = [v for v in voters if v.stage == 2]
                assert len(finals) == n and all(v.live for v in finals)
                for v in voters:
                    if not v.live or v.outcome is None:
                        continue  # a crashed first-stage voter
                    assert v.outcome.ok, (n, faults, v.stage, v.voter)
                    assert v.outcome.value.data == DEFAULT_INPUT.data, (
                        n,
                        faults,
                        v.stage,
                        v.voter,
                    )
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget is 10s"
    passed(1, f"{runs} fault assignments masked exactly in {elapsed:.1f}s")


def test_masking_bound_with_drop_and_delay(honest_slots):
    """Criterion 1's sweep over all five fault kinds: at N = 3 and 5, every
    set of up to (N - 1) // 2 positions, each with any kind, at message
    index 0 and 1 and seeds 0 and 1 (the seed draws a delay).  Every live
    final-stage voter holds the input, and in each stage every honest voter
    holds every honest replica's value in its slot.  A dropped or delayed
    broadcast that lands after its round closed is a late arrival, never a
    round of its own."""
    runs = 0
    for n in (3, 5):
        for size in range(1, (n - 1) // 2 + 1):
            for positions in itertools.combinations(range(1, n + 1), size):
                for kinds in itertools.product(FaultKind, repeat=size):
                    for index, seed in itertools.product((0, 1), (0, 1)):
                        faults = [
                            observed_stage_fault(k, p, index) for k, p in zip(kinds, positions)
                        ]
                        spec = chained(n, faults, seed)
                        voters = run_experiment(spec).repetitions[0].voters
                        runs += 1
                        for v in voters:
                            if v.stage == 2 and v.live:
                                assert v.outcome is not None and v.outcome.ok, (spec, v.voter)
                                assert v.outcome.value == DEFAULT_INPUT, (spec, v.voter)
                        assert honest_slots(spec) == [], spec
    assert runs == 1160


# Within the bound at N = 7, with drop, delay and crash faults that criterion
# 1 does not inject.  Each also masks with users that wait for the voter's
# DONE push instead of polling with GET (ROADMAP item 18), as long as a late
# broadcast opens no round of its own.
GUARD_SPECS = (
    (
        "pipeline --n 7 --metric euclidean --seed 864 --fault delay_message:2.3"
        " --fault crash_voter:2.6 --fault drop_message:2.4"
    ),
    (
        "run --n 7 --delta-t 0.5 --seed 777 --fault drop_message:7:1"
        " --fault delay_message:4 --fault crash_voter:5"
    ),
)


@pytest.mark.parametrize("argv", GUARD_SPECS)
def test_masking_with_drop_delay_and_crash_at_n7(argv, capsys, honest_slots):
    assert main(argv.split()) == 0
    report = json.loads(capsys.readouterr().out)
    assert honest_slots(spec_from_json(report["spec"])) == []
    voters = report["repetitions"][0]["voters"]
    last = max(v["stage"] for v in voters)
    finals = [v for v in voters if v["stage"] == last and v["live"]]
    assert len(finals) == 6  # each spec crashes one final-stage voter
    for v in finals:
        assert v["ok"] and v["value"] == list(DEFAULT_INPUT.floats()), (argv, v["voter"])


# Within the bound, and masked only under the timer rule: a slot's timer
# restarts when that slot is resolved, not on any frame.  Under the old rule
# the first two left an honest stage-2 voter on NO_MAJORITY, missing an
# honest fellow's slot; the third masked under both, but not under a rule
# that only kept the deadline on frames that fill no slot.
TIMER_SPECS = (
    (
        "pipeline --n 5 --seed 339 --fault delay_message:1.4 --fault drop_message:2.1"
        " --fault crash_voter:2.4"
    ),
    (
        "pipeline --n 7 --seed 2 --fault delay_message:1.5 --fault crash_voter:2.1"
        " --fault drop_message:2.5 --fault crash_user:2.6"
    ),
    (
        "pipeline --n 7 --seed 641 --fault delay_message:1.4 --fault crash_voter:1.6"
        " --fault crash_voter:2.4 --fault crash_user:2.5 --fault crash_voter:2.6"
    ),
)


@pytest.mark.parametrize("argv", TIMER_SPECS)
def test_a_slot_timer_restarts_only_when_its_slot_changes(argv, capsys, honest_slots):
    assert main(argv.split()) == 0
    report = json.loads(capsys.readouterr().out)
    assert honest_slots(spec_from_json(report["spec"])) == []
    finals = [v for v in report["repetitions"][0]["voters"] if v["stage"] == 2 and v["live"]]
    assert finals
    for v in finals:
        assert v["ok"] and v["value"] == list(DEFAULT_INPUT.floats()), (argv, v["voter"])


# Past the masking bound: four of the five replicas carry a fault (op 183 of
# perfbench's seed-1 fault_churn pass).  Stage-3 user 5 gets no input: its
# upstream voter, stage-2 voter 5, pushes NO_MAJORITY.  A user that closed its
# voter at once, before the DONE push, shut it before the round its fellows
# open, and the final stage lost a live voter's outcome.
NO_INPUT_SPEC = ExperimentSpec(
    pipeline=PipelineSpec((StageSpec(5),) * 3),
    faults=(
        FaultSpec(FaultKind.DROP_MESSAGE, voter=5, stage=1),
        FaultSpec(FaultKind.CORRUPT_INPUT, voter=1, stage=1, pattern=b"\xfa"),
        FaultSpec(FaultKind.CRASH_USER, voter=2, stage=2),
        FaultSpec(FaultKind.CRASH_USER, voter=3, stage=2, index=1),
        FaultSpec(FaultKind.DELAY_MESSAGE, voter=5, stage=3),
        FaultSpec(FaultKind.CRASH_USER, voter=2, stage=3, index=1),
    ),
    seed=1163173132,
    metric="euclidean",
)


def test_a_user_with_no_input_keeps_its_voter_for_the_round_its_fellows_open():
    (rep,) = run_experiment(NO_INPUT_SPEC).repetitions
    finals = {v.voter: v for v in rep.voters if v.stage == 3}
    assert finals[5].client_messages == 0  # no input, so nothing sent before its CLOSE
    assert finals[5].round_started is not None and finals[5].closed
    for v in finals.values():
        assert v.outcome.ok and v.outcome.value == DEFAULT_INPUT, v.voter


# -- criterion 2: failure beyond the bound ---------------------------------------


def corrupted_float(pattern: bytes) -> bytes:
    """The corrupt hook XORs the pattern tiled across the value bytes."""
    data = bytearray(struct.pack("<d", 42.0))
    for i in range(len(data)):
        data[i] ^= pattern[i % len(pattern)]
    return bytes(data)


def test_criterion_02_failure_beyond_the_bound():
    distinct = run_experiment(
        single(
            3,
            faults=(
                FaultSpec(FaultKind.CORRUPT_INPUT, voter=1, pattern=b"\x11"),
                FaultSpec(FaultKind.CORRUPT_INPUT, voter=2, pattern=b"\x22"),
            ),
        )
    )
    for v in distinct.repetitions[0].voters:
        assert not v.outcome.ok
        assert v.outcome.failure == ErrorCode.NO_MAJORITY

    equal = run_experiment(
        single(
            3,
            faults=(
                FaultSpec(FaultKind.CORRUPT_INPUT, voter=1, pattern=b"\x11"),
                FaultSpec(FaultKind.CORRUPT_INPUT, voter=2, pattern=b"\x11"),
            ),
        )
    )
    wrong = corrupted_float(b"\x11")
    assert wrong != DEFAULT_INPUT.data
    for v in equal.repetitions[0].voters:
        assert v.outcome.ok
        assert v.outcome.value.data == wrong  # unanimously wrong
    passed(2, "two distinct corruptions lose the vote, two equal ones forge it")


# -- criterion 3: timeout cost bound ----------------------------------------------


def test_criterion_03_timeout_cost_bound():
    checked = 0
    for delta_t in (1.0, 0.25):
        base = run_experiment(single(4, delta_t=delta_t))
        assert base.mean_duration == 0.0
        for m in (1, 2, 3):
            for crashed in itertools.combinations(range(1, 5), m):
                faults = tuple(
                    FaultSpec(FaultKind.CRASH_USER, voter=c) for c in crashed
                )
                report = run_experiment(single(4, faults, delta_t=delta_t))
                want = base.mean_duration + m * delta_t
                assert report.mean_duration == want, (delta_t, crashed)
                for v in report.repetitions[0].voters:
                    assert v.duration == want, (delta_t, crashed, v.voter)
                checked += 1
    passed(3, f"{checked} crash subsets cost exactly M*delta_t on two delta_t")


# -- criterion 4: pipeline restoration ---------------------------------------------


def test_criterion_04_pipeline_restoration():
    baseline = run_experiment(chained(3))
    wanted = {
        v.outcome.value.data
        for v in baseline.repetitions[0].voters
        if v.stage == 2
    }
    assert wanted == {DEFAULT_INPUT.data}
    for position in (1, 2, 3):
        report = run_experiment(
            chained(3, (FaultSpec(FaultKind.CRASH_VOTER, voter=position),))
        )
        finals = [v for v in report.repetitions[0].voters if v.stage == 2]
        assert len(finals) == 3
        for v in finals:
            assert v.live and v.outcome.ok
            assert v.outcome.value.data == DEFAULT_INPUT.data, position
    passed(4, "all 3 first-stage voter crashes restored to the fault-free value")


# -- criterion 5: resource census ----------------------------------------------------


def test_criterion_05_resource_census():
    for n in range(1, 7):
        world = World(VIRTUAL)
        world.activate_farm("farm", tuple(range(1, n + 1)))
        assert world.fabric.census() == LinkCensus(n * (n - 1) // 2, n, n)
    passed(5, "n(n-1)/2 virtual links, n local links, n voters for n in 1..6")


# -- criterion 6: oracle equivalence ---------------------------------------------------


def outcomes_match(got, want) -> bool:
    if got.ok != want.ok:
        return False
    if got.ok:
        return got.value.data == want.value.data
    return got.failure == want.failure


def test_criterion_06_oracle_equivalence():
    started = time.monotonic()
    checked = 0
    pool = [None, VoteValue.from_bytes(b"\x00")]
    pool += [VoteValue.from_floats([float(x)]) for x in (0, 1, 2)]
    for n in range(1, 6):
        for combo in itertools.product(pool, repeat=n):
            for kind in VoteKind:
                got = vote(AlgorithmId(kind, 0.0, 1.0), combo, euclidean_metric)
                want = oracle_vote(kind, combo, metric="euclidean")
                assert outcomes_match(got, want), (kind, combo)
                checked += 1

    rng = random.Random(6)
    anchors = (0.1, 0.5, 0.9)
    for _ in range(1000):
        n = rng.randint(2, 5)
        values = []
        for _ in range(n):
            if rng.random() < 0.2:
                values.append(None)
            elif rng.random() < 0.5:
                values.append(VoteValue.from_floats([rng.uniform(0.0, 1.0)]))
            else:
                x = rng.choice(anchors) + rng.uniform(-0.2, 0.2)
                values.append(VoteValue.from_floats([x]))
        epsilon = rng.uniform(1e-9, 0.5)
        for kind in (VoteKind.MAJORITY, VoteKind.PLURALITY):
            got = vote(AlgorithmId(kind, epsilon, 1.0), values, euclidean_metric)
            want = oracle_vote(kind, values, epsilon=epsilon, metric="euclidean")
            assert outcomes_match(got, want), (kind, epsilon, values)
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget is 30s"
    passed(6, f"{checked} oracle comparisons identical in {elapsed:.1f}s")


# -- criterion 7: weighted-average properties --------------------------------------------


def test_criterion_07_weighted_average_properties():
    rng = random.Random(7)
    for _ in range(300):
        dim = rng.randint(1, 4)
        count = rng.randint(1, 6)
        rows = [
            [rng.uniform(-100.0, 100.0) for _ in range(dim)] for _ in range(count)
        ]
        slots = [VoteValue.from_floats(r) for r in rows]
        for _ in range(rng.randint(0, 2)):
            slots.append(None)
        out = vote(
            AlgorithmId(VoteKind.WEIGHTED_AVERAGE, 0.0, 0.0),
            tuple(slots),
            euclidean_metric,
        )
        assert out.ok
        got = out.value.floats()
        for c in range(dim):
            mean = math.fsum(r[c] for r in rows) / count
            assert abs(got[c] - mean) <= 1e-12, (rows, c)

    passed(7, "s = 0 gives the mean within 1e-12 on 300 vectors")


# -- criterion 8: overhead scaling ----------------------------------------------------


def test_criterion_08_overhead_scaling():
    started = time.monotonic()
    rows = bench(n_values=(1, 2, 3, 4), repetitions=50)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget is 60s"
    means = [r.mean_duration for r in rows]
    assert all(b >= a for a, b in zip(means, means[1:])), means
    ratio = means[-1] / means[0]
    assert ratio > 1.5, means
    passed(8, f"means {['%.6f' % m for m in means]} non-decreasing, ratio {ratio:.2f}")


def client_farm(n: int, rounds: int) -> World:
    """A virtual world, not yet run, in which n users drive one farm of n
    through the client API for `rounds` rounds; every round must vote the
    round number."""
    world = World(VIRTUAL)

    def user(uid):
        handle = open_farm(world, "f", uid)
        for node in range(1, n + 1):
            assert handle.add(node)
        assert handle.run()
        for r in range(rounds):
            assert (yield from handle.control([Input(VoteValue.from_floats([r]))]))
            yield from sleep(5.0)
            outcome = yield from handle.get(5.0)
            assert outcome.value.floats() == (float(r),)
            yield from sleep(5.0)

    for uid in range(1, n + 1):
        world.spawn_user("f", uid, user(uid))
    return world


def test_criterion_08_frames_per_round_grow_with_n():
    """The deterministic side of criterion 8: the work of a round, counted
    in delivered frames, grows strictly with the farm size."""
    rounds = 3
    per_round = []
    for n in (1, 2, 3, 4):
        world = client_farm(n, rounds)
        world.run()
        states = world.farms["f"].states.values()
        assert {s.rounds_completed for s in states} == {rounds}
        per_round.append(world.fabric.delivered_total / rounds)
    assert all(b > a for a, b in zip(per_round, per_round[1:])), per_round
    # each voter: its input, N - 1 broadcasts, DONE, GET and VOTED_VALUE
    assert per_round == [n * n + 3 * n for n in (1, 2, 3, 4)]


def test_criterion_08_scheduler_steps_per_round(monkeypatch):
    """Scheduler steps of one round: a 4-round run minus a 3-round run of
    the same farm, so the steps of starting and ending the world cancel.
    Each user steps four times: at the end of each of its two sleeps, when
    the DONE its voter pushes lands during control, which yields the floor
    once, and when the reply to its GET lands.  Each voter steps once when its user's input
    wakes it, once more for the fellows' broadcasts still to come, which
    all land before its second turn as every send lands at once, and once
    for the GET; a lone voter has no fellows, so it steps twice."""
    steps = 0
    step = Scheduler._step

    def counted_step(self, act):
        nonlocal steps
        steps += 1
        return step(self, act)

    monkeypatch.setattr(Scheduler, "_step", counted_step)
    per_round = []
    for n in (1, 2, 3, 4):
        counts = []
        for rounds in (3, 4):
            steps = 0
            client_farm(n, rounds).run()
            counts.append(steps)
        per_round.append(counts[1] - counts[0])
    assert per_round == [4 * n + (2 if n == 1 else 3) * n for n in (1, 2, 3, 4)]  # 6, 14, 21, 28


# -- criterion 9: replication transparency ----------------------------------------------


def test_criterion_09_replication_transparency():
    for n in range(1, 7):
        report = run_experiment(single(n))
        counts = {v.client_messages for v in report.repetitions[0].voters}
        assert counts == {2}, (n, counts)  # one input, one get; nothing else
    passed(9, "2 client messages per round at every farm size 1..6")


# -- criterion 10: determinism -----------------------------------------------------------


def test_criterion_10_determinism():
    jitter = single(
        3, faults=(FaultSpec(FaultKind.DELAY_MESSAGE, voter=1),), delta_t=1.0
    )
    jitter = ExperimentSpec(
        pipeline=jitter.pipeline, faults=jitter.faults, seed=7, repetitions=4
    )
    crashes = ExperimentSpec(
        pipeline=PipelineSpec((StageSpec(n=5, algorithm=VoteKind.PLURALITY),)),
        faults=(FaultSpec(FaultKind.CRASH_USER, voter=3),),
        seed=21,
        repetitions=3,
    )
    mixed = ExperimentSpec(
        pipeline=PipelineSpec((StageSpec(n=3), StageSpec(n=3))),
        faults=(
            FaultSpec(FaultKind.DROP_MESSAGE, voter=2),
            FaultSpec(FaultKind.DELAY_MESSAGE, voter=1, stage=2),
            FaultSpec(FaultKind.CORRUPT_INPUT, voter=3),
        ),
        seed=11,
        repetitions=2,
    )
    for spec, runner in (
        (jitter, run_experiment),
        (crashes, run_experiment),
        (mixed, run_experiment),
    ):
        first = runner(spec).to_json()
        again = runner(spec).to_json()
        assert first == again
    # and the seed actually matters for the seeded jitter
    reseeded = ExperimentSpec(
        pipeline=jitter.pipeline, faults=jitter.faults, seed=8, repetitions=4
    )
    assert run_experiment(reseeded).to_json() != run_experiment(jitter).to_json()
    passed(10, "byte-identical reports for 3 spec shapes, seed-sensitive jitter")
