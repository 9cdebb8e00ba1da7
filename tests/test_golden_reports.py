"""Golden report digests: a refactor must leave virtual-clock reports
byte-identical.

Each digest is sha256 over `run_experiment(spec).to_json()`.  The digests
were recorded from the program before the farm-wiring paths were merged
into one, and must never be regenerated to make this test pass: a changed
digest means a changed report, which is a behaviour change.
"""

import hashlib
from collections import Counter

import pytest

from votefarm.core import VoteKind, VoteValue
from votefarm.harness import (
    ExperimentSpec,
    FaultKind,
    FaultSpec,
    PipelineSpec,
    StageSpec,
    run_experiment,
)
from votefarm.sim import Scheduler
from votefarm.transport import Fabric


def floats(*xs) -> tuple[VoteValue, ...]:
    return tuple(VoteValue.from_floats([x]) for x in xs)


SPECS = {
    "tmr_fault_free": ExperimentSpec(pipeline=PipelineSpec((StageSpec(n=3),))),
    "median_then_majority": ExperimentSpec(
        pipeline=PipelineSpec(
            (
                StageSpec(n=5, algorithm=VoteKind.MEDIAN),
                StageSpec(n=5, algorithm=VoteKind.MAJORITY, epsilon=0.5),
            )
        ),
        inputs=floats(10.0, 10.2, 9.9, 1e6, -1e6),
        metric="euclidean",
    ),
    "every_fault_kind": ExperimentSpec(
        pipeline=PipelineSpec((StageSpec(n=5),) * 3),
        faults=(
            FaultSpec(FaultKind.CRASH_USER, voter=2, stage=1),
            FaultSpec(FaultKind.CORRUPT_INPUT, voter=4, stage=1),
            FaultSpec(FaultKind.CRASH_VOTER, voter=1, stage=2),
            FaultSpec(FaultKind.DROP_MESSAGE, voter=3, stage=2),
            FaultSpec(FaultKind.DELAY_MESSAGE, voter=5, stage=3),
        ),
        seed=3,
        metric="default",
    ),
    "three_repetitions": ExperimentSpec(
        pipeline=PipelineSpec((StageSpec(n=3, delta_t=0.5),)),
        faults=(FaultSpec(FaultKind.DELAY_MESSAGE, voter=2),),
        seed=11,
        repetitions=3,
        metric="euclidean",
    ),
}

DIGESTS = {
    "tmr_fault_free": "ed7a07ef2d4a9445d43023478b4ab0098ba32c78666ee356a31824c3e14c98f6",
    "median_then_majority": "d97edf40fd26bc5fbc386750c67a33b77740a736b7ff3efc442e130cb9237df7",
    "every_fault_kind": "6571c32eb9c64b5f5c8957cf03bc3f5ff0b550a208f1f178ac66b290c9d506dc",
    "three_repetitions": "d2e83548aa71695541f27689192c4635a30699c08aa5fb7c985da0fc234fdb6d",
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_report_digest_is_unchanged(name):
    report = run_experiment(SPECS[name])
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_the_frame_path_reports_the_same_bytes(name, frame_path):
    """A world with no fault hook lands each voter's Message itself; forced
    onto the frame path by a hook that never matches, the same spec reports
    the same bytes."""
    with frame_path():
        framed = run_experiment(SPECS[name]).to_json()
    assert framed == run_experiment(SPECS[name]).to_json()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_honest_voters_hold_every_honest_value(name, honest_slots):
    run_experiment(SPECS[name])
    assert honest_slots(SPECS[name]) == []


def test_a_voter_post_is_sent_inside_its_step(monkeypatch):
    """Every send lands at once, over the run with every fault kind: each
    message a party posts is sent from its end inside that party's step,
    before the post returns.  From a hook-free end its copies are counted
    delivered then; from a hooked end its frame goes through `send_from`."""
    posted, sent = Counter(), Counter()  # copies, by the end they leave
    hooked, stepped = set(), set()  # the parties that posted: from a hooked end, at all
    stepping = None  # the party whose step is running
    post, send_from, step = Fabric.post, Fabric.send_from, Scheduler._step

    def counted_post(self, endpoint, msg):
        assert endpoint.name == stepping
        index, framed, delivered = endpoint.sent, sent[id(endpoint)], self.delivered_total
        post(self, endpoint, msg)
        assert endpoint.sent == index + 1
        posted[id(endpoint)] += len(endpoint.peers)
        stepped.add(stepping)
        if endpoint.hooks:
            hooked.add(endpoint.name)
            assert sent[id(endpoint)] == framed + len(endpoint.peers)
        else:
            assert self.delivered_total == delivered + len(endpoint.peers)

    def counted_send_from(self, endpoint, frame):
        sent[id(endpoint)] += len(endpoint.peers)
        send_from(self, endpoint, frame)

    def recording_step(self, act):
        nonlocal stepping
        stepping = act.name
        try:
            step(self, act)
        finally:
            stepping = None

    monkeypatch.setattr(Fabric, "post", counted_post)
    monkeypatch.setattr(Fabric, "send_from", counted_send_from)
    monkeypatch.setattr(Scheduler, "_step", recording_step)
    run_experiment(SPECS["every_fault_kind"])
    voters = {name for name in stepped if "/voter" in name}
    assert len(voters) == 14  # 15 voters, one crashed before it ever posts
    # the dropping and the delaying voter, and the user whose input is corrupted
    assert hooked == {"s2/voter3", "s3/voter5", "s1/user4"}
    assert set(sent) <= set(posted)  # nobody sends a frame but by a post
