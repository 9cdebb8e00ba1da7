"""Round protocol: turn taking, timeout accounting, and request handling."""

import copy
import itertools
from collections import deque
from types import SimpleNamespace

import pytest

import votefarm.voter
from votefarm.client import Input, Output, World, open_farm
from votefarm.core import (
    USER,
    AlgorithmId,
    ErrorCode,
    Message,
    Tag,
    VoteKind,
    VoteOutcome,
    VoteValue,
    decode_message,
    encode_message,
)
from votefarm.sim import KEEP, TIMED_OUT, VIRTUAL, Wait, sleep
from votefarm.transport import delay_hook, drop_hook
from votefarm.voter import Voter, user_name, voter_name
from votefarm.voting import default_metric, vote


V42 = VoteValue.from_floats([42.0])


def plain_user(world, rt, uid, value, rec):
    """Inject one input, passively wait for DONE, then read the outcome.

    Waiting without polling keeps the voter's receive timer untouched, so
    completion times seen here are pure protocol timings.
    """
    ep = rt.user_endpoints[uid]
    send = lambda m: world.fabric.send_from(ep, encode_message(m))
    send(Message(Tag.INPUT, USER, value))
    rec["sent_at"] = world.scheduler.now
    for _ in range(12):
        got = yield Wait((ep.inbox,), 3 * rt.delta_t)
        if got is TIMED_OUT:
            return
        if got[1].tag == Tag.DONE:
            rec["done_at"] = world.scheduler.now
            break
    send(Message(Tag.GET, USER))
    got = yield Wait((ep.inbox,), 3 * rt.delta_t)
    if got is not TIMED_OUT and got[1].tag == Tag.VOTED_VALUE:
        rec["outcome"] = got[1].payload


def launch(n, crashed=(), inputs=None, delta_t=1.0, kind=VoteKind.MAJORITY):
    world = World(VIRTUAL)
    for uid in crashed:
        world.scheduler.kill_names.add(user_name("f", uid))
    rt = world.activate_farm(
        "f",
        tuple(range(1, n + 1)),
        metric="euclidean",
        delta_t=delta_t,
        algorithm=AlgorithmId(kind),
    )
    recs = {uid: {} for uid in range(1, n + 1)}
    for uid in range(1, n + 1):
        value = V42 if inputs is None else VoteValue.from_floats([float(inputs[uid - 1])])
        world.spawn_user("f", uid, plain_user(world, rt, uid, value, recs[uid]))
    return world, rt, recs


def slot_flags(state):
    return tuple(s is not None for s in state.last_slots)


def test_fault_free_round():
    world, rt, recs = launch(3)
    world.run()
    for vid in (1, 2, 3):
        vs = rt.states[vid]
        assert vs.rounds_completed == 1
        assert slot_flags(vs) == (True, True, True)
        assert vs.broadcasts_sent == 1
        assert vs.timeouts == 0
        assert vs.round_started_at == 0.0
        assert vs.round_finished_at == 0.0
        assert vs.last_outcome.value.data == V42.data
        assert recs[vid]["outcome"].value.data == V42.data
        assert recs[vid]["done_at"] == 0.0


def test_one_crashed_user_costs_exactly_one_timeout():
    world, rt, recs = launch(3, crashed=(2,))
    world.run()
    for vid in (1, 2, 3):
        vs = rt.states[vid]
        assert slot_flags(vs) == (True, False, True)
        assert vs.round_finished_at == 1.0  # one delta_t, no more
        assert vs.last_outcome.value.data == V42.data
        assert vs.broadcasts_sent == 1
    # the crashed user's own voter still took its turn (as an invalidation)
    assert recs[1]["done_at"] == 1.0
    assert recs[3]["done_at"] == 1.0
    assert "done_at" not in recs[2]


def test_two_crashed_users_lose_the_majority():
    world, rt, recs = launch(3, crashed=(1, 3))
    world.run()
    for vid in (1, 2, 3):
        vs = rt.states[vid]
        assert slot_flags(vs) == (False, True, False)
        assert vs.round_finished_at == 2.0
        assert vs.last_outcome.failure == ErrorCode.NO_MAJORITY
    assert recs[2]["outcome"].failure == ErrorCode.NO_MAJORITY


def test_crash_cost_is_linear_in_crashes():
    """Every crashed user adds exactly one serialized delta_t, regardless
    of which positions crashed."""
    for m in (1, 2, 3):
        for crashed in itertools.combinations(range(1, 5), m):
            world, rt, _ = launch(4, crashed=crashed)
            world.run()
            for vid in range(1, 5):
                vs = rt.states[vid]
                assert vs.round_finished_at == float(m), (crashed, vid)
                assert slot_flags(vs) == tuple(
                    uid not in crashed for uid in range(1, 5)
                ), (crashed, vid)


def test_no_phantom_round_after_trailing_invalidations():
    world, rt, recs = launch(4, crashed=(2, 4))
    world.run()
    for vid in range(1, 5):
        vs = rt.states[vid]
        assert vs.rounds_completed == 1
        assert slot_flags(vs) == (True, False, True, False)


def test_single_voter_farm_never_broadcasts():
    world, rt, recs = launch(1)
    world.run()
    vs = rt.states[1]
    assert vs.broadcasts_sent == 0
    assert vs.round_finished_at == 0.0
    assert vs.last_outcome.value.data == V42.data
    assert recs[1]["outcome"].value.data == V42.data


def test_delayed_broadcast_arrives_late_and_stays_invalid():
    """A frame landing after its slot timed out is counted and discarded.

    Delaying voter 1's frame to voter 2 past delta_t makes voter 2 miss
    slot 1, so voter 2 only broadcasts after its own timeout fires, at 1.0.
    Voter 1 waits on slot 2 from the round's open and times out at that
    same instant, first: voter 2's broadcast lands on it after that, late.
    Voter 3 had heard slot 1 at once, and takes voter 2's broadcast, which
    lands before its own timer's turn.  The delayed frame reaches voter 2
    at 1.2, late.  Voter 3's user is silent, so at 2.0 voter 3 times out on
    its own slot and invalidates it; that frame lands on voters 1 and 2
    before their timers on slot 3 take their turns.  The run is past the
    bound (a crash and a delay at N = 3): voters 1 and 2 lose the majority,
    and voter 3 keeps it.
    """
    world, rt, recs = launch(3, crashed=(3,))
    world.fabric.add_hook(delay_hook(voter_name("f", 1), voter_name("f", 2), delay=1.2))
    world.run()
    v1, v2, v3 = (rt.states[i] for i in (1, 2, 3))
    assert v2.late_arrivals == 1
    assert slot_flags(v2) == (False, True, False)
    assert slot_flags(v1) == (True, False, False)
    assert slot_flags(v3) == (True, True, False)
    for state, late, timeouts in ((v1, 1, 1), (v2, 1, 1), (v3, 0, 1)):
        assert (state.late_arrivals, state.stray_messages) == (late, 0)
        assert (state.rounds_completed, state.timeouts) == (1, timeouts)
    assert v1.last_outcome.failure == v2.last_outcome.failure == ErrorCode.NO_MAJORITY
    assert v3.last_outcome.value == V42


def asking_user(world, rt, uid, log):
    """GET before, during, and after a round; CLOSE mid-round and after."""
    ep = rt.user_endpoints[uid]
    send = lambda m: world.fabric.send_from(ep, encode_message(m))

    def recv():
        got = yield Wait((ep.inbox,), 6 * rt.delta_t)
        return None if got is TIMED_OUT else got[1]

    send(Message(Tag.GET, USER))
    msg = yield from recv()
    log.append(("get-idle", msg.tag, msg.payload))

    send(Message(Tag.INPUT, USER, V42))
    send(Message(Tag.GET, USER))
    msg = yield from recv()
    log.append(("get-open", msg.tag))
    send(Message(Tag.CLOSE, USER))
    msg = yield from recv()
    log.append(("close-open", msg.tag))

    while True:
        msg = yield from recv()
        if msg is None or msg.tag == Tag.DONE:
            break
    send(Message(Tag.GET, USER))
    msg = yield from recv()
    log.append(("get-voted", msg.tag, msg.payload.value.data))
    send(Message(Tag.CLOSE, USER))
    msg = yield from recv()
    log.append(("close-voted", msg.tag))


def test_get_and_close_respect_the_round():
    world = World(VIRTUAL)
    world.scheduler.kill_names.add(user_name("f", 2))
    rt = world.activate_farm("f", (1, 2, 3), metric="euclidean", delta_t=1.0)
    log = []
    world.spawn_user("f", 1, asking_user(world, rt, 1, log))
    world.spawn_user("f", 3, plain_user(world, rt, 3, V42, {}))
    world.run()
    assert log[0][:2] == ("get-idle", Tag.REFUSED)
    assert log[1] == ("get-open", Tag.REFUSED)
    assert log[2] == ("close-open", Tag.REFUSED)
    assert log[3] == ("get-voted", Tag.VOTED_VALUE, V42.data)
    assert log[4] == ("close-voted", Tag.DONE)
    v1 = world.scheduler.activities[voter_name("f", 1)]
    assert not v1.live  # terminated by the CLOSE
    assert rt.states[1].refusals == 3
    # CLOSE must not have been treated as round traffic
    assert rt.states[1].rounds_completed == 1


def test_set_algorithm_lands_mid_round():
    """A SET arriving while the round is open governs that round's vote."""
    world = World(VIRTUAL)
    world.scheduler.kill_names.add(user_name("f", 3))
    rt = world.activate_farm("f", (1, 2, 3), metric="euclidean", delta_t=1.0)

    def switching_user(uid, value):
        ep = rt.user_endpoints[uid]
        send = lambda m: world.fabric.send_from(ep, encode_message(m))
        send(Message(Tag.INPUT, USER, VoteValue.from_floats([value])))
        if uid == 1:
            send(Message(Tag.SET_ALGORITHM, USER, AlgorithmId(VoteKind.MEDIAN)))
        yield from sleep(5.0)

    world.spawn_user("f", 1, switching_user(1, 1.0))
    world.spawn_user("f", 2, switching_user(2, 2.0))
    world.run()
    # voter 1 voted with the new algorithm, voter 2 with the old one
    assert rt.states[1].last_outcome.value.floats() == (1.0,)
    assert rt.states[2].last_outcome.failure == ErrorCode.NO_MAJORITY


def test_slot_vectors_agree_across_voters():
    for crashed in ((), (1,), (3,), (2, 5)):
        world, rt, _ = launch(5, crashed=crashed)
        world.run()
        vectors = {slot_flags(rt.states[vid]) for vid in range(1, 6)}
        assert len(vectors) == 1, crashed
        outcomes = {
            rt.states[vid].last_outcome.value.data for vid in range(1, 6)
        }
        assert len(outcomes) == 1, crashed


# -- stray messages and arrival counts -------------------------------------------


def quiet_farm(sends):
    """A farm of three where only voter 1 runs and no user speaks; a feeder
    activity sends each (at, (src, dst), message) from party `src` to party
    `dst` at virtual time `at`.  A party is a voter id, or ("user", uid); a
    voter's frame to a fellow reaches the killed third voter too."""
    world = World(VIRTUAL)
    world.scheduler.kill_names.update(voter_name("f", vid) for vid in (2, 3))
    rt = world.activate_farm("f", (1, 2, 3), metric="euclidean")

    def name(party):
        return user_name("f", party[1]) if isinstance(party, tuple) else voter_name("f", party)

    def end(src, dst):
        """The end `src` reaches `dst` from: a voter reaches a fellow only
        through its mesh end, which sends to every fellow."""
        if isinstance(src, int) and isinstance(dst, int):
            assert name(dst) in rt.states[src].mesh_ep.peers
            return rt.states[src].mesh_ep
        return world.fabric.endpoint(name(src), name(dst))

    def feeder():
        for at, (src, dst), msg in sends:
            yield from sleep(at - world.scheduler.now)
            world.fabric.send_from(end(src, dst), encode_message(msg))

    world.spawn("feeder", feeder())
    world.run()
    return rt


USER1 = (("user", 1), 1)  # user 1 to voter 1
FELLOW = (2, 1)  # voter 2 to voter 1


@pytest.mark.parametrize("rnd", [0, 2])
def test_invalid_broadcast_between_rounds_for_another_round_is_late(rnd):
    """Between rounds a broadcast counts only for the next round: one for a
    round that is not next changes nothing but the late count."""
    rt = quiet_farm([(0.0, FELLOW, Message(Tag.BROADCAST_INVALID, 2, round=rnd))])
    v1 = rt.states[1]
    assert (v1.late_arrivals, v1.stray_messages, v1.messages_received) == (1, 0, 1)
    assert v1.round_started_at is None
    assert v1.rounds_completed == v1.timeouts == 0


def test_invalid_broadcast_between_rounds_for_the_next_round_opens_it():
    """An invalidation of the next round opens it like a value would: voter
    1 takes its turn at once and times out on the silent third slot."""
    rt = quiet_farm([(0.0, FELLOW, Message(Tag.BROADCAST_INVALID, 2, round=1))])
    v1 = rt.states[1]
    assert (v1.late_arrivals, v1.stray_messages, v1.messages_received) == (0, 0, 1)
    assert v1.round_started_at == 0.0
    assert (v1.rounds_completed, v1.timeouts) == (1, 1)
    assert v1.last_slots == (None, None, None)


@pytest.mark.parametrize("sender", [1, 4])
def test_broadcast_from_own_or_unknown_id_is_a_stray(sender):
    """Voter 1 of three: its own id and an id above N own no slot."""
    strays = [
        Message(Tag.BROADCAST_VALUE, sender, V42, round=1),
        Message(Tag.BROADCAST_INVALID, sender, round=1),
    ]
    # between rounds the value broadcast is the first arrival
    rt = quiet_farm([(0.0, FELLOW, strays[0])])
    v1 = rt.states[1]
    assert (v1.stray_messages, v1.late_arrivals) == (1, 0)
    # ... and opens no round
    assert v1.rounds_completed == v1.timeouts == 0
    assert v1.round_started_at is None
    assert v1.last_outcome is None
    # in a round, opened by user 1's input
    rt = quiet_farm(
        [(0.0, USER1, Message(Tag.INPUT, USER, V42))]
        + [(0.5, FELLOW, msg) for msg in strays]
    )
    v1 = rt.states[1]
    assert (v1.stray_messages, v1.late_arrivals) == (2, 0)
    assert v1.rounds_completed == 1
    assert slot_flags(v1) == (True, False, False)


def test_own_slot_refuses_a_second_input_and_counts_a_late_one():
    """The voter's own slot decides what an INPUT in an open round is."""
    v7 = VoteValue.from_floats([7.0])
    # a second input while the first holds the own slot is refused
    rt = quiet_farm(
        [
            (0.0, USER1, Message(Tag.INPUT, USER, V42)),
            (0.5, USER1, Message(Tag.INPUT, USER, v7)),
        ]
    )
    v1 = rt.states[1]
    assert (v1.refusals, v1.late_arrivals) == (1, 0)
    assert v1.rounds_completed == 1
    assert v1.last_slots == (V42, None, None)
    # a fellow's broadcast opens the round; voter 1's turn comes at once
    # and invalidates its own slot, so the input that follows is late
    rt = quiet_farm(
        [
            (0.0, FELLOW, Message(Tag.BROADCAST_VALUE, 2, V42, round=1)),
            (0.5, USER1, Message(Tag.INPUT, USER, v7)),
        ]
    )
    v1 = rt.states[1]
    assert (v1.refusals, v1.late_arrivals) == (0, 1)
    assert v1.rounds_completed == 1
    assert v1.last_slots == (None, V42, None)


REPLIES = [
    Message(Tag.DONE, 2),
    Message(Tag.REFUSED, 2),
    Message(Tag.VOTED_VALUE, 2, VoteOutcome(value=V42)),
]


@pytest.mark.parametrize("in_round", [False, True])
def test_replies_sent_to_a_voter_are_strays(in_round):
    opener = [(0.0, USER1, Message(Tag.INPUT, USER, V42))] if in_round else []
    replies = [(0.5, route, msg) for route in (USER1, FELLOW) for msg in REPLIES]
    rt = quiet_farm(opener + replies)
    v1 = rt.states[1]
    assert v1.stray_messages == 6
    assert v1.refusals == 0
    assert v1.rounds_completed == int(in_round)
    assert v1.round_started_at == (0.0 if in_round else None)


def test_messages_received_counts_arrivals_not_timeouts():
    world, rt, _ = launch(4, crashed=(2, 3))
    landed = {vid: 0 for vid in range(1, 5)}

    def count(d):
        for vid in landed:
            if d.dst == voter_name("f", vid):
                landed[vid] += 1

    world.fabric.add_hook(count)
    world.run()
    assert sum(rt.states[vid].timeouts for vid in landed) > 0
    for vid in landed:
        assert rt.states[vid].messages_received == landed[vid], vid


def test_an_outcome_for_an_unlinked_target_is_undeliverable():
    """An output target the voter has no link to gets no frame; the voter
    counts the outcome it could not push instead."""
    world = World(VIRTUAL)
    sent_to = []
    world.fabric.add_hook(lambda d: sent_to.append(d.dst))

    def user():
        handle = open_farm(world, "f", 1)
        assert handle.add(1) and handle.run()
        assert (yield from handle.control([Output("nowhere"), Input(V42)]))
        outcome = yield from handle.get(5.0)
        assert outcome.value.data == V42.data

    world.spawn_user("f", 1, user())
    world.run()
    v1 = world.farms["f"].states[1]
    assert v1.output_target == "nowhere"
    assert (v1.rounds_completed, v1.undeliverable) == (1, 1)
    assert sent_to and "nowhere" not in sent_to


@pytest.mark.parametrize("n", [2, 3])
def test_an_outcome_for_a_fellow_voter_is_undeliverable(n):
    """The mesh carries broadcasts only, so an output target naming a
    fellow voter gets no frame either, also at N = 2, where the mesh is a
    link of two: the fellow hears the voter's broadcast alone and counts no
    stray, and the voter counts the outcome it could not push."""
    world = World(VIRTUAL)
    v1_to_v2 = []
    world.fabric.add_hook(
        lambda d: d.src == voter_name("f", 1)
        and d.dst == voter_name("f", 2)
        and v1_to_v2.append(decode_message(d.frame).tag)
    )

    def user(uid, requests):
        handle = open_farm(world, "f", uid)
        assert all(handle.add(node) for node in range(1, n + 1)) and handle.run()
        assert (yield from handle.control(requests))
        outcome = yield from handle.get(5.0)
        assert outcome.value.data == V42.data

    world.spawn_user("f", 1, user(1, [Output(voter_name("f", 2)), Input(V42)]))
    for uid in range(2, n + 1):
        world.spawn_user("f", uid, user(uid, [Input(V42)]))
    world.run()
    v1, v2 = world.farms["f"].states[1], world.farms["f"].states[2]
    assert v1.output_target == voter_name("f", 2)
    assert (v1.rounds_completed, v1.undeliverable) == (1, 1)
    assert v1_to_v2 == [Tag.BROADCAST_VALUE]
    assert (v2.rounds_completed, v2.stray_messages, v2.undeliverable) == (1, 0, 0)


# -- the farm's shared vote memo -----------------------------------------------


@pytest.fixture
def vote_calls(monkeypatch):
    """Every (algorithm, slots) the voters hand to `vote`."""
    calls = []

    def counted(algorithm, slots, metric):
        calls.append((algorithm, slots))
        return vote(algorithm, slots, metric)

    monkeypatch.setattr(votefarm.voter, "vote", counted)
    return calls


def rounds_user(world, rt, uid, values, set_before=None):
    """One round per value, ten time units apart; with `set_before`, send
    that SET_ALGORITHM five units before the last round."""
    ep = rt.user_endpoints[uid]
    send = lambda m: world.fabric.send_from(ep, encode_message(m))
    for r, value in enumerate(values):
        if r:
            yield from sleep(5.0)
            if set_before is not None and r == len(values) - 1:
                send(Message(Tag.SET_ALGORITHM, USER, set_before))
            yield from sleep(5.0)
        send(Message(Tag.INPUT, USER, VoteValue.from_floats([value])))
        while True:
            got = yield Wait((ep.inbox,), 3 * rt.delta_t)
            if got is TIMED_OUT or got[1].tag == Tag.DONE:
                break


def run_rounds(n, values_of, set_before=None):
    """A majority farm of n; user uid feeds the values `values_of(uid)`."""
    world = World(VIRTUAL)
    rt = world.activate_farm("f", tuple(range(1, n + 1)), metric="euclidean")
    for uid in range(1, n + 1):
        world.spawn_user("f", uid, rounds_user(world, rt, uid, values_of(uid), set_before))
    world.run()
    return rt


def test_fault_free_farm_votes_once_per_round(vote_calls):
    rt = run_rounds(7, lambda uid: [1.0, 2.0, 3.0])
    assert [slots[0].floats() for _, slots in vote_calls] == [(1.0,), (2.0,), (3.0,)]
    first = rt.states[1].last_outcome
    for state in rt.states.values():
        assert state.rounds_completed == 3
        assert state.last_outcome is first  # one outcome, shared
    assert first.value.floats() == (3.0,)


def test_split_vectors_get_one_vote_each(vote_calls):
    world, rt, _ = launch(5, inputs=[1, 2, 2, 2, 3])
    for dst in (2, 4):
        world.fabric.add_hook(drop_hook(voter_name("f", 1), voter_name("f", dst)))
    world.run()
    seen = {(st.algorithm, st.last_slots) for st in rt.states.values()}
    # the drops split the voters in three: voters 2 and 4 miss slot 1, and
    # voter 1 times out on slot 2 just before voter 2's broadcast lands
    assert len(seen) == 3
    assert len(vote_calls) == len(seen)
    assert set(vote_calls) == seen
    for state in rt.states.values():
        assert state.last_outcome == vote(
            state.algorithm, state.last_slots, state.metric
        )


def test_set_algorithm_between_rounds_votes_afresh(vote_calls):
    rt = run_rounds(
        3, lambda uid: [float(uid)] * 2, set_before=AlgorithmId(VoteKind.MEDIAN)
    )
    assert [alg.kind for alg, _ in vote_calls] == [VoteKind.MAJORITY, VoteKind.MEDIAN]
    assert vote_calls[0][1] == vote_calls[1][1]  # same vector both rounds
    for state in rt.states.values():
        assert state.last_outcome.value.floats() == (2.0,)  # not NO_MAJORITY


def test_memo_keeps_at_most_n_vectors(vote_calls, voters):
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    rt = run_rounds(3, lambda uid: values)
    assert len(vote_calls) == len(values)
    memo = voters[0].memo
    assert all(v.memo is memo for v in voters)
    # the oldest vectors went first
    assert [slots[0].floats() for _, slots in memo] == [(3.0,), (4.0,), (5.0,)]
    assert list(memo.values())[-1] is rt.states[1].last_outcome


def test_the_memo_tells_a_numeric_value_from_an_opaque_one_with_its_bytes():
    """Equal values hash equal; a numeric and an opaque value with the same
    bytes share a hash but not a memo entry, nor an outcome."""
    assert hash(VoteValue.from_floats([42.0])) == hash(V42)
    assert hash(VoteValue.from_bytes(b"ab")) == hash(VoteValue.from_bytes(b"ab"))
    opaque = VoteValue.from_bytes(V42.data)
    assert hash(opaque) == hash(V42) and opaque != V42
    world = World(VIRTUAL)
    rt = world.activate_farm("f", (1, 2, 3))
    numeric_outcome = rt.states[1]._vote((V42,) * 3)
    opaque_outcome = rt.states[2]._vote((opaque,) * 3)
    assert len(rt.states[1].memo) == 2
    assert numeric_outcome.value == V42 and opaque_outcome.value == opaque
    assert rt.states[3]._vote((opaque,) * 3) is opaque_outcome


def test_a_raising_metric_leaves_no_memo_entry(voters):
    def broken(a, b):
        raise ValueError("broken metric")

    world = World(VIRTUAL)
    rt = world.activate_farm("f", (1, 2, 3), metric=broken)
    for uid in (1, 2, 3):
        world.spawn_user("f", uid, plain_user(world, rt, uid, V42, {}))
    with pytest.raises(ValueError, match="broken metric"):
        world.run()
    assert voters[0].memo == {}
    # every later voter on the same vector raises too
    slots = (V42, V42, V42)
    for voter in voters:
        with pytest.raises(ValueError, match="broken metric"):
            voter._vote(slots)
    assert voters[0].memo == {}


def test_a_memo_lookup_is_linear_in_n(monkeypatch):
    """Voters match their vectors in the farm's memo with `==`, which passes
    the slots they share by identity, instead of hashing all N slots of each
    vector: a fault-free round of 31 voters hashes or compares a value at
    most 4 N times, where one hash per slot and lookup would make N squared."""
    n = 31
    calls = []
    for name in ("__hash__", "__eq__"):

        def counted(self, *args, real=getattr(VoteValue, name)):
            calls.append(self)
            return real(self, *args)

        monkeypatch.setattr(VoteValue, name, counted)
    world, rt, recs = launch(n)
    world.run()
    made = len(calls)
    assert [rec["outcome"].value for rec in recs.values()] == [V42] * n
    assert 0 < made <= 4 * n


def test_the_memo_matches_equal_vectors_and_forgets_evicted_ones(vote_calls):
    """A hit needs equal slots, not the same objects; a vector that N newer
    ones evicted is voted again."""
    world = World(VIRTUAL)
    rt = world.activate_farm("f", (1, 2, 3))
    fresh = lambda x: tuple(VoteValue.from_floats([x]) for _ in range(3))
    first = rt.states[1]._vote(fresh(1.0))
    assert rt.states[2]._vote(fresh(1.0)) is first
    assert len(vote_calls) == 1
    for x in (2.0, 3.0):
        rt.states[3]._vote(fresh(x))
    assert rt.states[3]._vote(fresh(1.0)) is first  # N - 1 newer: still held
    rt.states[3]._vote(fresh(4.0))  # the N-th newer one evicts it
    again = rt.states[1]._vote(fresh(1.0))
    assert again is not first and again == first
    assert len(vote_calls) == 5


# -- the round automaton without a scheduler --------------------------------------


class RecordingFabric:
    """Stands in for the fabric: records each post with its voter's resolved
    count at the time, and schedules nothing."""

    def __init__(self):
        self.scheduler = SimpleNamespace(now=0.0)
        self.voter = None
        self.posts = []

    def post(self, endpoint, msg):
        self.posts.append((endpoint, msg, self.voter.resolved))


def lowest_open(slots):
    """The index of the lowest open slot, the one the voter's timer waits on."""
    return next(i for i, slot in enumerate(slots) if slot is votefarm.voter._OPEN)


def timer_rule(before, after):
    """What `on_event` returns by the timer rule, given the voter's slots
    before and after an event that left a round open: a fresh delta_t (1.0
    here) if the event opened the round or resolved its lowest open slot,
    else KEEP."""
    if before is None or lowest_open(after) != lowest_open(before):
        return 1.0
    return KEEP


def direct_voter(me, algorithm=AlgorithmId(VoteKind.MAJORITY)):
    """Voter `me` of three on a RecordingFabric, with stand-in user and mesh
    ends; returns the voter, its fabric and the two ends."""
    fabric = RecordingFabric()
    user_ep = SimpleNamespace(name="user")
    mesh_ep = SimpleNamespace(peers=tuple(vid for vid in (1, 2, 3) if vid != me))
    fabric.voter = v = Voter(voter_name("f", me), me, fabric, user_ep, mesh_ep, {}, 1.0,
                             default_metric, algorithm)
    return v, fabric, user_ep, mesh_ep


@pytest.mark.parametrize("order", list(itertools.permutations(("input", "a", "b"))))
@pytest.mark.parametrize("me", [1, 2, 3])
def test_the_round_automaton_runs_on_direct_calls(me, order, vote_calls):
    """Voter `me` of three, called directly with its user's INPUT and its
    fellows a's and b's broadcasts in `order`, a GET before each until the
    round closes: one round closes, with one broadcast at the voter's turn
    and one vote on the closed vector, and every GET before the close is
    refused and keeps the deadline.  Each event of the open round returns
    a fresh delta_t only when it opens the round or resolves the lowest
    open slot (the timer rule).  An input fed after the close (its slot went invalid at the
    turn) opens a new round, on which nothing is checked here."""
    a, b = (vid for vid in (1, 2, 3) if vid != me)
    values = {vid: VoteValue.from_floats([float(vid)]) for vid in (1, 2, 3)}
    events = {
        "input": Message(Tag.INPUT, USER, values[me]),
        "a": Message(Tag.BROADCAST_VALUE, a, values[a], round=1),
        "b": Message(Tag.BROADCAST_VALUE, b, values[b], round=1),
    }
    majority = AlgorithmId(VoteKind.MAJORITY)
    v, fabric, user_ep, mesh_ep = direct_voter(me, majority)
    closed_at = None
    for event in order:
        if closed_at is None:
            start = len(fabric.posts)
            assert v.on_event(Message(Tag.GET, USER)) is (None if v.slots is None else KEEP)
            assert [m for _, m, _ in fabric.posts[start:]] == [Message(Tag.REFUSED, me)]
        before = None if v.slots is None else list(v.slots)
        timeout = v.on_event(events[event])
        if closed_at is None:
            assert timeout == (timer_rule(before, v.slots) if v.rounds_completed == 0 else None)
            if v.rounds_completed:
                closed_at = len(fabric.posts)
                assert fabric.posts[-1][:2] == (user_ep, Message(Tag.DONE, me))
                assert v.on_event(Message(Tag.GET, USER)) is None
                assert fabric.posts[-1][1] == Message(Tag.VOTED_VALUE, me, v.last_outcome)
    assert v.rounds_completed == 1
    heard = order.index("input") < me  # the input came by the voter's turn
    broadcasts = [(m, resolved) for end, m, resolved in fabric.posts[:closed_at] if end is mesh_ep]
    if heard:
        own = Message(Tag.BROADCAST_VALUE, me, values[me], round=1)
    else:
        own = Message(Tag.BROADCAST_INVALID, me, round=1)
    assert broadcasts == [(own, me)]  # posted when `me` slots were resolved
    closed = tuple(values[vid] if vid != me or heard else None for vid in (1, 2, 3))
    assert v.last_slots == closed
    assert vote_calls == [(majority, closed)]
    assert v.last_outcome == vote(majority, closed, default_metric)


def value_of(vid):
    return VoteValue.from_floats([float(vid)])


def test_a_late_value_of_a_closed_round_opens_no_round():
    """Voter 2 of three: fellow 3's round-1 value opens round 1, a timeout
    invalidates slot 1, which makes it voter 2's turn with no input, so it
    invalidates its own slot and closes the round.  Fellow 1's round-1
    value lands after that close: a late arrival, not a second round."""
    v, fabric, _, mesh_ep = direct_voter(2)
    assert v.on_event(Message(Tag.BROADCAST_VALUE, 3, value_of(3), round=1)) == 1.0
    assert v.on_event(TIMED_OUT) is None
    assert (v.rounds_completed, v.last_slots) == (1, (None, None, value_of(3)))
    posts = len(fabric.posts)
    assert v.on_event(Message(Tag.BROADCAST_VALUE, 1, value_of(1), round=1)) is None
    assert (v.rounds_completed, v.late_arrivals, v.stray_messages) == (1, 1, 0)
    assert v.slots is None and v.last_slots == (None, None, value_of(3))
    assert len(fabric.posts) == posts  # nothing posted for a late arrival
    broadcasts = [m for end, m, _ in fabric.posts if end is mesh_ep]
    assert broadcasts == [Message(Tag.BROADCAST_INVALID, 2, round=1)]


def voter_one_after_round_one():
    """Voter 1 of three, its first round closed on every participant's value."""
    v, fabric, _, mesh_ep = direct_voter(1)
    v.on_event(Message(Tag.INPUT, USER, value_of(1)))
    for vid in (2, 3):
        v.on_event(Message(Tag.BROADCAST_VALUE, vid, value_of(vid), round=1))
    assert v.rounds_completed == 1 and v.slots is None
    return v, fabric, mesh_ep


def test_an_invalidation_of_the_next_round_opens_it_between_rounds():
    """After round 1 closed, fellow 3's round-2 invalidation opens round 2
    with slot 3 invalid; voter 1's own turn then comes at once."""
    v, fabric, mesh_ep = voter_one_after_round_one()
    assert v.on_event(Message(Tag.BROADCAST_INVALID, 3, round=2)) == 1.0
    assert v.slots == [None, votefarm.voter._OPEN, None]
    assert (v.rounds_completed, v.late_arrivals, v.stray_messages) == (1, 0, 0)
    broadcasts = [m for end, m, _ in fabric.posts if end is mesh_ep]
    assert broadcasts == [
        Message(Tag.BROADCAST_VALUE, 1, value_of(1), round=1),
        Message(Tag.BROADCAST_INVALID, 1, round=2),
    ]


@pytest.mark.parametrize("rnd", [0, 1, 3])
def test_a_broadcast_for_a_round_neither_open_nor_next_is_late(rnd):
    """In round 2, a broadcast of any round but 2 fills no slot and keeps
    the deadline."""
    v, _, _ = voter_one_after_round_one()
    assert v.on_event(Message(Tag.INPUT, USER, value_of(1))) == 1.0
    opened = list(v.slots)
    assert v.on_event(Message(Tag.BROADCAST_VALUE, 2, value_of(2), round=rnd)) is KEEP
    assert v.on_event(Message(Tag.BROADCAST_INVALID, 3, round=rnd)) is KEEP
    assert v.slots == opened and v.resolved == 1
    assert (v.late_arrivals, v.stray_messages, v.rounds_completed) == (2, 0, 1)


def successors(v, ghosts):
    """The events voter `v` of three can take next, with the ghost counts
    after each: its user's inputs so far and each fellow's broadcasts so
    far, two at most of each, so the search ends; a broadcast names its
    fellow's ghost round, one past that fellow's count."""
    inputs, sent = ghosts
    me = v.voter_id
    if inputs < 2:
        yield Message(Tag.INPUT, USER, VoteValue.from_floats([me, inputs])), (inputs + 1, sent)
    for i, vid in enumerate(vid for vid in (1, 2, 3) if vid != me):
        if sent[i] < 2:
            after = (inputs, sent[:i] + (sent[i] + 1,) + sent[i + 1 :])
            rnd = sent[i] + 1
            yield Message(Tag.BROADCAST_VALUE, vid, value_of(vid), round=rnd), after
            yield Message(Tag.BROADCAST_INVALID, vid, round=rnd), after
    yield Message(Tag.GET, USER), ghosts
    yield Message(Tag.BROADCAST_VALUE, me, value_of(me), round=1), ghosts  # a stray
    if v.slots is not None:
        yield TIMED_OUT, ghosts


@pytest.mark.parametrize("me", [1, 2, 3])
def test_the_round_automaton_holds_its_rules_in_every_reachable_state(me, vote_calls):
    """Breadth-first over every event order voter `me` of three can see,
    each state a copy of the voter: a broadcast of a closed round opens no
    round, a slot resolves once per round, the voter broadcasts once per
    round, when `me` slots are resolved, a closed round votes on exactly
    the vector it resolved, and an INPUT keeps its rule: it opens the next
    round or fills an open own slot with the input, is refused with no
    change when the own slot holds a value, and is a late arrival with no
    refusal when the own slot was invalidated.  Inside a round the timer
    rule holds: a GET, a stray or a late arrival keeps the deadline, and any
    event returns a fresh delta_t only if it opens the round or resolves its
    lowest open slot."""
    OPEN = votefarm.voter._OPEN
    start, fabric, _, mesh_ep = direct_voter(me)
    frontier, seen = deque([(start, (0, (0, 0)))]), set()
    while frontier:
        v, ghosts = frontier.popleft()
        for event, after in successors(v, ghosts):
            w = copy.copy(v)
            w.slots = None if v.slots is None else list(v.slots)
            w.memo = {}
            fabric.voter, fabric.posts, calls = w, [], len(vote_calls)
            timeout = w.on_event(event)
            rnd = v.rounds_completed + 1  # the round open, or the next one
            before = [OPEN] * 3 if v.slots is None else v.slots
            closed = w.rounds_completed > v.rounds_completed
            now = w.last_slots if closed else w.slots
            if event is not TIMED_OUT and event.tag is not Tag.INPUT and event.round < rnd:
                assert (w.slots, w.resolved, closed) == (v.slots, v.resolved, False)
            if now is not None:
                assert all(b is OPEN or a is b for b, a in zip(before, now))
            if w.slots is not None:
                assert w.resolved == sum(s is not OPEN for s in w.slots)
                assert timeout == timer_rule(v.slots, w.slots)
                idle = event is not TIMED_OUT and event.tag is Tag.GET
                stray = w.stray_messages > v.stray_messages
                if idle or stray or w.late_arrivals > v.late_arrivals:
                    assert timeout is KEEP
            else:
                assert timeout is None
            # the round's resolved count before and after the event
            was = 0 if v.slots is None else v.resolved
            reached = 3 if closed else 0 if w.slots is None else w.resolved
            broadcasts = [(m, r) for end, m, r in fabric.posts if end is mesh_ep]
            if was < me <= reached:
                own = now[me - 1]
                tag = Tag.BROADCAST_INVALID if own is None else Tag.BROADCAST_VALUE
                assert broadcasts == [(Message(tag, me, own, rnd), me)]
            else:
                assert broadcasts == []
            assert w.rounds_completed - v.rounds_completed in (0, 1)
            assert vote_calls[calls:] == ([(w.algorithm, now)] if closed else [])
            if closed:
                assert OPEN not in now and w.slots is None
            if event is not TIMED_OUT and event.tag is Tag.INPUT:
                own = before[me - 1]
                refused = [m for _, m, _ in fabric.posts if m.tag is Tag.REFUSED]
                late = w.late_arrivals - v.late_arrivals
                if own is OPEN:  # no round open, or the own slot of the open one
                    assert now[me - 1] is event.payload and (refused, late) == ([], 0)
                    assert v.slots is not None or w.slots is not None
                else:
                    assert (w.slots, w.resolved, closed) == (v.slots, v.resolved, False)
                    if own is None:
                        assert (refused, late) == ([], 1)
                    else:
                        assert (refused, late) == ([Message(Tag.REFUSED, me)], 0)
            key = (None if w.slots is None else tuple(w.slots), w.resolved,
                   w.rounds_completed, after)
            if key not in seen:
                seen.add(key)
                frontier.append((w, after))
    assert 200 < len(seen) < 400
