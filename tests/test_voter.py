"""Round protocol: turn taking, timeout accounting, and request handling."""

import itertools

from votefarm.client import World
from votefarm.core import (
    USER,
    AlgorithmId,
    ErrorCode,
    Message,
    Tag,
    VoteKind,
    VoteValue,
    encode_message,
)
from votefarm.sim import TIMED_OUT, VIRTUAL, sleep
from votefarm.transport import delay_hook, receive_any
from votefarm.voter import Phase, user_name, voter_name


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
        got = yield from receive_any((ep,), timeout=3 * rt.delta_t)
        if got is TIMED_OUT:
            return
        if got[1].tag == Tag.DONE:
            rec["done_at"] = world.scheduler.now
            break
    send(Message(Tag.GET, USER))
    got = yield from receive_any((ep,), timeout=3 * rt.delta_t)
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
    return tuple(s.valid for s in state.last_slots)


def test_fault_free_round():
    world, rt, recs = launch(3)
    world.run()
    for vid in (1, 2, 3):
        vs = rt.states[vid]
        assert vs.phase == Phase.VOTED
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
        assert vs.phase == Phase.VOTED
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
    slot 1, so voter 2 only broadcasts after its own timeout fires.  The
    fellows armed their windows when the round opened, which means their
    timers go off at the same instant that recovery broadcast is born:
    everyone has already written slot 2 off by the time the frame lands.
    One delayed link therefore costs the whole round, and every voter
    must agree it did.
    """
    world, rt, recs = launch(3, crashed=(3,))
    link = world.fabric.link_between(voter_name("f", 1), voter_name("f", 2))
    world.fabric.add_hook(delay_hook(link, voter_name("f", 2), delay=1.2))
    world.run()
    v1, v2, v3 = (rt.states[i] for i in (1, 2, 3))
    assert v2.late_arrivals == 1
    assert slot_flags(v2) == (False, True, False)
    assert slot_flags(v1) == (True, False, False)
    assert slot_flags(v3) == (True, False, False)
    for state in (v1, v2, v3):
        assert state.late_arrivals == 1
        assert state.last_outcome.failure == ErrorCode.NO_MAJORITY


def asking_user(world, rt, uid, log):
    """GET before, during, and after a round; CLOSE mid-round and after."""
    ep = rt.user_endpoints[uid]
    send = lambda m: world.fabric.send_from(ep, encode_message(m))

    def recv():
        got = yield from receive_any((ep,), timeout=6 * rt.delta_t)
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


def test_transport_collapse_aborts_the_round():
    """With every link gone the round writes itself off wholesale instead
    of grinding through one timeout per open slot."""
    world = World(VIRTUAL)
    world.scheduler.kill_names.add(user_name("f", 2))
    world.scheduler.kill_names.add(user_name("f", 3))
    rt = world.activate_farm("f", (1, 2, 3), metric="euclidean", delta_t=1.0)

    def cutter():
        yield from sleep(0.5)  # voter 1 is now blocked on voter 2's slot
        for _, link in world.fabric.links_of(voter_name("f", 1)):
            link.close()

    world.spawn_user("f", 1, plain_user(world, rt, 1, V42, {}))
    world.spawn("cutter", cutter())
    world.run()
    v1 = rt.states[1]
    assert v1.phase == Phase.VOTED
    assert slot_flags(v1) == (True, False, False)
    # the first gap cost one timeout; the rest were aborted with the links
    assert v1.round_finished_at == 1.0
    assert v1.timeouts == 1
    assert v1.last_outcome.failure == ErrorCode.NO_MAJORITY
    assert v1.undeliverable > 0  # DONE had nowhere to go


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
