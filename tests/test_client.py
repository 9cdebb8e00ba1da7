"""Handle lifecycle and the error-register contract.

Handles never raise for protocol failures; every test here pins down the
(return value, last_error) pair an operation leaves behind.
"""

import gc
import weakref

import pytest

from votefarm.client import (
    Algorithm,
    Input,
    Output,
    ScalingFactor,
    World,
    open_farm,
)
from votefarm.core import (
    AlgorithmId,
    ErrorCode,
    FarmState,
    Message,
    Tag,
    VoteKind,
    VoteOutcome,
    VoteValue,
    encode_message,
)
from votefarm.sim import VIRTUAL, Wait, sleep
from votefarm.transport import LinkCensus
from votefarm.voter import user_name, voter_name

V42 = VoteValue.from_floats([42.0])


def run_sync(gen):
    """Drive a handle generator that must return before its first yield."""
    try:
        next(gen)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("generator yielded; expected an immediate return")


def described_handle(world, farm, user_id, n=3, **kw):
    kw.setdefault("metric", "euclidean")
    handle = open_farm(world, farm, user_id, **kw)
    for node in range(1, n + 1):
        assert handle.add(node)
    return handle


# -- local lifecycle, no scheduler needed ------------------------------------


def test_open_farm_starts_declared():
    handle = open_farm(World(VIRTUAL), "a", 1)
    assert handle.state == FarmState.DECLARED
    assert handle.last_error == ErrorCode.NONE
    assert handle.endpoint is None


def test_user_id_must_be_positive():
    with pytest.raises(ValueError):
        open_farm(World(VIRTUAL), "a", 0)


def test_add_rejects_bad_node_ids():
    handle = open_farm(World(VIRTUAL), "a", 1)
    for bad in (0, -2, True, "n1", 1.5):
        assert handle.add(bad) is False
        assert handle.last_error == ErrorCode.BAD_STATE
    # the register clears again on the next good call
    assert handle.add(1)
    assert handle.last_error == ErrorCode.NONE
    assert handle.add(1)  # duplicates are a later concern, not add()'s


def test_run_needs_a_description():
    handle = open_farm(World(VIRTUAL), "a", 1)
    assert handle.run() is False
    assert handle.last_error == ErrorCode.BAD_STATE
    assert handle.state == FarmState.DECLARED


def test_run_twice_is_bad_state():
    world = World(VIRTUAL)
    handle = described_handle(world, "a", 1)
    assert handle.run()
    assert handle.state == FarmState.RUNNING
    assert handle.run() is False
    assert handle.last_error == ErrorCode.BAD_STATE
    assert handle.state == FarmState.RUNNING


def test_add_after_run_is_bad_state():
    world = World(VIRTUAL)
    handle = described_handle(world, "a", 1)
    assert handle.run()
    assert handle.add(4) is False
    assert handle.last_error == ErrorCode.BAD_STATE


def test_attach_requires_the_same_description():
    world = World(VIRTUAL)
    first = described_handle(world, "a", 1)
    assert first.run()

    fewer = open_farm(world, "a", 2, metric="euclidean")
    fewer.add(1), fewer.add(2)
    assert fewer.run() is False
    assert fewer.last_error == ErrorCode.BAD_STATE

    other_metric = described_handle(world, "a", 2, metric=None)
    assert other_metric.run() is False

    other_pace = described_handle(world, "a", 2, delta_t=0.5)
    assert other_pace.run() is False

    other_vote = described_handle(
        world, "a", 2, algorithm=AlgorithmId(VoteKind.MEDIAN)
    )
    assert other_vote.run() is False

    twin = described_handle(world, "a", 2)
    assert twin.run()
    assert twin.endpoint is not None

    def constant(c):
        return lambda a, b: c

    # two closures from one factory share a qualified name, not a function
    world = World(VIRTUAL)
    assert described_handle(world, "f", 1, n=2, metric=constant(0.0)).run()
    assert described_handle(world, "f", 2, n=2, metric=constant(1.0)).run() is False


def test_attach_checks_the_user_id_against_the_farm():
    world = World(VIRTUAL)
    assert described_handle(world, "a", 1).run()
    outsider = described_handle(world, "a", 7)
    assert outsider.run() is False
    assert outsider.last_error == ErrorCode.BAD_STATE

    # the first run() of a farm checks the id too, before bringing it up
    world = World(VIRTUAL)
    activator = described_handle(world, "f", 3, n=2)
    assert activator.run() is False
    assert activator.last_error == ErrorCode.BAD_STATE
    assert world.farms == {}
    assert world.scheduler.activities == {}
    assert described_handle(world, "f", 2, n=2).run()
    assert list(world.farms) == ["f"]


def test_operations_before_run_report_not_running():
    handle = described_handle(World(VIRTUAL), "a", 1)
    assert run_sync(handle.control([Input(V42)])) is False
    assert handle.last_error == ErrorCode.NOT_RUNNING
    assert run_sync(handle.get(1.0)) is None
    assert handle.last_error == ErrorCode.NOT_RUNNING
    assert run_sync(handle.close(1.0)) is False
    assert handle.last_error == ErrorCode.NOT_RUNNING


def test_control_rejects_foreign_requests():
    world = World(VIRTUAL)
    world.activate_farm("a", (1, 2, 3), metric="euclidean")
    handle = described_handle(world, "a", 1)
    assert handle.run()
    with pytest.raises(TypeError):
        next(handle.control([object()]))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_first_handle_run_activates_a_farm_that_passes_the_census(n):
    """No activate_farm call here: the first run() brings the farm up and
    the rest attach, and the result is one correctly wired farm."""
    world = World(VIRTUAL)
    handles = [described_handle(world, "hc", uid, n=n) for uid in range(1, n + 1)]
    assert all(handle.run() for handle in handles)
    assert list(world.farms) == ["hc"]
    world.run()
    assert world.fabric.census() == LinkCensus(n * (n - 1) // 2, n, n)


# -- remote operations, driven inside user activities -------------------------


def test_full_lifecycle():
    """Open, describe, run, configure, vote, read, close: every step
    returns truthy and the error register never trips."""
    world = World(VIRTUAL)
    log = {}

    def lifecycle(uid):
        handle = described_handle(world, "lc", uid)
        steps = []
        steps.append(("run", handle.run(), handle.last_error))
        ok = yield from handle.control(
            [
                Input(V42),
                Output(user_name("lc", uid)),
                Algorithm(AlgorithmId(VoteKind.PLURALITY)),
                ScalingFactor(7.5),
            ]
        )
        steps.append(("control", ok, handle.last_error))
        outcome = None
        for _ in range(5):
            outcome = yield from handle.get(5.0)
            if outcome is not None or handle.last_error != ErrorCode.NONE:
                break
            yield from sleep(1.0)
        steps.append(("get", outcome, handle.last_error))
        ok = yield from handle.close(5.0)
        steps.append(("close", ok, handle.last_error))
        log[uid] = (steps, handle)

    for uid in (1, 2, 3):
        world.spawn_user("lc", uid, lifecycle(uid))
    world.run()

    runtime = world.farms["lc"]
    for uid in (1, 2, 3):
        steps, handle = log[uid]
        for name, result, err in steps:
            if name == "get":
                assert result.value.data == V42.data, (uid, name)
            else:
                assert result is True, (uid, name)
            assert err == ErrorCode.NONE, (uid, name)
        assert handle.state == FarmState.CLOSED
        assert handle.endpoint is None
        # one message per request, then one GET, then one CLOSE
        assert handle.messages_sent == 6
        assert handle.algorithm == AlgorithmId(
            VoteKind.PLURALITY, scaling_factor=7.5
        )
        state = runtime.states[uid]
        assert state.algorithm == handle.algorithm
        assert state.output_target == user_name("lc", uid)
        assert state.rounds_completed == 1
        assert not world.scheduler.activities[voter_name("lc", uid)].live


def test_get_refused_mid_round_is_not_an_error():
    world = World(VIRTUAL)
    seen = {}

    def script():
        handle = described_handle(world, "g", 1)
        assert handle.run()
        yield from handle.control([Input(V42)])
        got = yield from handle.get(0.5)
        seen["mid"] = (got, handle.last_error)
        yield from sleep(5.0)
        got = yield from handle.get(5.0)
        seen["after"] = (got, handle.last_error)

    world.spawn_user("g", 1, script())
    world.run()
    assert seen["mid"] == (None, ErrorCode.NONE)
    got, err = seen["after"]
    assert err == ErrorCode.NONE
    # fellows 2 and 3 never spoke: no majority, but the round did settle
    assert got.failure == ErrorCode.NO_MAJORITY


def test_get_and_close_time_out_against_a_dead_voter():
    world = World(VIRTUAL)
    world.scheduler.kill_names.add(voter_name("d", 1))
    seen = {}

    def script():
        handle = open_farm(world, "d", 1, metric="euclidean")
        assert handle.add(1)
        assert handle.run()
        got = yield from handle.get(1.5)
        seen["get"] = (got, handle.last_error, world.scheduler.now)
        ok = yield from handle.close(1.0)
        seen["close"] = (ok, handle.last_error, handle.state)

    world.spawn_user("d", 1, script())
    world.run()
    assert seen["get"] == (None, ErrorCode.TIMEOUT, 1.5)
    assert seen["close"] == (False, ErrorCode.TIMEOUT, FarmState.RUNNING)


def test_close_refused_mid_round_then_retried():
    world = World(VIRTUAL)
    seen = {}

    def script():
        handle = described_handle(world, "c", 1)
        assert handle.run()
        yield from handle.control([Input(V42)])
        ok = yield from handle.close(0.5)
        seen["mid"] = (ok, handle.last_error, handle.state)
        yield from sleep(5.0)
        ok = yield from handle.close(5.0)
        seen["after"] = (ok, handle.last_error, handle.state)
        ok = yield from handle.close(1.0)
        seen["again"] = (ok, handle.last_error)

    world.spawn_user("c", 1, script())
    world.run()
    assert seen["mid"] == (False, ErrorCode.REFUSED, FarmState.RUNNING)
    assert seen["after"] == (True, ErrorCode.NONE, FarmState.CLOSED)
    # a closed handle has no endpoint left to speak through
    assert seen["again"] == (False, ErrorCode.NOT_RUNNING)


def test_client_traffic_does_not_grow_with_the_farm():
    """One request, one message: the farm size never shows in what a
    user has to say."""
    counts = set()
    for n in range(1, 7):
        world = World(VIRTUAL)
        sent = {}

        def user(uid, n=n, world=world, sent=sent):
            handle = described_handle(world, f"rt{n}", uid, n=n)
            assert handle.run()
            ok = yield from handle.control([Input(V42)])
            assert ok
            got = yield from handle.get(10.0)
            assert got is not None and got.value.data == V42.data
            ok = yield from handle.close(10.0)
            assert ok
            sent[uid] = handle.messages_sent

        for uid in range(1, n + 1):
            world.spawn_user(f"rt{n}", uid, user(uid))
        world.run()
        assert sorted(sent) == list(range(1, n + 1))
        counts.update(sent.values())
    assert counts == {3}  # INPUT, GET, CLOSE; nothing else, at any size


def test_scaling_factor_updates_the_running_algorithm():
    world = World(VIRTUAL)

    def script():
        handle = described_handle(world, "s", 1, n=1)
        assert handle.run()
        ok = yield from handle.control([ScalingFactor(0.25)])
        assert ok
        assert handle.algorithm.scaling_factor == 0.25
        assert handle.algorithm.kind == VoteKind.MAJORITY
        yield from sleep(1.0)

    world.spawn_user("s", 1, script())
    world.run()
    voter = world.farms["s"].states[1]
    assert voter.algorithm == AlgorithmId(VoteKind.MAJORITY, scaling_factor=0.25)


def test_get_and_close_skip_stale_replies():
    """A scripted voter answers each request with a stale push first: GET
    with DONE, then VOTED_VALUE; CLOSE with VOTED_VALUE, then DONE.  Each
    request takes only its own reply and leaves nothing queued."""
    world = World(VIRTUAL)
    world.scheduler.kill_names.add(voter_name("sv", 1))
    rt = world.activate_farm("sv", (1,))
    voter_end = world.fabric.endpoint(voter_name("sv", 1), user_name("sv", 1))
    voted = VoteOutcome(value=V42)
    requests, log = [], {}

    def reply(tag, payload=None):
        world.fabric.send_from(voter_end, encode_message(Message(tag, 1, payload)))

    def scripted_voter():
        _, msg = yield Wait((voter_end.inbox,), None)
        requests.append(msg.tag)
        reply(Tag.DONE)
        reply(Tag.VOTED_VALUE, voted)
        _, msg = yield Wait((voter_end.inbox,), None)
        requests.append(msg.tag)
        reply(Tag.VOTED_VALUE, voted)
        reply(Tag.DONE)

    def user():
        handle = open_farm(world, "sv", 1)
        assert handle.add(1) and handle.run()
        outcome = yield from handle.get(5.0)
        log["get"] = (outcome, handle.last_error)
        closed = yield from handle.close(5.0)
        log["close"] = (closed, handle.last_error, handle.state)

    world.spawn("scripted-voter", scripted_voter())
    world.spawn_user("sv", 1, user())
    world.run()
    assert requests == [Tag.GET, Tag.CLOSE]
    outcome, err = log["get"]
    assert outcome == voted and err == ErrorCode.NONE
    assert log["close"] == (True, ErrorCode.NONE, FarmState.CLOSED)
    assert not rt.user_endpoints[1].inbox.queue
    assert world.scheduler.now == 0.0


def test_a_finished_fault_free_world_is_freed_by_reference_counting():
    """No link end points back at its peer, so a world whose run has ended
    holds no reference cycle: dropping the last outside reference frees it
    with the cyclic garbage collector switched off."""
    results = []

    def user(world, uid):
        handle = described_handle(world, "rc", uid)
        assert handle.run()
        sent = yield from handle.control([Input(V42)])
        got = yield from handle.get(10.0)
        closed = yield from handle.close(10.0)
        results.append((sent, got.value.data, closed))

    gc.disable()
    try:
        world = World(VIRTUAL)
        for uid in (1, 2, 3):
            world.spawn_user("rc", uid, user(world, uid))
        world.run()
        scheduler = weakref.ref(world.scheduler)
        del world
        assert scheduler() is None
    finally:
        gc.enable()
    assert results == [(True, V42.data, True)] * 3
