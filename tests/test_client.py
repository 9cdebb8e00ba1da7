"""Handle lifecycle and the error-register contract.

Handles never raise for protocol failures; every test here pins down the
(return value, last_error) pair an operation leaves behind.
"""

import gc
import math
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
from votefarm.voting import resolve_metric

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


@pytest.mark.parametrize("bad", [1.5, True, "2"])
def test_user_id_must_be_an_integer(bad):
    """A user id is checked the way a node id is, when the handle is made:
    nothing is spawned for a handle that could never attach."""
    world = World(VIRTUAL)
    with pytest.raises(ValueError):
        open_farm(world, "a", bad)
    assert world.farms == {} and world.scheduler.activities == {}


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


def test_attach_takes_the_running_farm_as_the_handles_own():
    """A bare handle attached to a farm the experiment activated holds
    that farm's description without having described it."""
    world = World(VIRTUAL)
    algorithm = AlgorithmId(VoteKind.MEDIAN, epsilon=0.5)
    rt = world.activate_farm("f", (2, 2, 5), "euclidean", 0.25, algorithm)
    handle = open_farm(world, "f", 3)
    assert handle.attach(rt)
    assert (handle.state, handle.last_error) == (FarmState.RUNNING, ErrorCode.NONE)
    assert handle.nodes == [2, 2, 5]
    assert handle.metric is rt.metric is resolve_metric("euclidean")[0]
    assert handle.delta_t == 0.25
    assert handle.algorithm == algorithm
    assert handle.endpoint is rt.user_endpoints[3]


def test_activate_farm_spawns_one_activity_per_voter():
    """A voter's sends need no activity of their own: a farm of N nodes is
    N voter activities."""
    world = World(VIRTUAL)
    world.activate_farm("f", (1, 2, 2))
    acts = world.scheduler.activities
    assert list(acts) == [voter_name("f", v) for v in (1, 2, 3)]
    assert {act.role for act in acts.values()} == {"voter"}


def test_attach_refuses_a_joined_handle_and_a_farm_without_its_user():
    world = World(VIRTUAL)
    rt = world.activate_farm("f", (1, 2))
    other = world.activate_farm("g", (1, 2))
    spawned = set(world.scheduler.activities)

    def refused(handle, runtime):
        before = (handle.state, handle.nodes, handle.endpoint)
        assert handle.attach(runtime) is False
        assert handle.last_error == ErrorCode.BAD_STATE
        assert (handle.state, handle.nodes, handle.endpoint) == before

    refused(open_farm(world, "f", 3), rt)  # the farm has no user 3
    refused(open_farm(world, "f", 1), other)  # another farm's runtime
    refused(open_farm(World(VIRTUAL), "f", 1), rt)  # another world's farm
    assert set(world.scheduler.activities) == spawned

    closed = {}

    def user(handle):
        closed["ok"] = yield from handle.close(5.0)

    handle = open_farm(world, "f", 1)
    assert handle.attach(rt)
    refused(handle, rt)  # RUNNING
    world.spawn_user("f", 1, user(handle))
    world.run()
    assert closed["ok"] and handle.state == FarmState.CLOSED
    refused(handle, rt)  # CLOSED


def test_add_and_run_after_attach_are_bad_state():
    world = World(VIRTUAL)
    rt = world.activate_farm("f", (1, 2))
    handle = open_farm(world, "f", 2)
    assert handle.attach(rt)
    assert handle.add(3) is False
    assert handle.last_error == ErrorCode.BAD_STATE
    assert handle.run() is False
    assert handle.last_error == ErrorCode.BAD_STATE
    assert handle.nodes == [1, 2] and handle.state == FarmState.RUNNING


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


@pytest.mark.parametrize(
    "batch, error",
    [
        ([Input(V42), ScalingFactor(-1.0)], ValueError),
        ([Input(V42), Algorithm(AlgorithmId(VoteKind.MEDIAN)), object()], TypeError),
        ([Input(V42), Output("\ud800")], ValueError),
    ],
)
def test_a_batch_with_a_bad_request_sends_nothing(batch, error):
    """Every message of a batch, and the algorithm it sets, is built before
    the first is sent: a request that cannot be built leaves no frame on
    the link and the handle's algorithm as it was."""
    world = World(VIRTUAL)
    handle = described_handle(world, "a", 1)
    assert handle.run()
    frames = []
    world.fabric.send_from = lambda endpoint, frame: frames.append(frame)
    with pytest.raises(error):
        next(handle.control(batch))
    assert frames == []
    assert handle.messages_sent == 0
    assert handle.algorithm == AlgorithmId(VoteKind.MAJORITY)


def test_a_handle_drains_its_link_through_one_wait(monkeypatch):
    """The zero-timeout wait of a drain is built once, when the handle
    attaches: a control batch builds no Wait, however much it drains."""
    world = World(VIRTUAL)
    handle = described_handle(world, "a", 1, n=2)
    assert handle.run()
    rt = world.farms["a"]
    built = []
    post_init = Wait.__post_init__
    monkeypatch.setattr(Wait, "__post_init__", lambda w: (built.append(w), post_init(w)))
    done = []

    def user():
        done.append((yield from handle.control([Input(V42), Input(V42)])))

    world.spawn_user("a", 1, user())
    world.run()
    # the second input was refused, so the drain took a REFUSED off the link
    assert done == [False] and handle.last_error == ErrorCode.REFUSED
    assert rt.states[1].refusals == 1
    assert [w for w in built if handle.endpoint.inbox in w.sources] == []


def test_a_request_answered_before_the_clock_moves_builds_one_wait(monkeypatch):
    """A get builds its timed wait before it sends; while the clock stands
    still the time left is the whole timeout, so it receives on that wait."""
    world = World(VIRTUAL)
    handle = described_handle(world, "a", 1, n=1)
    assert handle.run()
    built = []
    post_init = Wait.__post_init__
    monkeypatch.setattr(Wait, "__post_init__", lambda w: (built.append(w), post_init(w)))
    got = []

    def user():
        assert (yield from handle.control([Input(V42)]))
        got.append((yield from handle.get(timeout=2.0)))

    world.spawn_user("a", 1, user())
    world.run()
    assert got[0].value == V42 and world.scheduler.now == 0.0
    assert [w.timeout for w in built if handle.endpoint.inbox in w.sources] == [2.0]


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_farms_members_are_its_formatted_voter_and_user_names(n):
    rt = World(VIRTUAL).activate_farm("m", range(1, n + 1))
    ids = range(1, n + 1)
    assert rt.members == {voter_name("m", i) for i in ids} | {user_name("m", i) for i in ids}


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


@pytest.mark.parametrize(
    "request_name, timeout", [("get", math.inf), ("get", math.nan), ("close", -1.0)]
)
def test_a_request_with_a_bad_timeout_raises_before_its_frame_is_sent(request_name, timeout):
    """A timeout no Wait accepts raises ValueError out of get or close with
    nothing sent, so the voter never sees the request and the handle can
    still vote and close."""
    world = World(VIRTUAL)
    seen = {}

    def script():
        handle = described_handle(world, "t", 1, n=1)
        assert handle.run()
        with pytest.raises(ValueError, match="timeout"):
            yield from getattr(handle, request_name)(timeout=timeout)
        seen["sent"] = handle.messages_sent
        yield from handle.control([Input(V42)])
        seen["got"] = yield from handle.get(5.0)
        closed = yield from handle.close(5.0)
        seen["closed"] = (closed, handle.state)

    world.spawn_user("t", 1, script())
    world.run()
    assert seen["sent"] == 0
    assert seen["got"].value == V42
    assert seen["closed"] == (True, FarmState.CLOSED)
    assert world.farms["t"].states[1].messages_received == 3  # INPUT, GET, CLOSE


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


def test_second_input_of_a_batch_is_refused_while_its_round_is_open():
    """The voter turns down an input that lands while the round the first
    one opened is still waiting for its crashed fellows' users."""
    world = World(VIRTUAL)
    world.scheduler.kill_names.update({user_name("b", 2), user_name("b", 3)})
    seen = {}

    def script(uid):
        handle = described_handle(world, "b", uid)
        assert handle.run()
        one, two = VoteValue.from_floats([1.0]), VoteValue.from_floats([2.0])
        ok = yield from handle.control([Input(one), Input(two)])
        seen[uid] = (ok, handle.last_error)

    for uid in (1, 2, 3):
        world.spawn_user("b", uid, script(uid))
    world.run()
    assert seen == {1: (False, ErrorCode.REFUSED)}
    assert world.farms["b"].states[1].refusals == 1


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
