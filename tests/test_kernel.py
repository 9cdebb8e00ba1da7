"""Scheduler and fabric invariants: stale timers, one heap entry per
waiting activity, valid timeouts and delays, one source per wait, inboxes,
wake order, codec work."""

import math
import time

import pytest

from votefarm import client, harness, sim, transport, voter
from votefarm.client import Input, World, open_farm
from votefarm.core import USER, Message, Tag, VoteOutcome, VoteValue, encode_message
from votefarm.sim import REAL, TIMED_OUT, VIRTUAL, Scheduler, Wait, WaitSource
from votefarm.transport import Fabric, delay_hook, drop_hook
from votefarm.voter import user_name, voter_name

V7 = VoteValue.from_floats([7.0])


def fault_free_farm(n=3, delta_t=1.0):
    """A virtual world in which n users each vote once and close, driven
    through the client API the way the harness drives a stage."""
    world = World(VIRTUAL)
    outcomes = {}

    def user(uid):
        handle = open_farm(world, "f", uid, delta_t=delta_t)
        for node in range(1, n + 1):
            handle.add(node)
        assert handle.run()
        assert (yield from handle.control([Input(V7)]))
        outcomes[uid] = yield from handle.get(timeout=2 * delta_t)
        assert (yield from handle.close(timeout=2 * delta_t))

    for uid in range(1, n + 1):
        world.spawn_user("f", uid, user(uid))
    return world, outcomes


def test_fault_free_virtual_farm_ends_at_time_zero():
    """Every receive timer of a fault-free round is cancelled by the
    message it waited for; retiring them must not move the clock."""
    world, outcomes = fault_free_farm()
    world.run()
    assert [o.value.data for o in outcomes.values()] == [V7.data] * 3
    assert not [a for a in world.scheduler.activities.values() if a.live]
    assert world.scheduler.now == 0.0
    assert world.scheduler._heap == []


def record_real_clock(monkeypatch):
    """Record every world the harness builds, and every sleep of the real
    clock with the number of live activities in the newest world then."""
    worlds = []
    sleeps = []

    class RecordingWorld(World):
        def __init__(self, clock=VIRTUAL):
            super().__init__(clock)
            worlds.append(self)

    class TimeShim:
        def sleep(self, seconds):
            live = sum(a.live for a in worlds[-1].scheduler.activities.values())
            sleeps.append((seconds, live))
            time.sleep(seconds)

        def __getattr__(self, name):
            return getattr(time, name)

    monkeypatch.setattr(harness, "World", RecordingWorld)
    monkeypatch.setattr("votefarm.sim.time", TimeShim())
    return worlds, sleeps


def test_real_clock_world_does_not_sleep_after_its_work(monkeypatch):
    """A real-clock world ends when its last activity ends, instead of
    sleeping through receive timers that were cancelled."""
    worlds, sleeps = record_real_clock(monkeypatch)
    (row,) = harness.bench(n_values=(3,), repetitions=2, delta_t=0.05)
    assert row.repetitions == 2
    assert len(worlds) == 3  # one world per repetition, the dropped one included
    for world in worlds:
        assert world.scheduler.clock_mode == REAL
        assert not [a for a in world.scheduler.activities.values() if a.live]
    assert [s for s in sleeps if s[1] == 0] == []


def test_real_clock_sleeps_until_a_timeout_falls_due(monkeypatch):
    """A crashed user leaves its voter's slot to time out: the real clock
    waits for that timer by sleeping, not by spinning, and the round still
    masks the crash."""
    worlds, sleeps = record_real_clock(monkeypatch)
    spec = harness.ExperimentSpec(
        harness.PipelineSpec((harness.StageSpec(3, delta_t=0.02),)),
        faults=(harness.FaultSpec(harness.FaultKind.CRASH_USER, voter=1),),
        clock=REAL,
    )
    (rep,) = harness.run_experiment(spec).repetitions
    assert [s for s in sleeps if s[1] > 0] != []
    assert rep.duration >= 0.02
    assert [v.outcome.value for v in rep.voters] == [harness.DEFAULT_INPUT] * 3


def test_each_frame_is_decoded_once_and_each_broadcast_encoded_once(monkeypatch):
    """In a world with a fault hook, here one that never matches, every send
    is a frame: each post is encoded once, every copy goes through
    `send_from` and each distinct frame is decoded once."""
    counts = {"decode": 0, "broadcast_encodes": 0, "frames": 0}
    decode, encode = transport.decode_message, transport.encode_message
    send_from = Fabric.send_from

    def counting_decode(frame):
        counts["decode"] += 1
        return decode(frame)

    def counting_encode(msg):
        counts["broadcast_encodes"] += msg.tag == Tag.BROADCAST_VALUE
        return encode(msg)

    def counting_send_from(fabric, endpoint, frame):
        counts["frames"] += len(endpoint.peers)  # one copy per peer
        return send_from(fabric, endpoint, frame)

    monkeypatch.setattr(transport, "decode_message", counting_decode)
    monkeypatch.setattr(transport, "encode_message", counting_encode)
    monkeypatch.setattr(Fabric, "send_from", counting_send_from)
    n = 4
    world, outcomes = fault_free_farm(n)
    world.fabric.add_hook(drop_hook("nobody", "nobody"))
    world.run()
    assert len(outcomes) == n
    broadcasts = sum(s.broadcasts_sent for s in world.farms["f"].states.values())
    assert broadcasts == n
    assert counts["broadcast_encodes"] == broadcasts
    assert counts["frames"] == world.fabric.delivered_total > n * (n - 1)
    # each distinct frame is decoded once: the users' one INPUT, GET and
    # CLOSE, and each voter's broadcast, DONE and VOTED_VALUE
    assert counts["decode"] == 3 * n + 3


def test_a_two_stage_world_holds_linearly_many_link_ends(monkeypatch):
    """Each stage has N user links and one mesh, and each stage-2 user one
    link upstream: 8 N ends at N = 63, where a link per voter pair would
    make the meshes alone 2 N (N - 1)."""
    fabrics = []
    init = Fabric.__init__

    def recording_init(fabric, scheduler):
        fabrics.append(fabric)
        init(fabric, scheduler)

    monkeypatch.setattr(Fabric, "__init__", recording_init)
    n = 63
    spec = harness.ExperimentSpec(
        harness.PipelineSpec((harness.StageSpec(n), harness.StageSpec(n)))
    )
    (rep,) = harness.run_experiment(spec).repetitions
    assert all(v.outcome.value == harness.DEFAULT_INPUT for v in rep.voters)
    (fabric,) = fabrics
    ends = [end for link in fabric.links.values() for end in link]
    assert len(ends) == 8 * n
    assert sum(len(end.peers) == n - 1 for end in ends) == 2 * n


def test_each_broadcast_is_one_post_from_the_voters_mesh_end(monkeypatch):
    """A voter's broadcast is one post from its end of the farm's one mesh
    link, which reaches all N - 1 fellows."""
    posts = []
    post = Fabric.post

    def recording_post(fabric, end, msg):
        posts.append((end, msg))
        post(fabric, end, msg)

    monkeypatch.setattr(Fabric, "post", recording_post)
    n = 5
    world, outcomes = fault_free_farm(n)
    world.run()
    assert len(outcomes) == n
    broadcast = (Tag.BROADCAST_VALUE, Tag.BROADCAST_INVALID)
    for v in world.farms["f"].states.values():
        mine = [end for end, msg in posts if msg.tag in broadcast and end.name == v.name]
        assert len(mine) == v.broadcasts_sent == 1
        assert all(end is v.mesh_ep for end in mine)
        assert len(v.mesh_ep.peers) == n - 1


class CountingTag:
    """Stands in for `Tag` in a module and counts the members looked up."""

    def __init__(self):
        self.lookups = 0

    def __getattr__(self, name):
        self.lookups += 1
        return getattr(Tag, name)


def test_enum_lookups_on_the_frame_path_grow_linearly_in_n(monkeypatch):
    """The voters and handles test each delivered frame's tag against
    members bound at import, and voters build their frames from them too,
    so `Tag` is looked up only for a request a handle builds, not once per
    copy received: 2 N over a fault-free two-stage run, one INPUT per user
    and stage, where receiving alone would make it grow as N squared."""
    lookups = []
    for n in (3, 7, 15):
        proxy = CountingTag()
        monkeypatch.setattr(voter, "Tag", proxy)
        monkeypatch.setattr(client, "Tag", proxy)
        spec = harness.ExperimentSpec(
            harness.PipelineSpec((harness.StageSpec(n), harness.StageSpec(n)))
        )
        (rep,) = harness.run_experiment(spec).repetitions
        assert all(v.outcome.value == harness.DEFAULT_INPUT for v in rep.voters)
        lookups.append(proxy.lookups)
    assert lookups == [6, 14, 30]


def post_to_three_peers(monkeypatch, *hooks):
    """Post one broadcast from the first of four linked parties in a fabric
    with `hooks`; returns the messages encoded, the message posted, the
    fabric and the ends."""
    encodes = []
    monkeypatch.setattr(
        transport, "encode_message", lambda msg: encodes.append(msg) or encode_message(msg)
    )
    sched = Scheduler(VIRTUAL)
    fabric = Fabric(sched)
    for hook in hooks:
        fabric.add_hook(hook)
    for name, node in (("a", 1), ("b", 2), ("c", 3), ("d", 4)):
        fabric.place(name, node)
    ends = fabric.connect(*"abcd")
    msg = Message(Tag.BROADCAST_VALUE, 1, V7)
    fabric.post(ends[0], msg)
    sched.run()
    return encodes, msg, fabric, ends


def test_post_encodes_once_for_every_endpoint(monkeypatch):
    """With a fault hook, here one that never matches, a post is encoded
    once for all its copies."""
    encodes, msg, fabric, (_, *peer_ends) = post_to_three_peers(
        monkeypatch, drop_hook("nobody", "nobody")
    )
    assert encodes == [msg]
    assert fabric.delivered_total == 3
    for peer_end in peer_ends:
        (got,) = peer_end.inbox.queue
        assert got == msg


def test_a_hook_free_post_lands_its_own_message_on_every_peer(monkeypatch):
    """With no fault hook, a post is never encoded: the Message itself lands
    on every peer, counted delivered, and the send still takes an index."""
    encodes, msg, fabric, (a_end, *peer_ends) = post_to_three_peers(monkeypatch)
    assert encodes == [] and fabric._decoded == {}
    assert fabric.delivered_total == 3 and a_end.sent == 1
    for peer_end in peer_ends:
        (got,) = peer_end.inbox.queue
        assert got is msg


def test_a_fault_free_two_stage_world_decodes_only_the_users_frames(monkeypatch):
    """A hook-free world decodes and encodes only what users send.  At
    N = 31 that is three distinct frames decoded, INPUT, GET and CLOSE
    (every input is the same value, in both stages), and one INPUT encoded
    per user and stage; GET and CLOSE are encoded once, at import."""
    decodes, encodes = [], []

    def counting(calls, fn):
        return lambda arg: calls.append(arg) or fn(arg)

    monkeypatch.setattr(transport, "decode_message", counting(decodes, transport.decode_message))
    monkeypatch.setattr(transport, "encode_message", counting(encodes, transport.encode_message))
    monkeypatch.setattr(client, "encode_message", counting(encodes, client.encode_message))
    n = 31
    spec = harness.ExperimentSpec(
        harness.PipelineSpec((harness.StageSpec(n), harness.StageSpec(n)))
    )
    (rep,) = harness.run_experiment(spec).repetitions
    assert all(v.outcome.value == harness.DEFAULT_INPUT for v in rep.voters)
    assert len(decodes) == 3
    assert len(encodes) == 2 * n and {m.tag for m in encodes} == {Tag.INPUT}


def test_a_wait_on_two_sources_raises():
    sched = Scheduler(VIRTUAL)
    a, b = WaitSource(sched), WaitSource(sched)
    a.put(1)

    def consumer():
        yield Wait((a, b), None)

    sched.spawn("consumer", consumer())
    with pytest.raises(ValueError, match="^consumer: a Wait names at most one source$"):
        sched.run()
    assert a.waiter is b.waiter is None
    assert list(a.queue) == [1]


def test_a_voters_user_and_fellow_frames_arrive_in_put_order_on_its_inbox():
    """Frames sent to voter 1 by its user and by three fellows, interleaved,
    land on the voter's one inbox and are received in put order."""
    world = World(VIRTUAL)
    world.scheduler.kill_names.update(voter_name("f", vid) for vid in (1, 2, 3, 4))
    rt = world.activate_farm("f", (1, 2, 3, 4))
    fabric = world.fabric
    v1 = voter_name("f", 1)
    inbox = fabric.inboxes[v1]
    senders = {
        "user": rt.user_endpoints[1],
        **{vid: rt.states[vid].mesh_ep for vid in (2, 3, 4)},
    }
    assert all(end.peer_inboxes[end.peers.index(v1)] is inbox for end in senders.values())
    assert fabric.endpoint(v1, user_name("f", 1)).inbox is inbox
    order = ["user", 3, 2, 4, "user", 2, 3, 4]
    got = []

    def probe():
        for _ in order:
            src, msg = yield Wait((inbox,), None)
            assert src is inbox
            got.append("user" if msg.tag == Tag.INPUT else msg.sender)

    world.spawn("probe", probe())
    world.run()
    for who in order:
        msg = (
            Message(Tag.INPUT, USER, V7)
            if who == "user"
            else Message(Tag.BROADCAST_VALUE, who, V7)
        )
        fabric.send_from(senders[who], encode_message(msg))
    world.run()
    assert got == order


def test_a_finished_or_rebound_waiter_frees_its_source():
    """Rebinding to another source frees the old one, whose queued items
    stay for the next waiter; finishing frees the last one."""
    sched = Scheduler(VIRTUAL)
    a, b = WaitSource(sched), WaitSource(sched)
    got = []

    def consumer(name, sources):
        for src in sources:
            _, item = yield Wait((src,), None)
            got.append((name, item))

    sched.spawn("first", consumer("first", (a, b)))
    sched.run()
    first = sched.activities["first"]
    assert a.waiter is first and b.waiter is None
    a.put(1)
    a.put(2)
    sched.run()
    assert a.waiter is None and b.waiter is first
    assert first.waiting_on == (b,)
    b.put(3)
    sched.run()
    assert a.waiter is b.waiter is None
    assert first.waiting_on is None and first.finished
    sched.spawn("second", consumer("second", (a,)))
    sched.run()
    assert got == [("first", 1), ("first", 3), ("second", 2)]
    assert a.waiter is None


def test_two_live_activities_blocked_on_one_source_raise():
    sched = Scheduler(VIRTUAL)
    shared = WaitSource(sched)

    def consumer():
        yield Wait((shared,), None)

    sched.spawn("first", consumer())
    sched.spawn("second", consumer())
    with pytest.raises(RuntimeError, match="^first and second both wait on one source$"):
        sched.run()


def test_a_second_upstream_push_is_not_taken_as_the_get_reply():
    """A stage-2 user hears its upstream voter on one link and its own voter
    on another.  A second push that lands while GET is outstanding stays on
    the upstream link; GET returns its own voter's reply."""
    world = World(VIRTUAL)
    world.scheduler.kill_names.add(voter_name("s2", 1))
    rt = world.activate_farm("s2", (1,))
    fabric = world.fabric
    upstream = voter_name("s1", 1)
    fabric.place(upstream, 1)
    up_end, cross_end = fabric.connect(upstream, user_name("s2", 1))
    voter_end = fabric.endpoint(voter_name("s2", 1), user_name("s2", 1))
    own, stale = VoteValue.from_floats([1.0]), VoteValue.from_floats([2.0])
    log = {}

    def push(end, value):
        msg = Message(Tag.VOTED_VALUE, 1, VoteOutcome(value=value))
        fabric.send_from(end, encode_message(msg))

    def scripted_voter():
        (inbox,) = rt.user_endpoints[1].peer_inboxes
        while True:
            _, msg = yield Wait((inbox,), None)
            if msg.tag == Tag.GET:
                push(up_end, stale)  # the upstream voter's second push
                push(voter_end, own)
                return

    def user():
        _, first = yield Wait((cross_end.inbox,), None)
        log["first"] = first.payload.value
        handle = open_farm(world, "s2", 1)
        assert handle.add(1) and handle.run()
        log["get"] = yield from handle.get(5.0)

    push(up_end, own)
    world.spawn("scripted-voter", scripted_voter())
    world.spawn_user("s2", 1, user())
    world.run()
    assert log["first"] == own
    assert log["get"] == VoteOutcome(value=own)
    (late,) = cross_end.inbox.queue
    assert late.payload.value == stale


def test_message_landing_after_the_timeout_fired_still_wins():
    """The receive timer fires first and a delayed frame lands at the same
    instant, before the receiver runs: the receiver gets the message."""
    sched = Scheduler(VIRTUAL)
    fabric = Fabric(sched)
    fabric.place("a", 1)
    fabric.place("b", 2)
    a_end, b_end = fabric.connect("a", "b")
    fabric.add_hook(delay_hook("a", "b", delay=1.0))
    seen = {}

    def receiver():
        seen["got"] = yield Wait((b_end.inbox,), 1.0)
        seen["at"] = sched.now

    def sender():
        msg = Message(Tag.INPUT, 0, V7)
        fabric.send_from(a_end, encode_message(msg))
        return
        yield

    sched.spawn("recv", receiver())  # arms its timer first: it fires first
    sched.spawn("send", sender())
    sched.run()
    assert seen["got"] is not TIMED_OUT
    assert seen["got"][1].payload == V7
    assert seen["at"] == 1.0


def test_step_budget_ends_a_run_that_never_blocks(monkeypatch):
    """An activity looping on sleep(0) never lets the run go quiescent;
    the run stops once it has taken MAX_STEPS steps, read when run() is
    called."""
    monkeypatch.setattr(sim, "MAX_STEPS", 50)
    sched = Scheduler(VIRTUAL)
    resumed = []

    def spinner():
        while True:
            yield from sim.sleep(0)
            resumed.append(sched.now)

    sched.spawn("spin", spinner())
    with pytest.raises(RuntimeError, match="^scheduler step budget exhausted$"):
        sched.run()
    assert len(resumed) == 50  # the first step only starts the generator
    assert sched.now == 0.0


handler_spawn = Scheduler.spawn


def generator_spawn(self, name, gen, role="activity", handler=None, inbox=None):
    """Scheduler.spawn, but a handler runs as a generator over the same calls:
    each resume passes the item it waited for to `handler`, and the timeout
    `handler` returns is the next wait's; after KEEP the next wait ends at
    the last fresh timeout's deadline."""

    def as_generator():
        timeout = due = None
        while True:
            got = yield Wait((inbox,), timeout)
            timeout = handler(got if got is TIMED_OUT else got[1])
            if timeout is sim.FINISHED:
                return
            if timeout is sim.KEEP:
                timeout = None if due is None else max(due - self.now, 0.0)
            else:
                due = None if timeout is None else self.now + timeout

    return handler_spawn(self, name, as_generator() if handler else gen, role)


def test_a_handler_step_counts_once_toward_the_step_budget(monkeypatch):
    """Users that send two GETs at a time forever never let the run go
    quiescent.  With MAX_STEPS cut short, the run raises after the same
    steps, in the same order, with the same handler calls in
    each voter step, whether the voters run as handlers or as generators
    over the same automaton: a handler step counts once toward MAX_STEPS,
    however many items it takes, as a generator's resume does."""
    monkeypatch.setattr(sim, "MAX_STEPS", 400)

    def raise_point(spawn_fn):
        trace, calls = [], 0
        on_event, step = voter.Voter.on_event, Scheduler._step

        def counted_on_event(self, got):
            nonlocal calls
            calls += 1
            return on_event(self, got)

        def traced_step(self, act):
            nonlocal calls
            calls = 0
            step(self, act)
            trace.append((act.name, calls))

        def poller(world, ep, uid):
            send = lambda msg: world.fabric.send_from(ep, encode_message(msg))
            send(Message(Tag.INPUT, USER, VoteValue.from_floats([uid])))
            while True:
                send(Message(Tag.GET, USER))
                send(Message(Tag.GET, USER))
                yield Wait((ep.inbox,), 1.0)
                yield Wait((ep.inbox,), 1.0)

        with monkeypatch.context() as m:
            m.setattr(voter.Voter, "on_event", counted_on_event)
            m.setattr(Scheduler, "_step", traced_step)
            m.setattr(Scheduler, "spawn", spawn_fn)
            world = World()
            runtime = world.activate_farm("f", (1, 2, 3))
            for uid, ep in runtime.user_endpoints.items():
                world.spawn_user("f", uid, poller(world, ep, uid))
            with pytest.raises(RuntimeError, match="^scheduler step budget exhausted$"):
                world.run()
        return trace, runtime.states.values()

    trace, voters = raise_point(handler_spawn)
    assert trace == raise_point(generator_spawn)[0]
    assert len(trace) == sim.MAX_STEPS + 1
    voter_steps = [step[1] for step in trace if "/voter" in step[0]]
    assert voter_steps[:3] == [0, 0, 0]  # a first step binds the inbox and waits
    # a step drains its queue: voter k's first takes its input, two GETs and
    # the k - 1 broadcasts that landed in the steps before it; then two GETs
    assert voter_steps[3:6] == [3, 4, 5]
    assert min(voter_steps[3:]) == 2 and max(voter_steps) == 5
    assert voter_steps[-1] == 2  # still receiving at the raise
    assert all(v.rounds_completed == 1 for v in voters)


def test_a_fault_free_two_stage_run_pushes_one_timer_per_waiting_activity(monkeypatch):
    """Inside a fault-free virtual round the clock stands still, so each of
    a voter's receive waits has the deadline of the first: only that first
    wait pushes a heap entry, not every receive.  Stage-1 voter N pushes
    none: every fellow's broadcast has landed by its first step after its
    user's input, so its round closes inside that step.  A user pushes one
    entry for the floor its control batch yields; the timed waits of its
    GET and CLOSE keep that entry, which is still on the heap, as their own
    is due later, and their replies land first.  A stage-2 user pushes one
    more, for its wait for the upstream push: 2N + N + (N - 1) + N."""
    kinds = []
    push = Scheduler._push

    def counting_push(sched, entry):
        kinds.append(entry[2])
        push(sched, entry)

    monkeypatch.setattr(Scheduler, "_push", counting_push)
    stage = harness.StageSpec(31)
    (rep,) = harness.run_experiment(
        harness.ExperimentSpec(harness.PipelineSpec((stage, stage)))
    ).repetitions
    assert all(v.outcome.ok for v in rep.voters)
    assert len(kinds) == 5 * 31 - 1  # 464 while users drained their links by zero-time waits
    assert set(kinds) == {sim._T_TIMER}


def test_a_kept_deadline_fires_in_its_own_place_among_equal_deadlines():
    """A's first timer is superseded: A is woken and blocks again with the
    same deadline, which it keeps until the old entry pops.  C then arms a
    timer due at the same instant.  A drew its deadline first, so A times
    out first, as it would had its second wait pushed its own entry."""
    sched = Scheduler(VIRTUAL)
    inbox = WaitSource(sched)
    timed_out = []

    def a():
        got = yield Wait((inbox,), 1.0)
        assert got == (inbox, "wake")
        got = yield Wait((inbox,), 1.0)
        assert got is TIMED_OUT
        timed_out.append(("a", sched.now))

    def b():
        inbox.put("wake")
        sched.spawn("c", c())  # runs after A's second block
        return
        yield

    def c():
        yield from sim.sleep(1.0)
        timed_out.append(("c", sched.now))

    sched.spawn("a", a())
    sched.spawn("b", b())
    sched.run()
    assert timed_out == [("a", 1.0), ("c", 1.0)]
    assert sched._heap == []


def test_a_kept_deadline_ends_with_its_wait():
    """A deadline kept off the heap belongs to its wait: once the wait is
    woken, the old entry popping pushes nothing, and a later untimed wait
    never times out."""
    sched = Scheduler(VIRTUAL)
    inbox = WaitSource(sched)
    got = []

    def a():
        got.append((yield Wait((inbox,), 1.0))[1])
        got.append((yield Wait((inbox,), 1.0))[1])  # same deadline: kept
        got.append((yield Wait((inbox,), None)))

    def b():
        inbox.put("one")
        yield from sim.sleep(0)  # lets A block with the kept deadline
        inbox.put("two")

    sched.spawn("a", a())
    sched.spawn("b", b())
    sched.run()
    assert got == ["one", "two"]
    assert sched.activities["a"].blocked
    assert sched.now == 0.0 and sched._heap == []


def test_keep_waits_on_until_the_last_fresh_timeout_runs_out():
    """A handler's KEEP reuses the deadline of its last fresh timeout.  Its
    first step drains two items: the first returns 2.0, the second KEEP,
    and the step keeps the fresh 2.0.  An item at 0.5 returns KEEP too, so
    the handler times out at 2.0, not 2.5."""
    sched = Scheduler(VIRTUAL)
    inbox = WaitSource(sched)
    seen = []

    def handler(item):
        seen.append((sched.now, item))
        if item is TIMED_OUT:
            return sim.FINISHED
        return 2.0 if item == "fresh" else sim.KEEP

    def poke():
        yield from sim.sleep(0.5)
        inbox.put("keep")

    inbox.put("fresh")
    inbox.put("keep")
    sched.spawn("h", None, handler=handler, inbox=inbox)
    sched.spawn("poke", poke())
    sched.run()
    assert seen == [(0.0, "fresh"), (0.0, "keep"), (0.5, "keep"), (2.0, TIMED_OUT)]


def test_a_kept_deadline_keeps_its_first_entry_and_its_place(monkeypatch):
    """A handler arms 2.0 at 0.0 and takes a KEEP item at 0.5, when a
    sleeper arms its own 2.0 deadline.  The handler's first entry serves the
    kept deadline: it times out first at 2.0, as it armed first, and no
    second entry is pushed for it."""
    sched = Scheduler(VIRTUAL)
    inbox = WaitSource(sched)
    pushed, fired = [], []
    push = Scheduler._push
    monkeypatch.setattr(Scheduler, "_push", lambda s, e: (pushed.append(e[3]), push(s, e)))

    def handler(item):
        if item is TIMED_OUT:
            fired.append(("handler", sched.now))
            return sim.FINISHED
        return 2.0 if item == "fresh" else sim.KEEP

    def sleeper():
        yield from sim.sleep(0.5)
        inbox.put("keep")
        yield from sim.sleep(1.5)
        fired.append(("sleeper", sched.now))

    inbox.put("fresh")
    handler_act = sched.spawn("h", None, handler=handler, inbox=inbox)
    sched.spawn("s", sleeper())
    sched.run()
    assert fired == [("handler", 2.0), ("sleeper", 2.0)]
    assert pushed.count(handler_act) == 1


def test_a_real_clock_world_sleeps_only_toward_the_live_deadline(monkeypatch):
    """An activity blocks for 0.05, is woken at once, then blocks for 0.3
    and times out.  The superseded entry keeps the 0.3 deadline off the
    heap until it is retired, and it is retired before the clock sleeps:
    the one sleep is toward 0.3."""
    sched = Scheduler(REAL)
    targets = []

    class TimeShim:
        def sleep(self, seconds):
            targets.append(round(sched.now + seconds, 2))
            time.sleep(seconds)

        def __getattr__(self, name):
            return getattr(time, name)

    monkeypatch.setattr("votefarm.sim.time", TimeShim())
    inbox = WaitSource(sched)
    seen = {}

    def waiter():
        yield Wait((inbox,), 0.05)
        seen["got"] = yield Wait((inbox,), 0.3)
        seen["at"] = sched.now

    def waker():
        inbox.put("wake")
        return
        yield

    sched.spawn("waiter", waiter())
    sched.spawn("waker", waker())
    sched.run()
    assert seen["got"] is TIMED_OUT
    assert seen["at"] >= 0.3
    assert targets == [0.3]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_a_wait_timeout_is_none_or_finite_and_not_negative(bad):
    """A NaN deadline is never due, so a NaN sleep used to hang run()
    forever; an inf one jumped the virtual clock to inf; -1 woke at 0."""
    with pytest.raises(ValueError, match=r"^Wait timeout must be None or finite and >= 0, got "):
        Wait((), bad)
    sched = Scheduler(VIRTUAL)
    sched.spawn("sleeper", sim.sleep(bad))
    with pytest.raises(ValueError, match="^Wait timeout must be"):
        sched.run()
    assert sched.now == 0.0 and sched._heap == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_a_call_later_delay_is_finite_and_not_negative(bad):
    sched = Scheduler(VIRTUAL)
    with pytest.raises(ValueError, match=r"^delay must be finite and >= 0, got "):
        sched.call_later(bad, lambda: None)
    assert sched._heap == []
