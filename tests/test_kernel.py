"""Scheduler and fabric invariants: stale timers, wake order, codec work."""

import time

import pytest

from votefarm import harness, sim, transport
from votefarm.client import Input, World, open_farm
from votefarm.core import Message, Tag, VoteValue, encode_message
from votefarm.sim import REAL, TIMED_OUT, VIRTUAL, Scheduler, Wait, WaitSource
from votefarm.transport import Fabric, Outbox, delay_hook

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
    assert not world.scheduler.live_activities()
    assert world.scheduler.now == 0.0
    assert world.scheduler._heap == []


def test_real_clock_world_does_not_sleep_after_its_work(monkeypatch):
    """A real-clock gated-wave world ends when its last activity ends,
    instead of sleeping through receive timers that were cancelled."""
    worlds = []
    sleeps = []

    class RecordingWorld(World):
        def __init__(self, clock=VIRTUAL):
            super().__init__(clock)
            worlds.append(self)

    class TimeShim:
        def sleep(self, seconds):
            live = len(worlds[-1].scheduler.live_activities())
            sleeps.append((seconds, live))
            time.sleep(seconds)

        def __getattr__(self, name):
            return getattr(time, name)

    monkeypatch.setattr(harness, "World", RecordingWorld)
    monkeypatch.setattr("votefarm.sim.time", TimeShim())
    (row,) = harness.bench(n_values=(3,), repetitions=2, delta_t=0.05)
    assert row.repetitions == 2
    (world,) = worlds
    assert world.scheduler.clock_mode == REAL
    assert not world.scheduler.live_activities()
    assert [s for s in sleeps if s[1] == 0] == []


def test_each_frame_is_decoded_once_and_each_broadcast_encoded_once(monkeypatch):
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
        counts["frames"] += 1
        return send_from(fabric, endpoint, frame)

    monkeypatch.setattr(transport, "decode_message", counting_decode)
    monkeypatch.setattr(transport, "encode_message", counting_encode)
    monkeypatch.setattr(Fabric, "send_from", counting_send_from)
    n = 4
    world, outcomes = fault_free_farm(n)
    world.run()
    assert len(outcomes) == n
    broadcasts = sum(s.broadcasts_sent for s in world.farms["f"].states.values())
    assert broadcasts == n
    assert counts["broadcast_encodes"] == broadcasts
    assert counts["frames"] == world.fabric.delivered_total > n * (n - 1)
    # the n - 1 copies of a broadcast are one frame object, decoded once
    assert counts["decode"] == counts["frames"] - broadcasts * (n - 2)


def test_outbox_send_to_encodes_once_and_counts_refusals(monkeypatch):
    encodes = []
    monkeypatch.setattr(
        transport, "encode_message", lambda msg: encodes.append(msg) or encode_message(msg)
    )
    sched = Scheduler(VIRTUAL)
    fabric = Fabric(sched)
    for name, node in (("a", 1), ("b", 2), ("c", 3), ("d", 4)):
        fabric.place(name, node)
    ends = [fabric.connect("a", peer) for peer in "bcd"]
    outbox = Outbox(fabric)
    sched.spawn("pump", outbox.pump())
    msg = Message(Tag.BROADCAST_VALUE, 1, V7)
    outbox.send_to([a_end for a_end, _ in ends], msg)
    outbox.close()
    sched.run()
    assert encodes == [msg]
    assert fabric.delivered_total == 3
    for _, peer_end in ends:
        (_, got), = peer_end.queue
        assert got == msg


def test_items_on_two_sources_arrive_in_put_order():
    """Items put on several sources while their consumer was blocked are
    received in global put order, whichever source each sits on."""
    sched = Scheduler(VIRTUAL)
    a, b = WaitSource(sched), WaitSource(sched)
    got = []

    def consumer():
        for _ in range(4):
            src, item = yield Wait((a, b), None)
            got.append(("a" if src is a else "b", item))

    sched.spawn("consumer", consumer())
    sched.run()
    assert got == []
    b.put(1)
    a.put(2)
    b.put(3)
    a.put(4)
    sched.run()
    assert got == [("b", 1), ("a", 2), ("b", 3), ("a", 4)]


def test_items_queued_before_the_wait_arrive_in_put_order():
    """Items already queued on three sources when their consumer first
    waits are received in global put order."""
    sched = Scheduler(VIRTUAL)
    a, b, c = (WaitSource(sched) for _ in range(3))
    for src, item in ((c, 1), (a, 2), (b, 3), (c, 4), (a, 5)):
        src.put(item)
    got = []

    def consumer():
        for _ in range(5):
            _, item = yield Wait((a, b, c), None)
            got.append(item)

    sched.spawn("consumer", consumer())
    sched.run()
    assert got == [1, 2, 3, 4, 5]


def test_a_wait_on_other_sources_rebinds_the_mailbox():
    """Narrowing the wait to a subset leaves the other items queued; the
    next wait on the full set gets them, still in put order."""
    sched = Scheduler(VIRTUAL)
    a, b, c = (WaitSource(sched) for _ in range(3))
    got = []

    def consumer():
        got.append((yield Wait((a, b, c), None))[1])
        got.append((yield Wait((b,), None))[1])
        got.append((yield Wait((b,), 0.0)))
        while True:
            got.append((yield Wait((a, b, c), 0.0)))
            if got[-1] is TIMED_OUT:
                return

    for src, item in ((a, 1), (c, 2), (b, 3), (a, 4), (c, 5)):
        src.put(item)
    sched.spawn("consumer", consumer())
    sched.run()
    assert got[:3] == [1, 3, TIMED_OUT]
    assert [item for _, item in got[3:-1]] == [2, 4, 5]
    assert got[-1] is TIMED_OUT
    assert sched.activities["consumer"].finished


def test_a_finished_waiter_unbinds_so_its_sources_can_be_reused():
    sched = Scheduler(VIRTUAL)
    a, b = WaitSource(sched), WaitSource(sched)
    got = []

    def consumer(name):
        _, item = yield Wait((a, b), None)
        got.append((name, item))

    sched.spawn("first", consumer("first"))
    sched.run()
    assert a.waiter is b.waiter is sched.activities["first"]
    a.put(1)
    sched.run()
    assert a.waiter is b.waiter is None
    assert sched.activities["first"].waiting_on is None
    b.put(2)
    sched.spawn("second", consumer("second"))
    sched.run()
    assert got == [("first", 1), ("second", 2)]
    assert a.waiter is b.waiter is None


def test_two_live_activities_blocked_on_one_source_raise():
    sched = Scheduler(VIRTUAL)
    shared, own = WaitSource(sched), WaitSource(sched)

    def consumer(sources):
        yield Wait(sources, None)

    sched.spawn("first", consumer((shared,)))
    sched.spawn("second", consumer((own, shared)))
    with pytest.raises(RuntimeError, match="^first and second both wait on one source$"):
        sched.run()


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
        seen["got"] = yield Wait((b_end,), 1.0)
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
