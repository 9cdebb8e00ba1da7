"""Links, fault hooks, and the send/receive plumbing."""

import pytest

from votefarm import transport
from votefarm.core import (
    Message,
    Tag,
    VoteValue,
    decode_message,
    encode_message,
)
from votefarm.client import World
from votefarm.harness import ExperimentSpec, PipelineSpec, StageSpec, run_experiment
from votefarm.sim import TIMED_OUT, Scheduler, VIRTUAL, Wait
from votefarm.transport import (
    Fabric,
    LinkCensus,
    corrupt_hook,
    corrupt_value_payload,
    delay_hook,
    drop_hook,
)


def make_pair(same_node=False):
    sched = Scheduler(VIRTUAL)
    fabric = Fabric(sched)
    fabric.place("a", 1)
    fabric.place("b", 1 if same_node else 2)
    a_end, b_end = fabric.connect("a", "b")
    return sched, fabric, a_end, b_end


def corrupt_raw(frame: bytes, pattern: bytes, offset: int = 0) -> bytes:
    """XOR `pattern` into the frame starting at `offset`; may well produce
    an unparseable frame, which the fabric then drops."""
    body = bytearray(frame)
    for i, p in enumerate(pattern):
        if offset + i < len(body):
            body[offset + i] ^= p
    return bytes(body)


def value_msg(x, sender=0, tag=Tag.INPUT):
    return Message(tag, sender, VoteValue.from_floats([x]))


def all_ends(fabric):
    """Every end of every link, link by link in connect order."""
    return [end for ends in fabric.links.values() for end in ends]


def test_link_kind_follows_placement():
    _, fabric, _, _ = make_pair(same_node=True)
    assert fabric.census() == LinkCensus(virtual=0, local=1, voters=0)
    _, fabric, _, _ = make_pair(same_node=False)
    assert fabric.census() == LinkCensus(virtual=1, local=0, voters=0)


def test_connect_validation():
    sched = Scheduler(VIRTUAL)
    fabric = Fabric(sched)
    fabric.place("a", 1)
    with pytest.raises(ValueError):
        fabric.connect("a", "a")
    with pytest.raises(ValueError):
        fabric.connect("a", "ghost")
    fabric.place("b", 2)
    fabric.connect("a", "b")
    with pytest.raises(ValueError):
        fabric.connect("a", "b")
    with pytest.raises(ValueError, match="two or more"):
        fabric.connect("a")
    fabric.place("c", 3)
    fabric.connect("a", "b", "c")
    with pytest.raises(ValueError, match="already exists"):
        fabric.connect("a", "b", "c")


def test_connect_refuses_a_group_already_linked_in_any_order():
    """A link is the set of its parties: a reordered group is the link that
    exists, refused like a repeated one, while a pair inside a larger link
    is a link of its own."""
    sched = Scheduler(VIRTUAL)
    fabric = Fabric(sched)
    for node, name in enumerate("abc", start=1):
        fabric.place(name, node)
    fabric.connect("a", "b", "c")
    for order in (("c", "b", "a"), ("b", "c", "a")):
        with pytest.raises(ValueError, match="already exists"):
            fabric.connect(*order)
    assert len(all_ends(fabric)) == 3
    assert fabric.census() == LinkCensus(virtual=3, local=0, voters=0)
    fabric.connect("b", "a")
    assert len(all_ends(fabric)) == 5
    assert fabric.census() == LinkCensus(virtual=4, local=0, voters=0)
    with pytest.raises(ValueError, match="already exists"):
        fabric.connect("a", "b")


def test_connect_returns_both_ends_and_fabric_finds_them_by_name():
    _, fabric, a_end, b_end = make_pair()
    assert (a_end.name, a_end.peers) == ("a", ("b",))
    assert (b_end.name, b_end.peers) == ("b", ("a",))
    assert a_end.peer_inboxes == (b_end.inbox,) and b_end.peer_inboxes == (a_end.inbox,)
    assert fabric.endpoint("a", "b") is a_end
    assert fabric.endpoint("b", "a") is b_end
    assert fabric.endpoint("a", "ghost") is None
    assert fabric.endpoint("a", "a") is None
    assert fabric.links == {frozenset("ab"): (a_end, b_end)}
    with pytest.raises(ValueError):
        fabric.connect("b", "a")
    assert fabric.links == {frozenset("ab"): (a_end, b_end)}


def test_place_is_idempotent_for_same_node():
    sched = Scheduler(VIRTUAL)
    fabric = Fabric(sched)
    fabric.place("a", 1)
    fabric.place("a", 1)
    with pytest.raises(ValueError):
        fabric.place("a", 2)


def test_fifo_per_link():
    sched, fabric, a_end, b_end = make_pair()
    got = []

    def sender():
        for i in range(5):
            fabric.send_from(a_end, encode_message(value_msg(float(i))))
        return
        yield

    def receiver():
        eps = (b_end.inbox,)
        for _ in range(5):
            arrived = yield Wait(eps, 10.0)
            got.append(arrived[1].payload.floats()[0])

    sched.spawn("send", sender())
    sched.spawn("recv", receiver())
    sched.run()
    assert got == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_receive_timeout_advances_virtual_clock():
    sched, fabric, a_end, b_end = make_pair()
    seen = {}

    def receiver():
        arrived = yield Wait((b_end.inbox,), 2.5)
        seen["timed_out"] = arrived is TIMED_OUT
        seen["at"] = sched.now

    sched.spawn("recv", receiver())
    sched.run()
    assert seen == {"timed_out": True, "at": 2.5}


def test_unparseable_frame_dropped_at_send():
    """A mangled frame never reaches the wire; the receiver sees silence."""
    sched, fabric, a_end, b_end = make_pair()
    frame = corrupt_raw(encode_message(value_msg(3.0)), b"\xff", offset=0)
    outcome = {}

    def receiver():
        got = yield Wait((b_end.inbox,), 1.0)
        outcome["got"] = got

    fabric.send_from(a_end, frame)
    sched.spawn("recv", receiver())
    sched.run()
    assert outcome["got"] is TIMED_OUT
    assert fabric.dropped == 1
    assert fabric.delivered_total == 0


def test_corrupt_value_payload_stays_parseable():
    frame = encode_message(value_msg(42.0))
    bent = corrupt_value_payload(frame, b"\xff")
    msg = decode_message(bent)
    assert msg.tag == Tag.INPUT
    assert msg.payload.floats()[0] != 42.0
    # the 7-byte header and the flag byte untouched, every value byte flipped
    assert bent[:8] == frame[:8]
    assert all(b == f ^ 0xFF for b, f in zip(bent[8:], frame[8:], strict=True))


def test_corrupt_hook_hits_chosen_frame_only():
    sched, fabric, a_end, b_end = make_pair()
    a_end.hooks += (corrupt_hook(b"\xff", index=1),)
    got = []

    def receiver():
        eps = (b_end.inbox,)
        for _ in range(3):
            arrived = yield Wait(eps, 5.0)
            got.append(arrived[1].payload.floats()[0])

    for x in (1.0, 2.0, 3.0):
        fabric.send_from(a_end, encode_message(value_msg(x)))
    sched.spawn("recv", receiver())
    sched.run()
    assert got[0] == 1.0 and got[2] == 3.0 and got[1] != 2.0


def test_a_hook_on_one_copy_of_a_broadcast_leaves_the_others_alone():
    """The copies of one broadcast share a frame and its decode; a copy a
    hook on the sending end bends is decoded on its own, and one bent past
    parsing is dropped alone."""
    sched = Scheduler(VIRTUAL)
    fabric = Fabric(sched)
    for node, name in enumerate("abcde", start=1):
        fabric.place(name, node)
    a_end, *peer_ends = fabric.connect(*"abcde")
    corrupt = corrupt_hook(b"\xff")

    def bend(d):  # the value of the copy to c, the header of the copy to d
        if d.dst == "c":
            corrupt(d)
        elif d.dst == "d":
            d.frame = corrupt_raw(d.frame, b"\xff", offset=0)

    a_end.hooks += (bend,)
    msg = value_msg(5.0, sender=1, tag=Tag.BROADCAST_VALUE)
    fabric.post(a_end, msg)
    sched.run()
    got = {end.name: list(end.inbox.queue) for end in peer_ends}
    assert got["b"] == got["e"] == [msg]
    (bent,) = got["c"]
    assert bent.tag == Tag.BROADCAST_VALUE and bent.payload.floats()[0] != 5.0
    assert got["d"] == []
    assert fabric.dropped == 1
    assert fabric.delivered_total == 3


def counting_decodes(monkeypatch) -> list:
    """Count the fabric's decodes: one list entry per frame decoded."""
    decoded = []
    monkeypatch.setattr(
        transport, "decode_message", lambda frame: decoded.append(frame) or decode_message(frame)
    )
    return decoded


def test_an_unparseable_frame_is_dropped_and_counted_each_time_it_is_sent(monkeypatch):
    decoded = counting_decodes(monkeypatch)
    sched, fabric, a_end, b_end = make_pair()
    frame = corrupt_raw(encode_message(value_msg(3.0)), b"\xff", offset=0)
    fabric.send_from(a_end, frame)
    fabric.send_from(a_end, frame)
    assert fabric.dropped == 2
    assert len(decoded) == 2
    assert fabric.delivered_total == 0


def test_drop_hook_by_index():
    sched, fabric, a_end, b_end = make_pair()
    a_end.hooks += (drop_hook(index=0),)
    got = []

    def receiver():
        eps = (b_end.inbox,)
        while True:
            arrived = yield Wait(eps, 1.0)
            if arrived is TIMED_OUT:
                return
            got.append(arrived[1].payload.floats()[0])

    for x in (1.0, 2.0):
        fabric.send_from(a_end, encode_message(value_msg(x)))
    sched.spawn("recv", receiver())
    sched.run()
    assert got == [2.0]


def test_delay_hook_shifts_arrival_time():
    sched, fabric, a_end, b_end = make_pair()
    a_end.hooks += (delay_hook({"b": 1.25}),)
    seen = {}

    def receiver():
        arrived = yield Wait((b_end.inbox,), 5.0)
        seen["at"] = sched.now
        seen["x"] = arrived[1].payload.floats()[0]

    fabric.send_from(a_end, encode_message(value_msg(9.0)))
    sched.spawn("recv", receiver())
    sched.run()
    assert seen == {"at": 1.25, "x": 9.0}


def test_a_delayed_copy_counts_and_wakes_its_receiver_only_when_it_lands():
    """A delayed copy is neither queued nor counted delivered at send time."""
    sched, fabric, a_end, b_end = make_pair()
    a_end.hooks += (delay_hook({"b": 2.0}),)
    seen = {}

    def receiver():
        arrived = yield Wait((b_end.inbox,), None)
        seen["at"] = sched.now
        seen["delivered"] = fabric.delivered_total
        seen["x"] = arrived[1].payload.floats()[0]

    recv = sched.spawn("recv", receiver())
    sched.run()
    fabric.send_from(a_end, encode_message(value_msg(4.0)))
    # in flight: not counted, not queued, and the receiver stays blocked
    assert fabric.delivered_total == 0 and not b_end.inbox.queue
    assert recv.blocked and not sched._ready
    sched.run()
    assert seen == {"at": 2.0, "delivered": 1, "x": 4.0}


def test_an_undelayed_copy_resumes_a_timed_wait_once_and_retires_its_timer(monkeypatch):
    """The copy lands at send time and wakes the receiver once; its timer
    entry, left on the heap, is retired as stale and never fires, so the
    receiver never sees TIMED_OUT and the clock never moves."""
    sched, fabric, a_end, b_end = make_pair()
    fired = []
    fire = Scheduler._fire
    monkeypatch.setattr(Scheduler, "_fire", lambda s, entry: (fired.append(entry), fire(s, entry)))
    got, at_send = [], []

    def receiver():
        got.append((yield Wait((b_end.inbox,), 1.0)))
        got.append((yield Wait((b_end.inbox,), None)))

    def sender():  # steps once the receiver has blocked and armed its timer
        heap = len(sched._heap)
        fabric.send_from(a_end, encode_message(value_msg(5.0)))
        at_send.append((heap, fabric.delivered_total, list(sched._ready), recv.blocked))
        return
        yield

    recv = sched.spawn("recv", receiver())
    sched.spawn("send", sender())
    sched.run()
    assert at_send == [(1, 1, [recv], False)]
    assert [item.payload.floats() for _, item in got] == [(5.0,)]
    assert recv.blocked and sched._heap == [] and fired == []
    assert sched.now == 0.0


def test_two_puts_before_the_receiver_steps_queue_it_once(monkeypatch):
    """Only the first put wakes the receiver; one step takes both items."""
    sched, fabric, a_end, b_end = make_pair()
    steps = []
    step = Scheduler._step
    monkeypatch.setattr(Scheduler, "_step", lambda s, act: (steps.append(act), step(s, act)))
    got = []

    def receiver():
        while True:
            got.append((yield Wait((b_end.inbox,), None))[1].payload.floats()[0])

    recv = sched.spawn("recv", receiver())
    sched.run()
    for x in (1.0, 2.0):
        fabric.send_from(a_end, encode_message(value_msg(x)))
    assert list(sched._ready) == [recv]
    sched.run()
    assert steps == [recv, recv]  # the first step only blocks
    assert got == [1.0, 2.0] and fabric.delivered_total == 2


def test_hooks_are_direction_scoped():
    """A hook on a's end, which sees the frames toward b, must leave the
    a-bound flow alone."""
    sched, fabric, a_end, b_end = make_pair()
    a_end.hooks += (drop_hook(),)
    assert b_end.hooks == ()
    got = []

    def receiver_a():
        arrived = yield Wait((a_end.inbox,), 2.0)
        got.append(arrived is not TIMED_OUT)

    fabric.send_from(b_end, encode_message(value_msg(1.0)))
    sched.spawn("recv", receiver_a())
    sched.run()
    assert got == [True]


def test_a_post_lands_before_it_returns():
    """A post sends at once, inside the caller's step, as `send_from` does:
    each post lands on every peer, in peer order, before it returns, and
    wakes a blocked receiver; it queues nothing else on the ready queue."""
    sched = Scheduler(VIRTUAL)
    fabric = Fabric(sched)
    for node, name in enumerate("abcd", start=1):
        fabric.place(name, node)
    fabric.open_inbox("c")  # c hears both links on one queue
    mesh_end = fabric.connect(*"abcd")[0]
    pair_end, _ = fabric.connect("a", "c")
    sent = []
    fabric.add_hook(lambda d: sent.append(d.dst))
    first = value_msg(3.0, sender=1, tag=Tag.BROADCAST_VALUE)
    second = value_msg(4.0, sender=1, tag=Tag.BROADCAST_VALUE)
    fabric.post(mesh_end, first)
    assert sent == ["b", "c", "d"] and fabric.delivered_total == 3
    fabric.post(pair_end, second)
    assert sent == ["b", "c", "d", "c"]
    assert list(fabric.inboxes["c"].queue) == [first, second]
    assert not sched._ready


def test_a_hook_added_later_sees_the_index_of_every_frame_sent():
    """Frames sent while the fabric had no hook still take an index, so a
    hook added to every end after two of them drops exactly the third."""
    sched, fabric, a_end, b_end = make_pair()
    for x in (1.0, 2.0):
        fabric.send_from(a_end, encode_message(value_msg(x)))
    fabric.add_hook(drop_hook(index=2))
    for x in (3.0, 4.0):
        fabric.send_from(a_end, encode_message(value_msg(x)))
    got = [item.payload.floats()[0] for item in b_end.inbox.queue]
    assert got == [1.0, 2.0, 4.0]
    assert fabric.dropped == 1


def test_each_end_counts_its_own_frames():
    """A hook's index counts the frames sent from one end only: frames b
    sends to a do not shift the index of a's frames to b."""
    sched, fabric, a_end, b_end = make_pair()
    a_end.hooks += (drop_hook(index=1),)
    for x in (1.0, 2.0, 3.0):
        fabric.send_from(b_end, encode_message(value_msg(x)))
    for x in (4.0, 5.0, 6.0):
        fabric.send_from(a_end, encode_message(value_msg(x)))
    assert [item.payload.floats()[0] for item in a_end.inbox.queue] == [1.0, 2.0, 3.0]
    assert [item.payload.floats()[0] for item in b_end.inbox.queue] == [4.0, 6.0]
    assert fabric.dropped == 1


def test_a_no_op_hook_leaves_the_report_byte_identical(monkeypatch):
    spec = ExperimentSpec(pipeline=PipelineSpec((StageSpec(n=3), StageSpec(n=3))))
    bare = run_experiment(spec).to_json()
    shown = []
    init = Fabric.__init__

    def with_hook(self, scheduler):
        init(self, scheduler)
        self.add_hook(shown.append)

    monkeypatch.setattr(Fabric, "__init__", with_hook)
    assert run_experiment(spec).to_json() == bare
    assert shown  # the hook saw every frame of the hooked run


def test_census_counts_by_kind():
    sched = Scheduler(VIRTUAL)
    fabric = Fabric(sched)
    for name, node in (("u1", 1), ("v1", 1), ("u2", 2), ("v2", 2)):
        fabric.place(name, node)
    fabric.connect("u1", "v1")  # local
    fabric.connect("u2", "v2")  # local
    fabric.connect("v1", "v2")  # virtual
    c = fabric.census()
    assert (c.virtual, c.local) == (1, 2)


# -- links of more than two parties ----------------------------------------------


def make_mesh(nodes=(1, 2, 3, 4)):
    """Parties p1, p2, ... placed on `nodes`, each with an inbox, joined by
    one link; returns the scheduler, the fabric and the ends in name order."""
    sched = Scheduler(VIRTUAL)
    fabric = Fabric(sched)
    names = [f"p{k}" for k in range(1, len(nodes) + 1)]
    for name, node in zip(names, nodes):
        fabric.place(name, node)
        fabric.open_inbox(name)
    return sched, fabric, fabric.connect(*names)


def test_a_link_joins_each_of_its_parties_to_all_the_others():
    _, fabric, ends = make_mesh()
    assert [(end.name, end.peers) for end in ends] == [
        ("p1", ("p2", "p3", "p4")),
        ("p2", ("p1", "p3", "p4")),
        ("p3", ("p1", "p2", "p4")),
        ("p4", ("p1", "p2", "p3")),
    ]
    for end in ends:
        assert end.inbox is fabric.inboxes[end.name]
        assert end.peer_inboxes == tuple(fabric.inboxes[p] for p in end.peers)
    assert fabric.endpoint("p1", "p2") is None  # a mesh end is no pair end
    assert fabric.links == {frozenset(end.name for end in ends): ends}


@pytest.mark.parametrize(
    "names", [("a", "b", "a"), ("a", "b", "c", "b"), ("a", "b", "ghost"), ("ghost", "a", "b")]
)
def test_connect_refuses_a_repeated_or_unplaced_name_in_a_group(names):
    sched = Scheduler(VIRTUAL)
    fabric = Fabric(sched)
    for node, name in enumerate("abc", start=1):
        fabric.place(name, node)
    with pytest.raises(ValueError):
        fabric.connect(*names)
    assert fabric.links == {}


def test_a_hook_on_one_mesh_pair_drops_only_that_copy_at_the_senders_send_count():
    """A send from a mesh end is one copy per peer, each under the send's
    index: the sender's count of sends, which is also the count of copies
    sent to any one peer.  A hook on p2's end that drops the copies to p3
    at index 1 takes p2's second send to p3 alone."""
    sched, fabric, ends = make_mesh()
    seen = []
    fabric.add_hook(lambda d: seen.append((d.dst, d.index)))
    p2 = ends[1]
    drop = drop_hook(index=1)
    p2.hooks += (lambda d: d.dst == "p3" and drop(d),)
    for x in (1.0, 2.0, 3.0):
        fabric.send_from(p2, encode_message(value_msg(x, sender=2, tag=Tag.BROADCAST_VALUE)))
    assert p2.sent == 3
    assert seen == [(dst, k) for k in range(3) for dst in ("p1", "p3", "p4")]
    got = {
        name: [m.payload.floats()[0] for m in fabric.inboxes[name].queue]
        for name in ("p1", "p3", "p4")
    }
    assert got == {"p1": [1.0, 2.0, 3.0], "p3": [1.0, 3.0], "p4": [1.0, 2.0, 3.0]}
    assert (fabric.dropped, fabric.delivered_total) == (1, 8)


def test_a_send_decodes_its_frame_once_for_all_its_peers(monkeypatch):
    """A send from a four-party mesh end decodes its frame once, with a hook
    or without: an unparseable frame is dropped for all three peers, and a
    good one lands as one Message on every peer.  The same frame sent again
    is decoded again, and each copy is shown to a hook under its send's
    index."""
    decoded = counting_decodes(monkeypatch)
    _, fabric, ends = make_mesh()
    p1 = ends[0]
    queues = [fabric.inboxes[name].queue for name in p1.peers]
    bad = corrupt_raw(encode_message(value_msg(1.0)), b"\xff", offset=0)
    good = encode_message(value_msg(2.0, sender=1, tag=Tag.BROADCAST_VALUE))
    fabric.send_from(p1, bad)
    assert len(decoded) == 1
    assert (fabric.dropped, fabric.delivered_total) == (3, 0)
    fabric.send_from(p1, good)
    assert len(decoded) == 2
    assert (fabric.dropped, fabric.delivered_total) == (3, 3)
    msg = queues[0][0]
    assert msg == value_msg(2.0, sender=1, tag=Tag.BROADCAST_VALUE)
    assert all(list(q) == [msg] and q[0] is msg for q in queues)

    seen = []
    fabric.add_hook(lambda d: seen.append((d.dst, d.index)))
    fabric.send_from(p1, bad)
    fabric.send_from(p1, good)
    assert seen == [(dst, k) for k in (2, 3) for dst in ("p2", "p3", "p4")]
    assert len(decoded) == 4
    assert (fabric.dropped, fabric.delivered_total) == (6, 6)
    again = queues[0][1]
    assert again == msg and again is not msg
    assert all(list(q) == [msg, again] and q[1] is again for q in queues)


def send_with_hooks(monkeypatch, *hooks):
    """Send one broadcast frame from the first end of a four-party mesh with
    `hooks`; returns the frames decoded, the fabric and the peers' queues."""
    decoded = counting_decodes(monkeypatch)
    _, fabric, ends = make_mesh()
    ends[0].hooks += hooks
    frame = encode_message(value_msg(6.0, sender=1, tag=Tag.BROADCAST_VALUE))
    fabric.send_from(ends[0], frame)
    return decoded, fabric, {name: fabric.inboxes[name].queue for name in ends[0].peers}


def test_a_send_whose_every_copy_is_dropped_decodes_nothing(monkeypatch):
    decoded, fabric, queues = send_with_hooks(monkeypatch, drop_hook())
    assert decoded == []
    assert (fabric.dropped, fabric.delivered_total) == (3, 0)
    assert not any(queues.values())


def test_a_delayed_send_decodes_its_frame_once_when_it_is_sent(monkeypatch):
    """The frame is decoded at send time, once, and each delayed copy lands
    that one Message when its own delay has passed."""
    delays = {"p2": 1.0, "p3": 2.0, "p4": 3.0}
    decoded, fabric, queues = send_with_hooks(monkeypatch, delay_hook(delays))
    assert len(decoded) == 1 and fabric.delivered_total == 0
    sched = fabric.scheduler
    landed = []

    def receiver(name):
        _, msg = yield Wait((fabric.inboxes[name],), None)
        landed.append((name, sched.now, msg))

    for name in delays:
        sched.spawn(name, receiver(name))
    sched.run()
    assert len(decoded) == 1 and fabric.delivered_total == 3
    assert [(name, at) for name, at, _ in landed] == list(delays.items())
    assert len({id(m) for _, _, m in landed}) == 1
    assert landed[0][2] == value_msg(6.0, sender=1, tag=Tag.BROADCAST_VALUE)


def test_a_frame_a_hook_replaced_is_decoded_on_its_own(monkeypatch):
    """A copy whose frame a hook replaced, even by fresh bytes of the same
    content, is decoded apart from the sent frame; a replaced frame that
    does not parse drops that copy alone, and the sent frame is decoded
    only when a copy lands with it."""
    sent = value_msg(6.0, sender=1, tag=Tag.BROADCAST_VALUE)

    def replace(d):
        if d.dst == "p2":
            d.frame = bytes(bytearray(d.frame))  # equal content, another object
        elif d.dst == "p3":
            d.frame = corrupt_value_payload(d.frame, b"\xff")
        elif d.dst == "p4":
            d.frame = corrupt_raw(d.frame, b"\xff", offset=0)

    decoded, fabric, queues = send_with_hooks(monkeypatch, replace)
    assert len(decoded) == 3  # the three replaced frames, not the sent one
    (p2,), (p3,) = queues["p2"], queues["p3"]
    assert p2 == sent and p3.payload.floats()[0] != 6.0
    assert not queues["p4"]
    assert (fabric.dropped, fabric.delivered_total) == (1, 2)

    decoded, fabric, queues = send_with_hooks(
        monkeypatch, lambda d: d.dst == "p3" and replace(d)
    )
    assert len(decoded) == 2  # the sent frame once for p2 and p4, p3's on its own
    assert queues["p2"][0] is queues["p4"][0] == sent
    assert queues["p3"][0] != sent


@pytest.mark.parametrize("nodes", [(1, 1, 2, 2, 2), (3, 1, 3, 1, 3, 2), (1,) * 4, (1, 2)])
def test_the_census_of_a_mesh_counts_every_pair_by_placement(nodes):
    """A link of k parties with s same-node pairs is s local and
    k(k - 1)/2 - s virtual links, as counting the pairs one by one gives;
    naming a subset counts only its pairs."""
    _, fabric, ends = make_mesh(nodes)
    names = [end.name for end in ends]

    def brute(named):
        pairs = [(a, b) for i, a in enumerate(named) for b in named[i + 1 :]]
        same = sum(fabric.placements[a] == fabric.placements[b] for a, b in pairs)
        return LinkCensus(virtual=len(pairs) - same, local=same, voters=0)

    assert fabric.census() == brute(names)
    for subset in (names[1:], names[::2], names[:1], []):
        assert fabric.census(subset) == brute(subset)


@pytest.mark.parametrize("nodes", [(1,), (2, 2), (1, 3, 1, 3, 1)])
def test_the_census_of_farms_counts_every_linked_pair_by_placement(nodes):
    """Two farms on repeated nodes, one with a voter that never starts, a
    link from one to the other and, where the mesh has more than two
    voters, a pair link inside it: the whole fabric's census and each
    farm's equal a count of every linked pair, end by end.  A refused
    connect changes neither the ends nor the census."""
    world = World(VIRTUAL)
    fabric = world.fabric
    world.scheduler.kill_names.add("a/voter1")
    a = world.activate_farm("a", nodes)
    b = world.activate_farm("b", nodes[::-1])
    n = len(nodes)
    fabric.connect(a.states[n].name, b.user_endpoints[1].name)
    if n > 2:
        fabric.connect(b.states[3].name, b.states[1].name)

    def brute(named):
        """Each pair of a link once per direction, from the ends."""
        same = other = 0
        for end in all_ends(fabric):
            for peer in end.peers:
                if end.name in named and peer in named:
                    if fabric.placements[end.name] == fabric.placements[peer]:
                        same += 1
                    else:
                        other += 1
        live = sum(
            act.role == "voter" and act.live and act.name in named
            for act in world.scheduler.activities.values()
        )
        return LinkCensus(virtual=other // 2, local=same // 2, voters=live)

    def counts():
        return [fabric.census(), *(fabric.census(rt.members) for rt in (a, b))]

    expected = [brute(fabric.placements), brute(a.members), brute(b.members)]
    assert counts() == expected
    assert expected[1].voters == n - 1 and expected[2].voters == n
    before = dict(fabric.links)
    voter, user = a.states[1].name, a.user_endpoints[1].name
    refused = [(voter, voter), (voter, "ghost"), (voter, user)]
    if n > 1:
        refused.append(tuple(b.states[i].name for i in range(n, 0, -1)))
    for names in refused:
        with pytest.raises(ValueError):
            fabric.connect(*names)
        assert dict(fabric.links) == before
        assert counts() == expected
