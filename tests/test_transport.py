"""Links, fault hooks, and the send/receive plumbing."""

import pytest

from votefarm.core import (
    Message,
    Tag,
    TransportDownError,
    VoteValue,
    decode_message,
    encode_message,
)
from votefarm.sim import TIMED_OUT, Scheduler, VIRTUAL
from votefarm.transport import (
    Fabric,
    LinkKind,
    Outbox,
    corrupt_hook,
    corrupt_raw,
    corrupt_value_payload,
    delay_hook,
    drop_hook,
    receive_any,
)


def make_pair(same_node=False):
    sched = Scheduler(VIRTUAL)
    fabric = Fabric(sched)
    fabric.place("a", 1)
    fabric.place("b", 1 if same_node else 2)
    link = fabric.connect("a", "b")
    return sched, fabric, link


def value_msg(x, sender=0, tag=Tag.INPUT):
    return Message(tag, sender, VoteValue.from_floats([x]))


def test_link_kind_follows_placement():
    _, _, local = make_pair(same_node=True)
    assert local.kind == LinkKind.LOCAL
    _, _, remote = make_pair(same_node=False)
    assert remote.kind == LinkKind.VIRTUAL


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


def test_place_is_idempotent_for_same_node():
    sched = Scheduler(VIRTUAL)
    fabric = Fabric(sched)
    fabric.place("a", 1)
    fabric.place("a", 1)
    with pytest.raises(ValueError):
        fabric.place("a", 2)


def test_fifo_per_link():
    sched, fabric, link = make_pair()
    got = []

    def sender():
        ep = link.endpoint_for("a")
        for i in range(5):
            fabric.send_from(ep, encode_message(value_msg(float(i))))
        return
        yield

    def receiver():
        eps = (link.endpoint_for("b"),)
        for _ in range(5):
            arrived = yield from receive_any(eps, timeout=10.0)
            got.append(arrived[1].payload.floats()[0])

    sched.spawn("send", sender())
    sched.spawn("recv", receiver())
    sched.run()
    assert got == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_receive_timeout_advances_virtual_clock():
    sched, fabric, link = make_pair()
    seen = {}

    def receiver():
        arrived = yield from receive_any((link.endpoint_for("b"),), timeout=2.5)
        seen["timed_out"] = arrived is TIMED_OUT
        seen["at"] = sched.now

    sched.spawn("recv", receiver())
    sched.run()
    assert seen == {"timed_out": True, "at": 2.5}


def test_receive_needs_positive_timeout_and_endpoints():
    sched, fabric, link = make_pair()

    def bad_timeout():
        yield from receive_any((link.endpoint_for("b"),), timeout=0.0)

    def no_endpoints():
        yield from receive_any((), timeout=1.0)

    sched.spawn("r1", bad_timeout())
    with pytest.raises(ValueError):
        sched.run()
    sched2 = Scheduler(VIRTUAL)
    sched2.spawn("r2", no_endpoints())
    with pytest.raises(ValueError):
        sched2.run()


def test_send_on_closed_link_raises():
    sched, fabric, link = make_pair()
    link.close()
    with pytest.raises(TransportDownError):
        fabric.send_from(link.endpoint_for("a"), encode_message(value_msg(1.0)))


def test_receive_all_closed_raises():
    sched, fabric, link = make_pair()

    def receiver():
        yield from receive_any((link.endpoint_for("b"),), timeout=1.0)

    link.close()
    sched.spawn("recv", receiver())
    with pytest.raises(TransportDownError):
        sched.run()


def test_unparseable_frame_dropped_at_send():
    """A mangled frame never reaches the wire; the receiver sees silence."""
    sched, fabric, link = make_pair()
    frame = corrupt_raw(encode_message(value_msg(3.0)), b"\xff", offset=0)
    outcome = {}

    def receiver():
        got = yield from receive_any((link.endpoint_for("b"),), timeout=1.0)
        outcome["got"] = got

    fabric.send_from(link.endpoint_for("a"), frame)
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
    # header and flag byte untouched
    assert bent[:9] == frame[:9]


def test_corrupt_hook_hits_chosen_frame_only():
    sched, fabric, link = make_pair()
    fabric.add_hook(corrupt_hook(link, "b", b"\xff", index=1))
    got = []

    def receiver():
        eps = (link.endpoint_for("b"),)
        for _ in range(3):
            arrived = yield from receive_any(eps, timeout=5.0)
            got.append(arrived[1].payload.floats()[0])

    for x in (1.0, 2.0, 3.0):
        fabric.send_from(link.endpoint_for("a"), encode_message(value_msg(x)))
    sched.spawn("recv", receiver())
    sched.run()
    assert got[0] == 1.0 and got[2] == 3.0 and got[1] != 2.0


def test_drop_hook_by_index():
    sched, fabric, link = make_pair()
    fabric.add_hook(drop_hook(link, "b", index=0))
    got = []

    def receiver():
        eps = (link.endpoint_for("b"),)
        while True:
            arrived = yield from receive_any(eps, timeout=1.0)
            if arrived is TIMED_OUT:
                return
            got.append(arrived[1].payload.floats()[0])

    for x in (1.0, 2.0):
        fabric.send_from(link.endpoint_for("a"), encode_message(value_msg(x)))
    sched.spawn("recv", receiver())
    sched.run()
    assert got == [2.0]


def test_delay_hook_shifts_arrival_time():
    sched, fabric, link = make_pair()
    fabric.add_hook(delay_hook(link, "b", delay=1.25))
    seen = {}

    def receiver():
        arrived = yield from receive_any((link.endpoint_for("b"),), timeout=5.0)
        seen["at"] = sched.now
        seen["x"] = arrived[1].payload.floats()[0]

    fabric.send_from(link.endpoint_for("a"), encode_message(value_msg(9.0)))
    sched.spawn("recv", receiver())
    sched.run()
    assert seen == {"at": 1.25, "x": 9.0}


def test_hooks_are_direction_scoped():
    """A hook keyed on frames toward b must leave the a-bound flow alone."""
    sched, fabric, link = make_pair()
    fabric.add_hook(drop_hook(link, "b"))
    got = []

    def receiver_a():
        arrived = yield from receive_any((link.endpoint_for("a"),), timeout=2.0)
        got.append(arrived is not TIMED_OUT)

    fabric.send_from(link.endpoint_for("b"), encode_message(value_msg(1.0)))
    sched.spawn("recv", receiver_a())
    sched.run()
    assert got == [True]


def test_outbox_decouples_sender():
    """Queueing into the outbox never blocks; the pump does the sending."""
    sched, fabric, link = make_pair()
    outbox = Outbox(fabric, "a")
    got = []

    def producer():
        for i in range(3):
            outbox.send(link.endpoint_for("a"), value_msg(float(i), sender=1, tag=Tag.BROADCAST_VALUE))
        outbox.close()
        return
        yield

    def receiver():
        eps = (link.endpoint_for("b"),)
        for _ in range(3):
            arrived = yield from receive_any(eps, timeout=5.0)
            got.append(arrived[1].payload.floats()[0])

    sched.spawn("producer", producer())
    sched.spawn("pump", outbox.pump())
    sched.spawn("recv", receiver())
    sched.run()
    assert got == [0.0, 1.0, 2.0]


def test_outbox_close_stops_pump_and_rejects_sends():
    sched, fabric, link = make_pair()
    outbox = Outbox(fabric, "a")
    sched.spawn("pump", outbox.pump())
    outbox.close()
    sched.run()
    assert not sched.activities["pump"].live
    with pytest.raises(TransportDownError):
        outbox.send(link.endpoint_for("a"), value_msg(1.0))


def test_outbox_pump_skips_closed_links():
    sched, fabric, link = make_pair()
    outbox = Outbox(fabric, "a")
    outbox.send(link.endpoint_for("a"), value_msg(1.0))
    link.close()
    outbox.close()
    sched.spawn("pump", outbox.pump())
    sched.run()  # no TransportDownError out of the pump
    assert fabric.delivered_total == 0


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
