"""Links, the fabric that owns them, and fault hooks.

A link joins two or more placed parties, each to all the others: a user
and its voter, a voter and the next stage's user, or a farm's voters, its
mesh.  A link is the set of its parties, so a group is linked at most
once, whatever the order of its names.  A party's end of a link is its
sends to all its peers there, so a send from a mesh end is a broadcast.
Frames keep per-direction FIFO order, and a linked pair is LOCAL when both
parties share a node and VIRTUAL otherwise.  A party with an inbox, as
every voter has, hears all its links on that one queue, so it waits on one
source and sees its frames in arrival order; any other party hears each
link on a queue of its own, and waits on the link it expects a frame from.

A link never fails: a frame is only ever dropped, corrupted or delayed by
a fault hook.  Hooks see each copy of a send by sender name, receiver name
and message index, the count of sends before it from the same end, and
each copy they see is decoded and landed on its own.  A send with no hook
builds no Delivery.  There a post lands its Message itself on every peer,
as a Message is immutable and its frame decodes to an equal one, and a frame
sent by a user is decoded once and that one Message lands on every peer.
With hooks, a post encodes its message once and sends that frame.  Every
send leaves at once, inside the sender's step.  An undelayed copy lands at
once, with one put on its receiver's queue that wakes the receiver if it
is blocked; a delayed one lands when its delay has passed, and is counted
delivered only then.  Only frames sent by users or through hooks are
decoded, each distinct one once per world: the fabric memoizes Messages by
frame content, at most one per (sender, receiver) pair, oldest evicted
first.  A frame corrupted beyond parseability is never kept but silently
discarded on every send, so the receiver only ever notices the silence
through its timeout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from .core import (
    HEADER_SIZE,
    VALUE_FLAG_SIZE,
    FrameError,
    Message,
    decode_message,
    encode_message,
)
from .sim import Scheduler, WaitSource


@dataclass(eq=False, slots=True)
class Endpoint:
    """One party's end of a link: its sends to all its `peers`.  `inbox` is
    the queue the frames sent to the owner on the link land on, and
    `peer_inboxes` the peers' queues, in `peers` order.  `sent` counts the
    sends from here, the index fault hooks match on; as every send reaches
    every peer, it also counts the frames sent to any one of them."""

    name: str
    peers: tuple[str, ...]
    inbox: WaitSource
    peer_inboxes: tuple[WaitSource, ...]
    sent: int = 0


@dataclass(frozen=True)
class LinkCensus:
    virtual: int
    local: int
    voters: int


@dataclass
class Delivery:
    """A frame in flight, shown to fault hooks before it lands."""

    src: str
    dst: str
    frame: bytes
    index: int  # 0-based count of the sends before it from the sending end
    delay: float = 0.0
    drop: bool = False


FaultHook = Callable[[Delivery], None]


class Fabric:
    """Owns placements, links, inboxes and delivery (including fault
    injection).  `links` maps each link, the set of its parties, to their
    ends in `connect` order, and `inboxes[name]` is the one queue of a
    party that has an inbox."""

    def __init__(self, scheduler: Scheduler):
        self.scheduler = scheduler
        self.placements: dict[str, int] = {}
        self.links: dict[frozenset[str], tuple[Endpoint, ...]] = {}
        self.inboxes: dict[str, WaitSource] = {}
        self.hooks: list[FaultHook] = []
        self.dropped = 0
        self.delivered_total = 0
        # Frames decoded and their Messages, oldest first, at most one per
        # (sender, receiver) pair: decoding is pure and a Message immutable.
        self._decoded: dict[bytes, Message] = {}
        self._pairs = 0

    def place(self, name: str, node: int) -> None:
        if node < 1:
            raise ValueError("node id must be >= 1")
        if self.placements.get(name, node) != node:
            raise ValueError(f"{name!r} already placed elsewhere")
        self.placements[name] = node

    def open_inbox(self, name: str) -> None:
        """Land the frames sent to `name` on any link it gets from now on
        in one queue, its inbox."""
        self.inboxes[name] = WaitSource(self.scheduler)

    def connect(self, *names: str) -> tuple[Endpoint, ...]:
        """Link two or more placed activities, each to all the others;
        returns their ends in `names` order.  A link is the set of its
        parties, so a group already linked, in any order, is refused; a
        refused call changes nothing."""
        link = frozenset(names)
        if len(names) < 2 or len(link) < len(names):
            raise ValueError("a link needs two or more distinct activities")
        if not self.placements.keys() >= link:
            unplaced = next(name for name in names if name not in self.placements)
            raise ValueError(f"{unplaced!r} is not placed on any node")
        if link in self.links:
            raise ValueError(f"link {' <-> '.join(map(repr, names))} already exists")
        inboxes = tuple([self.inboxes.get(name) or WaitSource(self.scheduler) for name in names])
        if len(names) == 2:  # a pair: each end mirrors the other
            (a, b), (a_in, b_in) = names, inboxes
            ends = (Endpoint(a, (b,), a_in, (b_in,)), Endpoint(b, (a,), b_in, (a_in,)))
        else:  # a mesh: each end's peers keep `names` order
            ends = []
            for i, name in enumerate(names):
                peer_inboxes = inboxes[:i] + inboxes[i + 1 :]
                ends.append(Endpoint(name, names[:i] + names[i + 1 :], inboxes[i], peer_inboxes))
        ends = self.links[link] = tuple(ends)
        self._pairs += len(names) * (len(names) - 1)
        return ends

    def endpoint(self, owner: str, peer: str) -> Endpoint | None:
        """`owner`'s end of its two-party link with `peer`, or None when
        they share none (a link of three or more parties is not one)."""
        ends = self.links.get(frozenset((owner, peer)))
        if ends is None:
            return None
        return ends[0] if ends[0].name == owner else ends[1]

    def add_hook(self, hook: FaultHook) -> None:
        self.hooks.append(hook)

    def send_from(self, endpoint: Endpoint, frame: bytes) -> None:
        """Ship one frame to every peer's inbox, in peer order; never blocks.
        With no hook the frame is decoded once and that one Message lands
        on every peer; with hooks, each copy is shown to them, decoded and
        landed on its own."""
        if not self.hooks:
            self._fan_out(endpoint, self._decoded.get(frame) or self._decode(frame))
            return
        index = endpoint.sent
        endpoint.sent = index + 1
        for dst, inbox in zip(endpoint.peers, endpoint.peer_inboxes):
            d = Delivery(src=endpoint.name, dst=dst, frame=frame, index=index)
            for hook in self.hooks:
                hook(d)
                if d.drop:
                    break
            msg = None if d.drop else (self._decoded.get(d.frame) or self._decode(d.frame))
            if msg is None:
                self.dropped += 1
            elif d.delay > 0:
                self.scheduler.call_later(d.delay, partial(self._land, inbox, msg))
            else:
                self.delivered_total += 1
                inbox.put(msg)

    def _decode(self, frame: bytes) -> Message | None:
        """Decode and memoize a frame the memo lacks (a hit is looked up at
        the call site), evicting the oldest when full; None if it does not parse."""
        try:
            msg = decode_message(frame)
        except FrameError:
            return None
        if len(self._decoded) >= self._pairs:
            del self._decoded[next(iter(self._decoded))]
        self._decoded[frame] = msg
        return msg

    def post(self, endpoint: Endpoint, msg: Message) -> None:
        """Send `msg` from `endpoint` at once, inside the caller's step: with
        hooks as one encoded frame, with none as itself, equal to its frame's decode."""
        if self.hooks:
            self.send_from(endpoint, encode_message(msg))
        else:
            self._fan_out(endpoint, msg)

    def _fan_out(self, endpoint: Endpoint, msg: Message | None) -> None:
        """One hook-free send from `endpoint`: `msg` lands on every peer, or
        every copy is dropped when it is None (a frame that does not parse)."""
        # Every send takes an index, so a hook added later counts right.
        endpoint.sent += 1
        if msg is None:
            self.dropped += len(endpoint.peers)
            return
        self.delivered_total += len(endpoint.peers)
        for inbox in endpoint.peer_inboxes:
            inbox.put(msg)

    def _land(self, inbox: WaitSource, msg: Message) -> None:
        self.delivered_total += 1
        inbox.put(msg)

    def census(self, names=None) -> LinkCensus:
        """Linked pairs by kind and live voter activities, over the whole
        fabric or only among `names` (a pair counts when both are named).
        A link is the set of its parties, counted in one pass over the named
        ones: the c of them on one node make c(c - 1)/2 local pairs."""
        names = None if names is None else frozenset(names)
        virtual = local = 0
        for link in self.links:
            on_node: dict[int, int] = {}  # the named parties counted so far, by node
            for i, name in enumerate(link if names is None else link & names):
                # the i counted before pair with this party, `seen` of them locally
                seen = on_node.get(node := self.placements[name], 0)
                local += seen
                virtual += i - seen
                on_node[node] = seen + 1
        voters = 0
        for act in self.scheduler.activities.values():
            if act.role == "voter" and (names is None or act.name in names) and act.live:
                voters += 1
        return LinkCensus(virtual=virtual, local=local, voters=voters)


# -- fault hook constructors --------------------------------------------------


def _match(d: Delivery, src: str, dst: str, index: int | None) -> bool:
    return d.src == src and d.dst == dst and (index is None or d.index == index)


def drop_hook(src: str, dst: str, index: int | None = None) -> FaultHook:
    def hook(d: Delivery) -> None:
        if _match(d, src, dst, index):
            d.drop = True

    return hook


def delay_hook(src: str, dst: str, delay: float, index: int | None = None) -> FaultHook:
    def hook(d: Delivery) -> None:
        if _match(d, src, dst, index):
            d.delay += delay

    return hook


def corrupt_value_payload(frame: bytes, pattern: bytes) -> bytes:
    """XOR `pattern` (cycled) over the raw value bytes of a frame carrying a
    value payload, leaving the header and value flag intact.  The result has
    the same length, so it stays parseable while the value itself changes."""
    if not pattern:
        return frame
    start = HEADER_SIZE + VALUE_FLAG_SIZE
    body = bytearray(frame)
    for i in range(start, len(body)):
        body[i] ^= pattern[(i - start) % len(pattern)]
    return bytes(body)


def corrupt_hook(
    src: str, dst: str, pattern: bytes, index: int | None = None
) -> FaultHook:
    def hook(d: Delivery) -> None:
        if _match(d, src, dst, index):
            d.frame = corrupt_value_payload(d.frame, pattern)

    return hook
