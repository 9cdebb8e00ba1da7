"""Point-to-point links, the fabric that owns them, and fault hooks.

Links carry encoded byte frames with per-direction FIFO order.  A link is
LOCAL when both parties are placed on the same node and VIRTUAL otherwise.
Each end of a link holds the queue the frames sent to its owner on that
link land on.  A party with an inbox, as every voter has, gets one queue
for all its links, so it waits on one source and sees its frames in
arrival order; any other party waits on the link it expects a frame from.

A link never fails: a frame is only ever dropped, corrupted or delayed by
a fault hook.  Hooks intercept deliveries by sender name, receiver name
and message index, the count of frames sent before it from the same end;
a fabric with no hook shows a frame to none and builds no Delivery for
it.  A post encodes a message once and sends that frame to its endpoints
in the post's own turn on the scheduler's ready queue, never inside the
poster's step.  Each distinct frame is decoded once per world: the fabric
memoizes Messages by frame content, at most one per link end, oldest
evicted first.  A frame corrupted beyond parseability is never kept but
silently discarded on every send, so the receiver only ever notices the
resulting silence through its timeout, and a parseable one lands on the
receiver's queue as a Message.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from .core import (
    HEADER_SIZE,
    VALUE_FLAG_SIZE,
    FrameError,
    Message,
    decode_message,
    encode_message,
)
from .sim import Scheduler, WaitSource


class LinkKind(Enum):
    LOCAL = "local"
    VIRTUAL = "virtual"


@dataclass(eq=False, slots=True)
class Endpoint:
    """One side of a link.  `inbox` is the queue frames sent to this end's
    owner on the link land on, and `peer_inbox` the peer end's, where the
    frames sent from here land.  `sent` counts the frames sent from this
    end, the index fault hooks match on."""

    name: str
    peer_name: str
    kind: LinkKind
    inbox: WaitSource
    peer_inbox: WaitSource
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
    index: int  # 0-based count of frames sent on this link+direction
    delay: float = 0.0
    drop: bool = False


FaultHook = Callable[[Delivery], None]


class Fabric:
    """Owns placements, link ends, inboxes and delivery (including fault
    injection).  `ends[(owner, peer)]` is `owner`'s end of the link it
    shares with `peer`, and `inboxes[name]` the one queue of a party that
    has an inbox."""

    def __init__(self, scheduler: Scheduler):
        self.scheduler = scheduler
        self.placements: dict[str, int] = {}
        self.ends: dict[tuple[str, str], Endpoint] = {}
        self.inboxes: dict[str, WaitSource] = {}
        self.hooks: list[FaultHook] = []
        self.dropped = 0
        self.delivered_total = 0
        # Frames decoded and their Messages, oldest first, at most one per link
        # end: decoding is pure and a Message frozen, so equal bytes share one.
        self._decoded: dict[bytes, Message] = {}

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

    def connect(self, a: str, b: str) -> tuple[Endpoint, Endpoint]:
        """Link two placed activities; returns (a's end, b's end)."""
        if a == b:
            raise ValueError("cannot connect an activity to itself")
        for name in (a, b):
            if name not in self.placements:
                raise ValueError(f"{name!r} is not placed on any node")
        if (a, b) in self.ends:
            raise ValueError(f"link {a!r} <-> {b!r} already exists")
        kind = (
            LinkKind.LOCAL
            if self.placements[a] == self.placements[b]
            else LinkKind.VIRTUAL
        )
        a_in = self.inboxes.get(a) or WaitSource(self.scheduler)
        b_in = self.inboxes.get(b) or WaitSource(self.scheduler)
        a_end = self.ends[(a, b)] = Endpoint(a, b, kind, a_in, b_in)
        b_end = self.ends[(b, a)] = Endpoint(b, a, kind, b_in, a_in)
        return a_end, b_end

    def endpoint(self, owner: str, peer: str) -> Endpoint | None:
        """`owner`'s end of its link with `peer`, or None when unlinked."""
        return self.ends.get((owner, peer))

    def add_hook(self, hook: FaultHook) -> None:
        self.hooks.append(hook)

    def send_from(self, endpoint: Endpoint, frame: bytes) -> None:
        """Ship one frame to the peer end's inbox; never blocks."""
        # Every frame takes an index, so a hook added later counts right.
        index = endpoint.sent
        endpoint.sent = index + 1
        delay = 0.0
        if self.hooks:
            d = Delivery(
                src=endpoint.name, dst=endpoint.peer_name, frame=frame, index=index
            )
            for hook in self.hooks:
                hook(d)
                if d.drop:
                    self.dropped += 1
                    return
            frame, delay = d.frame, d.delay
        msg = self._decoded.get(frame)
        if msg is None:
            # A frame mangled beyond parsing is dropped here, and never kept:
            # the receiver can only ever observe the loss as silence.
            try:
                msg = decode_message(frame)
            except FrameError:
                self.dropped += 1
                return
            if len(self._decoded) >= len(self.ends):
                del self._decoded[next(iter(self._decoded))]
            self._decoded[frame] = msg
        inbox = endpoint.peer_inbox
        if delay > 0:
            self.scheduler.call_later(delay, lambda: self._land(inbox, msg))
        else:
            self._land(inbox, msg)

    def post(self, endpoints: Sequence[Endpoint], msg: Message) -> None:
        """Encode `msg` once and send that frame to `endpoints`, in order, in
        the call's own turn on the scheduler's ready queue."""
        frame = encode_message(msg)

        def send() -> None:
            for endpoint in endpoints:
                self.send_from(endpoint, frame)

        self.scheduler.call_soon(send)

    def _land(self, inbox: WaitSource, msg: Message) -> None:
        self.delivered_total += 1
        inbox.put(msg)

    def census(self, names=None) -> LinkCensus:
        """Links by kind and live voter activities, over the whole fabric or
        only among `names` (a link counts when both its ends are named)."""
        names = None if names is None else frozenset(names)
        virtual = local = 0
        for (owner, peer), end in self.ends.items():
            # every link has two ends; count it at the one whose owner sorts first
            if owner < peer and (names is None or (owner in names and peer in names)):
                if end.kind is LinkKind.VIRTUAL:
                    virtual += 1
                else:
                    local += 1
        voters = sum(
            1
            for act in self.scheduler.live_activities()
            if act.role == "voter" and (names is None or act.name in names)
        )
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
