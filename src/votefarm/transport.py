"""Point-to-point links, the fabric that owns them, and fault hooks.

Links carry encoded byte frames with per-direction FIFO order.  A link is
LOCAL when both parties are placed on the same node and VIRTUAL otherwise.
Fault hooks intercept deliveries per link, direction, and message index,
and may drop, corrupt, or delay the frame.  Each frame is then decoded
exactly once: a frame corrupted beyond parseability is silently discarded,
so the receiver only ever notices the resulting silence through its
timeout, and a parseable one lands on the receiver's queue as a Message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

from .core import (
    HEADER_SIZE,
    VALUE_FLAG_SIZE,
    FrameError,
    Message,
    TransportDownError,
    decode_message,
    encode_message,
)
from .sim import Scheduler, Wait, WaitSource


class LinkKind(Enum):
    LOCAL = "local"
    VIRTUAL = "virtual"


class Endpoint(WaitSource):
    """One side of a link; frames sent here land on the peer's queue."""

    __slots__ = ("link", "name")

    def __init__(self, scheduler: Scheduler, link: "Link", name: str):
        super().__init__(scheduler)
        self.link = link
        self.name = name

    @property
    def peer(self) -> "Endpoint":
        return self.link.b if self is self.link.a else self.link.a

    def __repr__(self) -> str:
        return f"Endpoint({self.name}->{self.peer_name})"

    @property
    def peer_name(self) -> str:
        return self.link.b.name if self is self.link.a else self.link.a.name


@dataclass
class Link:
    kind: LinkKind
    a: Endpoint = None
    b: Endpoint = None
    closed: bool = False
    # sent-frame counters keyed by destination endpoint name
    sent: dict = field(default_factory=dict)

    def endpoint_for(self, name: str) -> Endpoint:
        if self.a.name == name:
            return self.a
        if self.b.name == name:
            return self.b
        raise KeyError(name)

    def close(self) -> None:
        self.closed = True


@dataclass(frozen=True)
class LinkCensus:
    virtual: int
    local: int
    voters: int


@dataclass
class Delivery:
    """A frame in flight, shown to fault hooks before it lands."""

    link: Link
    src: str
    dst: str
    frame: bytes
    index: int  # 0-based count of frames sent on this link+direction
    delay: float = 0.0
    drop: bool = False


FaultHook = Callable[[Delivery], None]


class Fabric:
    """Owns placements, links, and delivery (including fault injection)."""

    def __init__(self, scheduler: Scheduler):
        self.scheduler = scheduler
        self.placements: dict[str, int] = {}
        self.links: dict[frozenset, Link] = {}
        self.hooks: list[FaultHook] = []
        self.dropped = 0
        self.delivered_total = 0

    def place(self, name: str, node: int) -> None:
        if node < 1:
            raise ValueError("node id must be >= 1")
        if self.placements.get(name, node) != node:
            raise ValueError(f"{name!r} already placed elsewhere")
        self.placements[name] = node

    def connect(self, a: str, b: str) -> Link:
        if a == b:
            raise ValueError("cannot connect an activity to itself")
        for name in (a, b):
            if name not in self.placements:
                raise ValueError(f"{name!r} is not placed on any node")
        key = frozenset((a, b))
        if key in self.links:
            raise ValueError(f"link {a!r} <-> {b!r} already exists")
        kind = (
            LinkKind.LOCAL
            if self.placements[a] == self.placements[b]
            else LinkKind.VIRTUAL
        )
        link = Link(kind)
        link.a = Endpoint(self.scheduler, link, a)
        link.b = Endpoint(self.scheduler, link, b)
        link.sent = {a: 0, b: 0}
        self.links[key] = link
        return link

    def link_between(self, a: str, b: str) -> Link | None:
        return self.links.get(frozenset((a, b)))

    def links_of(self, name: str) -> list[tuple[str, Link]]:
        """(peer name, link) pairs involving `name`, in creation order."""
        out = []
        for key, link in self.links.items():
            if name in key:
                (peer,) = key - {name}
                out.append((peer, link))
        return out

    def add_hook(self, hook: FaultHook) -> None:
        self.hooks.append(hook)

    def send_from(self, endpoint: Endpoint, frame: bytes) -> None:
        """Ship one frame toward the peer endpoint; never blocks."""
        link = endpoint.link
        if link.closed:
            raise TransportDownError(
                f"link {endpoint.name} <-> {endpoint.peer_name} is closed"
            )
        dst = endpoint.peer
        d = Delivery(
            link=link,
            src=endpoint.name,
            dst=dst.name,
            frame=frame,
            index=link.sent[dst.name],
        )
        link.sent[dst.name] += 1
        for hook in self.hooks:
            hook(d)
            if d.drop:
                self.dropped += 1
                return
        # A frame mangled beyond parsing is dropped here: the receiver can
        # only ever observe the loss as silence.
        try:
            msg = decode_message(d.frame)
        except FrameError:
            self.dropped += 1
            return
        if d.delay > 0:
            self.scheduler.call_later(d.delay, lambda: self._land(dst, msg))
        else:
            self._land(dst, msg)

    def _land(self, dst: Endpoint, msg: Message) -> None:
        self.delivered_total += 1
        dst.put(msg)

    def census(self, names=None) -> LinkCensus:
        """Links by kind and live voter activities, over the whole fabric or
        only among `names` (a link counts when both its ends are named)."""
        names = None if names is None else frozenset(names)
        virtual = local = 0
        for key, link in self.links.items():
            if names is None or key <= names:
                if link.kind is LinkKind.VIRTUAL:
                    virtual += 1
                else:
                    local += 1
        voters = sum(
            1
            for act in self.scheduler.live_activities()
            if act.role == "voter" and (names is None or act.name in names)
        )
        return LinkCensus(virtual=virtual, local=local, voters=voters)


class Outbox(WaitSource):
    """Per-voter send queue drained by a dedicated sender activity, so the
    owner never blocks on a send."""

    _POISON = object()

    def __init__(self, fabric: Fabric, owner: str):
        super().__init__(fabric.scheduler)
        self.fabric = fabric
        self.owner = owner
        self.closed = False

    def send(self, endpoint: Endpoint, msg: Message) -> None:
        """Enqueue a message for delivery; returns immediately."""
        if self.send_to((endpoint,), msg):
            raise TransportDownError(
                f"outbox of {self.owner} is closed"
                if self.closed
                else f"link {endpoint.name} <-> {endpoint.peer_name} is closed"
            )

    def send_to(self, endpoints: Sequence[Endpoint], msg: Message) -> int:
        """Encode `msg` once and enqueue that frame for every endpoint, in
        order; returns how many endpoints were refused (closed outbox or
        closed link)."""
        if self.closed:
            return len(endpoints)
        frame = encode_message(msg)
        refused = 0
        for endpoint in endpoints:
            if endpoint.link.closed:
                refused += 1
            else:
                self.put((endpoint, frame))
        return refused

    def close(self) -> None:
        self.closed = True
        self.put(self._POISON)

    def pump(self):
        """Generator body for the dedicated sender activity."""
        while True:
            _, item = yield Wait((self,), None)
            if item is self._POISON:
                return
            endpoint, frame = item
            if endpoint.link.closed:
                continue
            self.fabric.send_from(endpoint, frame)


def receive_any(endpoints: Sequence[Endpoint], timeout: float):
    """Generator: `(endpoint, message)` for the earliest message across
    `endpoints`, or TIMED_OUT after at least `timeout` time units (never
    earlier).  Frames that fail to parse never land, so garbled traffic is
    silence here."""
    endpoints = tuple(endpoints)
    if not endpoints:
        raise ValueError("receive_any needs at least one link")
    if timeout is None or not (timeout > 0):
        raise ValueError("timeout must be > 0")
    if all(ep.link.closed for ep in endpoints):
        raise TransportDownError("all links are closed")
    return (yield Wait(endpoints, timeout))


# -- fault hook constructors --------------------------------------------------


def _match(d: Delivery, link: Link, dst: str, index: int | None) -> bool:
    return d.link is link and d.dst == dst and (index is None or d.index == index)


def drop_hook(link: Link, dst: str, index: int | None = None) -> FaultHook:
    def hook(d: Delivery) -> None:
        if _match(d, link, dst, index):
            d.drop = True

    return hook


def delay_hook(link: Link, dst: str, delay: float, index: int | None = None) -> FaultHook:
    def hook(d: Delivery) -> None:
        if _match(d, link, dst, index):
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


def corrupt_raw(frame: bytes, pattern: bytes, offset: int = 0) -> bytes:
    """XOR `pattern` into the frame starting at `offset`; may well produce
    an unparseable frame, which the fabric then drops."""
    body = bytearray(frame)
    for i, p in enumerate(pattern):
        if offset + i < len(body):
            body[offset + i] ^= p
    return bytes(body)


def corrupt_hook(
    link: Link, dst: str, pattern: bytes, index: int | None = None
) -> FaultHook:
    def hook(d: Delivery) -> None:
        if _match(d, link, dst, index):
            d.frame = corrupt_value_payload(d.frame, pattern)

    return hook
