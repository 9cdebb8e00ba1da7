"""Shared domain types for voter farms.

Identifiers, vote payloads, farm lifecycle states, protocol messages, error
codes, and the binary frame codec used on every link.  Everything here is
an immutable value; behaviour lives in the other modules.  A Message is a
validated immutable tuple, and a numeric VoteValue unpacks its floats once.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

# Sender id reserved for user modules; voter ids start at 1.
USER = 0
# The largest sender id a frame's 16-bit sender field holds, and so the
# most voters a farm can have.
MAX_SENDER_ID = 0xFFFF


class ErrorCode(IntEnum):
    NONE = 0
    TIMEOUT = 1
    NOT_RUNNING = 2
    NO_MAJORITY = 3
    BAD_STATE = 4
    # Recorded by client handles when a voter answers a request with REFUSED.
    REFUSED = 6


class Tag(IntEnum):
    """Message tags. INPUT/SET_*/GET/CLOSE flow client-to-voter,
    BROADCAST_* voter-to-voter, DONE/REFUSED/VOTED_VALUE voter-to-client."""

    INPUT = 1
    BROADCAST_VALUE = 2
    BROADCAST_INVALID = 3
    SET_ALGORITHM = 4
    SET_OUTPUT = 5
    GET = 6
    CLOSE = 7
    DONE = 8
    REFUSED = 9
    VOTED_VALUE = 10


class VoteKind(IntEnum):
    MAJORITY = 1
    MEDIAN = 2
    PLURALITY = 3
    WEIGHTED_AVERAGE = 4


class FarmState(IntEnum):
    DECLARED = 1
    DESCRIBED = 2
    RUNNING = 3
    CLOSED = 4


class FrameError(ValueError):
    """A byte sequence that does not parse as exactly one message frame."""


_F64 = struct.Struct("<d")


@dataclass(frozen=True)
class VoteValue:
    """An opaque byte string, optionally viewable as float64 components.

    Numeric values use one canonical encoding: little-endian float64s, so
    the byte length always equals 8 * dimension.
    """

    data: bytes
    numeric: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.data, bytes):
            raise TypeError("VoteValue.data must be bytes")
        if len(self.data) < 1:
            raise ValueError("VoteValue.data must be non-empty")
        if self.numeric and len(self.data) % 8 != 0:
            raise ValueError("numeric VoteValue length must be a multiple of 8")

    def __hash__(self) -> int:
        # equal values have equal bytes; a numeric and an opaque one may share it
        return hash(self.data)

    @classmethod
    def from_bytes(cls, data: bytes) -> "VoteValue":
        return cls(bytes(data), numeric=False)

    @classmethod
    def from_floats(cls, components) -> "VoteValue":
        comps = [float(c) for c in components]
        if not comps:
            raise ValueError("numeric VoteValue needs at least one component")
        return cls(b"".join(_F64.pack(c) for c in comps), numeric=True)

    def floats(self) -> tuple[float, ...]:
        if not self.numeric:
            raise ValueError("VoteValue has no numeric view")
        return self._view

    @cached_property
    def _view(self) -> tuple[float, ...]:
        # unpacked once per value; kept in the instance dict, not a field
        return struct.unpack(f"<{len(self.data) >> 3}d", self.data)

    @property
    def dimension(self) -> int:
        if not self.numeric:
            raise ValueError("VoteValue has no numeric view")
        return len(self.data) // 8


@dataclass(frozen=True)
class AlgorithmId:
    kind: VoteKind
    epsilon: float = 0.0
    scaling_factor: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.kind, VoteKind):
            raise TypeError("kind must be a VoteKind")
        if not (self.epsilon >= 0.0):
            raise ValueError("epsilon must be >= 0")
        if not (self.scaling_factor >= 0.0):
            raise ValueError("scaling_factor must be >= 0")


@dataclass(frozen=True)
class VoteOutcome:
    """Result of one vote: exactly one of value / failure is set."""

    value: VoteValue | None = None
    failure: ErrorCode | None = None

    def __post_init__(self) -> None:
        if (self.value is None) == (self.failure is None):
            raise ValueError("exactly one of value/failure must be set")
        if self.failure is not None and self.failure == ErrorCode.NONE:
            raise ValueError("failure must be a real error code")

    @property
    def ok(self) -> bool:
        return self.value is not None


# --- wire format -----------------------------------------------------------
#
# frame := tag(1) | sender(2, LE) | round(4, LE) | payload
#
# A frame arrives whole and its tag fixes what the payload is, so the header
# states neither.  The layout is fixed so frames stay bit-stable across runs
# and corruption can be injected at known byte offsets.

_HEADER = struct.Struct("<BHI")
_ALGO = struct.Struct("<Bdd")

HEADER_SIZE = _HEADER.size
VALUE_FLAG_SIZE = 1  # leading opaque/numeric flag inside a value payload


def _encode_value(value: VoteValue) -> bytes:
    return bytes([1 if value.numeric else 0]) + value.data


def _decode_value(body: bytes) -> VoteValue:
    if body[:1] not in (b"\x00", b"\x01"):
        raise FrameError("bad value flag")
    return VoteValue(body[1:], numeric=body[0] == 1)


def _decode_none(body: bytes) -> None:
    if body:
        raise FrameError("a payload-free tag must not carry payload bytes")


def _encode_outcome(o: VoteOutcome) -> bytes:
    return b"\x00" + _encode_value(o.value) if o.ok else bytes([o.failure.value])


def _decode_outcome(body: bytes) -> VoteOutcome:
    if body[:1] == b"\x00":
        return VoteOutcome(value=_decode_value(body[1:]))
    if len(body) != 1:
        raise FrameError("a failure outcome is exactly one byte")
    return VoteOutcome(failure=ErrorCode(body[0]))


def _decode_algorithm(body: bytes) -> AlgorithmId:
    raw_kind, epsilon, scaling = _ALGO.unpack(body)
    return AlgorithmId(VoteKind(raw_kind), epsilon, scaling)


# Each tag's payload: its type, its encoder and its decoder.
_NONE = (type(None), lambda _: b"", _decode_none)
_VALUE = (VoteValue, _encode_value, _decode_value)
_PAYLOAD = {
    Tag.INPUT: _VALUE,
    Tag.BROADCAST_VALUE: _VALUE,
    Tag.BROADCAST_INVALID: _NONE,
    Tag.SET_ALGORITHM: (
        AlgorithmId,
        lambda a: _ALGO.pack(a.kind, a.epsilon, a.scaling_factor),
        _decode_algorithm,
    ),
    Tag.SET_OUTPUT: (str, lambda target: target.encode("utf-8"), lambda b: b.decode("utf-8")),
    Tag.GET: _NONE,
    Tag.CLOSE: _NONE,
    Tag.DONE: _NONE,
    Tag.REFUSED: _NONE,
    Tag.VOTED_VALUE: (VoteOutcome, _encode_outcome, _decode_outcome),
}


class Message(namedtuple("Message", "tag sender payload round")):
    """A validated immutable tuple (tag, sender, payload, round); a broadcast
    names its sender's round, every other message 0.  Every way to build one,
    `_make` and `_replace` included, runs the checks of `__new__`.  As with a
    dataclass, a Message equals only a Message with equal fields (never a
    plain tuple), and equal Messages hash alike."""

    __slots__ = ()

    def __new__(cls, tag: Tag, sender: int, payload: object = None, round: int = 0):
        if not isinstance(tag, Tag):
            raise TypeError("tag must be a Tag")
        if not isinstance(sender, int) or not 0 <= sender <= MAX_SENDER_ID:
            raise ValueError("sender must be USER (0) or a voter id, 1 to MAX_SENDER_ID")
        if not 0 <= round <= 0xFFFFFFFF:
            raise ValueError("round must fit the frame's 4 bytes")
        kind = _PAYLOAD[tag][0]
        if not isinstance(payload, kind):
            raise ValueError(f"{tag.name} requires a {kind.__name__} payload")
        if kind is str:
            payload.encode("utf-8")  # a lone surrogate: UnicodeEncodeError, a ValueError
        return tuple.__new__(cls, (tag, sender, payload, round))

    @classmethod
    def _make(cls, fields) -> "Message":
        return cls(*fields)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    __ne__ = object.__ne__  # the negation of __eq__, not tuple's field compare
    __hash__ = tuple.__hash__


def encode_message(msg: Message) -> bytes:
    """Serialize a message to one frame; the fabric delivers it whole."""
    body = _PAYLOAD[msg.tag][1](msg.payload)
    return _HEADER.pack(msg.tag, msg.sender, msg.round) + body  # tags pack as is


def decode_message(frame: bytes) -> Message:
    """Parse exactly one frame; raises FrameError on anything else.

    Past the header, each rule a type holds is checked by building that
    type: its ValueError, or the struct.error of a short algorithm payload,
    becomes a FrameError.  Only the rules of the wire itself are here."""
    if len(frame) < HEADER_SIZE:
        raise FrameError("frame shorter than header")
    raw_tag, sender, round_ = _HEADER.unpack_from(frame, 0)
    try:
        tag = Tag(raw_tag)
        return Message(tag, sender, _PAYLOAD[tag][2](frame[HEADER_SIZE:]), round_)
    except FrameError:
        raise
    except (ValueError, struct.error) as exc:
        raise FrameError(str(exc)) from exc
