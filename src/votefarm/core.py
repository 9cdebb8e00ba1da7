"""Shared domain types for voter farms.

Identifiers, vote payloads, farm lifecycle states, protocol messages, error
codes, and the binary frame codec used on every link.  Everything here is
an immutable value; behaviour lives in the other modules.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

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


class VotingError(Exception):
    """Operation failure carrying one of the ErrorCode values."""

    def __init__(self, code: ErrorCode, message: str = ""):
        super().__init__(message or code.name)
        self.code = code


class BadStateError(VotingError):
    def __init__(self, message: str = ""):
        super().__init__(ErrorCode.BAD_STATE, message)


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
# frame := tag(1) | sender(2, LE) | payload kind(1) | payload length(4, LE)
#          | payload
#
# The layout is fixed so frames stay bit-stable across runs and corruption
# can be injected at known byte offsets.

_HEADER = struct.Struct("<BHBI")
_ALGO = struct.Struct("<Bdd")

HEADER_SIZE = _HEADER.size
VALUE_FLAG_SIZE = 1  # leading opaque/numeric flag inside a value payload

_P_NONE = 0
_P_VALUE = 1
_P_ALGO = 2
_P_TARGET = 3
_P_OUTCOME = 4

_TAG_PAYLOAD = {
    Tag.INPUT: _P_VALUE,
    Tag.BROADCAST_VALUE: _P_VALUE,
    Tag.BROADCAST_INVALID: _P_NONE,
    Tag.SET_ALGORITHM: _P_ALGO,
    Tag.SET_OUTPUT: _P_TARGET,
    Tag.GET: _P_NONE,
    Tag.CLOSE: _P_NONE,
    Tag.DONE: _P_NONE,
    Tag.REFUSED: _P_NONE,
    Tag.VOTED_VALUE: _P_OUTCOME,
}


@dataclass(frozen=True)
class Message:
    tag: Tag
    sender: int
    payload: object = None

    def __post_init__(self) -> None:
        if not isinstance(self.tag, Tag):
            raise TypeError("tag must be a Tag")
        if not isinstance(self.sender, int) or self.sender < 0:
            raise ValueError("sender must be USER (0) or a voter id (>= 1)")
        kind = _TAG_PAYLOAD[self.tag]
        p = self.payload
        if kind == _P_NONE and p is not None:
            raise ValueError(f"{self.tag.name} carries no payload")
        if kind == _P_VALUE and not isinstance(p, VoteValue):
            raise ValueError(f"{self.tag.name} requires a VoteValue payload")
        if kind == _P_ALGO and not isinstance(p, AlgorithmId):
            raise ValueError(f"{self.tag.name} requires an AlgorithmId payload")
        if kind == _P_TARGET and not isinstance(p, str):
            raise ValueError(f"{self.tag.name} requires a target identifier")
        if kind == _P_OUTCOME and not isinstance(p, VoteOutcome):
            raise ValueError(f"{self.tag.name} requires a VoteOutcome payload")


def _encode_value(value: VoteValue) -> bytes:
    return bytes([1 if value.numeric else 0]) + value.data


def _decode_value(body: bytes) -> VoteValue:
    if body[:1] not in (b"\x00", b"\x01"):
        raise FrameError("bad value flag")
    return VoteValue(body[1:], numeric=body[0] == 1)


def encode_message(msg: Message) -> bytes:
    """Serialize a message to one self-delimiting frame."""
    if msg.sender > MAX_SENDER_ID:
        raise ValueError("sender id does not fit the frame")
    kind = _TAG_PAYLOAD[msg.tag]
    if kind == _P_NONE:
        body = b""
    elif kind == _P_VALUE:
        body = _encode_value(msg.payload)
    elif kind == _P_ALGO:
        a = msg.payload
        body = _ALGO.pack(a.kind.value, a.epsilon, a.scaling_factor)
    elif kind == _P_TARGET:
        body = msg.payload.encode("utf-8")
    else:  # _P_OUTCOME
        o = msg.payload
        if o.ok:
            body = bytes([0]) + _encode_value(o.value)
        else:
            body = bytes([o.failure.value])
    return _HEADER.pack(msg.tag.value, msg.sender, kind, len(body)) + body


def decode_message(frame: bytes) -> Message:
    """Parse exactly one frame; raises FrameError on anything else.

    Past the header, each rule a type holds is checked by building that
    type: its ValueError, or the struct.error of a short algorithm payload,
    becomes a FrameError.  Only the rules of the wire itself are here."""
    if len(frame) < HEADER_SIZE:
        raise FrameError("frame shorter than header")
    raw_tag, sender, kind, length = _HEADER.unpack_from(frame, 0)
    body = frame[HEADER_SIZE:]
    if len(body) != length:
        raise FrameError("declared payload length does not match frame")
    try:
        tag = Tag(raw_tag)
        if kind != _TAG_PAYLOAD[tag]:
            raise FrameError(f"payload kind {kind} not allowed for {tag.name}")
        payload: object
        if kind == _P_NONE:
            if body:
                raise FrameError(f"{tag.name} must not carry payload bytes")
            payload = None
        elif kind == _P_VALUE:
            payload = _decode_value(body)
        elif kind == _P_ALGO:
            raw_kind, epsilon, scaling = _ALGO.unpack(body)
            payload = AlgorithmId(VoteKind(raw_kind), epsilon, scaling)
        elif kind == _P_TARGET:
            payload = body.decode("utf-8")
        elif body[:1] == b"\x00":  # _P_OUTCOME holding a value
            payload = VoteOutcome(value=_decode_value(body[1:]))
        elif len(body) == 1:
            payload = VoteOutcome(failure=ErrorCode(body[0]))
        else:
            raise FrameError("a failure outcome is exactly one byte")
        return Message(tag, sender, payload)
    except FrameError:
        raise
    except (ValueError, struct.error) as exc:
        raise FrameError(str(exc)) from exc
