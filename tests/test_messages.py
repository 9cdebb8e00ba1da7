"""Wire format and the farm description lifecycle of a handle."""

import dataclasses
import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from votefarm.client import World, open_farm
from votefarm.core import (
    HEADER_SIZE,
    AlgorithmId,
    ErrorCode,
    FarmState,
    FrameError,
    Message,
    Tag,
    VoteKind,
    VoteOutcome,
    VoteValue,
    decode_message,
    encode_message,
)
from votefarm.sim import VIRTUAL


def roundtrip(msg):
    return decode_message(encode_message(msg))


# -- golden frames: the bytes are the contract --------------------------------


def test_input_frame_bytes():
    frame = encode_message(Message(Tag.INPUT, 0, VoteValue.from_floats([42.0])))
    header = bytes.fromhex("01 0000 00000000")
    assert frame == header + b"\x01" + struct.pack("<d", 42.0)


def test_get_frame_bytes():
    assert encode_message(Message(Tag.GET, 0)) == bytes.fromhex("06 0000 00000000")


def test_broadcast_invalid_frame_bytes():
    """A broadcast names its round after the sender."""
    frame = encode_message(Message(Tag.BROADCAST_INVALID, 3, round=2))
    assert frame == bytes.fromhex("03 0300 02000000")


def test_header_is_seven_bytes():
    assert HEADER_SIZE == 7


# -- round trips ---------------------------------------------------------------


values = st.one_of(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=1,
        max_size=4,
    ).map(VoteValue.from_floats),
    st.binary(min_size=1, max_size=64).map(VoteValue.from_bytes),
)

senders = st.integers(min_value=0, max_value=0xFFFF)
rounds = st.integers(min_value=0, max_value=0xFFFF_FFFF)


@given(senders, values)
def test_value_roundtrip(sender, value):
    for tag in (Tag.INPUT, Tag.BROADCAST_VALUE):
        msg = roundtrip(Message(tag, sender, value))
        assert msg.payload.data == value.data
        assert msg.payload.numeric == value.numeric
        assert msg.sender == sender


@given(senders)
def test_bare_roundtrip(sender):
    for tag in (Tag.BROADCAST_INVALID, Tag.GET, Tag.CLOSE, Tag.DONE, Tag.REFUSED):
        msg = roundtrip(Message(tag, sender))
        assert msg.tag == tag and msg.payload is None


@given(senders, rounds, values)
def test_broadcast_round_roundtrip(sender, rnd, value):
    for msg in (Message(Tag.BROADCAST_VALUE, sender, value, rnd),
                Message(Tag.BROADCAST_INVALID, sender, round=rnd)):
        assert roundtrip(msg) == msg


@given(
    senders,
    st.sampled_from(list(VoteKind)),
    st.floats(min_value=0, max_value=1e9),
    st.floats(min_value=0, allow_infinity=False),
)
def test_algorithm_roundtrip(sender, kind, eps, scaling):
    msg = roundtrip(Message(Tag.SET_ALGORITHM, sender, AlgorithmId(kind, eps, scaling)))
    assert msg.payload == AlgorithmId(kind, eps, scaling)


@given(senders, st.text(min_size=1, max_size=40))
def test_target_roundtrip(sender, target):
    assert roundtrip(Message(Tag.SET_OUTPUT, sender, target)).payload == target


@given(senders, values)
def test_outcome_value_roundtrip(sender, value):
    out = roundtrip(Message(Tag.VOTED_VALUE, sender, VoteOutcome(value=value)))
    assert out.payload.ok and out.payload.value.data == value.data


@given(senders, st.sampled_from([ErrorCode.NO_MAJORITY, ErrorCode.BAD_STATE]))
def test_outcome_failure_roundtrip(sender, code):
    out = roundtrip(Message(Tag.VOTED_VALUE, sender, VoteOutcome(failure=code)))
    assert not out.payload.ok and out.payload.failure == code


# Each tag's payload type, as a strategy: a KeyError here is a tag the
# property below does not cover yet.
PAYLOADS = {
    Tag.INPUT: values,
    Tag.BROADCAST_VALUE: values,
    Tag.BROADCAST_INVALID: st.none(),
    Tag.SET_ALGORITHM: st.builds(
        AlgorithmId, st.sampled_from(VoteKind), st.floats(min_value=0), st.floats(min_value=0)
    ),
    Tag.SET_OUTPUT: st.text(max_size=40),
    Tag.GET: st.none(),
    Tag.CLOSE: st.none(),
    Tag.DONE: st.none(),
    Tag.REFUSED: st.none(),
    Tag.VOTED_VALUE: st.one_of(
        values.map(lambda v: VoteOutcome(value=v)),
        st.sampled_from([c for c in ErrorCode if c is not ErrorCode.NONE]).map(
            lambda c: VoteOutcome(failure=c)
        ),
    ),
}


@settings(max_examples=300)
@given(st.data(), st.sampled_from(Tag), senders, rounds)
def test_every_message_decodes_to_itself(data, tag, sender, rnd):
    """Over every tag: a Message that builds encodes to a frame that decodes
    to an equal Message.  A fabric with no fault hook relies on this when it
    lands a posted Message itself instead of its frame's decode."""
    msg = Message(tag, sender, data.draw(PAYLOADS[tag], label="payload"), rnd)
    assert roundtrip(msg) == msg


# -- malformed frames ------------------------------------------------------------


def test_truncated_header_rejected():
    with pytest.raises(FrameError):
        decode_message(b"\x01\x00\x00")


@pytest.mark.parametrize(
    "tag", [Tag.BROADCAST_INVALID, Tag.GET, Tag.CLOSE, Tag.DONE, Tag.REFUSED]
)
def test_payload_free_tag_with_a_byte_rejected(tag):
    frame = encode_message(Message(tag, 0))
    with pytest.raises(FrameError, match="must not carry payload bytes"):
        decode_message(frame + b"\x00")


def test_unknown_tag_rejected():
    frame = bytearray(encode_message(Message(Tag.GET, 0)))
    frame[0] = 200
    with pytest.raises(FrameError):
        decode_message(bytes(frame))


def test_bad_value_flag_rejected():
    frame = bytearray(encode_message(Message(Tag.INPUT, 0, VoteValue.from_floats([1.0]))))
    frame[HEADER_SIZE] = 7
    with pytest.raises(FrameError):
        decode_message(bytes(frame))


def test_ragged_numeric_value_rejected():
    body = b"\x01" + b"\x00" * 9  # 9 is not a multiple of 8
    frame = struct.pack("<BHI", Tag.INPUT.value, 0, 0) + body
    with pytest.raises(FrameError):
        decode_message(frame)


@pytest.mark.parametrize(
    "epsilon,scaling", [(-1.0, 1.0), (math.nan, 1.0), (0.0, -1.0), (0.0, math.nan)]
)
def test_bad_algorithm_parameters_rejected(epsilon, scaling):
    body = struct.pack("<Bdd", VoteKind.WEIGHTED_AVERAGE.value, epsilon, scaling)
    frame = struct.pack("<BHI", Tag.SET_ALGORITHM.value, 0, 0) + body
    bad = "epsilon" if epsilon != 0.0 else "scaling_factor"
    with pytest.raises(FrameError, match=f"{bad} must be >= 0"):
        decode_message(frame)


@pytest.mark.parametrize("code", [0xEE, 5])
def test_unknown_failure_code_rejected(code):
    frame = struct.pack("<BHI", Tag.VOTED_VALUE.value, 1, 0) + bytes([code])
    with pytest.raises(FrameError):
        decode_message(frame)


@given(st.binary(max_size=80))
def test_decoder_never_crashes(blob):
    try:
        decode_message(blob)
    except FrameError:
        pass


# Bytes that steer a body into the decoder's branches: value flags, the
# outcome status and the algorithm kinds.
LEADS = st.one_of(st.sampled_from((0, 1, 2)), st.integers(0, 255))


@st.composite
def header_over_body(draw):
    """A 7-byte header with an arbitrary tag, sender and round over an
    arbitrary body, sized to the payloads the decoder knows."""
    tag = draw(st.one_of(st.sampled_from(list(Tag)), st.integers(0, 255)))
    sender = draw(st.integers(0, 0xFFFF))
    rnd = draw(st.one_of(st.just(0), rounds))
    size = draw(st.one_of(st.sampled_from((0, 1, 2, 9, 10, 17)), st.integers(0, 40)))
    lead = bytes(draw(st.lists(LEADS, min_size=min(size, 2), max_size=min(size, 2))))
    body = lead + draw(st.binary(min_size=size - len(lead), max_size=size - len(lead)))
    return struct.pack("<BHI", tag, sender, rnd) + body


@settings(max_examples=300)
@given(header_over_body())
def test_decoder_accepts_only_canonical_frames(frame):
    """Whatever the decoder accepts is exactly what the encoder would
    write for the message it returns, so no two frames mean one message."""
    try:
        msg = decode_message(frame)
    except FrameError:
        return
    assert encode_message(msg) == frame


# -- payload typing at construction ------------------------------------------------


def test_message_payload_types_enforced():
    with pytest.raises(ValueError):
        Message(Tag.GET, 0, VoteValue.from_floats([1.0]))
    with pytest.raises(ValueError):
        Message(Tag.INPUT, 0, "not a value")
    with pytest.raises(ValueError):
        Message(Tag.INPUT, -1, VoteValue.from_floats([1.0]))


UNENCODABLE = [
    (Tag.GET, 0x10000, None, 0),
    (Tag.BROADCAST_INVALID, 1, None, -1),
    (Tag.BROADCAST_INVALID, 1, None, 2**32),
    (Tag.SET_OUTPUT, 0, "\ud800", 0),
]


@pytest.mark.parametrize("tag, sender, payload, rnd", UNENCODABLE)
def test_a_message_the_codec_cannot_encode_is_refused_at_construction(tag, sender, payload, rnd):
    """A sender above MAX_SENDER_ID, a round outside 32 bits and a target
    UTF-8 cannot encode raise ValueError when the Message is built, so
    every Message that exists encodes; the edges themselves do."""
    with pytest.raises(ValueError):
        Message(tag, sender, payload, rnd)
    for msg in (Message(Tag.GET, 0xFFFF), Message(Tag.BROADCAST_INVALID, 1, round=2**32 - 1)):
        assert roundtrip(msg) == msg


# -- the Message contract: a validated immutable tuple ------------------------------


def _refusal(build):
    """The type and text of the exception `build()` raises."""
    with pytest.raises(Exception) as info:
        build()
    return type(info.value), str(info.value)


@pytest.mark.parametrize(
    "fields",
    [
        *UNENCODABLE,
        ("GET", 0, None, 0),
        (Tag.GET, 1.0, None, 0),
        (Tag.INPUT, 0, "not a value", 0),
        (Tag.BROADCAST_VALUE, 1, None, 1),
        (Tag.VOTED_VALUE, 1, VoteValue.from_floats([1.0]), 0),
    ],
)
def test_every_way_to_build_a_message_refuses_what_the_constructor_refuses(fields):
    """Keywords, `_make` and `_replace` run the constructor's checks and
    raise its exception, so no Message exists that the codec cannot encode."""
    tag, sender, payload, rnd = fields
    refused = _refusal(lambda: Message(*fields))
    assert issubclass(refused[0], (TypeError, ValueError))
    paths = [
        lambda: Message(tag=tag, sender=sender, payload=payload, round=rnd),
        lambda: Message._make(fields),
        lambda: Message._make(iter(fields)),
        lambda: Message(Tag.GET, 0)._replace(tag=tag, sender=sender, payload=payload, round=rnd),
    ]
    for build in paths:
        assert _refusal(build) == refused


def test_replace_checks_the_one_field_it_changes():
    msg = Message(Tag.BROADCAST_INVALID, 1, round=2)
    assert msg._replace(round=3) == Message(Tag.BROADCAST_INVALID, 1, round=3)
    assert _refusal(lambda: msg._replace(sender=0x10000)) == _refusal(
        lambda: Message(Tag.BROADCAST_INVALID, 0x10000, round=2)
    )
    with pytest.raises(ValueError, match="requires a VoteValue payload"):
        msg._replace(tag=Tag.BROADCAST_VALUE)


def test_a_message_field_cannot_be_set():
    msg = Message(Tag.INPUT, 0, VoteValue.from_floats([1.0]))
    for name in Message._fields:
        with pytest.raises(AttributeError):
            setattr(msg, name, None)
    with pytest.raises(AttributeError):
        msg.extra = 1  # no instance dict either
    assert msg == Message(Tag.INPUT, 0, VoteValue.from_floats([1.0]))


def test_a_message_equals_only_a_message():
    """The rule the docstring states: equal fields make equal Messages with
    equal hashes; a plain tuple of the same fields is never equal."""
    fields = (Tag.BROADCAST_VALUE, 2, VoteValue.from_floats([1.5]), 7)
    msg, twin = Message(*fields), Message(*fields)
    assert msg == twin and not msg != twin and hash(msg) == hash(twin)
    assert {msg: "seen"}[twin] == "seen"
    assert msg != fields and fields != msg
    assert not msg == fields and not fields == msg
    assert msg != list(fields) and msg != object()
    for k, other in enumerate([Tag.INPUT, 3, VoteValue.from_floats([2.5]), 8]):
        changed = list(fields)
        changed[k] = other
        if k == 0:
            changed[3] = 0
        assert msg != Message(*changed)


def test_a_message_unpacks_in_field_order():
    """`Voter.on_event` unpacks each frame as (tag, sender, payload, round)."""
    value = VoteValue.from_floats([3.0])
    msg = Message(Tag.BROADCAST_VALUE, 4, value, 9)
    tag, sender, payload, rnd = msg
    assert (tag, sender, payload, rnd) == (msg.tag, msg.sender, msg.payload, msg.round)
    assert (tag, sender, payload, rnd) == (Tag.BROADCAST_VALUE, 4, value, 9)
    assert Message._fields == ("tag", "sender", "payload", "round")
    assert repr(Message(Tag.GET, 0)) == (
        "Message(tag=<Tag.GET: 6>, sender=0, payload=None, round=0)"
    )


def test_outcome_exactly_one_side():
    with pytest.raises(ValueError):
        VoteOutcome()
    with pytest.raises(ValueError):
        VoteOutcome(value=VoteValue.from_floats([1.0]), failure=ErrorCode.BAD_STATE)
    with pytest.raises(ValueError):
        VoteOutcome(failure=ErrorCode.NONE)


def test_algorithm_id_validation():
    with pytest.raises(ValueError):
        AlgorithmId(VoteKind.MAJORITY, epsilon=-0.1)
    with pytest.raises(ValueError):
        AlgorithmId(VoteKind.MAJORITY, scaling_factor=math.nan)
    with pytest.raises(ValueError, match="scaling_factor must be >= 0"):
        AlgorithmId(VoteKind.WEIGHTED_AVERAGE, scaling_factor=-1.0)
    assert AlgorithmId(VoteKind.WEIGHTED_AVERAGE, scaling_factor=0.0).scaling_factor == 0.0


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=1))
def test_vote_value_float_view(xs):
    v = VoteValue.from_floats(xs)
    assert v.numeric and v.dimension == len(xs)
    assert list(v.floats()) == [struct.unpack("<d", struct.pack("<d", x))[0] for x in xs]


def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# -0.0, both infinities, a NaN with a payload, a negative NaN, a subnormal
SPECIAL_FLOATS = [
    -0.0,
    math.inf,
    -math.inf,
    _from_bits(0x7FF8_0000_0000_0123),
    _from_bits(0xFFF8_0000_0000_0000),
    5e-324,
    1.0,
    -1.7976931348623157e308,
]


@pytest.mark.parametrize("dim", range(1, 9))
def test_float_view_round_trips_bit_for_bit(dim):
    for start in range(len(SPECIAL_FLOATS)):
        xs = [SPECIAL_FLOATS[(start + k) % len(SPECIAL_FLOATS)] for k in range(dim)]
        v = VoteValue.from_floats(xs)
        got = v.floats()
        assert type(got) is tuple and len(got) == dim
        # NaN != NaN, so equality is checked on the bits
        assert struct.pack(f"<{dim}d", *got) == struct.pack(f"<{dim}d", *xs) == v.data


def test_float_view_needs_a_numeric_value():
    opaque = VoteValue.from_bytes(bytes(8))
    for _ in range(3):  # every call raises, not only the first
        with pytest.raises(ValueError, match="no numeric view"):
            opaque.floats()


def test_a_float_view_is_unpacked_once(monkeypatch):
    """The view is computed on the first call and the same tuple returned
    after it; it matches struct.unpack bit for bit, NaN payloads and -0.0
    included."""
    unpacks = []
    unpack = struct.unpack

    def counted(fmt, data):
        unpacks.append(data)
        return unpack(fmt, data)

    monkeypatch.setattr(struct, "unpack", counted)
    v = VoteValue.from_floats(SPECIAL_FLOATS)
    view = v.floats()
    assert v.floats() is view and v.floats() is view
    assert unpacks == [v.data]
    monkeypatch.undo()
    want = struct.unpack(f"<{len(SPECIAL_FLOATS)}d", v.data)
    assert struct.pack(f"<{len(view)}d", *view) == struct.pack(f"<{len(want)}d", *want)


def test_a_float_view_adds_no_field():
    """The view is no dataclass field: equality, hash, repr and the fields
    are what they were before it was computed."""
    assert [f.name for f in dataclasses.fields(VoteValue)] == ["data", "numeric"]
    v, twin = VoteValue.from_floats([1.0, -0.0]), VoteValue.from_floats([1.0, -0.0])
    before = (hash(v), repr(v), dataclasses.asdict(v))
    v.floats()
    assert (hash(v), repr(v), dataclasses.asdict(v)) == before
    assert v == twin and hash(v) == hash(twin)
    assert v != VoteValue(v.data, numeric=False) and hash(v) == hash(v.data)


# -- farm description lifecycle ---------------------------------------------------


def test_descriptor_grows_and_describes():
    handle = open_farm(World(VIRTUAL), "a", 1)
    assert handle.state == FarmState.DECLARED
    assert handle.add(4)
    assert handle.state == FarmState.DESCRIBED
    assert handle.add(4)  # same node twice is a legal farm
    assert handle.nodes == [4, 4]


def test_descriptor_rejects_bad_nodes():
    world = World(VIRTUAL)
    for bad in (0, True, "n1"):
        with pytest.raises(ValueError):
            world.activate_farm("a", (1, bad))
    assert world.farms == {}


def test_descriptor_add_needs_declared_or_described():
    world = World(VIRTUAL)
    handle = open_farm(world, "a", 1)
    assert handle.add(1)
    assert handle.run()

    def closer():
        assert not handle.add(2)  # RUNNING
        assert (yield from handle.close(1.0))
        assert not handle.add(2)  # CLOSED
        assert handle.last_error == ErrorCode.BAD_STATE

    world.spawn_user("a", 1, closer())
    world.run()
    assert handle.nodes == [1]
    assert handle.state == FarmState.CLOSED


def test_advance_state_single_steps_only():
    world = World(VIRTUAL)
    handle = open_farm(world, "a", 1)
    assert not handle.run()  # DECLARED cannot skip to RUNNING
    assert handle.state == FarmState.DECLARED
    assert handle.add(1) and handle.run()
    assert handle.state == FarmState.RUNNING

    def closer():
        assert (yield from handle.close(1.0))
        assert handle.state == FarmState.CLOSED
        assert not handle.run()  # no way back
        assert handle.last_error == ErrorCode.BAD_STATE
        assert not (yield from handle.close(1.0))
        assert handle.last_error == ErrorCode.NOT_RUNNING

    world.spawn_user("a", 1, closer())
    world.run()
    assert handle.state == FarmState.CLOSED


def test_running_needs_nodes():
    world = World(VIRTUAL)
    with pytest.raises(ValueError, match="no nodes"):
        world.activate_farm("a", ())
    assert world.farms == {}


@pytest.mark.parametrize("delta_t", [0.0, math.nan, math.inf])
def test_activate_farm_needs_a_positive_finite_delta_t(delta_t):
    world = World(VIRTUAL)
    with pytest.raises(ValueError, match="delta_t must be > 0"):
        world.activate_farm("a", (1, 2, 3), delta_t=delta_t)
    assert world.farms == {}
