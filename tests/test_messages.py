"""Wire format and the farm description lifecycle of a handle."""

import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from votefarm.client import World, open_farm
from votefarm.core import (
    HEADER_SIZE,
    AlgorithmId,
    BadStateError,
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
    assert frame == bytes.fromhex("0100000109000000") + b"\x01" + struct.pack("<d", 42.0)


def test_get_frame_bytes():
    assert encode_message(Message(Tag.GET, 0)) == bytes.fromhex("0600000000000000")


def test_broadcast_invalid_frame_bytes():
    assert encode_message(Message(Tag.BROADCAST_INVALID, 3)) == bytes.fromhex(
        "0303000000000000"
    )


def test_header_is_eight_bytes():
    assert HEADER_SIZE == 8


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


# -- malformed frames ------------------------------------------------------------


def test_truncated_header_rejected():
    with pytest.raises(FrameError):
        decode_message(b"\x01\x00\x00")


def test_wrong_payload_kind_rejected():
    frame = bytearray(encode_message(Message(Tag.GET, 0)))
    frame[3] = 1  # claims a value payload on a GET
    with pytest.raises(FrameError):
        decode_message(bytes(frame))


def test_length_mismatch_rejected():
    frame = encode_message(Message(Tag.INPUT, 0, VoteValue.from_floats([1.0])))
    with pytest.raises(FrameError):
        decode_message(frame + b"\x00")
    with pytest.raises(FrameError):
        decode_message(frame[:-1])


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
    frame = struct.pack("<BHBI", Tag.INPUT.value, 0, 1, len(body)) + body
    with pytest.raises(FrameError):
        decode_message(frame)


@pytest.mark.parametrize(
    "epsilon,scaling", [(-1.0, 1.0), (math.nan, 1.0), (0.0, -1.0), (0.0, math.nan)]
)
def test_bad_algorithm_parameters_rejected(epsilon, scaling):
    body = struct.pack("<Bdd", VoteKind.WEIGHTED_AVERAGE.value, epsilon, scaling)
    frame = struct.pack("<BHBI", Tag.SET_ALGORITHM.value, 0, 2, len(body)) + body
    bad = "epsilon" if epsilon != 0.0 else "scaling_factor"
    with pytest.raises(FrameError, match=f"{bad} must be >= 0"):
        decode_message(frame)


@pytest.mark.parametrize("code", [0xEE, 5])
def test_unknown_failure_code_rejected(code):
    frame = struct.pack("<BHBI", Tag.VOTED_VALUE.value, 1, 4, 1) + bytes([code])
    with pytest.raises(FrameError):
        decode_message(frame)


@given(st.binary(max_size=80))
def test_decoder_never_crashes(blob):
    try:
        decode_message(blob)
    except FrameError:
        pass


# The payload kind byte each tag's frames carry: none 0, value 1,
# algorithm 2, target 3, outcome 4.
KIND_OF_TAG = dict(zip(Tag, (1, 1, 0, 2, 3, 0, 0, 0, 0, 4)))
# Bytes that steer a body into the decoder's branches: value flags, the
# outcome status and the algorithm kinds.
LEADS = st.one_of(st.sampled_from((0, 1, 2)), st.integers(0, 255))


@st.composite
def header_over_body(draw):
    """A frame whose declared length is right but whose tag, kind, sender
    and body are arbitrary, sized to the payloads the decoder knows."""
    tag = draw(st.one_of(st.sampled_from(list(Tag)), st.integers(0, 255)))
    kind = draw(st.one_of(st.just(KIND_OF_TAG.get(tag, 0)), st.integers(0, 255)))
    sender = draw(st.integers(0, 0xFFFF))
    size = draw(st.one_of(st.sampled_from((0, 1, 2, 9, 10, 17)), st.integers(0, 40)))
    lead = bytes(draw(st.lists(LEADS, min_size=min(size, 2), max_size=min(size, 2))))
    body = lead + draw(st.binary(min_size=size - len(lead), max_size=size - len(lead)))
    return struct.pack("<BHBI", tag, sender, kind, size) + body


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
    with pytest.raises(ValueError, match="no numeric view"):
        VoteValue.from_bytes(bytes(8)).floats()


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
    with pytest.raises(BadStateError):
        world.activate_farm("a", ())
    assert world.farms == {}


@pytest.mark.parametrize("delta_t", [0.0, math.nan, math.inf])
def test_activate_farm_needs_a_positive_finite_delta_t(delta_t):
    world = World(VIRTUAL)
    with pytest.raises(ValueError, match="delta_t must be > 0"):
        world.activate_farm("a", (1, 2, 3), delta_t=delta_t)
    assert world.farms == {}
