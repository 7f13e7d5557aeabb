"""The one-pass value stream and frame codec against the codec they
replaced (``_reference_codec``): the same bytes out, the same values and
messages back, and for a damaged frame the same verdict — ``None`` for a
torn one, otherwise a ``FrameError`` with the same ``reason``.

The one family of inputs where the value decoders may differ is a stream
cut short, where the reference raises ``struct.error`` or worse (see its
docstring); ``test_serial.py`` pins what the shipped decoder does there.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_codec as reference

from repro.runtime.message import FrameError, Message, MessageKind
from repro.runtime.serial import decode_value, encode_value
from repro.vm.heap import Heap
from repro.vm.values import DependentRef, Ref

# ------------------------------------------------------------- value stream
HEAP = Heap()
LOCAL_REFS = [
    HEAP.new_object("Account", {"savings": 0}),
    HEAP.new_object("Bänk", {}),
    HEAP.new_array("I", 4),
]
HOME = 3  # the node HEAP belongs to

I32_EDGE = 1 << 31
ints = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.integers(min_value=-4, max_value=4).map(lambda d: I32_EDGE + d),
    st.integers(min_value=-4, max_value=4).map(lambda d: -I32_EDGE + d),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    ints,
    st.floats(allow_nan=False, width=64),
    st.text(max_size=24),  # any code point: multi-byte UTF-8 included
    st.sampled_from(LOCAL_REFS),
    st.builds(
        DependentRef,
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=1, max_value=2**32 - 1),
        st.text(max_size=12),
    ),
)
values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=5), max_leaves=24
)


def canon(value):
    """A decoded value with what ``==`` on references leaves out: exact
    types (``True`` is not ``1`` here) and a descriptor's class name."""
    if isinstance(value, list):
        return [canon(v) for v in value]
    if isinstance(value, Ref):
        return ("Ref", value.oid)
    if isinstance(value, DependentRef):
        return ("DependentRef", value.node, value.oid, value.class_name)
    return (type(value).__name__, value)


@settings(max_examples=300)
@given(values)
def test_encode_matches_reference_byte_for_byte(value):
    assert encode_value(value, HOME, HEAP) == reference.encode_value(
        value, HOME, HEAP
    )


@pytest.mark.parametrize("value", [
    True, False, [True, [False]],
    I32_EDGE - 1, I32_EDGE, -I32_EDGE, -I32_EDGE - 1,
    "", "üñí — 銀行", [[], [[]], [None]],
    LOCAL_REFS, DependentRef(0, 1, ""), DependentRef(6, 2**32 - 1, "Bänk"),
])
def test_encode_matches_reference_on_the_edges(value):
    assert encode_value(value, HOME, HEAP) == reference.encode_value(
        value, HOME, HEAP
    )


@settings(max_examples=300)
@given(values, st.integers(min_value=0, max_value=6))
def test_decode_matches_reference_on_every_node(value, reader):
    """``reader`` is the home of some descriptors and foreign to others:
    the first swizzle back to ``Ref``, the rest stay ``DependentRef``."""
    data = reference.encode_value(value, HOME, HEAP)
    assert canon(decode_value(data, reader)) == canon(
        reference.decode_value(data, reader)
    )


def test_a_descriptor_swizzles_at_home_only():
    data = reference.encode_value(LOCAL_REFS, HOME, HEAP)
    assert canon(decode_value(data, HOME)) == [
        ("Ref", ref.oid) for ref in LOCAL_REFS
    ]
    assert canon(decode_value(data, HOME + 1)) == [
        ("DependentRef", HOME, ref.oid, cls)
        for ref, cls in zip(LOCAL_REFS, ("Account", "Bänk", "<array>"))
    ]


# -------------------------------------------------------------------- frames
node_ids = st.integers(min_value=-(2**15), max_value=2**15 - 1)
req_ids = st.integers(min_value=-(2**63), max_value=2**63 - 1)
messages = st.builds(
    Message, kind=st.sampled_from(list(MessageKind)), src=node_ids,
    dst=node_ids, req_id=req_ids, payload=st.binary(max_size=96),
)


@pytest.mark.parametrize("kind", list(MessageKind))
@pytest.mark.parametrize("payload", [b"", b"x", bytes(range(256)) * 3])
def test_serialize_matches_reference(kind, payload):
    msg = Message(kind, 3, 7, 3_000_042, payload)
    assert msg.serialize() == reference.serialize(msg)


@given(messages)
def test_serialize_matches_reference_property(msg):
    assert msg.serialize() == reference.serialize(msg)


def verdict(decode, data):
    """What a frame decoder made of ``data``, comparably."""
    try:
        got = decode(data)
    except FrameError as exc:
        return ("error", exc.reason, exc.detail)
    if got is None:
        return ("torn",)
    msg, consumed = got if isinstance(got, tuple) else (got, len(data))
    return ("ok", msg.kind, msg.src, msg.dst, msg.req_id, msg.payload, consumed)


def assert_same_verdicts(data):
    assert verdict(Message.decode_stream, data) == verdict(
        reference.decode_stream, data
    )
    assert verdict(Message.deserialize, data) == verdict(
        reference.deserialize, data
    )
    # the reassembly buffer of a stream reader is a bytearray
    assert verdict(Message.decode_stream, bytearray(data)) == verdict(
        reference.decode_stream, data
    )


FRAME = Message(
    MessageKind.DEPENDENCE, 0, 1, 1_000_007,
    reference.encode_value([17, 5, "deposit", [3, 57]], 0, None),
).serialize()


def test_every_single_byte_corruption_gets_the_reference_verdict():
    """Every byte of a request frame set to every other value: magic,
    version, kind, endpoints, length (shorter: checksum or, exact, length
    mismatch; longer: torn), checksum, payload."""
    reasons = set()
    for at in range(len(FRAME)):
        for byte in range(256):
            if byte != FRAME[at]:
                data = FRAME[:at] + bytes((byte,)) + FRAME[at + 1:]
                assert_same_verdicts(data)
                reasons.add(verdict(Message.decode_stream, data)[:2])
    assert reasons >= {
        ("error", "bad magic"), ("error", "unsupported wire version"),
        ("error", "implausible payload length"), ("torn",),
        ("error", "payload checksum mismatch"),
        ("error", "unknown message kind"), ("ok", MessageKind.NEW),
    }


def test_every_truncation_gets_the_reference_verdict():
    for cut in range(len(FRAME) + 1):
        assert_same_verdicts(FRAME[:cut])
    assert_same_verdicts(FRAME + FRAME[:5])  # a second frame's head behind it


@settings(max_examples=200)
@given(messages, st.data())
def test_damaged_frames_get_the_reference_verdict(msg, data):
    frame = msg.serialize()
    assert_same_verdicts(frame)
    assert_same_verdicts(frame[:data.draw(st.integers(0, len(frame)))])
    at = data.draw(st.integers(0, len(frame) - 1))
    flip = data.draw(st.integers(1, 255))
    assert_same_verdicts(
        frame[:at] + bytes((frame[at] ^ flip,)) + frame[at + 1:]
    )
