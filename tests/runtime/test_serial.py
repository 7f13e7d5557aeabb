"""Streamed message format tests: unit + hypothesis round trips."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import RuntimeServiceError
from repro.runtime.serial import decode_value, encode_value
from repro.vm.heap import Heap
from repro.vm.values import DependentRef, Ref


class FakeHeapEntry:
    def __init__(self, class_name):
        self.class_name = class_name


def roundtrip(value, src_node=0, dst_node=0, heap=None):
    data = encode_value(value, src_node, heap or Heap())
    return decode_value(data, dst_node)


@pytest.mark.parametrize("value", [
    None, 0, 1, -1, 2**31 - 1, -(2**31), 2**40, -(2**62),
    0.0, 1.5, -2.25, "hello", "", "unicode: üñí",
    [], [1, 2, 3], [1, "x", None, 2.5], [[1], [2, [3]]],
])
def test_roundtrip_values(value):
    assert roundtrip(value) == value


def test_boolean_encodes_as_int():
    assert roundtrip(True) == 1
    assert roundtrip(False) == 0


def test_local_ref_becomes_remote_descriptor():
    heap = Heap()
    ref = heap.new_object("Account", ["savings"], ["I"])
    data = encode_value(ref, 3, heap)
    # decoded on a DIFFERENT node -> DependentRef pointing back at node 3
    got = decode_value(data, 7)
    assert isinstance(got, DependentRef)
    assert got.node == 3 and got.oid == ref.oid
    assert got.class_name == "Account"


def test_ref_swizzles_back_home():
    heap = Heap()
    ref = heap.new_object("Account", [], [])
    data = encode_value(ref, 3, heap)
    got = decode_value(data, 3)  # decoded back on the owning node
    assert isinstance(got, Ref)
    assert got == ref


def test_dependent_ref_passes_through():
    dref = DependentRef(2, 44, "Bank")
    got = roundtrip(dref, src_node=0, dst_node=1)
    assert got == dref
    assert got.class_name == "Bank"


def test_dependent_ref_swizzles_at_home():
    dref = DependentRef(5, 44, "Bank")
    got = roundtrip(dref, src_node=0, dst_node=5)
    assert isinstance(got, Ref) and got.oid == 44


def test_array_ref_encodes_with_array_class():
    heap = Heap()
    arr = heap.new_array("I", 4)
    got = decode_value(encode_value(arr, 1, heap), 2)
    assert isinstance(got, DependentRef)
    assert got.class_name == "<array>"


def test_size_grows_with_payload():
    small = encode_value([1], 0, Heap())
    big = encode_value(list(range(100)), 0, Heap())
    assert len(big) > len(small)


def test_trailing_bytes_rejected():
    data = encode_value(5, 0, Heap()) + b"junk"
    with pytest.raises(RuntimeServiceError, match="trailing"):
        decode_value(data, 0)


def test_bad_tag_rejected():
    with pytest.raises(RuntimeServiceError, match="bad stream tag"):
        decode_value(b"Qxxxx", 0)


def test_unstreamable_value_rejected():
    with pytest.raises(RuntimeServiceError, match="cannot stream"):
        encode_value(object(), 0, Heap())


mj_scalars = st.one_of(
    st.none(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=40),
)
mj_values = st.recursive(mj_scalars, lambda inner: st.lists(inner, max_size=5),
                         max_leaves=20)


@given(mj_values)
def test_property_roundtrip(value):
    assert roundtrip(value) == value


@given(st.integers(min_value=0, max_value=30000),
       st.integers(min_value=0, max_value=100),
       st.integers(min_value=0, max_value=100))
def test_property_ref_swizzling(oid, src, dst):
    dref = DependentRef(src, oid + 1, "C")
    got = roundtrip(dref, dst_node=dst)
    if dst == src:
        assert isinstance(got, Ref) and got.oid == oid + 1
    else:
        assert isinstance(got, DependentRef) and got.node == src


# ------------------------------------------------------------ cut streams
#: what an RPC, a checkpoint ack and the worker's result hand-off carry
CARGO = [17, 5, "deposit", [3, 57], DependentRef(1, 9, "ServiceBank"),
         2.5, 1 << 40, None]

refs = st.builds(
    DependentRef,
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=1, max_value=30000),
    st.text(max_size=12),
)
streamed = st.recursive(
    st.one_of(mj_scalars, refs),
    lambda inner: st.lists(inner, max_size=5),
    max_leaves=20,
)


def assert_every_prefix_is_a_structured_error(data, node_id):
    for cut in range(len(data)):
        with pytest.raises(RuntimeServiceError, match="truncated stream"):
            decode_value(data[:cut], node_id)


def test_every_prefix_of_an_rpc_cargo_is_a_structured_error():
    """81 proper prefixes; the codec this one replaced raised a bare
    ``struct.error`` on 52 of them and *decoded* a string cut short."""
    data = encode_value(CARGO, 0, Heap())
    assert len(data) == 81
    assert_every_prefix_is_a_structured_error(data, 0)
    assert_every_prefix_is_a_structured_error(data, 1)  # the ref swizzles


@given(streamed, st.integers(min_value=0, max_value=100))
def test_property_every_prefix_is_a_structured_error(value, node_id):
    assert_every_prefix_is_a_structured_error(
        encode_value(value, 0, Heap()), node_id
    )


def test_list_count_beyond_the_stream_is_rejected_before_allocation():
    """A corrupt count must not size a list: 4 G items would be 32 GiB."""
    data = b"L" + struct.pack("<I", 0xFFFFFFFF) + b"N" * 64
    with pytest.raises(RuntimeServiceError, match="truncated stream: list"):
        decode_value(data, 0)
    # the same one level down, behind a sound outer header
    nested = b"L" + struct.pack("<I", 1) + data
    with pytest.raises(RuntimeServiceError, match="truncated stream: list"):
        decode_value(nested, 0)


def test_string_length_beyond_the_stream_is_not_decoded():
    data = encode_value("deposit", 0, Heap())
    with pytest.raises(RuntimeServiceError, match="7-byte string"):
        decode_value(data[:-4], 0)


def test_damaged_string_bytes_are_a_structured_error():
    data = bytearray(encode_value("ü", 0, Heap()))
    data[-1] = 0xFF  # not a UTF-8 continuation byte
    with pytest.raises(RuntimeServiceError, match="corrupt stream"):
        decode_value(bytes(data), 0)
