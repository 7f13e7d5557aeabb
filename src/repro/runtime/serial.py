"""The streamed message format (paper §5: "The Message Exchange service
passes objects between nodes using a streamed format").

A compact tagged binary encoding.  Primitives and strings travel by value;
LinkedLists (packed argument lists) by value, element-wise; heap references
travel as *remote reference descriptors* — (node, oid, class) triples — which
the receiver swizzles back: a descriptor naming the receiving node becomes a
local :class:`~repro.vm.values.Ref`, anything else a
:class:`~repro.vm.values.DependentRef`.  Encoded length is the byte volume
charged to the simulated network.

Both directions are one pass with one ``struct`` call per value: a list is
walked by a single loop that handles every scalar in place and recurses only
for a nested list, so a request costs one Python call per list it carries,
not one per value.  A stream that ends early is a
:class:`~repro.errors.RuntimeServiceError`, whatever it carries.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence, Tuple

from repro.errors import RuntimeServiceError
from repro.vm.values import DependentRef, Ref

_TAG_NULL = b"N"
_TAG_I32 = b"I"
_TAG_I64 = b"J"
_TAG_F64 = b"F"
_TAG_STR = b"S"
_TAG_REF = b"R"
_TAG_LIST = b"L"
#: the same tags as a decoder sees them, indexing the stream
_NULL, _I32, _I64, _F64, _STR, _REF, _LIST = b"NIJFSRL"

ARRAY_CLASS = "<array>"

# tag and value in one call
_pack_i32 = struct.Struct("<ci").pack
_pack_i64 = struct.Struct("<cq").pack
_pack_f64 = struct.Struct("<cd").pack
_pack_len = struct.Struct("<cI").pack       # string bytes, list items
_pack_ref = struct.Struct("<chIH").pack     # node, oid, class-name bytes
# the value behind a tag
_unpack_i32 = struct.Struct("<i").unpack_from
_unpack_i64 = struct.Struct("<q").unpack_from
_unpack_f64 = struct.Struct("<d").unpack_from
_unpack_len = struct.Struct("<I").unpack_from
_unpack_ref = struct.Struct("<hIH").unpack_from


def _class_of_ref(heap, ref: Ref) -> str:
    entry = heap.get(ref)
    return getattr(entry, "class_name", ARRAY_CLASS)


def encode_value(value, node_id: int, heap) -> bytes:
    """Serialize one MJ value into the streamed format."""
    out = bytearray()
    if type(value) is list:  # what every request and reply is
        _encode(value, node_id, heap, out)
    else:
        _encode((value,), node_id, heap, out, bare=True)
    return bytes(out)


def _encode(items: Sequence, node_id: int, heap, out: bytearray,
            bare: bool = False) -> None:
    """Append ``items`` as a list (``bare``: as just its items).  Exact
    types are dispatched on first; ``bool`` and any other subclass of a
    streamable type take the ``isinstance`` tail and travel as their base
    type, so ``True`` is still I32 1."""
    if not bare:
        out += _pack_len(_TAG_LIST, len(items))
    for value in items:
        kind = type(value)
        if kind is int:
            if -0x80000000 <= value < 0x80000000:
                out += _pack_i32(_TAG_I32, value)
            else:
                out += _pack_i64(_TAG_I64, value)
        elif kind is list:
            _encode(value, node_id, heap, out)
        elif kind is str:
            raw = value.encode("utf-8")
            out += _pack_len(_TAG_STR, len(raw))
            out += raw
        elif value is None:
            out += _TAG_NULL
        elif kind is float:
            out += _pack_f64(_TAG_F64, value)
        elif isinstance(value, DependentRef):
            cls = value.class_name.encode("utf-8")
            out += _pack_ref(_TAG_REF, value.node, value.oid, len(cls))
            out += cls
        elif isinstance(value, Ref):
            cls = _class_of_ref(heap, value).encode("utf-8")
            out += _pack_ref(_TAG_REF, node_id, value.oid, len(cls))
            out += cls
        else:
            for base in (int, float, str, list):
                if isinstance(value, base):
                    _encode((base(value),), node_id, heap, out, bare=True)
                    break
            else:
                raise RuntimeServiceError(f"cannot stream value {value!r}")


def decode_value(data: bytes, node_id: int) -> object:
    """Deserialize; inverse of :func:`encode_value` from the view of node
    ``node_id`` (reference swizzling happens here).  Bytes that are not
    exactly one value — cut short, damaged, or followed by more — raise
    :class:`RuntimeServiceError`."""
    end = len(data)
    try:
        if data[:1] == _TAG_LIST:
            value, offset = _decode(data, 1, end, node_id)
        else:
            (value,), offset = _decode(data, 0, end, node_id, 1)
    except (struct.error, IndexError):
        raise RuntimeServiceError(
            f"truncated stream: {end} bytes end inside a value"
        ) from None
    except UnicodeDecodeError as exc:
        raise RuntimeServiceError(f"corrupt stream: {exc}") from None
    if offset != end:
        raise RuntimeServiceError(
            f"trailing bytes in message ({end - offset})"
        )
    return value


def _truncated(what: str, at: int, end: int) -> RuntimeServiceError:
    return RuntimeServiceError(
        f"truncated stream: {what} at offset {at}, {end - at} bytes left"
    )


def _decode(data: bytes, i: int, end: int, node_id: int,
            count: Optional[int] = None) -> Tuple[List[object], int]:
    """The ``count`` values starting at offset ``i`` and the offset behind
    them; without ``count``, the list whose item count is at ``i``.  A
    fixed-width field the stream is too short for raises from ``struct`` or
    the index (:func:`decode_value` names it); a length that points past
    the end is checked here, before anything is sliced or allocated."""
    if count is None:
        (count,) = _unpack_len(data, i)
        i += 4
        if count > end - i:  # an item is at least its tag
            raise _truncated(f"list of {count} items", i, end)
    items: List[object] = [None] * count
    for k in range(count):
        tag = data[i]
        if tag == _I32:
            (items[k],) = _unpack_i32(data, i + 1)
            i += 5
        elif tag == _LIST:
            items[k], i = _decode(data, i + 1, end, node_id)
        elif tag == _STR:
            (length,) = _unpack_len(data, i + 1)
            i += 5 + length
            if i > end:
                raise _truncated(f"{length}-byte string", i - length, end)
            items[k] = str(data[i - length:i], "utf-8")
        elif tag == _REF:
            node, oid, length = _unpack_ref(data, i + 1)
            i += 9 + length
            if i > end:
                raise _truncated(f"{length}-byte class name", i - length, end)
            if node == node_id:
                items[k] = Ref(oid)
            else:
                items[k] = DependentRef(
                    node, oid, str(data[i - length:i], "utf-8")
                )
        elif tag == _NULL:
            i += 1
        elif tag == _I64:
            (items[k],) = _unpack_i64(data, i + 1)
            i += 9
        elif tag == _F64:
            (items[k],) = _unpack_f64(data, i + 1)
            i += 9
        else:
            raise RuntimeServiceError(
                f"bad stream tag {bytes((tag,))!r} at offset {i}"
            )
    return items, i
