"""The value stream and frame codec ``repro.runtime.serial`` /
``repro.runtime.message`` shipped before both became one-pass, kept
verbatim as the oracle of ``test_codec_oracle.py``: ``_encode`` / ``_decode``
of the tagged value format, and ``serialize`` / ``_validate_header`` /
``_finish`` / ``deserialize`` / ``decode_stream`` of the 24-byte frame
(methods of ``Message`` then, functions taking the message here).  Known
defect, fixed in the shipped decoder and left in here on purpose: a value
stream that was cut short raises a bare ``struct.error`` or, when the cut
falls inside a string, decodes the shortened string and then reports
``trailing bytes in message (-N)``.
"""

from __future__ import annotations

import struct
import zlib
from typing import List, Optional, Tuple

from repro.errors import RuntimeServiceError
from repro.runtime.message import FrameError, Message, MessageKind
from repro.vm.values import DependentRef, Ref

# ------------------------------------------------------------- value stream
_TAG_NULL = b"N"
_TAG_I32 = b"I"
_TAG_I64 = b"J"
_TAG_F64 = b"F"
_TAG_STR = b"S"
_TAG_REF = b"R"
_TAG_LIST = b"L"

ARRAY_CLASS = "<array>"


def _class_of_ref(heap, ref: Ref) -> str:
    entry = heap.get(ref)
    return getattr(entry, "class_name", ARRAY_CLASS)


def encode_value(value, node_id: int, heap) -> bytes:
    """Serialize one MJ value into the streamed format."""
    out = bytearray()
    _encode(value, node_id, heap, out)
    return bytes(out)


def _encode(value, node_id: int, heap, out: bytearray) -> None:
    if value is None:
        out += _TAG_NULL
    elif isinstance(value, bool):
        out += _TAG_I32
        out += struct.pack("<i", int(value))
    elif isinstance(value, int):
        if -0x80000000 <= value < 0x80000000:
            out += _TAG_I32
            out += struct.pack("<i", value)
        else:
            out += _TAG_I64
            out += struct.pack("<q", value)
    elif isinstance(value, float):
        out += _TAG_F64
        out += struct.pack("<d", value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += _TAG_STR
        out += struct.pack("<I", len(raw))
        out += raw
    elif isinstance(value, Ref):
        cls = _class_of_ref(heap, value).encode("utf-8")
        out += _TAG_REF
        out += struct.pack("<hI", node_id, value.oid)
        out += struct.pack("<H", len(cls))
        out += cls
    elif isinstance(value, DependentRef):
        cls = value.class_name.encode("utf-8")
        out += _TAG_REF
        out += struct.pack("<hI", value.node, value.oid)
        out += struct.pack("<H", len(cls))
        out += cls
    elif isinstance(value, list):
        out += _TAG_LIST
        out += struct.pack("<I", len(value))
        for item in value:
            _encode(item, node_id, heap, out)
    else:
        raise RuntimeServiceError(f"cannot stream value {value!r}")


def decode_value(data: bytes, node_id: int) -> object:
    """Deserialize; inverse of :func:`encode_value` from the view of node
    ``node_id`` (reference swizzling happens here)."""
    value, offset = _decode(data, 0, node_id)
    if offset != len(data):
        raise RuntimeServiceError(
            f"trailing bytes in message ({len(data) - offset})"
        )
    return value


def _decode(data: bytes, i: int, node_id: int) -> Tuple[object, int]:
    tag = data[i : i + 1]
    i += 1
    if tag == _TAG_NULL:
        return None, i
    if tag == _TAG_I32:
        return struct.unpack_from("<i", data, i)[0], i + 4
    if tag == _TAG_I64:
        return struct.unpack_from("<q", data, i)[0], i + 8
    if tag == _TAG_F64:
        return struct.unpack_from("<d", data, i)[0], i + 8
    if tag == _TAG_STR:
        (length,) = struct.unpack_from("<I", data, i)
        i += 4
        return data[i : i + length].decode("utf-8"), i + length
    if tag == _TAG_REF:
        node, oid = struct.unpack_from("<hI", data, i)
        i += 6
        (clen,) = struct.unpack_from("<H", data, i)
        i += 2
        cls = data[i : i + clen].decode("utf-8")
        i += clen
        if node == node_id:
            return Ref(oid), i
        return DependentRef(node, oid, cls), i
    if tag == _TAG_LIST:
        (count,) = struct.unpack_from("<I", data, i)
        i += 4
        items: List[object] = []
        for _ in range(count):
            item, i = _decode(data, i, node_id)
            items.append(item)
        return items, i
    raise RuntimeServiceError(f"bad stream tag {tag!r} at offset {i - 1}")


# -------------------------------------------------------------------- frames
HEADER_BYTES = 24
WIRE_MAGIC = b"RW"
WIRE_VERSION = 1
_WIRE = struct.Struct("<2sBBhhqII")
MAX_PAYLOAD_BYTES = 1 << 30


def serialize(self: Message) -> bytes:
    return _WIRE.pack(
        WIRE_MAGIC,
        WIRE_VERSION,
        self.kind.value,
        self.src,
        self.dst,
        self.req_id,
        len(self.payload),
        zlib.crc32(self.payload),
    ) + self.payload


def _validate_header(data, offset: int) -> Tuple[int, int, int, int, int, int]:
    """Unpack and validate the fixed header at ``offset``.  The caller
    guarantees ``HEADER_BYTES`` are available."""
    magic, version, kind, src, dst, req_id, plen, crc = _WIRE.unpack_from(
        data, offset
    )
    if magic != WIRE_MAGIC:
        raise FrameError("bad magic", f"{magic!r} at offset {offset}")
    if version != WIRE_VERSION:
        raise FrameError("unsupported wire version", str(version))
    if plen > MAX_PAYLOAD_BYTES:
        raise FrameError(
            "implausible payload length", f"header claims {plen} bytes"
        )
    return kind, src, dst, req_id, plen, crc


def _finish(data, offset, kind, src, dst, req_id, plen, crc) -> Message:
    payload = bytes(data[offset + HEADER_BYTES:offset + HEADER_BYTES + plen])
    if zlib.crc32(payload) != crc:
        raise FrameError(
            "payload checksum mismatch",
            f"frame {src}->{dst} req={req_id}",
        )
    try:
        mkind = MessageKind(kind)
    except ValueError:
        raise FrameError("unknown message kind", str(kind)) from None
    return Message(mkind, src, dst, req_id, payload)


def deserialize(data: bytes) -> Message:
    if len(data) < HEADER_BYTES:
        raise FrameError(
            "truncated message frame", f"{len(data)} bytes"
        )
    kind, src, dst, req_id, plen, crc = _validate_header(data, 0)
    if len(data) - HEADER_BYTES != plen:
        raise FrameError(
            "message length mismatch",
            f"header {plen}, got {len(data) - HEADER_BYTES}",
        )
    return _finish(data, 0, kind, src, dst, req_id, plen, crc)


def decode_stream(buffer, offset: int = 0) -> Optional[Tuple[Message, int]]:
    avail = len(buffer) - offset
    if avail < HEADER_BYTES:
        return None
    kind, src, dst, req_id, plen, crc = _validate_header(buffer, offset)
    if avail < HEADER_BYTES + plen:
        return None  # torn frame: payload still in flight
    msg = _finish(buffer, offset, kind, src, dst, req_id, plen, crc)
    return msg, HEADER_BYTES + plen
