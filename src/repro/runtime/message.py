"""Message structure (paper §5).

"We currently identify two types of messages: NEW and DEPENDENCE for object
instantiation and data dependence."  REPLY carries responses back (the
paper's receive half of each send/receive pair) and SHUTDOWN ends the
per-node service loops after ``main`` returns.  REPLICA_NEW / REPLICA_DEP
carry quorum-replication traffic: a replica creation (aliased to the
primary copy's identity) and an access addressed to a replica by that
alias.

A SHUTDOWN frame whose ``req_id`` is :data:`FAULT_NOTICE` is an emergency
notice that ``src`` died: receivers mark the peer dead and — unless the
dead node was the main partition — keep serving, so replicated runs
survive minority replica loss.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple
from zlib import crc32

from repro.errors import RuntimeServiceError


class FrameError(RuntimeServiceError):
    """A wire frame failed validation (bad magic/version, length mismatch,
    checksum).  Carries the machine-readable ``reason`` so stream readers
    can distinguish a torn stream from a corrupted one."""

    def __init__(self, reason: str, detail: str) -> None:
        super().__init__(f"{reason}: {detail}")
        self.reason = reason
        self.detail = detail

#: fixed per-message header bytes charged to the network (kind, src, dst,
#: req id, length) — exactly the size of the wire header below, so simnet
#: byte accounting and real transports agree
HEADER_BYTES = 24

#: wire header: magic, version, kind, src, dst, req_id, payload len, crc32
WIRE_MAGIC = b"RW"
WIRE_VERSION = 1
_WIRE = struct.Struct("<2sBBhhqII")
assert _WIRE.size == HEADER_BYTES
_pack_header = _WIRE.pack
_unpack_header = _WIRE.unpack_from

#: plausibility ceiling on the header's payload-length field.  A corrupted
#: header claiming gigabytes would otherwise park a stream reassembler
#: forever "waiting for the rest"; past this bound the frame is garbage.
MAX_PAYLOAD_BYTES = 1 << 30


class MessageKind(Enum):
    NEW = 1
    DEPENDENCE = 2
    REPLY = 3
    SHUTDOWN = 4
    REPLICA_NEW = 5
    REPLICA_DEP = 6
    # recovery tier (see repro.runtime.checkpoint)
    HEARTBEAT = 7        # cycle-charged liveness frame (no reply)
    CHECKPOINT = 8       # epoch snapshot blob shipped to a checkpoint home
    CHECKPOINT_ACK = 9   # [epoch, highwater] back to a client: trim replay log
    REPLAY = 10          # re-issued post-checkpoint frame (epoch-keyed)
    RECOVER_NEW = 11     # create re-homed to a dead node's recovery home


#: wire value -> kind: a frame is decoded with one lookup, not ``Enum()``
_KIND_OF = {kind.value: kind for kind in MessageKind}

#: req_id of an emergency SHUTDOWN frame announcing that ``src`` died (the
#: wire req_id field is a signed int64, so -1 travels unchanged)
FAULT_NOTICE = -1


@dataclass(slots=True)
class Message:
    """One wire message.  ``payload`` is already in the streamed format;
    ``req_id`` ties a REPLY to its request."""

    kind: MessageKind
    src: int
    dst: int
    req_id: int
    payload: bytes = b""

    @property
    def size(self) -> int:
        return HEADER_BYTES + len(self.payload)

    # ------------------------------------------------------------------ wire
    def serialize(self) -> bytes:
        """Stable wire format: a 24-byte header (magic, version, kind,
        endpoints, request id, payload length, payload crc32) followed by
        the payload.  ``len(serialize()) == size``, so the byte volume a
        real transport moves equals what the simulated network charges."""
        payload = self.payload
        return _pack_header(
            WIRE_MAGIC,
            WIRE_VERSION,
            self.kind._value_,
            self.src,
            self.dst,
            self.req_id,
            len(payload),
            crc32(payload),
        ) + payload

    @classmethod
    def deserialize(cls, data: bytes) -> "Message":
        """Inverse of :meth:`serialize` for a complete, exact frame (one
        datagram): validates framing, length and checksum."""
        return _decode_frame(data, 0, True)[0]

    @classmethod
    def decode_stream(
        cls, buffer, offset: int = 0
    ) -> Optional[Tuple["Message", int]]:
        """Extract the first complete frame from a byte *stream*.

        Frames are self-delimiting: the header's ``plen`` field says where
        this frame ends and the next begins, so back-to-back frames in one
        buffer reassemble correctly.  Returns ``(message, bytes_consumed)``,
        or ``None`` when the buffer holds only a frame prefix (torn read —
        wait for more bytes).  Raises :class:`FrameError` when the bytes at
        ``offset`` can never become a valid frame (garbage prefix, foreign
        version, implausible length, checksum mismatch).
        """
        return _decode_frame(buffer, offset, False)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<{self.kind.name} {self.src}->{self.dst} req={self.req_id} "
            f"{len(self.payload)}B>"
        )


def _decode_frame(
    buffer, offset: int, exact: bool
) -> Optional[Tuple[Message, int]]:
    """The frame at ``offset``, decoded and validated in one pass — one
    header unpack, one payload copy, one checksum — with the checks in one
    order for both readers: magic, version, plausible length, completeness,
    checksum, kind.  ``exact`` is the datagram reader: the buffer must be
    the frame, so a frame prefix and a frame with bytes behind it are
    errors; the stream reader answers ``None`` to the first (torn read) and
    leaves the second to its next call."""
    avail = len(buffer) - offset
    if avail < HEADER_BYTES:
        if exact:
            raise FrameError("truncated message frame", f"{avail} bytes")
        return None
    magic, version, kind, src, dst, req_id, plen, crc = _unpack_header(
        buffer, offset
    )
    if magic != WIRE_MAGIC:
        raise FrameError("bad magic", f"{magic!r} at offset {offset}")
    if version != WIRE_VERSION:
        raise FrameError("unsupported wire version", str(version))
    if plen > MAX_PAYLOAD_BYTES:
        raise FrameError(
            "implausible payload length", f"header claims {plen} bytes"
        )
    size = HEADER_BYTES + plen
    if exact and avail != size:
        raise FrameError(
            "message length mismatch",
            f"header {plen}, got {avail - HEADER_BYTES}",
        )
    if avail < size:
        return None  # torn frame: payload still in flight
    payload = bytes(buffer[offset + HEADER_BYTES:offset + size])
    if crc32(payload) != crc:
        raise FrameError(
            "payload checksum mismatch", f"frame {src}->{dst} req={req_id}"
        )
    try:
        mkind = _KIND_OF[kind]
    except KeyError:
        raise FrameError("unknown message kind", str(kind)) from None
    return Message(mkind, src, dst, req_id, payload), size
