"""Real-socket TCP backend: one OS process per node, frames over TCP.

The cluster becomes a set of genuinely independent network peers: the
parent pre-binds one listening socket per node (roster-pinned ``host:port``
endpoints, or localhost ephemeral ports) and hands them to the shared
worker launcher (:func:`repro.runtime.worker.run_workers`); each worker
runs an asyncio socket hub on a daemon thread — this file's whole
contribution — while its main thread runs the node core.

Wire protocol — the same 24-byte crc32 :class:`Message` frames every other
backend accounts for, over a byte *stream*:

* connection topology: node ``j`` dials every peer ``i < j`` (one duplex
  connection per unordered pair).  Because the parent bound and listened
  before forking, a dial always completes at the TCP level even if the
  acceptor's server is not up yet — the kernel backlog holds it.
* a 4-byte little-endian hello carrying the dialer's node id opens each
  connection, so the acceptor knows which peer the stream belongs to.
* frames are length-prefixed by their own header (``plen``); readers
  reassemble with :meth:`Message.decode_stream`, which handles torn reads
  and back-to-back frames and raises :class:`FrameError` on garbage.
* sends are batched per peer: the transport appends serialized frames to a
  per-destination outbox and wakes one flusher, which hands the whole
  batch to ``writer.writelines`` — zero copies, one syscall — so replies
  and acks queued during a scheduling quantum coalesce onto the wire.

TCP guarantees per-connection FIFO, which is exactly the per-(src, dst)
ordering guarantee the message exchange protocol needs.  Fault injection
(dedup at intake, crash plans) and recovery (heartbeats, checkpoints) ride
the same transport unchanged: they are just frames.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import threading
from typing import Dict, List, Optional, Tuple

from repro.errors import RuntimeServiceError
from repro.runtime.backend import (
    BackendNode,
    BackendRun,
    RunPolicy,
    RuntimeBackend,
    Transport,
    register_backend,
)
from repro.runtime.cluster import ClusterSpec
from repro.runtime.faults import PeerLost
from repro.runtime.message import FrameError, Message
from repro.runtime.worker import run_workers

#: the connection-opening hello: the dialer's node id
_HELLO = struct.Struct("<i")

#: read chunk size for the stream reassembler
_READ_CHUNK = 1 << 16


class _SocketHub(Transport):
    """A worker's network engine: an asyncio loop on a daemon thread that
    owns every peer connection — accepting, dialing, stream reassembly,
    and batched writes.  It feeds the node's inbox from that thread
    (:meth:`BackendNode.intake`); the node's main thread talks to it only
    through the thread-safe :class:`Transport` entry points."""

    def __init__(self, node: BackendNode, listen_sock: socket.socket,
                 endpoints: List[tuple]) -> None:
        self.node = node
        self.node_id = node.node_id
        self._listen_sock = listen_sock
        self._endpoints = endpoints
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name=f"repro-tcp-hub-{self.node_id}",
            daemon=True,
        )
        # peer id -> StreamWriter, filled by dials (peers below us) and
        # accepts (peers above us); a waiter exists per peer so sends
        # queued before the connection is up flush as soon as it is
        self._writers: Dict[int, asyncio.StreamWriter] = {}
        self._connected: Dict[int, asyncio.Event] = {}
        self._outbox: Dict[int, List[bytes]] = {}
        self._flushing: Dict[int, bool] = {}
        self._server: Optional[asyncio.base_events.Server] = None

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        n = len(self._endpoints)
        for peer in range(n):
            if peer == self.node_id:
                continue
            self._connected[peer] = asyncio.Event()
            self._outbox[peer] = []
            self._flushing[peer] = False
        self._thread.start()
        fut = asyncio.run_coroutine_threadsafe(self._startup(), self._loop)
        fut.result(timeout=30.0)

    async def _startup(self) -> None:
        self._server = await asyncio.start_server(
            self._accepted, sock=self._listen_sock
        )
        for peer in range(self.node_id):
            asyncio.ensure_future(self._dial(peer))

    def close(self) -> None:
        def _deliverable_pending() -> bool:
            # frames queued for a connected, live peer are still on their
            # way to the wire; frames for a never-connected or gone peer
            # can never be delivered and must not hold shutdown up
            return any(
                (self._outbox[dst] or self._flushing[dst])
                and self._connected[dst].is_set()
                and dst not in self.node.gone_peers
                for dst in self._outbox
            )

        async def _shutdown() -> None:
            # the final SHUTDOWN/fault-notice broadcast was enqueued via
            # call_soon_threadsafe just before close(); give its flushers
            # loop time to hand every frame to the kernel, otherwise peers
            # see a bare EOF and degrade a clean run to PeerLost
            deadline = self._loop.time() + 5.0
            while _deliverable_pending() and self._loop.time() < deadline:
                await asyncio.sleep(0.005)
            if self._server is not None:
                self._server.close()
            for w in self._writers.values():
                try:
                    w.close()
                except Exception:
                    pass
            self._loop.stop()

        try:
            asyncio.run_coroutine_threadsafe(_shutdown(), self._loop)
            self._thread.join(timeout=10.0)
            if not self._thread.is_alive():
                self._loop.close()
        except RuntimeError:  # pragma: no cover - loop already gone
            pass

    # ----------------------------------------------------------- connections
    async def _dial(self, peer: int) -> None:
        host, port = self._endpoints[peer]
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except OSError:
            self.node.peer_gone(peer)
            return
        writer.write(_HELLO.pack(self.node_id))
        await writer.drain()
        self._attach(peer, reader, writer)

    async def _accepted(self, reader: asyncio.StreamReader,
                        writer: asyncio.StreamWriter) -> None:
        try:
            hello = await reader.readexactly(_HELLO.size)
        except (asyncio.IncompleteReadError, OSError):
            writer.close()
            return
        (peer,) = _HELLO.unpack(hello)
        if not 0 <= peer < len(self._endpoints) or peer == self.node_id:
            writer.close()
            return
        self._attach(peer, reader, writer)

    def _attach(self, peer: int, reader: asyncio.StreamReader,
                writer: asyncio.StreamWriter) -> None:
        self._writers[peer] = writer
        self._connected[peer].set()
        asyncio.ensure_future(self._read_loop(peer, reader))

    async def _read_loop(self, peer: int,
                         reader: asyncio.StreamReader) -> None:
        """Reassemble frames from the byte stream and deliver them.  A torn
        frame just waits for more bytes; a stream that can never frame
        again (garbage prefix, checksum mismatch) drops the connection."""
        buf = bytearray()
        node = self.node
        while True:
            try:
                chunk = await reader.read(_READ_CHUNK)
            except (OSError, asyncio.CancelledError):
                break
            if not chunk:
                break  # peer closed: everything it sent is already framed
            buf.extend(chunk)
            offset = 0
            try:
                while True:
                    decoded = Message.decode_stream(buf, offset)
                    if decoded is None:
                        break
                    msg, consumed = decoded
                    offset += consumed
                    node.intake(msg)
            except FrameError:
                break  # unrecoverable stream: treat the peer as gone
            if offset:
                del buf[:offset]
        self._writers.pop(peer, None)
        node.peer_gone(peer)

    # ----------------------------------------------------------------- sends
    @property
    def nnodes(self) -> int:
        return len(self._endpoints)

    def post(self, src: int, dst: int, msg: Message) -> None:
        """Thread-safe: queue one serialized frame for ``dst`` and make
        sure a flusher is scheduled.  Raises :class:`PeerLost` when the
        connection is already known gone."""
        if dst not in self._outbox:
            raise RuntimeServiceError(f"message to unknown node {dst}")
        if dst in self.node.gone_peers:
            raise PeerLost(
                f"node {dst} unreachable from node {self.node_id} "
                f"(connection closed)"
            )
        self._loop.call_soon_threadsafe(self._enqueue, dst, msg.serialize())
        self.node.msgs_sent += 1
        self.node.bytes_sent += msg.size

    def broadcast(self, frames) -> None:
        for frame in frames:
            if frame.dst in self.node.gone_peers:
                continue
            try:
                self._loop.call_soon_threadsafe(
                    self._enqueue, frame.dst, frame.serialize()
                )
            except RuntimeError:  # pragma: no cover - loop already gone
                pass

    def _enqueue(self, dst: int, frame: bytes) -> None:
        self._outbox[dst].append(frame)
        if not self._flushing[dst]:
            self._flushing[dst] = True
            asyncio.ensure_future(self._flush(dst))

    async def _flush(self, dst: int) -> None:
        """Single flusher per destination (FIFO): hand every queued frame
        to ``writelines`` in one batch, drain, repeat while more arrived
        during the drain — sends coalesce instead of one syscall each."""
        try:
            await self._connected[dst].wait()
            while self._outbox[dst]:
                writer = self._writers.get(dst)
                if writer is None:
                    self.node.peer_gone(dst)
                    self._outbox[dst].clear()
                    return
                batch, self._outbox[dst] = self._outbox[dst], []
                try:
                    writer.writelines(batch)
                    await writer.drain()
                except (OSError, ConnectionError):
                    self._writers.pop(dst, None)
                    self.node.peer_gone(dst)
                    self._outbox[dst].clear()
                    return
        finally:
            self._flushing[dst] = False
            # lost wakeup guard: frames enqueued between the loop check and
            # the flag reset get a fresh flusher
            if self._outbox[dst] and not self._flushing[dst]:
                self._flushing[dst] = True
                asyncio.ensure_future(self._flush(dst))


def _ctrl_loop(node: BackendNode, ctrl_conn) -> None:
    """Forward the parent's control-pipe frames (fault notices about lost
    workers) into the node inbox."""
    while True:
        try:
            frame = ctrl_conn.recv_bytes()
        except (EOFError, OSError):
            return
        try:
            node.intake(Message.deserialize(frame))
        except FrameError:  # pragma: no cover - parent sends valid frames
            continue


def _connect_sockets(node_id: int, spec: ClusterSpec, ctrl_reader,
                     listen_socks: List[socket.socket],
                     endpoints: List[tuple]) -> Tuple[BackendNode, _SocketHub]:
    # fork hands every worker all the listening sockets; keep only ours
    for i, s in enumerate(listen_socks):
        if i != node_id:
            s.close()
    node = BackendNode(node_id, spec.nodes[node_id], spec.size)
    hub = _SocketHub(node, listen_socks[node_id], endpoints)
    hub.start()
    threading.Thread(
        target=_ctrl_loop, args=(node, ctrl_reader),
        name=f"repro-tcp-ctrl-{node_id}", daemon=True,
    ).start()
    return node, hub


@register_backend
class TcpBackend(RuntimeBackend):
    """One worker process per node over real TCP sockets — the cluster as
    network peers.  With a roster of ``host:port`` endpoints the same
    protocol spans machines; without one it runs on localhost ephemeral
    ports."""

    name = "tcp"

    def _bind_all(self) -> List[socket.socket]:
        """Pre-bind every node's listening socket in the parent, before the
        fork: dials never race the acceptor (the kernel backlog holds
        them), and a taken port fails the run up front with a structured
        error instead of a worker crash."""
        endpoints = self.spec.endpoints()
        socks: List[socket.socket] = []
        for i, (host, port) in enumerate(endpoints):
            s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            try:
                s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                s.bind((host, port))
                s.listen(max(self.nnodes, 8))
            except OSError as exc:
                s.close()
                for prior in socks:
                    prior.close()
                raise RuntimeServiceError(
                    f"tcp backend: cannot bind node {i} to "
                    f"{host}:{port}: {exc}"
                ) from exc
            socks.append(s)
        return socks

    def execute(self, program, loaded, policy: RunPolicy) -> BackendRun:
        listen_socks = self._bind_all()
        # resolved endpoints (port 0 became a real port at bind time)
        endpoints = [s.getsockname()[:2] for s in listen_socks]
        return run_workers(
            self.spec, program, policy,
            _connect_sockets, (listen_socks, endpoints), listen_socks,
        )
