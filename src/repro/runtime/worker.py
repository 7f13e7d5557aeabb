"""Out-of-process workers: the node the ``process`` and ``tcp`` backends
both run, and the launcher that forks, collects and reaps it.

The lifecycle is the same for both: fork one OS process per cluster node,
link it to its peers (the only backend-specific step), reload the rewritten
program into a private interpreter, run the node through the node core
(:func:`~repro.runtime.backend.run_node`) and pickle its
:class:`~repro.runtime.backend.NodeReport` home over a result queue.  The
parent collects the reports — turning a worker that vanished without
reporting into structured fault evidence, and telling the survivors over a
per-worker control pipe — reaps every process, and assembles the run.

The transport is the same too — :class:`StreamNode`, one polled byte-stream
transport over two kinds of fd.  Every inbound link (a pipe read end, a
connected TCP socket, the listening socket, the parent's control pipe) is a
non-blocking fd registered *once* in a persistent :func:`select.poll` set;
:meth:`StreamNode.pump` is one readiness wait on the node's own thread, then
``read`` → the link's reassembly buffer → :meth:`Message.decode_stream` →
:meth:`~repro.runtime.backend.BackendNode.intake`; ``post`` writes the
serialized frame straight to the destination fd.  No helper thread, no
event loop, no queue between the node and the kernel.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as _queue
import select
import socket
import struct
import time
from typing import Callable, Dict, Iterable, Optional

from repro.errors import RuntimeServiceError
# what provision_node builds a node from, imported before the fork: a
# worker inherits it compiled instead of compiling it from source
from repro.runtime import services  # noqa: F401
from repro.runtime.backend import (
    WAIT_TIMEOUT_S,
    BackendNode,
    BackendRun,
    NodeReport,
    NodeStats,
    RunPolicy,
    Transport,
    assemble_run,
    error_info,
    provision_node,
    run_node,
    shutdown_frames,
)
from repro.runtime.cluster import ClusterSpec, NodeSpec
from repro.runtime.faults import FaultRecord, PeerLost
from repro.runtime.message import FAULT_NOTICE, FrameError, Message
from repro.runtime.serial import decode_value, encode_value
from repro.vm.loader import load_program

#: the hello that opens a dialed connection: the dialer's node id
HELLO = struct.Struct("<i")

#: ``_Link.peer`` of the streams that are no peer's link to lose: the
#: parent's control pipe, which carries frames like any other, and an
#: accepted connection whose hello is still in flight
_PARENT, _UNGREETED = -1, -2

_READ_CHUNK = 1 << 16

#: ``link(node, *args)``: runs inside the freshly forked worker, closes the
#: inherited fds that belong to other nodes and links ``node`` to its peers
Link = Callable[..., None]


# --------------------------------------------------------------- worker side
class _Link:
    """One inbound byte stream and its reassembly buffer.  ``peer`` is the
    node at the other end; ``sock`` owns the fd when the stream is a socket
    (and is then the way out to ``peer`` as well)."""

    __slots__ = ("fd", "peer", "sock", "buf")

    def __init__(self, fd: int, peer: int,
                 sock: Optional[socket.socket]) -> None:
        self.fd = fd
        self.peer = peer
        self.sock = sock
        self.buf = bytearray()

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
        else:
            os.close(self.fd)


class StreamNode(BackendNode, Transport):
    """A worker's node and its transport in one: the node reads its own
    links, so nothing else ever touches its inbox — it runs the node core's
    lock-free inbox as it is, and every frame still enters through
    :meth:`~repro.runtime.backend.BackendNode.intake`.

    A backend builds the links and hands them over — :meth:`add_reader` /
    :meth:`add_writer` for the two ends of one-way pipes, :meth:`add_socket`
    for a connected duplex socket, :meth:`listen` for connections still to
    come: a dialer opens with the 4-byte :data:`HELLO`, and the accepting
    node learns which peer the stream belongs to when :meth:`pump` reads it.
    """

    def __init__(self, node_id: int, spec: NodeSpec, cluster_size: int,
                 ctrl_fd: int) -> None:
        super().__init__(node_id, spec, cluster_size)
        self._poll = select.poll()
        self._links: Dict[int, _Link] = {}      # inbound fd -> link
        self._out: Dict[int, int] = {}          # peer -> fd posts go down
        self._listener: Optional[socket.socket] = None
        self.add_reader(ctrl_fd, _PARENT)

    # ----------------------------------------------------------------- links
    def add_reader(self, fd: int, peer: int,
                   sock: Optional[socket.socket] = None) -> None:
        os.set_blocking(fd, False)
        self._links[fd] = _Link(fd, peer, sock)
        self._poll.register(fd, select.POLLIN)

    def add_writer(self, fd: int, peer: int) -> None:
        os.set_blocking(fd, False)
        self._out[peer] = fd

    def add_socket(self, sock: socket.socket, peer: int) -> None:
        # a request is one small frame and the reply cannot start before it
        # lands, so Nagle's algorithm could only add delay
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.add_reader(sock.fileno(), peer, sock)
        if peer >= 0:
            self._out[peer] = sock.fileno()

    def listen(self, sock: socket.socket) -> None:
        sock.setblocking(False)
        self._listener = sock
        self._poll.register(sock.fileno(), select.POLLIN)

    def close(self) -> None:
        """Everything posted is already in the kernel; sockets are shut
        down for writing first, so the farewell frames are followed by an
        orderly FIN and a clean run never reads as a lost peer."""
        if self._listener is not None:
            self._listener.close()
        for link in self._links.values():
            if link.sock is not None:
                try:
                    link.sock.shutdown(socket.SHUT_WR)
                except OSError:
                    pass
            link.close()
        for fd in self._out.values():
            if fd not in self._links:
                os.close(fd)
        self._links.clear()
        self._out.clear()

    def _drop(self, link: _Link) -> None:
        """The stream ended (EOF, reset) or can never frame again (garbage,
        checksum): forget the link and, if a peer was behind it, say so."""
        self._poll.unregister(link.fd)
        del self._links[link.fd]
        link.close()
        if link.peer >= 0:
            if self._out.get(link.peer) == link.fd:
                del self._out[link.peer]
            self.peer_gone(link.peer)

    # --------------------------------------------------------------- inbound
    def pump(self, timeout_s: float) -> bool:
        events = self._poll.poll(timeout_s * 1e3)
        for fd, _ in events:
            self._ready(fd)
        return bool(events)

    def _ready(self, fd: int) -> None:
        link = self._links.get(fd)
        if link is not None:
            self._read(link)
        elif self._listener is not None and fd == self._listener.fileno():
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # the dialer already went away again
            self.add_socket(sock, _UNGREETED)
        # else: a link dropped earlier in this batch of events

    def _read(self, link: _Link) -> None:
        try:
            data = os.read(link.fd, _READ_CHUNK)
        except BlockingIOError:
            return
        except OSError:
            data = b""  # reset: whatever the peer sent before is lost with it
        if not data:
            self._drop(link)
            return
        buf = link.buf
        buf += data
        if link.peer == _UNGREETED and not self._greet(link):
            return
        offset, end = 0, len(buf)
        try:
            while offset < end:
                decoded = Message.decode_stream(buf, offset)
                if decoded is None:
                    break  # torn frame: the rest is still in flight
                self.intake(decoded[0])
                offset += decoded[1]
        except FrameError:
            self._drop(link)
            return
        del buf[:offset]

    def _greet(self, link: _Link) -> bool:
        """Take the hello off the front of an accepted stream.  Only the
        peers above us dial us, each once; anything else is not a peer."""
        buf = link.buf
        if len(buf) < HELLO.size:
            return False  # torn hello
        (peer,) = HELLO.unpack_from(buf)
        if (
            not self.node_id < peer < self.nnodes
            or peer in self._out
            or peer in self.gone_peers
        ):
            self._drop(link)
            return False
        del buf[:HELLO.size]
        link.peer = peer
        self._out[peer] = link.fd
        return True

    # -------------------------------------------------------------- outbound
    @property
    def nnodes(self) -> int:
        return len(self.peers) + 1

    def post(self, src: int, dst: int, msg: Message) -> None:
        data = msg.serialize()
        self._send(dst, data)
        self.msgs_sent += 1
        self.bytes_sent += len(data)

    def broadcast(self, frames: Iterable[Message]) -> None:
        for frame in frames:
            try:
                self._send(frame.dst, frame.serialize())
            except RuntimeServiceError:
                pass

    def _send(self, dst: int, data: bytes) -> None:
        if dst in self.gone_peers:
            raise self._lost(dst, "link closed")
        fd = self._out.get(dst)
        if fd is None:
            fd = self._await_hello(dst)
        try:
            sent = os.write(fd, data)
        except BlockingIOError:
            sent = 0
        except OSError as exc:
            # nobody holds the other end any more: the peer died
            raise self._lost(dst, "link closed") from exc
        if sent != len(data):
            self._write_rest(dst, fd, memoryview(data)[sent:])

    def _lost(self, dst: int, why: str) -> PeerLost:
        return PeerLost(
            f"node {dst} unreachable from node {self.node_id} ({why})"
        )

    def _await_hello(self, dst: int) -> int:
        """A peer above us dials us, and its hello may not have arrived
        yet: pump until it has."""
        if self._listener is None or not self.node_id < dst < self.nnodes:
            raise RuntimeServiceError(f"message to unknown node {dst}")
        while dst not in self._out:
            if dst in self.gone_peers or not self.pump(WAIT_TIMEOUT_S):
                raise self._lost(dst, "never connected")
        return self._out[dst]

    def _write_rest(self, dst: int, fd: int, rest: memoryview) -> None:
        """The kernel did not take the frame whole.  Wait for room *while
        reading our own links*: two nodes that post more than a buffer's
        worth to each other and then sit in a blocking write, nobody
        reading, would wait for each other forever."""
        duplex = fd in self._links
        self._poll.register(
            fd, select.POLLOUT | (select.POLLIN if duplex else 0)
        )
        try:
            while rest:
                if dst in self.gone_peers:
                    raise self._lost(dst, "link closed")
                events = self._poll.poll(WAIT_TIMEOUT_S * 1e3)
                if not events:
                    raise RuntimeServiceError(
                        f"node {self.node_id} blocked {WAIT_TIMEOUT_S:.0f}s "
                        f"writing to node {dst} (distributed deadlock?)"
                    )
                for efd, event in events:
                    if efd != fd or event & select.POLLIN:
                        self._ready(efd)
                    if efd == fd and event & ~select.POLLIN:
                        try:
                            rest = rest[os.write(fd, rest):]
                        except BlockingIOError:
                            pass
                        except OSError as exc:
                            raise self._lost(dst, "link closed") from exc
        finally:
            if fd in self._links:
                self._poll.register(fd, select.POLLIN)
            elif not duplex:
                self._poll.unregister(fd)


def worker_report(node: StreamNode, program, policy: RunPolicy) -> NodeReport:
    """Run one cluster node start to finish inside its worker process.  The
    result crosses the process boundary in the streamed value format."""
    try:
        provision_node(node, node, load_program(program), policy)
        report = run_node(node, node, policy.max_events)
        if report.result is not None:
            try:
                report.result = encode_value(
                    report.result, node.node_id, node.machine.heap
                )
            except RuntimeServiceError:
                report.result = None
        return report
    except BaseException as exc:  # provisioning/load failure
        node.broadcast(shutdown_frames(node.node_id, node.peers))
        return NodeReport(
            node.node_id, NodeStats(node.spec.name), error=error_info(exc)
        )


def _worker_main(node_id: int, spec: ClusterSpec, program, policy: RunPolicy,
                 ctrl, results, link: Link, link_args) -> None:
    """One cluster node, start to finish, inside its own process."""
    # fork hands every worker all the control pipes; keep our read end only
    for i, (reader, writer) in enumerate(ctrl):
        os.close(writer)
        if i != node_id:
            os.close(reader)
    node = StreamNode(node_id, spec.nodes[node_id], spec.size, ctrl[node_id][0])
    try:
        link(node, *link_args)
        results.put(worker_report(node, program, policy))
    finally:
        node.close()


# --------------------------------------------------------------- parent side
def run_workers(spec: ClusterSpec, program, policy: RunPolicy,
                link: Link, link_args: tuple,
                parent_fds: Iterable[int]) -> BackendRun:
    """Fork one worker per node, collect and reap them, assemble the run.
    ``parent_fds`` are what the workers own once forked (pipe ends,
    listening sockets): the parent closes its copies."""
    # forked: start is cheap, the program is not pickled, and the links are
    # plain fds the child inherits
    ctx = multiprocessing.get_context("fork")
    # one parent->worker control pipe each: when a worker vanishes without
    # reporting, the parent writes fault-notice frames here so survivors
    # fail fast instead of riding out the full wait timeout
    ctrl = [os.pipe() for _ in spec.nodes]
    ctrl_writers = {i: writer for i, (_, writer) in enumerate(ctrl)}
    results = ctx.Queue()
    procs = [
        ctx.Process(
            target=_worker_main,
            args=(i, spec, program, policy, ctrl, results, link, link_args),
            name=f"repro-node-{i}",
            daemon=True,
        )
        for i in range(spec.size)
    ]
    try:
        try:
            for p in procs:
                p.start()
        finally:
            for fd in (*parent_fds, *(reader for reader, _ in ctrl)):
                os.close(fd)
        reports = collect_reports(procs, results, spec, ctrl_writers)
    finally:
        reap_workers(procs, ctrl_writers)
    main = reports[policy.main_partition]
    if main.result is not None:
        main.result = decode_value(main.result, policy.main_partition)
    return assemble_run(reports, policy)


def lost_report(node_id: int, name: str, exitcode) -> NodeReport:
    """Synthetic report for a worker that vanished before reporting
    (killed, OOM, segfault): empty stats plus a structured fault."""
    rec = FaultRecord(
        node=node_id,
        kind="worker_lost",
        detail=(
            f"worker process for node {node_id} exited with code "
            f"{exitcode} before reporting"
        ),
    )
    return NodeReport(node_id, NodeStats(name, faults=[rec.to_dict()]))


def collect_reports(procs, results, spec: ClusterSpec,
                    ctrl_writers: Dict[int, int]) -> Dict[int, NodeReport]:
    """Progress-aware collection: wait as long as workers are alive
    (blocking points inside them time out on their own); a worker that
    vanished without reporting becomes a structured fault, not a hang and
    not an exception."""
    reports: Dict[int, NodeReport] = {}
    pending = set(range(len(procs)))
    while pending:
        try:
            rep = results.get(timeout=0.25)
        except _queue.Empty:
            dead = [i for i in pending if procs[i].exitcode is not None]
            if not dead:
                continue
            # grace period: the report may still be in the queue
            try:
                rep = results.get(timeout=0.5)
            except _queue.Empty:
                for i in dead:
                    pending.discard(i)
                    reports[i] = lost_report(
                        i, spec.nodes[i].name, procs[i].exitcode
                    )
                    for frame in shutdown_frames(i, pending, FAULT_NOTICE):
                        try:
                            os.write(ctrl_writers[frame.dst], frame.serialize())
                        except OSError:
                            pass  # that survivor is gone too
                continue
        reports[rep.node_id] = rep
        pending.discard(rep.node_id)
    return reports


def reap_workers(procs, ctrl_writers: Dict[int, int]) -> None:
    """Teardown: bounded joins, then terminate stragglers, then close the
    parent's control write ends."""
    deadline = time.monotonic() + 10.0
    for p in procs:
        p.join(max(0.0, deadline - time.monotonic()))
    for p in procs:
        if p.is_alive():
            p.terminate()
            p.join(5.0)
    for fd in ctrl_writers.values():
        os.close(fd)
