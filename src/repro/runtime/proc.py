"""Multiprocessing backend: one OS process per plan node.

The parent builds a full mesh of one-way :func:`multiprocessing.Pipe` links
(one per ordered (src, dst) pair, so per-pair FIFO is the kernel's pipe
ordering) and hands it to the shared worker launcher
(:func:`repro.runtime.worker.run_workers`).  Each worker keeps its own row
and column of the mesh, reloads the rewritten program into its own
interpreter (a real separate heap — per-JVM semantics by construction) and
runs the node core; the only thing this file adds is how frames move:
``post`` writes down a pipe, and a node fetches what has arrived with one
:func:`multiprocessing.connection.wait` readiness pass over its read ends.

Messages travel as :meth:`~repro.runtime.message.Message.serialize` frames,
so the bytes a pipe moves equal the bytes the simulated network charges for
the same message.
"""

from __future__ import annotations

from multiprocessing import connection as mp_connection
from typing import Dict, Tuple

from repro.errors import RuntimeServiceError
from repro.runtime.backend import (
    BackendNode,
    BackendRun,
    RunPolicy,
    RuntimeBackend,
    Transport,
    register_backend,
)
from repro.runtime.cluster import ClusterSpec, NodeSpec
from repro.runtime.faults import PeerLost
from repro.runtime.message import Message
from repro.runtime.worker import (
    PARENT_CTRL,
    mp_context,
    run_workers,
    send_frames,
)


class ProcNode(BackendNode):
    """Worker-side node: fetches pipe frames into the inbox itself."""

    def __init__(self, node_id: int, spec: NodeSpec, cluster_size: int,
                 recv_conns: Dict[int, object]) -> None:
        super().__init__(node_id, spec, cluster_size)
        self._sources = {conn: src for src, conn in recv_conns.items()}

    def pump(self, timeout_s: float) -> bool:
        # one select()-style readiness pass over the whole mesh per sweep
        # (not a poll(0) syscall per pipe): an idle node makes exactly one
        # wait() call and stops, instead of spinning N-1 polls per probe
        pending = list(self._sources)
        if timeout_s:
            pending = mp_connection.wait(pending, timeout_s)
            if not pending:
                return False
        while pending:
            ready = mp_connection.wait(pending, 0)
            if not ready:
                break
            for conn in ready:
                try:
                    frame = conn.recv_bytes()
                except (EOFError, OSError):
                    # peer exited; anything it sent was drained before EOF
                    self.peer_gone(self._sources.pop(conn))
                    pending.remove(conn)
                    continue
                self.intake(Message.deserialize(frame))
        return True


class _PipeTransport(Transport):
    """Worker-side message routing: serialize and push down the pipe."""

    def __init__(self, node: ProcNode, send_conns: Dict[int, object]) -> None:
        self._node = node
        self._send = send_conns              # dst -> write Connection

    @property
    def nnodes(self) -> int:
        return len(self._send) + 1

    def post(self, src: int, dst: int, msg: Message) -> None:
        conn = self._send.get(dst)
        if conn is None:
            raise RuntimeServiceError(f"message to unknown node {dst}")
        try:
            conn.send_bytes(msg.serialize())
        except OSError as exc:
            # the peer's read end is gone: it died.  Surface that as a
            # fault-family error so the caller degrades instead of crashing.
            raise PeerLost(
                f"node {dst} unreachable from node {src} (pipe closed)"
            ) from exc
        self._node.msgs_sent += 1
        self._node.bytes_sent += msg.size

    def broadcast(self, frames) -> None:
        send_frames(self._send, frames)


def _connect_pipes(node_id: int, spec: ClusterSpec, ctrl_reader,
                   recv_conns, send_conns) -> Tuple[ProcNode, _PipeTransport]:
    # fork hands every worker the whole pipe mesh; close the ends that
    # belong to other nodes, otherwise a dead peer's pipe never reaches EOF
    # (an open write end somewhere keeps it alive)
    for i in range(spec.size):
        if i != node_id:
            for conn in (*recv_conns[i].values(), *send_conns[i].values()):
                conn.close()
    node = ProcNode(
        node_id, spec.nodes[node_id], spec.size,
        {**recv_conns[node_id], PARENT_CTRL: ctrl_reader},
    )
    return node, _PipeTransport(node, send_conns[node_id])


@register_backend
class ProcessBackend(RuntimeBackend):
    """One worker process per node over multiprocessing pipes."""

    name = "process"

    def execute(self, program, loaded, policy: RunPolicy) -> BackendRun:
        ctx = mp_context()
        n = self.nnodes
        recv_conns: Dict[int, Dict[int, object]] = {i: {} for i in range(n)}
        send_conns: Dict[int, Dict[int, object]] = {i: {} for i in range(n)}
        for src in range(n):
            for dst in range(n):
                if src != dst:
                    r, w = ctx.Pipe(duplex=False)
                    recv_conns[dst][src] = r
                    send_conns[src][dst] = w
        mesh = [
            conn
            for i in range(n)
            for conn in (*recv_conns[i].values(), *send_conns[i].values())
        ]
        return run_workers(
            self.spec, program, policy,
            _connect_pipes, (recv_conns, send_conns), mesh,
        )
