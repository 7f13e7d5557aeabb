"""TCP backend: one OS process per plan node, frames over real sockets.

The cluster becomes a set of genuinely independent network peers running
the node core on the polled stream transport of
:mod:`repro.runtime.worker` — the same transport the ``process`` backend
runs over pipes.  All this file adds is how the links come to exist: the
parent pre-binds one listening socket per node (roster-pinned ``host:port``
endpoints, or localhost ephemeral ports), and each forked worker keeps its
own listener and dials the peers below it.

Wire protocol — the same 24-byte crc32 :class:`Message` frames every other
backend accounts for, over a byte *stream*:

* connection topology: node ``j`` dials every peer ``i < j`` (one duplex
  connection per unordered pair).  Because the parent bound and listened
  before forking, a dial always completes at the TCP level even if the
  acceptor has not polled its listener yet — the kernel backlog holds it.
* a 4-byte little-endian hello carrying the dialer's node id opens each
  connection, so the acceptor knows which peer the stream belongs to.  The
  acceptor takes connections lazily, whenever it next looks at its links;
  a post to a peer whose hello has not arrived yet waits for it.
* frames are length-prefixed by their own header (``plen``); readers
  reassemble with :meth:`Message.decode_stream`, which handles torn reads
  and back-to-back frames and raises :class:`FrameError` on garbage.
* every connection runs with ``TCP_NODELAY``: a frame goes out in the
  ``write`` that posts it.

TCP guarantees per-connection FIFO, which is exactly the per-(src, dst)
ordering guarantee the message exchange protocol needs.  Fault injection
(dedup at intake, crash plans) and recovery (heartbeats, checkpoints) ride
the same transport unchanged: they are just frames.
"""

from __future__ import annotations

import os
import socket
from typing import List

from repro.errors import RuntimeServiceError
from repro.runtime.backend import (
    WAIT_TIMEOUT_S,
    BackendRun,
    RunPolicy,
    RuntimeBackend,
    register_backend,
)
from repro.runtime.worker import HELLO, StreamNode, run_workers


def _link_sockets(node: StreamNode, listen_fds: List[int],
                  endpoints: List[tuple]) -> None:
    # fork hands every worker all the listening sockets; keep only ours
    for i, fd in enumerate(listen_fds):
        if i != node.node_id:
            os.close(fd)
    node.listen(socket.socket(fileno=listen_fds[node.node_id]))
    for peer in range(node.node_id):
        try:
            sock = socket.create_connection(endpoints[peer], WAIT_TIMEOUT_S)
            sock.sendall(HELLO.pack(node.node_id))
        except OSError:
            node.peer_gone(peer)
            continue
        node.add_socket(sock, peer)


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
        # from here on the listeners are plain fds, like every other link
        listen_fds = [s.detach() for s in listen_socks]
        return run_workers(
            self.spec, program, policy,
            _link_sockets, (listen_fds, endpoints), listen_fds,
        )
