"""In-process thread backend: real concurrency, shared interpreter.

One OS thread per plan node drives that node's process generator through
the node core.  The transport is the sender's own thread appending to the
receiver's inbox (:meth:`ThreadNode.intake`), so per-(src, dst) ordering
is the sender's program order — the same guarantee the simulated network
provides — and a blocked node sleeps on its inbox's condition variable
until the next delivery.

This is the only backend on which a thread other than the node's own
touches its inbox, so the synchronisation lives here and not in the node
core: :class:`ThreadNode` holds one lock around every inbox method it
inherits and one condition on that lock for the waiter.  Every other
backend runs the core's inbox bare.

Clocks are wall clocks: a node's ``clock_s`` is the wall time its thread
spent driving it, the makespan is the longest of those, and ``busy_s``
converts charged cycles at the node's nominal speed (so utilization stays
comparable across backends).
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional

from repro.errors import RuntimeServiceError
from repro.runtime.backend import (
    BackendNode,
    BackendRun,
    NodeReport,
    RunPolicy,
    RuntimeBackend,
    Transport,
    assemble_run,
    provision,
    register_backend,
    run_node,
)
from repro.runtime.cluster import ClusterSpec, NodeSpec
from repro.runtime.message import Message


class ThreadNode(BackendNode):
    """The node core with senders on other threads: the inbox methods run
    under one lock, and deliveries wake the node through a condition on it.

    ``_version`` counts deliveries and lost links; a scan that found
    nothing records the version it saw, so :meth:`pump` only blocks while
    nothing new happened since that scan — a frame that lands between the
    scan and the wait is never slept through."""

    def __init__(self, node_id: int, spec: NodeSpec, cluster_size: int) -> None:
        super().__init__(node_id, spec, cluster_size)
        self._delivered = threading.Condition(threading.Lock())
        self._version = 0
        self._seen = 0

    def intake(self, msg: Message, arrival: float = 0.0) -> None:
        with self._delivered:
            super().intake(msg, arrival)
            self._version += 1
            self._delivered.notify_all()

    def peer_gone(self, peer: int) -> None:
        with self._delivered:
            super().peer_gone(peer)
            self._version += 1
            self._delivered.notify_all()

    def pump(self, timeout_s: float) -> bool:
        """Senders push, so there is never anything to move: only wait."""
        if not timeout_s:
            return False
        with self._delivered:
            return self._delivered.wait_for(
                lambda: self._version != self._seen, timeout_s
            )

    def take_matching(
        self, match: Optional[Callable[[Message], bool]] = None
    ) -> Optional[Message]:
        with self._delivered:
            msg = super().take_matching(match)
            if msg is None:
                self._seen = self._version
            return msg


@register_backend
class ThreadBackend(RuntimeBackend, Transport):
    """One thread per node over a shared interpreter."""

    name = "thread"

    def __init__(self, spec: ClusterSpec) -> None:
        super().__init__(spec)
        self.nodes = [
            ThreadNode(i, ns, spec.size) for i, ns in enumerate(spec.nodes)
        ]

    # ---------------------------------------------------------------- transport
    def post(self, src: int, dst: int, msg: Message) -> None:
        if not 0 <= dst < len(self.nodes):
            raise RuntimeServiceError(f"message to unknown node {dst}")
        sender = self.nodes[src]
        sender.msgs_sent += 1           # sender's own thread is the caller
        sender.bytes_sent += msg.size
        self.nodes[dst].intake(msg)

    def broadcast(self, frames) -> None:
        """Straight into the live peers' inboxes (uncounted on purpose:
        a dying node's notices are not application traffic)."""
        for frame in frames:
            peer = self.nodes[frame.dst]
            if not peer.done:
                peer.intake(frame)

    # ---------------------------------------------------------------- execution
    def execute(self, program, loaded, policy: RunPolicy) -> BackendRun:
        provision(self, loaded, policy)
        reports: Dict[int, NodeReport] = {}

        def run(node: BackendNode) -> None:
            reports[node.node_id] = run_node(node, self, policy.max_events)

        threads = [
            threading.Thread(
                target=run, args=(node,), name=f"repro-node-{node.node_id}",
                daemon=True,
            )
            for node in self.nodes
        ]
        for t in threads:
            t.start()
        # every blocking point has its own safety net (waits time out, cost
        # events are budgeted), so a plain join cannot hang — and long
        # computations get as much wall time as they need
        for t in threads:
            t.join()
        return assemble_run(reports, policy)
