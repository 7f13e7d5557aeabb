"""In-process thread backend: real concurrency, shared interpreter.

One OS thread per plan node drives that node's process generator through
the node core.  The transport is the sender's own thread appending to the
receiver's inbox (:meth:`BackendNode.intake`), so per-(src, dst) ordering
is the sender's program order — the same guarantee the simulated network
provides — and a blocked node sleeps on its inbox's condition variable
until the next delivery.

Clocks are wall clocks: a node's ``clock_s`` is the wall time its thread
spent driving it, the makespan is the longest of those, and ``busy_s``
converts charged cycles at the node's nominal speed (so utilization stays
comparable across backends).
"""

from __future__ import annotations

import threading
from typing import Dict

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
from repro.runtime.cluster import ClusterSpec
from repro.runtime.message import Message


@register_backend
class ThreadBackend(RuntimeBackend, Transport):
    """One thread per node over a shared interpreter."""

    name = "thread"

    def __init__(self, spec: ClusterSpec) -> None:
        super().__init__(spec)
        self.nodes = [
            BackendNode(i, ns, spec.size) for i, ns in enumerate(spec.nodes)
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
