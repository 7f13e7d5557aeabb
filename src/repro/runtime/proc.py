"""Process backend: one OS process per plan node, frames over pipes.

Each worker reloads the rewritten program into its own interpreter (a real
separate heap — per-JVM semantics by construction) and runs the node core
on the polled stream transport of :mod:`repro.runtime.worker`.  All this
file adds is how the links come to exist: the parent opens one one-way
:func:`os.pipe` per ordered (src, dst) pair — so per-pair FIFO is the
kernel's pipe ordering — and every forked worker keeps its own row and
column of that mesh.

Messages travel as :meth:`~repro.runtime.message.Message.serialize` frames,
so the bytes a pipe moves equal the bytes the simulated network charges for
the same message.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

from repro.runtime.backend import (
    BackendRun,
    RunPolicy,
    RuntimeBackend,
    register_backend,
)
from repro.runtime.worker import StreamNode, run_workers


def _link_pipes(node: StreamNode,
                mesh: Dict[Tuple[int, int], Tuple[int, int]]) -> None:
    # fork hands every worker the whole mesh; close the ends that belong to
    # other nodes, otherwise a dead peer's pipe never reaches EOF (an open
    # write end somewhere keeps it alive)
    for (src, dst), (reader, writer) in mesh.items():
        if dst == node.node_id:
            node.add_reader(reader, src)
        else:
            os.close(reader)
        if src == node.node_id:
            node.add_writer(writer, dst)
        else:
            os.close(writer)


@register_backend
class ProcessBackend(RuntimeBackend):
    """One worker process per node over a full mesh of pipes."""

    name = "process"

    def execute(self, program, loaded, policy: RunPolicy) -> BackendRun:
        n = self.nnodes
        mesh = {
            (src, dst): os.pipe()
            for src in range(n) for dst in range(n) if src != dst
        }
        return run_workers(
            self.spec, program, policy, _link_pipes, (mesh,),
            [fd for ends in mesh.values() for fd in ends],
        )
