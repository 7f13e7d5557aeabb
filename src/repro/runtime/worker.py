"""Out-of-process worker machinery shared by the ``process`` and ``tcp``
backends.

Both run the same lifecycle: fork one OS process per cluster node, connect
it to its peers (the only transport-specific step), reload the rewritten
program into a private interpreter, run the node through the node core
(:func:`~repro.runtime.backend.run_node`) and pickle its
:class:`~repro.runtime.backend.NodeReport` home over a result queue.  The
parent collects the reports — turning a worker that vanished without
reporting into structured fault evidence, and telling the survivors over a
per-worker control pipe — reaps every process, and assembles the run.
"""

from __future__ import annotations

import multiprocessing
import queue as _queue
import time
from typing import Callable, Dict, Iterable, Tuple

from repro.errors import RuntimeServiceError
from repro.runtime.backend import (
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
from repro.runtime.cluster import ClusterSpec
from repro.runtime.faults import FaultRecord
from repro.runtime.message import FAULT_NOTICE, Message
from repro.runtime.serial import decode_value, encode_value
from repro.vm.loader import load_program

#: the parent's control channel appears in a worker's receive map under
#: this pseudo source id (no node has a negative id)
PARENT_CTRL = -1

#: ``connect(node_id, spec, ctrl_reader, *args)``: runs inside the freshly
#: forked worker, closes the inherited handles that belong to other nodes
#: and returns this node and its connected transport
Connect = Callable[..., Tuple[BackendNode, Transport]]


def mp_context():
    """Fork keeps worker start cheap and avoids pickling the program; fall
    back to spawn where fork does not exist."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-posix platforms
        return multiprocessing.get_context("spawn")


def send_frames(conns: Dict[int, object], frames: Iterable[Message]) -> None:
    """Best-effort: serialize each frame down the pipe to its ``dst``."""
    for frame in frames:
        try:
            conns[frame.dst].send_bytes(frame.serialize())
        except (OSError, ValueError):
            pass


# --------------------------------------------------------------- worker side
def worker_report(node: BackendNode, transport: Transport, program,
                  policy: RunPolicy) -> NodeReport:
    """Run one cluster node start to finish inside its worker process.  The
    result crosses the process boundary in the streamed value format."""
    try:
        provision_node(node, transport, load_program(program), policy)
        report = run_node(node, transport, policy.max_events)
        if report.result is not None:
            try:
                report.result = encode_value(
                    report.result, node.node_id, node.machine.heap
                )
            except RuntimeServiceError:
                report.result = None
        return report
    except BaseException as exc:  # provisioning/load failure
        transport.broadcast(shutdown_frames(node.node_id, node.peers))
        return NodeReport(
            node.node_id, NodeStats(node.spec.name), error=error_info(exc)
        )


def _worker_main(node_id: int, spec: ClusterSpec, program, policy: RunPolicy,
                 ctrl, results, connect: Connect, connect_args) -> None:
    """One cluster node, start to finish, inside its own process."""
    # fork hands every worker all the control pipes; keep our read end only
    for i, (reader, writer) in enumerate(ctrl):
        writer.close()
        if i != node_id:
            reader.close()
    node, transport = connect(node_id, spec, ctrl[node_id][0], *connect_args)
    try:
        results.put(worker_report(node, transport, program, policy))
    finally:
        transport.close()


# --------------------------------------------------------------- parent side
def run_workers(spec: ClusterSpec, program, policy: RunPolicy,
                connect: Connect, connect_args: tuple,
                parent_handles: Iterable) -> BackendRun:
    """Fork one worker per node, collect and reap them, assemble the run.
    ``parent_handles`` are what the workers own once forked (pipe ends,
    listening sockets): the parent closes its copies."""
    ctx = mp_context()
    # one parent->worker control pipe each: when a worker vanishes without
    # reporting, the parent injects fault-notice frames here so survivors
    # fail fast instead of riding out the full wait timeout
    ctrl = [ctx.Pipe(duplex=False) for _ in spec.nodes]
    ctrl_writers = {i: writer for i, (_, writer) in enumerate(ctrl)}
    results = ctx.Queue()
    procs = [
        ctx.Process(
            target=_worker_main,
            args=(i, spec, program, policy, ctrl, results, connect, connect_args),
            name=f"repro-node-{i}",
            daemon=True,
        )
        for i in range(spec.size)
    ]
    try:
        for p in procs:
            p.start()
        for handle in (*parent_handles, *(reader for reader, _ in ctrl)):
            handle.close()
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
                    ctrl_writers) -> Dict[int, NodeReport]:
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
                    send_frames(
                        ctrl_writers, shutdown_frames(i, pending, FAULT_NOTICE)
                    )
                continue
        reports[rep.node_id] = rep
        pending.discard(rep.node_id)
    return reports


def reap_workers(procs, ctrl_writers) -> None:
    """Teardown: bounded joins, then terminate stragglers, then close the
    parent's control write ends."""
    deadline = time.monotonic() + 10.0
    for p in procs:
        p.join(max(0.0, deadline - time.monotonic()))
    for p in procs:
        if p.is_alive():
            p.terminate()
            p.join(5.0)
    for w in ctrl_writers.values():
        try:
            w.close()
        except OSError:  # pragma: no cover
            pass
