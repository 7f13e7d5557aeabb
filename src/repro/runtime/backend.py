"""The runtime's node core and the transport contract beneath it.

The paper's runtime (§5) is one set of services every node runs unchanged;
only the link underneath differs.  This module is that shared half:

* :class:`BackendNode` — **the node core**, identical on every backend: VM
  machine and services, clock and statistics, the single-threaded FIFO
  inbox with receiver-side dedup (:meth:`~BackendNode.intake`; the lock a
  transport that delivers from another thread needs is that transport's,
  see :mod:`~repro.runtime.threads`), the event step
  (:meth:`~BackendNode.step`: ``cost`` charges and checks the crash plan,
  ``wait`` blocks) and the budgeted loop over it
  (:meth:`~BackendNode.drive`), and the blocking rule (every peer
  unreachable means ``PeerLost`` now, silence past
  :data:`WAIT_TIMEOUT_S` means a structured error).
* :func:`run_node` / :func:`node_report` / :func:`assemble_run` — the only
  path from finished nodes to a :class:`BackendRun`: a node is driven to
  completion, summarized as a :class:`NodeReport`, and the reports are
  folded into the run.  In-process backends and forked workers use the same
  three functions; workers merely pickle the report home.
* :class:`Transport` — **what a backend supplies**, stated once, there.
* :class:`RuntimeBackend` — lifecycle: take a rewritten program, provision
  one VM per node, run every node and return the :class:`BackendRun`.

Four transports implement the contract and register themselves by name via
:func:`register_backend`: ``sim`` (:mod:`~repro.runtime.simnet`, virtual
time), ``thread`` (:mod:`~repro.runtime.threads`), ``process``
(:mod:`~repro.runtime.proc`, pipes) and ``tcp`` (:mod:`~repro.runtime.tcp`,
sockets).  The executor, harness, sweep and CLI select one through
:func:`create_backend` — the only sanctioned route to a concrete backend.
"""

from __future__ import annotations

import math
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import (
    Callable, ClassVar, Dict, Iterable, List, Optional, Set, Tuple, Type,
)

from repro.api.registry import Registry
from repro.errors import RuntimeServiceError, VMError
from repro.runtime.checkpoint import NodeRecovery, RecoveryPlan
from repro.runtime.cluster import ClusterSpec, NodeSpec
from repro.runtime.faults import (
    FaultError,
    FaultInjector,
    FaultPlan,
    FaultRecord,
    NodeCrashed,
    PeerLost,
)
from repro.runtime.message import FAULT_NOTICE, Message, MessageKind

#: safety net for protocol bugs: how long a wall-clock node may block with
#: nothing arriving before the run fails (real waits return on delivery)
WAIT_TIMEOUT_S = 60.0


# ------------------------------------------------------------------- policy
@dataclass
class RunPolicy:
    """Everything a backend needs to know about *how* to run a rewritten
    program — one bag instead of a growing positional argument list.

    ``faults`` is the seeded :class:`~repro.runtime.faults.FaultPlan` to
    inject (None = fault-free).  ``replicas`` maps a dependent class name to
    the ordered tuple of node ids holding its copies (primary first); the
    message exchange routes creates/accesses of those classes through the
    quorum protocol.  ``recovery`` is the
    :class:`~repro.runtime.checkpoint.RecoveryPlan` controlling the
    checkpoint/heartbeat/takeover tier (None or disabled = PR-6 degrade-only
    semantics); ``nparts`` is how many partitions the plan actually uses —
    recovery-home placement prefers the idle nodes beyond it."""

    main_partition: int = 0
    async_writes: bool = False
    max_events: int = 200_000_000
    faults: Optional[FaultPlan] = None
    replicas: Optional[Dict[str, Tuple[int, ...]]] = None
    recovery: Optional["RecoveryPlan"] = None
    nparts: int = 0


# ---------------------------------------------------------------------- stats
def percentile(sorted_samples: List[float], q: float) -> float:
    """Nearest-rank percentile of an already *sorted* sample list (0 when
    empty).  Deterministic — no interpolation, so virtual-time latency
    summaries are byte-identical across VM engines and repeated runs."""
    if not sorted_samples:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_samples)))
    return sorted_samples[rank - 1]


def latency_summary(latencies_s: Optional[List[float]]) -> Dict[str, float]:
    """count + p50/p95/p99 (milliseconds) of a per-request latency sample
    set — the service-workload metrics NodeStats and Report carry."""
    samples = sorted(latencies_s or [])
    return {
        "latency_count": len(samples),
        "latency_p50_ms": percentile(samples, 0.50) * 1e3,
        "latency_p95_ms": percentile(samples, 0.95) * 1e3,
        "latency_p99_ms": percentile(samples, 0.99) * 1e3,
    }


@dataclass
class NodeStats:
    """Per-node counters every backend reports through the same schema."""

    name: str
    clock_s: float = 0.0
    busy_s: float = 0.0
    messages_sent: int = 0
    bytes_sent: int = 0
    requests_served: int = 0
    heap_objects: int = 0
    heap_bytes: int = 0
    stdout: List[str] = field(default_factory=list)
    #: structured fault evidence (FaultRecord dicts) — empty on clean runs
    faults: List[dict] = field(default_factory=list)
    #: requests this node *issued* through its MessageExchange (clients of
    #: a service workload; servers count requests_served instead)
    requests_sent: int = 0
    #: per-request latency distribution observed at this node's exchange:
    #: count + nearest-rank percentiles in ms.  Virtual (deterministic)
    #: time on the simulator, wall time on real backends — like clock_s.
    latency_count: int = 0
    latency_p50_ms: float = 0.0
    latency_p95_ms: float = 0.0
    latency_p99_ms: float = 0.0


def aggregate_node_stats(stats: List[NodeStats]) -> Dict[str, float]:
    """Cluster-wide rollup of per-node counters — what the sweep table
    reports per configuration: totals plus the busy fraction of the
    makespan (a utilization measure across heterogeneous nodes)."""
    clock = max((s.clock_s for s in stats), default=0.0)
    busy = sum(s.busy_s for s in stats)
    return {
        "nodes": float(len(stats)),
        "busy_s": busy,
        "busy_frac": busy / (clock * len(stats)) if clock and stats else 0.0,
        "messages_sent": float(sum(s.messages_sent for s in stats)),
        "bytes_sent": float(sum(s.bytes_sent for s in stats)),
        "requests_served": float(sum(s.requests_served for s in stats)),
        "requests_sent": float(sum(s.requests_sent for s in stats)),
        "heap_objects": float(sum(s.heap_objects for s in stats)),
        "heap_bytes": float(sum(s.heap_bytes for s in stats)),
        #: cluster-wide service throughput: served requests per second of
        #: makespan (virtual on the simulator, wall on real backends)
        "throughput_rps": (
            sum(s.requests_served for s in stats) / clock if clock else 0.0
        ),
    }


def snapshot_machine(
    name: str,
    machine,
    *,
    clock_s: float = 0.0,
    busy_s: float = 0.0,
    messages_sent: int = 0,
    bytes_sent: int = 0,
    requests_served: int = 0,
    faults: Optional[List[dict]] = None,
    requests_sent: int = 0,
    latencies_s: Optional[List[float]] = None,
) -> NodeStats:
    """The single stats code path: turn a finished VM machine (plus the
    caller's transport counters) into a :class:`NodeStats` record.  Both
    the sequential baseline and every backend node report through here, so
    nothing else reaches into VM internals for heap sizes or stdout."""
    heap = machine.heap
    lat = latency_summary(latencies_s)
    return NodeStats(
        name=name,
        clock_s=clock_s,
        busy_s=busy_s,
        messages_sent=messages_sent,
        bytes_sent=bytes_sent,
        requests_served=requests_served,
        heap_objects=heap.allocated_objects,
        heap_bytes=heap.allocated_bytes,
        stdout=list(machine.stdout),
        faults=list(faults) if faults else [],
        requests_sent=requests_sent,
        latency_count=lat["latency_count"],
        latency_p50_ms=lat["latency_p50_ms"],
        latency_p95_ms=lat["latency_p95_ms"],
        latency_p99_ms=lat["latency_p99_ms"],
    )


# ------------------------------------------------------------------ transport
class Transport(ABC):
    """What a backend supplies beneath the node core — all of it:

    * :meth:`post` moves one frame towards ``dst``, preserving FIFO order
      per (src, dst) pair (the message exchange's async-write-then-sync-read
      consistency depends on it);
    * arrived frames enter the receiving node through
      :meth:`BackendNode.intake`, on the node's own thread: moved by its
      :meth:`BackendNode.pump` when the node reads its own links
      (``process`` pipes and ``tcp`` sockets, one polled stream transport).
      The core's inbox takes no lock, so a transport that pushes from the
      *sender's* thread (``thread``) serializes access itself — its node
      class wraps the inbox methods in its own lock and condition;
    * :meth:`broadcast` is best-effort: a dying node's SHUTDOWN / fault
      notice frames go out to whoever is still reachable, and it never
      raises;
    * :meth:`close` releases what the transport opened.
    """

    @property
    @abstractmethod
    def nnodes(self) -> int:
        """Number of addressable nodes (MPI COMM_WORLD size)."""

    @abstractmethod
    def post(self, src: int, dst: int, msg: Message) -> None:
        """Hand one message to the transport for delivery to ``dst``."""

    @abstractmethod
    def broadcast(self, frames: Iterable[Message]) -> None:
        """Best-effort delivery of each frame to its ``dst``."""

    def close(self) -> None:
        """Release transport resources (nothing to release by default)."""


def shutdown_frames(
    src: int, peers: Iterable[int], req_id: int = 0
) -> List[Message]:
    """The SHUTDOWN frames node ``src`` owes ``peers``: plain teardown
    (``req_id`` 0) or, with :data:`FAULT_NOTICE`, the news that it died."""
    return [Message(MessageKind.SHUTDOWN, src, dst, req_id) for dst in peers]


# ----------------------------------------------------------------------- node
class BackendNode:
    """The node core: one node's runtime state and its message-driven loop,
    the same on every backend.

    Frames enter through :meth:`intake` (dedup, FIFO inbox); the services
    consume them with :meth:`take_matching`; :meth:`drive` runs the node's
    generator, blocking in :meth:`wait`.

    The inbox is **single-threaded**: no lock, no condition.  A node reads
    its own links (:class:`~repro.runtime.worker.StreamNode`, whose
    :meth:`pump` polls the node's pipes and sockets) or is stepped by the
    scheduler that also delivers to it (the simulator, which gates the
    inbox on virtual arrival times), so only the node's own thread ever
    touches it.  The one transport that delivers from *another* thread
    brings its own synchronisation and wraps these methods in it:
    :class:`~repro.runtime.threads.ThreadNode`.
    """

    def __init__(
        self, node_id: int, spec: NodeSpec, cluster_size: int = 1
    ) -> None:
        self.node_id = node_id
        self.spec = spec
        self.peers = [p for p in range(cluster_size) if p != node_id]
        self.clock = 0.0                     # seconds, virtual or wall
        self.gen = None                      # the node's process generator
        self.done = False
        self.machine = None                  # repro.vm.interpreter.Machine
        self.exchange = None                 # services.MessageExchange
        self.starter = None                  # services.ExecutionStarter (main)
        # inbox: FIFO of delivered frames, touched by this node's thread only
        self._inbox: List[Message] = []
        # statistics
        self.msgs_sent = 0
        self.bytes_sent = 0
        self.msgs_received = 0
        #: total ``('cost', n)`` cycles charged to this node.  Kept as an
        #: integer so ``busy_s`` is one exact division — byte-identical
        #: whether the VM charged per instruction or per batched block.
        self.charged_cycles = 0
        # fault tolerance (see repro.runtime.faults): both None under no plan
        # and under one that injects nothing; else the cycle this node dies at
        self.injector: Optional[FaultInjector] = None
        self.crash_cycle: Optional[int] = None
        self.main_partition = 0
        #: peers the protocol learned are dead (fault notices, leases)
        self.dead_peers: Set[int] = set()
        #: peers whose link is gone (EOF / reset / garbage stream)
        self.gone_peers: Set[int] = set()
        self.faults: List[FaultRecord] = []
        #: (primary_node, primary_oid) -> local oid of this node's replica
        self.replica_dir: Dict[Tuple[int, int], int] = {}
        self._seen_frames: Set[Tuple[int, int, int]] = set()
        #: HEARTBEAT frames ever queued (see NodeRecovery.heartbeats_taken)
        self.heartbeats_in = 0
        #: recovery tier engine (see repro.runtime.checkpoint); None when
        #: the run policy carries no enabled RecoveryPlan
        self.recovery: Optional[NodeRecovery] = None

    @property
    def busy_s(self) -> float:
        """CPU time actually charged, derived from the integer cycle total
        (identical for per-step and per-block charging)."""
        return self.charged_cycles / self.spec.cpu_hz

    #: the clock per-request latency is measured on: wall time on real
    #: backends; the simulator overrides this with the node's virtual clock,
    #: which makes its latency percentiles deterministic
    now = staticmethod(time.perf_counter)

    def charge(self, cycles: int) -> None:
        """Account one ``('cost', n)`` event: node busy time plus the VM's
        cycle counter.  The driver calls this once per event — whole blocks
        on the fast path, single instructions on the reference path."""
        self.charged_cycles += cycles
        if self.machine is not None:
            self.machine.cycles += cycles

    # ------------------------------------------------------------------ inbox
    def intake(self, msg: Message, arrival: float = 0.0) -> None:
        """The one way a frame enters a node, on every backend.  Injected
        duplicates were sent (and counted) but are dropped here: a
        uniquely-identified frame (``req_id > 0`` — a request or its reply)
        is accepted once; control frames (SHUTDOWN, fault notices,
        fire-and-forget posts, heartbeats — whose ``req_id`` only tells a
        ping from a pong) are idempotent and always pass.  ``arrival`` is
        when the frame becomes visible on the node's clock; only the
        simulator models it."""
        if msg.kind is MessageKind.HEARTBEAT:
            self.heartbeats_in += 1
        elif self.injector is not None and msg.req_id > 0:
            key = (msg.src, msg.kind._value_, msg.req_id)
            if key in self._seen_frames:
                return
            self._seen_frames.add(key)
        self._enqueue(msg, arrival)

    def _enqueue(self, msg: Message, arrival: float) -> None:
        self._inbox.append(msg)

    def peer_gone(self, peer: int) -> None:
        """The transport lost ``peer``'s link: the next :meth:`wait` takes
        it into account instead of riding out its timeout."""
        self.gone_peers.add(peer)

    def pump(self, timeout_s: float) -> bool:
        """Move every frame that has arrived into the inbox, blocking up to
        ``timeout_s`` for something new; False when nothing happened on the
        links in that time (with no timeout: nothing was there).  How frames
        arrive is the transport's half of a node: every wall-clock backend
        supplies this (the simulator never pumps — it overrides the methods
        that would)."""
        raise NotImplementedError

    def take_matching(
        self, match: Optional[Callable[[Message], bool]] = None
    ) -> Optional[Message]:
        """Pop the earliest delivered message satisfying ``match`` (any
        message without one; others stay queued); ``None`` when nothing
        eligible has arrived.  What is already in the inbox is looked at
        first and the links only when nothing there matches: per-link FIFO
        is unaffected, because whatever the transport still holds was sent
        after everything it has delivered — and the scan that follows a
        blocking wait costs no second readiness check."""
        inbox = self._inbox
        scanned = 0
        for scanned, m in enumerate(inbox, 1):
            if match is None or match(m):
                self.msgs_received += 1
                return inbox.pop(scanned - 1)
        if self.pump(0.0):
            for i in range(scanned, len(inbox)):
                if match is None or match(inbox[i]):
                    self.msgs_received += 1
                    return inbox.pop(i)
        return None

    # ------------------------------------------------------------------- loop
    def wait(self, timeout_s: float = WAIT_TIMEOUT_S) -> None:
        """A ``('wait',)`` event: block until something new is delivered.
        Only this node's own thread grows ``dead_peers``, so if every peer
        is unreachable *now* nothing can ever arrive — degrade at once
        instead of stalling the run for the full timeout."""
        unreachable = self.dead_peers | self.gone_peers
        if self.peers and unreachable.issuperset(self.peers):
            raise PeerLost(
                f"node {self.node_id} is waiting for messages but every "
                f"peer is already dead"
            )
        if not self.pump(timeout_s):
            raise RuntimeServiceError(
                f"node {self.node_id} blocked {timeout_s:.0f}s with no "
                "incoming messages (distributed deadlock?)"
            )

    def step(self, event) -> None:
        """Apply one event of the node's generator."""
        kind = event[0]
        if kind == "cost":
            self.charge(event[1])
            crash = self.crash_cycle
            if crash is not None and self.charged_cycles >= crash and (
                self.injector.crash_due(self.charged_cycles)
            ):
                raise NodeCrashed(
                    f"node {self.node_id} crashed at cycle "
                    f"{self.charged_cycles} (planned)"
                )
        elif kind == "wait":
            self.wait()
        else:  # pragma: no cover
            raise RuntimeServiceError(f"unknown event {event!r}")

    def drive(self, max_events: int) -> None:
        """Run the node's generator to completion under its event budget."""
        events = 0
        for event in self.gen:
            events += 1
            if events > max_events:
                raise RuntimeServiceError("execution exceeded event budget")
            self.step(event)

    # ---------------------------------------------------------------- evidence
    def record_fault(self, exc, kind: Optional[str] = None) -> FaultRecord:
        """Convert a fault-family exception into this node's structured
        evidence."""
        rec = FaultRecord(
            node=self.node_id,
            kind=kind if kind is not None else getattr(exc, "kind", "fault"),
            detail=str(exc),
            at_cycle=self.charged_cycles,
            time_s=self.clock,
        )
        self.faults.append(rec)
        return rec

    def snapshot_stats(self) -> NodeStats:
        exchange = self.exchange
        return snapshot_machine(
            self.spec.name,
            self.machine,
            clock_s=self.clock,
            busy_s=self.busy_s,
            messages_sent=self.msgs_sent,
            bytes_sent=self.bytes_sent,
            requests_served=(
                exchange.requests_served if exchange is not None else 0
            ),
            faults=[f.to_dict() for f in self.faults],
            requests_sent=(
                exchange.requests_sent if exchange is not None else 0
            ),
            latencies_s=(
                exchange.latencies_s if exchange is not None else None
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<{type(self).__name__} {self.node_id} {self.spec.name} "
            f"t={self.clock:.6f}>"
        )


# ------------------------------------------------------------------- backend
@dataclass
class BackendRun:
    """What one distributed execution produced, backend-agnostic."""

    result: object
    makespan_s: float
    total_messages: int
    total_bytes: int
    node_stats: List[NodeStats]
    stdout: List[str] = field(default_factory=list)
    #: structured fault evidence across all nodes (empty on clean runs)
    faults: List[FaultRecord] = field(default_factory=list)
    #: True when the run survived one or more faults — results may be
    #: partial (e.g. the main program completed but a replica died)
    degraded: bool = False
    #: RECOVERED evidence: one record per crash the recovery tier masked
    #: (kind "recovered"); such crashes do NOT degrade the run
    recovered: List[FaultRecord] = field(default_factory=list)
    #: cycles spent producing checkpoints, summed over all nodes
    checkpoint_overhead_cycles: int = 0
    #: cycles spent restoring state and replaying lost work
    recovery_cycles: int = 0
    #: per-request latency samples merged across every node's exchange and
    #: sorted ascending (seconds; virtual on the simulator, wall elsewhere)
    latency_s: List[float] = field(default_factory=list)
    #: cluster-wide JIT counters (see Machine.jit_stats), summed over nodes
    jit: Dict[str, int] = field(default_factory=dict)

    @property
    def exec_time_s(self) -> float:
        return self.makespan_s

    def aggregate(self) -> Dict[str, float]:
        return aggregate_node_stats(self.node_stats)


#: fault kinds that are evidence of a *masked* crash when the crashed node
#: appears in the recovered set — they must not degrade the run by
#: themselves.  "torn_checkpoint" never degrades: it only means recovery
#: fell back one epoch (or the run finished without needing the blob).
_MASKABLE_KINDS = frozenset({"crash", "worker_lost", "lease_expired"})
_BENIGN_KINDS = frozenset({"torn_checkpoint"})


def summarize_recovery(
    faults: List[FaultRecord],
    recovered: List[FaultRecord],
    recovering: bool = False,
    main_partition: int = -1,
) -> bool:
    """Recompute ``BackendRun.degraded`` in the presence of recovery: a run
    is degraded only by fault evidence the recovery tier did not mask.

    With an active recovery plan (``recovering``), a crash is harmful only
    through its *consequences* — a client that hit the dead node and could
    not be re-routed (``peer_lost``), an exhausted retry budget, an aborted
    takeover.  Every one of those leaves its own non-maskable record, so a
    crash/worker_lost/lease_expired record with no such evidence anywhere
    describes a death nobody was hurt by (an idle node, or a server whose
    objects were never needed again).  Those are masked *vacuously*: a
    synthetic RECOVERED record is appended for each (mutating ``recovered``
    in place) so reports and oracles still see one piece of recovery
    evidence per masked death."""
    masked_nodes = {r.node for r in recovered}
    degraded = False
    for rec in faults:
        if rec.kind in _BENIGN_KINDS:
            continue
        if rec.kind in _MASKABLE_KINDS and rec.node != main_partition:
            if rec.node in masked_nodes:
                continue
            if recovering:
                continue  # maskable alone never degrades; judged below
        # the main partition's own death is never maskable: its stack IS
        # the computation, and no checkpoint of remote objects restores it
        degraded = True
    if degraded or not recovering:
        return degraded
    for rec in faults:
        if (
            rec.kind in ("crash", "worker_lost")
            and rec.node != main_partition
            and rec.node not in masked_nodes
        ):
            masked_nodes.add(rec.node)
            recovered.append(
                FaultRecord(
                    node=rec.node,
                    kind="recovered",
                    detail=(
                        f"crash of node {rec.node} had no post-crash "
                        f"consequences; nothing to re-home"
                    ),
                    at_cycle=rec.at_cycle,
                    time_s=rec.time_s,
                )
            )
    return False


# --------------------------------------------------- nodes -> BackendRun
@dataclass
class NodeReport:
    """What one finished node contributes to the run.  Built by
    :func:`node_report` on every backend; out-of-process workers pickle it
    home, and a worker that vanished is reported as an empty one."""

    node_id: int
    stats: NodeStats
    #: ``{"type", "message"}`` of the exception that aborted the node (a
    #: fault-family failure is evidence in ``stats.faults``, not an error)
    error: Optional[Dict[str, str]] = None
    #: ``main``'s return value (main partition only)
    result: object = None
    jit: Dict[str, int] = field(default_factory=dict)
    latencies_s: List[float] = field(default_factory=list)
    #: RECOVERED records of the takeovers this node performed, and the
    #: reconstructed stdout stream of each peer it adopted that way
    recovered: List[FaultRecord] = field(default_factory=list)
    adopted_stdout: Dict[int, List[str]] = field(default_factory=dict)
    checkpoint_overhead_cycles: int = 0
    recovery_cycles: int = 0


def error_info(exc: BaseException) -> Dict[str, str]:
    return {"type": type(exc).__name__, "message": str(exc)}


def node_report(node: BackendNode,
                error: Optional[Dict[str, str]] = None) -> NodeReport:
    """Summarize a finished node."""
    report = NodeReport(
        node_id=node.node_id,
        stats=node.snapshot_stats(),
        error=error,
        result=node.starter.result if node.starter is not None else None,
        jit=node.machine.jit_stats(),
        latencies_s=list(node.exchange.latencies_s),
    )
    r = node.recovery
    if r is not None:
        report.recovered = list(r.recovered_records)
        report.adopted_stdout = {
            dead: list(lines)
            for dead, lines in r.adopted.items()
            if dead in r.recovered
        }
        report.checkpoint_overhead_cycles = r.checkpoint_overhead_cycles
        report.recovery_cycles = r.recovery_cycles
    return report


def run_node(node: BackendNode, transport: Transport,
             max_events: int) -> NodeReport:
    """Drive one provisioned wall-clock node to completion and report it.
    A fault-family failure degrades instead of aborting the run — recorded
    as evidence, live peers told promptly; any other exception becomes the
    report's error, and peers' service loops are released so nobody hangs."""
    error = None
    t0 = time.perf_counter()
    try:
        node.drive(max_events)
    except FaultError as exc:
        node.record_fault(exc)
        transport.broadcast(
            shutdown_frames(node.node_id, node.peers, FAULT_NOTICE)
        )
    except BaseException as exc:
        error = error_info(exc)
        transport.broadcast(shutdown_frames(node.node_id, node.peers))
    node.done = True
    node.clock = time.perf_counter() - t0
    return node_report(node, error)


def assemble_run(reports: Dict[int, NodeReport], policy: RunPolicy) -> BackendRun:
    """Fold per-node reports into the BackendRun every backend returns:
    error precedence, stats, recovery splicing, latency and JIT merge."""
    failed = {i: rep.error for i, rep in reports.items() if rep.error}
    if failed:
        # a VMError is the application-level root cause (remote errors
        # propagate as ERR replies); teardown noise on other nodes —
        # SHUTDOWN-while-awaiting-reply, disconnects — is secondary
        for _, err in sorted(failed.items()):
            if err["type"] == "VMError":
                raise VMError(err["message"])
        detail = "; ".join(
            f"node {i}: {err['type']}: {err['message']}"
            for i, err in sorted(failed.items())
        )
        raise RuntimeServiceError(f"backend failed: {detail}")

    ordered = [reports[i] for i in sorted(reports)]
    stats = [rep.stats for rep in ordered]
    # a recovered node reports the reconstructed stream its takeover node
    # adopted (checkpointed prefix + re-executed suffix): that is what makes
    # a fully-masked run's aggregate stdout byte-identical to a clean one
    for rep in ordered:
        for dead, lines in rep.adopted_stdout.items():
            if 0 <= dead < len(stats):
                stats[dead].stdout = list(lines)
    faults = [
        FaultRecord.from_dict(d) for s in stats for d in s.faults
    ]
    recovered = [r for rep in ordered for r in rep.recovered]
    jit: Dict[str, int] = {}
    for rep in ordered:
        for key, value in rep.jit.items():
            jit[key] = jit.get(key, 0) + value
    return BackendRun(
        result=reports[policy.main_partition].result,
        makespan_s=max((s.clock_s for s in stats), default=0.0),
        total_messages=sum(s.messages_sent for s in stats),
        total_bytes=sum(s.bytes_sent for s in stats),
        node_stats=stats,
        stdout=[line for s in stats for line in s.stdout],
        faults=faults,
        degraded=summarize_recovery(
            faults,
            recovered,
            recovering=policy.recovery is not None and policy.recovery.enabled,
            main_partition=policy.main_partition,
        ),
        recovered=recovered,
        checkpoint_overhead_cycles=sum(
            rep.checkpoint_overhead_cycles for rep in ordered
        ),
        recovery_cycles=sum(rep.recovery_cycles for rep in ordered),
        latency_s=sorted(x for rep in ordered for x in rep.latencies_s),
        jit=jit,
    )


class RuntimeBackend(ABC):
    """Node lifecycle + execution driver for one cluster specification."""

    #: registry key; subclasses set it and decorate with register_backend
    name: ClassVar[str] = "?"

    def __init__(self, spec: ClusterSpec) -> None:
        self.spec = spec

    @property
    def nnodes(self) -> int:
        return self.spec.size

    @abstractmethod
    def execute(self, program, loaded, policy: RunPolicy) -> BackendRun:
        """Run ``program`` (already communication-rewritten) under
        ``policy``: ``main`` starts on ``policy.main_partition`` with
        service loops everywhere else; drive all nodes to completion and
        report the run.  ``loaded`` is the in-process loaded image
        (out-of-process backends reload from ``program`` instead).
        ``policy.max_events`` bounds scheduler/driver events (globally for
        the simulator, per node for wall-clock backends)."""


# --------------------------------------------------------------- provisioning
def provision_node(node: BackendNode, transport: Transport, loaded,
                   policy: RunPolicy) -> None:
    """Wire one node: fresh VM machine (own heap, own statics — per-JVM
    semantics), its :class:`~repro.runtime.services.MessageExchange` and
    the DependentObject syscall; install the node's process generator (the
    :class:`~repro.runtime.services.ExecutionStarter` on the main node, the
    service loop elsewhere) and, when the policy carries a fault plan that
    injects anything, the node's :class:`FaultInjector`."""
    from repro.runtime.services import (
        ExecutionStarter,
        MessageExchange,
        make_node_syscall,
    )
    from repro.vm.heap import Heap
    from repro.vm.interpreter import Machine

    machine = Machine(loaded, heap=Heap(), node_id=node.node_id)
    machine.statics = loaded.fresh_statics()
    node.machine = machine
    node.main_partition = policy.main_partition
    if policy.faults is not None and not policy.faults.inert:
        node.injector = FaultInjector(policy.faults, node.node_id)
        node.crash_cycle = node.injector.crash_cycle
    node.exchange = MessageExchange(node, transport)
    if (
        policy.recovery is not None
        and policy.recovery.enabled
        and transport.nnodes > 1
    ):
        node.recovery = NodeRecovery(
            node, policy.recovery, policy.nparts or transport.nnodes
        )
    machine.syscall = make_node_syscall(
        node,
        async_writes=policy.async_writes,
        replicas=policy.replicas,
    )
    if node.node_id == policy.main_partition:
        node.starter = ExecutionStarter(node, loaded.main_method())
        node.gen = node.starter.run()
    else:
        node.gen = node.exchange.serve_forever()


def provision(backend, loaded, policy: RunPolicy) -> None:
    """Provision every node of an in-process backend (one that is also its
    own :class:`Transport`)."""
    if not 0 <= policy.main_partition < len(backend.nodes):
        raise RuntimeServiceError(
            f"main partition {policy.main_partition} has no node"
        )
    for node in backend.nodes:
        provision_node(node, backend, loaded, policy)


# ------------------------------------------------------------------- registry
def _load_builtins() -> None:
    # the implementations self-register on import
    import repro.runtime.proc  # noqa: F401
    import repro.runtime.simnet  # noqa: F401
    import repro.runtime.tcp  # noqa: F401
    import repro.runtime.threads  # noqa: F401


#: the unified plugin registry runtime backends are selected through; the
#: builtin implementations are imported (and so self-registered) lazily on
#: the first lookup
BACKENDS: Registry = Registry("runtime backend")
BACKENDS.set_loader(_load_builtins)


def register_backend(cls: Type[RuntimeBackend]) -> Type[RuntimeBackend]:
    """Class decorator: make ``cls`` selectable by its ``name``."""
    if cls.name == "?":
        raise RuntimeServiceError(f"{cls.__name__} has no backend name")
    BACKENDS.register(cls.name, cls, override=True)
    return cls


def backend_names() -> List[str]:
    return BACKENDS.names()


def create_backend(name: str, spec: ClusterSpec) -> RuntimeBackend:
    """Instantiate a registered backend for ``spec`` — the one sanctioned
    route from a backend name to a concrete cluster implementation."""
    return BACKENDS.get(name)(spec)
