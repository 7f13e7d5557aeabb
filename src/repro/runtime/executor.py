"""Distributed execution driver (paper §5 + §7.2).

``DistributedExecutor`` wires a rewritten program and a distribution plan
onto a runtime backend selected by name from the backend registry
(:mod:`repro.runtime.backend`): one node core over one of four transports —
the deterministic discrete-event simulator (``sim``, the default), one
thread per node (``thread``), one OS process per node over pipes
(``process``) or over TCP sockets (``tcp``).  Every backend provisions one
VM machine per node (own heap, own statics — per-JVM semantics), the three
services per node, starts ``main`` on the plan's main partition and service
loops elsewhere, then drives all node generators to completion.

``run_sequential`` executes the *original* program on one node spec — the
centralized baseline of Figure 11.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bytecode.model import BProgram
from repro.distgen.plan import DistributionPlan
from repro.errors import RuntimeServiceError
from repro.runtime.backend import (  # noqa: F401  (re-exported for consumers)
    BackendRun,
    NodeStats,
    RunPolicy,
    aggregate_node_stats,
    backend_names,
    create_backend,
    snapshot_machine,
)
from repro.runtime.checkpoint import RecoveryPlan
from repro.runtime.cluster import ClusterSpec, NodeSpec
from repro.runtime.faults import FaultPlan
from repro.vm.interpreter import Machine, forced_engine, run_sync
from repro.vm.loader import LoadedProgram, load_program


#: everything the Figure 11 harness needs from a distributed run is what
#: the backend assembled
DistributedResult = BackendRun


@dataclass
class SequentialResult:
    result: object
    exec_time_s: float
    cycles: int
    stdout: List[str] = field(default_factory=list)
    node_stats: List[NodeStats] = field(default_factory=list)
    #: measured wall time of the interpreter run — the commensurable
    #: baseline for wall-clock backends (exec_time_s is *virtual*)
    wall_time_s: float = 0.0
    #: JIT counters of the baseline machine (see Machine.jit_stats)
    jit: Dict[str, int] = field(default_factory=dict)


class DistributedExecutor:
    def __init__(
        self,
        program: BProgram,
        plan: DistributionPlan,
        cluster_spec: ClusterSpec,
        loaded: Optional[LoadedProgram] = None,
        async_writes: bool = False,
        backend: str = "sim",
        faults: Optional[FaultPlan] = None,
        replicas: Optional[Dict[str, tuple]] = None,
        engine: str = "default",
        recovery: Optional[RecoveryPlan] = None,
    ) -> None:
        if plan.nparts > cluster_spec.size:
            raise RuntimeServiceError(
                f"plan needs {plan.nparts} nodes, cluster has {cluster_spec.size}"
            )
        self.program = program
        self.plan = plan
        self.cluster_spec = cluster_spec
        self.loaded = loaded if loaded is not None else load_program(program)
        #: paper §4.2 communication optimization: fire-and-forget remote
        #: writes (FIFO links keep read-after-write consistent)
        self.async_writes = async_writes
        #: registry name of the runtime backend to execute on
        self.backend = backend
        #: seeded fault plan to inject, or None for a fault-free run
        self.faults = faults
        #: class -> replica node tuple (primary first) for quorum replication
        self.replicas = replicas
        #: VM execution tier for every node machine ("default" = ambient)
        self.engine = engine
        #: recovery plan (checkpoint/heartbeat/takeover tier), or None
        self.recovery = recovery

    def run(self, max_events: int = 200_000_000) -> DistributedResult:
        backend = create_backend(self.backend, self.cluster_spec)
        main_partition = self.plan.main_partition
        if not 0 <= main_partition < self.cluster_spec.size:
            main_partition = 0
        policy = RunPolicy(
            main_partition=main_partition,
            async_writes=self.async_writes,
            max_events=max_events,
            faults=self.faults,
            replicas=self.replicas,
            recovery=self.recovery,
            nparts=self.plan.nparts,
        )
        if self.engine != "default":
            with forced_engine(self.engine):
                return backend.execute(self.program, self.loaded, policy)
        return backend.execute(self.program, self.loaded, policy)


def run_sequential(
    program: BProgram,
    node: NodeSpec,
    loaded: Optional[LoadedProgram] = None,
    engine: str = "default",
) -> SequentialResult:
    """Centralized baseline: the original program on one machine.  Stats
    flow through the same :func:`snapshot_machine` path the backends use."""
    import time

    loaded = loaded if loaded is not None else load_program(program)
    machine = Machine(loaded)
    machine.statics = loaded.fresh_statics()
    machine.call_bmethod(loaded.main_method(), None, [None])
    t0 = time.perf_counter()
    if engine != "default":
        with forced_engine(engine):
            run_sync(machine)
    else:
        run_sync(machine)
    wall_time_s = time.perf_counter() - t0
    exec_time_s = machine.cycles / node.cpu_hz
    stats = snapshot_machine(
        node.name, machine, clock_s=exec_time_s, busy_s=exec_time_s
    )
    return SequentialResult(
        result=machine.result,
        exec_time_s=stats.clock_s,
        cycles=machine.cycles,
        stdout=stats.stdout,
        node_stats=[stats],
        wall_time_s=wall_time_s,
        jit=machine.jit_stats(),
    )


def run_distributed(
    program: BProgram,
    plan: DistributionPlan,
    cluster_spec: ClusterSpec,
    backend: str = "sim",
) -> DistributedResult:
    """Convenience wrapper: rewrite for ``plan``, then execute."""
    from repro.distgen.rewriter import rewrite_program

    rewritten, _stats = rewrite_program(program, plan)
    return DistributedExecutor(
        rewritten, plan, cluster_spec, backend=backend
    ).run()
