"""The :class:`Experiment` façade and the stage engine behind it.

This module owns the Figure 1 stage logic: MJ source → bytecode →
RTA/CRG/ODG → partitioning → plan → rewriting → centralized / distributed
execution.  :class:`Experiment` is the typed public API over it:
composable stage methods (``compile() → analyze() → partition() → plan()
→ run()``), each returning a typed artifact, each memoized through the
content-addressed :class:`~repro.harness.cache.StageCache`, each wrapped
in ``on_stage_start`` / ``on_stage_end`` events carrying timings and
cache-hit flags, and a structured :class:`~repro.api.report.Report`.  The
module-level stage functions (``compile_workload``, ``analyze_workload``,
``plan_workload``, ``rewrite_workload``) serve callers that need one stage
alone, under the same cache keys.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.analysis.class_relations import ClassRelationGraph, build_crg
from repro.analysis.object_set import ObjectNode, compute_object_set
from repro.analysis.odg import ObjectDependenceGraph, build_odg
from repro.analysis.rta import CallGraph, rapid_type_analysis
from repro.api.config import ExperimentConfig
from repro.api.events import EventBus, Observer, StageRecorder
from repro.api.report import Report, StageTiming
from repro.bytecode import compile_program
from repro.bytecode.model import BProgram
from repro.distgen.plan import DistributionPlan, build_plan
from repro.distgen.rewriter import RewriteStats, rewrite_program
from repro.errors import ExperimentError
from repro.harness.cache import StageCache, default_cache, fingerprint
from repro.lang import analyze as _semantic_analyze
from repro.lang import parse_program
from repro.partition.api import PartitionResult, part_config_key, part_graph
from repro.runtime.cluster import ClusterSpec, NodeSpec
from repro.runtime.executor import (
    DistributedExecutor,
    DistributedResult,
    SequentialResult,
    run_sequential,
)
from repro.vm.loader import LoadedProgram, load_program

__all__ = [
    "AnalysisResult",
    "AnalysisTimings",
    "CompiledWorkload",
    "Experiment",
    "ExperimentResult",
    "RewriteArtifact",
    "PLAN_UBFACTOR",
    "compile_workload",
    "analyze_workload",
    "plan_workload",
    "rewrite_workload",
    "cluster_signature",
]

#: CPU-balance tolerance used for distribution plans.  Distribution of a
#: *sequential* program is about placement, not load balance — the cut
#: objective must dominate, so the tolerance is loose (the binding
#: constraints on constrained devices are memory/battery, not CPU).
PLAN_UBFACTOR = 4.0


# ---------------------------------------------------------------------------
# typed stage artifacts
# ---------------------------------------------------------------------------
@dataclass
class CompiledWorkload:
    name: str
    size: str
    source: str
    bprogram: BProgram
    loaded: LoadedProgram
    #: content hash of the MJ source — the upstream half of every derived
    #: stage-cache key
    source_fp: str = ""

    @property
    def num_classes(self) -> int:
        return self.bprogram.num_classes()

    @property
    def num_methods(self) -> int:
        return self.bprogram.num_methods()

    @property
    def size_kb(self) -> float:
        return self.bprogram.size_bytes() / 1024.0


@dataclass
class AnalysisTimings:
    """Table 2's measured stages, in milliseconds of wall-clock."""

    construct_crg_ms: float = 0.0
    construct_odg_ms: float = 0.0
    partition_trg_ms: float = 0.0
    partition_odg_ms: float = 0.0
    rewrite_ms: float = 0.0


@dataclass
class AnalysisResult:
    cg: CallGraph
    crg: ClassRelationGraph
    objects: List[ObjectNode]
    odg: ObjectDependenceGraph
    crg_partition: PartitionResult
    odg_partition: PartitionResult
    timings: AnalysisTimings


@dataclass
class RewriteArtifact:
    """Communication-rewritten program + what the rewriter did."""

    program: BProgram
    stats: RewriteStats
    elapsed_ms: float


# ---------------------------------------------------------------------------
# stage engine: (key material, builder) pairs around the StageCache.  The
# Experiment stages and the module-level stage functions route through
# these, so cache keys have exactly one definition.
# ---------------------------------------------------------------------------
def _build_compiled(name: str, size: str, source: str) -> CompiledWorkload:
    ast = parse_program(source)
    table = _semantic_analyze(ast)
    bprogram = compile_program(ast, table)
    return CompiledWorkload(
        name, size, source, bprogram, load_program(bprogram),
        source_fp=fingerprint(source),
    )


def _compile_entry(name: str, size: str) -> Tuple[str, dict, Callable[[], Any]]:
    from repro.workloads import WORKLOADS

    source = WORKLOADS.get(name).source(size)
    return (
        "compile",
        {"source": source},
        lambda: _build_compiled(name, size, source),
    )


def compile_workload(
    name: str, size: str = "test", cache: Optional[StageCache] = None
) -> CompiledWorkload:
    """Front-end stage: MJ source → verified bytecode → loaded program.

    Memoized in ``cache`` (the process-default :class:`StageCache` when
    ``None``) under the source *text*, so two names/sizes yielding the same
    program share one compile and repeated calls return the identical
    object.  Safe to share: downstream consumers never mutate a
    ``BProgram`` (the rewriter copies) and every VM machine takes fresh
    statics from the shared ``LoadedProgram``."""
    cache = cache if cache is not None else default_cache()
    return cache.get_or_build(*_compile_entry(name, size))


def _run_analysis(work: CompiledWorkload, nparts: int, method: str) -> AnalysisResult:
    timings = AnalysisTimings()
    t0 = time.perf_counter()
    cg = rapid_type_analysis(work.bprogram)
    crg = build_crg(cg)
    timings.construct_crg_ms = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    objects = compute_object_set(cg)
    odg = build_odg(cg, crg, objects)
    timings.construct_odg_ms = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    trg_graph, _ = crg.use_graph()
    crg_part = part_graph(
        trg_graph, min(nparts, max(trg_graph.num_nodes, 1)), method=method
    )
    timings.partition_trg_ms = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    odg_graph, _ = odg.partition_graph()
    odg_part = part_graph(
        odg_graph, min(nparts, max(odg_graph.num_nodes, 1)), method=method
    )
    timings.partition_odg_ms = (time.perf_counter() - t0) * 1e3

    return AnalysisResult(cg, crg, objects, odg, crg_part, odg_part, timings)


def _analysis_entry(
    work: CompiledWorkload, nparts: int, method: str
) -> Tuple[str, dict, Callable[[], Any]]:
    key = {
        "source_fp": work.source_fp,
        "nparts": nparts,
        "method": method,
    }
    return "analysis", key, lambda: _run_analysis(work, nparts, method)


def analyze_workload(
    work: CompiledWorkload,
    nparts: int = 2,
    method: str = "multilevel",
    cache: Optional[StageCache] = None,
) -> AnalysisResult:
    """Dependence-analysis stage: RTA → CRG → object set → ODG plus the
    Table 1 reference partitions, memoized under (source, nparts, method)."""
    cache = cache if cache is not None else default_cache()
    return cache.get_or_build(*_analysis_entry(work, nparts, method))


def _cluster_plan_targets(
    cluster: Optional[ClusterSpec], nparts: int, pin_main: bool
) -> Tuple[Optional[List[float]], Optional[int]]:
    """Capacity-proportional partition targets for a concrete cluster: the
    partition sizes follow relative CPU speeds, and ``main`` is pinned to
    the slowest machine (the "computation node" of the paper's testbed,
    where the user launches the program and ExecutionStarter lives)."""
    if cluster is None:
        return None, None
    speeds = [cluster.nodes[p].cpu_hz for p in range(nparts)]
    total = sum(speeds)
    tpwgts = [s / total for s in speeds]
    pin_to = (
        min(range(nparts), key=lambda p: speeds[p]) if pin_main else None
    )
    return tpwgts, pin_to


def _plan_entry(
    work: CompiledWorkload,
    nparts: int,
    granularity: str,
    method: str,
    cluster: Optional[ClusterSpec],
    pin_main: bool,
    force_distribution: bool = False,
) -> Tuple[str, dict, Callable[[], Any]]:
    tpwgts, pin_to = _cluster_plan_targets(cluster, nparts, pin_main)
    key = {
        "source_fp": work.source_fp,
        "granularity": granularity,
        "pin_to": pin_to,
        "force_distribution": force_distribution,
        "partition": part_config_key(
            nparts, method, PLAN_UBFACTOR, tpwgts=tpwgts
        ),
    }
    builder = lambda: build_plan(  # noqa: E731
        work.bprogram, nparts, granularity=granularity, method=method,
        tpwgts=tpwgts, ubfactor=PLAN_UBFACTOR, pin_main_to=pin_to,
        force_distribution=force_distribution,
    )
    return "plan", key, builder


def plan_workload(
    work: CompiledWorkload,
    nparts: int = 2,
    granularity: str = "class",
    method: str = "multilevel",
    cluster: Optional[ClusterSpec] = None,
    pin_main: bool = True,
    cache: Optional[StageCache] = None,
) -> DistributionPlan:
    """Planning stage: partition the dependence graph (capacity-weighted
    for ``cluster``) and assign every class/object a home node."""
    cache = cache if cache is not None else default_cache()
    return cache.get_or_build(
        *_plan_entry(work, nparts, granularity, method, cluster, pin_main)
    )


def _partition_entry(
    work: CompiledWorkload,
    analysis: AnalysisResult,
    nparts: int,
    granularity: str,
    method: str,
    cluster: Optional[ClusterSpec],
) -> Tuple[str, dict, Callable[[], Any]]:
    tpwgts, _ = _cluster_plan_targets(cluster, nparts, pin_main=False)
    key = {
        "source_fp": work.source_fp,
        "granularity": granularity,
        "partition": part_config_key(
            nparts, method, PLAN_UBFACTOR, tpwgts=tpwgts
        ),
    }

    def builder() -> PartitionResult:
        if granularity == "object":
            graph, _ = analysis.odg.partition_graph()
        else:
            graph, _ = analysis.crg.use_graph()
        return part_graph(
            graph, nparts, method=method, ubfactor=PLAN_UBFACTOR, tpwgts=tpwgts
        )

    return "partition", key, builder


def rewrite_workload(
    work: CompiledWorkload, plan: DistributionPlan
) -> RewriteArtifact:
    """Communication-generation stage (paper Figures 8/9).  Deliberately
    uncached: Table 2 measures its wall-clock every run."""
    t0 = time.perf_counter()
    rewritten, stats = rewrite_program(work.bprogram, plan)
    return RewriteArtifact(rewritten, stats, (time.perf_counter() - t0) * 1e3)


def _sequential_entry(
    work: CompiledWorkload, node: NodeSpec, engine: str = "default"
) -> Tuple[str, dict, Callable[[], Any]]:
    # the sequential VM is deterministic, so the centralized baseline is
    # a pure function of (program, node speed) — memoizable like any
    # other stage; sweeps re-run it once per distinct baseline machine.
    # Cycles are engine-invariant, but the jit counters riding on the
    # result are not, so a forced engine gets its own cache entry.
    key = {"source_fp": work.source_fp, "cpu_hz": node.cpu_hz}
    if engine != "default":
        key["engine"] = engine
    return (
        "sequential",
        key,
        lambda: run_sequential(
            work.bprogram, node, loaded=work.loaded, engine=engine
        ),
    )


def cluster_signature(cluster: ClusterSpec) -> dict:
    """JSON-stable encoding of a cluster — the execution-cache key part."""
    return {
        "nodes": [
            (n.cpu_hz, n.mem_bytes, n.battery_j) for n in cluster.nodes
        ],
        "link": (cluster.link.latency_s, cluster.link.bandwidth_Bps),
    }


# ---------------------------------------------------------------------------
# the Experiment façade
# ---------------------------------------------------------------------------
@dataclass
class ExperimentResult:
    """Typed outcome of :meth:`Experiment.run`.

    ``sequential_s`` / ``distributed_s`` / ``speedup_pct`` are read from the
    report, which computes them once (:meth:`Experiment.report`)."""

    config: ExperimentConfig
    plan: DistributionPlan
    sequential: SequentialResult
    distributed: DistributedResult
    rewrite_stats: RewriteStats
    report: Report

    @property
    def sequential_s(self) -> float:
        return self.report.sequential_s

    @property
    def distributed_s(self) -> float:
        return self.report.distributed_s

    @property
    def speedup_pct(self) -> float:
        return self.report.speedup_pct

    @property
    def messages(self) -> int:
        return self.distributed.total_messages

    @property
    def bytes(self) -> int:
        return self.distributed.total_bytes

    @property
    def node_stats(self):
        return self.distributed.node_stats

    @property
    def stdout(self) -> List[str]:
        return self.distributed.stdout


class Experiment:
    """One experiment configuration through the whole infrastructure.

    Stage methods compose and memoize: each returns a typed artifact,
    caches it on the instance *and* in the content-addressed stage cache
    (shared with every other experiment on the same cache), and
    transparently runs its prerequisites first.  Every stage emits
    ``on_stage_start`` / ``on_stage_end`` events with wall-clock timings
    and cache-hit flags; :meth:`report` assembles the structured record.

    >>> exp = Experiment.from_options("crypt", backend="thread")
    >>> result = exp.run()
    >>> print(result.speedup_pct, result.report.to_json())
    """

    def __init__(
        self,
        config: ExperimentConfig,
        cache: Optional[StageCache] = None,
        observers: Iterable[Observer] = (),
    ) -> None:
        self.config = config
        self.cache = cache if cache is not None else default_cache()
        self.events = EventBus(config.label())
        self.recorder = StageRecorder()
        self.events.subscribe(self.recorder)
        for observer in observers:
            self.events.subscribe(observer)
        self._artifacts: Dict[str, Any] = {}
        self._result: Optional[ExperimentResult] = None

    @classmethod
    def from_options(
        cls,
        workload: str,
        cache: Optional[StageCache] = None,
        observers: Iterable[Observer] = (),
        **options: Any,
    ) -> "Experiment":
        """``Experiment.from_options("crypt", method="kl", backend="thread")``
        — see :meth:`ExperimentConfig.from_options` for the knobs."""
        return cls(
            ExperimentConfig.from_options(workload, **options),
            cache=cache,
            observers=observers,
        )

    # ------------------------------------------------------------- plumbing
    def subscribe(self, observer: Observer) -> Observer:
        """Attach an event observer (see :mod:`repro.api.events`)."""
        return self.events.subscribe(observer)

    def _stage(self, name: str, thunk: Callable[[], Tuple[Any, bool]]) -> Any:
        """Run one stage exactly once: instance-memoized, event-wrapped."""
        if name in self._artifacts:
            return self._artifacts[name]
        self.events.stage_start(name)
        t0 = time.perf_counter()
        value, cache_hit = thunk()
        self.events.stage_end(name, time.perf_counter() - t0, cache_hit)
        self._artifacts[name] = value
        return value

    def cluster(self) -> ClusterSpec:
        """The concrete cluster this experiment runs on (not a stage —
        construction is trivial and deterministic)."""
        if "cluster" not in self._artifacts:
            self._artifacts["cluster"] = self.config.cluster.build(
                self.config.partition.nparts
            )
        return self._artifacts["cluster"]

    # ------------------------------------------------------- stage methods
    def compile(self) -> CompiledWorkload:
        """MJ source → verified bytecode → loaded program."""
        w = self.config.workload
        return self._stage(
            "compile",
            lambda: self.cache.get_or_build_info(*_compile_entry(w.name, w.size)),
        )

    def analyze(self) -> AnalysisResult:
        """RTA call graph, CRG, object set, ODG + reference partitions."""
        work = self.compile()
        p = self.config.partition
        return self._stage(
            "analyze",
            lambda: self.cache.get_or_build_info(
                *_analysis_entry(work, p.nparts, p.method)
            ),
        )

    def partition(self) -> PartitionResult:
        """The placement partition of the configured dependence graph
        (CRG at class granularity, ODG at object granularity), using the
        plan's capacity-proportional targets."""
        work = self.compile()
        analysis = self.analyze()
        p = self.config.partition
        return self._stage(
            "partition",
            lambda: self.cache.get_or_build_info(
                *_partition_entry(
                    work, analysis, p.nparts, p.granularity, p.method,
                    self.cluster(),
                )
            ),
        )

    def plan(self) -> DistributionPlan:
        """Distribution plan: a home node for every class/object."""
        work = self.compile()
        p = self.config.partition
        return self._stage(
            "plan",
            lambda: self.cache.get_or_build_info(
                *_plan_entry(
                    work, p.nparts, p.granularity, p.method, self.cluster(),
                    p.pin_main, p.force_distribution,
                )
            ),
        )

    def rewrite(self) -> RewriteArtifact:
        """Communication-rewritten program (uncached; Table 2 times it)."""
        work = self.compile()
        plan = self.plan()
        return self._stage(
            "rewrite", lambda: (rewrite_workload(work, plan), False)
        )

    def baseline(self) -> SequentialResult:
        """Centralized baseline on the slowest cluster machine."""
        work = self.compile()
        node = min(self.cluster().nodes, key=lambda n: n.cpu_hz)
        entry = _sequential_entry(work, node, self.config.backend.engine)
        return self._stage(
            "sequential",
            lambda: self.cache.get_or_build_info(*entry),
        )

    def replicas(self) -> Optional[Dict[str, tuple]]:
        """The quorum replica map for this experiment (class -> node tuple,
        primary first), or None when replication is off or nothing is safe
        to replicate.  Derived deterministically from the plan + rewritten
        program, so it needs no stage cache of its own."""
        factor = self.config.partition.replication
        if factor <= 1:
            return None
        from repro.distgen.quorum import plan_replication

        rmap = plan_replication(
            self.plan(),
            self.rewrite().program,
            self.cluster().size,
            factor,
        )
        return rmap or None

    def execute(self, engine: Optional[str] = None) -> DistributedResult:
        """One distributed execution of the rewritten program on the
        configured backend, never cached (:meth:`run` caches it on the
        deterministic simulator).  ``engine`` overrides the configured VM
        tier, which is how the oracle compares the three on one cluster."""
        backend = self.config.backend
        return DistributedExecutor(
            self.rewrite().program, self.plan(), self.cluster(),
            async_writes=backend.async_writes, backend=backend.name,
            faults=self.config.cluster.faults, replicas=self.replicas(),
            engine=engine or backend.engine,
            recovery=self.config.cluster.recovery,
        ).run(max_events=backend.max_events)

    def run(self) -> ExperimentResult:
        """The full chain: baseline, plan, rewrite, distributed execution,
        output-equivalence check, speedup — one typed result + report."""
        if self._result is not None:
            return self._result
        work = self.compile()
        cluster = self.cluster()
        seq = self.baseline()
        plan = self.plan()
        rewritten = self.rewrite()
        if self.config.backend.is_virtual:
            # only the simulator is deterministic; wall-clock backends must
            # really execute every time
            dist = self._stage(
                "execute",
                lambda: self.cache.get_or_build_info(
                    "execute",
                    {
                        "source_fp": work.source_fp,
                        "config": self.config.to_dict(),
                        "cluster": cluster_signature(cluster),
                    },
                    self.execute,
                ),
            )
        else:
            dist = self._stage("execute", lambda: (self.execute(), False))

        if (
            not dist.degraded
            and dist.stdout and seq.stdout
            and dist.stdout[-1] != seq.stdout[-1]
        ):
            # a degraded run legitimately produced partial output — the
            # divergence check only applies to fault-free completions.
            # A *recovered* run (crashes masked by the recovery tier) is
            # not degraded, so it is held to full output equality: that is
            # the recovery contract.
            raise ExperimentError(
                f"{self.config.label()}: distributed output diverged: "
                f"{seq.stdout[-1]!r} vs {dist.stdout[-1]!r}"
            )
        self._result = ExperimentResult(
            config=self.config,
            plan=plan,
            sequential=seq,
            distributed=dist,
            rewrite_stats=rewritten.stats,
            report=self.report(),
        )
        return self._result

    # -------------------------------------------------------- conformance
    def conformance(self):
        """Differentially verify this experiment's equivalence claims: the
        fast and compiled VM tiers against the per-step reference oracle on
        its workload, and the configured distributed backend against the
        sequential baseline (stdout byte-identity, result equality,
        NodeStats sanity).  On the ``sim`` backend an undegraded run is also
        compared byte-for-byte across the three VM tiers, NodeStats
        included (``sim.determinism``).

        Returns a :class:`repro.testing.oracle.ConformanceOutcome`; an
        empty ``divergences`` list means the claims hold for this
        configuration.  This is the programmatic face of ``repro fuzz`` —
        same oracle, one hand-picked scenario instead of generated ones."""
        from repro.testing.oracle import check_experiment

        return check_experiment(self)

    # -------------------------------------------------------------- report
    def report(self) -> Report:
        """Structured record of everything run so far (complete after
        :meth:`run`); serializes to JSON via :meth:`Report.to_json`."""
        from dataclasses import asdict

        stages = [
            StageTiming(e.stage, e.elapsed_s, bool(e.cache_hit))
            for e in self.recorder.stages
        ]
        report = Report(
            config=self.config.to_dict(),
            stages=stages,
            cache_hits=sum(1 for t in stages if t.cache_hit),
            cache_misses=sum(1 for t in stages if not t.cache_hit),
        )
        plan = self._artifacts.get("plan")
        if plan is not None:
            report.partition = {
                "nparts": plan.nparts,
                "method": plan.method,
                "granularity": plan.granularity,
                "edgecut": plan.edgecut,
                "main_partition": plan.main_partition,
            }
        seq = self._artifacts.get("sequential")
        dist = self._artifacts.get("execute")
        report.replication = self.config.partition.replication
        report.vm_engine = self.config.backend.engine
        runs = [res for res in (seq, dist) if res is not None]
        if runs:
            report.jit = {}
            for res in runs:
                for key, value in res.jit.items():
                    report.jit[key] = report.jit.get(key, 0) + value
        if seq is not None:
            # the Figure 11 rule keeps the ratio commensurable: virtual
            # seconds on the simulator, measured wall seconds elsewhere
            report.sequential_s = (
                seq.exec_time_s
                if self.config.backend.is_virtual
                else max(seq.wall_time_s, 1e-9)
            )
        if seq is not None and dist is not None:
            report.distributed_s = dist.makespan_s
            report.speedup_pct = (
                100.0 * report.sequential_s / max(dist.makespan_s, 1e-9)
            )
            report.messages = dist.total_messages
            report.bytes = dist.total_bytes
            report.node_stats = [asdict(ns) for ns in dist.node_stats]
            report.faults = [f.to_dict() for f in dist.faults]
            report.degraded = dist.degraded
            report.recovered = [f.to_dict() for f in dist.recovered]
            report.checkpoint_overhead_cycles = dist.checkpoint_overhead_cycles
            report.recovery_cycles = dist.recovery_cycles
            from repro.runtime.backend import latency_summary

            served = sum(ns.requests_served for ns in dist.node_stats)
            report.throughput_rps = served / max(dist.makespan_s, 1e-9)
            lat = latency_summary(dist.latency_s)
            report.latency_count = lat["latency_count"]
            report.latency_p50_ms = lat["latency_p50_ms"]
            report.latency_p95_ms = lat["latency_p95_ms"]
            report.latency_p99_ms = lat["latency_p99_ms"]
            if self.config.partition.replication > 1:
                from repro.distgen.quorum import plan_availability

                report.availability = plan_availability(self.replicas() or {})
        elif seq is not None:
            report.node_stats = [asdict(ns) for ns in seq.node_stats]
        rewritten = self._artifacts.get("rewrite")
        if rewritten is not None:
            report.rewrites = rewritten.stats.total
        return report
