"""Batch sweep orchestration: grids of pipeline configurations.

The paper's evaluation is a family of tables that all re-run the same
front-end (compile → RTA → CRG/ODG) while varying only downstream knobs —
partitioner, node count, network, granularity, runtime backend.
``SweepRunner`` makes that cheap: each configuration is one
:class:`repro.api.Experiment` routed through the content-addressed
:class:`~repro.harness.cache.StageCache`, so within a sweep every workload
compiles once, is analyzed once per (nparts, method), and — because the
cluster runtime is a deterministic discrete-event simulation — even
executions are memoized across repeated runs.

Fan-out: ``SweepRunner(configs, workers=N)`` spreads configurations over a
``concurrent.futures`` process pool; each worker process holds its own
cache shard, warmed by its first configuration.  ``workers<=1`` runs
serially in-process against one shared cache (what tests use for
determinism and for measuring cache effectiveness).

The result table contains only *virtual* quantities (simulated times,
message counts, edgecuts), so a fully cached sweep is byte-identical to an
uncached one — the regression test relies on this.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.api.config import ExperimentConfig, crash_plan, roster_endpoints
from repro.api.experiment import Experiment
from repro.api.report import Report
from repro.errors import ReproError
from repro.harness.cache import StageCache, default_cache
from repro.runtime.cluster import NETWORKS, ClusterSpec  # noqa: F401  (re-export)
from repro.runtime.executor import NodeStats, aggregate_node_stats
from repro.workloads import TABLE1_ORDER


class SweepError(ReproError):
    """Bad sweep configuration."""


@dataclass(frozen=True)
class SweepConfig:
    """One point of the sweep grid.  Frozen + primitive fields only: the
    config is both the process-pool task payload and the flat-kwargs shape
    behind one :class:`~repro.api.config.ExperimentConfig`.  Validation
    happens by building that typed config — unknown plugin names raise
    :class:`~repro.errors.UnknownPluginError`, bad values
    :class:`~repro.errors.ConfigError`."""

    workload: str
    size: str = "test"
    method: str = "multilevel"
    nparts: int = 2
    network: str = "ethernet_100m"
    granularity: str = "class"
    backend: str = "sim"
    #: planned crash as "node:cycle" ("" = fault-free) — the fault the
    #: recovery axis masks
    crash: str = ""
    #: checkpoint interval in cycles (0 = recovery off); a non-zero value
    #: puts the recovery tier's overhead/latency on the sweep axis
    recovery_interval: int = 0
    #: service deployment: force a genuine distribution even when the
    #: makespan objective would co-locate (open-loop service workloads
    #: need remote round-trips for throughput/latency to mean anything)
    serve: bool = False
    #: comma-separated ``host:port`` endpoints for socket backends
    #: ("" = localhost ephemeral ports)
    roster: str = ""

    def __post_init__(self) -> None:
        self.experiment_config()  # validates every field

    def _recovery(self):
        if self.recovery_interval <= 0:
            return None
        from repro.runtime.checkpoint import RecoveryPlan

        return RecoveryPlan(interval=self.recovery_interval)

    def experiment_config(self) -> ExperimentConfig:
        """The typed config this grid point denotes."""
        return ExperimentConfig.from_options(
            self.workload, size=self.size, method=self.method,
            nparts=self.nparts, granularity=self.granularity,
            network=self.network, backend=self.backend,
            faults=crash_plan(self.crash), recovery=self._recovery(),
            force_distribution=self.serve,
            roster=roster_endpoints(self.roster),
        )

    def key(self) -> dict:
        return asdict(self)

    def label(self) -> str:
        tags = ""
        if self.crash:
            tags += f"/crash{self.crash}"
        if self.recovery_interval > 0:
            tags += f"/rec{self.recovery_interval}"
        if self.serve:
            tags += "/serve"
        return (
            f"{self.workload}/{self.method}/k{self.nparts}/{self.network}"
            f"/{self.backend}{tags}"
        )


def build_cluster(cfg: SweepConfig) -> ClusterSpec:
    """The cluster a configuration runs on: the paper's heterogeneous
    two-node testbed for ``nparts == 2``, a homogeneous cluster otherwise,
    with the link swapped for the configured network preset."""
    return cfg.experiment_config().cluster.build(cfg.nparts)


def sweep_grid(
    workloads: Optional[Sequence[str]] = None,
    methods: Sequence[str] = ("multilevel",),
    cluster_sizes: Sequence[int] = (2,),
    networks: Sequence[str] = ("ethernet_100m",),
    size: str = "test",
    granularity: str = "class",
    backends: Sequence[str] = ("sim",),
    crash: str = "",
    recovery_intervals: Sequence[int] = (0,),
    serve: bool = False,
    roster: str = "",
) -> List[SweepConfig]:
    """The full cross product (workload × method × nparts × network ×
    backend × recovery interval).  ``recovery_intervals`` puts the
    checkpoint cadence on an axis (0 = recovery off); pair it with
    ``crash="node:cycle"`` to measure what masking that crash costs at
    each cadence."""
    names = list(workloads) if workloads is not None else list(TABLE1_ORDER)
    return [
        SweepConfig(
            workload=name, size=size, method=method, nparts=nparts,
            network=network, granularity=granularity, backend=backend,
            crash=crash, recovery_interval=interval, serve=serve,
            roster=roster,
        )
        for name in names
        for method in methods
        for nparts in cluster_sizes
        for network in networks
        for backend in backends
        for interval in recovery_intervals
    ]


@dataclass
class SweepRecord:
    """Result of one configuration: virtual measurements + cache telemetry."""

    config: SweepConfig
    sequential_s: float
    distributed_s: float
    speedup_pct: float
    messages: int
    bytes: int
    edgecut: float
    rewrites: int
    node_stats: List[NodeStats] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    elapsed_s: float = 0.0
    #: the structured per-run record the --json CLI flag serializes
    report: Optional[Report] = None
    #: why this grid point produced no measurements (None = it ran clean);
    #: a failing config yields an error record, never aborts the sweep
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def aggregate(self) -> Dict[str, float]:
        return aggregate_node_stats(self.node_stats)


def error_record(
    cfg: SweepConfig,
    error: str,
    cache_hits: int = 0,
    cache_misses: int = 0,
    elapsed_s: float = 0.0,
) -> SweepRecord:
    """The zero-measurement record a failed grid point contributes."""
    return SweepRecord(
        config=cfg,
        sequential_s=0.0,
        distributed_s=0.0,
        speedup_pct=0.0,
        messages=0,
        bytes=0,
        edgecut=0.0,
        rewrites=0,
        cache_hits=cache_hits,
        cache_misses=cache_misses,
        elapsed_s=elapsed_s,
        error=error,
    )


def run_config(cfg: SweepConfig, cache: Optional[StageCache] = None) -> SweepRecord:
    """One grid point end to end — a thin consumer of
    :class:`repro.api.Experiment`, every stage through ``cache``.  An
    infrastructure failure (a diverged run, a backend fault) becomes an
    error record with real cache/elapsed telemetry, so one poisoned config
    cannot take down the rest of the grid."""
    cache = cache if cache is not None else default_cache()
    hits0, misses0 = cache.counts()
    t0 = time.perf_counter()

    try:
        res = Experiment(cfg.experiment_config(), cache=cache).run()
    except ReproError as exc:
        hits1, misses1 = cache.counts()
        return error_record(
            cfg,
            f"{type(exc).__name__}: {exc}",
            cache_hits=hits1 - hits0,
            cache_misses=misses1 - misses0,
            elapsed_s=time.perf_counter() - t0,
        )

    hits1, misses1 = cache.counts()
    return SweepRecord(
        config=cfg,
        sequential_s=res.sequential_s,
        distributed_s=res.distributed_s,
        speedup_pct=res.speedup_pct,
        messages=res.messages,
        bytes=res.bytes,
        edgecut=res.plan.edgecut,
        rewrites=res.rewrite_stats.total,
        node_stats=res.distributed.node_stats,
        cache_hits=hits1 - hits0,
        cache_misses=misses1 - misses0,
        elapsed_s=time.perf_counter() - t0,
        report=res.report,
    )


def _run_config_in_worker(cfg: SweepConfig) -> SweepRecord:
    """Process-pool entry point: each worker uses its own default cache,
    warm across the configs the pool hands it."""
    return run_config(cfg, default_cache())


@dataclass
class SweepResult:
    records: List[SweepRecord]
    elapsed_s: float
    workers: int

    # -------------------------------------------------------------- telemetry
    @property
    def cache_hits(self) -> int:
        return sum(r.cache_hits for r in self.records)

    @property
    def cache_misses(self) -> int:
        return sum(r.cache_misses for r in self.records)

    @property
    def cache_hit_rate(self) -> float:
        calls = self.cache_hits + self.cache_misses
        return self.cache_hits / calls if calls else 0.0

    # -------------------------------------------------------------- rendering
    def table(self) -> str:
        """Result table.  For ``sim``-backend grids it contains virtual
        quantities only, so cached and uncached runs render byte-identically;
        wall-clock backends report measured times that naturally vary."""
        from repro.harness.tables import _fmt_table

        rows = []
        for r in self.records:
            agg = r.aggregate if r.ok else {"busy_frac": 0.0}
            status = "ok" if r.ok else "ERROR"
            if r.ok and r.report is not None:
                # fault-free grids keep rendering "ok" byte-identically;
                # fault/recovery axes say what actually happened to the run
                if r.report.recovered:
                    status = "recovered"
                elif r.report.degraded:
                    status = "degraded"
            rep = r.report
            tput = rep.throughput_rps if rep is not None else None
            p50 = rep.latency_p50_ms if rep is not None else None
            p95 = rep.latency_p95_ms if rep is not None else None
            p99 = rep.latency_p99_ms if rep is not None else None
            rows.append(
                [
                    r.config.workload,
                    r.config.method,
                    r.config.nparts,
                    r.config.network,
                    r.config.backend,
                    f"{r.sequential_s * 1e3:.3f}",
                    f"{r.distributed_s * 1e3:.3f}",
                    f"{r.speedup_pct:.1f}",
                    r.messages,
                    r.bytes,
                    f"{r.edgecut:.0f}",
                    r.rewrites,
                    f"{100.0 * agg['busy_frac']:.1f}",
                    f"{tput:.0f}" if tput is not None else "-",
                    f"{p50:.3f}" if p50 is not None else "-",
                    f"{p95:.3f}" if p95 is not None else "-",
                    f"{p99:.3f}" if p99 is not None else "-",
                    status,
                ]
            )
        return _fmt_table(
            [
                "workload", "method", "k", "network", "backend", "seq ms",
                "dist ms", "speedup %", "msgs", "bytes", "edgecut",
                "rewrites", "busy %", "tput r/s", "p50 ms", "p95 ms",
                "p99 ms", "status",
            ],
            rows,
        )

    def summary(self) -> str:
        calls = self.cache_hits + self.cache_misses
        failed = sum(1 for r in self.records if not r.ok)
        suffix = f"; {failed} config(s) FAILED" if failed else ""
        return (
            f"{len(self.records)} configs in {self.elapsed_s:.2f} s wall-clock "
            f"({self.workers or 1} worker(s)); stage cache: "
            f"{self.cache_hits}/{calls} hits "
            f"({100.0 * self.cache_hit_rate:.1f}% hit rate){suffix}"
        )

    def to_dict(self) -> dict:
        """Machine-readable sweep outcome: one
        :class:`~repro.api.report.Report` dict per grid point plus the
        cache telemetry (what ``repro sweep --json`` emits)."""
        return {
            "records": [
                r.report.to_dict() if r.report is not None else None
                for r in self.records
            ],
            "errors": [
                {"config": r.config.key(), "error": r.error}
                for r in self.records
                if r.error is not None
            ],
            "elapsed_s": self.elapsed_s,
            "workers": self.workers,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }

    def to_json(self, **dumps_kwargs) -> str:
        import json

        dumps_kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **dumps_kwargs)


class SweepRunner:
    """Fan a grid of :class:`SweepConfig` across a process pool (or run
    serially for ``workers <= 1``) and aggregate the records in grid order."""

    def __init__(
        self,
        configs: Iterable[SweepConfig],
        workers: int = 0,
        cache: Optional[StageCache] = None,
    ) -> None:
        self.configs = list(configs)
        if not self.configs:
            raise SweepError("empty sweep grid")
        if workers > 1 and cache is not None:
            # pool workers are separate processes: a caller-supplied cache
            # can neither be consulted nor warmed there, so silently
            # accepting it would drop the caching the caller asked for
            raise SweepError(
                "an explicit cache only works with workers <= 1 (pool "
                "workers each use their own process-default cache)"
            )
        self.workers = workers
        self.cache = cache

    def run(self) -> SweepResult:
        t0 = time.perf_counter()
        if self.workers > 1:
            # one future per config (not pool.map): a config whose worker
            # dies — or a BrokenProcessPool taking the survivors with it —
            # yields an error record for that grid point instead of
            # aborting the whole sweep
            with ProcessPoolExecutor(max_workers=self.workers) as pool:
                futures = [
                    pool.submit(_run_config_in_worker, cfg)
                    for cfg in self.configs
                ]
                records = []
                for cfg, fut in zip(self.configs, futures):
                    try:
                        records.append(fut.result())
                    except Exception as exc:  # BrokenProcessPool et al.
                        records.append(
                            error_record(cfg, f"{type(exc).__name__}: {exc}")
                        )
        else:
            records = [run_config(cfg, self.cache) for cfg in self.configs]
        return SweepResult(
            records=records,
            elapsed_s=time.perf_counter() - t0,
            workers=self.workers,
        )
