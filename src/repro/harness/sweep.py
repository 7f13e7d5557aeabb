"""Batch sweep orchestration: grids of experiment configurations.

The paper's evaluation is a family of tables that all re-run the same
front-end (compile → RTA → CRG/ODG) while varying only downstream knobs —
partitioner, node count, network, granularity, runtime backend.  A grid
point is an :class:`~repro.api.config.ExperimentConfig` (``sweep_grid``
builds the cross product) and its row is the
:class:`~repro.api.report.Report` one :class:`repro.api.Experiment` run
emits.  ``SweepRunner`` makes the grid cheap: every run goes through the
content-addressed :class:`~repro.harness.cache.StageCache`, so within a
sweep every workload compiles once, is analyzed once per (nparts, method),
and — because the cluster runtime is a deterministic discrete-event
simulation — even executions are memoized across repeated runs.

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
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.api.config import ExperimentConfig, crash_plan, roster_endpoints
from repro.api.experiment import Experiment
from repro.api.report import Report
from repro.errors import ReproError
from repro.harness.cache import StageCache, default_cache
from repro.runtime.checkpoint import RecoveryPlan
from repro.workloads import TABLE1_ORDER


class SweepError(ReproError):
    """Bad sweep configuration."""


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
) -> List[ExperimentConfig]:
    """The full cross product (workload × method × nparts × network ×
    backend × recovery interval), validated as it is built: unknown plugin
    names raise :class:`~repro.errors.UnknownPluginError`, bad values
    :class:`~repro.errors.ConfigError`.  ``recovery_intervals`` puts the
    checkpoint cadence on an axis (0 = recovery off); pair it with
    ``crash="node:cycle"`` to measure what masking that crash costs at
    each cadence.  ``serve`` forces a genuine distribution (open-loop
    service workloads need remote round-trips); ``roster`` lists
    ``host:port`` endpoints for socket backends."""
    names = list(workloads) if workloads is not None else list(TABLE1_ORDER)
    faults = crash_plan(crash)
    endpoints = roster_endpoints(roster)
    return [
        ExperimentConfig.from_options(
            name, size=size, method=method, nparts=nparts,
            granularity=granularity, network=network, backend=backend,
            faults=faults,
            recovery=RecoveryPlan(interval=interval) if interval > 0 else None,
            force_distribution=serve, roster=endpoints,
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
    """One grid point: the :class:`Report` its run emitted — or, for a
    failed point, why there is none — plus the stage-cache calls and wall
    time the point cost."""

    config: ExperimentConfig
    report: Optional[Report] = None
    #: why this grid point produced no report (None = it ran clean); a
    #: failing config yields an error record, never aborts the sweep
    error: Optional[str] = None
    cache_hits: int = 0
    cache_misses: int = 0
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


def run_config(
    config: ExperimentConfig, cache: Optional[StageCache] = None
) -> SweepRecord:
    """One grid point end to end — a thin consumer of
    :class:`repro.api.Experiment`, every stage through ``cache`` (the
    process default when None, which is what a pool worker uses).  An
    infrastructure failure (a diverged run, a backend fault) becomes an
    error record with real cache/elapsed telemetry, so one poisoned config
    cannot take down the rest of the grid."""
    cache = cache if cache is not None else default_cache()
    hits0, misses0 = cache.counts()
    t0 = time.perf_counter()
    record = SweepRecord(config)
    try:
        record.report = Experiment(config, cache=cache).run().report
    except ReproError as exc:
        record.error = f"{type(exc).__name__}: {exc}"
    hits1, misses1 = cache.counts()
    record.cache_hits = hits1 - hits0
    record.cache_misses = misses1 - misses0
    record.elapsed_s = time.perf_counter() - t0
    return record


#: the measurement cells of a grid point that produced no report
_ERROR_CELLS = [
    "0.000", "0.000", "0.0", 0, 0, "0", 0, "0.0", "-", "-", "-", "-", "ERROR",
]


def _opt(value: Optional[float], fmt: str) -> str:
    return format(value, fmt) if value is not None else "-"


def _row(r: SweepRecord) -> list:
    cfg = r.config
    head = [
        cfg.workload.name,
        cfg.partition.method,
        cfg.partition.nparts,
        cfg.cluster.network,
        cfg.backend.name + cfg.fault_tags(),
    ]
    rep = r.report
    if rep is None:
        return head + _ERROR_CELLS
    # fault-free grids render "ok"; fault/recovery axes say what actually
    # happened to the run
    status = "recovered" if rep.recovered else (
        "degraded" if rep.degraded else "ok"
    )
    return head + [
        f"{rep.sequential_s * 1e3:.3f}",
        f"{rep.distributed_s * 1e3:.3f}",
        f"{rep.speedup_pct:.1f}",
        rep.messages,
        rep.bytes,
        f"{rep.partition['edgecut']:.0f}",
        rep.rewrites,
        f"{100.0 * rep.aggregate()['busy_frac']:.1f}",
        _opt(rep.throughput_rps, ".0f"),
        _opt(rep.latency_p50_ms, ".3f"),
        _opt(rep.latency_p95_ms, ".3f"),
        _opt(rep.latency_p99_ms, ".3f"),
        status,
    ]


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
        """Result table, one row per record, every cell read from its
        config and report.  For ``sim``-backend grids it contains virtual
        quantities only, so cached and uncached runs render
        byte-identically; wall-clock backends report measured times that
        naturally vary.  The backend cell carries the config's crash and
        recovery tags, so fault rows stay apart."""
        from repro.harness.tables import _fmt_table

        return _fmt_table(
            [
                "workload", "method", "k", "network", "backend", "seq ms",
                "dist ms", "speedup %", "msgs", "bytes", "edgecut",
                "rewrites", "busy %", "tput r/s", "p50 ms", "p95 ms",
                "p99 ms", "status",
            ],
            [_row(r) for r in self.records],
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
        :class:`~repro.api.report.Report` dict per grid point (None for a
        failed one), each failure's nested config and error, plus the cache
        telemetry (what ``repro sweep --json`` emits)."""
        return {
            "records": [
                r.report.to_dict() if r.report is not None else None
                for r in self.records
            ],
            "errors": [
                {"config": r.config.to_dict(), "error": r.error}
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
    """Fan a grid of :class:`~repro.api.config.ExperimentConfig` across a
    process pool (or run serially for ``workers <= 1``) and aggregate the
    records in grid order."""

    def __init__(
        self,
        configs: Iterable[ExperimentConfig],
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
                futures = [pool.submit(run_config, c) for c in self.configs]
                records = []
                for cfg, fut in zip(self.configs, futures):
                    try:
                        records.append(fut.result())
                    except Exception as exc:  # BrokenProcessPool et al.
                        error = f"{type(exc).__name__}: {exc}"
                        records.append(SweepRecord(cfg, error=error))
        else:
            records = [run_config(cfg, self.cache) for cfg in self.configs]
        return SweepResult(
            records=records,
            elapsed_s=time.perf_counter() - t0,
            workers=self.workers,
        )
