"""Sweep orchestrator bench — the batch layer every scaling experiment
rides on.

Runs a 12-point (workload × partitioner × cluster) grid through
``SweepRunner`` twice against one cache and persists the result table plus
the cache telemetry.  Shape claims:

* within the cold run the cache already shares upstream stages (hits > 0);
* the warm repeat is fully served from the cache and byte-identical;
* every configuration produces a live distributed run (messages flow).
"""

from __future__ import annotations

from bench_utils import write_artifact

from repro.harness.cache import StageCache
from repro.harness.sweep import SweepRunner, sweep_grid

GRID_WORKLOADS = ("bank", "method", "crypt", "heapsort")
GRID_METHODS = ("multilevel", "kl", "roundrobin")


def test_sweep_grid_with_cache(benchmark, timing_dir):
    grid = sweep_grid(workloads=GRID_WORKLOADS, methods=GRID_METHODS)
    assert len(grid) == 12
    cache = StageCache()

    cold = benchmark.pedantic(
        lambda: SweepRunner(grid, cache=cache).run(), rounds=1, iterations=1
    )
    warm = SweepRunner(grid, cache=cache).run()

    write_artifact(
        timing_dir,
        "sweep.txt",
        "\n".join(
            [cold.table(), "", "cold: " + cold.summary(),
             "warm: " + warm.summary(), cache.summary()]
        ),
    )

    assert cold.cache_hits > 0
    assert warm.cache_misses == 0
    assert warm.table() == cold.table()
    for r in cold.records:
        rep = r.report
        assert rep.speedup_pct > 0 and rep.messages >= 1, r.config.label()
