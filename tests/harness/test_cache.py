"""Stage-cache correctness: content addressing, identity on hit,
invalidation on any config-field change, and the cached-vs-uncached sweep
regression."""

import pytest

from repro.api import ClusterConfig, Experiment, ExperimentConfig
from repro.api.experiment import analyze_workload, compile_workload, plan_workload
from repro.harness.cache import StageCache, default_cache, fingerprint
from repro.harness.sweep import SweepRunner, sweep_grid
from repro.runtime.cluster import paper_testbed


# ------------------------------------------------------------------ fingerprint
def test_fingerprint_deterministic_and_order_sensitive():
    assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})
    assert fingerprint("x", "y") != fingerprint("y", "x")
    assert fingerprint("xy") != fingerprint("x", "y")  # separator matters
    assert fingerprint({"k": 2}) != fingerprint({"k": 3})


# ------------------------------------------------------------------ core table
def test_hit_returns_identical_object():
    cache = StageCache()
    a = cache.get_or_build("stage", {"k": 1}, lambda: object())
    b = cache.get_or_build("stage", {"k": 1}, lambda: object())
    assert a is b
    assert cache.counts() == (1, 1)


def test_any_key_field_change_misses():
    cache = StageCache()
    base = {"nparts": 2, "method": "multilevel", "ubfactor": 1.1, "seed": 17}
    first = cache.get_or_build("plan", base, lambda: object())
    for field, value in (
        ("nparts", 3),
        ("method", "kl"),
        ("ubfactor", 1.3),
        ("seed", 18),
    ):
        changed = dict(base, **{field: value})
        other = cache.get_or_build("plan", changed, lambda: object())
        assert other is not first, f"changing {field} must miss"
    stats = cache.stats()["plan"]
    assert stats.misses == 5 and stats.hits == 0


def test_stage_namespaces_are_disjoint():
    cache = StageCache()
    a = cache.get_or_build("compile", {"k": 1}, lambda: "A")
    b = cache.get_or_build("analysis", {"k": 1}, lambda: "B")
    assert (a, b) == ("A", "B")
    assert len(cache) == 2


def test_clear_resets_store_and_stats():
    cache = StageCache()
    cache.get_or_build("s", 1, lambda: 1)
    cache.get_or_build("s", 1, lambda: 1)
    cache.clear()
    assert len(cache) == 0
    assert cache.counts() == (0, 0)


def test_summary_reports_hit_rate():
    cache = StageCache()
    cache.get_or_build("compile", 1, lambda: 1)
    cache.get_or_build("compile", 1, lambda: 1)
    text = cache.summary()
    assert "hit rate" in text and "compile" in text


def test_default_cache_is_process_singleton():
    assert default_cache() is default_cache()


# ------------------------------------------------------------------ pipeline keys
def test_pipeline_analysis_keyed_by_config():
    cache = StageCache()
    work = compile_workload("bank", "test", cache=cache)
    a1 = analyze_workload(work, 2, "multilevel", cache=cache)
    assert analyze_workload(work, 2, "multilevel", cache=cache) is a1
    assert analyze_workload(work, 3, "multilevel", cache=cache) is not a1
    assert analyze_workload(work, 2, "kl", cache=cache) is not a1


def test_pipeline_plan_keyed_by_config():
    cache = StageCache()
    work = compile_workload("bank", "test", cache=cache)
    p1 = plan_workload(work, 2, cache=cache)
    assert plan_workload(work, 2, cache=cache) is p1
    assert plan_workload(work, 2, method="kl", cache=cache) is not p1
    assert plan_workload(work, 3, cache=cache) is not p1
    assert plan_workload(work, 2, cluster=paper_testbed(), cache=cache) is not p1


def test_pipeline_sequential_keyed_by_node_speed():
    # the baseline runs on the slowest node: 800 MHz on the paper testbed
    cache = StageCache()
    slow = Experiment.from_options("bank", cache=cache).baseline()
    assert Experiment.from_options("bank", cache=cache).baseline() is slow
    config = ExperimentConfig.from_options("bank").replace(
        cluster=ClusterConfig(speeds=(1.7e9, 1.7e9))
    )
    fast = Experiment(config, cache=cache).baseline()
    assert fast is not slow
    assert fast.cycles == slow.cycles  # same program, different clock
    assert fast.exec_time_s < slow.exec_time_s


def test_two_pipelines_share_one_cache():
    cache = StageCache()
    e1 = Experiment.from_options("method", cache=cache)
    e2 = Experiment.from_options("method", cache=cache)
    assert e1.compile() is e2.compile()
    assert e1.analyze() is e2.analyze()


# ------------------------------------------------------------------ regression
def test_cached_sweep_table_byte_identical_to_uncached():
    grid = sweep_grid(
        workloads=["bank", "method"], methods=("multilevel", "roundrobin")
    )
    cache = StageCache()
    cold = SweepRunner(grid, cache=cache).run()
    warm = SweepRunner(grid, cache=cache).run()
    fresh = SweepRunner(grid, cache=StageCache()).run()
    assert warm.cache_misses == 0
    assert warm.table() == cold.table()  # fully cached == computed
    assert fresh.table() == cold.table()  # independent recompute agrees
