"""Figure 1 stage / harness integration tests (fast versions of the
benches)."""

from repro.api import Experiment
from repro.api.experiment import analyze_workload, compile_workload
from repro.harness.cache import StageCache
from repro.harness.figures import fig3_fig4, fig5, fig6, fig7, fig8_fig9
from repro.harness.tables import run_profiled


def test_compile_workload_content_addressed():
    # same source through the same cache -> the identical compiled object;
    # a different cache recompiles from scratch
    w1 = compile_workload("bank", "test")
    w2 = compile_workload("bank", "test")
    assert w1.num_classes == w2.num_classes == 3
    assert w1 is w2
    w3 = compile_workload("bank", "test", cache=StageCache())
    assert w3.bprogram is not w1.bprogram
    assert w3.source_fp == w1.source_fp


def test_analysis_timings_populated():
    t = Experiment.from_options("bank").analyze().timings
    assert t.construct_crg_ms > 0
    assert t.construct_odg_ms >= 0
    assert t.partition_trg_ms >= 0
    assert t.partition_odg_ms >= 0


def test_analysis_cached():
    work = compile_workload("bank", "test")
    assert analyze_workload(work) is analyze_workload(work)


def test_speedup_validates_output_equality():
    res = Experiment.from_options("method").run()
    assert res.speedup_pct > 0
    assert res.messages >= 1
    assert res.sequential_s > 0 and res.distributed_s > 0


def test_plan_uses_cluster_capacities():
    plan = Experiment.from_options("crypt").plan()
    # main pinned to the slow machine (node 1 of the paper testbed)
    assert plan.main_partition == 1


def test_run_distributed_returns_stats():
    res = Experiment.from_options("heapsort").run()
    result = res.distributed
    assert result.makespan_s > 0
    assert len(result.node_stats) == 2
    assert result.stdout
    assert res.plan.nparts == 2


def test_figures_generate():
    crg_vcg, odg_vcg = fig3_fig4("test")
    assert "graph: {" in crg_vcg and "graph: {" in odg_vcg
    assert "IFCMP_I IConst: 4, IConst: 2, LE, BB4" in fig5()
    assert "ICONST:4" in fig6()
    listings = fig7()
    assert set(listings) == {"x86", "StrongARM"}
    rewrites = fig8_fig9("test")
    assert "invokevirtual DependentObject.access" in rewrites["fig8_after"]
    assert "invokestatic DependentObject.create" in rewrites["fig9_after"]


def test_run_profiled_returns_cycles_and_report():
    cycles, report = run_profiled("bank", "method-frequency", "test")
    assert cycles > 0
    assert report.data["counts"]

