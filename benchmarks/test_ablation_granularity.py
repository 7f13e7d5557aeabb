"""Ablation — class-level vs object-level distribution granularity
(DESIGN.md §5.1).

The paper partitions the CRG for actual distribution while building the
finer-grained ODG machinery ("Currently we use the class relation graph
partitioning to distribute the program").  This bench compares the two
granularities end-to-end: plan edgecut, dependent-class count, and the
distributed run's message traffic on the bank workload.
"""

from __future__ import annotations

from bench_utils import write_artifact

from repro.distgen import build_plan, rewrite_program
from repro.api.experiment import compile_workload
from repro.runtime.cluster import paper_testbed
from repro.runtime.executor import DistributedExecutor


def _run(granularity: str):
    work = compile_workload("bank", "test")
    plan = build_plan(work.bprogram, 2, granularity=granularity, ubfactor=1.3)
    rewritten, stats = rewrite_program(work.bprogram, plan)
    result = DistributedExecutor(rewritten, plan, paper_testbed()).run()
    return plan, stats, result


def test_granularity_comparison(benchmark, out_dir):
    results = benchmark.pedantic(
        lambda: {g: _run(g) for g in ("class", "object")}, rounds=1, iterations=1
    )
    lines = ["Ablation: distribution granularity (bank workload)"]
    outputs = {}
    for g, (plan, stats, result) in results.items():
        lines.append(
            f"  {g:>6}: edgecut={plan.edgecut:.0f} "
            f"dependent={sorted(plan.dependent_classes)} "
            f"rewrites={stats.total} messages={result.total_messages} "
            f"bytes={result.total_bytes}"
        )
        outputs[g] = result.stdout[-1] if result.stdout else None
    write_artifact(out_dir, "ablation_granularity.txt", "\n".join(lines))

    # both granularities must compute the same program result
    assert outputs["class"] == outputs["object"] is not None
    for g, (plan, stats, result) in results.items():
        assert plan.granularity == g
        assert result.stdout, g
    # object granularity tracks allocation sites, so it has site homes
    assert results["object"][0].site_home
    assert not results["class"][0].site_home
