"""Ablation — resource weight models on the ODG (DESIGN.md §5.4).

Uniform object weights (the paper's current state) vs the loop-scaled static
heuristic (its stated future work) vs profile-derived weights (the adaptive
repartitioning input): multi-constraint (memory, CPU, battery) balance of
the resulting 2-way partitions.
"""

from __future__ import annotations

from bench_utils import write_artifact

from repro.analysis.resources import STATIC_HEURISTIC, UNIFORM, from_profile
from repro.api import Experiment
from repro.graph.metrics import imbalance
from repro.harness.tables import run_profiled
from repro.partition import part_graph
from repro.profiler.report import to_resource_inputs


def _partition_with(model, exp):
    a = exp.analyze()
    graph, order = a.odg.partition_graph()
    objects_by_uid = {o.uid: o for o in a.objects}
    weighted = model.apply(graph, objects_by_uid, exp.compile().bprogram)
    result = part_graph(weighted, 2, ubfactor=1.5)
    return weighted, result


def test_resource_models(benchmark, out_dir):
    exp = Experiment.from_options("bank")

    def run():
        out = {}
        for model in (UNIFORM, STATIC_HEURISTIC, _profiled_model()):
            weighted, result = _partition_with(model, exp)
            out[model.name] = (
                result.edgecut,
                list(imbalance(weighted, result.parts, 2)),
            )
        return out

    def _profiled_model():
        _, duration_report = run_profiled("bank", "method-duration", "test")
        _, memory_report = run_profiled("bank", "memory-usage", "test")
        cycles, bytes_by = to_resource_inputs(duration_report, memory_report)
        return from_profile(cycles, bytes_by)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Ablation: resource models (bank ODG, 2-way)"]
    for name, (cut, imb) in results.items():
        lines.append(
            f"  {name:>16}: edgecut={cut:.0f} imbalance="
            + "/".join(f"{x:.2f}" for x in imb)
        )
    write_artifact(out_dir, "ablation_resources.txt", "\n".join(lines))

    assert set(results) == {"uniform", "static-heuristic", "profiled"}
    for name, (cut, imb) in results.items():
        assert cut >= 0
        assert len(imb) == 3  # memory, cpu, battery constraints
        assert all(x >= 0.99 for x in imb)


def test_profile_feedback_produces_class_weights():
    """The adaptive-repartitioning feedback path: measured durations map to
    per-class CPU weights covering the hot classes."""
    _, duration_report = run_profiled("bank", "method-duration", "test")
    _, memory_report = run_profiled("bank", "memory-usage", "test")
    cycles, bytes_by = to_resource_inputs(duration_report, memory_report)
    assert "Bank" in cycles and "Account" in cycles
    assert cycles["Bank"] > 0
    assert any(v > 0 for v in bytes_by.values())
