"""Profile-guided repartitioning — the feedback loop the paper plans.

Section 6 of the paper ends: "eventually, be able to redistribute the
program according to the actual access patterns and resource requirements".
This script runs the loop once, offline:

  1. profile the db workload (method durations + memory allocation),
  2. convert measurements into per-class resource weights,
  3. re-partition the ODG under uniform vs profiled weights,
  4. compare edgecut and per-constraint balance.

Run:  python examples/profile_guided_repartition.py
"""

from repro.analysis.resources import UNIFORM, from_profile
from repro.api import Experiment
from repro.graph.metrics import imbalance
from repro.harness.tables import run_profiled
from repro.partition import part_graph
from repro.profiler.report import to_resource_inputs


def main() -> None:
    name = "db"
    exp = Experiment.from_options(name)

    # 1. profile
    _, duration_report = run_profiled(name, "method-duration", "test")
    _, memory_report = run_profiled(name, "memory-usage", "test")
    print("hot methods by measured duration:")
    for method, cycles in duration_report.top("durations_cycles", 5):
        print(f"  {method:30s} {cycles:>10} cycles")
    print("\nallocation profile:")
    for kind, total in memory_report.top("bytes_by_kind", 5):
        print(f"  {kind:30s} {total:>10} bytes")

    # 2. measured weights
    cycles_by_class, bytes_by_class = to_resource_inputs(
        duration_report, memory_report
    )
    profiled_model = from_profile(cycles_by_class, bytes_by_class)

    # 3 + 4. repartition under both models
    analysis = exp.analyze()
    graph, _ = analysis.odg.partition_graph()
    objects_by_uid = {o.uid: o for o in analysis.objects}
    print("\nmodel              edgecut   imbalance (mem/cpu/battery)")
    for model in (UNIFORM, profiled_model):
        weighted = model.apply(graph, objects_by_uid, exp.compile().bprogram)
        result = part_graph(weighted, 2, ubfactor=1.5)
        imb = imbalance(weighted, result.parts, 2)
        print(
            f"{model.name:18s} {result.edgecut:7.0f}   "
            + " / ".join(f"{x:.2f}" for x in imb)
        )
    print(
        "\nThe profiled model balances *measured* load: the partition is "
        "driven by where cycles and bytes actually went, which is exactly "
        "the input the paper's adaptive repartitioning needs."
    )


if __name__ == "__main__":
    main()
