"""Quickstart: the paper's Bank/Account running example, end to end.

Takes the monolithic MJ program of Figure 2 through the whole
infrastructure of Figure 1:

  source -> bytecode -> RTA call graph -> class relation graph (Fig. 3)
         -> object dependence graph (Fig. 4) -> 2-way partitioning
         -> communication rewriting (Figs. 8/9) -> centralized AND
            distributed execution on the paper's simulated testbed.

Run:  python examples/quickstart.py
"""

from repro.api import Experiment
from repro.api.experiment import rewrite_workload
from repro.bytecode import disassemble_method


def main() -> None:
    exp = Experiment.from_options("bank")
    work = exp.compile()
    print(f"compiled {work.num_classes} classes, "
          f"{work.num_methods} methods, {work.size_kb:.1f} KB\n")

    # --- dependence analysis -------------------------------------------------
    analysis = exp.analyze()
    crg = analysis.crg
    print(f"class relation graph: {crg.num_nodes} nodes, {crg.num_edges} edges")
    for edge in crg.edges():
        label = f"[{edge.label}]" if edge.label else ""
        print(f"  {edge.src} --{edge.kind}{label}--> {edge.dst} (x{edge.count})")

    odg = analysis.odg
    print(f"\nobject dependence graph: {odg.num_nodes} objects, "
          f"{odg.num_edges} relations")
    for obj in odg.objects:
        print(f"  {obj.label:15s} from {obj.uid}")

    # --- partitioning ---------------------------------------------------------
    print(f"\n2-way ODG partition edgecut: {analysis.odg_partition.edgecut:.0f}")

    # --- communication generation ---------------------------------------------
    # force a genuine 2-way split for demonstration (the cost model would
    # co-locate this small, chatty example otherwise)
    from repro.distgen import build_plan

    plan = build_plan(work.bprogram, 2, force_distribution=True, pin_main_to=1)
    rewrite = rewrite_workload(work, plan)
    rewritten, stats = rewrite.program, rewrite.stats
    print(f"\ndistribution plan: homes={plan.class_home}, "
          f"dependent={sorted(plan.dependent_classes)}")
    print(f"rewrites: {stats.instantiations} instantiations, "
          f"{stats.invocations} invocations, "
          f"{stats.field_gets + stats.field_sets} field accesses "
          f"({stats.this_peepholes} kept direct via 'this')")
    if plan.dependent_classes:
        print("\ntransformed Bank.withdraw:")
        print(disassemble_method(rewritten.classes["Bank"].methods["withdraw"]))

    # --- execution --------------------------------------------------------------
    seq = exp.baseline()
    print(f"\ncentralized (800 MHz): {seq.exec_time_s * 1e3:.3f} virtual ms "
          f"-> {seq.stdout}")
    from repro.runtime.executor import DistributedExecutor

    dist = DistributedExecutor(rewritten, plan, exp.cluster()).run()
    print(f"distributed (2 nodes): {dist.makespan_s * 1e3:.3f} virtual ms, "
          f"{dist.total_messages} messages, {dist.total_bytes} bytes "
          f"-> {dist.stdout}")
    print(f"speedup: {100 * seq.exec_time_s / dist.makespan_s:.1f}%")
    assert dist.stdout[-1] == seq.stdout[-1]


if __name__ == "__main__":
    main()
