"""Figure artifact generation (paper Figures 3–9).

Each function returns the artifact text; the figure benches write them under
``benchmarks/out/``.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.bytecode import disassemble_method
from repro.codegen import StrongARMTarget, X86Target, method_to_trees, render_tree
from repro.distgen import build_plan, rewrite_program
from repro.api.experiment import analyze_workload, compile_workload
from repro.lang import analyze, parse_program
from repro.bytecode import compile_program
from repro.partition import part_graph
from repro.quad import build_quads, format_method

#: the Figure 5 input: the paper's Example.ex method, verbatim
FIG5_SOURCE = """
public class Example {
    int ex(int b) {
        b = 4;          // 1
        if (b > 2) {    // 2
            b++;        // 3
        }
        return b;       // 4
    }
}
"""


def fig3_fig4(size: str = "test") -> Tuple[str, str]:
    """(Figure 3 CRG VCG text, Figure 4 ODG VCG text with partition ids) for
    the bank running example."""
    a = analyze_workload(compile_workload("bank", size), nparts=2)
    crg_vcg = a.crg.to_vcg("class relation graph (bank)")
    graph, order = a.odg.partition_graph()
    result = part_graph(graph, 2)
    labels = {uid: a.odg.nodes[uid] for uid in order}
    # Figure 4 annotates labels with [partition]
    from repro.graph.vcg import vcg_digraph

    part_of = {uid: result.parts[i] for i, uid in enumerate(order)}
    nodes = [
        (uid, f"{labels[uid]} [{part_of[uid]}]") for uid in order
    ]
    edges = [
        (e.src, e.dst, e.kind)
        for e in a.odg.edges()
        if e.kind != "reference"  # "we can safely abandon it"
    ]
    odg_vcg = vcg_digraph("object dependence graph (bank, 2-way)", nodes, edges)
    return crg_vcg, odg_vcg


def _example_quads():
    ast = parse_program(FIG5_SOURCE)
    table = analyze(ast)
    bp = compile_program(ast, table)
    return build_quads(bp.classes["Example"].methods["ex"], table)


def fig5() -> str:
    """Java → quad listing in the paper's exact format."""
    return format_method(_example_quads())


def fig6() -> str:
    """Tree representation of the quads."""
    qm = _example_quads()
    chunks = []
    for bid, trees in method_to_trees(qm):
        for tree in trees:
            chunks.append(render_tree(tree))
    return "\n\n".join(chunks)


def fig7() -> Dict[str, str]:
    """x86 and StrongARM listings for the example method."""
    qm = _example_quads()
    return {
        "x86": X86Target().emit_method(qm),
        "StrongARM": StrongARMTarget().emit_method(qm),
    }


def fig8_fig9(size: str = "test") -> Dict[str, str]:
    """Original vs transformed bytecode for (a) a dependent-object method
    invocation (Figure 8) and (b) a remote instantiation (Figure 9), from
    the bank example."""
    work = compile_workload("bank", size)
    plan = build_plan(work.bprogram, 2, ubfactor=1.3)
    # make sure Account is treated as dependent for demonstration purposes
    plan.dependent_classes.update({"Account", "Bank"})
    rewritten, _ = rewrite_program(work.bprogram, plan)
    out: Dict[str, str] = {}
    out["fig8_before"] = disassemble_method(
        work.bprogram.classes["Bank"].methods["withdraw"]
    )
    out["fig8_after"] = disassemble_method(
        rewritten.classes["Bank"].methods["withdraw"]
    )
    out["fig9_before"] = disassemble_method(
        work.bprogram.classes["Bank"].methods["initializeAccounts"]
    )
    out["fig9_after"] = disassemble_method(
        rewritten.classes["Bank"].methods["initializeAccounts"]
    )
    return out
