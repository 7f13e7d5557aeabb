"""Class Relation Graph construction (paper §2, Figure 3).

Nodes are the static (``ST_C``) and dynamic (``DT_C``) halves of each
reachable user class.  Scanning every reachable method's bytecode yields:

* **use** edges — method calls, field accesses and allocation statements
  from the scanning part to the target part;
* **export** edges — a reference type *E* may propagate from the caller to
  the callee through a parameter (or a field write): labeled with *E*;
* **import** edges — a reference type *E* may propagate back through a
  return value (or a field read): labeled with *E*.

Edge byte volumes estimate the dependence data a cross-partition placement
would transfer (argument/return/field widths), which later becomes the edge
weight for partitioning (§3).
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.acyclic import acyclic
from repro.analysis.loops import FREQUENCY, loop_levels
from repro.analysis.relgraph import RelGraph
from repro.analysis.rta import CallGraph
from repro.bytecode import opcodes as op
from repro.bytecode.model import BMethod, BProgram
from repro.lang.symbols import RUNTIME_CLASSES, ClassTable, DEPENDENT_OBJECT
from repro.lang.types import ArrayType, ClassType, Type, elem_width


def part_node(cls: str, is_static_part: bool) -> str:
    return f"{'ST' if is_static_part else 'DT'}_{cls}"


def _ref_class_of(ty: Type, table: ClassTable) -> Optional[str]:
    """User-class name carried by ``ty`` (unwrapping arrays), or None."""
    while isinstance(ty, ArrayType):
        ty = ty.elem
    if isinstance(ty, ClassType) and ty.name not in RUNTIME_CLASSES:
        if table.has(ty.name) and not table.get(ty.name).is_builtin:
            return ty.name
    return None


def _width_of(ty: Type) -> float:
    return float(elem_width(ty))


class ClassRelationGraph(RelGraph):
    """The CRG; nodes are ``ST_C`` / ``DT_C`` strings."""

    def use_graph(self):
        """Undirected use-relation graph for partitioning ("TRG")."""
        return self.to_weighted_graph(kinds=("use", "export", "import"))


def _is_user(program: BProgram, cls: str) -> bool:
    return cls in program.classes


@acyclic
def build_crg(cg: CallGraph) -> ClassRelationGraph:
    program = cg.program
    table = program.table
    crg = ClassRelationGraph()

    def src_part(method: BMethod) -> str:
        return part_node(method.class_name, method.is_static)

    # ensure every reachable class part is present
    for method in cg.reachable_methods():
        crg.add_node(src_part(method))

    for method in cg.reachable_methods():
        src = src_part(method)
        flat = method.flat()
        for ins, level in zip(flat.instrs, loop_levels(flat)):
            o = ins.op
            # access statements in loops execute more often; scale the
            # dependence-data volume by the static frequency estimate
            # (paper §3's heuristic weighting)
            freq = FREQUENCY[level]
            if o == op.NEW:
                if ins.a == DEPENDENT_OBJECT or not _is_user(program, ins.a):
                    continue
                crg.add_edge(
                    src, part_node(ins.a, False), "use", count=1, volume=8.0 * freq
                )
            elif o in op.INVOKES:
                cls, name = ins.a, ins.b
                if cls == DEPENDENT_OBJECT or not _is_user(program, cls):
                    continue
                mi = table.resolve_method(cls, name)
                if mi is None:
                    continue
                dst = part_node(cls, o == op.INVOKESTATIC and not mi.is_ctor)
                vol = 8.0 + sum(_width_of(t) for _, t in mi.params)
                vol += _width_of(mi.ret) if mi.ret.is_reference() or mi.ret.is_primitive() else 0.0
                crg.add_edge(src, dst, "use", count=1, volume=vol * freq)
                # export: reference-typed parameters can flow src -> dst
                for _, pty in mi.params:
                    ref = _ref_class_of(pty, table)
                    if ref is not None:
                        crg.add_edge(src, dst, "export", label=ref)
                # import: reference-typed returns can flow dst -> src
                ref = _ref_class_of(mi.ret, table)
                if ref is not None:
                    crg.add_edge(src, dst, "import", label=ref)
            elif o in (op.GETFIELD, op.PUTFIELD, op.GETSTATIC, op.PUTSTATIC):
                cls, fname = ins.a, ins.b
                if not _is_user(program, cls):
                    continue
                fi = table.resolve_field(cls, fname)
                if fi is None:
                    continue
                dst = part_node(cls, o in (op.GETSTATIC, op.PUTSTATIC))
                if dst == src:
                    # accesses within the same class part are local by
                    # construction; they still appear as (cheap) self-uses
                    # in the paper's graphs, which RelGraph drops on
                    # conversion — record for completeness
                    pass
                crg.add_edge(src, dst, "use", count=1, volume=_width_of(fi.ty) * freq)
                ref = _ref_class_of(fi.ty, table)
                if ref is not None:
                    kind = "export" if o in (op.PUTFIELD, op.PUTSTATIC) else "import"
                    crg.add_edge(src, dst, kind, label=ref)
    return crg
