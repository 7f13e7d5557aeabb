"""Object Dependence Graph construction (paper §2, Figure 4).

Starting from *create* edges (allocation site → allocating context), object
references are propagated against the class relation graph's export/import
relations — Spiegel's algorithm as extended by the paper's technical report:

* ``a`` refs ``b`` and ``a`` refs ``c``, CRG has ``part(a) --export[E]-->
  part(b)`` and ``class(c) <: E``  ⇒  ``b`` refs ``c``;
* ``a`` refs ``b`` and ``b`` refs ``c``, CRG has ``part(a) --import[E]-->
  part(b)`` and ``class(c) <: E``  ⇒  ``a`` refs ``c``;

iterated over all object triples to a fix point.  Finally each reference
pair whose parts are related by a *use* edge yields a weighted **use** edge —
the only relation that matters for partitioning ("after the propagation,
only the usage relation should matter"; the reference relation is kept for
inspection but marked redundant).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.acyclic import acyclic
from repro.analysis.class_relations import ClassRelationGraph, part_node
from repro.analysis.object_set import ObjectNode
from repro.analysis.relgraph import RelGraph
from repro.analysis.rta import CallGraph
from repro.graph.wgraph import WeightedGraph


class ObjectDependenceGraph(RelGraph):
    """The ODG; node ids are :attr:`ObjectNode.uid` strings."""

    def __init__(self) -> None:
        super().__init__()
        self.objects: List[ObjectNode] = []

    def object_by_uid(self, uid: str) -> ObjectNode:
        for obj in self.objects:
            if obj.uid == uid:
                return obj
        raise KeyError(uid)

    def partition_graph(self, weight_from: str = "volume") -> Tuple[WeightedGraph, List[str]]:
        """Undirected use+create graph for the partitioner."""
        return self.to_weighted_graph(kinds=("use", "create"), weight_from=weight_from)


def _part_of(obj: ObjectNode) -> str:
    return part_node(obj.class_name, obj.static_part)


@acyclic
def build_odg(
    cg: CallGraph,
    crg: ClassRelationGraph,
    objects: List[ObjectNode],
    max_iterations: int = 64,
) -> ObjectDependenceGraph:
    program = cg.program
    table = program.table
    odg = ObjectDependenceGraph()
    odg.objects = list(objects)
    n = len(objects)
    for obj in objects:
        odg.add_node(obj.uid, obj.label)

    idx_of: Dict[str, int] = {obj.uid: i for i, obj in enumerate(objects)}
    by_class: Dict[str, List[int]] = {}
    for i, obj in enumerate(objects):
        by_class.setdefault(obj.class_name, []).append(i)

    def subtype(sub: str, sup: str) -> bool:
        try:
            return table.is_subtype(sub, sup)
        except Exception:
            return sub == sup

    # ---- create edges: site -> executed-in context objects
    refs: Set[Tuple[int, int]] = set()
    creates: Set[Tuple[int, int]] = set()
    for i, obj in enumerate(objects):
        if obj.static_part:
            continue
        method_q, _ = obj.site
        cls, mname = method_q.rsplit(".", 1)
        method = program.classes[cls].methods[mname]
        creators: List[int] = []
        if method.is_static:
            uid = f"ST_{cls}"
            if uid in idx_of:
                creators.append(idx_of[uid])
        else:
            # any object whose runtime class inherits this method
            for j, other in enumerate(objects):
                if other.static_part or j == i:
                    continue
                if (
                    subtype(other.class_name, cls)
                    and other.class_name in program.classes
                ):
                    impl = program.lookup_method(other.class_name, mname)
                    if impl is not None and impl.qualified == method_q:
                        creators.append(j)
        for c in creators:
            creates.add((c, i))
            refs.add((c, i))

    # ---- propagation to fix point
    export_edges = [
        (e.src, e.dst, e.label) for e in crg.edges("export") if e.label
    ]
    import_edges = [
        (e.src, e.dst, e.label) for e in crg.edges("import") if e.label
    ]
    part_cache = [_part_of(obj) for obj in objects]

    for _ in range(max_iterations):
        new_refs: Set[Tuple[int, int]] = set()
        refs_from: Dict[int, List[int]] = {}
        for a, b in refs:
            refs_from.setdefault(a, []).append(b)
        for a, bs in refs_from.items():
            pa = part_cache[a]
            a_exports = [(d, lbl) for s, d, lbl in export_edges if s == pa]
            a_imports = [(d, lbl) for s, d, lbl in import_edges if s == pa]
            for b in bs:
                pb = part_cache[b]
                # export: a gives c to b
                for dst_part, label in a_exports:
                    if dst_part != pb:
                        continue
                    for c in bs:
                        if c == b:
                            continue
                        if subtype(objects[c].class_name, label):
                            pair = (b, c)
                            if pair not in refs:
                                new_refs.add(pair)
                # import: a obtains c from b
                for dst_part, label in a_imports:
                    if dst_part != pb:
                        continue
                    for c in refs_from.get(b, []):
                        if c == a:
                            continue
                        if subtype(objects[c].class_name, label):
                            pair = (a, c)
                            if pair not in refs:
                                new_refs.add(pair)
        if not new_refs:
            break
        refs |= new_refs

    # ---- derive edges
    use_by_parts: Dict[Tuple[str, str], Tuple[int, float]] = {}
    for e in crg.edges("use"):
        key = (e.src, e.dst)
        cnt, vol = use_by_parts.get(key, (0, 0.0))
        use_by_parts[key] = (cnt + e.count, vol + e.volume)

    for c, i in sorted(creates):
        odg.add_edge(objects[c].uid, objects[i].uid, "create", count=1, volume=8.0)
    for a, b in sorted(refs):
        if (a, b) in creates:
            continue
        odg.add_edge(objects[a].uid, objects[b].uid, "reference")
    for a, b in sorted(refs):
        key = (part_cache[a], part_cache[b])
        if key in use_by_parts:
            cnt, vol = use_by_parts[key]
            odg.add_edge(
                objects[a].uid, objects[b].uid, "use", count=cnt, volume=vol
            )
    return odg
