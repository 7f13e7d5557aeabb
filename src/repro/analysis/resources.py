"""Resource modeling for the object dependence graph (paper §3).

"Each object in the graph encapsulates data and computation...  The weight of
a node is a vector that contains memory, CPU, and battery usage for the
creation and usage of an object.  The weight of an edge is the amount of
data that needs to be transferred due to a dependence."

Three models are provided:

* ``UNIFORM``          — all objects weigh (1,1,1): the paper's current state
  ("static approximations can be imprecise under the assumption that all
  objects have equal weights");
* ``STATIC_HEURISTIC`` — the paper's stated future heuristic: summary (``*``)
  objects created inside loops are *heavier*; memory from the field layout,
  CPU from the bytecode cost of the class's methods;
* ``profiled``         — weights taken from a profiler report
  (:func:`from_profile`), the feedback loop the paper's adaptive
  repartitioning needs.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.loops import static_cpu
from repro.analysis.object_set import ObjectNode
from repro.bytecode.model import BProgram
from repro.graph.wgraph import WeightedGraph

#: weight multiplier for '*' summary objects in the heuristic model
SUMMARY_FACTOR = 10.0

NCON = 3  # (memory, cpu, battery)


class ResourceModel:
    """Assigns (memory, cpu, battery) vectors to ODG objects."""

    def __init__(self, name: str, fn) -> None:
        self.name = name
        self._fn = fn

    def weights_for(self, obj: ObjectNode, program: BProgram) -> List[float]:
        return self._fn(obj, program)

    def apply(
        self, graph: WeightedGraph, objects_by_uid: Dict[str, ObjectNode], program: BProgram
    ) -> WeightedGraph:
        """Return a copy of ``graph`` with NCON-dim vertex weights set from
        this model (graph labels must be object uids)."""
        out = WeightedGraph(NCON)
        for label in graph.labels:
            obj = objects_by_uid.get(label)
            weights = (
                self.weights_for(obj, program) if obj is not None else [1.0] * NCON
            )
            out.add_node(label, weights)
        for u, v, w in graph.edges():
            out.add_edge(u, v, w)
        # battery additionally charges for communication: add incident edge
        # volume to the third component
        for u, (memory, cpu, battery) in enumerate(out.vwgts()):
            out.set_weight(u, [memory, cpu, battery + 0.1 * out.degree(u)])
        return out


def _uniform(obj: ObjectNode, program: BProgram) -> List[float]:
    return [1.0, 1.0, 1.0]


def _object_memory(obj: ObjectNode, program: BProgram) -> float:
    cls = obj.class_name
    if cls in program.classes:
        nfields = 0
        cur: Optional[str] = cls
        while cur is not None and cur in program.classes:
            nfields += len(program.classes[cur].instance_fields())
            cur = program.classes[cur].superclass
        return 16.0 + 8.0 * nfields
    return 32.0  # built-in container


def _class_cpu(cls: str, program: BProgram) -> float:
    """Static CPU estimate for a class: bytecode cost of its methods with
    loop-nesting frequency scaling (instructions in loops count more)."""
    if cls not in program.classes:
        return 16.0
    total = 0.0
    for method in program.classes[cls].methods.values():
        total += static_cpu(method.flat())
    return total


def _heuristic(obj: ObjectNode, program: BProgram) -> List[float]:
    factor = SUMMARY_FACTOR if obj.summary else 1.0
    mem = _object_memory(obj, program) * factor
    cpu = _class_cpu(obj.class_name, program) * factor
    battery = 0.05 * cpu
    return [mem, cpu, battery]


UNIFORM = ResourceModel("uniform", _uniform)
STATIC_HEURISTIC = ResourceModel("static-heuristic", _heuristic)


def from_profile(per_class_cycles: Dict[str, float], per_class_bytes: Dict[str, float]) -> ResourceModel:
    """Build a resource model from measured profiler data — the input the
    paper's future adaptive repartitioning would use."""

    def fn(obj: ObjectNode, program: BProgram) -> List[float]:
        cpu = per_class_cycles.get(obj.class_name, 1.0)
        mem = per_class_bytes.get(obj.class_name, _object_memory(obj, program))
        return [max(mem, 1.0), max(cpu, 1.0), 0.05 * max(cpu, 1.0)]

    return ResourceModel("profiled", fn)
