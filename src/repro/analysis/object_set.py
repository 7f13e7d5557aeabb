"""Object set computation (paper §2, Figure 4).

An *object* is an abstract instance: one per allocation site, plus one
pseudo-object per reachable static class part.  A site is a **summary
instance** (``*`` prefix, "zero or more") when it can execute more than once:
it sits inside a loop of its method, or its method itself may run multiple
times (called from a loop, from several sites, or recursively); otherwise it
is a **single instance** (``1`` prefix).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.acyclic import acyclic
from repro.analysis.loops import loop_levels
from repro.analysis.rta import CallGraph
from repro.bytecode import opcodes as op
from repro.lang.symbols import DEPENDENT_OBJECT


@dataclass(frozen=True)
class AllocationSite:
    method: str       # qualified Class.name
    index: int        # flat bytecode index of the NEW
    class_name: str   # allocated class

    def __str__(self) -> str:
        return f"{self.method}@{self.index}:{self.class_name}"


@dataclass(frozen=True)
class ObjectNode:
    """An abstract object: an allocation site or a static class part."""

    site: Tuple[str, int]     # (method, index); index -1 for static parts
    class_name: str
    summary: bool             # '*' vs '1'
    static_part: bool = False

    @property
    def label(self) -> str:
        prefix = "*" if self.summary else "1"
        part = "ST" if self.static_part else "DT"
        return f"{prefix}{part}_{self.class_name}"

    @property
    def uid(self) -> str:
        if self.static_part:
            return f"ST_{self.class_name}"
        return f"{self.site[0]}@{self.site[1]}:{self.class_name}"

    def __str__(self) -> str:  # pragma: no cover
        return self.label


def _multi_executed_methods(cg: CallGraph) -> Set[str]:
    """Methods that may execute more than once in a program run."""
    multi: Set[str] = set()
    # seed: called from a loop, from >= 2 sites, or recursive
    for callee in cg.reachable:
        sites = cg.call_sites_of(callee)
        if len(sites) >= 2:
            multi.add(callee)
            continue
        for caller, idx in sites:
            caller_m = _lookup(cg, caller)
            if caller_m is not None and loop_levels(caller_m.flat())[idx]:
                multi.add(callee)
                break
        if callee in multi:
            continue
        # recursion: callee reaches itself in the call graph
        if _reaches(cg, callee, callee):
            multi.add(callee)
    # propagate: anything called (transitively) from a multi method is multi
    changed = True
    while changed:
        changed = False
        for caller in list(multi):
            for callee in cg.callees(caller):
                if callee not in multi:
                    multi.add(callee)
                    changed = True
    return multi


def _lookup(cg: CallGraph, qualified: str):
    cls, name = qualified.rsplit(".", 1)
    bc = cg.program.classes.get(cls)
    if bc is None:
        return None
    return bc.methods.get(name)


def _reaches(cg: CallGraph, start: str, goal: str) -> bool:
    seen: Set[str] = set()
    work = [c for c in cg.callees(start)]
    while work:
        cur = work.pop()
        if cur == goal:
            return True
        if cur in seen:
            continue
        seen.add(cur)
        work.extend(cg.callees(cur))
    return False


@acyclic
def compute_object_set(cg: CallGraph) -> List[ObjectNode]:
    """All abstract objects of the program, in deterministic order."""
    program = cg.program
    multi = _multi_executed_methods(cg)
    objects: List[ObjectNode] = []
    static_parts: Set[str] = set()

    for method in cg.reachable_methods():
        if method.is_static:
            static_parts.add(method.class_name)
        flat = method.flat()
        levels = loop_levels(flat)
        for idx, ins in enumerate(flat.instrs):
            if ins.op != op.NEW:
                continue
            cls = ins.a
            if cls == DEPENDENT_OBJECT:
                continue
            is_user = cls in program.classes
            # built-in containers (Vector...) are objects too (Figure 4
            # includes the Vector instance); static-only builtins never
            # reach here because they cannot be instantiated
            summary = method.qualified in multi or levels[idx] > 0
            objects.append(
                ObjectNode(
                    site=(method.qualified, idx),
                    class_name=cls,
                    summary=summary,
                )
            )
            del is_user
    for cls in sorted(static_parts):
        objects.append(
            ObjectNode(site=(cls, -1), class_name=cls, summary=False, static_part=True)
        )
    objects.sort(key=lambda o: o.uid)
    return objects
