"""Rapid Type Analysis (RTA) call-graph construction.

The paper (§2.1): "We use rapid type analysis (RTA) to compute the call graph
and the program types."  RTA maintains the set of *instantiated* classes
(from ``NEW`` in reachable code) and resolves virtual calls only against
instantiated subtypes of the static receiver class, iterating with a
worklist until no new methods or types appear.  Each reachable method is
scanned once and each (virtual site, instantiated subtype) pair resolved once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.acyclic import acyclic
from repro.bytecode import opcodes as op
from repro.bytecode.model import BMethod, BProgram
from repro.errors import AnalysisError, SemanticError
from repro.lang.symbols import DEPENDENT_OBJECT


@dataclass
class CallGraph:
    """RTA result: reachable methods, instantiated types, call edges.

    ``edges`` maps a caller to the set of (callee, callsite-index) pairs;
    ``callers`` is the inverse without site info.  Methods are identified by
    their qualified ``Class.name`` string.  Edges enter through
    :meth:`add_edge`, which keeps the three maps in step.
    """

    program: BProgram
    reachable: Set[str] = field(default_factory=set)
    instantiated: Set[str] = field(default_factory=set)
    edges: Dict[str, Set[Tuple[str, int]]] = field(default_factory=dict)
    callers: Dict[str, Set[str]] = field(default_factory=dict)
    #: inverse of ``edges`` with site info: callee -> {(caller, index)}
    sites: Dict[str, Set[Tuple[str, int]]] = field(default_factory=dict)

    def method(self, qualified: str) -> BMethod:
        cls, name = qualified.rsplit(".", 1)
        m = self.program.classes[cls].methods[name]
        return m

    def reachable_methods(self) -> List[BMethod]:
        out = []
        for q in sorted(self.reachable):
            cls, name = q.rsplit(".", 1)
            bc = self.program.classes.get(cls)
            if bc is not None and name in bc.methods:
                out.append(bc.methods[name])
        return out

    def callees(self, qualified: str) -> Set[str]:
        return {callee for callee, _ in self.edges.get(qualified, set())}

    def call_sites_of(self, qualified: str) -> Set[Tuple[str, int]]:
        """All (caller, index) sites that may invoke ``qualified``."""
        return set(self.sites.get(qualified, ()))

    def add_edge(self, caller: str, callee: str, index: int) -> None:
        self.edges.setdefault(caller, set()).add((callee, index))
        self.callers.setdefault(callee, set()).add(caller)
        self.sites.setdefault(callee, set()).add((caller, index))


@acyclic
def rapid_type_analysis(
    program: BProgram, entry: Optional[str] = None
) -> CallGraph:
    """Run RTA from ``entry`` (default: the program's ``main``)."""
    if entry is None:
        if program.main_class is None:
            raise AnalysisError("program has no main method and no entry given")
        entry = f"{program.main_class}.main"

    cg = CallGraph(program)
    table = program.table
    work: List[str] = []

    def reach(qualified: str) -> None:
        if qualified not in cg.reachable:
            cg.reachable.add(qualified)
            work.append(qualified)

    reach(entry)
    for bclass in program.classes.values():
        if "<clinit>" in bclass.methods:
            reach(f"{bclass.name}.<clinit>")

    # A virtual site and an instantiated user class meet exactly once, and
    # only if the class is a subtype of the site's static class: a site is
    # bound when it is scanned, against the instantiated classes under its
    # static class so far; a class when its first NEW is scanned, against
    # the sites on each of its ancestors so far.
    sites_on: Dict[str, List[Tuple[str, int, str]]] = {}
    types_under: Dict[str, List[str]] = {}

    def call(caller: str, index: int, cls: str, name: str) -> None:
        """Edge to the implementation of ``name`` that ``cls`` declares or
        inherits; built-in classes have none to scan."""
        callee = program.lookup_method(cls, name)
        if callee is not None:
            cg.add_edge(caller, callee.qualified, index)
            reach(callee.qualified)

    def ancestors(cls: str) -> List[str]:
        """The static classes a ``cls`` receiver can stand behind, nearest
        first; only ``Object`` when a super is missing from the table."""
        try:
            chain = [info.name for info in table.chain(cls)]
        except SemanticError:
            chain = []
        return chain if "Object" in chain else chain + ["Object"]

    while work:
        qualified = work.pop()
        cls, name = qualified.rsplit(".", 1)
        bclass = program.classes.get(cls)
        if bclass is None or name not in bclass.methods:
            continue  # built-in: no bytecode to scan
        for idx, ins in enumerate(bclass.methods[name].flat()):
            if ins.op == op.NEW:
                if ins.a not in cg.instantiated:
                    cg.instantiated.add(ins.a)
                    if ins.a in program.classes:
                        for static_cls in ancestors(ins.a):
                            types_under.setdefault(static_cls, []).append(ins.a)
                            for caller, index, called in sites_on.get(static_cls, ()):
                                call(caller, index, ins.a, called)
            elif ins.op == op.INVOKESTATIC or ins.op == op.INVOKESPECIAL:
                call(qualified, idx, ins.a, ins.b)
            elif ins.op == op.INVOKEVIRTUAL and ins.a != DEPENDENT_OBJECT:
                sites_on.setdefault(ins.a, []).append((qualified, idx, ins.b))
                for t in types_under.get(ins.a, ()):
                    call(qualified, idx, t, ins.b)
    return cg
