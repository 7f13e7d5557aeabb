"""The compile-side stages may run with the collector paused
(``repro.acyclic``) because none of them leaves a reference cycle: with
automatic collection off, a ``gc.collect()`` after each stage finds nothing,
on every bundled workload and on generated programs of 8 to 96 classes.
A recursive closure, a node that points back at its parent or an exception
kept with its traceback would each show up here as a non-zero count.

The pause itself: it is lifted when a stage raises, a caller that switched
the collector off finds it still off, and a stage called from another stage
(``build_plan`` → ``part_graph_tolerances``) toggles nothing.
"""

import gc

import pytest

from helpers import scaling_source, two_node_plan_arguments

import repro.acyclic
from repro.analysis import (
    build_crg,
    build_odg,
    compute_object_set,
    rapid_type_analysis,
)
from repro.bytecode import compile_program
from repro.distgen import build_plan, rewrite_program
from repro.errors import ParseError
from repro.graph.wgraph import WeightedGraph
from repro.lang import analyze, parse_program
from repro.partition import part_graph
from repro.partition.api import METHODS
from repro.vm import load_program
from repro.workloads import WORKLOADS

PROGRAMS = [("workload", name) for name in sorted(WORKLOADS)] + [
    ("generated", n_classes) for n_classes in (8, 24, 48, 96)
]


def _source(kind, which):
    if kind == "workload":
        return WORKLOADS[which].source("test")
    return scaling_source(which)


def _ring_graph(n: int) -> WeightedGraph:
    """A 40-vertex graph above the exhaustive limit, so that multilevel
    coarsens, grows and refines, and k = 4 recurses with a copied stream."""
    g = WeightedGraph(1)
    for i in range(n):
        g.add_node(i, [float(1 + i % 3)])
    for i in range(n):
        g.add_edge(i, (i + 1) % n, float(1 + i % 5))
        g.add_edge(i, (i * 7 + 3) % n, 1.0)
    return g


def _stages(source):
    """``(stage name, thunk)`` in pipeline order; each thunk runs one
    decorated stage on what the ones before it returned."""
    out = {}
    yield "parse_program", lambda: out.setdefault("tree", parse_program(source))
    yield "analyze", lambda: out.setdefault("table", analyze(out["tree"]))
    yield "compile_program", lambda: out.setdefault(
        "program", compile_program(out["tree"], out["table"])
    )
    yield "load_program", lambda: load_program(out["program"])
    yield "rapid_type_analysis", lambda: out.setdefault(
        "cg", rapid_type_analysis(out["program"])
    )
    yield "build_crg", lambda: out.setdefault("crg", build_crg(out["cg"]))
    yield "compute_object_set", lambda: out.setdefault(
        "objects", compute_object_set(out["cg"])
    )
    yield "build_odg", lambda: out.setdefault(
        "odg", build_odg(out["cg"], out["crg"], out["objects"])
    )
    yield "part_graph", lambda: [
        part_graph(graph, nparts, method=method)
        for graph in (out["crg"].use_graph()[0], out["odg"].partition_graph()[0])
        for nparts in (2, 3)
        for method in ("multilevel", "kl")
    ]
    yield "build_plan", lambda: out.setdefault(
        "plan", build_plan(out["program"], 2, **two_node_plan_arguments())
    )
    yield "rewrite_program", lambda: rewrite_program(out["program"], out["plan"])


def _run_paused(source):
    """Run every stage with the collector off; the count ``gc.collect()``
    finds after each stage, by stage name."""
    found = {}
    gc.collect()
    gc.disable()
    try:
        for name, stage in _stages(source):
            stage()
            found[name] = gc.collect()
    finally:
        gc.enable()
    return found


def _partition_every_method():
    g = _ring_graph(40)
    for method in METHODS:
        part_graph(g, 4, method=method)


@pytest.fixture(scope="module", autouse=True)
def _imported():
    """A first pass imports what the layers use; an import leaves garbage
    of its own."""
    _run_paused(scaling_source(8))
    _partition_every_method()


@pytest.mark.parametrize("kind, which", PROGRAMS)
def test_no_stage_leaves_cyclic_garbage(kind, which):
    found = _run_paused(_source(kind, which))
    assert found == dict.fromkeys(found, 0)


def test_partitioning_leaves_no_cyclic_garbage():
    """Every partition method, on a graph large enough for the multilevel
    V-cycle and a k-way recursion: a recursive closure would keep the graph,
    the ``Stream`` and the parts vector in a function-cell cycle."""
    gc.collect()
    gc.disable()
    try:
        _partition_every_method()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_stage_that_raises_lifts_the_pause():
    assert gc.isenabled()
    with pytest.raises(ParseError):
        parse_program("class {")
    assert gc.isenabled()


def test_a_caller_that_paused_the_collector_finds_it_paused():
    gc.disable()
    try:
        parse_program(scaling_source(8))
        assert not gc.isenabled()
        with pytest.raises(ParseError):
            parse_program("class {")
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_a_nested_stage_toggles_nothing(monkeypatch):
    """``build_plan`` pauses the collector once; the partitioner it calls
    finds it paused and leaves it so."""
    tree = parse_program(scaling_source(24))
    program = compile_program(tree, analyze(tree))
    toggles = []

    class Recording:
        def __getattr__(self, name):
            return getattr(gc, name)

        def disable(self):
            toggles.append("disable")
            gc.disable()

        def enable(self):
            toggles.append("enable")
            gc.enable()

    monkeypatch.setattr(repro.acyclic, "gc", Recording())
    build_plan(program, 3, **two_node_plan_arguments() | {"tpwgts": None})
    assert toggles == ["disable", "enable"]
