"""The float kernels of the multilevel partitioner decide exactly what the
numpy kernels they replaced decided: ``part_graph(...).parts`` is compared,
element for element, with a run on ``_reference_kernels``.

Graphs: the CPU-weighted class-use graph ``build_plan`` partitions and the
three-constraint ODG graph, of every bundled workload and of generated
8 / 24 / 48 / 96-class programs, plus random graphs with one to three
constraints whose small integer weights tie all the time.
"""

import sys
import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference_kernels import reference_kernels
from helpers import compile_mj_raw

from repro.analysis.class_relations import build_crg
from repro.analysis.object_set import compute_object_set
from repro.analysis.odg import build_odg
from repro.analysis.resources import STATIC_HEURISTIC
from repro.analysis.rta import rapid_type_analysis
from repro.distgen.plan import _weighted_use_graph
from repro.graph.wgraph import WeightedGraph
from repro.partition import part_graph
from repro.testing.genprog import GenConfig, generate_source
from repro.workloads import WORKLOADS

TOLERANCES = (1.05, 1.3, 2.0, 4.0, 8.0)
#: the paper's two machines (1.7 GHz service node, 800 MHz client), repeated
TESTBED_SPEEDS = (1.7, 0.8, 1.7, 0.8)


def program_graphs(source):
    """(class-use graph with CPU weights, ODG graph with heuristic weights)."""
    program, _ = compile_mj_raw(source)
    cg = rapid_type_analysis(program)
    crg = build_crg(cg)
    use_graph, _ = _weighted_use_graph(crg, program, None)
    objects = compute_object_set(cg)
    odg_graph, _ = build_odg(cg, crg, objects).partition_graph()
    odg_graph = STATIC_HEURISTIC.apply(
        odg_graph, {o.uid: o for o in objects}, program
    )
    return use_graph, odg_graph


def assert_same_parts(graph, nparts, **kwargs):
    got = part_graph(graph, nparts, **kwargs)
    with reference_kernels():
        want = part_graph(graph, nparts, **kwargs)
    assert got.parts == want.parts, (nparts, kwargs)
    assert got.edgecut == want.edgecut


def assert_same_over_grid(graph):
    for nparts in (2, 3, 4):
        speeds = TESTBED_SPEEDS[:nparts]
        for tpwgts in (None, [s / sum(speeds) for s in speeds]):
            for ub in TOLERANCES:
                assert_same_parts(graph, nparts, ubfactor=ub, tpwgts=tpwgts)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_bundled_workload_partitions_are_unchanged(name):
    for graph in program_graphs(WORKLOADS[name].source("test")):
        assert_same_over_grid(graph)


@pytest.mark.parametrize("n_classes", [8, 24, 48, 96])
def test_generated_program_partitions_are_unchanged(n_classes):
    source = generate_source(
        GenConfig(seed=0, n_classes=n_classes, n_methods=6, max_stmts=8)
    )
    for graph in program_graphs(source):
        assert_same_over_grid(graph)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=90),
    ncon=st.integers(min_value=1, max_value=3),
    graph_seed=st.integers(min_value=0, max_value=2**16),
    seed=st.integers(min_value=0, max_value=99),
    nparts=st.integers(min_value=2, max_value=4),
    ub=st.sampled_from(TOLERANCES + (1.0,)),
    skewed=st.booleans(),
    fractional=st.booleans(),
)
def test_random_graph_partitions_are_unchanged(
    n, ncon, graph_seed, seed, nparts, ub, skewed, fractional
):
    rng = np.random.default_rng(graph_seed)
    scale = 0.1 if fractional else 1.0  # 0.1 steps make the sums inexact
    graph = WeightedGraph(ncon)
    for i in range(n):
        graph.add_node(i, [scale * int(rng.integers(1, 4)) for _ in range(ncon)])
    density = 3.0 / n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                graph.add_edge(u, v, scale * int(rng.integers(1, 4)))
    speeds = TESTBED_SPEEDS[:nparts]
    tpwgts = [s / sum(speeds) for s in speeds] if skewed else None
    assert_same_parts(graph, nparts, ubfactor=ub, seed=seed, tpwgts=tpwgts)
