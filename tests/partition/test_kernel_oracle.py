"""The float kernels of the multilevel partitioner decide exactly what the
numpy kernels they replaced decided: ``parts`` and ``edgecut`` are compared,
result for result, with runs on ``_reference_kernels``.

Fixed graphs — the CPU-weighted class-use graph ``build_plan`` partitions
and the three-constraint ODG graph of every bundled workload and of
generated 8 / 24 / 48 / 96-class programs, and 12–15-vertex graphs with
integral and with 0.1-step weights, which the exhaustive bisection solves
on its Gray-code walk and on its exact per-mask scan — are partitioned over
a grid of 2–4 parts, two target-weight vectors and five tolerances, and
compared with digests of what the reference decided on the same grid,
held below.  The shipped side partitions all five tolerances in one call
(``part_graph_tolerances``), the reference one ``part_graph`` per
tolerance.  ``PYTHONPATH=src python tests/partition/test_kernel_oracle.py``
recomputes the digests on the reference kernels.  Random graphs with one
to three constraints, whose small integer weights tie all the time, are
compared with the live reference.
"""

import hashlib
import pathlib
import random
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference_kernels import reference_kernels
from helpers import compile_mj_raw, scaling_source

from repro.analysis.class_relations import build_crg
from repro.analysis.object_set import compute_object_set
from repro.analysis.odg import build_odg
from repro.analysis.resources import STATIC_HEURISTIC
from repro.analysis.rta import rapid_type_analysis
from repro.distgen.plan import _weighted_use_graph
from repro.graph.wgraph import WeightedGraph
from repro.partition import part_graph
from repro.partition.api import part_graph_tolerances
from repro.workloads import WORKLOADS

TOLERANCES = (1.05, 1.3, 2.0, 4.0, 8.0)
#: the paper's two machines (1.7 GHz service node, 800 MHz client), repeated
TESTBED_SPEEDS = (1.7, 0.8, 1.7, 0.8)

#: the fixed graph sets, by :func:`fixed_graphs` name
FIXED = sorted(WORKLOADS) + ["gen8", "gen24", "gen48", "gen96"] + [
    "small-integral", "small-tenths",
]

#: fixed graph set -> the first 16 hex digits of its :func:`grid_digest`
#: under ``reference_kernels()``
DIGESTS = {
    "bank": "4bf49f2d1526343f",
    "compress": "002a55e07fc38c7e",
    "create": "48dde06bce1fc18b",
    "crypt": "38b5ee56e0152b37",
    "db": "364393413cfc9b79",
    "heapsort": "0352ba1dc5a00639",
    "method": "182d86967d946dc8",
    "moldyn": "f61ea15de4951e28",
    "search": "c3d2bf42322360ca",
    "service_bank": "b392e008afa5067a",
    "gen8": "020197e239c2e3c6",
    "gen24": "029dd108c9a17b72",
    "gen48": "ad84690f37b0584a",
    "gen96": "43c40db1e9e33cba",
    "small-integral": "80862f11974858c9",
    "small-tenths": "7043fd696f3ef0ad",
}


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


def small_graphs(scale):
    """12–15 vertices, one to three constraints, weights in ``scale``
    steps: integral weights take the exhaustive bisection's Gray-code walk,
    0.1 steps (inexact sums) its per-mask scan."""
    graphs = []
    for n, ncon in ((12, 1), (13, 2), (14, 3), (15, 1)):
        rng = random.Random(n)
        graph = WeightedGraph(ncon)
        for i in range(n):
            graph.add_node(i, [scale * rng.randint(1, 9) for _ in range(ncon)])
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.3:
                    graph.add_edge(u, v, scale * rng.randint(1, 5))
        graphs.append(graph)
    return graphs


def fixed_graphs(name):
    if name.startswith("small-"):
        return small_graphs(1.0 if name == "small-integral" else 0.1)
    if name.startswith("gen"):
        return program_graphs(scaling_source(int(name[3:])))
    return program_graphs(WORKLOADS[name].source("test"))


def grid():
    for nparts in (2, 3, 4):
        speeds = TESTBED_SPEEDS[:nparts]
        for tpwgts in (None, [s / sum(speeds) for s in speeds]):
            yield nparts, tpwgts


def shipped(graph, nparts, tpwgts):
    return part_graph_tolerances(graph, nparts, TOLERANCES, tpwgts=tpwgts)


def reference(graph, nparts, tpwgts):
    with reference_kernels():
        return [
            part_graph(graph, nparts, ubfactor=ub, tpwgts=tpwgts)
            for ub in TOLERANCES
        ]


def grid_digest(graphs, partition) -> str:
    digest = hashlib.sha256()
    for graph in graphs:
        for nparts, tpwgts in grid():
            for result in partition(graph, nparts, tpwgts):
                digest.update(repr((result.parts, result.edgecut)).encode())
    return digest.hexdigest()[:16]


def assert_same_parts(graph, nparts, **kwargs):
    got = part_graph(graph, nparts, **kwargs)
    with reference_kernels():
        want = part_graph(graph, nparts, **kwargs)
    assert got.parts == want.parts, (nparts, kwargs)
    assert got.edgecut == want.edgecut


def test_every_fixed_graph_set_is_pinned():
    assert sorted(DIGESTS) == sorted(FIXED)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_bundled_workload_partitions_are_unchanged(name):
    assert grid_digest(fixed_graphs(name), shipped) == DIGESTS[name]


@pytest.mark.parametrize("n_classes", [8, 24, 48, 96])
def test_generated_program_partitions_are_unchanged(n_classes):
    name = f"gen{n_classes}"
    assert grid_digest(fixed_graphs(name), shipped) == DIGESTS[name]


@pytest.mark.parametrize("name", ["small-integral", "small-tenths"])
def test_small_graph_partitions_are_unchanged(name):
    assert grid_digest(fixed_graphs(name), shipped) == DIGESTS[name]


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


if __name__ == "__main__":
    for name in FIXED:
        print(f'    "{name}": "{grid_digest(fixed_graphs(name), reference)}",')
