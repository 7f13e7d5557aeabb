"""Partitioner tests: correctness invariants, quality floors, multi-
constraint balance, target weights, determinism — unit + hypothesis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import run_python

from repro.errors import PartitionError
from repro.graph.metrics import edgecut, imbalance
from repro.graph.wgraph import WeightedGraph
from repro.partition import part_graph
from repro.partition.api import METHODS
from repro.partition.coarsen import coarsen_to, heavy_edge_matching
from repro.partition.kl import kernighan_lin
from repro.partition.multilevel import exhaustive_bisect, multilevel_bisect
from repro.partition.refine import fm_refine
from repro.partition.spectral import spectral_bisect


def two_cliques(k: int = 8, bridge_w: float = 1.0, clique_w: float = 5.0):
    g = WeightedGraph(1)
    for i in range(2 * k):
        g.add_node(i)
    for c in (0, 1):
        for u in range(c * k, (c + 1) * k):
            for v in range(u + 1, (c + 1) * k):
                g.add_edge(u, v, clique_w)
    g.add_edge(0, k, bridge_w)
    return g


def random_graph(n: int, seed: int, p: float = 0.3, ncon: int = 1):
    rng = np.random.default_rng(seed)
    g = WeightedGraph(ncon)
    for i in range(n):
        g.add_node(i, [float(rng.integers(1, 4)) for _ in range(ncon)])
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v, float(rng.integers(1, 6)))
    return g


# ------------------------------------------------------------------ invariants
@pytest.mark.parametrize("method", METHODS)
def test_parts_vector_valid(method):
    g = random_graph(30, seed=1)
    result = part_graph(g, 3, method=method)
    assert len(result.parts) == 30
    assert all(0 <= p < 3 for p in result.parts)
    assert result.edgecut == edgecut(g, result.parts)


@pytest.mark.parametrize("method", METHODS)
def test_single_partition_trivial(method):
    g = random_graph(10, seed=2)
    result = part_graph(g, 1, method=method)
    assert set(result.parts) == {0}
    assert result.edgecut == 0.0


def test_more_parts_than_nodes():
    g = random_graph(3, seed=3)
    result = part_graph(g, 8)
    assert result.parts == [0, 1, 2]


def test_empty_graph():
    result = part_graph(WeightedGraph(), 2)
    assert result.parts == []


def test_invalid_nparts():
    with pytest.raises(PartitionError):
        part_graph(random_graph(5, 4), 0)


def test_unknown_method():
    from repro.errors import UnknownPluginError

    with pytest.raises(UnknownPluginError, match="unknown partition method"):
        part_graph(random_graph(5, 4), 2, method="simulated-annealing")
    # suggestion attached for near-misses
    with pytest.raises(UnknownPluginError, match="did you mean 'multilevel'"):
        part_graph(random_graph(5, 4), 2, method="multilvel")


def test_tpwgts_length_checked():
    with pytest.raises(PartitionError):
        part_graph(random_graph(5, 4), 2, tpwgts=[1.0])


def test_determinism_same_seed():
    g = random_graph(40, seed=9)
    a = part_graph(g, 2, seed=123)
    b = part_graph(g, 2, seed=123)
    assert a.parts == b.parts


# ------------------------------------------------------------------ quality
def test_multilevel_finds_bridge_cut():
    g = two_cliques()
    result = part_graph(g, 2)
    assert result.edgecut == 1.0


def test_kl_finds_bridge_cut():
    g = two_cliques()
    parts = kernighan_lin(g)
    assert edgecut(g, parts) == 1.0


def test_spectral_finds_bridge_cut():
    g = two_cliques()
    parts = spectral_bisect(g)
    assert edgecut(g, parts) == 1.0


_SPECTRAL_ON_A_RING = """
from repro.distgen import build_plan
from repro.errors import PartitionError
from repro.graph.wgraph import WeightedGraph
from repro.partition import part_graph
n = int(sys.argv[1])
ring = WeightedGraph.from_edges(n, [(i, (i + 1) % n, 1.0) for i in range(n)])
assert len(set(part_graph(ring, 2, method="multilevel").parts)) == 2
try:
    part_graph(ring, 2, method="spectral")
except PartitionError as exc:
    print(f"PartitionError: {exc}")
"""


@pytest.mark.parametrize("missing, n", [("numpy", 20), ("scipy", 700)])
def test_spectral_without_its_libraries_is_a_partition_error(missing, n):
    """The one method with third-party needs says so in a ``ReproError`` (one
    line and exit 2 on the CLI), not in a bare ``ModuleNotFoundError`` — on
    the dense path without numpy, above ``_DENSE_LIMIT`` without scipy."""
    done = run_python(_SPECTRAL_ON_A_RING, str(n), blocked=[missing])
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(
        "PartitionError: spectral needs numpy (and scipy above 600 vertices)"
    ), done.stdout
    assert f"cannot import {missing}" in done.stdout
    assert len(done.stdout.splitlines()) == 1


def test_multilevel_beats_random_on_structure():
    g = random_graph(80, seed=11, p=0.1)
    ml = part_graph(g, 2, method="multilevel")
    rnd = part_graph(g, 2, method="random")
    assert ml.edgecut <= rnd.edgecut


def test_exhaustive_is_optimal_on_tiny_graphs():
    g = random_graph(7, seed=13, p=0.5)
    parts = exhaustive_bisect(g, 0.5, ub=1.4)
    best = edgecut(g, parts)
    # brute force verification
    n = g.num_nodes
    vw = np.asarray(g.vwgts())
    total = vw.sum(axis=0)
    for mask in range(1, (1 << n) - 1):
        cand = [(mask >> i) & 1 for i in range(n)]
        w0 = sum(vw[i][0] for i in range(n) if cand[i] == 0)
        if not (total[0] * 0.5 * 1.4 >= w0 >= total[0] - total[0] * 0.5 * 1.4):
            continue
        assert edgecut(g, cand) >= best - 1e-9


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=11),
    ncon=st.integers(min_value=1, max_value=3),
    graph_seed=st.integers(min_value=0, max_value=2**16),
    density=st.sampled_from([0.0, 0.3, 1.0]),
    frac=st.sampled_from([0.5, 1 / 3, 0.68]),
    ubs=st.lists(st.sampled_from([1.0, 1.05, 1.3, 2.0, 4.0, 8.0]),
                 min_size=1, max_size=5),
)
def test_gray_walk_is_the_exact_scan_on_integral_weights(
    n, ncon, graph_seed, density, frac, ubs
):
    """The Gray-code walk updates sums that the scan recomputes per mask;
    on integral weights both are exact, so they pick the same mask at every
    tolerance, ties included (zero-weight vertices and edgeless graphs
    tie all the time)."""
    from repro.partition.multilevel import _gray_walk, _mask_scan

    rng = np.random.default_rng(graph_seed)
    g = WeightedGraph(ncon)
    for i in range(n):
        g.add_node(i, [float(rng.integers(0, 4)) for _ in range(ncon)])
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                g.add_edge(u, v, float(rng.integers(1, 4)))
    columns = list(zip(*g.vwgts()))
    caps = [
        [((t * frac + 1e-12) * ub, (t * (1.0 - frac) + 1e-12) * ub)
         for t in g.total_weight()]
        for ub in ubs
    ]
    assert _gray_walk(g, columns, caps) == _mask_scan(
        n, columns, caps, list(g.edges())
    )


# ------------------------------------------------------------------ balance / tpwgts
def test_balance_respected_on_uniform_graph():
    g = random_graph(60, seed=17, p=0.15)
    result = part_graph(g, 2, ubfactor=1.10)
    assert max(result.imbalance) < 1.5


def test_multiconstraint_balance():
    g = random_graph(40, seed=19, p=0.2, ncon=3)
    result = part_graph(g, 2, ubfactor=1.3)
    imb = imbalance(g, result.parts, 2)
    assert len(imb) == 3


def test_tpwgts_skews_partition_sizes():
    g = random_graph(60, seed=23, p=0.15)
    result = part_graph(g, 2, tpwgts=[0.75, 0.25], ubfactor=1.3)
    vw = np.asarray(g.vwgts())
    w0 = sum(vw[i][0] for i in range(60) if result.parts[i] == 0)
    total = float(vw.sum())
    assert w0 / total > 0.55  # clearly skewed toward the 0.75 target


# ------------------------------------------------------------------ components
def test_heavy_edge_matching_halves_graph():
    g = two_cliques(k=16)
    coarse, cmap = heavy_edge_matching(g, np.random.default_rng(0))
    assert coarse.num_nodes < g.num_nodes
    assert coarse.num_nodes >= g.num_nodes // 2
    assert len(cmap) == g.num_nodes
    assert all(0 <= c < coarse.num_nodes for c in cmap)
    # weights conserved
    assert np.allclose(coarse.total_weight(), g.total_weight())


def test_coarsen_to_reaches_target():
    g = random_graph(200, seed=29, p=0.05)
    levels = coarsen_to(g, 40, np.random.default_rng(1))
    assert levels
    assert levels[-1][0].num_nodes <= max(40, g.num_nodes // 2)


def test_fm_refine_never_worsens_cut():
    g = random_graph(50, seed=31, p=0.2)
    rng = np.random.default_rng(7)
    parts = [int(rng.integers(2)) for _ in range(50)]
    before = edgecut(g, parts)
    refined = fm_refine(g, list(parts), 0.5, 1.3)
    assert edgecut(g, refined) <= before


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=24), st.integers(min_value=0, max_value=999),
       st.integers(min_value=2, max_value=4))
def test_property_all_methods_produce_valid_partitions(n, seed, k):
    g = random_graph(n, seed=seed, p=0.35)
    for method in ("multilevel", "kl", "roundrobin"):
        result = part_graph(g, min(k, n), method=method)
        assert len(result.parts) == n
        assert all(0 <= p < min(k, n) for p in result.parts)
        # edgecut is bounded by total edge weight
        total_w = sum(w for _, _, w in g.edges())
        assert 0.0 <= result.edgecut <= total_w + 1e-9


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=4, max_value=20), st.integers(min_value=0, max_value=99))
def test_property_multilevel_bisection_nonempty_sides(n, seed):
    g = random_graph(n, seed=seed, p=0.5)
    parts = multilevel_bisect(g, 0.5, np.random.default_rng(seed))
    assert set(parts) <= {0, 1}
    if n >= 4:
        assert 0 < sum(parts) < n  # both sides populated
