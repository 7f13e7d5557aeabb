"""WeightedGraph unit + property tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.graph.metrics import edgecut, imbalance, is_balanced, part_weights
from repro.graph.wgraph import WeightedGraph


def small_graph():
    g = WeightedGraph(2)
    for i in range(4):
        g.add_node(f"n{i}", [1.0, float(i)])
    g.add_edge(0, 1, 2.0)
    g.add_edge(1, 2, 3.0)
    g.add_edge(2, 3, 1.0)
    return g


def test_basic_counts():
    g = small_graph()
    assert g.num_nodes == 4
    assert g.num_edges == 3
    assert g.degree(1) == 5.0


def test_duplicate_label_rejected():
    g = WeightedGraph()
    g.add_node("a")
    with pytest.raises(PartitionError):
        g.add_node("a")


def test_edge_weight_accumulates():
    g = WeightedGraph()
    g.add_node(); g.add_node()
    g.add_edge(0, 1, 1.0)
    g.add_edge(0, 1, 2.5)
    assert g.adj[0][1] == 3.5
    assert g.num_edges == 1


def test_self_loops_ignored():
    g = WeightedGraph()
    g.add_node()
    g.add_edge(0, 0, 5.0)
    assert g.num_edges == 0


def test_edge_out_of_range():
    g = WeightedGraph()
    g.add_node()
    with pytest.raises(PartitionError):
        g.add_edge(0, 3)


def test_weight_vector_length_checked():
    g = WeightedGraph(2)
    with pytest.raises(PartitionError):
        g.add_node("x", [1.0])


def test_vwgts_matrix():
    g = small_graph()
    vw = g.vwgts()
    assert np.shape(vw) == (4, 2)
    assert vw[2][1] == 2.0
    assert np.allclose(g.total_weight(), [4.0, 6.0])


def test_subgraph_preserves_internal_edges():
    g = small_graph()
    sub, mapping = g.subgraph([1, 2, 3])
    assert sub.num_nodes == 3
    assert sub.num_edges == 2  # 1-2 and 2-3; 0-1 dropped
    assert mapping == [1, 2, 3]
    assert sub.labels == ["n1", "n2", "n3"]


def test_to_networkx_roundtrip_structure():
    g = small_graph()
    nx_graph = g.to_networkx()
    assert nx_graph.number_of_nodes() == 4
    assert nx_graph.number_of_edges() == 3
    assert nx_graph[0][1]["weight"] == 2.0


def test_edgecut_and_weights():
    g = small_graph()
    parts = [0, 0, 1, 1]
    assert edgecut(g, parts) == 3.0
    weights = part_weights(g, parts, 2)
    assert np.allclose(weights[0], [2.0, 1.0])
    assert np.allclose(weights[1], [2.0, 5.0])


def test_edgecut_validates_length():
    with pytest.raises(PartitionError):
        edgecut(small_graph(), [0, 1])


def test_imbalance_perfect_split():
    g = WeightedGraph(1)
    for i in range(4):
        g.add_node(i)
    imb = imbalance(g, [0, 0, 1, 1], 2)
    assert np.allclose(imb, [1.0])
    assert is_balanced(g, [0, 0, 1, 1], 2, [1.05])
    assert not is_balanced(g, [0, 0, 0, 1], 2, [1.05])


@given(st.integers(min_value=2, max_value=12), st.data())
def test_edgecut_matches_networkx_cut_size(n, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 1000)))
    g = WeightedGraph(1)
    for i in range(n):
        g.add_node(i)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.4:
                g.add_edge(u, v, float(rng.integers(1, 5)))
    parts = [int(rng.integers(2)) for _ in range(n)]
    import networkx as nx

    expected = nx.cut_size(
        g.to_networkx(),
        {i for i in range(n) if parts[i] == 0},
        weight="weight",
    )
    assert edgecut(g, parts) == pytest.approx(expected)


def test_from_edges_constructor():
    g = WeightedGraph.from_edges(3, [(0, 1, 2.0), (1, 2, 1.0)])
    assert g.num_nodes == 3 and g.num_edges == 2
