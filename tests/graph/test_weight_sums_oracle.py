"""The list-based weight sums add in numpy's order: every sum the graph and
its metrics compute equals, **bit for bit**, the numpy expression it
replaced (kept here, on the test side, as the reference — numpy 2.4.6).

Balance limits are compared with ``>`` and ``>=``, so one unit in the last
place moves a vertex; hence ``==`` on floats throughout, never ``approx``.
Weights span ten decades so that the order of additions shows, ``ncon`` is
1–4, and ``n`` straddles the block sizes of numpy's pairwise sum (8 and
128) and reaches past 1 000, where the recursion splits twice.
"""

import random

import numpy as np
import pytest

from repro.graph.metrics import imbalance, part_weights
from repro.graph.wgraph import WeightedGraph, column_sums, pairwise_sum

SIZES = (0, 1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 255, 256, 257, 1000, 1001, 2500)


def weighted_graph(n, ncon, seed):
    rng = random.Random(seed)
    graph = WeightedGraph(ncon)
    for i in range(n):
        graph.add_node(
            i, [rng.uniform(1.0, 10.0) * 10.0 ** rng.randrange(-5, 5) for _ in range(ncon)]
        )
    return graph


def as_array(graph):
    """``WeightedGraph.vwgts()`` as it was before the weights became lists."""
    return np.asarray(graph.vwgts(), dtype=float).reshape(-1, graph.ncon)


def numpy_part_weights(graph, parts, nparts):
    vw = as_array(graph)
    out = np.zeros((nparts, graph.ncon))
    for i, p in enumerate(parts):
        out[p] += vw[i]
    return out


def numpy_imbalance(graph, parts, nparts):
    weights = numpy_part_weights(graph, parts, nparts)
    totals = weights.sum(axis=0)
    ideal = np.where(totals > 0, totals / nparts, 1.0)
    return weights.max(axis=0) / ideal


@pytest.mark.parametrize("ncon", (1, 2, 3, 4))
@pytest.mark.parametrize("n", SIZES)
def test_row_column_and_total_sums(n, ncon):
    for seed in range(3):
        graph = weighted_graph(n, ncon, seed)
        vw = as_array(graph)
        rows = [pairwise_sum(row) for row in graph.vwgts()]
        assert rows == vw.sum(axis=1).tolist()
        assert pairwise_sum(rows) == float(vw.sum(axis=1).sum())
        assert graph.total_weight() == vw.sum(axis=0).tolist()
        assert column_sums(graph.vwgts(), ncon) == vw.sum(axis=0).tolist()


def test_a_wide_row_sums_pairwise_too():
    """More than 8 constraints: numpy's row sum leaves left-to-right order."""
    rng = random.Random(0)
    for width in (8, 9, 20, 130):
        row = [rng.uniform(1.0, 10.0) * 10.0 ** rng.randrange(-5, 5) for _ in range(width)]
        assert pairwise_sum(row) == float(np.asarray(row).sum())


@pytest.mark.parametrize("ncon", (1, 2, 3, 4))
@pytest.mark.parametrize("nparts", (1, 2, 3, 9, 130))
def test_part_weights_and_imbalance(nparts, ncon):
    for n in (1, 7, 8, 129, 1000):
        graph = weighted_graph(n, ncon, seed=n)
        rng = random.Random(n + nparts)
        parts = [rng.randrange(nparts) for _ in range(n)]
        got = part_weights(graph, parts, nparts)
        assert got == numpy_part_weights(graph, parts, nparts).tolist()
        imb = imbalance(graph, parts, nparts)
        assert imb == numpy_imbalance(graph, parts, nparts).tolist()
        assert all(type(x) is float for row in got for x in row)
        assert all(type(x) is float for x in imb)


def test_a_weightless_constraint_has_ideal_one():
    """``np.where(totals > 0, totals / nparts, 1.0)``, the zero branch."""
    graph = WeightedGraph(2)
    for i in range(4):
        graph.add_node(i, [1.0, 0.0])
    assert imbalance(graph, [0, 0, 1, 1], 2) == [1.0, 0.0]
    assert imbalance(graph, [0, 0, 1, 1], 2) == numpy_imbalance(graph, [0, 0, 1, 1], 2).tolist()


def test_weights_are_stored_as_plain_floats():
    graph = WeightedGraph(2)
    graph.add_node("a", [np.float64(1.5), 2])
    graph.set_weight(0, [np.float64(2.5), 3])
    assert all(type(w) is float for w in graph.vwgts()[0])
    assert graph.vwgts() == [[2.5, 3.0]] and graph.total_weight() == [2.5, 3.0]
    graph.vwgts()[0][0] = 99.0  # a copy: the graph does not change
    assert graph.vwgts() == [[2.5, 3.0]]
