"""Property-based ``part_graph`` tests over random weighted graphs.

Three families (ISSUE satellite):

* assignment totality — every vertex lands in exactly one partition;
* metric honesty — the reported edgecut/imbalance equal recomputation
  via :mod:`repro.graph.metrics` (checked through
  :meth:`PartitionResult.validate`);
* tolerance — in the exhaustive-bisection regime (the CRG/ODG sizes the
  paper actually partitions) a feasible balance constraint is respected.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.metrics import edgecut, imbalance
from repro.graph.wgraph import WeightedGraph
from repro.partition import part_graph
from repro.partition.api import METHODS, part_config_key


def random_graph(n: int, seed: int, p: float = 0.35, unit: bool = False):
    rng = np.random.default_rng(seed)
    g = WeightedGraph(1)
    for i in range(n):
        g.add_node(i, [1.0] if unit else [float(rng.integers(1, 4))])
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v, float(rng.integers(1, 6)))
    return g


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=2, max_value=28),
    seed=st.integers(min_value=0, max_value=9999),
    k=st.integers(min_value=1, max_value=5),
)
def test_every_vertex_in_exactly_one_partition(n, seed, k):
    g = random_graph(n, seed)
    for method in METHODS:
        result = part_graph(g, k, method=method)
        assert len(result.parts) == n
        groups = result.groups()
        assert len(groups) == result.nparts
        # disjoint cover: each vertex appears in exactly one group
        flat = sorted(v for grp in groups for v in grp)
        assert flat == list(range(n))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=0, max_value=24),
    seed=st.integers(min_value=0, max_value=9999),
    k=st.integers(min_value=1, max_value=4),
)
def test_reported_metrics_match_recomputation(n, seed, k):
    g = random_graph(n, seed)
    for method in METHODS:
        result = part_graph(g, k, method=method)
        result.validate(g)  # raises on any metric mismatch
        assert result.edgecut == edgecut(g, result.parts)
        if n:
            recomputed = imbalance(g, result.parts, result.nparts)
            assert np.allclose(result.imbalance, recomputed)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    half=st.integers(min_value=2, max_value=7),
    seed=st.integers(min_value=0, max_value=9999),
    ub=st.sampled_from([1.1, 1.3, 1.5]),
)
def test_multilevel_respects_tolerance_when_feasible(half, seed, ub):
    """Unit weights and even n make a perfectly balanced bisection feasible,
    so the multilevel scheme (exhaustive at these CRG/ODG-like sizes) must
    return a partition within the requested tolerance."""
    n = 2 * half
    g = random_graph(n, seed, p=0.5, unit=True)
    result = part_graph(g, 2, method="multilevel", ubfactor=ub)
    imb = max(imbalance(g, result.parts, 2))
    assert imb <= ub + 1e-6, (n, seed, ub, imb)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=9999))
def test_multilevel_tolerance_weighted_feasible(seed):
    """Weighted variant: the tolerance also holds whenever *some* assignment
    within it exists (verified by enumeration on small graphs)."""
    n = 10
    g = random_graph(n, seed, p=0.5)
    ub = 1.3
    vw = np.asarray(g.vwgts())[:, 0]
    total = float(vw.sum())
    limit = ub * total / 2.0
    feasible = any(
        max(s := sum(vw[i] for i in range(n) if (mask >> i) & 1), total - s) <= limit
        for mask in range(1, 1 << (n - 1))
    )
    result = part_graph(g, 2, method="multilevel", ubfactor=ub)
    if feasible:
        assert max(imbalance(g, result.parts, 2)) <= ub + 1e-6


def test_part_config_key_is_canonical():
    a = part_config_key(2, "multilevel", 1.1, 17, None)
    b = part_config_key(2, "multilevel", 1.10, 17)
    assert a == b
    assert part_config_key(2, "kl") != part_config_key(2, "multilevel")
    assert part_config_key(2, tpwgts=[0.5, 0.5]) != part_config_key(2)
