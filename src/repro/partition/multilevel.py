"""Multilevel k-way partitioning by recursive bisection.

One bisection is a V-cycle: HEM coarsening to ~64 vertices, greedy
graph-growing initial partition at the coarsest level, then FM refinement
while projecting back up the hierarchy (Hendrickson/Leland's multilevel
scheme, the one the paper cites as state of the art).  k-way partitions are
built by recursive bisection with proportional weight splits, so non-power-
of-two ``nparts`` work naturally.
"""

from __future__ import annotations

from typing import List, Optional

from repro.graph.wgraph import WeightedGraph
from repro.partition.coarsen import coarsen_to
from repro.partition.initial import grow_bisection
from repro.partition.refine import fm_refine
from repro.partition.rng import Stream

COARSEN_TARGET = 64

#: below this size a bisection is solved exactly by enumeration — program
#: dependence graphs (CRG/ODG) are tiny, so the "Metis" quality floor for
#: them is the true optimum
EXHAUSTIVE_LIMIT = 15


def exhaustive_bisect(graph: WeightedGraph, frac: float, ub: float) -> List[int]:
    """Optimal bisection by enumeration: minimize edgecut subject to both
    sides staying within ``ub`` × their target weights (per constraint);
    when no assignment is feasible, minimize overload first."""
    n = graph.num_nodes
    # plain floats in the array version's operation order (see fm_refine)
    columns = list(zip(*graph.vwgts()))  # one weight tuple per constraint
    total = graph.total_weight()
    caps = [
        ((t * frac + 1e-12) * ub, (t * (1.0 - frac) + 1e-12) * ub)
        for t in total
    ]
    edges = list(graph.edges())
    best_key = None
    best_parts: List[int] = [0] * n
    for mask in range(1, (1 << n) - 1):
        sides = [(mask >> i) & 1 for i in range(n)]
        overload = float("-inf")
        for column, (cap0, cap1) in zip(columns, caps):
            w0 = w1 = 0.0
            for s, w in zip(sides, column):
                if s:
                    w1 += w
                else:
                    w0 += w
            overload = max(overload, w0 / cap0, w1 / cap1)
        feasible = 0 if overload <= 1.0 + 1e-9 else 1
        cut = sum([wgt for u, v, wgt in edges if sides[u] != sides[v]])
        key = (feasible, cut if feasible == 0 else overload, cut)
        if best_key is None or key < best_key:
            best_key = key
            best_parts = sides
    return best_parts


def multilevel_bisect(
    graph: WeightedGraph,
    frac: float,
    rng: Stream,
    ub: float = 1.10,
) -> List[int]:
    """Bisect ``graph`` with ~``frac`` of the weight in part 0."""
    n = graph.num_nodes
    if n == 0:
        return []
    if n == 1:
        return [0]
    if n <= EXHAUSTIVE_LIMIT:
        return exhaustive_bisect(graph, frac, ub)
    hierarchy = coarsen_to(graph, COARSEN_TARGET, rng)
    coarsest = hierarchy[-1][0] if hierarchy else graph
    parts = grow_bisection(coarsest, frac, rng)
    parts = fm_refine(coarsest, parts, frac, ub)
    # project back up, refining at every level; hierarchy[idx] holds the
    # coarse graph and the fine->coarse map whose fine side is
    # hierarchy[idx-1] (or the input graph at idx == 0)
    for idx in range(len(hierarchy) - 1, -1, -1):
        _, cmap = hierarchy[idx]
        fine_graph = graph if idx == 0 else hierarchy[idx - 1][0]
        fine_parts = [parts[cmap[u]] for u in range(fine_graph.num_nodes)]
        parts = fm_refine(fine_graph, fine_parts, frac, ub)
    return parts


def recursive_kway(
    graph: WeightedGraph,
    nparts: int,
    rng: Stream,
    ub: float = 1.10,
    tpwgts: Optional[List[float]] = None,
) -> List[int]:
    """k-way partition via recursive bisection; returns parts in 0..nparts-1.

    ``tpwgts`` gives the target weight *fraction* per partition (Metis'
    heterogeneous-capacity feature; the paper's §3 models exactly this:
    "account for the resource constraints of each partition").  Defaults to
    uniform."""
    n = graph.num_nodes
    parts = [0] * n
    if nparts <= 1 or n == 0:
        return parts
    if tpwgts is None:
        tpwgts = [1.0 / nparts] * nparts
    total_frac = sum(tpwgts)
    tpwgts = [max(t, 1e-9) / total_frac for t in tpwgts]

    # (nodes, target fractions, first partition) still to split; the left
    # half pops first, so the bisections draw from ``rng`` in the order a
    # left-first recursion would (a stack, not a recursive closure, which
    # would hold the graph and ``rng`` in a reference cycle)
    stack = [(list(range(n)), list(tpwgts), 0)]
    while stack:
        node_ids, fracs, base = stack.pop()
        k = len(fracs)
        if k == 1 or len(node_ids) <= 1:
            for u in node_ids:
                parts[u] = base
            continue
        k_left = k // 2
        frac_left = sum(fracs[:k_left]) / sum(fracs)
        sub, mapping = graph.subgraph(node_ids)
        bisection = multilevel_bisect(sub, frac_left, rng, ub)
        left = [mapping[i] for i, p in enumerate(bisection) if p == 0]
        right = [mapping[i] for i, p in enumerate(bisection) if p == 1]
        if not left or not right:
            # a degenerate bisection (tiny graphs): fall back to halving
            mid = max(1, int(round(len(node_ids) * frac_left)))
            mid = min(mid, len(node_ids) - 1)
            left, right = node_ids[:mid], node_ids[mid:]
        stack.append((right, fracs[k_left:], base + k_left))
        stack.append((left, fracs[:k_left], base))
    return parts
