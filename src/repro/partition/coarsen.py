"""Heavy-edge-matching (HEM) coarsening.

Vertices are visited in random order and matched to the unmatched neighbor
connected by the heaviest edge (Karypis/Kumar's HEM).  Matched pairs collapse
into one coarse vertex whose weight vector is the sum of its constituents;
parallel edges accumulate.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.graph.wgraph import WeightedGraph
from repro.partition.rng import Stream


def heavy_edge_matching(
    graph: WeightedGraph, rng: Stream
) -> Tuple[WeightedGraph, List[int]]:
    """One coarsening step.  Returns (coarse_graph, fine_to_coarse_map)."""
    n = graph.num_nodes
    match = [-1] * n
    order = rng.permutation(n)
    for u in order:
        if match[u] != -1:
            continue
        best, best_w = -1, -1.0
        for v, w in graph.adj[u].items():
            if match[v] == -1 and w > best_w:
                best, best_w = v, w
        if best != -1:
            match[u] = best
            match[best] = u
        else:
            match[u] = u  # unmatched: maps to itself

    coarse_of = [-1] * n
    coarse = WeightedGraph(graph.ncon)
    vw = graph.vwgts()
    for u in range(n):
        if coarse_of[u] != -1:
            continue
        v = match[u]
        if v == u or v < u:
            continue  # handled from the lower endpoint
        idx = coarse.add_node(None, [a + b for a, b in zip(vw[u], vw[v])])
        coarse_of[u] = idx
        coarse_of[v] = idx
    for u in range(n):
        if coarse_of[u] == -1:  # self-matched
            coarse_of[u] = coarse.add_node(None, vw[u])
    for u, v, w in graph.edges():
        cu, cv = coarse_of[u], coarse_of[v]
        if cu != cv:
            coarse.add_edge(cu, cv, w)
    return coarse, coarse_of


def coarsen_to(
    graph: WeightedGraph,
    target_size: int,
    rng: Stream,
    max_levels: int = 40,
) -> List[Tuple[WeightedGraph, List[int]]]:
    """Coarsen until at most ``target_size`` vertices (or shrinkage stalls).

    Returns the hierarchy as a list of (coarse_graph, fine_to_coarse_map)
    pairs, finest first; an empty list means no coarsening happened.
    """
    levels: List[Tuple[WeightedGraph, List[int]]] = []
    current = graph
    for _ in range(max_levels):
        if current.num_nodes <= target_size:
            break
        coarse, cmap = heavy_edge_matching(current, rng)
        if coarse.num_nodes >= current.num_nodes * 0.95:
            break  # diminishing returns (e.g. star graphs)
        levels.append((coarse, cmap))
        current = coarse
    return levels
