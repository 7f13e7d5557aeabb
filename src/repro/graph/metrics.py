"""Partition quality metrics: edgecut and per-constraint imbalance."""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import PartitionError
from repro.graph.wgraph import WeightedGraph, column_sums


def edgecut(graph: WeightedGraph, parts: Sequence[int]) -> float:
    """Total weight of edges straddling partitions (the paper's 'EC')."""
    if len(parts) != graph.num_nodes:
        raise PartitionError("parts vector length mismatch")
    cut = 0.0
    for u, v, w in graph.edges():
        if parts[u] != parts[v]:
            cut += w
    return cut


def part_weights(
    graph: WeightedGraph, parts: Sequence[int], nparts: int
) -> List[List[float]]:
    """``nparts`` rows of ``ncon`` per-partition weight sums."""
    out = [[0.0] * graph.ncon for _ in range(nparts)]
    for i, (p, row) in enumerate(zip(parts, graph.vwgts())):
        if not 0 <= p < nparts:
            raise PartitionError(f"node {i} assigned to invalid part {p}")
        acc = out[p]
        for c, w in enumerate(row):
            acc[c] += w
    return out


def imbalance(graph: WeightedGraph, parts: Sequence[int], nparts: int) -> List[float]:
    """Per-constraint load imbalance: ``max_p w(p,c) / (total(c)/nparts)``.

    1.0 means perfectly balanced; Metis' conventional tolerance is ~1.03 for
    one constraint and looser for several.
    """
    weights = part_weights(graph, parts, nparts)
    totals = column_sums(weights, graph.ncon)
    return [
        max(row[c] for row in weights) / (t / nparts if t > 0 else 1.0)
        for c, t in enumerate(totals)
    ]


def is_balanced(
    graph: WeightedGraph, parts: Sequence[int], nparts: int, ubvec: Sequence[float]
) -> bool:
    if len(ubvec) != graph.ncon:
        raise PartitionError(f"ubvec needs {graph.ncon} entries, got {len(ubvec)}")
    return all(x <= ub for x, ub in zip(imbalance(graph, parts, nparts), ubvec))
