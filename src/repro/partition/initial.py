"""Greedy graph-growing initial bisection (GGP).

Grow a region breadth-first from a random seed, preferring frontier vertices
with the highest gain (most edges into the region), until the region reaches
the target weight fraction in every constraint dimension.  Several trials
are run and the best cut kept — this is Metis' GGGP strategy in its simplest
form.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

from repro.graph.metrics import edgecut
from repro.graph.wgraph import WeightedGraph
from repro.partition.refine import add_to, exceeds
from repro.partition.rng import Stream


def _reached(acc: List[float], target: List[float]) -> bool:
    for a, t in zip(acc, target):
        if not a >= t:
            return False
    return True


def grow_bisection(
    graph: WeightedGraph,
    frac: float,
    rng: Stream,
    ntrials: int = 8,
) -> List[int]:
    """Bisect ``graph`` so part 0 holds ~``frac`` of total weight.  Returns
    the 0/1 parts vector with the smallest cut over ``ntrials`` seeds."""
    n = graph.num_nodes
    if n == 0:
        return []
    # plain floats in the array version's operation order (see fm_refine)
    vw = graph.vwgts()
    target = [t * frac for t in graph.total_weight()]
    overshoot = [t * 1.6 + 1e-9 for t in target]
    adj = graph.adj
    best_parts: Optional[List[int]] = None
    best_cut = float("inf")
    for _ in range(max(1, ntrials)):
        seed = int(rng.integers(n))
        parts = [1] * n
        region = [0.0] * graph.ncon
        # max-heap of (-gain, tiebreak, node)
        heap: List = [(0.0, int(rng.integers(1 << 30)), seed)]
        in_heap = {seed}
        added = 0
        while heap and added < n - 1:
            # stop when every dimension reached its target
            if _reached(region, target):
                break
            _, _, u = heapq.heappop(heap)
            if parts[u] == 0:
                continue
            # skip nodes that would badly overshoot a dimension
            if added > 0 and exceeds(region, vw[u], overshoot):
                continue
            parts[u] = 0
            add_to(region, vw[u])
            added += 1
            for v in adj[u]:
                if parts[v] == 1 and v not in in_heap:
                    gain = sum(
                        w2 for nb, w2 in adj[v].items() if parts[nb] == 0
                    )
                    heapq.heappush(
                        heap, (-gain, int(rng.integers(1 << 30)), v)
                    )
                    in_heap.add(v)
        cut = edgecut(graph, parts)
        if cut < best_cut and 0 < parts.count(0) < n:
            best_cut = cut
            best_parts = parts
    if best_parts is None:
        # degenerate fallback: split by index at the weight median
        acc = [0.0] * graph.ncon
        best_parts = [1] * n
        for u in range(n):
            if _reached(acc, target):
                break
            best_parts[u] = 0
            add_to(acc, vw[u])
    return best_parts
