"""Kernighan–Lin bisection — the classic 1970 heuristic, kept as a baseline
(the paper cites KL via Dutt's faster variants as the pre-multilevel state
of the art).

Standard formulation: start from a weight-balanced bisection, compute
``D(v) = E(v) - I(v)``, greedily select swap pairs maximizing
``g = D(a)+D(b)-2w(a,b)``, and apply the best prefix of the swap sequence;
repeat passes until no positive prefix exists.
"""

from __future__ import annotations

from typing import List, Optional

from repro.graph.wgraph import WeightedGraph, pairwise_sum
from repro.partition.rng import Stream


def kernighan_lin(
    graph: WeightedGraph,
    rng: Optional[Stream] = None,
    max_passes: int = 10,
) -> List[int]:
    n = graph.num_nodes
    if n == 0:
        return []
    rng = rng or Stream(0)
    # initial balanced split by scalar weight
    scalar = [pairwise_sum(row) for row in graph.vwgts()]
    order = list(rng.permutation(n))
    half = pairwise_sum(scalar) / 2.0
    parts = [1] * n
    acc = 0.0
    for u in order:
        if acc < half:
            parts[u] = 0
            acc += scalar[u]

    def dvals() -> List[float]:
        d = [0.0] * n
        for u in range(n):
            for v, w in graph.adj[u].items():
                d[u] += w if parts[v] != parts[u] else -w
        return d

    for _ in range(max_passes):
        d = dvals()
        locked = [False] * n
        gains: List[float] = []
        pairs: List[tuple] = []
        a_side = [u for u in range(n) if parts[u] == 0]
        b_side = [u for u in range(n) if parts[u] == 1]
        steps = min(len(a_side), len(b_side))
        for _step in range(steps):
            best = None
            best_g = -float("inf")
            for a in a_side:
                if locked[a]:
                    continue
                for b in b_side:
                    if locked[b]:
                        continue
                    g = d[a] + d[b] - 2 * graph.adj[a].get(b, 0.0)
                    if g > best_g:
                        best_g = g
                        best = (a, b)
            if best is None:
                break
            a, b = best
            locked[a] = locked[b] = True
            gains.append(best_g)
            pairs.append(best)
            # update D values as if a and b were swapped
            for x in range(n):
                if locked[x]:
                    continue
                wxa = graph.adj[x].get(a, 0.0)
                wxb = graph.adj[x].get(b, 0.0)
                if parts[x] == 0:
                    d[x] += 2 * wxa - 2 * wxb
                else:
                    d[x] += 2 * wxb - 2 * wxa
        # best prefix
        best_k, best_sum, run = 0, 0.0, 0.0
        for k, g in enumerate(gains, start=1):
            run += g
            if run > best_sum + 1e-12:
                best_sum = run
                best_k = k
        if best_k == 0:
            break
        for a, b in pairs[:best_k]:
            parts[a], parts[b] = 1, 0
    return parts
