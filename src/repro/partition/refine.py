"""Fiduccia–Mattheyses boundary refinement for bisections, multi-constraint.

Classic FM with rollback: repeatedly move the highest-gain movable boundary
vertex to the other side (locking it), remember the best prefix of the move
sequence, and roll back to it at the end of the pass.  A move is *admissible*
if the destination side stays within ``ub × target`` in **every** weight
dimension — this is the multi-constraint balance rule of the paper's §3.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.graph.wgraph import WeightedGraph


def _gains(graph: WeightedGraph, parts: Sequence[int]) -> List[float]:
    gains = [0.0] * graph.num_nodes
    for u in range(graph.num_nodes):
        internal = external = 0.0
        for v, w in graph.adj[u].items():
            if parts[v] == parts[u]:
                internal += w
            else:
                external += w
        gains[u] = external - internal
    return gains


def exceeds(side: List[float], w: List[float], limit: List[float]) -> bool:
    """Would adding ``w`` to ``side`` pass ``limit`` in any dimension?"""
    for s, x, lim in zip(side, w, limit):
        if s + x > lim:
            return True
    return False


def add_to(acc: List[float], w: List[float]) -> None:
    for c, wc in enumerate(w):
        acc[c] += wc


def _move(side_w: List[List[float]], w: List[float], src: int, dst: int) -> None:
    from_side, to_side = side_w[src], side_w[dst]
    for c, wc in enumerate(w):
        from_side[c] -= wc
        to_side[c] += wc


def fm_refine(
    graph: WeightedGraph,
    parts: List[int],
    frac: float = 0.5,
    ub: float = 1.10,
    max_passes: int = 6,
) -> List[int]:
    """Refine a 0/1 bisection in place (also returned)."""
    n = graph.num_nodes
    if n == 0:
        return parts
    # Everything below is plain float arithmetic on lists, in the order the
    # array version used, so every comparison and tie-break is unchanged.
    vw = graph.vwgts()
    total = graph.total_weight()
    limits = [
        [t * frac * ub + 1e-9 for t in total],
        [t * (1.0 - frac) * ub + 1e-9 for t in total],
    ]
    adj = graph.adj

    side_w = [[0.0] * graph.ncon, [0.0] * graph.ncon]
    for u in range(n):
        add_to(side_w[parts[u]], vw[u])

    for _ in range(max_passes):
        gains = _gains(graph, parts)
        locked = [False] * n
        sequence: List[int] = []
        cum = 0.0
        best_cum = 0.0
        best_len = 0
        sim_side = [list(side_w[0]), list(side_w[1])]
        sim_parts = list(parts)
        for _step in range(n):
            # highest-gain unlocked vertex whose move keeps the destination
            # within its limit in every dimension; first such vertex on ties
            best_u = -1
            best_gain = -float("inf")
            for u in range(n):
                if locked[u] or not gains[u] > best_gain:
                    continue
                dst = 1 - sim_parts[u]
                if not exceeds(sim_side[dst], vw[u], limits[dst]):
                    best_gain = gains[u]
                    best_u = u
            if best_u == -1:
                break
            u = best_u
            src = sim_parts[u]
            dst = 1 - src
            locked[u] = True
            sim_parts[u] = dst
            _move(sim_side, vw[u], src, dst)
            cum += gains[u]
            sequence.append(u)
            # incremental gain update for neighbors
            for v, w in adj[u].items():
                if locked[v]:
                    continue
                if sim_parts[v] == dst:
                    gains[v] -= 2 * w
                else:
                    gains[v] += 2 * w
            gains[u] = -gains[u]
            if cum > best_cum + 1e-12:
                best_cum = cum
                best_len = len(sequence)
            # early exit: no point dragging a long bad tail on big graphs
            if len(sequence) - best_len > 50:
                break
        if best_len == 0:
            break
        for u in sequence[:best_len]:
            src = parts[u]
            dst = 1 - src
            parts[u] = dst
            _move(side_w, vw[u], src, dst)
    return parts
