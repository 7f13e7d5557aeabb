"""The numpy kernels ``partition/{refine,initial,multilevel}.py`` shipped
before they were rewritten on plain floats, kept verbatim as the oracle of
``test_kernel_oracle.py``: one ``np.any`` / ``np.all`` / ``np.max`` per
vertex per step, same decisions.  ``reference_kernels()`` swaps them into
``repro.partition.multilevel`` so that ``part_graph`` runs on them — and on
what they ran on then: weights as an ``(n, ncon)`` array summed by numpy, and
draws from a real ``numpy.random.default_rng`` instead of the repo's own
``partition.rng.Stream``.  numpy lives on this side of the comparison only.
The kernels are as they shipped; the swap adapts them to the interface the
shipped recursion calls now (every balance tolerance in one call, and a
stream it can copy).
"""

from __future__ import annotations

import copy
import heapq
from contextlib import contextmanager
from typing import List, Optional, Sequence

import numpy as np

from repro.graph.metrics import edgecut
from repro.graph.wgraph import WeightedGraph
from repro.partition import api, multilevel


def _vwgts(graph: WeightedGraph) -> np.ndarray:
    """``WeightedGraph.vwgts()`` as it was: an (n, ncon) float array."""
    return np.asarray(graph.vwgts(), dtype=float).reshape(-1, graph.ncon)


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
    vw = _vwgts(graph)
    total = vw.sum(axis=0)
    targets = np.array([total * frac, total * (1.0 - frac)])  # per side
    limits = targets * ub + 1e-9

    side_w = np.zeros((2, graph.ncon))
    for u in range(n):
        side_w[parts[u]] += vw[u]

    for _ in range(max_passes):
        gains = _gains(graph, parts)
        locked = [False] * n
        sequence: List[int] = []
        cum = 0.0
        best_cum = 0.0
        best_len = 0
        sim_side = side_w.copy()
        sim_parts = list(parts)
        for _step in range(n):
            best_u = -1
            best_gain = -float("inf")
            for u in range(n):
                if locked[u]:
                    continue
                src = sim_parts[u]
                dst = 1 - src
                if np.any(sim_side[dst] + vw[u] > limits[dst]):
                    continue
                if gains[u] > best_gain:
                    best_gain = gains[u]
                    best_u = u
            if best_u == -1:
                break
            u = best_u
            src = sim_parts[u]
            dst = 1 - src
            locked[u] = True
            sim_parts[u] = dst
            sim_side[src] -= vw[u]
            sim_side[dst] += vw[u]
            cum += gains[u]
            sequence.append(u)
            # incremental gain update for neighbors
            for v, w in graph.adj[u].items():
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
            side_w[src] -= vw[u]
            side_w[dst] += vw[u]
    return parts


def grow_bisection(
    graph: WeightedGraph,
    frac: float,
    rng: np.random.Generator,
    ntrials: int = 8,
) -> List[int]:
    """Bisect ``graph`` so part 0 holds ~``frac`` of total weight.  Returns
    the 0/1 parts vector with the smallest cut over ``ntrials`` seeds."""
    n = graph.num_nodes
    if n == 0:
        return []
    vw = _vwgts(graph)
    total = vw.sum(axis=0)
    target = total * frac
    best_parts: Optional[List[int]] = None
    best_cut = float("inf")
    for _ in range(max(1, ntrials)):
        seed = int(rng.integers(n))
        parts = [1] * n
        region = np.zeros(graph.ncon)
        # max-heap of (-gain, tiebreak, node)
        heap: List = [(0.0, int(rng.integers(1 << 30)), seed)]
        in_heap = {seed}
        added = 0
        while heap and added < n - 1:
            # stop when every dimension reached its target (scalar graphs:
            # the common case — one comparison)
            if np.all(region >= target):
                break
            _, _, u = heapq.heappop(heap)
            if parts[u] == 0:
                continue
            # skip nodes that would badly overshoot a dimension
            if np.any(region + vw[u] > target * 1.6 + 1e-9) and added > 0:
                continue
            parts[u] = 0
            region += vw[u]
            added += 1
            for v, _w in graph.adj[u].items():
                if parts[v] == 1 and v not in in_heap:
                    gain = sum(
                        w2 for nb, w2 in graph.adj[v].items() if parts[nb] == 0
                    )
                    heapq.heappush(
                        heap, (-gain, int(rng.integers(1 << 30)), v)
                    )
                    in_heap.add(v)
        cut = edgecut(graph, parts)
        if cut < best_cut and 0 < sum(1 for p in parts if p == 0) < n:
            best_cut = cut
            best_parts = parts
    if best_parts is None:
        # degenerate fallback: split by index at the weight median
        order = list(range(n))
        acc = np.zeros(graph.ncon)
        best_parts = [1] * n
        for u in order:
            if np.all(acc >= target):
                break
            best_parts[u] = 0
            acc += vw[u]
    return best_parts


def exhaustive_bisect(graph: WeightedGraph, frac: float, ub: float) -> List[int]:
    """Optimal bisection by enumeration: minimize edgecut subject to both
    sides staying within ``ub`` × their target weights (per constraint);
    when no assignment is feasible, minimize overload first."""
    n = graph.num_nodes
    vw = _vwgts(graph)
    total = vw.sum(axis=0)
    targets = np.array([total * frac, total * (1.0 - frac)]) + 1e-12
    edges = list(graph.edges())
    best_key = None
    best_parts: List[int] = [0] * n
    for mask in range(1, (1 << n) - 1):
        sides = [(mask >> i) & 1 for i in range(n)]
        w = np.zeros((2, graph.ncon))
        for i, s in enumerate(sides):
            w[s] += vw[i]
        overload = float(np.max(w / (targets * ub)))
        feasible = 0 if overload <= 1.0 + 1e-9 else 1
        cut = sum(wgt for u, v, wgt in edges if sides[u] != sides[v])
        key = (feasible, cut if feasible == 0 else overload, cut)
        if best_key is None or key < best_key:
            best_key = key
            best_parts = sides
    return best_parts


class _NumpyStream:
    """``numpy.random.default_rng(seed)`` with the ``copy()`` the shipped
    multi-tolerance recursion takes of its stream."""

    def __init__(self, seed=None, generator=None):
        self._gen = np.random.default_rng(seed) if generator is None else generator

    def integers(self, high):
        return self._gen.integers(high)

    def permutation(self, n):
        return self._gen.permutation(n)

    def copy(self):
        return _NumpyStream(generator=copy.deepcopy(self._gen))


def exhaustive_bisections(graph, frac, ubs):
    """One :func:`exhaustive_bisect` per tolerance, the shipped kernel's
    many-tolerance interface."""
    return [exhaustive_bisect(graph, frac, ub) for ub in ubs]


@contextmanager
def reference_kernels():
    """Run ``part_graph(method="multilevel")`` on the kernels above."""
    shipped = (
        multilevel.fm_refine, multilevel.grow_bisection,
        multilevel.exhaustive_bisections,
    )
    multilevel.fm_refine = fm_refine
    multilevel.grow_bisection = grow_bisection
    multilevel.exhaustive_bisections = exhaustive_bisections
    shipped_stream, api.Stream = api.Stream, _NumpyStream
    try:
        yield
    finally:
        api.Stream = shipped_stream
        (
            multilevel.fm_refine, multilevel.grow_bisection,
            multilevel.exhaustive_bisections,
        ) = shipped
