"""Multilevel k-way partitioning by recursive bisection.

One bisection is a V-cycle: HEM coarsening to ~64 vertices, greedy
graph-growing initial partition at the coarsest level, then FM refinement
while projecting back up the hierarchy (Hendrickson/Leland's multilevel
scheme, the one the paper cites as state of the art).  k-way partitions are
built by recursive bisection with proportional weight splits, so non-power-
of-two ``nparts`` work naturally.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

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
    """The optimal bisection at one tolerance (:func:`exhaustive_bisections`)."""
    return exhaustive_bisections(graph, frac, (ub,))[0]


def exhaustive_bisections(
    graph: WeightedGraph, frac: float, ubs: Sequence[float]
) -> List[List[int]]:
    """Optimal bisections by enumeration, one per tolerance in ``ubs``:
    minimize edgecut subject to both sides staying within ``ub`` × their
    target weights (per constraint); when no assignment is feasible,
    minimize overload first; of equal keys the lowest mask wins (bit ``i``
    of a mask is vertex ``i``'s side).  One pass over the masks serves
    every tolerance."""
    n = graph.num_nodes
    # plain floats in the array version's operation order (see fm_refine)
    columns = list(zip(*graph.vwgts()))  # one weight tuple per constraint
    total = graph.total_weight()
    caps = [
        [((t * frac + 1e-12) * ub, (t * (1.0 - frac) + 1e-12) * ub)
         for t in total]
        for ub in ubs
    ]
    edges = list(graph.edges())
    if _integral(columns) and _integral([[w for _, _, w in edges]]):
        masks = _gray_walk(graph, columns, caps)
    else:
        masks = _mask_scan(n, columns, caps, edges)
    return [[(mask >> i) & 1 for i in range(n)] for mask in masks]


def _integral(columns: Sequence[Sequence[float]]) -> bool:
    """Every value is integer-valued and each column's absolute total is
    below 2**53, so every sum of a subset is exact in any order."""
    for column in columns:
        total = 0.0
        for w in column:
            if not float(w).is_integer():
                return False
            total += abs(w)
        if not total < 2.0 ** 53:
            return False
    return True


def _mask_scan(n, columns, caps, edges) -> List[int]:
    """The best mask per tolerance, every cut and side weight summed afresh
    per mask: exact for any weights, at O(n + |E|) per mask.  A mask whose
    cut exceeds every tolerance's best feasible cut is not weighed."""
    best: List = [None] * len(caps)  # per tolerance: (key, mask)
    bound = float("inf")  # no mask cut above it improves on any tolerance
    for mask in range(1, (1 << n) - 1):
        sides = [(mask >> i) & 1 for i in range(n)]
        cut = sum([wgt for u, v, wgt in edges if sides[u] != sides[v]])
        if cut > bound:
            continue
        sums = []
        for column in columns:
            w0 = w1 = 0.0
            for s, w in zip(sides, column):
                if s:
                    w1 += w
                else:
                    w0 += w
            sums.append((w0, w1))
        for t, tcaps in enumerate(caps):
            overload = float("-inf")
            for (w0, w1), (cap0, cap1) in zip(sums, tcaps):
                overload = max(overload, w0 / cap0, w1 / cap1)
            feasible = 0 if overload <= 1.0 + 1e-9 else 1
            key = (feasible, cut if feasible == 0 else overload, cut)
            if best[t] is None or key < best[t][0]:
                best[t] = (key, mask)
                if all(b is not None and b[0][0] == 0 for b in best):
                    bound = max(b[0][1] for b in best)
    return [0 if b is None else b[1] for b in best]


def _gray_walk(graph: WeightedGraph, columns, caps) -> List[int]:
    """:func:`_mask_scan` for integral weights (:func:`_integral`): the masks
    in Gray-code order, each one vertex away from the last, so the side
    weights and the cut move by that vertex's weights and edges — the same
    exact integers the scan sums.  The cut moves by the vertex's weighted
    degree less twice its weight to side 1, read from two tables of subset
    sums over its neighbours (one per half of the mask).  A mask whose cut
    exceeds every tolerance's best feasible cut is not weighed."""
    n = graph.num_nodes
    half = n // 2
    low = (1 << half) - 1
    low_sums, high_sums, degree = [], [], []
    for j in range(n):
        row = [0.0] * n
        for k, w in graph.adj[j].items():
            row[k] = w
        low_sums.append(_subset_sums(row[:half]))
        high_sums.append(_subset_sums(row[half:]))
        degree.append(high_sums[j][-1] + low_sums[j][-1])
    cons = range(len(columns))
    rows = list(zip(*columns))
    w0 = [sum(column, 0.0) for column in columns]
    w1 = [0.0 for _ in cons]
    bits = [1 << j for j in range(n)]
    full = (1 << n) - 1
    # vertex j flips at step i of the walk when 2**j is i's lowest set bit
    flips: List[int] = []
    for j in range(n):
        flips = flips + [j] + flips
    tolerances = range(len(caps))
    inf = float("inf")
    feasible = [False for _ in tolerances]
    best_over = [inf for _ in tolerances]
    best_cut = [inf for _ in tolerances]
    best_mask = [0 for _ in tolerances]
    bound = inf  # no mask cut above it improves on any tolerance
    mask = 0
    cut = 0.0
    for j in flips:
        bit = bits[j]
        mask ^= bit
        # j's neighbours on side 1
        ones = low_sums[j][mask & low] + high_sums[j][mask >> half]
        row = rows[j]
        if mask & bit:
            cut += degree[j] - 2.0 * ones
            for c in cons:
                w0[c] -= row[c]
                w1[c] += row[c]
        else:
            cut += 2.0 * ones - degree[j]
            for c in cons:
                w0[c] += row[c]
                w1[c] -= row[c]
        if cut > bound or mask == full:
            continue
        for t in tolerances:
            if feasible[t] and (
                cut > best_cut[t] or cut == best_cut[t] and mask > best_mask[t]
            ):
                continue
            overload = -inf
            for (cap0, cap1), a, b in zip(caps[t], w0, w1):
                a /= cap0
                b /= cap1
                if a > overload:
                    overload = a
                if b > overload:
                    overload = b
            if overload <= 1.0 + 1e-9:
                feasible[t] = True
                best_cut[t] = cut
                best_mask[t] = mask
                if all(feasible):
                    bound = max(best_cut)
            elif not feasible[t]:
                if overload > best_over[t] or overload == best_over[t] and (
                    cut > best_cut[t]
                    or cut == best_cut[t] and mask > best_mask[t]
                ):
                    continue
                best_over[t] = overload
                best_cut[t] = cut
                best_mask[t] = mask
    return best_mask


def _subset_sums(values: List[float]) -> List[float]:
    """``sums[s]`` is the sum of ``values[i]`` over the set bits ``i`` of
    ``s``."""
    sums = [0.0]
    for w in values:
        sums += [x + w for x in sums]
    return sums


def multilevel_bisect(
    graph: WeightedGraph,
    frac: float,
    rng: Stream,
    ub: float = 1.10,
) -> List[int]:
    """Bisect ``graph`` with ~``frac`` of the weight in part 0."""
    return multilevel_bisections(graph, frac, rng, (ub,))[0]


def multilevel_bisections(
    graph: WeightedGraph,
    frac: float,
    rng: Stream,
    ubs: Sequence[float],
) -> List[List[int]]:
    """:func:`multilevel_bisect` at every tolerance in ``ubs``.  Coarsening
    and the initial bisection read no tolerance and run once; each
    tolerance refines its own copy up the hierarchy.  ``rng`` is drawn from
    as one bisection at any one tolerance draws from it."""
    n = graph.num_nodes
    if n <= 1:
        return [[0] * n for _ in ubs]
    if n <= EXHAUSTIVE_LIMIT:
        return exhaustive_bisections(graph, frac, ubs)
    hierarchy = coarsen_to(graph, COARSEN_TARGET, rng)
    coarsest = hierarchy[-1][0] if hierarchy else graph
    initial = grow_bisection(coarsest, frac, rng)
    out = []
    for ub in ubs:
        parts = fm_refine(coarsest, list(initial), frac, ub)
        # project back up, refining at every level; hierarchy[idx] holds the
        # coarse graph and the fine->coarse map whose fine side is
        # hierarchy[idx-1] (or the input graph at idx == 0)
        for idx in range(len(hierarchy) - 1, -1, -1):
            _, cmap = hierarchy[idx]
            fine_graph = graph if idx == 0 else hierarchy[idx - 1][0]
            fine_parts = [parts[cmap[u]] for u in range(fine_graph.num_nodes)]
            parts = fm_refine(fine_graph, fine_parts, frac, ub)
        out.append(parts)
    return out


def recursive_kway(
    graph: WeightedGraph,
    nparts: int,
    rng: Stream,
    ubs: Sequence[float] = (1.10,),
    tpwgts: Optional[List[float]] = None,
) -> List[List[int]]:
    """k-way partitions via recursive bisection, one per tolerance in
    ``ubs``; each assigns parts in 0..nparts-1.

    ``tpwgts`` gives the target weight *fraction* per partition (Metis'
    heterogeneous-capacity feature; the paper's §3 models exactly this:
    "account for the resource constraints of each partition").  Defaults to
    uniform.

    Every tolerance's first bisection splits the whole graph with the
    stream as it was passed in, so it runs once for all of them
    (:func:`multilevel_bisections`); each tolerance then continues from its
    own copy of the stream, drawing what a call at that tolerance alone
    would draw."""
    n = graph.num_nodes
    if nparts <= 1 or n <= 1:
        return [[0] * n for _ in ubs]
    if tpwgts is None:
        tpwgts = [1.0 / nparts] * nparts
    total_frac = sum(tpwgts)
    tpwgts = [max(t, 1e-9) / total_frac for t in tpwgts]

    # (nodes, target fractions, first partition) still to split; the left
    # half pops first, so the bisections draw from the stream in the order
    # a left-first recursion would (a stack, not a recursive closure, which
    # would hold the graph and the stream in a reference cycle)
    last = len(ubs) - 1
    out = []
    first = _bisect(graph, list(range(n)), tpwgts, 0, rng, ubs)
    for t, halves in enumerate(first):
        stream = rng if t == last else rng.copy()
        parts = [0] * n
        stack = list(halves)
        while stack:
            node_ids, fracs, base = stack.pop()
            if len(fracs) == 1 or len(node_ids) <= 1:
                for u in node_ids:
                    parts[u] = base
                continue
            stack.extend(
                _bisect(graph, node_ids, fracs, base, stream, (ubs[t],))[0]
            )
        out.append(parts)
    return out


def _bisect(graph: WeightedGraph, node_ids: List[int], fracs: List[float],
            base: int, rng: Stream, ubs: Sequence[float]):
    """Split ``node_ids`` (target fractions ``fracs``, first partition
    ``base``) at every tolerance in ``ubs``: per tolerance, its two
    ``(nodes, fractions, first partition)`` halves in push order."""
    k_left = len(fracs) // 2
    frac_left = sum(fracs[:k_left]) / sum(fracs)
    sub, mapping = graph.subgraph(node_ids)
    out = []
    for bisection in multilevel_bisections(sub, frac_left, rng, ubs):
        left = [mapping[i] for i, p in enumerate(bisection) if p == 0]
        right = [mapping[i] for i, p in enumerate(bisection) if p == 1]
        if not left or not right:
            # a degenerate bisection (tiny graphs): fall back to halving
            mid = max(1, int(round(len(node_ids) * frac_left)))
            mid = min(mid, len(node_ids) - 1)
            left, right = node_ids[:mid], node_ids[mid:]
        out.append(((right, fracs[k_left:], base + k_left),
                    (left, fracs[:k_left], base)))
    return out
