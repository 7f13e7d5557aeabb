"""Undirected vertex- and edge-weighted graph with vector vertex weights.

This is the input format of the partitioner (the Metis stand-in): vertex
weights are ``ncon``-dimensional vectors — the paper models (memory, CPU,
battery) resource vectors per object — and edge weights are scalar
communication volumes.

Weights are lists of floats, and every sum over them adds in the order
``numpy.sum`` (pinned against numpy 2.4.6) adds the ``(n, ncon)`` array they
used to be — a last-bit difference against a balance limit moves a vertex;
``tests/graph/test_weight_sums_oracle.py`` holds the numpy expressions.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.errors import PartitionError


def pairwise_sum(a: Sequence[float], lo: int = 0, hi: Optional[int] = None) -> float:
    """``a[lo:hi]`` summed as numpy sums a contiguous vector: left to right
    below 8 elements, eight interleaved accumulators up to 128, halves
    (rounded down to a multiple of 8) above.  Never builtin ``sum``, which
    is compensated from Python 3.12 on."""
    if hi is None:
        hi = len(a)
    n = hi - lo
    if n < 8:
        res = 0.0
        for i in range(lo, hi):
            res += a[i]
        return res
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = a[lo:lo + 8]
        tail = hi - n % 8
        for i in range(lo + 8, tail, 8):
            r0 += a[i]
            r1 += a[i + 1]
            r2 += a[i + 2]
            r3 += a[i + 3]
            r4 += a[i + 4]
            r5 += a[i + 5]
            r6 += a[i + 6]
            r7 += a[i + 7]
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(tail, hi):
            res += a[i]
        return res
    half = n // 2
    half -= half % 8
    return pairwise_sum(a, lo, lo + half) + pairwise_sum(a, lo + half, hi)


def column_sums(rows: Sequence[Sequence[float]], ncon: int) -> List[float]:
    """Per-constraint totals of ``rows`` (numpy's ``sum(axis=0)``): a single
    column is one contiguous vector and sums pairwise, several columns
    accumulate row after row."""
    if ncon == 1:
        return [pairwise_sum([row[0] for row in rows])]
    out = [0.0] * ncon
    for row in rows:
        for c, w in enumerate(row):
            out[c] += w
    return out


class WeightedGraph:
    """Adjacency-map graph; nodes are dense indices with optional labels."""

    def __init__(self, ncon: int = 1) -> None:
        if ncon < 1:
            raise PartitionError("ncon must be >= 1")
        self.ncon = ncon
        self._vwgts: List[List[float]] = []
        self.labels: List[Hashable] = []
        self._index: Dict[Hashable, int] = {}
        self.adj: List[Dict[int, float]] = []

    # ------------------------------------------------------------------ build
    def add_node(
        self, label: Optional[Hashable] = None, weights: Optional[Sequence[float]] = None
    ) -> int:
        idx = len(self.adj)
        if label is None:
            label = idx
        if label in self._index:
            raise PartitionError(f"duplicate node label {label!r}")
        if weights is None:
            weights = [1.0] * self.ncon
        if len(weights) != self.ncon:
            raise PartitionError(
                f"node weight vector has {len(weights)} entries, expected {self.ncon}"
            )
        self._index[label] = idx
        self.labels.append(label)
        self._vwgts.append([float(w) for w in weights])
        self.adj.append({})
        return idx

    def index_of(self, label: Hashable) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise PartitionError(f"unknown node {label!r}") from None

    def has_node(self, label: Hashable) -> bool:
        return label in self._index

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add (or accumulate onto) the undirected edge u—v."""
        n = len(self.adj)
        if not (0 <= u < n and 0 <= v < n):
            raise PartitionError(f"edge ({u},{v}) out of range")
        if u == v:
            return  # self loops carry no cut contribution
        self.adj[u][v] = self.adj[u].get(v, 0.0) + weight
        self.adj[v][u] = self.adj[v].get(u, 0.0) + weight

    def set_weight(self, u: int, weights: Sequence[float]) -> None:
        if len(weights) != self.ncon:
            raise PartitionError("bad weight vector length")
        self._vwgts[u] = [float(w) for w in weights]

    # ------------------------------------------------------------------ views
    @property
    def num_nodes(self) -> int:
        return len(self.adj)

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj) // 2

    def vwgts(self) -> List[List[float]]:
        """The n vertex weight vectors (``ncon`` floats each), as a copy."""
        return [list(row) for row in self._vwgts]

    def edges(self) -> Iterable[Tuple[int, int, float]]:
        for u, nbrs in enumerate(self.adj):
            for v, w in nbrs.items():
                if u < v:
                    yield (u, v, w)

    def degree(self, u: int) -> float:
        return sum(self.adj[u].values())

    def total_weight(self) -> List[float]:
        return column_sums(self._vwgts, self.ncon)

    def neighbors(self, u: int) -> Dict[int, float]:
        return self.adj[u]

    # ------------------------------------------------------------------ misc
    def subgraph(self, nodes: Sequence[int]) -> Tuple["WeightedGraph", List[int]]:
        """Induced subgraph; returns (graph, mapping new->old index)."""
        remap = {old: new for new, old in enumerate(nodes)}
        sub = WeightedGraph(self.ncon)
        for old in nodes:
            sub.add_node(self.labels[old], self._vwgts[old])
        for old in nodes:
            for v, w in self.adj[old].items():
                if v in remap and old < v:
                    sub.add_edge(remap[old], remap[v], w)
        return sub, list(nodes)

    def to_networkx(self):
        """Export to networkx (used by tests for cross-validation)."""
        import networkx as nx

        g = nx.Graph()
        for i, label in enumerate(self.labels):
            g.add_node(i, label=label, weight=self._vwgts[i])
        for u, v, w in self.edges():
            g.add_edge(u, v, weight=w)
        return g

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[Tuple[int, int, float]],
        vwgts: Optional[Sequence[Sequence[float]]] = None,
        ncon: int = 1,
    ) -> "WeightedGraph":
        g = cls(ncon)
        for i in range(n):
            g.add_node(i, list(vwgts[i]) if vwgts is not None else None)
        for u, v, w in edges:
            g.add_edge(u, v, w)
        return g

    def __repr__(self) -> str:  # pragma: no cover
        return f"<WeightedGraph n={self.num_nodes} m={self.num_edges} ncon={self.ncon}>"
