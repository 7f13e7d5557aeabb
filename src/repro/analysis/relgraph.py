"""A small directed relation graph shared by the CRG and the ODG.

Edges carry a *kind* (use / export / import / create / reference), an
optional type label, a statement count and a byte-volume estimate; parallel
edges of the same kind merge by accumulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from repro.graph.wgraph import WeightedGraph


@dataclass
class RelEdge:
    src: Hashable
    dst: Hashable
    kind: str
    label: Optional[str] = None
    count: int = 1
    volume: float = 0.0  # estimated bytes of dependence data


class RelGraph:
    """Directed graph over hashable node ids with kinded, merged edges."""

    def __init__(self) -> None:
        self.nodes: Dict[Hashable, str] = {}   # id -> display label
        self._edges: Dict[Tuple, RelEdge] = {}

    def add_node(self, node: Hashable, label: Optional[str] = None) -> None:
        if node not in self.nodes:
            self.nodes[node] = label if label is not None else str(node)

    def add_edge(
        self,
        src: Hashable,
        dst: Hashable,
        kind: str,
        label: Optional[str] = None,
        count: int = 1,
        volume: float = 0.0,
    ) -> None:
        key = (src, dst, kind, label)
        existing = self._edges.get(key)
        if existing is None:
            self.add_node(src)
            self.add_node(dst)
            self._edges[key] = RelEdge(src, dst, kind, label, count, volume)
        else:
            existing.count += count
            existing.volume += volume

    def edges(self, kind: Optional[str] = None) -> List[RelEdge]:
        if kind is None:
            return list(self._edges.values())
        return [e for e in self._edges.values() if e.kind == kind]

    def has_edge(self, src, dst, kind: str, label: Optional[str] = None) -> bool:
        if label is not None:
            return (src, dst, kind, label) in self._edges
        return any(
            k[0] == src and k[1] == dst and k[2] == kind for k in self._edges
        )

    def out_edges(self, src, kind: Optional[str] = None) -> List[RelEdge]:
        return [
            e
            for e in self._edges.values()
            if e.src == src and (kind is None or e.kind == kind)
        ]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def to_weighted_graph(
        self,
        kinds: Iterable[str] = ("use",),
        weight_from: str = "volume",
    ) -> Tuple[WeightedGraph, List[Hashable]]:
        """Collapse to an undirected :class:`WeightedGraph` over the same
        node set, merging edge directions.  ``weight_from`` selects edge
        weight: 'volume' (bytes, min 1) or 'count'."""
        order = sorted(self.nodes, key=str)
        g = WeightedGraph(1)
        for node in order:
            g.add_node(node)
        wanted = set(kinds)
        for e in self._edges.values():
            if e.kind not in wanted or e.src == e.dst:
                continue
            w = e.volume if weight_from == "volume" else float(e.count)
            g.add_edge(g.index_of(e.src), g.index_of(e.dst), max(w, 1.0))
        return g, order

    def to_vcg(self, title: str) -> str:
        from repro.graph.vcg import vcg_digraph

        return vcg_digraph(
            title,
            [(n, lbl) for n, lbl in sorted(self.nodes.items(), key=lambda kv: str(kv[0]))],
            [(e.src, e.dst, e.kind) for e in self._edges.values()],
        )
