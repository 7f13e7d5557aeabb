"""``part_graph`` — the Metis-like public entry point.

The paper wraps Metis behind a ~10 kLoC Java wrapper ("jMetis"); this module
is our equivalent surface: one call that takes a
:class:`~repro.graph.wgraph.WeightedGraph`, the number of partitions, a
method name and a balance tolerance, and returns a
:class:`PartitionResult` with the assignment, edgecut and imbalance.
``part_graph_tolerances`` is the same call at several balance tolerances,
doing once what reads no tolerance; ``part_graph`` is its one-tolerance
case.

Methods:

* ``multilevel`` — the full multilevel multi-constraint scheme (default);
* ``kl``         — Kernighan–Lin baseline (bisection; k-way via recursion);
* ``spectral``   — Fiedler-vector baseline;
* ``roundrobin`` — the "suboptimal naive partitioning" the paper's §7.2
  mentions (node *i* to partition ``i mod k``);
* ``random``     — uniform random assignment.

Every draw comes from :class:`repro.partition.rng.Stream`, the repo's own
replica of ``numpy.random.default_rng(seed)`` (pinned against numpy 2.4.6),
so a seed yields the ``parts`` it always did and the default path imports
no third-party package; only ``spectral`` needs numpy (and scipy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.acyclic import acyclic
from repro.api.registry import Registry
from repro.errors import PartitionError
from repro.graph.metrics import edgecut, imbalance
from repro.graph.wgraph import WeightedGraph
from repro.partition.kl import kernighan_lin
from repro.partition.multilevel import recursive_kway
from repro.partition.rng import Stream
from repro.partition.spectral import spectral_bisect

#: a partitioner takes (graph, nparts, rng, ubfactors, tpwgts) and returns
#: one per-node partition vector per balance tolerance in ``ubfactors``;
#: ``part_graph_tolerances`` handles the degenerate cases (k == 1, empty
#: graph, k >= n) before dispatching
Partitioner = Callable[
    [WeightedGraph, int, Stream, Sequence[float], Optional[List[float]]],
    List[List[int]],
]

#: the unified plugin registry partition methods are selected through
PARTITIONERS: Registry = Registry("partition method")


def _kway_from_bisector(graph: WeightedGraph, nparts: int, bisector) -> List[int]:
    parts = [0] * graph.num_nodes

    # left half first, as a recursion would split it; a stack keeps the
    # graph out of the reference cycle a recursive closure forms
    stack = [(list(range(graph.num_nodes)), nparts, 0)]
    while stack:
        node_ids, k, base = stack.pop()
        if k == 1 or len(node_ids) <= 1:
            for u in node_ids:
                parts[u] = base
            continue
        sub, mapping = graph.subgraph(node_ids)
        bis = bisector(sub)
        left = [mapping[i] for i, p in enumerate(bis) if p == 0]
        right = [mapping[i] for i, p in enumerate(bis) if p == 1]
        if not left or not right:
            mid = max(1, len(node_ids) // 2)
            left, right = node_ids[:mid], node_ids[mid:]
        k_left = k // 2
        stack.append((right, k - k_left, base + k_left))
        stack.append((left, k_left, base))
    return parts


def _tolerance_free(partition) -> Partitioner:
    """A baseline reads no balance tolerance: it runs once, from
    ``partition(graph, nparts, rng)``, and every tolerance gets a copy."""

    def partitioner(graph, nparts, rng, ubfactors, tpwgts) -> List[List[int]]:
        parts = partition(graph, nparts, rng)
        return [list(parts) for _ in ubfactors]

    return partitioner


@PARTITIONERS.register("multilevel")
def _part_multilevel(graph, nparts, rng, ubfactors, tpwgts) -> List[List[int]]:
    return recursive_kway(graph, nparts, rng, ubfactors, tpwgts)


@PARTITIONERS.register("kl")
@_tolerance_free
def _part_kl(graph, nparts, rng) -> List[int]:
    return _kway_from_bisector(graph, nparts, lambda sub: kernighan_lin(sub, rng))


@PARTITIONERS.register("spectral")
@_tolerance_free
def _part_spectral(graph, nparts, rng) -> List[int]:
    return _kway_from_bisector(
        graph,
        nparts,
        lambda sub: spectral_bisect(sub)
        if sub.num_nodes >= 2
        else [0] * sub.num_nodes,
    )


@PARTITIONERS.register("roundrobin")
@_tolerance_free
def _part_roundrobin(graph, nparts, rng) -> List[int]:
    return [i % nparts for i in range(graph.num_nodes)]


@PARTITIONERS.register("random")
@_tolerance_free
def _part_random(graph, nparts, rng) -> List[int]:
    return [int(rng.integers(nparts)) for _ in range(graph.num_nodes)]


#: canonical method tuple (registry names in historical order) — kept for
#: existing importers; prefer ``PARTITIONERS.names()``
METHODS = ("multilevel", "kl", "spectral", "roundrobin", "random")


def part_config_key(
    nparts: int,
    method: str = "multilevel",
    ubfactor: float = 1.10,
    seed: int = 17,
    tpwgts: Optional[Sequence[float]] = None,
) -> dict:
    """Canonical, JSON-stable encoding of a ``part_graph`` configuration.

    This is the downstream half of the harness stage-cache keys: two calls
    with equal keys (over the same graph) return equal partitions, and any
    field change must produce a different key."""
    return {
        "nparts": int(nparts),
        "method": str(method),
        "ubfactor": float(ubfactor),
        "seed": int(seed),
        "tpwgts": [float(t) for t in tpwgts] if tpwgts is not None else None,
    }


@dataclass
class PartitionResult:
    """Outcome of one partitioning call."""

    parts: List[int]
    nparts: int
    method: str
    edgecut: float
    imbalance: List[float] = field(default_factory=list)

    def part_of(self, node: int) -> int:
        return self.parts[node]

    def groups(self) -> List[List[int]]:
        out: List[List[int]] = [[] for _ in range(self.nparts)]
        for node, p in enumerate(self.parts):
            out[p].append(node)
        return out

    def validate(self, graph: WeightedGraph) -> None:
        """Recompute the quality metrics from ``graph`` and raise
        :class:`PartitionError` if the stored ones disagree or any vertex
        lacks a valid assignment — the differential check the property
        suite runs against every partitioner."""
        if len(self.parts) != graph.num_nodes:
            raise PartitionError(
                f"parts vector has {len(self.parts)} entries for "
                f"{graph.num_nodes} vertices"
            )
        for node, p in enumerate(self.parts):
            if not 0 <= p < self.nparts:
                raise PartitionError(f"vertex {node} assigned to part {p}")
        cut = edgecut(graph, self.parts)
        if abs(cut - self.edgecut) > 1e-6 * max(1.0, abs(cut)):
            raise PartitionError(
                f"stored edgecut {self.edgecut} != recomputed {cut}"
            )
        if graph.num_nodes:
            imb = imbalance(graph, self.parts, self.nparts)
            # numpy.allclose's tolerances
            if len(self.imbalance) != len(imb) or not all(
                math.isclose(s, x, rel_tol=1e-5, abs_tol=1e-8)
                for s, x in zip(self.imbalance, imb)
            ):
                raise PartitionError(
                    f"stored imbalance {self.imbalance} != recomputed {imb}"
                )


def part_graph(
    graph: WeightedGraph,
    nparts: int,
    method: str = "multilevel",
    ubfactor: float = 1.10,
    seed: int = 17,
    tpwgts: Optional[Sequence[float]] = None,
) -> PartitionResult:
    """Partition ``graph`` into ``nparts`` parts.  See module docstring.

    ``tpwgts`` sets per-partition target weight fractions (heterogeneous
    node capacities); multilevel only — baselines ignore it."""
    return part_graph_tolerances(
        graph, nparts, (ubfactor,), method=method, seed=seed, tpwgts=tpwgts
    )[0]


@acyclic
def part_graph_tolerances(
    graph: WeightedGraph,
    nparts: int,
    ubfactors: Sequence[float],
    method: str = "multilevel",
    seed: int = 17,
    tpwgts: Optional[Sequence[float]] = None,
) -> List[PartitionResult]:
    """:func:`part_graph` at every balance tolerance in ``ubfactors``, in
    one call: result ``i`` is ``part_graph(..., ubfactor=ubfactors[i])``.
    What reads no tolerance (the seeded stream, the first bisection's
    subgraph, coarsening and initial bisection, a baseline's whole run) is
    done once."""
    if nparts < 1:
        raise PartitionError(f"nparts must be >= 1, got {nparts}")
    partitioner = PARTITIONERS.get(method)  # UnknownPluginError on bad names
    if tpwgts is not None and len(tpwgts) != nparts:
        raise PartitionError("tpwgts length must equal nparts")
    n = graph.num_nodes
    ubfactors = tuple(ubfactors)

    if nparts == 1 or n == 0:
        per_tolerance = [[0] * n for _ in ubfactors]
    elif nparts >= n:
        # one node per part; extra parts stay empty
        per_tolerance = [list(range(n)) for _ in ubfactors]
    else:
        per_tolerance = partitioner(
            graph, nparts, Stream(seed), ubfactors,
            list(tpwgts) if tpwgts is not None else None,
        )

    return [
        PartitionResult(
            parts=parts,
            nparts=nparts,
            method=method,
            edgecut=edgecut(graph, parts),
            imbalance=imbalance(graph, parts, nparts) if n else [],
        )
        for parts in per_tolerance
    ]
