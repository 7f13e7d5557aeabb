"""Spectral bisection baseline (Fiedler vector).

Splits at the weighted median of the second-smallest eigenvector of the
graph Laplacian.  Uses dense numpy for small graphs and
``scipy.sparse.linalg.eigsh`` beyond that — the one module in ``src/`` that
needs a third-party package, imported when a bisection is asked for, so
that no other path pays for it.
"""

from __future__ import annotations

from typing import List

from repro.errors import PartitionError
from repro.graph.wgraph import WeightedGraph

_DENSE_LIMIT = 600


def fiedler_vector(graph: WeightedGraph):
    n = graph.num_nodes
    if n < 2:
        raise PartitionError("spectral bisection needs >= 2 nodes")
    try:
        import numpy as np

        if n > _DENSE_LIMIT:
            import scipy.sparse as sp
            import scipy.sparse.linalg as spla
    except ImportError as exc:
        raise PartitionError(
            f"spectral needs numpy (and scipy above {_DENSE_LIMIT} vertices): "
            f"cannot import {exc.name or exc}; every other partition method "
            "runs without them"
        ) from None
    if n <= _DENSE_LIMIT:
        lap = np.zeros((n, n))
        for u, v, w in graph.edges():
            lap[u, v] -= w
            lap[v, u] -= w
            lap[u, u] += w
            lap[v, v] += w
        vals, vecs = np.linalg.eigh(lap)
        return vecs[:, 1]
    rows, cols, data = [], [], []
    deg = np.zeros(n)
    for u, v, w in graph.edges():
        rows += [u, v]
        cols += [v, u]
        data += [-w, -w]
        deg[u] += w
        deg[v] += w
    rows += list(range(n))
    cols += list(range(n))
    data += deg.tolist()
    lap = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    vals, vecs = spla.eigsh(lap, k=2, sigma=-1e-6, which="LM")
    order = np.argsort(vals)
    return vecs[:, order[1]]


def spectral_bisect(graph: WeightedGraph) -> List[int]:
    """0/1 bisection at the weight-balanced median of the Fiedler vector."""
    fiedler = fiedler_vector(graph)
    import numpy as np  # fiedler_vector found it

    scalar = np.asarray(graph.vwgts()).sum(axis=1)
    order = np.argsort(fiedler)
    half = scalar.sum() / 2.0
    parts = [1] * graph.num_nodes
    acc = 0.0
    for u in order:
        if acc >= half:
            break
        parts[int(u)] = 0
        acc += scalar[int(u)]
    return parts
