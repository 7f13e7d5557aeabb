"""Ablation — partitioner quality (DESIGN.md §5.2).

The paper attributes its modest Figure 11 numbers partly to "a suboptimal
naive partitioning".  This bench quantifies the gap: edgecut of the
multilevel scheme vs Kernighan–Lin, spectral, and naive round-robin on every
workload's ODG, plus a synthetic 2-community graph where the optimum is
known.
"""

from __future__ import annotations

import numpy as np

from bench_utils import write_artifact

from repro.api import Experiment
from repro.graph.wgraph import WeightedGraph
from repro.partition import part_graph
from repro.workloads import TABLE1_ORDER

METHODS = ("multilevel", "kl", "spectral", "roundrobin")


def _community_graph(n_per: int = 30, seed: int = 5) -> WeightedGraph:
    rng = np.random.default_rng(seed)
    g = WeightedGraph(1)
    for i in range(2 * n_per):
        g.add_node(i)
    for c in range(2):
        for u in range(c * n_per, (c + 1) * n_per):
            for v in range(u + 1, (c + 1) * n_per):
                if rng.random() < 0.35:
                    g.add_edge(u, v, 4.0)
    g.add_edge(0, n_per, 1.0)
    g.add_edge(1, n_per + 1, 1.0)
    return g


def test_partitioner_quality_on_workloads(benchmark, out_dir):
    def run():
        rows = []
        for name in TABLE1_ORDER:
            a = Experiment.from_options(name).analyze()
            graph, _ = a.odg.partition_graph()
            cuts = {
                m: part_graph(graph, 2, method=m).edgecut for m in METHODS
            }
            rows.append((name, cuts))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Ablation: 2-way ODG edgecut by partitioner",
             f"{'benchmark':>10} " + " ".join(f"{m:>11}" for m in METHODS)]
    for name, cuts in rows:
        lines.append(
            f"{name:>10} " + " ".join(f"{cuts[m]:11.0f}" for m in METHODS)
        )
    write_artifact(out_dir, "ablation_partitioners.txt", "\n".join(lines))

    for name, cuts in rows:
        # the multilevel scheme is never worse than naive round-robin
        assert cuts["multilevel"] <= cuts["roundrobin"] + 1e-9, (name, cuts)
        # and never worse than KL (it subsumes its refinement)
        assert cuts["multilevel"] <= cuts["kl"] + 1e-9, (name, cuts)


def test_multilevel_finds_planted_cut(benchmark):
    g = _community_graph()
    result = benchmark(lambda: part_graph(g, 2, method="multilevel"))
    assert result.edgecut == 2.0  # the two planted bridge edges
    rr = part_graph(g, 2, method="roundrobin")
    assert rr.edgecut > 50 * result.edgecut
