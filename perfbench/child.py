"""One child process of the benchmark: set up, run one unit of one workload
(or the fixed layer probes), check its output, report one JSON line.

``run.py`` starts a fresh child per unit: that is what a ``repro
distribute`` CLI user pays, and it keeps one unit's leaked threads, sockets
and JIT caches out of the next.
"""

from __future__ import annotations

import json
import multiprocessing
import resource
import sys
import threading
import time
import traceback


def leaked_workers() -> int:
    """Worker processes and non-daemon threads still alive after a unit."""
    threads = [
        t for t in threading.enumerate()
        if t is not threading.main_thread() and not t.daemon
    ]
    return len(multiprocessing.active_children()) + len(threads)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest reaped
    worker (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def layer_extras(artifacts, tr) -> dict:
    """Traced run only: layer sections the unit itself does not contain."""
    from repro.api.config import ClusterConfig
    from repro.api.experiment import (
        analyze_workload, compile_workload, plan_workload,
    )
    from repro.harness.cache import StageCache
    from repro.lang import tokenize
    from repro.partition.api import part_graph

    m = {"lang.tokens": 0}
    for art in artifacts:
        with tr.span("lang.tokenize", prog=art.name):
            m["lang.tokens"] += len(tokenize(art.source))

    methods = ("multilevel", "kl", "spectral", "roundrobin")
    cuts = dict.fromkeys(methods, 0.0)
    for art in artifacts:
        graph, _ = art.odg.partition_graph()
        nparts = min(2, max(graph.num_nodes, 1))
        for method in methods:
            with tr.span(f"partition.{method}", prog=art.name):
                cuts[method] += part_graph(graph, nparts, method=method).edgecut
    for method in methods:
        m[f"partition.{method}_ms"] = tr.total_ms(f"partition.{method}")
    for method in ("multilevel", "kl", "spectral"):
        m[f"partition.{method}_edgecut"] = cuts[method]

    # the stage cache works on registered workloads, so generated programs
    # sit this one out
    cache = StageCache()
    cluster = ClusterConfig().build(2)
    bundled = [a for a in artifacts if a.size is not None]

    def one_pass(label: str) -> None:
        with tr.span(f"harness.cache.{label}_pass"):
            for art in bundled:
                work = compile_workload(art.name, art.size, cache)
                analyze_workload(work, 2, cache=cache)
                plan_workload(work, 2, cluster=cluster, cache=cache)

    one_pass("cold")
    before = cache.counts()
    one_pass("warm")
    hits, misses = (a - b for a, b in zip(cache.counts(), before))
    m["harness.cache.warm_pass_ms"] = tr.total_ms("harness.cache.warm_pass")
    m["harness.cache.hit_ratio"] = hits / (hits + misses)
    return m


def layer_metrics(artifacts, tr) -> dict:
    """Per-layer times (from the spans) and IR sizes (from the artifacts)
    of one ``layer_pass``."""
    m = {
        "lang.tokenize_ms": tr.total_ms("lang.tokenize"),
        "lang.parse_ms": tr.total_ms("lang.parse"),
        "lang.semantic_ms": tr.total_ms("lang.semantic"),
        "bytecode.compile_ms": tr.total_ms("bytecode.compile"),
        "vm.loader.load_ms": tr.total_ms("vm.loader.load"),
        "distgen.plan_ms": tr.total_ms("distgen.plan"),
        "distgen.rewrite_ms": tr.total_ms("distgen.rewrite"),
    }
    by_class = {}
    for art in artifacts:
        by_class.setdefault(art.size_class, set()).add(art.name)
    small = by_class.get("small", set())
    large = by_class.get("gen48", set())
    for layer in ("rta", "crg", "object_set", "odg"):
        span = f"analysis.{layer}"
        m[f"{span}_ms"] = tr.total_ms(span)
        m[f"{span}_ms.small"] = tr.total_ms(span, small)
        m[f"{span}_ms.gen48"] = tr.total_ms(span, large)
    m["distgen.plan_ms.gen48"] = tr.total_ms("distgen.plan", large)

    methods = [
        meth
        for art in artifacts
        for cls in art.bprogram.classes.values()
        for meth in cls.methods.values()
    ]
    m.update({
        "lang.source_kb": sum(len(a.source) for a in artifacts) / 1024.0,
        "bytecode.instrs": sum(len(meth.flat()) for meth in methods),
        "bytecode.size_kb": sum(
            a.bprogram.size_bytes() for a in artifacts
        ) / 1024.0,
        "analysis.cg_methods": sum(len(a.cg.reachable) for a in artifacts),
        "analysis.crg_edges": sum(a.crg.num_edges for a in artifacts),
        "analysis.odg_nodes": sum(a.odg.num_nodes for a in artifacts),
        "analysis.odg_edges": sum(a.odg.num_edges for a in artifacts),
        "distgen.rewrites": sum(a.rewrites for a in artifacts),
    })
    return m


def run_unit(spec: dict) -> dict:
    import workloads as wl
    from spans import Tracer

    trace = bool(spec["trace"])
    inputs = wl.make_inputs(spec["workload"], spec["seed"], spec["smoke"])
    # child start -> first unit begins: interpreter, imports, input generation
    metrics = {"setup_s": time.time() - spec["t_spawn"]}

    tr = Tracer(spec["unit"], trace)
    pipeline = spec["workload"] == "pipeline_cold"
    t0 = time.perf_counter()
    with tr.span("unit"):
        if pipeline:
            artifacts = wl.layer_pass(inputs.programs, tr)
        else:
            results = wl.experiment_unit(inputs, tr)
    run_s = time.perf_counter() - t0
    metrics["run_s"] = run_s
    # before the output check, which may start (and reap) processes itself
    metrics["leaked_workers"] = leaked_workers()

    latencies = []
    if pipeline:
        errors = wl.check_pipeline(artifacts)
        metrics["pipeline_ms"] = run_s * 1e3
        metrics.update(dict.fromkeys(wl.EXECUTION_METRICS, 0))
    else:
        errors = wl.check_experiments(inputs, results)
        metrics.update(wl.experiment_metrics(inputs, results, run_s))
        latencies = wl.latencies_us(inputs, results)
    if metrics["leaked_workers"]:
        errors.append(f"{metrics['leaked_workers']} workers/threads leaked")
    metrics["peak_rss_mb"] = peak_rss_mb()

    if trace:
        if not pipeline:
            # the Experiment hides the layers behind its stages; walk the
            # same programs through them one public call at a time
            artifacts = wl.layer_pass(inputs.programs, tr)
        metrics.update(layer_extras(artifacts, tr))
        metrics.update(layer_metrics(artifacts, tr))
    return {
        "errors": errors,
        "metrics": metrics,
        "latencies_us": latencies,
        "spans": tr.spans,
    }


def run_probes(spec: dict) -> dict:
    import probes

    return {
        "errors": [],
        "metrics": probes.run_probes(spec["seed"], spec["smoke"]),
        "latencies_us": [],
        "spans": [],
    }


def main() -> None:
    spec = json.loads(sys.argv[1])
    try:
        out = run_probes(spec) if spec["probes"] else run_unit(spec)
    except Exception:  # a unit that raises is a counted failure, not a crash
        out = {
            "errors": [traceback.format_exc()],
            "metrics": {}, "latencies_us": [], "spans": [],
        }
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
