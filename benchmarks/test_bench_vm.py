"""VM throughput bench — seeds and guards the interpreter perf trajectory.

Runs the ``repro bench`` engine in its quick (CI smoke) configuration,
writes the result under ``benchmarks/out/timing/`` and asserts the perf_opt
acceptance criteria that are deterministic on any machine:

* the discrete-event simulator processes **>= 5x fewer events** (in
  practice orders of magnitude fewer) with cost batching than with
  per-instruction charging, at identical virtual timing — the engine
  itself refuses to report numbers from a diverged fast path;
* the threaded-code fast path is genuinely faster than the per-step
  reference oracle (a loose wall-clock floor, safe on noisy CI: the
  committed ``BENCH_vm.json`` records the precise >= 3x measurement);
* the compiled tier (threaded handlers + trace-compiled hot runs) is
  genuinely faster again than the fast path (same loose floor; the
  committed baseline records the precise >= 3x compiled-vs-fast ratio);
* the fresh run passes the committed baseline's regression gate.
"""

from __future__ import annotations

from bench_utils import BENCH_VM_PATH, write_json_artifact

from repro.harness.bench import check_regression, load_bench, run_bench


def test_bench_vm(benchmark, timing_dir):
    doc = benchmark.pedantic(lambda: run_bench(quick=True), rounds=1, iterations=1)
    write_json_artifact(timing_dir, "bench_vm_quick.json", doc)

    for name, w in doc["workloads"].items():
        sim = w["simulator"]
        assert sim["event_reduction"] >= 5.0, (
            f"{name}: cost batching shrank simulator events only "
            f"{sim['event_reduction']:.1f}x"
        )
        it = w["interpreter"]
        assert it["speedup"] > 1.5, (
            f"{name}: fast path only {it['speedup']:.2f}x over the oracle"
        )
        assert it["compiled_vs_fast"] > 1.5, (
            f"{name}: compiled tier only {it['compiled_vs_fast']:.2f}x "
            f"over the fast path"
        )

    if BENCH_VM_PATH.exists():
        committed = load_bench(BENCH_VM_PATH)
        failures = check_regression(doc, committed)
        assert not failures, "; ".join(failures)
