"""Compare two result sets of ``run.py --out``:

    python3 perfbench/compare.py A.json B.json

One row per workload × whole-run metric: both medians with their quartiles,
the change of B relative to A (A is always the base), the bound, and a
verdict — ``ok``, ``worse`` (B's median is worse than A's by more than the
bound), or ``unresolved`` (the spread inside a set is wider than the bound,
so the medians cannot tell; ``ok`` all the same when every unit of B reads
better than every unit of A).  Exact counts that differ are listed after
the table.  Exits 1 on any ``worse`` row or any rise in ``error_rate``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SERVICE = ("service_process", "service_tcp", "service_faulty")

#: whole-run metrics that exist on some workloads only; BENCHMARK.json has
#: to list those per layer, where a metric carries no bound, so the bounds
#: issue 12 set for them, and the workloads it set them on, live here
HEADLINE = {
    "vm_mcycles_per_s": (0.10, ("compute_sim",)),
    "speedup_pct": (0.0, ("compute_sim",)),     # virtual, hence exact
    "makespan_s": (0.15, SERVICE),
    "requests_per_s": (0.15, SERVICE),
    "rtt_p50_us": (0.15, SERVICE),
}

#: per-layer metrics that are counts of the program's own work: the same
#: commit and seed must reproduce them bit for bit
EXACT_UNITS = ("count", "B", "KiB")
EXACT_ALSO = (
    "runtime.services.frames_per_request",
    "runtime.services.wire_bytes_per_request", "runtime.faults.resend_ratio",
    "runtime.simnet.virtual_rtt_us", "harness.cache.hit_ratio",
)


def spread(m: dict) -> float:
    return (m["q3"] - m["q1"]) / m["value"] if m["value"] else 0.0


def cell(m: dict) -> str:
    return f"{m['value']:.4g} [{m['q1']:.4g}, {m['q3']:.4g}] {m['unit']}"


def verdict(a: dict, b: dict, better: str, bound: float):
    """(relative change of B with A as base, verdict)."""
    change = (b["value"] - a["value"]) / a["value"]
    worse_by = change if better == "lower" else -change
    if max(spread(a), spread(b)) > bound:
        if better == "lower":
            clear = max(b["values"]) < min(a["values"])
        else:
            clear = min(b["values"]) > max(a["values"])
        return change, "ok" if clear else "unresolved"
    return change, "worse" if worse_by > bound else "ok"


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    set_a, set_b = (json.loads(Path(p).read_text()) for p in sys.argv[1:])
    vocab = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(set_a["workloads"])
    rows = [("end_to_end", m["name"], m["better"], m["bound"], names)
            for m in vocab["end_to_end"]]
    rows += [("per_layer", m["name"], m["better"], *HEADLINE[m["name"]])
             for m in vocab["per_layer"] if m["name"] in HEADLINE]
    exact = [m["name"] for m in vocab["per_layer"]
             if m["unit"] in EXACT_UNITS or m["name"] in EXACT_ALSO]

    bad = False
    print(f"{'workload':16s} {'metric':18s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'B vs A':>9s} {'bound':>6s}  verdict")
    for w, res_a in set_a["workloads"].items():
        res_b = set_b["workloads"][w]
        for kind, name, better, bound, where in rows:
            if w not in where:
                continue
            a, b = res_a[kind][name], res_b[kind][name]
            change, word = verdict(a, b, better, bound)
            bad |= word == "worse"
            print(f"{w:16s} {name:18s} {cell(a):>34s} {cell(b):>34s} "
                  f"{change:+8.1%} {bound:6.0%}  {word}")
        if res_b["error_rate"] > res_a["error_rate"]:
            bad = True
            print(f"{w:16s} error_rate rose: {res_a['error_rate']:.3f} "
                  f"({res_a['failed']}/{res_a['attempted']}) -> "
                  f"{res_b['error_rate']:.3f} "
                  f"({res_b['failed']}/{res_b['attempted']})")
    for w, res_a in set_a["workloads"].items():
        for name in exact:
            a = res_a["per_layer"][name]["value"]
            b = set_b["workloads"][w]["per_layer"][name]["value"]
            if a != b:
                print(f"{w:16s} exact count {name} differs: {a!r} -> {b!r}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
