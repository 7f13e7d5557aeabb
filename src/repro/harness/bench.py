"""VM / simulator throughput benchmarks — the engine behind ``repro bench``.

Measures, per JGF workload:

* **interpreter throughput** — instructions/sec of a full sequential run
  on each execution tier (``reference`` per-step oracle, ``fast``
  cost-batched threaded code, ``compiled`` threaded code + traced hot runs),
  with the hardware-independent ratios ``speedup`` (fast vs reference)
  and ``compiled_vs_fast``;
* **simulator event counts** — discrete-event scheduler events of a 2-node
  distributed run on both paths; cost batching must shrink this by an
  order of magnitude at *identical* virtual timing (asserted here).

Results serialize to ``BENCH_vm.json`` — the recorded computing-time
baseline future PRs measure themselves against.  Because absolute
instructions/sec depend on the machine running the bench, the regression
gate (:func:`check_regression`) compares the *relative* metrics (tier
speedups, event reduction), which transfer across hardware; absolute
throughput is recorded alongside for trajectory plots.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Dict, Iterable, List, Optional

from repro.errors import ReproError
from repro.vm.interpreter import ENGINES, forced_engine

#: format tag of the BENCH_vm.json document
BENCH_SCHEMA = "repro.bench_vm/2"

#: the acceptance workloads: JGF section-2 kernels with deep hot loops
DEFAULT_WORKLOADS = ("heapsort", "crypt")

#: engine name -> row key in the per-workload ``interpreter`` dict (the
#: reference tier keeps its historical row name ``slow``)
ENGINE_ROWS = {"reference": "slow", "fast": "fast", "compiled": "compiled"}


def _run_sequential(workload: str, size: str):
    """One uncached sequential run; returns (machine, wall_seconds).

    Deliberately bypasses the stage cache's ``sequential`` memoization —
    a bench must execute, not replay."""
    from repro.api.experiment import compile_workload
    from repro.vm.interpreter import Machine, run_sync

    work = compile_workload(workload, size)
    machine = Machine(work.loaded)
    machine.statics = work.loaded.fresh_statics()
    machine.call_bmethod(work.loaded.main_method(), None, [None])
    t0 = time.perf_counter()
    run_sync(machine)
    return machine, time.perf_counter() - t0


def bench_interpreter(
    workload: str, size: str, *, engine: str = "fast", repeats: int = 1
) -> Dict[str, float]:
    """Best-of-``repeats`` sequential throughput on one execution tier."""
    best = None
    machine = None
    with forced_engine(engine):
        for _ in range(max(1, repeats)):
            machine, wall = _run_sequential(workload, size)
            best = wall if best is None else min(best, wall)
    wall = max(best, 1e-9)
    return {
        "steps": machine.steps,
        "cycles": machine.cycles,
        "wall_s": wall,
        "ips": machine.steps / wall,
        "jit": machine.jit_stats(),
    }


def bench_simulator(workload: str, size: str, *, slow: bool) -> Dict[str, float]:
    """One 2-node multilevel distributed run on the deterministic
    simulator; returns scheduler event count, events/sec and virtual
    makespan.  Executes the backend directly (no ``execute``-stage cache)."""
    from repro.api import Experiment
    from repro.runtime.backend import RunPolicy, create_backend
    from repro.vm.loader import load_program

    exp = Experiment.from_options(workload, size=size)
    cluster = exp.cluster()
    plan = exp.plan()
    rewritten = exp.rewrite().program
    loaded = load_program(rewritten)
    with forced_engine("reference" if slow else "fast"):
        backend = create_backend("sim", cluster)
        t0 = time.perf_counter()
        run = backend.execute(
            rewritten, loaded, RunPolicy(main_partition=plan.main_partition)
        )
        wall = max(time.perf_counter() - t0, 1e-9)
    return {
        "events": backend.events_processed,
        "eps": backend.events_processed / wall,
        "wall_s": wall,
        "makespan_s": run.makespan_s,
        "stdout_tail": run.stdout[-1] if run.stdout else "",
    }


def static_block_stats(workload: str, size: str) -> Dict[str, float]:
    """Static basic-block shape of one compiled workload (from
    ``FlatCode.block_starts``): how much straight-line code each branchy
    region offers is the shape metric behind the cost-batching win."""
    from repro.api.experiment import compile_workload

    work = compile_workload(workload, size)
    nblocks = 0
    ninstrs = 0
    for bclass in work.bprogram.classes.values():
        for bmethod in bclass.methods.values():
            flat = bmethod.flat()
            nblocks += len(flat.basic_blocks())
            ninstrs += len(flat.instrs)
    return {
        "blocks": nblocks,
        "instrs": ninstrs,
        "mean_block_len": ninstrs / nblocks if nblocks else 0.0,
    }


def _geomean(values: List[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    prod = 1.0
    for v in vals:
        prod *= v
    return prod ** (1.0 / len(vals))


def run_bench(
    workloads: Optional[Iterable[str]] = None,
    *,
    quick: bool = False,
    repeats: Optional[int] = None,
    engines: Optional[Iterable[str]] = None,
) -> Dict:
    """Run the full bench matrix and return the ``BENCH_vm.json`` document.

    ``quick`` uses the small ``test`` workload size (CI smoke); the default
    ``bench`` size matches the Figure 11 measurements.  Each workload is
    measured on every requested execution tier (default: all three), all
    tiers are asserted bit-identical on steps and cycles, and the two
    simulator runs are asserted to agree on virtual makespan and output —
    the bench refuses to report numbers from a diverged tier.
    """
    names = list(workloads) if workloads else list(DEFAULT_WORKLOADS)
    size = "test" if quick else "bench"
    if repeats is None:
        repeats = 3 if quick else 1
    engine_list = list(engines) if engines else list(ENGINES)
    for e in engine_list:
        if e not in ENGINE_ROWS:
            raise ReproError(
                f"unknown engine {e!r} (choose from {', '.join(ENGINES)})"
            )
    doc: Dict = {
        "schema": BENCH_SCHEMA,
        "size": size,
        "quick": quick,
        "engines": engine_list,
        "python": platform.python_version(),
        "workloads": {},
    }
    for name in names:
        meas = {
            e: bench_interpreter(name, size, engine=e, repeats=repeats)
            for e in engine_list
        }
        sigs = {(v["steps"], v["cycles"]) for v in meas.values()}
        if len(sigs) > 1:
            raise ReproError(
                f"bench: {name} diverged between engines "
                f"{sorted(meas)}: steps/cycles {sorted(sigs)}"
            )
        sim_fast = bench_simulator(name, size, slow=False)
        sim_ref = bench_simulator(name, size, slow=True)
        if sim_fast["makespan_s"] != sim_ref["makespan_s"] or (
            sim_fast["stdout_tail"] != sim_ref["stdout_tail"]
        ):
            raise ReproError(
                f"bench: {name} simulator timing diverged between fast and "
                f"reference paths ({sim_fast['makespan_s']} vs "
                f"{sim_ref['makespan_s']})"
            )
        any_row = next(iter(meas.values()))
        interp: Dict = {"steps": any_row["steps"], "cycles": any_row["cycles"]}
        for e, row in meas.items():
            interp[ENGINE_ROWS[e]] = {"wall_s": row["wall_s"], "ips": row["ips"]}
        if "compiled" in meas:
            interp["compiled"]["jit"] = meas["compiled"]["jit"]
        if "fast" in meas and "reference" in meas:
            ref_ips = meas["reference"]["ips"]
            interp["speedup"] = meas["fast"]["ips"] / ref_ips if ref_ips else 0.0
        if "compiled" in meas and "reference" in meas:
            ref_ips = meas["reference"]["ips"]
            interp["speedup_compiled"] = (
                meas["compiled"]["ips"] / ref_ips if ref_ips else 0.0
            )
        if "compiled" in meas and "fast" in meas:
            fast_ips = meas["fast"]["ips"]
            interp["compiled_vs_fast"] = (
                meas["compiled"]["ips"] / fast_ips if fast_ips else 0.0
            )
        doc["workloads"][name] = {
            "static_blocks": static_block_stats(name, size),
            "interpreter": interp,
            "simulator": {
                "makespan_s": sim_fast["makespan_s"],
                "fast": {
                    "events": sim_fast["events"],
                    "eps": sim_fast["eps"],
                    "wall_s": sim_fast["wall_s"],
                },
                "slow": {
                    "events": sim_ref["events"],
                    "eps": sim_ref["eps"],
                    "wall_s": sim_ref["wall_s"],
                },
                "event_reduction": (
                    sim_ref["events"] / sim_fast["events"]
                    if sim_fast["events"]
                    else 0.0
                ),
            },
        }
    per = list(doc["workloads"].values())
    summary: Dict = {
        "event_reduction": _geomean(
            [w["simulator"]["event_reduction"] for w in per]
        ),
    }
    for engine, row in ENGINE_ROWS.items():
        if engine in engine_list:
            summary[f"ips_{row}"] = _geomean(
                [w["interpreter"][row]["ips"] for w in per]
            )
    for key in ("speedup", "speedup_compiled", "compiled_vs_fast"):
        if all(key in w["interpreter"] for w in per) and per:
            summary[key] = _geomean([w["interpreter"][key] for w in per])
    doc["summary"] = summary
    return doc


def render_bench(doc: Dict) -> str:
    """Human-readable table of one bench document."""
    lines = [
        f"# VM throughput ({doc['size']} size, python {doc['python']})",
        f"{'workload':10s} {'ins/s ref':>12s} {'ins/s fast':>12s} "
        f"{'ins/s comp':>12s} {'speedup':>8s} {'xfast':>7s} "
        f"{'sim events':>11s} {'shrink':>8s}",
    ]

    def _ips(it: Dict, row: str) -> str:
        return f"{it[row]['ips']:12.0f}" if row in it else f"{'-':>12s}"

    def _ratio(it_or_s: Dict, key: str, width: int) -> str:
        if key in it_or_s:
            return f"{it_or_s[key]:{width - 1}.2f}x"
        return f"{'-':>{width}s}"

    for name, w in doc["workloads"].items():
        it, sim = w["interpreter"], w["simulator"]
        lines.append(
            f"{name:10s} {_ips(it, 'slow')} {_ips(it, 'fast')} "
            f"{_ips(it, 'compiled')} {_ratio(it, 'speedup', 8)} "
            f"{_ratio(it, 'compiled_vs_fast', 7)} "
            f"{sim['slow']['events']:11d} {sim['event_reduction']:7.1f}x"
        )
    s = doc["summary"]

    def _sips(key: str) -> str:
        return f"{s[key]:12.0f}" if key in s else f"{'-':>12s}"

    lines.append(
        f"{'geomean':10s} {_sips('ips_slow')} {_sips('ips_fast')} "
        f"{_sips('ips_compiled')} {_ratio(s, 'speedup', 8)} "
        f"{_ratio(s, 'compiled_vs_fast', 7)} "
        f"{'':11s} {s['event_reduction']:7.1f}x"
    )
    return "\n".join(lines)


def check_regression(
    doc: Dict, committed: Dict, tolerance: float = 0.30
) -> List[str]:
    """Compare a fresh bench against the committed baseline; returns a list
    of human-readable failures (empty = pass).

    Gates on the hardware-independent relative metrics: the fast-vs-slow
    interpreter speedup, the compiled-vs-fast tier speedup, and the
    simulator event reduction must not fall more than ``tolerance`` below
    the committed values.  Absolute instructions/sec vary with the host
    running CI, so they are reported but never gated on.
    """
    failures: List[str] = []
    if doc.get("size") != committed.get("size"):
        return [
            f"size mismatch: bench ran at {doc.get('size')!r} but the "
            f"committed baseline is {committed.get('size')!r} — event "
            "reduction scales with workload size, so the gate only "
            "compares like-for-like runs"
        ]
    gates = [
        ("speedup", "interpreter speedup vs reference path"),
        ("event_reduction", "simulator event reduction"),
    ]
    if "compiled_vs_fast" in committed.get("summary", {}):
        gates.append(("compiled_vs_fast", "compiled tier speedup vs fast path"))
    for key, label in gates:
        base = committed.get("summary", {}).get(key)
        got = doc.get("summary", {}).get(key)
        if base is None or got is None:
            failures.append(f"missing summary metric {key!r}")
            continue
        floor = base * (1.0 - tolerance)
        if got < floor:
            failures.append(
                f"{label} regressed: {got:.2f}x < {floor:.2f}x "
                f"(committed {base:.2f}x - {tolerance:.0%})"
            )
    return failures


def load_bench(path) -> Dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ReproError(f"cannot read bench baseline {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReproError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("schema") != BENCH_SCHEMA:
        raise ReproError(f"{path}: not a {BENCH_SCHEMA} document")
    return doc


def write_bench(doc: Dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
