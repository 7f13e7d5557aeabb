"""Compiled-tier hotness observability (the JIT's answer to Table 3).

Unlike the §6 profilers, this surface costs nothing at run time: the
counters already exist — every :class:`~repro.vm.jit.Run` counts its
executions on the way to the promotion threshold, and the machine keeps
engine-level totals (:meth:`~repro.vm.interpreter.Machine.jit_stats`).
``jit_profile`` merely reads them back after a run, so attaching it never
perturbs cycle accounting (profilers that hook ``on_step`` force the
reference path; this one doesn't attach at all).

Typical use::

    machine = Machine(loaded)
    ...run under the compiled engine...
    report = jit_profile(machine)
    print(report.format())
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.profiler.report import ProfileReport
from repro.vm.jit import plan_runs

__all__ = ["hot_blocks", "jit_profile"]


def _flat_methods(program) -> Iterator[Tuple[str, object]]:
    """(label, BMethod) for every method of a loaded (or raw) program."""
    bprogram = getattr(program, "bprogram", program)
    for bclass in bprogram.classes.values():
        for method in bclass.methods.values():
            yield f"{bclass.name}.{method.name}", method


def hot_blocks(program, limit: int = 0) -> List[Dict[str, object]]:
    """Per-run hotness counters across every method of ``program``,
    hottest first.  Each entry carries the method label, the run's
    ``[start, end)`` pc window, its execution count, and how far up the
    tier ladder it got (``cold`` -> ``compiled`` -> ``region``).

    Only methods whose flat code was actually materialized are inspected —
    asking for the profile never forces compilation of cold methods.
    ``limit`` truncates the list (0 = everything).
    """
    rows: List[Dict[str, object]] = []
    for label, method in _flat_methods(program):
        flat = getattr(method, "_flat", None)
        if flat is None or flat.fused is None:
            continue
        for run in plan_runs(flat):
            tier = "cold"
            if run.fn is not None:
                tier = "region" if run.region else "compiled"
            rows.append({
                "method": label,
                "start": run.start,
                "end": run.end,
                "count": run.count,
                "tier": tier,
            })
    rows.sort(key=lambda r: (-r["count"], r["method"], r["start"]))
    return rows[:limit] if limit else rows


def jit_profile(machine, k: int = 10) -> ProfileReport:
    """A :class:`~repro.profiler.report.ProfileReport` of the machine's
    compiled-tier activity: engine totals (compiled steps and cycles,
    promotions, deopts) plus the ``k`` hottest runs."""
    data: Dict[str, object] = dict(machine.jit_stats())
    blocks = hot_blocks(machine.program, limit=k)
    data["hot_blocks"] = {
        f"{b['method']}[{b['start']}:{b['end']}]{{{b['tier']}}}": b["count"]
        for b in blocks
    }
    return ProfileReport("jit", data)
