"""Differential tests for the cost-batched fast path.

The threaded-code block engine (:meth:`Machine.run_block` driven through
:meth:`Machine.drive`) must be observationally identical to the per-step
reference oracle (:meth:`Machine.step`): same ``cycles``, ``steps``,
``result`` and ``stdout`` on every program — including randomly generated
ones (hypothesis) and programs that fault mid-block — and attaching a
profiler must transparently fall back to the per-step path with unchanged
``on_step`` semantics.
"""

import sys
import pathlib
import statistics
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))

import pytest
from hypothesis import given, settings, strategies as st

from helpers import compile_mj, profiled

from repro.api import Experiment
from repro.api.experiment import compile_workload
from repro.errors import VMError
from repro.profiler.base import BaselineProfiler, Profiler, attach
from repro.runtime.backend import RunPolicy, create_backend
from repro.vm.interpreter import ENGINES, Machine, forced_engine, run_sync
from repro.vm.loader import load_program
from repro.workloads import WORKLOADS


def _run_path(loaded, slow, profiler=None, main_args=None):
    """One full run on the chosen engine; returns the finished machine (or
    raises the program's VMError after recording charged state)."""
    machine = Machine(loaded)
    machine.statics = loaded.fresh_statics()
    if profiler is not None:
        attach(machine, profiler)
    machine.call_bmethod(loaded.main_method(), None, [main_args])
    with forced_engine("reference" if slow else "fast"):
        run_sync(machine)
    return machine


def _observe(loaded, slow):
    """(cycles, steps, result, stdout, error-text) of one run."""
    machine = Machine(loaded)
    machine.statics = loaded.fresh_statics()
    machine.call_bmethod(loaded.main_method(), None, [None])
    error = None
    with forced_engine("reference" if slow else "fast"):
        try:
            run_sync(machine)
        except VMError as exc:
            error = str(exc)
    return (machine.cycles, machine.steps, machine.result,
            tuple(machine.stdout), error)


def assert_paths_agree(source: str):
    loaded = compile_mj(source)
    fast = _observe(loaded, slow=False)
    ref = _observe(loaded, slow=True)
    assert fast == ref, f"fast path diverged from oracle:\n{fast}\nvs\n{ref}"


# ------------------------------------------------------------------ workloads
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_fast_equals_slow(workload):
    """run_block ≡ step on (cycles, steps, result, stdout) for every
    bundled workload."""
    loaded = compile_workload(workload, "test").loaded
    fast = _run_path(loaded, slow=False)
    ref = _run_path(loaded, slow=True)
    assert fast.cycles == ref.cycles
    assert fast.steps == ref.steps
    assert fast.result == ref.result
    assert fast.stdout == ref.stdout


# ------------------------------------------------------------------ events
def test_fast_path_batches_cost_events():
    """The fast path surfaces one cost event per syscall-free span; the
    oracle surfaces one per instruction.  Totals must agree exactly."""
    loaded = compile_mj(
        """
        class M {
            static void main(String[] a) {
                int s = 0;
                for (int i = 0; i < 500; i++) { s = s + i * i; }
                Sys.println(s);
            }
        }
        """
    )

    def events(slow):
        machine = Machine(loaded)
        machine.statics = loaded.fresh_statics()
        machine.call_bmethod(loaded.main_method(), None, [None])
        with forced_engine("reference" if slow else "fast"):
            out = [e for e in machine.run_gen() if e[0] == "cost"]
        return machine, out

    m_fast, ev_fast = events(False)
    m_ref, ev_ref = events(True)
    assert sum(e[1] for e in ev_fast) == sum(e[1] for e in ev_ref)
    assert m_fast.cycles == m_ref.cycles == 0  # run_gen alone charges nobody
    assert len(ev_ref) == m_ref.steps
    # a syscall-free program is one block: a single batched cost event
    assert len(ev_fast) == 1
    assert m_fast.stdout == m_ref.stdout


#: scheduler events of the 2-node ``test``-size simulator run, per engine:
#: the reference path surfaces one cost event per instruction, the block
#: engines one per syscall-free span
SIM_EVENTS = {
    "heapsort": {"reference": 96_481, "fast": 51, "compiled": 51},
    "crypt": {"reference": 198_865, "fast": 29, "compiled": 29},
}


def _sim_run(workload, engine):
    """One uncached 2-node multilevel run on the simulator; returns
    (scheduler events, run)."""
    exp = Experiment.from_options(workload, size="test")
    rewritten = exp.rewrite().program
    policy = RunPolicy(main_partition=exp.plan().main_partition)
    backend = create_backend("sim", exp.cluster())
    with forced_engine(engine):
        run = backend.execute(rewritten, load_program(rewritten), policy)
    return backend.events_processed, run


@pytest.mark.parametrize("workload", sorted(SIM_EVENTS))
def test_sim_events_pinned_per_engine(workload):
    """Cost batching shrinks the simulator's event count by orders of
    magnitude, to the exact count pinned here, at identical virtual timing
    and output."""
    runs = {engine: _sim_run(workload, engine) for engine in ENGINES}
    assert {e: events for e, (events, _) in runs.items()} == SIM_EVENTS[workload]
    ref = runs["reference"][1]
    for _, run in runs.values():
        assert run.makespan_s == ref.makespan_s
        assert run.stdout == ref.stdout


# ------------------------------------------------------------------ speed
#: wall-clock floors at ``test`` size, best of 3: each block engine beats
#: the tier below it by more than 1.5x on every workload, and on the
#: geomean by at least 70 % of its measured ratio (fast/reference 3.355,
#: compiled/fast 4.174)
PER_WORKLOAD_FLOOR = 1.5
GEOMEAN_FLOOR = {"fast": 2.348, "compiled": 2.922}

#: the deterministic gate beside those floors: Python calls (cProfile's
#: ``total_calls``) per 1 000 cycles of a warm ``test``-size run, as
#: shipped (the compiled tier's read within 2 % of these at a hotness
#: threshold of 1); each engine is held to a tenth above it
CALLS_PER_KCYCLE = {
    "crypt": {"reference": 7178.8, "fast": 2206.8, "compiled": 24.8},
    "heapsort": {"reference": 8272.5, "fast": 2725.9, "compiled": 67.2},
}
SLACK = 1.10


def _start(loaded):
    """A machine poised at ``main``."""
    machine = Machine(loaded)
    machine.statics = loaded.fresh_statics()
    machine.call_bmethod(loaded.main_method(), None, [None])
    return machine


def _best_walls(loaded, repeats=3):
    """Best-of-``repeats`` sequential run per engine; the engines take
    turns, so that host drift slows all three alike.  Returns
    ``{engine: (machine, seconds)}``."""
    best = {}
    for _ in range(repeats):
        for engine in ENGINES:
            with forced_engine(engine):
                machine = _start(loaded)
                t0 = time.perf_counter()
                run_sync(machine)
                wall = time.perf_counter() - t0
            if engine in best:
                wall = min(wall, best[engine][1])
            best[engine] = (machine, max(wall, 1e-9))
    return best


def test_block_engines_beat_the_tier_below():
    """fast beats reference and compiled beats fast, on identical steps
    and cycles."""
    ratios = {"fast": [], "compiled": []}
    for workload in sorted(SIM_EVENTS):
        loaded = compile_workload(workload, "test").loaded
        runs = _best_walls(loaded)
        assert len({(m.steps, m.cycles) for m, _ in runs.values()}) == 1
        for engine, below in (("fast", "reference"), ("compiled", "fast")):
            ratio = runs[below][1] / runs[engine][1]
            assert ratio > PER_WORKLOAD_FLOOR, (
                f"{workload}: {engine} only {ratio:.2f}x over {below}"
            )
            ratios[engine].append(ratio)
    for engine, floor in GEOMEAN_FLOOR.items():
        geomean = statistics.geometric_mean(ratios[engine])
        assert geomean >= floor, f"{engine}: geomean {geomean:.2f}x < {floor}x"


@pytest.mark.parametrize("workload", sorted(CALLS_PER_KCYCLE))
def test_block_engines_calls_per_kilocycle_are_bounded(workload):
    """What each engine spends per cycle, as a count the host cannot move.
    The run is measured warm: the compiled tier's first run of a program
    also promotes its regions, and how much of that work is left depends
    on what the process ran before."""
    loaded = compile_workload(workload, "test").loaded
    for engine, shipped in CALLS_PER_KCYCLE[workload].items():
        with forced_engine(engine):
            run_sync(_start(loaded))
            machine = _start(loaded)
            per_kcycle = profiled(run_sync, machine).calls * 1000 / machine.cycles
        assert per_kcycle <= SLACK * shipped, (
            f"{workload}: {engine} makes {per_kcycle:.1f} calls per 1 000 "
            f"cycles, shipped {shipped}"
        )


def test_sys_time_sees_in_flight_block_cycles():
    """Sys.time() reads the cycle counter mid-block; the fast path must
    show it the same value the per-step oracle would have charged by that
    instant — including the unflushed prefix of the current block."""
    assert_paths_agree(
        """
        class M {
            static void main(String[] args) {
                long t0 = Sys.time();
                int s = 0;
                for (int i = 0; i < 200000; i++) { s = s + i * i; }
                long t1 = Sys.time();
                Sys.println((t1 - t0) + ":" + s);
            }
        }
        """
    )
    # and the elapsed time must be nonzero, or the assertion is vacuous
    loaded = compile_mj(
        """
        class M {
            static void main(String[] args) {
                long t0 = Sys.time();
                int s = 0;
                for (int i = 0; i < 200000; i++) { s = s + i * i; }
                Sys.println(Sys.time() - t0);
            }
        }
        """
    )
    fast = _run_path(loaded, slow=False)
    assert int(fast.stdout[-1]) > 0


# ------------------------------------------------------------------ faults
@pytest.mark.parametrize(
    "body, match",
    [
        ("int d = 0; int x = 1 / d;", "division by zero"),
        ("int[] xs = new int[2]; xs[5] = 1;", "out of bounds"),
        ("int[] xs = new int[0-1];", "negative"),
        ("int x = a.length;", "null"),
    ],
)
def test_faulting_programs_charge_identically(body, match):
    """A mid-block fault must leave exactly the oracle's cycles/steps behind
    (the failing instruction's cost is never charged on either path)."""
    src = "class M { static void main(String[] a) { %s } }" % body
    loaded = compile_mj(src)
    fast = _observe(loaded, slow=False)
    ref = _observe(loaded, slow=True)
    assert fast == ref
    assert ref[4] is not None and match in ref[4]


# ------------------------------------------------------------------ profiler
class _CountingProfiler(Profiler):
    """Records every on_step call (per-instruction semantics check)."""

    name = "counting"

    def __init__(self):
        self.on_step_calls = 0
        self.cost_sum = 0
        self.invokes = 0

    def on_step(self, machine, cost):
        self.on_step_calls += 1
        self.cost_sum += cost
        return 0

    def on_invoke(self, machine, method):
        self.invokes += 1


def test_profiler_attach_falls_back_to_per_step_path():
    """Attaching a profiler transparently selects the per-step path:
    on_step fires once per executed instruction with the same per-step
    costs, and the run's observables match the fast path's."""
    loaded = compile_mj(
        """
        class M {
            static int f(int n) { if (n <= 1) { return 1; } return n * f(n - 1); }
            static void main(String[] a) { Sys.println(f(10)); }
        }
        """
    )
    bare = _run_path(loaded, slow=False)

    prof = _CountingProfiler()
    profiled = _run_path(loaded, slow=False, profiler=prof)

    assert prof.on_step_calls == profiled.steps == bare.steps
    assert prof.cost_sum == profiled.cycles == bare.cycles
    assert prof.invokes > 0
    assert profiled.stdout == bare.stdout
    assert profiled.result == bare.result


def test_baseline_profiler_charges_nothing():
    """The paper's baseline column: hooks installed, zero overhead — so the
    per-step fallback must reproduce the fast path's cycle count exactly."""
    loaded = compile_mj(
        "class M { static void main(String[] a) { "
        "int s = 0; for (int i = 0; i < 50; i++) { s += i; } Sys.println(s); } }"
    )
    bare = _run_path(loaded, slow=False)
    baseline = _run_path(loaded, slow=False, profiler=BaselineProfiler())
    assert baseline.cycles == bare.cycles
    assert baseline.steps == bare.steps
    assert baseline.stdout == bare.stdout


# ------------------------------------------------------------------ hypothesis
# Random-program generation lives in repro.testing.genprog (one generator
# to maintain — the fuzz CLI, the conformance oracle and this suite share
# it); hypothesis drives its seed/size space and shrinks over it.
from repro.testing.genprog import GenConfig, generate_source


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    max_stmts=st.integers(min_value=1, max_value=6),
)
def test_random_flat_programs_fast_equals_slow(seed, max_stmts):
    """Property (the old flat-fuzzer shape): for generated single-class int
    programs — arithmetic including faulting division/modulo, branches,
    nested bounded loops — the fast path and the per-step oracle agree on
    cycles, steps, result, stdout, and on the error text when the program
    faults."""
    source = generate_source(
        GenConfig(seed=seed, n_classes=0, max_stmts=max_stmts,
                  allow_faults=True)
    )
    assert_paths_agree(source)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_classes=st.integers(min_value=1, max_value=3),
)
def test_random_rich_programs_fast_equals_slow(seed, n_classes):
    """Property, multi-class: generated programs with cross-class
    field/method access, arrays, bounded recursion and possible faults
    observe identical behavior on both VM engines."""
    source = generate_source(
        GenConfig(seed=seed, n_classes=n_classes, allow_faults=(seed % 2 == 0))
    )
    assert_paths_agree(source)
