"""Differential tests for the compiled execution tier.

The third engine (:func:`repro.vm.jit.run_block_compiled` driven through
:meth:`Machine.drive`) layers trace-compiled hot runs, loop regions,
pure-leaf call inlining and inline-cached calls on top of the threaded
handlers — and must stay observationally identical to the per-step
reference oracle on every program: same ``cycles``, ``steps``, ``result``,
``stdout``, and the same fault text when the program faults.  These tests
pin that bit-identity on the bundled workloads, on hypothesis-driven
generated programs (including faulting and overcharge-injected ones), and
exercise the deopt and promotion machinery directly.
"""

import re
import sys
import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))

import pytest
from hypothesis import given, settings, strategies as st

from helpers import compile_mj

from repro.bytecode import opcodes as op
from repro.bytecode.model import Instr
from repro.errors import CodegenError, VMError
from repro.testing.genprog import GenConfig, generate_source
from repro.vm import jit
from repro.vm.interpreter import Machine, forced_engine, run_sync
from repro.vm.jit import Run, build_fused, jit_threshold, plan_runs
from repro.workloads import WORKLOADS


def _observe(loaded, engine):
    """(cycles, steps, result, stdout, error-text, machine) on one tier."""
    machine = Machine(loaded)
    machine.statics = loaded.fresh_statics()
    machine.call_bmethod(loaded.main_method(), None, [None])
    error = None
    with forced_engine(engine):
        try:
            run_sync(machine)
        except VMError as exc:
            error = str(exc)
    return (
        (machine.cycles, machine.steps, machine.result,
         tuple(machine.stdout), error),
        machine,
    )


def assert_tiers_agree(source: str):
    """Three-way agreement; returns the reference observation, the compiled
    run's machine and the loaded program."""
    loaded = compile_mj(source)
    ref, _ = _observe(loaded, "reference")
    fast, _ = _observe(loaded, "fast")
    comp, machine = _observe(loaded, "compiled")
    assert fast == ref, f"fast tier diverged:\n{fast}\nvs\n{ref}"
    assert comp == ref, f"compiled tier diverged:\n{comp}\nvs\n{ref}"
    return ref, machine, loaded


def _compiled_agrees(src: str, threshold: int = 2):
    """:func:`assert_tiers_agree` with every run promoted on its second
    execution (``threshold=1``: before it ever runs)."""
    with jit_threshold(threshold):
        ref, machine, loaded = assert_tiers_agree(src)
    assert machine.jit_stats()["promotions"] >= 1
    return ref, machine, loaded


def _compiled_sources(loaded):
    """Generated source of every trace-compiled closure of a program."""
    return {
        (bm.qualified, run.start): run.fn.__doc__
        for bc in loaded.bprogram.classes.values()
        for bm in bc.methods.values()
        if bm.flat().fused is not None
        for run in plan_runs(bm.flat())
        if run.fn is not None
    }


# ------------------------------------------------------------------ workloads
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_compiled_equals_reference(workload):
    """compiled ≡ step on (cycles, steps, result, stdout) for every
    bundled workload — warm code included (the FlatCode plan persists, so
    the second run executes promoted traces from the start)."""
    from repro.api.experiment import compile_workload

    loaded = compile_workload(workload, "test").loaded
    ref, _ = _observe(loaded, "reference")
    for _ in range(2):  # cold, then warm (promoted) plans
        comp, machine = _observe(loaded, "compiled")
        assert comp == ref
    assert machine.jit_stats()["compiled_steps"] > 0


# ------------------------------------------------------------------ plan
def test_fused_plan_covers_syscall_free_runs():
    """Runs of >= 2 traceable instructions become Run entries, born cold
    (nothing is compiled at plan build); interior positions keep their
    plain handlers so deopt can resume anywhere."""
    loaded = compile_mj(
        """
        class Main {
            static void main(String[] a) {
                int s = 0;
                for (int i = 0; i < 50; i = i + 1) { s = s + i * 2; }
                Sys.println(s);
            }
        }
        """
    )
    flat = loaded.main_method().flat()
    runs = plan_runs(flat)
    assert runs, "the loop body must form runs"
    plan = flat.fused
    for run in runs:
        assert plan[run.start] is run
        assert run.n >= 2
        assert run.fn is None and not run.promoted
        assert run.cost == sum(i.cost for i in run.instrs)
        assert run.prefix[0] == 0
        for j in range(run.start + 1, run.end):
            assert not isinstance(plan[j], Run)


def test_traceable_set_is_what_the_trace_compiler_accepts():
    """A run holds exactly the opcodes ``compile_ins`` lowers: one it
    refused would leave its whole run cold for good, one left out of the
    set would never be traced."""
    for name in op.OPCODE_LIST:
        ins = Instr(name, "LT" if name in op.CMP_BRANCHES else 1, 2, 0)
        ins.cfn = op.CMP_FUNCS["LT"]
        try:
            jit._TraceCompiler().compile_ins(ins, 0)
            accepted = True
        except CodegenError:
            accepted = False
        assert accepted == jit._traceable(ins), name
    # a pure leaf callee: traceable, no heap / static write, no branch
    assert jit._PURE < jit._TRACEABLE and jit._PURE <= set(op.STACK_EFFECT)


def test_hot_block_promotion_and_counters():
    """Below the threshold runs stay cold; past it they are
    trace-compiled, and the machine's jit counters say so."""
    src = """
        class Main {
            static void main(String[] a) {
                int s = 0;
                for (int i = 0; i < 200; i = i + 1) { s = s + i; }
                Sys.println(s);
            }
        }
    """
    with jit_threshold(4):
        loaded = compile_mj(src)
        comp, machine = _observe(loaded, "compiled")
        ref, _ = _observe(loaded, "reference")
    assert comp == ref
    stats = machine.jit_stats()
    assert stats["promotions"] >= 1
    assert stats["compiled_steps"] > 0
    flat = loaded.main_method().flat()
    assert any(r.promoted and r.count >= 4 for r in plan_runs(flat))


def test_unreachable_threshold_means_no_promotion():
    """With no run ever hot the compiled engine is the threaded handlers
    and nothing else: the ``fast`` engine's stdout, cycles, steps and fault
    text, and not one step inside a closure."""
    src = """
        class Main {
            static void main(String[] a) {
                int s = 0;
                for (int i = 0; i < 50; i = i + 1) { s = s + i; }
                Sys.println(s);
                Sys.println(s / (s - 1225));
            }
        }
    """
    with jit_threshold(10**9):
        loaded = compile_mj(src)
        comp, machine = _observe(loaded, "compiled")
        fast, _ = _observe(loaded, "fast")
        ref, _ = _observe(loaded, "reference")
    assert comp == fast == ref
    assert comp[3] == ("1225",) and comp[4] == "integer division by zero"
    stats = machine.jit_stats()
    assert stats["promotions"] == 0 and stats["compiled_steps"] == 0
    assert all(run.fn is None for run in plan_runs(loaded.main_method().flat()))


# ------------------------------------------------------------------ deopt
def test_guard_deopt_charges_exactly():
    """A division that faults mid-trace deopts to the threaded tier and
    charges the identical cycle prefix the oracle charges."""
    src = """
        class Main {
            static void main(String[] a) {
                int s = 1;
                int z = 0;
                for (int i = 0; i < 40; i = i + 1) {
                    s = s + 7 / (20 - i + z * i);
                }
                Sys.println(s);
            }
        }
    """
    with jit_threshold(2):
        assert_tiers_agree(src)


def test_array_bounds_deopt_matches_oracle():
    src = """
        class Main {
            static void main(String[] a) {
                int[] xs = new int[8];
                int s = 0;
                for (int i = 0; i < 40; i = i + 1) {
                    xs[i] = i;
                    s = s + xs[i];
                }
                Sys.println(s);
            }
        }
    """
    with jit_threshold(2):
        assert_tiers_agree(src)


_TINY_RUNS = {
    # after the call returns: ILOAD b, IDIV
    "division": ("Main.quot", 2, "integer division by zero", """
        class Main {
            static int id(int x) { return x; }
            static int quot(int a, int b) { return id(a) / b; }
            static void main(String[] a) {
                int s = 0;
                for (int i = 20; i >= 0; i = i - 1) { s = s + quot(1000, i); }
                Sys.println(s);
            }
        }
    """),
    # after the call returns: ALOAD k, GETFIELD x, IADD
    "null receiver": ("Main.get", 3, "null dereference", """
        class K { int x; }
        class Main {
            static int id(int x) { return x; }
            static int get(K k, int a) { return id(a) + k.x; }
            static void main(String[] a) {
                K k = new K();
                k.x = 7;
                int s = 0;
                for (int i = 0; i < 30; i = i + 1) {
                    K r = k;
                    if (i == 20) { r = null; }
                    s = s + get(r, i);
                }
                Sys.println(s);
            }
        }
    """),
    # the whole body but its return: ALOAD xs, ILOAD i, XALOAD; ``outer``
    # makes a call, so the loop's region inlines neither
    "index": ("Main.at", 3, "array index 8 out of bounds (8)", """
        class Main {
            static int at(int[] xs, int i) { return xs[i]; }
            static int outer(int[] xs, int i) { return at(xs, i) + 1; }
            static void main(String[] a) {
                int[] xs = new int[8];
                int s = 0;
                for (int i = 0; i < 30; i = i + 1) { s = s + outer(xs, i); }
                Sys.println(s);
            }
        }
    """),
}


@pytest.mark.parametrize("threshold", [1, 2])
@pytest.mark.parametrize("case", sorted(_TINY_RUNS))
def test_hot_tiny_run_guard_failure_deopts_exactly(case, threshold):
    """A run of two or three instructions is traced like any other once it
    is hot (at threshold 1 before it ever runs); when its guard fails on
    the second or third instruction, the charged prefix (cycles, steps) and
    the fault text are the reference's."""
    method, n, fault, src = _TINY_RUNS[case]
    ref, machine, loaded = _compiled_agrees(src, threshold)
    assert ref[4] == fault
    cls, name = method.split(".")
    run, = (r for r in plan_runs(loaded.lookup_method(cls, name).flat())
            if r.n == n)
    assert run.fn is not None and not run.region
    assert run.count > threshold
    assert machine.jit_stats()["deopts"] == 1


def test_failed_lowering_leaves_the_run_cold_and_is_attempted_once(monkeypatch):
    """A ``CodegenError`` out of the trace compiler: every hot run keeps
    executing through the threaded handlers, is not offered to the
    compiler again, and the program still agrees with the reference."""
    def refuse(self, ins, k):
        raise CodegenError("planted")

    attempts = []
    real = jit.promote

    def counting(run, flat=None, program=None):
        attempts.append(run)
        return real(run, flat, program)

    monkeypatch.setattr(jit._TraceCompiler, "compile_ins", refuse)
    monkeypatch.setattr(jit, "promote", counting)
    with jit_threshold(2):
        ref, machine, loaded = assert_tiers_agree("""
            class Main {
                static void main(String[] a) {
                    int[] xs = new int[8];
                    int s = 0;
                    for (int i = 0; i < 40; i = i + 1) {
                        xs[i % 8] = i;
                        s = s + xs[i % 8] + xs[i];
                    }
                    Sys.println(s);
                }
            }
        """)
    assert ref[4] == "array index 8 out of bounds (8)"
    hot = [r for r in plan_runs(loaded.main_method().flat()) if r.count >= 2]
    assert hot and sorted(map(id, attempts)) == sorted(map(id, hot))
    assert all(r.promoted and r.fn is None for r in hot)
    stats = machine.jit_stats()
    assert stats == dict.fromkeys(stats, 0)


def test_inlined_leaf_call_region():
    """The region compiler inlines small pure callees (the crypt shape: a
    hot loop calling a straight-line getter) and stays bit-identical."""
    src = """
        class K {
            int a;
            int b;
            int get(int i) { return this.a * i + this.b; }
        }
        class Main {
            static void main(String[] a) {
                K k = new K();
                k.a = 3;
                k.b = 5;
                int s = 0;
                for (int i = 0; i < 100; i = i + 1) { s = s + k.get(i); }
                Sys.println(s);
            }
        }
    """
    with jit_threshold(2):
        loaded = compile_mj(src)
        ref, _ = _observe(loaded, "reference")
        comp, machine = _observe(loaded, "compiled")
    assert comp == ref
    assert machine.jit_stats()["promotions"] >= 1


# ------------------------------------------------------------- fault paths
def test_overcharge_injection_detected_identically(monkeypatch):
    """The PR-6 seeded accounting fault lives in the block engines only —
    the per-step oracle is the clean side of the differential.  The
    compiled tier must mis-charge *identically* to the fast tier (same
    overcharged cycle total), so the fuzz oracle keeps catching the fault
    as a ``vm.cycles`` divergence on both."""
    src = """
        class Main {
            static void main(String[] a) {
                int s = 0;
                for (int i = 0; i < 60; i = i + 1) { s = s + i; }
                Sys.println(s);
            }
        }
    """
    loaded = compile_mj(src)
    ref, _ = _observe(loaded, "reference")
    monkeypatch.setenv("REPRO_VM_INJECT_OVERCHARGE", "3")
    with jit_threshold(2):
        injected_ref, _ = _observe(loaded, "reference")
        fast, _ = _observe(loaded, "fast")
        comp, _ = _observe(loaded, "compiled")
    assert injected_ref == ref  # the oracle stays clean
    assert comp == fast  # block tiers mis-charge identically
    assert fast[0] > ref[0]  # and the fault is observable
    assert fast[1:] == ref[1:]  # cycles only: steps/result/stdout intact


# ---------------------------------------------------------------- hypothesis
@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    max_stmts=st.integers(min_value=1, max_value=6),
    threshold=st.sampled_from([1, 2]),
)
def test_random_flat_programs_compiled_equals_reference(
        seed, max_stmts, threshold):
    """Property: generated single-class programs — arithmetic with faulting
    division, branches, nested loops — behave identically on all three
    tiers, fault text included.  At threshold 2 a run executes cold once
    and traced afterwards (traces + deopts); at 1 every run, tiny ones
    included, is traced before it ever runs."""
    source = generate_source(
        GenConfig(seed=seed, n_classes=0, max_stmts=max_stmts,
                  allow_faults=True)
    )
    with jit_threshold(threshold):
        assert_tiers_agree(source)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_classes=st.integers(min_value=1, max_value=3),
    threshold=st.sampled_from([1, 2]),
)
def test_random_rich_programs_compiled_equals_reference(
        seed, n_classes, threshold):
    """Property, multi-class: cross-class field/method access, arrays,
    bounded recursion, possible faults — identical on all three tiers."""
    source = generate_source(
        GenConfig(seed=seed, n_classes=n_classes, allow_faults=(seed % 2 == 0))
    )
    with jit_threshold(threshold):
        assert_tiers_agree(source)


# ------------------------------------------------------- non-finite floats
def test_nonfinite_float_ops_are_java_results_on_all_tiers():
    """``(int) NaN``, ``(int) inf``, ``(long) inf``, ``inf % x`` and a
    remainder whose quotient overflows used to escape as bare
    ``ValueError`` / ``OverflowError`` on every tier.  The hot loop runs
    them per step, through the threaded handlers and trace-compiled; the
    literal product is folded by the BURS rules."""
    src = """
        class Main {
            static void main(String[] a) {
                float big = 1.0e308;
                float inf = big * 10.0;
                float nan = inf - inf;
                int i = 0;
                long l = 0L;
                float r = 0.0;
                float q = 0.0;
                float w = 0.0;
                int folded = 0;
                for (int k = 0; k < 40; k = k + 1) {
                    i = (int) nan + (int) inf + k;
                    l = (long) inf - (long) (0.0 - inf) + (long) nan;
                    r = inf % 2.0;
                    q = big % 1.0e-300;
                    w = (2.5 - k) % inf + 7.5 % (0.0 - inf);
                    folded = (int) (1.0e308 * 10.0) - (int) (1.0e308 * -10.0);
                }
                Sys.println((int) nan);
                Sys.println((int) inf);
                Sys.println((long) inf);
                Sys.println(inf % 2.0);
                Sys.println(big % 1.0e-300);
                Sys.println(w + ":" + inf % inf + ":" + 2.5 % (1.0e308 * 10.0));
                Sys.println(i + ":" + l + ":" + r + ":" + q + ":" + folded);
            }
        }
    """
    ref, machine, _ = _compiled_agrees(src)
    assert ref[4] is None
    assert ref[3] == (
        "0", "2147483647", "9223372036854775807", "nan",
        "3.0195000970293847e-301",
        "-29.0:nan:2.5",
        "-2147483610:-1:nan:3.0195000970293847e-301:-1",
    )
    assert machine.jit_stats()["compiled_steps"] > 0


# ------------------------------------------------- value / guard memo
def test_memo_putfield_through_an_alias_is_seen():
    """Two locals alias one object: a ``PUTFIELD`` through one kills the
    memoized field of the other inside the same hot block."""
    ref, _, loaded = _compiled_agrees("""
        class P { int x; }
        class Main {
            static void main(String[] a) {
                P p = new P();
                P q = p;
                int s = 0;
                for (int i = 0; i < 50; i = i + 1) {
                    s = s + q.x;
                    p.x = i;
                    s = s + q.x * 3;
                    q.x = q.x + 1;
                    s = s + p.x;
                }
                Sys.println(s);
            }
        }
    """)
    assert ref[3] == (str(sum(i + 3 * i + i + 1 for i in range(50))),)
    # the block resolves each of the two references once
    body = next(src for src in _compiled_sources(loaded).values()
                if ".fields['x'] =" in src)
    assert body.count("H.get(") == 2


def test_memo_field_store_between_two_reads_of_the_array_behind_it():
    """``this.data = other`` between two ``this.data[i]`` in one block: the
    second read goes through the new array."""
    ref, _, _ = _compiled_agrees("""
        class B {
            int[] data;
            int[] other;
            int run(int n) {
                int s = 0;
                for (int i = 0; i < n; i = i + 1) {
                    int[] keep = this.data;
                    s = s + this.data[i % 4];
                    this.data = this.other;
                    s = s + this.data[i % 4] * 1000;
                    this.other = keep;
                }
                return s;
            }
        }
        class Main {
            static void main(String[] a) {
                B b = new B();
                b.data = new int[4];
                b.other = new int[4];
                for (int i = 0; i < 4; i = i + 1) {
                    b.data[i] = i + 1;
                    b.other[i] = 10 * (i + 1);
                }
                Sys.println(b.run(40));
            }
        }
    """)
    # even iterations read data then other, odd ones the reverse
    want = sum(
        (i % 4 + 1) * (1 + 10000) if i % 2 == 0 else (i % 4 + 1) * (10 + 1000)
        for i in range(40)
    )
    assert ref[3] == (str(want),)


def test_memo_slot_store_between_two_uses_as_array_ref():
    ref, _, _ = _compiled_agrees("""
        class Main {
            static void main(String[] a) {
                int[] xs = new int[4];
                int[] ys = new int[4];
                xs[1] = 5;
                ys[1] = 70;
                int s = 0;
                for (int i = 0; i < 30; i = i + 1) {
                    int[] r = xs;
                    s = s + r[1];
                    r = ys;
                    s = s + r[1];
                    r[1] = r[1] + 1;
                }
                Sys.println(s + ":" + xs[1] + ":" + ys[1]);
            }
        }
    """)
    assert ref[3] == (f"{30 * 5 + sum(70 + i for i in range(30))}:5:100",)


def test_memo_second_access_out_of_bounds_deopts_exactly():
    """The array is resolved by the first access of the block; the second
    one only bounds-checks, and when that fails mid-block the deopt index,
    the prefix charge and the rebuilt stack (index and array in the fault
    text) are the reference's."""
    ref, machine, _ = _compiled_agrees("""
        class Main {
            static void main(String[] a) {
                int[] xs = new int[8];
                int s = 0;
                for (int i = 0; i < 40; i = i + 1) {
                    xs[i % 8] = i;
                    s = s + xs[i % 8] * 2 + xs[i];
                }
                Sys.println(s);
            }
        }
    """)
    assert ref[4] == "array index 8 out of bounds (8)"
    assert machine.jit_stats()["deopts"] == 1


def test_memo_out_of_bounds_inside_inlined_leaf_deopts_to_the_call():
    ref, machine, loaded = _compiled_agrees("""
        class K {
            int[] d;
            int get(int i, int j) { return this.d[i] * 2 + this.d[j]; }
        }
        class Main {
            static void main(String[] a) {
                K k = new K();
                k.d = new int[8];
                int s = 0;
                for (int i = 0; i < 40; i = i + 1) {
                    k.d[i % 8] = i;
                    s = s + k.get(i % 8, i);
                }
                Sys.println(s);
            }
        }
    """)
    assert ref[4] == "array index 8 out of bounds (8)"
    # out of the region to the call, then out of the callee's own trace
    assert machine.jit_stats()["deopts"] == 2
    # the callee was inlined, its receiver seeded by the caller's accesses
    body = next(src for src in _compiled_sources(loaded).values()
                if ".class_name != 'K'" in src)
    assert body.count("H.get(") == 2  # k and k.d, once each


def test_region_does_not_hoist_what_another_block_changes():
    """Across the blocks of a region only slots no block stores to and
    fields no block writes keep their resolved value: here another block
    swaps the field and re-points the local between two reads."""
    ref, _, loaded = _compiled_agrees("""
        class B {
            int[] data;
            int[] other;
            int run(int n, int[] xs, int[] ys) {
                int s = 0;
                int[] r = xs;
                for (int i = 0; i < n; i = i + 1) {
                    s = s + this.data[i % 4] + r[1];
                    if (i % 3 == 0) {
                        int[] keep = this.data;
                        this.data = this.other;
                        this.other = keep;
                        r = ys;
                    } else {
                        r = xs;
                    }
                    s = s + this.data[i % 4] * 100 + r[1] * 7;
                }
                return s;
            }
        }
        class Main {
            static void main(String[] a) {
                B b = new B();
                b.data = new int[4];
                b.other = new int[4];
                int[] xs = new int[2];
                int[] ys = new int[2];
                xs[1] = 3;
                ys[1] = 50000;
                for (int i = 0; i < 4; i = i + 1) {
                    b.data[i] = i + 1;
                    b.other[i] = 10 * (i + 1);
                }
                Sys.println(b.run(40, xs, ys));
            }
        }
    """)
    data, other, want, r = [1, 2, 3, 4], [10, 20, 30, 40], 0, 3
    for i in range(40):
        want += data[i % 4] + r
        if i % 3 == 0:
            data, other, r = other, data, 50000
        else:
            r = 3
        want += data[i % 4] * 100 + r * 7
    assert ref[3] == (str(want),)
    region = next(
        src for (name, _), src in _compiled_sources(loaded).items()
        if name == "B.run" and "while 1:" in src
    )
    # ``this`` is loaded on entry and resolved once per region call ...
    assert "h0 = L[0]" in region
    assert re.search(r"if (t\d+) is _MISS:\n +\1 = H\.get\(h0\.oid\)", region)
    # ... its swapped field and the re-pointed local in every block
    assert region.count(".fields.get('data', _MISS)") >= 3
    assert not re.search(r"is _MISS:\n +t\d+ = t\d+\.fields\.get\('data'", region)
    assert "h5 = L[5]" not in region and "= L[5]" in region


def test_region_hoisted_guard_deopts_at_its_first_use():
    """A fact hoisted out of the loop is still established — and can still
    fail — at the instruction that needs it first: a region compiled while
    the field held an array meets a null one."""
    ref, machine, _ = _compiled_agrees("""
        class K { int[] d; }
        class Main {
            static int total(K k, int n) {
                int s = 0;
                for (int i = 0; i < n; i = i + 1) { s = s + k.d[i] + i; }
                return s;
            }
            static void main(String[] a) {
                K full = new K();
                full.d = new int[8];
                K empty = new K();
                int s = 0;
                for (int j = 0; j < 6; j = j + 1) { s = s + total(full, 8); }
                Sys.println(s);
                Sys.println(total(empty, 8));
            }
        }
    """)
    assert ref[3] == (str(6 * 28),) and ref[4] == "null dereference"
    assert machine.jit_stats()["deopts"] == 1


def test_heapsort_sift_region_resolves_each_reference_once_per_block():
    """Generated text: a block of heapsort's sift loop holds at most one
    ``H.get(`` per distinct reference (``this`` and ``this.data``)."""
    from repro.api.experiment import compile_workload
    from repro.harness.cache import StageCache

    with jit_threshold(2):
        loaded = compile_workload("heapsort", "test", cache=StageCache()).loaded
        _observe(loaded, "compiled")
    region = _compiled_sources(loaded)[("Sorter.siftDown", 0)]
    blocks = re.split(r"\n        (?:el)?if pc == \d+:\n", region)[1:]
    assert len(blocks) >= 5
    assert any("H.get(" in blk for blk in blocks)
    for blk in blocks:
        refs = re.findall(r"H\.get\((\w+)\.oid\)", blk)
        assert len(refs) == len(set(refs)) <= 2, blk


# ------------------------------------------------------ inline-cached calls
def test_call_site_alternating_two_subclasses():
    """One hot site, receivers alternating between a class and a subclass
    that overrides one method and inherits the other: every call lands in
    the runtime class's method."""
    ref, _, _ = _compiled_agrees("""
        class A {
            int n;
            int f(int x) { this.n = this.n + 1; return x + 1; }
            int g(int x) { this.n = this.n + 2; return x * 2; }
        }
        class B extends A {
            int f(int x) { this.n = this.n + 3; return x + 100; }
        }
        class Main {
            static void main(String[] args) {
                A a = new A();
                A b = new B();
                int s = 0;
                for (int i = 0; i < 60; i++) {
                    A r = a;
                    if (i % 2 == 1) { r = b; }
                    s = s + r.f(i) + r.g(i);
                }
                Sys.println(s + ":" + a.n + ":" + b.n);
            }
        }
    """)
    want = sum(3 * i + (1 if i % 2 == 0 else 100) for i in range(60))
    assert ref[3] == (f"{want}:90:150",)


_TWO_CLASS_SITE = """
    class A {
        int n;
        int f(int x) { this.n = this.n + 1; return x + 1; }
    }
    class B extends A {
        int f(int x) { this.n = this.n + 3; return x + 100; }
    }
    class Main {
        static void main(String[] args) {
            A a = new A();
            A b = new B();
            int s = 0;
            for (int i = 0; i < 4000; i++) {
                A r = a;
                if (i % 2 == 1) { r = b; }
                s = s + r.f(i);
            }
            Sys.println(s + ":" + a.n + ":" + b.n);
        }
    }
"""


def test_call_site_bind_preempted_by_a_bind_for_another_class():
    """Every machine over a program shares its plans, and the thread backend
    runs one machine per OS thread.  A bind that is preempted where a thread
    switch can happen — inside the method lookup — by another thread's whole
    bind for a different class returns its own resolution and leaves a
    cache whose key and callee belong together."""
    from repro.vm.jit import CallSite

    loaded = compile_mj(_TWO_CLASS_SITE)
    site, = (e for e in build_fused(loaded.main_method().flat())
             if e.__class__ is CallSite and e.ins.b == "f")

    class Preempted:
        def lookup_method(self, cls, name):
            if cls == "A":
                site.bind(self, "B")  # the other thread, start to finish
            return loaded.lookup_method(cls, name)

    prog = Preempted()
    mine = site.bind(prog, "A")
    assert mine[:2] == (prog, "A") and mine[2].qualified == "A.f"
    assert mine[3] is mine[2].flat()
    key, callee = site.cache[1], site.cache[2]
    assert callee is loaded.lookup_method(key, "f")


def test_call_site_thrashing_under_concurrent_machines():
    """Three machines on three threads over one program, switching every
    few bytecodes, at a site that rebinds on every call: each computes the
    reference result."""
    import threading

    loaded = compile_mj(_TWO_CLASS_SITE)
    ref, _ = _observe(loaded, "reference")
    out = []

    def run():  # the engine is pinned once, outside: the pin is process-wide
        machine = Machine(loaded)
        machine.statics = loaded.fresh_statics()
        machine.call_bmethod(loaded.main_method(), None, [None])
        run_sync(machine)
        out.append((machine.cycles, machine.steps, machine.result,
                    tuple(machine.stdout), None))

    threads = [threading.Thread(target=run) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with forced_engine("compiled"):
            for t in threads:
                t.start()
            for t in threads:
                t.join()
    finally:
        sys.setswitchinterval(interval)
    assert out == [ref] * 3


def test_call_site_shared_between_two_programs_calls_its_own_programs_callee():
    """Two programs sharing the caller's ``BMethod`` (one plan, one call
    site) but not the callee, run alternately in one process."""
    from repro.bytecode.model import Instr
    from repro.vm.loader import load_program

    src = """
        class K { int n; int f(int x) { this.n = this.n + 1; return x + 1; } }
        class Main {
            static void main(String[] a) {
                K k = new K();
                int s = 0;
                for (int i = 0; i < 40; i = i + 1) { s = s + k.f(i); }
                Sys.println(s);
            }
        }
    """
    with jit_threshold(2):
        first = compile_mj(src)
        other = first.bprogram.copy()
        other.classes["Main"].methods["main"] = (
            first.bprogram.classes["Main"].methods["main"]
        )
        callee = other.classes["K"].methods["f"]
        callee.code = [
            Instr(i.op, 1000, i.b) if i.op == "LDC" and i.a == 1 else i
            for i in callee.code
        ]
        callee.invalidate()
        second = load_program(other)
        want = {first: (str(sum(range(40)) + 40),),
                second: (str(sum(range(40)) + 40 + 999 * 40),)}
        for loaded in (first, second, first, second):
            ref, _ = _observe(loaded, "reference")
            comp, _ = _observe(loaded, "compiled")
            assert comp == ref
            assert ref[3] == want[loaded]


def test_sequential_then_distributed_in_one_process():
    """The ``compute_sim`` shape: the original program, then its rewritten
    copy (which shares every unchanged ``Instr``) on the same tier."""
    from repro.api import Experiment
    from repro.harness.cache import StageCache

    for name in ("method", "bank"):
        res = Experiment.from_options(
            name, size="test", cache=StageCache(), backend="sim",
            force_distribution=True,
        ).run()
        assert res.stdout == res.sequential.stdout


def test_cached_call_site_null_string_and_boxed_receivers():
    """Receivers the cache does not cover, at a site that has cached a
    bytecode callee: the generic handler's natives and error text."""
    _compiled_agrees("""
        class A {
            int n;
            boolean equals(Object o) { this.n = this.n + 1; return o == this; }
        }
        class Main {
            static void main(String[] args) {
                A a = new A();
                Vector v = new Vector();
                v.add(a); v.add("str"); v.add(7);
                int s = 0;
                for (int i = 0; i < 60; i++) {
                    Object o = v.get(0);
                    if (i > 30) { o = v.get(1 + i % 2); }
                    if (o.equals(a)) { s = s + 1; }
                    s = s + o.hashCode() % 7;
                }
                Sys.println(s + ":" + a.n);
            }
        }
    """)
    ref, _, _ = _compiled_agrees("""
        class A { int n; int f(int x) { this.n = this.n + 1; return x + 1; } }
        class Main {
            static void main(String[] args) {
                A a = new A();
                int s = 0;
                for (int i = 0; i < 60; i++) {
                    A r = a;
                    if (i == 40) { r = null; }
                    s = s + r.f(i);
                }
                Sys.println(s);
            }
        }
    """)
    assert ref[4] == "null receiver for A.f"


def test_cached_call_site_dependent_ref_receiver_takes_the_syscall():
    """A remote receiver at a cached site is a DEPENDENCE access through
    the syscall handler, with the reference path's arguments and cycles."""
    from repro.vm.values import DependentRef

    src = """
        class A { int n; int f(int x) { this.n = this.n + 1; return x + 1; } }
        class Main {
            static A remote;
            static void main(String[] args) {
                A a = new A();
                int s = 0;
                for (int i = 0; i < 60; i++) {
                    A r = a;
                    if (i % 8 == 7) { r = Main.remote; }
                    s = s + r.f(i);
                }
                Sys.println(s);
            }
        }
    """

    def observe(loaded, engine):
        machine = Machine(loaded)
        machine.statics = loaded.fresh_statics()
        # same oid as the local ``a``: only its class tells them apart
        machine.statics[("Main", "remote")] = DependentRef(1, 1, "A")
        calls = []

        def syscall(kind, recv, args):
            calls.append((kind, recv, args, machine.steps))
            return 5000
            yield  # pragma: no cover - makes this a generator function

        machine.syscall = syscall
        machine.call_bmethod(loaded.main_method(), None, [None])
        with forced_engine(engine):
            run_sync(machine)
        return machine.cycles, machine.steps, tuple(machine.stdout), calls

    with jit_threshold(2):
        loaded = compile_mj(src)
        ref = observe(loaded, "reference")
        assert observe(loaded, "fast") == ref
        assert observe(loaded, "compiled") == ref
    assert len(ref[3]) == 7
    assert ref[2] == (str(sum(i + 1 for i in range(60) if i % 8 != 7)
                          + 7 * 5000),)


def test_sys_time_behind_inline_cached_calls_reads_the_step_paths_cycles():
    """``Sys.time()`` two bytecode calls below a hot loop: the iteration at
    which each virtual millisecond ticks over is the per-step path's."""
    ref, _, _ = _compiled_agrees("""
        class Clock {
            long last;
            int ticks;
            int calls;
            long now() { return Sys.time(); }
            void sample() {
                long t = this.now();
                if (t != this.last) {
                    this.last = t;
                    this.ticks = this.ticks * 31 + this.calls;
                }
                this.calls = this.calls + 1;
            }
        }
        class Main {
            static void main(String[] args) {
                Clock c = new Clock();
                for (int i = 0; i < 30000; i++) { c.sample(); }
                Sys.println(c.last + ":" + c.ticks);
            }
        }
    """)
    assert int(ref[3][0].split(":")[0]) >= 2


def test_service_frame_and_depth_boundary_return_through_the_generic_path():
    """A frame pushed with ``on_return`` hands its value to the callback,
    not to the frame below — also when it pops above the stop depth — and
    driving stops when the depth boundary is reached, with hot
    inline-cached calls and returns running above it."""
    from repro.runtime.invoke import call_and_run

    src = """
        class K {
            int n;
            int step(int x) { this.n = this.n + x; return this.n; }
            int run(int m) {
                int s = 0;
                for (int i = 0; i < m; i = i + 1) { s = s + this.step(i); }
                return s;
            }
        }
        class Main { static void main(String[] a) { } }
    """

    def observe(loaded, engine):
        machine = Machine(loaded)
        machine.statics = loaded.fresh_statics()
        machine.call_bmethod(loaded.main_method(), None, [None])
        below = machine.frames[-1]
        below.stack.append("untouched")
        recv = machine._allocate("K")
        run = loaded.lookup_method("K", "run")
        cost, out = 0, []

        def drain(gen):
            nonlocal cost
            try:
                while True:
                    cost += next(gen)[1]
            except StopIteration as stop:
                return stop.value

        with forced_engine(engine):
            # service-initiated, popping at its own stop depth
            out.append(drain(call_and_run(machine, run, recv, [50])))
            assert machine.frames == [below] and below.pc == 0
            assert below.stack == ["untouched"]
            # a plain frame popping at the stop depth ends the block: the
            # frame below gets the value and does not start running
            machine.call_bmethod(run, recv, [50])
            drain(machine.drive(2))
            assert machine.frames == [below] and below.pc == 0
            out.append(below.stack.pop())
            assert below.stack == ["untouched"]
            # service-initiated, popping above the stop depth
            machine.call_bmethod(run, recv, [50], on_return=out.append)
            drain(machine.drive(1))
            assert machine.frames == [] and below.stack == ["untouched"]
        return cost, machine.steps, out

    with jit_threshold(2):
        loaded = compile_mj(src)
        ref = observe(loaded, "reference")
        assert observe(loaded, "fast") == ref
        assert observe(loaded, "compiled") == ref
    first, step = sum(sum(range(i + 1)) for i in range(50)), sum(range(50))
    assert ref[2] == [first, first + 50 * step, first + 100 * step]
