"""Differential tests for the compiled execution tier.

The third engine (:func:`repro.vm.jit.run_block_compiled` driven through
:meth:`Machine.drive`) layers region-compiled hot runs, inlining of pure
leaves that branch forward, and inline-cached calls on top of the threaded
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
from repro.vm.natives import IN_REGION, REGISTRY
from repro.workloads import WORKLOADS


def _observe(loaded, engine):
    """(cycles, steps, result, stdout, error-text, machine) on one tier; the
    text of an error other than a ``VMError`` carries its type."""
    machine = Machine(loaded)
    machine.statics = loaded.fresh_statics()
    machine.call_bmethod(loaded.main_method(), None, [None])
    error = None
    with forced_engine(engine):
        try:
            run_sync(machine)
        except VMError as exc:
            error = str(exc)
        except Exception as exc:  # noqa: BLE001 - the text is compared
            error = f"{type(exc).__name__}: {exc}"
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
        assert run.end - run.start >= 2
        assert run.fn is None and not run.promoted
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
            jit._TraceCompiler().compile_ins(ins)
            accepted = True
        except CodegenError:
            accepted = False
        assert accepted == jit._traceable(ins), name
    # a pure leaf callee: traceable, no heap / static write
    assert jit._EFFECTS < jit._TRACEABLE <= set(op.STACK_EFFECT)


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
    # makes a call, so the loop's region inlines neither, and no run of
    # ``outer`` reaches the call to ``at`` (``Sys.time`` ends its region, as
    # every native outside ``natives.IN_REGION`` does)
    "index": ("Main.at", 3, "array index 8 out of bounds (8)", """
        class Main {
            static int at(int[] xs, int i, long t) { return xs[i]; }
            static int outer(int[] xs, int i) {
                return at(xs, i, Sys.time()) + 1;
            }
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
            if r.end - r.start == n)
    assert run.fn is not None
    assert run.count > threshold
    assert machine.jit_stats()["deopts"] == 1


def test_failed_lowering_leaves_the_run_cold_and_is_attempted_once(monkeypatch):
    """A ``CodegenError`` out of the trace compiler: every hot run keeps
    executing through the threaded handlers, is not offered to the
    compiler again, and the program still agrees with the reference."""
    def refuse(self, ins):
        raise CodegenError("planted")

    attempts = []
    real = jit.promote

    def counting(run, flat, program=None):
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


_BRANCHING_LEAVES = """
    class K {
        int a;
        int[] d;
        boolean empty() { return this.a == 0; }
        int cap() { if (this.a < 3) { return this.a; } return 3; }
        int pick(int i, int j) {
            int r = j;
            if (i > j && this.a != 0) { r = i; } else { r = 0 - i; }
            return r * 2;
        }
        int at(int i) { if (i < 4) { return this.d[i]; } return this.d[0] + i; }
        static int max(int x, int y) { if (x > y) { return x; } return y; }
        void look(int i) { int t = 0; if (i > 2) { t = this.a; } }
    }
    class Main {
        static void main(String[] args) {
            K k = new K();
            k.d = new int[4];
            int s = 0;
            for (int i = 0; i < 60; i = i + 1) {
                k.a = i % 5;
                k.d[i % 4] = i;
                k.look(i);
                if (k.empty()) { s = s + 1; }
                s = s + k.cap() * 3 + k.pick(i % 7 - 2, i % 5) + K.max(i, 30);
                s = s + k.at(i % 9);
            }
            Sys.println(s);
        }
    }
"""


def test_pure_leaves_that_branch_forward_are_inlined():
    """Leaves whose bodies branch forward — a compare materialized as a
    boolean (a join carrying a stack value), early returns, ``&&``, an
    if / else, a void one — are compiled into the caller's region, each path in
    its own arm counting its own steps and cycles: at threshold 1 the
    loop's region exists before the loop first runs, so no leaf is ever
    called, and the result is the reference's to the cycle."""
    ref, machine, loaded = _compiled_agrees(_BRANCHING_LEAVES, threshold=1)
    assert ref[4] is None
    for name in ("empty", "cap", "pick", "at", "max", "look"):
        method = loaded.lookup_method("K", name)
        assert jit._inline_target(loaded.bprogram, _call_to(loaded, name)) \
            is method, name
        assert method.flat().fused is None, f"K.{name} was called"
    assert machine.jit_stats()["deopts"] == 0


def _call_to(loaded, name):
    """The instruction of ``Main.main`` that calls ``K.<name>``."""
    ins, = (i for i in loaded.main_method().flat().instrs
            if i.op in op.INVOKES and i.b == name)
    return ins


def test_guard_failing_in_one_arm_of_an_inlined_leaf_deopts_to_the_call():
    """The bounds check that only the taken arm of an inlined leaf needs
    fails: the region leaves at the call with its operands restored, the
    leaf's own region fails the same guard, and the fault text, cycles and
    steps are the reference's."""
    src = _BRANCHING_LEAVES.replace("k.at(i % 9)", "k.at(i % 9 - 3)") \
        .replace("i < 60", "i < 80")
    ref, machine, _ = _compiled_agrees(src, threshold=1)
    assert ref[4] == "array index -3 out of bounds (4)"
    assert machine.jit_stats()["deopts"] == 2


def test_leaf_inlining_refuses_loops_effects_and_path_blowup():
    """A backward branch, a heap store, or more than ``_INLINE_MAX``
    instructions over all paths (every ``if`` doubles what follows it)
    keeps a leaf a real call."""
    ifs = " ".join(f"if (x > {i}) {{ y = y + {i}; }}" for i in range(8))
    loaded = compile_mj(f"""
        class K {{
            int a;
            int loop(int n) {{ int s = 0; while (n > 0) {{ n = n - 1; }} return s; }}
            int bump() {{ this.a = this.a + 1; return this.a; }}
            int wide(int x) {{ int y = 0; {ifs} return y; }}
            int fine(int x) {{ int y = 0; if (x > 0) {{ y = 1; }} return y; }}
        }}
        class Main {{
            static void main(String[] args) {{
                K k = new K();
                Sys.println(k.loop(3) + k.bump() + k.wide(5) + k.fine(2));
            }}
        }}
    """)
    verdict = {name: jit._inline_target(loaded.bprogram, _call_to(loaded, name))
               for name in ("loop", "bump", "wide", "fine")}
    assert verdict == {"loop": None, "bump": None, "wide": None,
                       "fine": loaded.lookup_method("K", "fine")}


def test_every_hot_run_compiles_as_a_region_through_joins_to_its_exits():
    """No loop needed: a hot run with an if/else, a join and an allocation
    after it compiles as one region — both arms, the join as a dispatch
    arm, a clean exit at the ``NEW`` — with exact counts on every path."""
    ref, _, loaded = _compiled_agrees("""
        class P { int v; }
        class Main {
            static int f(int x) {
                int y = 0;
                if (x % 3 == 0) { y = x * 2; } else { y = x + 1; }
                y = y + 3;
                P p = new P();
                p.v = y;
                return p.v;
            }
            static void main(String[] a) {
                int s = 0;
                for (int i = 0; i < 50; i = i + 1) { s = s + f(i); }
                Sys.println(s);
            }
        }
    """)
    want = sum((i * 2 if i % 3 == 0 else i + 1) + 3 for i in range(50))
    assert ref[3] == (str(want),)
    sources = _compiled_sources(loaded)
    region = sources[("Main.f", 0)]
    assert "while 1:" in region and "else:" in region
    assert re.search(r"return \(\d+, n \+ \d+, c \+ \d+, 0\)", region)


_ELSE_IFS = " else ".join(
    f"if (x == {i}) {{ y = y + {i * 7 % 11}; }}" for i in range(60))
_LEAF_CALLS = " ".join(f"y = y + k.get({i});" for i in range(150))


@pytest.mark.parametrize("body, want", [
    (_ELSE_IFS, sum(1 + (x * 7 % 11 if x < 60 else 0) for x in range(70))),
    (_LEAF_CALLS, 70 * (1 + sum(3 * i + 1 for i in range(150)))),
], ids=["else-if chain", "inlined calls in a row"])
def test_long_chains_of_single_predecessor_blocks_nest_to_a_bound(body, want):
    """Blocks with one predecessor nest inside it only ``_MAX_NEST`` deep
    (sixty ``else if`` arms; 150 inlined calls, each ending a block) —
    deeper ones become arms of the dispatch loop, so neither the compiler's
    recursion nor the closure's indentation grows with the chain — and the
    result is the reference's."""
    ref, _, loaded = _compiled_agrees(f"""
        class K {{ int a; int get(int i) {{ return this.a * i + 1; }} }}
        class Main {{
            static void main(String[] args) {{
                K k = new K();
                k.a = 3;
                int s = 0;
                for (int x = 0; x < 70; x = x + 1) {{
                    int y = 1;
                    {body}
                    s = s + y;
                }}
                Sys.println(s);
            }}
        }}
    """)
    assert ref[3] == (str(want),)
    deepest = max(len(ln) - len(ln.lstrip())
                  for src in _compiled_sources(loaded).values()
                  for ln in src.splitlines())
    assert deepest <= 4 * (jit._MAX_NEST + 8)


# 300 array stores: one block of over 1 200 traceable instructions
_BIG_BLOCK = " ".join(f"xs[{i % 8}] = {i};" for i in range(300))
# 1 020 traceable instructions, then a call to a leaf that would take the
# run past ``_MAX_REGION`` if it were inlined
_BIG_BEFORE_CALL = " ".join("y = y + 1;" for _ in range(254)) + " y = k.get(y);"


@pytest.mark.parametrize("threshold", [1, 16])
@pytest.mark.parametrize("body", [_BIG_BLOCK, _BIG_BEFORE_CALL],
                         ids=["1200 stores", "1020 before a leaf call"])
def test_a_run_longer_than_the_region_bound_compiles_cut_at_it(body, threshold):
    """A hot run that alone is past ``_MAX_REGION`` is still compiled: cut
    at the bound (or before the call it would inline) with a clean exit,
    the rest through the threaded handlers, the result the reference's."""
    src = f"""
        class K {{ int a; int get(int i) {{ return this.a * i + 1; }} }}
        class Main {{
            static void main(String[] args) {{
                K k = new K();
                k.a = 3;
                int[] xs = new int[8];
                int s = 0;
                for (int x = 0; x < 20; x = x + 1) {{
                    int y = x;
                    {body}
                    s = s + y + xs[x % 8];
                }}
                Sys.println(s);
            }}
        }}
    """
    _, _, loaded = _compiled_agrees(src, threshold=threshold)
    flat = loaded.main_method().flat()
    long_runs = [r for r in plan_runs(flat) if r.end - r.start > 900]
    assert long_runs and all(r.fn is not None for r in long_runs)
    for r in long_runs:
        cut = min(r.end, r.start + jit._MAX_REGION)
        assert f"return ({cut}, " in r.fn.__doc__
        assert not any(i.op in op.INVOKES for i in flat.instrs[r.start:cut])


def test_a_region_that_fails_to_lower_falls_back_to_the_run_alone(monkeypatch):
    """A ``CodegenError`` in a block past the hot run's own (here: the
    method's one ``%``) leaves the run compiled alone, its successors
    exits; the run holding the ``%`` stays cold; results are exact."""
    real = jit._TraceCompiler.compile_ins

    def refuse_irem(self, ins):
        if ins.op == op.IREM:
            raise CodegenError("planted")
        return real(self, ins)

    monkeypatch.setattr(jit._TraceCompiler, "compile_ins", refuse_irem)
    _, _, loaded = _compiled_agrees("""
        class Main {
            static int f(int x) {
                int y = x * 3;
                if (y > 10) { y = y % 7; } else { y = y + 1; }
                return y;
            }
            static void main(String[] a) {
                int s = 0;
                for (int i = 0; i < 30; i = i + 1) { s = s + f(i); }
                Sys.println(s);
            }
        }
    """)
    f = loaded.lookup_method("Main", "f").flat()
    runs = {r.start: r for r in plan_runs(f)}
    irem, = (r for r in runs.values()
             if any(i.op == op.IREM for i in f.instrs[r.start:r.end]))
    assert runs[0].fn is not None
    assert irem.promoted and irem.fn is None


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
    # ... its swapped field and the re-pointed local in every arm of the
    # dispatch loop (inside one arm, the read that dominates is reused)
    assert region.count(".fields.get('data', _MISS)") >= 2
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


def test_heapsort_sift_region_resolves_each_reference_once_per_arm():
    """Generated text: an arm of heapsort's sift loop — a loop head or a
    join, with the blocks only it reaches nested inside — holds at most one
    ``H.get(`` per distinct reference (``this`` and ``this.data``)."""
    from repro.api.experiment import compile_workload
    from repro.harness.cache import StageCache

    with jit_threshold(2):
        loaded = compile_workload("heapsort", "test", cache=StageCache()).loaded
        _observe(loaded, "compiled")
    region = _compiled_sources(loaded)[("Sorter.siftDown", 0)]
    blocks = re.split(r"\n        (?:(?:el)?if pc == \d+|else):\n", region)[1:]
    assert len(blocks) >= 2
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


# ------------------------------------------- direct calls, NEW and natives
def _heap_shape(machine):
    """Every entry's oid, class, fields and native state (an array's data),
    and the allocation statistics."""
    heap = machine.heap
    return (tuple((oid, getattr(e, "class_name", None),
                   tuple(sorted(getattr(e, "fields", {}).items())),
                   repr(getattr(e, "native_state", getattr(e, "data", None))))
                  for oid, e in heap._store.items()),
            heap.allocated_objects, heap.allocated_bytes)


def _oracle(loaded):
    """reference == compiled on stdout, result, steps, cycles, error text
    and the heap (:func:`_heap_shape`); returns the reference observation
    and the compiled machine."""
    ref, rm = _observe(loaded, "reference")
    comp, cm = _observe(loaded, "compiled")
    assert comp == ref
    assert _heap_shape(cm) == _heap_shape(rm)
    return ref, cm


def _direct_calls(loaded):
    """Trace-compiled closures of ``loaded`` that call a region directly."""
    return [src for src in _compiled_sources(loaded).values() if "Frame(" in src]


_DEEP = """
    class R {
        int depth;
        int down(int n) {
            this.depth = this.depth + 1;
            if (n == 0) { return 0; }
            return 1 + this.down(n - 1);
        }
    }
    class Main {
        static void main(String[] a) {
            R r = new R();
            int s = 0;
            for (int i = 0; i < 3; i++) { s = s + r.down(%d); }
            Sys.println(s + ":" + r.depth);
        }
    }
"""

_CLASS_CHANGES = """
    class A { int n; int f(int x) { this.n = this.n + x; return this.n * 2; } }
    class B extends A { int f(int x) { this.n = this.n - x; return this.n; } }
    class Main {
        static void main(String[] args) {
            A a = new A();
            int s = 0;
            for (int i = 0; i < 60; i++) {
                if (i == 40) { a = new B(); }
                s = s + a.f(i);
            }
            Sys.println(s);
        }
    }
"""

_CALLEE_DEOPTS = """
    class P { int v; int get() { return this.v; } }
    class Q extends P { int get() { return this.v + 100; } }
    class K {
        int n;
        int f(P p, int x) {
            this.n = this.n + 1;
            return p.get() + this.n + 1000 / (x - 55);
        }
    }
    class Main {
        static void main(String[] args) {
            K k = new K();
            P p = new P();
            int s = 0;
            for (int i = 0; i < 60; i++) {
                if (i == 40) { p = new Q(); }
                p.v = i;
                s = s + k.f(p, i);
            }
            Sys.println(s);
        }
    }
"""

#: a tight loop reading ``Sys.time()`` in a callee, after ``%d`` padding
#: iterations of 71 cycles: the two paddings put the millisecond tick where
#: publishing the in-flight cycles one call's cost late / early shows
_CALLEE_NATIVES = """
    class K {
        int n;
        Random r;
        K() { this.r = new Random(7); }
        int f(int x) {
            this.n = this.n + 1;
            int y = Math.imax(x, this.n) + this.r.nextInt(10);
            return y * 2;
        }
        long g() { this.n = this.n + 1; return Sys.time(); }
    }
    class Main {
        static void main(String[] args) {
            K k = new K();
            float w = 1.5;
            for (int j = 0; j < %d; j++) { w = (w + 2.5) %% 7.0 %% 5.0 %% 3.0; }
            long s = 0;
            long ticks = 0;
            long last = Sys.time();
            for (int i = 0; i < 3000; i++) {
                s = s + k.f(i);
                long t = k.g();
                if (t != last) { ticks = ticks * 31 + i; last = t; }
            }
            Sys.println(s + ":" + ticks + ":" + last);
        }
    }
"""

_NEW_THEN_GUARD = """
    class P { int v; P() { this.v = 3; } int get() { return this.v; } }
    class Q extends P { int get() { return 7; } }
    class Main {
        static void main(String[] args) {
            int[] xs = new int[50];
            P q = new P();
            int s = 0;
            for (int i = 0; i < 60; i++) {
                P p = new P();
                p.v = p.v + i;
                if (i == 30) { q = new Q(); }
                s = s + q.get() + p.v;
                s = s + xs[i];
            }
            Sys.println(s);
        }
    }
"""


@pytest.mark.parametrize("threshold", [1, 16])
def test_a_direct_call_forgets_the_callers_field_facts(threshold):
    """A callee writes the fields its caller read before the call — in one
    block and across the arms of a loop: the caller reads them again."""
    with jit_threshold(threshold):
        loaded = compile_mj("""
            class K {
                int n;
                int[] d;
                int[] e;
                void bump(int x) {
                    this.n = this.n + x;
                    int[] t = this.d;
                    this.d = this.e;
                    this.e = t;
                }
                int twice(int x) {
                    int a = this.n + this.d.length;
                    this.bump(x);
                    return a * 1000 + this.n + this.d.length;
                }
            }
            class Main {
                static void main(String[] args) {
                    K k = new K();
                    k.d = new int[1];
                    k.e = new int[7];
                    int s = 0;
                    for (int i = 0; i < 40; i++) {
                        s = s + k.n + k.d.length + k.twice(i % 5);
                    }
                    Sys.println(s + ":" + k.n);
                }
            }
        """)
        _oracle(loaded)
    assert _direct_calls(loaded)


@pytest.mark.parametrize("threshold", [1, 16])
def test_recursion_past_the_direct_call_depth_bound(threshold):
    """Recursion 1 500 frames deep — past Python's recursion limit, were
    every frame a nested closure call: regions call regions up to
    ``_MAX_DEPTH`` frames, the engine loop takes the rest."""
    with jit_threshold(threshold):
        loaded = compile_mj(_DEEP % 1500)
        ref, _ = _oracle(loaded)
    assert ref[3] == ("4500:4503",)
    assert 1500 > jit._MAX_DEPTH and _direct_calls(loaded)


@pytest.mark.parametrize("threshold", [1, 16])
@pytest.mark.parametrize("src", [_CLASS_CHANGES, _CALLEE_DEOPTS],
                         ids=["receiver class changes", "callee deopts"])
def test_direct_call_receiver_changes_and_callee_deopts(src, threshold):
    """A receiver of another class leaves the caller's region at the call
    (the engine's inline cache makes it); a guard failing inside a directly
    called callee — an inlined leaf's receiver class, then a division by
    zero — runs that instruction once through its plain handler."""
    with jit_threshold(threshold):
        loaded = compile_mj(src)
        ref, machine = _oracle(loaded)
    assert _direct_calls(loaded)
    if src is _CALLEE_DEOPTS:
        assert ref[4] == "integer division by zero"
        assert machine.jit_stats()["deopts"] >= 2


@pytest.mark.parametrize("threshold", [1, 16])
@pytest.mark.parametrize("pad", [11015, 11100])
def test_directly_called_callees_reach_natives_and_sys_time(pad, threshold):
    """Callees exit at their natives (``Math``, ``Random``, ``Sys.time``)
    with their frames on top; the engine calls the bound native with the
    per-step path's cycle count published."""
    with jit_threshold(threshold):
        loaded = compile_mj(_CALLEE_NATIVES % pad)
        ref, _ = _oracle(loaded)
    assert _direct_calls(loaded)
    assert ref[3][0].endswith(":1")  # the virtual millisecond ticked


@pytest.mark.parametrize("threshold", [1, 16])
def test_new_then_a_failing_guard_in_one_region_allocates_once(threshold):
    """``NEW`` and a direct ``<init>`` call, then guards that fail later in
    the same region (a receiver class, then an array bound): the deopt
    re-executes only the failing instruction, so the oid sequence is the
    reference's."""
    with jit_threshold(threshold):
        loaded = compile_mj(_NEW_THEN_GUARD)
        ref, machine = _oracle(loaded)
    assert ref[4] == "array index 50 out of bounds (50)"
    assert any("N('P', TM['P'])" in src for src in _direct_calls(loaded))
    assert len(machine.heap) == 54  # the array, q, the Q and fifty-one Ps


@pytest.mark.parametrize("threshold", [1, 16])
def test_a_callee_that_allocates_then_fails_a_guard_allocates_once(threshold):
    """A callee that reads only but allocates is called, not inlined (a
    guard failing in an inlined leaf re-runs the whole call): its ``NEW``
    runs once, and the deopt after it re-executes only the failing
    instruction."""
    with jit_threshold(threshold):
        loaded = compile_mj("""
            class P { int v; }
            class K { int v; int mk(K o) { P p = new P(); return o.v + p.v; } }
            class Main {
                static void main(String[] args) {
                    K k = new K();
                    K o = k;
                    int s = 0;
                    for (int i = 0; i < 60; i++) {
                        if (i == 40) { o = null; }
                        s = s + k.mk(o);
                    }
                    Sys.println(s);
                }
            }
        """)
        ref, _ = _oracle(loaded)
    assert ref[4] == "null dereference"
    assert jit._inline_target(loaded, _call_to(loaded, "mk")) is None


@pytest.mark.parametrize("threshold", [1, 16])
def test_direct_calls_under_the_local_dispatcher(threshold):
    """A directly called callee reaches a ``DependentObject.access`` of a
    rewritten program run on one machine: it leaves with its frame on top,
    the local dispatcher runs the access (on the compiled tier too)."""
    from helpers import compile_mj_raw
    from repro.distgen import rewrite_program
    from repro.distgen.plan import DistributionPlan
    from repro.vm.loader import load_program

    bp, _ = compile_mj_raw("""
        class Account {
            int savings;
            Account(int s) { this.savings = s; }
            int get() { return this.savings; }
            void add(int x) { this.savings = this.savings + x; }
        }
        class Teller {
            int ops;
            int work(Account a, int i) {
                this.ops = this.ops + 1;
                a.add(i);
                return a.get() + this.ops;
            }
        }
        class Main {
            static void main(String[] args) {
                Account acc = new Account(5);
                Teller t = new Teller();
                int s = 0;
                for (int i = 0; i < 60; i++) { s = s + t.work(acc, i); }
                Sys.println(s);
            }
        }
    """)
    plan = DistributionPlan(nparts=2, granularity="class",
                            class_home={"Account": 0},
                            dependent_classes={"Account"}, main_partition=0)
    rewritten, stats = rewrite_program(bp, plan)
    assert stats.invocations >= 2
    with jit_threshold(threshold):
        loaded = load_program(rewritten)
        _oracle(loaded)
    assert _direct_calls(loaded)


@pytest.mark.parametrize("threshold", [1, 16])
def test_thread_backend_machines_share_one_plan(threshold):
    """``search`` on the thread backend: two nodes, one rewritten program,
    its plans, direct calls and in-region ``NEW`` shared by both machines —
    the sequential run's stdout."""
    from repro.api import Experiment
    from repro.harness.cache import StageCache

    with jit_threshold(threshold):
        res = Experiment.from_options(
            "search", size="test", cache=StageCache(), backend="thread",
            engine="compiled", force_distribution=True,
        ).run()
    assert res.stdout == res.sequential.stdout


def test_direct_calls_under_concurrent_machines():
    """Three machines on three threads over the same programs, switching
    every few bytecodes, through the same regions — recursion past the
    depth bound, direct calls reaching bound natives and ``Sys.time``:
    each computes the reference results."""
    import threading

    with jit_threshold(1):
        programs = [compile_mj(_DEEP % 300), compile_mj(_CALLEE_NATIVES % 10)]
        ref = [_observe(loaded, "reference")[0] for loaded in programs]
    out = []

    def run():  # the engine is pinned once, outside: the pin is process-wide
        seen = []
        for loaded in programs:
            machine = Machine(loaded)
            machine.statics = loaded.fresh_statics()
            machine.call_bmethod(loaded.main_method(), None, [None])
            run_sync(machine)
            seen.append((machine.cycles, machine.steps, machine.result,
                         tuple(machine.stdout), None))
        out.append(seen)

    threads = [threading.Thread(target=run) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with forced_engine("compiled"):
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert out == [ref] * 3
    assert all(_direct_calls(loaded) for loaded in programs)


# ---------------------------------- natives in regions, one code per source
def _in_place_oracle(src: str, threshold: int):
    """:func:`_oracle` at ``threshold``; returns the reference observation,
    the compiled machine and its regions' sources."""
    with jit_threshold(threshold):
        loaded = compile_mj(src)
        ref, machine = _oracle(loaded)
    return ref, machine, list(_compiled_sources(loaded).values())


def _natives_in_place(sources):
    return [src for src in sources if "except Exception" in src]


def test_in_region_natives_are_registered_and_none_is_sys():
    assert IN_REGION <= set(REGISTRY)
    assert not any(cls == "Sys" for cls, _ in IN_REGION)
    assert {("Random", "nextInt"), ("Random", "nextFloat"),
            ("Random", "nextLong"), ("Vector", "get"), ("Vector", "set"),
            ("Vector", "size"), ("Vector", "add")} <= IN_REGION
    assert {key for key in REGISTRY if key[0] == "Math"} <= IN_REGION


_LOOP = """
    class Main {
        static void main(String[] args) {
            Random r = new Random(3);
            Vector v = new Vector();
            float w = 0.5;
            long z = 0L;
            int s = 0;
            for (int i = 0; i < 60; i++) {
                v.add(i);
                %s
                s = s + i * 3;
            }
            Sys.println(s + ":" + r.nextInt(1000) + ":" + w + ":" + z);
        }
    }
"""


@pytest.mark.parametrize("threshold", [1, 16])
@pytest.mark.parametrize("body, error", [
    ("s = s + r.nextInt(40 - i);",
     "Random.nextInt bound must be positive, got 0"),
    ("Object o = v.get(i / 30 * 100);",
     "Vector.get(100) out of range (size 31)"),
    ("v.set(i / 40 * 100, s);",
     "Vector.set(100) out of range (size 41)"),
    ("w = w + Math.sqrt(20.0 - i);",
     "ValueError: math domain error"),
    ("w = w + Math.exp(i * 50.0) / 1.0e300;",
     "OverflowError: math range error"),
    ("w = w + r.nextFloat() + Math.pow(1.5, 2.0); z = z ^ r.nextLong();",
     None),
], ids=["Random.nextInt(0)", "Vector.get out of range",
        "Vector.set out of range", "Math.sqrt(-1.0)", "Math.exp(1000.0)",
        "no error"])
def test_a_bound_native_that_raises_charges_exactly(body, error, threshold):
    """An audited native runs inside the region once it is hot (bound at
    its call site before); when it raises, the region deopts at the call
    and the plain handler raises what the reference path raises — a
    ``VMError``, or a Python error from ``math`` — with the same charge,
    over the same heap: ``Random``'s state is what the reference left."""
    ref, machine, sources = _in_place_oracle(_LOOP % body, threshold)
    assert ref[4] == error
    assert _natives_in_place(sources)
    assert machine.jit_stats()["deopts"] == (error is not None)


_SUBCLASS = """
    class Counting extends Random {
        int k;
        Counting(int s) { this.k = s; }
        int nextInt(int b) { this.k = this.k + 3; return this.k %% b; }
    }
    class Main {
        static void main(String[] args) {
            Random r = new Random(3);
            int s = 0;
            for (int i = 0; i < 60; i++) {
                if (i == %d) { r = new Counting(5); }
                if (i == %d) { r = new Random(9); }
                s = s * 7 + r.nextInt(100);
            }
            Sys.println(s);
        }
    }
"""


@pytest.mark.parametrize("threshold", [1, 16])
@pytest.mark.parametrize("switch", [(20, 45), (1, 50)])
def test_a_random_subclass_at_the_site_misses_the_guard(switch, threshold):
    """A ``Random`` subclass overriding ``nextInt`` reaches a site the
    region calls ``Random.nextInt`` at in place: the exact-class guard
    misses, the engine's call site runs the override."""
    _, _, sources = _in_place_oracle(_SUBCLASS % switch, threshold)
    assert _natives_in_place(sources)


_TIME_AND_RANDOM = """
    class Main {
        static void main(String[] args) {
            Random r = new Random(11);
            float w = 1.5;
            for (int j = 0; j < %d; j++) { w = (w + 2.5) %% 7.0 %% 5.0 %% 3.0; }
            long ticks = 0;
            long last = Sys.time();
            int s = 0;
            for (int i = 0; i < 3000; i++) {
                s = s + r.nextInt(10) + r.nextInt(7);
                long t = Sys.time();
                if (t != last) { ticks = ticks * 31 + i; last = t; }
            }
            Sys.println(s + ":" + ticks + ":" + last);
        }
    }
"""


@pytest.mark.parametrize("threshold", [1, 16])
@pytest.mark.parametrize("pad", [12000, 12507, 13015])
def test_sys_time_after_in_region_natives_reads_exact_cycles(pad, threshold):
    """``Random.nextInt`` runs inside the region, ``Sys.time`` ends it: the
    millisecond ticks land on the reference's iterations."""
    ref, _, sources = _in_place_oracle(_TIME_AND_RANDOM % pad, threshold)
    assert int(ref[3][0].split(":")[1]) != 0  # the clock ticked in the loop
    assert _natives_in_place(sources)


def test_wrap_edges_inline_on_all_tiers():
    """``+ - * << neg / (int)`` at the edges of the int and long ranges, on
    values a region cannot fold: the inline wrap is ``i32`` / ``i64``."""
    ref, machine, loaded = _compiled_agrees("""
        class Main {
            static void main(String[] args) {
                int s = 0;
                long t = 0L;
                for (int i = 0; i < 40; i++) {
                    int x = 2147483647 - 20 + i;
                    int y = -2147483648 + 20 - i;
                    long p = 9223372036854775807L - 20L + i;
                    long q = -9223372036854775807L - 1L + 20L - i;
                    s = s ^ (x + 1) ^ (y - 1) ^ (x << 31) ^ (i << 31) ^ (x * x);
                    s = s ^ (-y) ^ (y / -1) ^ (int) p ^ (int) (p + 1L);
                    t = t ^ (p + 1L) ^ (q - 1L) ^ (p << 63) ^ (p * p);
                    t = t ^ (-q) ^ (q / -1L);
                }
                Sys.println(s + ":" + t);
            }
        }
    """, threshold=1)
    sources = "".join(_compiled_sources(loaded).values())
    assert "0xffffffff" in sources and "0xffffffffffffffff" in sources
    assert "i32(" not in sources and "i64(" not in sources


def test_one_region_source_two_programs_one_code_object():
    """Two programs from one source in one process: their regions lower to
    one source, ``compile()`` once — one code object, each closure over its
    own program's constants."""
    src = _LOOP % "w = w + r.nextFloat();"
    with jit_threshold(1):
        fns = []
        for _ in range(2):
            loaded = compile_mj(src)
            _observe(loaded, "compiled")
            fns.append({key: run.fn for bc in loaded.bprogram.classes.values()
                        for bm in bc.methods.values()
                        for key, run in [(bm.qualified, r) for r in
                                         plan_runs(bm.flat())]
                        if run.fn is not None})
    first, second = fns
    assert first.keys() == second.keys() and first
    for key, fn in first.items():
        other = second[key]
        assert fn.__code__ is other.__code__ and fn.__doc__ == other.__doc__
        assert fn.__globals__ is not other.__globals__
        consts = [k for k in fn.__globals__ if re.fullmatch(r"K\d+", k)]
        assert consts
        assert any(fn.__globals__[k] is not other.__globals__[k]
                   for k in consts)


def test_the_code_cache_dies_with_the_last_program():
    """After ``gc.collect()`` with no program alive the code cache is empty
    — a fresh interpreter, so no other test's program is alive."""
    import subprocess

    script = f"""
import gc, sys
sys.path[:0] = {[str(pathlib.Path(__file__).parents[1]),
                 str(pathlib.Path(__file__).parents[2] / "src")]!r}
from helpers import compile_mj
from repro.vm import jit
from repro.vm.interpreter import Machine, forced_engine, run_sync
with jit.jit_threshold(1), forced_engine("compiled"):
    for _ in range(2):
        loaded = compile_mj({(_LOOP % "w = w + r.nextFloat();")!r})
        machine = Machine(loaded)
        machine.statics = loaded.fresh_statics()
        machine.call_bmethod(loaded.main_method(), None, [None])
        run_sync(machine)
live = len(jit._CODE)
del loaded, machine
gc.collect()
print(live, len(jit._CODE))
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=120, check=True).stdout.split()
    assert int(out[0]) > 0 and out[1] == "0"
