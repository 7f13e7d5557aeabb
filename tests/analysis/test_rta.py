"""Rapid Type Analysis tests."""

import sys
import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import compile_mj_raw

from repro.analysis import rapid_type_analysis
from repro.bytecode import opcodes as op
from repro.bytecode.model import BProgram
from repro.errors import AnalysisError
from repro.testing.genprog import GenConfig, generate_source
from repro.workloads import WORKLOADS


def cg_of(src: str):
    bp, _ = compile_mj_raw(src)
    return rapid_type_analysis(bp)


def test_main_is_reachable():
    cg = cg_of("class M { static void main(String[] a) { } }")
    assert "M.main" in cg.reachable


def test_uncalled_method_not_reachable():
    cg = cg_of("""
    class A { void used() { } void unused() { } }
    class M { static void main(String[] a) { new A().used(); } }
    """)
    assert "A.used" in cg.reachable
    assert "A.unused" not in cg.reachable


def test_instantiated_types_tracked():
    cg = cg_of("""
    class A { }
    class B { }
    class M { static void main(String[] a) { A x = new A(); } }
    """)
    assert "A" in cg.instantiated
    assert "B" not in cg.instantiated


def test_virtual_call_resolved_only_against_instantiated_types():
    cg = cg_of("""
    class Base { void f() { } }
    class Sub1 extends Base { void f() { } }
    class Sub2 extends Base { void f() { } }
    class M {
        static void main(String[] a) {
            Base b = new Sub1();
            b.f();
        }
    }
    """)
    callees = cg.callees("M.main")
    assert "Sub1.f" in callees
    assert "Sub2.f" not in callees  # never instantiated
    assert "Base.f" not in callees


def test_inherited_method_resolves_to_declaring_class():
    cg = cg_of("""
    class Base { void f() { } }
    class Sub extends Base { }
    class M { static void main(String[] a) { new Sub().f(); } }
    """)
    assert "Base.f" in cg.callees("M.main")


def test_transitive_reachability():
    cg = cg_of("""
    class A { void f(B b) { b.g(); } }
    class B { void g() { h(); } void h() { } }
    class M { static void main(String[] a) { new A().f(new B()); } }
    """)
    for q in ("A.f", "B.g", "B.h"):
        assert q in cg.reachable


def test_recursion_handled():
    cg = cg_of("""
    class M {
        static int f(int n) { if (n == 0) { return 0; } return f(n - 1); }
        static void main(String[] a) { f(3); }
    }
    """)
    assert ("M.f", 3) in cg.edges["M.f"] or any(
        callee == "M.f" for callee, _ in cg.edges["M.f"]
    )


def test_clinit_always_reachable():
    cg = cg_of("""
    class Config { static int x = 5; }
    class M { static void main(String[] a) { } }
    """)
    assert "Config.<clinit>" in cg.reachable


def test_ctor_reachable_through_new():
    cg = cg_of("""
    class A { A() { helper(); } void helper() { } }
    class M { static void main(String[] a) { new A(); } }
    """)
    assert "A.<init>" in cg.reachable
    assert "A.helper" in cg.reachable


def test_call_sites_of():
    cg = cg_of("""
    class A { void f() { } }
    class M { static void main(String[] a) { A x = new A(); x.f(); x.f(); } }
    """)
    sites = cg.call_sites_of("A.f")
    assert len(sites) == 2
    assert all(caller == "M.main" for caller, _ in sites)


def test_entry_required():
    bp, _ = compile_mj_raw("class A { void f() { } }")
    with pytest.raises(AnalysisError):
        rapid_type_analysis(bp)
    cg = rapid_type_analysis(bp, entry="A.f")
    assert "A.f" in cg.reachable


# ---------------------------------------------------------------------------
# oracle: the worklist must reach the same fixpoint as a naive rescan
# ---------------------------------------------------------------------------
def naive_rta(program):
    """Reference fixpoint: rescan every reachable method, resolving every
    virtual site against every instantiated class, until nothing changes."""
    table, classes = program.table, program.classes
    reachable = {f"{program.main_class}.main"}
    reachable |= {f"{c}.<clinit>" for c in classes if "<clinit>" in classes[c].methods}
    instantiated, edges, size = set(), set(), None
    while size != (len(reachable), len(instantiated), len(edges)):
        size = (len(reachable), len(instantiated), len(edges))
        for caller in sorted(reachable):
            cls, name = caller.rsplit(".", 1)
            if cls not in classes:
                continue
            for idx, ins in enumerate(classes[cls].methods[name].flat()):
                receivers = []
                if ins.op == op.NEW:
                    instantiated.add(ins.a)
                elif ins.op in (op.INVOKESTATIC, op.INVOKESPECIAL):
                    receivers = [ins.a]
                elif ins.op == op.INVOKEVIRTUAL:
                    receivers = [
                        t for t in instantiated & set(classes)
                        if ins.a in ["Object"] + [s.name for s in table.supers(t)]
                    ]
                for t in receivers:
                    callee = program.lookup_method(t, ins.b)
                    if callee is not None:
                        edges.add((caller, callee.qualified, idx))
                        reachable.add(callee.qualified)
    return reachable, instantiated, edges


def assert_matches_oracle(program):
    cg = rapid_type_analysis(program)
    reachable, instantiated, edges = naive_rta(program)
    assert cg.reachable == reachable
    assert cg.instantiated == instantiated
    assert {(a, b, i) for a, outs in cg.edges.items() for b, i in outs} == edges
    assert all(cg.edges.values()) and all(cg.callers.values())
    assert {(a, b) for b, ins in cg.callers.items() for a in ins} == {
        (a, b) for a, b, _ in edges
    }
    for callee in reachable:
        assert cg.call_sites_of(callee) == {
            (a, i) for a, b, i in edges if b == callee
        }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_oracle_on_bundled_workloads(name):
    bp, _ = compile_mj_raw(WORKLOADS[name].source("test"))
    assert_matches_oracle(bp)


@settings(max_examples=12)
@given(st.integers(min_value=0, max_value=2**16), st.sampled_from([8, 24, 48]))
def test_oracle_on_generated_programs(seed, n_classes):
    config = GenConfig(seed=seed, n_classes=n_classes, n_methods=6, max_stmts=8)
    bp, _ = compile_mj_raw(generate_source(config))
    assert_matches_oracle(bp)


def test_call_sites_of_returns_a_fresh_set():
    cg = cg_of("""
    class A { void f() { } }
    class M { static void main(String[] a) { new A().f(); } }
    """)
    cg.call_sites_of("A.f").clear()
    assert len(cg.call_sites_of("A.f")) == 1
    assert cg.call_sites_of("A.nowhere") == set()


def test_each_site_type_pair_is_resolved_at_most_once(monkeypatch):
    """Scaling guard in calls, not seconds: method lookups during RTA are
    bounded by (virtual sites × instantiated user classes) + static sites."""
    config = GenConfig(seed=0, n_classes=48, n_methods=6, max_stmts=8)
    bp, _ = compile_mj_raw(generate_source(config))
    lookups = []
    real = BProgram.lookup_method

    def counting(self, class_name, method):
        lookups.append((class_name, method))
        return real(self, class_name, method)

    monkeypatch.setattr(BProgram, "lookup_method", counting)
    cg = rapid_type_analysis(bp)
    monkeypatch.undo()

    virtual = static = 0
    for method in cg.reachable_methods():
        for ins in method.flat():
            virtual += ins.op == op.INVOKEVIRTUAL
            static += ins.op in (op.INVOKESTATIC, op.INVOKESPECIAL)
    user_types = cg.instantiated & set(bp.classes)
    assert len(bp.classes) >= 48 and virtual > 50 and len(user_types) > 20
    assert len(lookups) <= virtual * len(user_types) + static
    # rescanning every site after every method made 9 698 here; this is 270
    assert len(lookups) < 10 * (virtual + static)
