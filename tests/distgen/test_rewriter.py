"""Communication-rewriting tests.

The central property: **rewriting preserves semantics** — a rewritten
program run on one machine (local dispatcher resolves every
DependentObject access) produces exactly the original output.
"""

import sys
import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))

import pytest

from helpers import compile_mj_raw

from repro.bytecode import opcodes as op
from repro.bytecode.model import Label
from repro.distgen import build_plan, rewrite_program
from repro.distgen.plan import DistributionPlan
from repro.lang.symbols import DEPENDENT_OBJECT
from repro.vm import load_program, run_main
from repro.workloads import WORKLOADS


def forced_plan(bp, dependent, homes=None) -> DistributionPlan:
    return DistributionPlan(
        nparts=2,
        granularity="class",
        class_home=homes or {c: 0 for c in dependent},
        dependent_classes=set(dependent),
        main_partition=0,
    )


SRC = """
class Account {
    int savings;
    Account(int savings) { this.savings = savings; }
    int getSavings() { return savings; }
    void setSavings(int s) { savings = s; }
}
class M {
    static void main(String[] args) {
        Account account = new Account(100);
        account.setSavings(account.getSavings() + 1);
        Sys.println(account.getSavings() + "," + account.savings);
    }
}
"""


def test_invocation_rewritten_figure8_shape():
    bp, _ = compile_mj_raw(SRC)
    rewritten, stats = rewrite_program(bp, forced_plan(bp, {"Account"}))
    flat = rewritten.classes["M"].methods["main"].flat()
    ops = [(i.op, i.a, i.b) for i in flat]
    # PACK; LDC type; LDC name; INVOKEVIRTUAL DependentObject.access
    idx = next(
        k for k, (o, a, b) in enumerate(ops)
        if o == op.INVOKEVIRTUAL and a == DEPENDENT_OBJECT and b == "access"
    )
    assert ops[idx - 1][0] == op.LDC      # member name
    assert ops[idx - 2][0] == op.LDC      # access type
    assert ops[idx - 3][0] == op.PACK
    assert stats.invocations >= 2


def test_instantiation_rewritten_figure9_shape():
    bp, _ = compile_mj_raw(SRC)
    rewritten, stats = rewrite_program(bp, forced_plan(bp, {"Account"}))
    flat = rewritten.classes["M"].methods["main"].flat()
    ops = [i.op for i in flat]
    assert op.NEW not in [
        i.op for i in flat if i.a == "Account"
    ]
    creates = [
        i for i in flat
        if i.op == op.INVOKESTATIC and i.a == DEPENDENT_OBJECT and i.b == "create"
    ]
    assert len(creates) == 1
    assert stats.instantiations == 1
    # the class name travels as a string constant (ldc "Account")
    assert any(i.op == op.LDC and i.a == "Account" and i.b == "S" for i in flat)


def test_field_access_rewritten():
    bp, _ = compile_mj_raw(SRC)
    rewritten, stats = rewrite_program(bp, forced_plan(bp, {"Account"}))
    assert stats.field_gets >= 1  # account.savings in main


def test_this_accesses_kept_direct():
    bp, _ = compile_mj_raw(SRC)
    rewritten, stats = rewrite_program(bp, forced_plan(bp, {"Account"}))
    # Account.getSavings reads this.savings — must stay a plain GETFIELD
    flat = rewritten.classes["Account"].methods["getSavings"].flat()
    assert any(i.op == op.GETFIELD for i in flat)
    assert not any(i.a == DEPENDENT_OBJECT for i in flat)
    assert stats.this_peepholes >= 2


def test_void_invocations_popped():
    bp, _ = compile_mj_raw(SRC)
    rewritten, _ = rewrite_program(bp, forced_plan(bp, {"Account"}))
    flat = rewritten.classes["M"].methods["main"].flat()
    for k, ins in enumerate(flat):
        if ins.op == op.INVOKEVIRTUAL and ins.b == "access":
            # setSavings (void) must be followed by POP
            prev_name = flat[k - 1].a
            if prev_name == "setSavings":
                assert flat[k + 1].op == op.POP


def test_nparts1_plan_rewrites_nothing():
    bp, _ = compile_mj_raw(SRC)
    plan = build_plan(bp, 1)
    rewritten, stats = rewrite_program(bp, plan)
    assert stats.total == 0
    flat = rewritten.classes["M"].methods["main"].flat()
    assert not any(i.a == DEPENDENT_OBJECT for i in flat)


def test_original_program_untouched():
    bp, _ = compile_mj_raw(SRC)
    before = len(bp.classes["M"].methods["main"].code)
    rewrite_program(bp, forced_plan(bp, {"Account"}))
    assert len(bp.classes["M"].methods["main"].code) == before


def test_subtype_receivers_rewritten():
    src = """
    class Base { int f() { return 1; } }
    class Sub extends Base { int f() { return 2; } }
    class M {
        static void main(String[] args) {
            Base b = new Sub();
            Sys.println(b.f());
        }
    }
    """
    bp, _ = compile_mj_raw(src)
    rewritten, stats = rewrite_program(bp, forced_plan(bp, {"Sub"}))
    flat = rewritten.classes["M"].methods["main"].flat()
    # the call through static type Base must be rewritten because Sub is
    # dependent
    assert any(i.a == DEPENDENT_OBJECT and i.b == "access" for i in flat)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_rewritten_program_semantics_preserved(name):
    """Property: for every workload, rewriting everything as dependent and
    running on one machine (local dispatcher) gives identical output."""
    bp, _ = compile_mj_raw(WORKLOADS[name].source("test"))
    baseline = run_main(load_program(bp)).stdout

    dependent = set(bp.classes)
    plan = forced_plan(bp, dependent, homes={c: 0 for c in bp.classes})
    rewritten, stats = rewrite_program(bp, plan)
    assert stats.total > 0
    out = run_main(load_program(rewritten)).stdout
    assert out == baseline


# ---------------------------------------------------------------------------
# the ``this`` analysis across a loop: hand-built code, because compiled MJ
# statements never carry operands around a back edge
# ---------------------------------------------------------------------------
def _looping_reader(back_edge_receiver: int):
    """``Node.walk(Node other, int again)`` holding two receivers on the
    stack at its loop head: ``this, this`` on entry, and local
    ``back_edge_receiver`` twice when the back edge is taken.  The loop
    body reads ``.next`` from the top one."""
    bp, _ = compile_mj_raw("""
    class Node {
        Node next;
        void walk(Node other, int again) { }
    }
    class M { static void main(String[] args) { new Node().walk(null, 0); } }
    """)
    walk = bp.classes["Node"].methods["walk"]
    walk.code = []
    walk.invalidate()
    head = Label("HEAD")
    walk.emit(op.ALOAD, 0)
    walk.emit(op.ALOAD, 0)
    walk.place(head)
    walk.emit(op.GETFIELD, "Node", "next")
    walk.emit(op.POP)
    walk.emit(op.POP)
    walk.emit(op.ALOAD, back_edge_receiver)
    walk.emit(op.ALOAD, back_edge_receiver)
    walk.emit(op.ILOAD, 2)
    walk.emit(op.IFTRUE, head)
    walk.emit(op.POP)
    walk.emit(op.POP)
    walk.emit(op.RETURN)
    return bp


def test_receiver_that_stops_being_this_around_a_loop_is_rewritten():
    bp = _looping_reader(back_edge_receiver=1)  # ``other`` comes back round
    rewritten, stats = rewrite_program(bp, forced_plan(bp, {"Node"}))
    flat = rewritten.classes["Node"].methods["walk"].flat()
    assert not any(i.op == op.GETFIELD for i in flat)
    assert any(i.a == DEPENDENT_OBJECT and i.b == "access" for i in flat)
    assert (stats.field_gets, stats.this_peepholes) == (1, 0)


def test_receiver_that_stays_this_around_a_loop_is_kept_direct():
    bp = _looping_reader(back_edge_receiver=0)
    rewritten, stats = rewrite_program(bp, forced_plan(bp, {"Node"}))
    flat = rewritten.classes["Node"].methods["walk"].flat()
    assert any(i.op == op.GETFIELD for i in flat)
    assert (stats.field_gets, stats.this_peepholes) == (0, 1)
