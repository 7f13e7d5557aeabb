"""Bytecode verifier tests — including the property that compiler output and
rewriter output always verify."""

import sys
import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))

import pytest

from _reference_stack_effect import reference_stack_effect
from helpers import compile_mj_raw

from repro.bytecode import opcodes as op
from repro.bytecode.model import BMethod, Instr, stack_effect
from repro.bytecode.verifier import VerifyError, verify_method, verify_program
from repro.distgen import build_plan, rewrite_program
from repro.errors import CompileError
from repro.lang.symbols import ClassTable
from repro.lang.types import INT, VOID
from repro.workloads import WORKLOADS


def hand_method(ret=VOID, params=()):
    return BMethod("T", "m", list(params), ret, True, False)


def test_underflow_detected():
    m = hand_method()
    m.emit(op.POP)
    m.emit(op.RETURN)
    with pytest.raises(VerifyError, match="underflow"):
        verify_method(m, ClassTable())


def test_leftover_stack_at_return_detected():
    m = hand_method()
    m.emit(op.LDC, 1, "I")
    m.emit(op.RETURN)
    with pytest.raises(VerifyError, match="values left"):
        verify_method(m, ClassTable())


def test_fall_off_end_detected():
    m = hand_method()
    m.emit(op.LDC, 1, "I")
    m.emit(op.POP)
    with pytest.raises(VerifyError, match="falls off"):
        verify_method(m, ClassTable())


def test_inconsistent_join_depth_detected():
    from repro.bytecode.model import Label

    m = hand_method()
    join = Label("J")
    skip = Label("S")
    m.emit(op.LDC, 1, "I")
    m.emit(op.IFTRUE, skip)      # depth 0 after
    m.emit(op.LDC, 7, "I")       # depth 1 on fallthrough
    m.place(skip)                 # join: 0 vs 1
    m.place(join)
    m.emit(op.RETURN)
    with pytest.raises(VerifyError, match="inconsistent"):
        verify_method(m, ClassTable())


def test_value_method_with_bare_return_detected():
    m = hand_method(ret=INT)
    m.emit(op.RETURN)
    with pytest.raises(VerifyError, match="bare return"):
        verify_method(m, ClassTable())


def test_void_method_with_value_return_detected():
    m = hand_method()
    m.emit(op.LDC, 1, "I")
    m.emit(op.IRETURN)
    with pytest.raises(VerifyError, match="value return"):
        verify_method(m, ClassTable())


def test_stack_effect_table_covers_every_opcode_like_the_if_chain_did():
    """Every opcode is in ``STACK_EFFECT``, or reads an operand (``PACK``,
    the invokes), or is a pseudo-entry — and ``stack_effect`` answers what
    the if-chain it replaced answered, errors included."""
    _, table = compile_mj_raw("""
        class K {
            int n;
            K(int n) { this.n = n; }
            int get(int a, int b) { return this.n; }
            void set(int n) { this.n = n; }
            static int twice(int x) { return x + x; }
            static void nop() { }
        }
        class Main { static void main(String[] a) { } }
    """)

    def both(ins):
        out = []
        for fn in (stack_effect, reference_stack_effect):
            try:
                out.append(fn(ins, table))
            except CompileError:
                out.append(CompileError)
        assert out[0] == out[1], ins
        return out[0]

    for name in op.OPCODE_LIST:
        if name in op.STACK_EFFECT:
            assert both(Instr(name, 1, 2, 3)) == op.STACK_EFFECT[name]
        elif name == op.PACK:
            assert [both(Instr(name, n)) for n in (0, 1, 5)] == [
                (0, 1), (1, 1), (5, 1)]
        elif name in op.INVOKES:
            for cls, method, nargs in (
                ("K", "get", 2), ("K", "set", 1), ("K", "twice", 1),
                ("K", "nop", 0), ("K", "<init>", 1), ("Sys", "println", 1),
                ("DependentObject", "create", 3),
                ("DependentObject", "access", 3), ("K", "missing", 0),
            ):
                both(Instr(name, cls, method, nargs))
        else:
            assert name in (op.LABEL, "<unknown>")
            assert both(Instr(name)) is CompileError
    assert both(Instr(op.INVOKEVIRTUAL, "K", "get", 2)) == (3, 1)
    assert both(Instr(op.INVOKESPECIAL, "K", "<init>", 1)) == (2, 0)
    assert both(Instr(op.INVOKESTATIC, "K", "nop", 0)) == (0, 0)
    assert both(Instr(op.INVOKESTATIC, "DependentObject", "create", 3)) == (3, 1)
    assert both(Instr(op.INVOKEVIRTUAL, "K", "missing", 0)) is CompileError


def test_max_depth_reported():
    m = hand_method()
    m.emit(op.LDC, 1, "I")
    m.emit(op.LDC, 2, "I")
    m.emit(op.LDC, 3, "I")
    m.emit(op.IADD)
    m.emit(op.IADD)
    m.emit(op.POP)
    m.emit(op.RETURN)
    assert verify_method(m, ClassTable()) == 3


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_compiler_output_always_verifies(name):
    bp, _ = compile_mj_raw(WORKLOADS[name].source("test"))
    depths = verify_program(bp)
    assert depths
    assert all(d >= 0 for d in depths.values())


@pytest.mark.parametrize("name", ["bank", "crypt", "db", "create"])
def test_rewriter_output_always_verifies(name):
    """The communication rewriter preserves stack discipline."""
    bp, _ = compile_mj_raw(WORKLOADS[name].source("test"))
    from repro.distgen.plan import DistributionPlan

    plan = DistributionPlan(
        nparts=2,
        granularity="class",
        class_home={c: 0 for c in bp.classes},
        dependent_classes=set(bp.classes),
        main_partition=0,
    )
    rewritten, stats = rewrite_program(bp, plan)
    assert stats.total > 0
    verify_program(rewritten)
