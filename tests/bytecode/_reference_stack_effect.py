"""The stack-effect if-chain ``repro.quad.builder`` carried before the
table (:data:`repro.bytecode.opcodes.STACK_EFFECT` +
:func:`repro.bytecode.model.stack_effect`) replaced it — kept verbatim as
the oracle ``test_stack_effect.py`` compares the table with."""

from typing import Tuple

from repro.errors import CompileError
from repro.bytecode import opcodes as op
from repro.lang.symbols import DEPENDENT_OBJECT
from repro.lang.types import BOOLEAN, FLOAT, INT, LONG, VOID


def _tychar(ty) -> str:
    if ty in (INT, BOOLEAN):
        return "I"
    if ty is LONG:
        return "J"
    if ty is FLOAT:
        return "F"
    if ty is VOID:
        return "V"
    return "A"


def _invoke_ret_char(table, ins) -> str:
    cls, name = ins.a, ins.b
    if cls == DEPENDENT_OBJECT and name == "create":
        return "A"
    mi = table.resolve_method(cls, name)
    if mi is None:
        raise CompileError(f"cannot resolve {cls}.{name} for quad building")
    if mi.is_ctor:
        return "V"
    return _tychar(mi.ret)


def reference_stack_effect(ins, table) -> Tuple[int, int]:
    """(pops, pushes) of one instruction."""
    o = ins.op
    if o in (op.LDC, op.ACONST_NULL, op.NEW, op.GETSTATIC) or o in op.LOADS:
        return (0, 1)
    if o in op.STORES or o in (op.POP, op.PUTSTATIC, op.IFTRUE, op.IFFALSE):
        return (1, 0)
    if o == op.DUP:
        return (1, 2)
    if o == op.SWAP:
        return (2, 2)
    if o in op.BINOPS:
        return (2, 1)
    if o in op.NEGOPS or o in op.CONVERSIONS or o in (
        op.NEWARRAY,
        op.ARRAYLENGTH,
        op.CHECKCAST,
        op.INSTANCEOF,
        op.GETFIELD,
    ):
        return (1, 1)
    if o in op.CMP_BRANCHES or o == op.PUTFIELD:
        return (2, 0)
    if o == op.GOTO or o == op.RETURN:
        return (0, 0)
    if o in op.RETURNS:
        return (1, 0)
    if o == op.XALOAD:
        return (2, 1)
    if o == op.XASTORE:
        return (3, 0)
    if o == op.PACK:
        return (ins.a, 1)
    if o in op.INVOKES:
        nargs = ins.c
        pops = nargs + (0 if o == op.INVOKESTATIC else 1)
        if ins.a == DEPENDENT_OBJECT and ins.b == "create":
            pops = nargs  # static factory
        pushes = 0 if _invoke_ret_char(table, ins) == "V" else 1
        return (pops, pushes)
    raise CompileError(f"no stack effect for {o}")
