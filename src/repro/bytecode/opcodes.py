"""The MJ bytecode instruction set and its abstract cost model.

Opcode names follow JVM conventions (``iload``-style semantics, spelled in
upper case).  Branch instructions carry :class:`~repro.bytecode.model.Label`
operands until :meth:`~repro.bytecode.model.BMethod.flat` resolves them to
instruction indices.

The **cost model** assigns each opcode an abstract cycle count.  Virtual time
on a simulated node advances by ``cycles / node.cpu_hz`` — this is what makes
the Figure 11 speedup experiment deterministic (see
:mod:`repro.runtime.simnet`).
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, FrozenSet, Tuple

# --- constants -------------------------------------------------------------
LDC = "LDC"                    # (value, type_char)
ACONST_NULL = "ACONST_NULL"

# --- locals ----------------------------------------------------------------
ILOAD = "ILOAD"
LLOAD = "LLOAD"
FLOAD = "FLOAD"
ALOAD = "ALOAD"
ISTORE = "ISTORE"
LSTORE = "LSTORE"
FSTORE = "FSTORE"
ASTORE = "ASTORE"

LOADS = frozenset({ILOAD, LLOAD, FLOAD, ALOAD})
STORES = frozenset({ISTORE, LSTORE, FSTORE, ASTORE})

# --- stack -----------------------------------------------------------------
DUP = "DUP"
POP = "POP"
SWAP = "SWAP"

# --- arithmetic / bitwise ----------------------------------------------------
IADD, ISUB, IMUL, IDIV, IREM, INEG = "IADD", "ISUB", "IMUL", "IDIV", "IREM", "INEG"
LADD, LSUB, LMUL, LDIV, LREM, LNEG = "LADD", "LSUB", "LMUL", "LDIV", "LREM", "LNEG"
FADD, FSUB, FMUL, FDIV, FREM, FNEG = "FADD", "FSUB", "FMUL", "FDIV", "FREM", "FNEG"
IAND, IOR, IXOR = "IAND", "IOR", "IXOR"
ISHL, ISHR, IUSHR = "ISHL", "ISHR", "IUSHR"
LAND, LOR, LXOR = "LAND", "LOR", "LXOR"
LSHL, LSHR, LUSHR = "LSHL", "LSHR", "LUSHR"

BINOPS: FrozenSet[str] = frozenset(
    {
        IADD, ISUB, IMUL, IDIV, IREM,
        LADD, LSUB, LMUL, LDIV, LREM,
        FADD, FSUB, FMUL, FDIV, FREM,
        IAND, IOR, IXOR, ISHL, ISHR, IUSHR,
        LAND, LOR, LXOR, LSHL, LSHR, LUSHR,
    }
)
NEGOPS = frozenset({INEG, LNEG, FNEG})

# --- conversions ---------------------------------------------------------------
I2L, I2F, L2I, L2F, F2I, F2L = "I2L", "I2F", "L2I", "L2F", "F2I", "F2L"
CONVERSIONS = frozenset({I2L, I2F, L2I, L2F, F2I, F2L})

# --- control flow ----------------------------------------------------------------
IF_ICMP = "IF_ICMP"            # (cond, label)   cond in EQ NE LT LE GT GE
IF_LCMP = "IF_LCMP"
IF_FCMP = "IF_FCMP"
IF_ACMP = "IF_ACMP"            # (cond, label)   cond in EQ NE
IFTRUE = "IFTRUE"              # (label,)
IFFALSE = "IFFALSE"
GOTO = "GOTO"
CMP_BRANCHES = frozenset({IF_ICMP, IF_LCMP, IF_FCMP, IF_ACMP})
BOOL_BRANCHES = frozenset({IFTRUE, IFFALSE})
BRANCHES = CMP_BRANCHES | BOOL_BRANCHES | {GOTO}

# --- objects -----------------------------------------------------------------------
NEW = "NEW"                          # (class_name,)
INVOKEVIRTUAL = "INVOKEVIRTUAL"      # (class_name, method, nargs)
INVOKESPECIAL = "INVOKESPECIAL"      # (class_name, method, nargs)  (constructors)
INVOKESTATIC = "INVOKESTATIC"        # (class_name, method, nargs)
GETFIELD = "GETFIELD"                # (class_name, field)
PUTFIELD = "PUTFIELD"
GETSTATIC = "GETSTATIC"
PUTSTATIC = "PUTSTATIC"
CHECKCAST = "CHECKCAST"              # (class_name,)
INSTANCEOF = "INSTANCEOF"
INVOKES = frozenset({INVOKEVIRTUAL, INVOKESPECIAL, INVOKESTATIC})

# --- arrays ----------------------------------------------------------------------
NEWARRAY = "NEWARRAY"          # (elem_descriptor,)
ARRAYLENGTH = "ARRAYLENGTH"
XALOAD = "XALOAD"              # (type_char,)   array element load
XASTORE = "XASTORE"

# --- returns ----------------------------------------------------------------------
RETURN = "RETURN"
IRETURN, LRETURN, FRETURN, ARETURN = "IRETURN", "LRETURN", "FRETURN", "ARETURN"
RETURNS = frozenset({RETURN, IRETURN, LRETURN, FRETURN, ARETURN})

# --- distribution support (inserted by the communication rewriter) -----------------
PACK = "PACK"                  # (n,)  pop n values, push a LinkedList of them

# --- pseudo ------------------------------------------------------------------------
LABEL = "LABEL"                # (Label,)  marker, removed by flattening


#: abstract cycles per opcode (defaults to 1)
COST: Dict[str, int] = {
    LDC: 1,
    ACONST_NULL: 1,
    DUP: 1,
    POP: 1,
    SWAP: 1,
    IMUL: 3,
    LMUL: 4,
    FMUL: 4,
    IDIV: 12,
    LDIV: 16,
    FDIV: 16,
    IREM: 12,
    LREM: 16,
    FREM: 18,
    FADD: 3,
    FSUB: 3,
    NEW: 24,
    NEWARRAY: 24,
    GETFIELD: 3,
    PUTFIELD: 3,
    GETSTATIC: 2,
    PUTSTATIC: 2,
    XALOAD: 3,
    XASTORE: 3,
    ARRAYLENGTH: 2,
    CHECKCAST: 3,
    INSTANCEOF: 3,
    INVOKEVIRTUAL: 14,
    INVOKESPECIAL: 12,
    INVOKESTATIC: 10,
    IRETURN: 4,
    LRETURN: 4,
    FRETURN: 4,
    ARETURN: 4,
    RETURN: 4,
    PACK: 8,
}


#: ``(pops, pushes)`` of every opcode whose stack effect does not depend on
#: its operands — all but ``PACK`` (pops ``ins.a`` values) and the invokes
#: (arity and voidness of the callee), which
#: :func:`repro.bytecode.model.stack_effect` adds
STACK_EFFECT: Dict[str, Tuple[int, int]] = {
    **dict.fromkeys({LDC, ACONST_NULL, NEW, GETSTATIC} | LOADS, (0, 1)),
    **dict.fromkeys(
        {POP, PUTSTATIC, IFTRUE, IFFALSE} | STORES | (RETURNS - {RETURN}),
        (1, 0),
    ),
    **dict.fromkeys(
        {NEWARRAY, ARRAYLENGTH, CHECKCAST, INSTANCEOF, GETFIELD}
        | NEGOPS | CONVERSIONS,
        (1, 1),
    ),
    **dict.fromkeys({XALOAD} | BINOPS, (2, 1)),
    **dict.fromkeys({PUTFIELD} | CMP_BRANCHES, (2, 0)),
    DUP: (1, 2),
    SWAP: (2, 2),
    XASTORE: (3, 0),
    GOTO: (0, 0),
    RETURN: (0, 0),
}


# --- opcode interning -------------------------------------------------------
#: dense opcode numbering for the threaded-code dispatch table
#: (:mod:`repro.vm.dispatch`).  Index 0 is reserved for unknown opcodes so a
#: handcrafted bad instruction still fails with the VM's "unknown opcode"
#: error instead of an index error.  The order is load-bearing only in that
#: it must match the handler table built against ``OPCODE_LIST``.
OPCODE_LIST: Tuple[str, ...] = (
    "<unknown>",
    LDC, ACONST_NULL,
    ILOAD, LLOAD, FLOAD, ALOAD,
    ISTORE, LSTORE, FSTORE, ASTORE,
    DUP, POP, SWAP,
    IADD, ISUB, IMUL, IDIV, IREM, INEG,
    LADD, LSUB, LMUL, LDIV, LREM, LNEG,
    FADD, FSUB, FMUL, FDIV, FREM, FNEG,
    IAND, IOR, IXOR, ISHL, ISHR, IUSHR,
    LAND, LOR, LXOR, LSHL, LSHR, LUSHR,
    I2L, I2F, L2I, L2F, F2I, F2L,
    IF_ICMP, IF_LCMP, IF_FCMP, IF_ACMP, IFTRUE, IFFALSE, GOTO,
    NEW, INVOKEVIRTUAL, INVOKESPECIAL, INVOKESTATIC,
    GETFIELD, PUTFIELD, GETSTATIC, PUTSTATIC, CHECKCAST, INSTANCEOF,
    NEWARRAY, ARRAYLENGTH, XALOAD, XASTORE,
    RETURN, IRETURN, LRETURN, FRETURN, ARETURN,
    PACK,
    LABEL,
)

#: opcode name → dense int index (the interned form stored in ``Instr.opx``)
OPX: Dict[str, int] = {name: i for i, name in enumerate(OPCODE_LIST)}
NUM_OPCODES = len(OPCODE_LIST)


def _acmp_eq(a, b) -> bool:
    # reference equality with value semantics for boxed/str operands
    return (a == b) if (a is not None and b is not None) else (a is b)


def _acmp_ne(a, b) -> bool:
    return not _acmp_eq(a, b)


#: branch-condition name → comparison callable, resolved once at flatten
#: time onto ``Instr.cfn`` so the interpreter never does the string-keyed
#: lookup per executed branch
CMP_FUNCS: Dict[str, Callable] = {
    "EQ": operator.eq,
    "NE": operator.ne,
    "LT": operator.lt,
    "LE": operator.le,
    "GT": operator.gt,
    "GE": operator.ge,
}
ACMP_FUNCS: Dict[str, Callable] = {"EQ": _acmp_eq, "NE": _acmp_ne}


#: result type char pushed by each arithmetic/conversion opcode; used by the
#: quad builder's abstract stack interpretation
RESULT_TYPE: Dict[str, str] = {}
for _op in BINOPS | NEGOPS:
    RESULT_TYPE[_op] = {"I": "I", "L": "J", "F": "F"}[_op[0]]
RESULT_TYPE.update(
    {I2L: "J", I2F: "F", L2I: "I", L2F: "F", F2I: "I", F2L: "J", ARRAYLENGTH: "I"}
)
