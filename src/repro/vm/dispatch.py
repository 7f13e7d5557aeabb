"""Threaded-code dispatch: the handlers under both block engines.

One handler function per opcode, stored in :data:`HANDLERS` — a dense list
indexed by the interned opcode (``Instr.opx``).  :func:`threaded` pairs
every instruction of a method with its handler once; the ``fast`` engine
(:meth:`repro.vm.interpreter.Machine.run_block`) and the ``compiled``
engine below its hotness threshold and after every deopt
(:func:`repro.vm.jit.run_block_compiled`) execute
``handler(machine, frame, ins)`` from that list in a tight loop instead of
walking :meth:`Machine._execute`'s string-keyed if/elif chain, and the
string-keyed ``_CMP`` / ``_INT_BIN`` tables are folded away: arithmetic
opcodes get their own handlers and compare-branches carry their resolved
comparison callable in ``Instr.cfn`` (set once at flatten time).

Handler protocol — each handler returns one of:

* ``None``          — same frame keeps running (the overwhelmingly common
  case: constants, locals, arithmetic, branches, heap ops on local objects);
* :data:`FRAME_SWITCH` — the frame stack changed (invoke pushed a frame,
  return popped one, or a native ran); the block engine re-fetches the top
  frame and checks its stop depth;
* a ``('syscall', generator, push_result)`` tuple — the instruction needs
  the distribution runtime; the block engine ends the current cost block
  and hands the generator to the driver.

Semantics are intentionally a line-for-line mirror of
:meth:`Machine._execute`; the per-step path stays in the interpreter as the
reference oracle the differential suite checks this table against.
"""

from __future__ import annotations

from typing import Callable, List

from repro.errors import VMError
from repro.bytecode import opcodes as op
from repro.lang.symbols import DEPENDENT_OBJECT
from repro.vm.values import (
    DependentRef, f2i, f2l, frem, i32, i64, idiv, irem, iushr,
)

#: sentinel returned by handlers after the frame stack may have changed
FRAME_SWITCH = object()


# ------------------------------------------------------------------ constants
def _ldc(m, f, ins):
    f.stack.append(ins.a)


def _aconst_null(m, f, ins):
    f.stack.append(None)


# ------------------------------------------------------------------ locals
def _load(m, f, ins):
    f.stack.append(f.locals[ins.a])


def _store(m, f, ins):
    f.locals[ins.a] = f.stack.pop()


# ------------------------------------------------------------------ stack
def _dup(m, f, ins):
    f.stack.append(f.stack[-1])


def _pop(m, f, ins):
    f.stack.pop()


def _swap(m, f, ins):
    s = f.stack
    s[-1], s[-2] = s[-2], s[-1]


# ------------------------------------------------------------------ int arith
def _iadd(m, f, ins):
    s = f.stack
    b = s.pop()
    s.append(i32(s.pop() + b))


def _isub(m, f, ins):
    s = f.stack
    b = s.pop()
    s.append(i32(s.pop() - b))


def _imul(m, f, ins):
    s = f.stack
    b = s.pop()
    s.append(i32(s.pop() * b))


def _iand(m, f, ins):
    s = f.stack
    b = s.pop()
    s.append(i32(s.pop() & b))


def _ior(m, f, ins):
    s = f.stack
    b = s.pop()
    s.append(i32(s.pop() | b))


def _ixor(m, f, ins):
    s = f.stack
    b = s.pop()
    s.append(i32(s.pop() ^ b))


def _ishl(m, f, ins):
    s = f.stack
    b = s.pop()
    s.append(i32(s.pop() << (b & 31)))


def _ishr(m, f, ins):
    s = f.stack
    b = s.pop()
    s.append(i32(s.pop() >> (b & 31)))


def _iushr(m, f, ins):
    s = f.stack
    b = s.pop()
    s.append(iushr(s.pop(), b, 32))


def _idiv(m, f, ins):
    s = f.stack
    b = s.pop()
    a = s.pop()
    if b == 0:
        raise VMError("integer division by zero")
    s.append(i32(idiv(a, b)))


def _irem(m, f, ins):
    s = f.stack
    b = s.pop()
    a = s.pop()
    if b == 0:
        raise VMError("integer division by zero")
    s.append(i32(irem(a, b)))


def _ineg(m, f, ins):
    s = f.stack
    s.append(i32(-s.pop()))


# ------------------------------------------------------------------ long arith
def _ladd(m, f, ins):
    s = f.stack
    b = s.pop()
    s.append(i64(s.pop() + b))


def _lsub(m, f, ins):
    s = f.stack
    b = s.pop()
    s.append(i64(s.pop() - b))


def _lmul(m, f, ins):
    s = f.stack
    b = s.pop()
    s.append(i64(s.pop() * b))


def _land(m, f, ins):
    s = f.stack
    b = s.pop()
    s.append(i64(s.pop() & b))


def _lor(m, f, ins):
    s = f.stack
    b = s.pop()
    s.append(i64(s.pop() | b))


def _lxor(m, f, ins):
    s = f.stack
    b = s.pop()
    s.append(i64(s.pop() ^ b))


def _lshl(m, f, ins):
    s = f.stack
    b = s.pop()
    s.append(i64(s.pop() << (b & 63)))


def _lshr(m, f, ins):
    s = f.stack
    b = s.pop()
    s.append(i64(s.pop() >> (b & 63)))


def _lushr(m, f, ins):
    s = f.stack
    b = s.pop()
    s.append(iushr(s.pop(), b, 64))


def _ldiv(m, f, ins):
    s = f.stack
    b = s.pop()
    a = s.pop()
    if b == 0:
        raise VMError("long division by zero")
    s.append(i64(idiv(a, b)))


def _lrem(m, f, ins):
    s = f.stack
    b = s.pop()
    a = s.pop()
    if b == 0:
        raise VMError("long division by zero")
    s.append(i64(irem(a, b)))


def _lneg(m, f, ins):
    s = f.stack
    s.append(i64(-s.pop()))


# ------------------------------------------------------------------ float arith
def _fadd(m, f, ins):
    s = f.stack
    b = s.pop()
    s.append(s.pop() + b)


def _fsub(m, f, ins):
    s = f.stack
    b = s.pop()
    s.append(s.pop() - b)


def _fmul(m, f, ins):
    s = f.stack
    b = s.pop()
    s.append(s.pop() * b)


def _fdiv(m, f, ins):
    s = f.stack
    b = s.pop()
    a = s.pop()
    if b == 0.0:
        raise VMError("float division by zero")
    s.append(a / b)


def _frem(m, f, ins):
    s = f.stack
    b = s.pop()
    a = s.pop()
    if b == 0.0:
        raise VMError("float remainder by zero")
    s.append(frem(a, b))


def _fneg(m, f, ins):
    s = f.stack
    s.append(-s.pop())


# ------------------------------------------------------------------ conversions
def _i2l(m, f, ins):
    s = f.stack
    s.append(i64(s.pop()))


def _x2f(m, f, ins):
    s = f.stack
    s.append(float(s.pop()))


def _l2i(m, f, ins):
    s = f.stack
    s.append(i32(s.pop()))


def _f2i(m, f, ins):
    s = f.stack
    s.append(f2i(s.pop()))


def _f2l(m, f, ins):
    s = f.stack
    s.append(f2l(s.pop()))


# ------------------------------------------------------------------ control flow
def _goto(m, f, ins):
    f.pc = ins.a


def _cmp_branch(m, f, ins):
    s = f.stack
    b = s.pop()
    a = s.pop()
    cfn = ins.cfn
    if cfn is None:
        # unknown condition: fail exactly like the oracle's _CMP[ins.a]
        raise KeyError(ins.a)
    if cfn(a, b):
        f.pc = ins.b


def _iftrue(m, f, ins):
    if f.stack.pop():
        f.pc = ins.a


def _iffalse(m, f, ins):
    if not f.stack.pop():
        f.pc = ins.a


# ------------------------------------------------------------------ objects
def _new(m, f, ins):
    if ins.a == DEPENDENT_OBJECT:
        raise VMError(
            "NEW DependentObject should have been rewritten to "
            "DependentObject.create"
        )
    f.stack.append(m._allocate(ins.a))


def _getfield(m, f, ins):
    s = f.stack
    recv = s.pop()
    if isinstance(recv, DependentRef):
        return m._syscall_access(f, recv, [], "get", ins.b)
    obj = m.heap.object(m._require_ref(recv))
    try:
        s.append(obj.fields[ins.b])
    except KeyError:
        raise VMError(f"no field {obj.class_name}.{ins.b}") from None


def _putfield(m, f, ins):
    s = f.stack
    value = s.pop()
    recv = s.pop()
    if isinstance(recv, DependentRef):
        return m._syscall_access(f, recv, [value], "set", ins.b)
    obj = m.heap.object(m._require_ref(recv))
    if ins.b not in obj.fields:
        raise VMError(f"no field {obj.class_name}.{ins.b}")
    obj.fields[ins.b] = value


def _getstatic(m, f, ins):
    f.stack.append(m.statics.get((ins.a, ins.b)))


def _putstatic(m, f, ins):
    m.statics[(ins.a, ins.b)] = f.stack.pop()


def _invoke(m, f, ins):
    r = m._invoke(ins, f)
    if r is not None:
        return r  # ('syscall', generator, push_result)
    return FRAME_SWITCH


def _checkcast(m, f, ins):
    value = f.stack[-1]
    if value is not None and not m._instance_of(value, ins.a):
        raise VMError(f"bad cast to {ins.a} of {value!r}")


def _instanceof(m, f, ins):
    s = f.stack
    value = s.pop()
    s.append(1 if (value is not None and m._instance_of(value, ins.a)) else 0)


# ------------------------------------------------------------------ arrays
def _newarray(m, f, ins):
    s = f.stack
    length = s.pop()
    s.append(m.heap.new_array(ins.a, length))


def _arraylength(m, f, ins):
    s = f.stack
    recv = s.pop()
    if isinstance(recv, DependentRef):
        return m._syscall_access(f, recv, [], "alen", "[]")
    arr = m.heap.array(m._require_ref(recv))
    s.append(len(arr.data))


def _xaload(m, f, ins):
    s = f.stack
    idx = s.pop()
    recv = s.pop()
    if isinstance(recv, DependentRef):
        return m._syscall_access(f, recv, [idx], "aget", "[]")
    arr = m.heap.array(m._require_ref(recv))
    data = arr.data
    if not 0 <= idx < len(data):
        raise VMError(f"array index {idx} out of bounds ({len(data)})")
    s.append(data[idx])


def _xastore(m, f, ins):
    s = f.stack
    value = s.pop()
    idx = s.pop()
    recv = s.pop()
    if isinstance(recv, DependentRef):
        return m._syscall_access(f, recv, [idx, value], "aset", "[]")
    arr = m.heap.array(m._require_ref(recv))
    data = arr.data
    if not 0 <= idx < len(data):
        raise VMError(f"array index {idx} out of bounds ({len(data)})")
    data[idx] = value


# ------------------------------------------------------------------ returns
def _return(m, f, ins):
    m._return(None)
    return FRAME_SWITCH


def _xreturn(m, f, ins):
    m._return(f.stack.pop())
    return FRAME_SWITCH


# ------------------------------------------------------------------ distribution
def _pack(m, f, ins):
    s = f.stack
    n = ins.a
    if n == 0:
        s.append([])
    else:
        values = s[-n:]
        del s[-n:]
        s.append(list(values))


def _unknown(m, f, ins):
    raise VMError(f"unknown opcode {ins.op}")


def _label(m, f, ins):  # pragma: no cover - stripped by flattening
    raise VMError("LABEL pseudo-instruction reached the interpreter")


_BY_NAME = {
    op.LDC: _ldc,
    op.ACONST_NULL: _aconst_null,
    op.ILOAD: _load, op.LLOAD: _load, op.FLOAD: _load, op.ALOAD: _load,
    op.ISTORE: _store, op.LSTORE: _store, op.FSTORE: _store, op.ASTORE: _store,
    op.DUP: _dup, op.POP: _pop, op.SWAP: _swap,
    op.IADD: _iadd, op.ISUB: _isub, op.IMUL: _imul,
    op.IDIV: _idiv, op.IREM: _irem, op.INEG: _ineg,
    op.LADD: _ladd, op.LSUB: _lsub, op.LMUL: _lmul,
    op.LDIV: _ldiv, op.LREM: _lrem, op.LNEG: _lneg,
    op.FADD: _fadd, op.FSUB: _fsub, op.FMUL: _fmul,
    op.FDIV: _fdiv, op.FREM: _frem, op.FNEG: _fneg,
    op.IAND: _iand, op.IOR: _ior, op.IXOR: _ixor,
    op.ISHL: _ishl, op.ISHR: _ishr, op.IUSHR: _iushr,
    op.LAND: _land, op.LOR: _lor, op.LXOR: _lxor,
    op.LSHL: _lshl, op.LSHR: _lshr, op.LUSHR: _lushr,
    op.I2L: _i2l, op.I2F: _x2f, op.L2I: _l2i, op.L2F: _x2f,
    op.F2I: _f2i, op.F2L: _f2l,
    op.IF_ICMP: _cmp_branch, op.IF_LCMP: _cmp_branch,
    op.IF_FCMP: _cmp_branch, op.IF_ACMP: _cmp_branch,
    op.IFTRUE: _iftrue, op.IFFALSE: _iffalse, op.GOTO: _goto,
    op.NEW: _new,
    op.INVOKEVIRTUAL: _invoke, op.INVOKESPECIAL: _invoke,
    op.INVOKESTATIC: _invoke,
    op.GETFIELD: _getfield, op.PUTFIELD: _putfield,
    op.GETSTATIC: _getstatic, op.PUTSTATIC: _putstatic,
    op.CHECKCAST: _checkcast, op.INSTANCEOF: _instanceof,
    op.NEWARRAY: _newarray, op.ARRAYLENGTH: _arraylength,
    op.XALOAD: _xaload, op.XASTORE: _xastore,
    op.RETURN: _return,
    op.IRETURN: _xreturn, op.LRETURN: _xreturn,
    op.FRETURN: _xreturn, op.ARETURN: _xreturn,
    op.PACK: _pack,
    op.LABEL: _label,
}

#: the dispatch table, aligned with :data:`repro.bytecode.opcodes.OPCODE_LIST`
HANDLERS: List[Callable] = [
    _BY_NAME.get(name, _unknown) for name in op.OPCODE_LIST
]


def threaded(flat):
    """Threaded form of one method's flat code: ``[(handler, instr), ...]``,
    built once per :class:`~repro.bytecode.model.FlatCode` on first
    execution and cached on it — the per-program direct-handler lists of
    classic threaded-code dispatch.  ``run_block`` executes nothing else;
    the compiled tier executes it wherever no trace applies (cold runs,
    the instruction a guard deopted at, everything untraceable)."""
    code = flat.threaded
    if code is None:
        code = flat.threaded = [(HANDLERS[i.opx], i) for i in flat.instrs]
    return code


#: the shared invoke handler, re-exported so the block engine can detect
#: call dispatch cheaply (identity check) and publish the in-flight block
#: cost that cycle-reading natives (``Sys.time``) observe
INVOKE_HANDLER = _invoke
