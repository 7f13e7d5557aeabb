"""The compiled execution tier: region-compiled hot runs over the threaded
handlers.

This is the third engine behind :meth:`Machine.drive` (the other two are
the per-step reference path and the threaded-code ``run_block`` fast
path).  It is driven by **runs**: maximal stretches of traceable,
syscall-free instructions inside one basic block of a method's
:class:`~repro.bytecode.model.FlatCode`.

A run is born cold: it executes one instruction at a time through the
plain threaded handlers (:func:`repro.vm.dispatch.threaded`) and counts
its executions.  Past the hotness threshold (``REPRO_VM_JIT_THRESHOLD``)
it is compiled as a **region**: everything traceable reachable from the
run's first instruction — loops, forward branches and joins included, up
to the first instruction that is not traceable on each path — lowered
through the :mod:`repro.codegen.tree` / :mod:`repro.codegen.burs`
machinery (the paper's JBurg stage) against the Python expression target
(:mod:`repro.codegen.pytarget`) into one closure.  Inside it whole
expression chains collapse — constants folded, operand stack virtualized
away, whatever a dominating block has already resolved or checked
memoized instead of re-derived — operating directly on frame locals.  A
block with a single predecessor in the region is compiled inside that
predecessor (an ``if`` arm), keeping its virtual stack and memo; joins
and loop heads are the arms of a block-dispatch loop.  A call to a pure
leaf method — reads only, branches forward only — is inlined; a call to
any other bytecode method whose entry run is compiled calls that region
directly, on a frame of its own, and continues after its return.  ``NEW``
allocates in place from its class's field template.  A native audited for
it (:data:`~repro.vm.natives.IN_REGION`) is called in place; any other —
``Sys.*`` among them — ends the region.  Each region source is
``compile()``-d once per process and shared by every region lowered to it.

Between regions, a call or return of a bytecode frame is a
:class:`CallSite` the engine loop serves from a monomorphic inline cache
without leaving the loop, and so is a call of a native, resolved once per
site; remote receivers and service frames take the handlers.

The **deopt contract**: every faultable operation (division, heap access,
array indexing, field lookup) is *guarded* — it checks its operands by
peeking before mutating anything, and on guard failure the region returns
the pc of the offending instruction with the stack and locals exactly as
if all earlier instructions had run and the offender had not.  The engine
then charges the completed prefix and re-executes that one instruction
through its plain threaded-code handler — the path a cold run takes for
every instruction — which raises the precise ``VMError`` (or performs the
remote-object syscall) the reference path would.  Cycle accounting stays
integer-exact: a region reports the steps and the sums of ``Instr.cost``
of exactly the instructions it completed, so cycles, steps, NodeStats and
fault text are bit-identical across all three tiers.
"""

from __future__ import annotations

import os
import weakref
from bisect import bisect_right
from contextlib import contextmanager
from types import FunctionType
from typing import Dict, List, Optional, Tuple

from repro.errors import CodegenError, ConfigError, VMError
from repro.bytecode import opcodes as op
from repro.bytecode.model import successors
from repro.bytecode.verifier import verified
from repro.codegen.pytarget import fold_const, lower_py
from repro.codegen.tree import TreeNode
from repro.lang.symbols import DEPENDENT_OBJECT
from repro.lang.types import VOID
from repro.vm.dispatch import FRAME_SWITCH, INVOKE_HANDLER, threaded
from repro.vm.frame import Frame
from repro.vm.heap import HeapArray, HeapObject
from repro.vm.natives import IN_REGION, find_native
from repro.vm.values import Ref, f2i, f2l, frem, idiv, irem, iushr

__all__ = [
    "JIT_THRESHOLD",
    "jit_threshold",
    "Run",
    "build_fused",
    "run_block_compiled",
    "plan_runs",
]


def _threshold_from_env() -> int:
    raw = os.environ.get("REPRO_VM_JIT_THRESHOLD", "")
    try:
        n = int(raw or "16")
    except ValueError:
        n = 0
    if n < 1:
        raise ConfigError(
            f"REPRO_VM_JIT_THRESHOLD={raw!r}: expected a positive integer "
            "(executions of a run before it is traced; default 16)"
        )
    return n


#: executions of a run before it is trace-compiled (``REPRO_VM_JIT_THRESHOLD``)
JIT_THRESHOLD = _threshold_from_env()


@contextmanager
def jit_threshold(n: int):
    """Temporarily set the trace-compilation hotness threshold — in this
    process and, via ``REPRO_VM_JIT_THRESHOLD``, in spawned workers.
    Affects plans built inside the block (the threshold is baked into each
    :class:`Run` when its method's plan is constructed)."""
    global JIT_THRESHOLD
    prev, prev_env = JIT_THRESHOLD, os.environ.get("REPRO_VM_JIT_THRESHOLD")
    JIT_THRESHOLD = int(n)
    os.environ["REPRO_VM_JIT_THRESHOLD"] = str(int(n))
    try:
        yield
    finally:
        JIT_THRESHOLD = prev
        if prev_env is None:
            os.environ.pop("REPRO_VM_JIT_THRESHOLD", None)
        else:
            os.environ["REPRO_VM_JIT_THRESHOLD"] = prev_env


#: sentinel distinguishing "field absent" from a stored ``None``
_MISS = object()


class Run:
    """One run: ``instrs[start:end]`` of a method's flat code.

    ``fn`` is ``None`` while the run is cold (it then executes through the
    plain threaded handlers, one instruction per engine pass).  Once hot,
    ``fn(machine, frame)`` is the region compiled from ``start``: it
    returns ``(exit_pc, steps, cycles, status)`` — ``status=1`` leaves the
    frame exactly at a failed guard (stack rebuilt, prefix counted),
    ``status=0`` is a clean exit at a pc the region does not cover.  A
    region that called another directly and did not see it return cleanly
    leaves that callee's frame (or a deeper one) on top, its own ``pc``
    past the call: ``status=2`` when the top frame resumes at its ``pc``,
    ``status=3`` when the instruction there deopted and runs once through
    its plain handler (re-entering the run there would fail again).
    """

    __slots__ = ("start", "end", "fn", "count", "threshold", "promoted")

    def __init__(self, start: int, end: int, threshold: int) -> None:
        self.start = start
        self.end = end
        self.fn = None
        self.count = 0
        self.threshold = threshold
        #: compilation was attempted (once, whether or not it succeeded)
        self.promoted = False


#: :attr:`CallSite.kind`; every kind ``>= _FIXED`` is a call
_RETURN, _XRETURN, _FIXED, _VIRTUAL = range(4)


class CallSite:
    """Plan entry of one call or return, so the engine loop can push and pop
    bytecode frames itself.  A call carries a monomorphic inline cache,
    ``(prog, cls, method, flat, pad, native)``: the callee ``method`` and its
    ``flat`` (``None``: not a plain bytecode call) it resolved for ``prog``
    and runtime receiver class ``cls`` (``None`` at a statically bound site),
    or the handler ``native`` calling the native it resolved instead.
    ``prog`` is part of the key because a program and its rewritten copy
    share code and run in one process.  The plan is shared by every machine
    over the program — the thread backend's nodes run them concurrently —
    so key and value are one tuple, replaced in a single store and read
    once per call.  Whatever the cache does not cover runs through
    ``handler``, the instruction's plain threaded handler."""

    __slots__ = ("ins", "handler", "kind", "nops", "cache")

    def __init__(self, ins, handler) -> None:
        self.ins = ins
        self.handler = handler
        if ins.op in op.RETURNS:
            self.kind = _RETURN if ins.op == op.RETURN else _XRETURN
        else:
            self.kind = _VIRTUAL if ins.op == op.INVOKEVIRTUAL else _FIXED
        #: operands the call takes off the stack: receiver + arguments
        self.nops = (ins.c or 0) + (ins.op != op.INVOKESTATIC)
        self.cache = (None, None, None, None, None, None)

    def bind(self, prog, cls) -> tuple:
        """Resolve the site for ``prog`` and receiver class ``cls``."""
        ins = self.ins
        owner = ins.a if cls is None else cls
        method = prog.lookup_method(owner, ins.b)
        flat = pad = native = None  # not a call we model
        if method is None:
            native = _bind_native(prog, owner, ins.b, self.nops,
                                  ins.op != op.INVOKESTATIC)
        elif method.nargs == (ins.c or 0) \
                and method.is_static == (ins.op == op.INVOKESTATIC):
            flat = method.flat()
            #: the callee's locals past receiver + arguments
            pad = [None] * (flat.nlocals - self.nops)
        hit = self.cache = (prog, cls, method, flat, pad, native)
        return hit


def _resolve_native(prog, cls: str, name: str):
    """``(native, pushes)`` of native ``cls.name`` — found, and whether its
    value is pushed settled, here, once — exactly as ``Machine._native``
    does on every call; ``None`` when there is none (the plain handler
    raises)."""
    try:
        fn = find_native(cls, name)
    except VMError:
        return None
    mi = prog.table.resolve_method(cls, name)
    return fn, mi is not None and mi.ret is not VOID and not mi.is_ctor


def _bind_native(prog, cls: str, name: str, nops: int, nrecv: bool):
    """A handler calling native ``cls.name`` as :func:`_resolve_native`
    resolved it; ``None`` when there is none."""
    resolved = _resolve_native(prog, cls, name)
    if resolved is None:
        return None
    fn, push = resolved

    def call(m, f, ins):
        s = f.stack
        i = len(s) - nops
        recv = s[i] if nrecv else None
        args = s[i + nrecv:]
        del s[i:]
        value = fn(m, recv, args)
        m.inflight_cycles = 0  # the engine published it for this call
        if push:
            s.append(value)

    return call


# --------------------------------------------------------------------------
# plan construction
# --------------------------------------------------------------------------

#: the opcodes :meth:`_TraceCompiler.compile_ins` lowers (a compare-branch
#: only once its condition is resolved, see :func:`_traceable`)
_TRACEABLE = (
    op.BINOPS | op.NEGOPS | op.CONVERSIONS | op.LOADS | op.STORES
    | op.BOOL_BRANCHES
    | frozenset({
        op.LDC, op.ACONST_NULL, op.DUP, op.POP, op.SWAP, op.GOTO,
        op.GETSTATIC, op.PUTSTATIC, op.GETFIELD, op.PUTFIELD,
        op.ARRAYLENGTH, op.XALOAD, op.XASTORE, op.NEW,
    })
)
#: the traceable opcodes a pure leaf callee may not contain: it stores to
#: nothing but its own locals and allocates nothing (a deopt inside it
#: re-executes the whole call)
_EFFECTS = frozenset({op.PUTSTATIC, op.PUTFIELD, op.XASTORE, op.NEW})


def _traceable(ins) -> bool:
    o = ins.op
    if o in _TRACEABLE:
        # ``NEW DependentObject`` must keep raising through the plain handler
        return o != op.NEW or ins.a != DEPENDENT_OBJECT
    # an unresolved condition must keep raising through the plain handler
    return o in op.CMP_BRANCHES and ins.cfn is not None


def build_fused(flat):
    """Build (and cache on ``flat.fused``) the compiled-tier execution plan:
    one entry per instruction — a cold :class:`Run` at the head of every
    stretch of >= 2 traceable instructions inside a basic block, a
    :class:`CallSite` at every return and every invoke but
    ``DependentObject.*``, the plain ``(handler, instr)`` pair everywhere
    else.  Nothing is compiled here; a run's own positions execute through
    ``flat.threaded``, cold and after a deopt alike."""
    plan = [
        CallSite(i, h) if i.op in op.RETURNS
        or (i.op in op.INVOKES and i.a != DEPENDENT_OBJECT) else (h, i)
        for h, i in threaded(flat)
    ]
    instrs = flat.instrs
    threshold = JIT_THRESHOLD
    for a, b in flat.basic_blocks():
        j = a
        while j < b:
            if not _traceable(instrs[j]):
                j += 1
                continue
            start = j
            while j < b and _traceable(instrs[j]):
                j += 1
            if j - start >= 2:
                plan[start] = Run(start, j, threshold)
    flat.fused = plan
    return plan


def plan_runs(flat) -> List[Run]:
    """The runs of one method's plan (building it if necessary) — the
    per-block observability hook behind the jit profiler surface."""
    plan = flat.fused
    if plan is None:
        plan = build_fused(flat)
    return [e for e in plan if e.__class__ is Run]


# --------------------------------------------------------------------------
# trace compiler: instructions -> Python statements via tree/BURS lowering
# --------------------------------------------------------------------------

_EXEC_GLOBALS = {
    "idiv": idiv, "irem": irem, "iushr": iushr,
    "f2i": f2i, "f2l": f2l, "frem": frem,
    "Ref": Ref, "HeapObject": HeapObject, "HeapArray": HeapArray,
    "Frame": Frame, "_MISS": _MISS, "_aeq": op.ACMP_FUNCS["EQ"],
    "len": len, "int": int, "float": float,
}


#: ``(source, tag) -> code`` of every compiled closure alive in the process:
#: a region lowered to the same source again — a program's rewritten copy,
#: the same program loaded anew — only binds its own constants.  An entry
#: dies with the last closure over it.
_CODE: "weakref.WeakValueDictionary[Tuple[str, str], object]" = \
    weakref.WeakValueDictionary()


def _assemble(fname: str, body: List[str], tag: str, consts: Dict[str, object]):
    src = f"def {fname}(m, f):\n" + "\n".join("    " + ln for ln in body)
    g = dict(_EXEC_GLOBALS)
    g.update(consts)
    code = _CODE.get((src, tag))
    if code is None:
        exec(compile(src, f"<repro-jit:{tag}>", "exec"), g)
        fn = g[fname]
        _CODE[(src, tag)] = fn.__code__
    else:
        fn = FunctionType(code, g)  # what executing the ``def`` makes
    fn.__doc__ = src  # keep the source inspectable for tests / debugging
    return fn


_TREE_BIN = {
    op.IADD: "ADD_I", op.ISUB: "SUB_I", op.IMUL: "MUL_I",
    op.IAND: "AND_I", op.IOR: "OR_I", op.IXOR: "XOR_I",
    op.ISHL: "SHL_I", op.ISHR: "SHR_I", op.IUSHR: "USHR_I",
    op.LADD: "ADD_L", op.LSUB: "SUB_L", op.LMUL: "MUL_L",
    op.LAND: "AND_L", op.LOR: "OR_L", op.LXOR: "XOR_L",
    op.LSHL: "SHL_L", op.LSHR: "SHR_L", op.LUSHR: "USHR_L",
    op.FADD: "ADD_F", op.FSUB: "SUB_F", op.FMUL: "MUL_F",
}
_TREE_DIV = {
    op.IDIV: ("DIV_I", "0"), op.IREM: ("REM_I", "0"),
    op.LDIV: ("DIV_L", "0"), op.LREM: ("REM_L", "0"),
    op.FDIV: ("DIV_F", "0.0"), op.FREM: ("REM_F", "0.0"),
}
_TREE_NEG = {op.INEG: "NEG_I", op.LNEG: "NEG_L", op.FNEG: "NEG_F"}
_CONST_FOR = {"I": "ICONST", "J": "LCONST", "F": "FCONST", "S": "SCONST",
              "N": "NULL"}
_CMP_SYM = {"EQ": "==", "NE": "!=", "LT": "<", "LE": "<=",
            "GT": ">", "GE": ">="}
_CONSTABLE = (int, float, str, bool, type(None))

#: materialize pure subtrees past this node count (bounds expression size)
_MAX_TREE = 24


def _tree_size(nd: TreeNode) -> int:
    return 1 + sum(_tree_size(k) for k in nd.kids)


def _local_slots(nd: TreeNode, out: set) -> set:
    if nd.op == "LOCAL":
        out.add(nd.value)
    for k in nd.kids:
        _local_slots(k, out)
    return out


def _const(nd: TreeNode):
    """The compile-time value of ``nd``, or ``_MISS`` when it has none."""
    try:
        return fold_const(nd)
    except CodegenError:
        return _MISS


def _plus(var: str, k: int) -> str:
    return f"{var} + {k}" if k else var


def _push(values: List[str]) -> str:
    """The statement pushing ``values`` onto the real stack ``s``."""
    return f"s += ({', '.join(values)}{',' * (len(values) == 1)})"


class _TraceCompiler:
    """Symbolic re-execution of a region's instructions: the operand stack
    is virtualized into a stack of operator trees (``vstack``); pure
    computation defers as trees (lowered through BURS on demand),
    effectful or guarded operations materialize in program order.  At any
    deopt point the real operand stack is reconstructed exactly —
    remaining virtual entries first, then the peeked operands of the
    failing instruction.

    Within one region call nothing can free or replace an entry or its
    ``.data`` / ``.fields`` (``NEW`` only adds entries, ``NEWARRAY`` ends a
    region, an inlined callee only reads), and every temp is written once.
    So what a block and the blocks dominating it inside its arm have
    established is memoized and neither re-derived nor re-guarded: a
    dropped guard is one an identical earlier guard on the same path
    already passed.  A direct call (:func:`_direct_call`) may write any
    field: the field facts do not survive it; a native called in place
    (:func:`_native_call`) writes none.

    A region with a back edge extends this across its arms for what one
    call of it cannot change: a slot no block stores to (``stable``,
    loaded once on entry), and, lazily on first use, the entry behind such
    a value and its fields that no block writes (``written``) — each a
    region variable that starts as ``_MISS`` (``once``), so the guard that
    establishes it still deopts at the instruction that needed it first."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.indent = ""
        self.ntemp = 0
        self.stable: Dict[int, str] = {}
        #: fields some block writes; ``None`` when a call may write any
        self.written: Optional[frozenset] = frozenset()
        self.once: Dict[tuple, str] = {}
        #: temps holding one value for the whole region call: the stable
        #: slots' and the hoisted ones
        self.invariant: set = set()
        self.begin_block()
        self.needs_heap = False
        self.needs_statics = False
        self.needs_alloc = False
        self.needs_frames = False
        self.needs_own = False
        #: closure globals: the callees of direct calls
        self.consts: Dict[str, object] = {}
        #: where a failed guard leaves the region: the failing
        #: instruction's pc and the steps / cycles completed before it
        #: that the region has not yet added to ``n`` / ``c``
        self.at = (0, 0, 0)
        #: inlined-callee mode: ``ilocals`` maps callee local slots to
        #: write-once temps, ``inline_pushback`` restores the receiver and
        #: argument operands of the call on deopt (the callee is pure, so
        #: its partial work is simply dropped and the plain ``INVOKE``
        #: re-executes it from scratch)
        self.ilocals: Optional[List[str]] = None
        self.inline_pushback: Optional[List[str]] = None

    # ------------------------------------------------------------- helpers
    def begin_block(self) -> None:
        self.vstack: List[TreeNode] = []
        #: local slot -> temp holding its current value
        self.slots: Dict[int, str] = dict(self.stable)
        #: (ref temp, class) -> resolved, class-checked heap entry: the
        #: ``HeapObject``, or the ``.data`` list of a ``HeapArray``
        self.entries: Dict[Tuple[str, str], str] = {}
        #: (object entry, field name) -> temp holding the field's value
        self.fields: Dict[Tuple[str, str], str] = {}
        #: (array data, index temp) pairs already bounds-checked
        self.inbounds: set = set()

    def snapshot(self) -> tuple:
        """What one arm of a branch starts from; :meth:`restore` hands the
        other arm an independent copy of the same state."""
        return (list(self.vstack), dict(self.slots), dict(self.entries),
                dict(self.fields), set(self.inbounds),
                None if self.ilocals is None else list(self.ilocals))

    def restore(self, snap: tuple) -> None:
        vstack, slots, entries, fields, inbounds, ilocals = snap
        self.vstack, self.slots, self.entries = vstack, slots, entries
        self.fields, self.inbounds, self.ilocals = fields, inbounds, ilocals

    def temp(self) -> str:
        self.ntemp += 1
        return f"t{self.ntemp}"

    def emit(self, line: str) -> None:
        self.lines.append(self.indent + line)

    def _fact(self, key: tuple, hoist: bool) -> str:
        """The temp for memo entry ``key``.  A hoisted one is established
        once per region call: until :meth:`_end_fact`, what is emitted
        runs only while its region variable is still ``_MISS``."""
        if not hoist:
            return self.temp()
        t = self.once.get(key)
        if t is None:
            t = self.once[key] = self.temp()
            self.invariant.add(t)
        self.emit(f"if {t} is _MISS:")
        self.indent += "    "
        return t

    def _end_fact(self, t: str) -> None:
        if t in self.invariant:
            self.indent = self.indent[:-4]

    def _materialized(self, nd: TreeNode) -> TreeNode:
        if nd.op == "TEMP":
            return nd
        t = self.temp()
        self.emit(f"{t} = {lower_py(nd)}")
        if nd.op == "LOCAL":
            self.slots[nd.value] = t
        return TreeNode("TEMP", value=t)

    def need(self, k: int) -> None:
        # pull real-stack values under the virtual entries (deepest last,
        # inserted at the bottom so combined order is preserved)
        while len(self.vstack) < k:
            t = self.temp()
            self.emit(f"{t} = s.pop()")
            self.vstack.insert(0, TreeNode("TEMP", value=t))

    def pop(self) -> TreeNode:
        self.need(1)
        return self.vstack.pop()

    def pop_temp(self) -> str:
        return self._materialized(self.pop()).value

    def push(self, nd: TreeNode) -> None:
        if _tree_size(nd) > _MAX_TREE:
            nd = self._materialized(nd)
        self.vstack.append(nd)

    def const(self, value) -> str:
        name = f"K{len(self.consts)}"
        self.consts[name] = value
        return name

    def exit(self, operands: List[str], status: int = 1) -> str:
        """The statement that rebuilds the stack and deopts at ``self.at``
        — or, with ``status=0``, leaves cleanly there.  In inlined-callee
        mode the callee's virtual stack is dropped (the callee is pure) and
        the call's own operands are restored instead."""
        if self.inline_pushback is not None:
            operands = self.inline_pushback
        else:
            operands = [lower_py(nd) for nd in self.vstack] + operands
        pc, n, c = self.at
        ret = f"return ({pc}, {_plus('n', n)}, {_plus('c', c)}, {status})"
        return f"{_push(operands)}; {ret}" if operands else ret

    def guard(self, cond: str, operands: List[str], status: int = 1) -> None:
        """Emit ``if cond: <rebuild stack>; <deopt at self.at>``."""
        self.emit(f"if {cond}: {self.exit(operands, status)}")

    def flush(self) -> None:
        if self.vstack:
            self.emit(_push([lower_py(nd) for nd in self.vstack]))
        self.vstack.clear()

    def fork(self, cond: str, taken, fallthrough) -> None:
        """Emit ``if cond:`` / ``else:`` with ``taken()`` and
        ``fallthrough()`` compiling the arms, each from the state here."""
        arm = self.snapshot()
        indent = self.indent
        self.emit(f"if {cond}:")
        self.indent = indent + "    "
        taken()
        self.restore(arm)
        self.indent = indent
        self.emit("else:")
        self.indent = indent + "    "
        fallthrough()
        self.indent = indent

    def _heap_object(self, r: str, cls: str, operands: List[str],
                     status: int = 1) -> str:
        o = self.entries.get((r, cls))
        if o is None:
            self.needs_heap = True
            o = self.entries[(r, cls)] = self._fact(
                (r, cls), r in self.invariant)
            self.emit(f"{o} = H.get({r}.oid) if {r}.__class__ is Ref else None")
            self.guard(f"{o}.__class__ is not {cls}", operands, status)
            if cls == "HeapArray":
                self.emit(f"{o} = {o}.data")
            self._end_fact(o)
        return o

    def _element(self, r: str, xi: str, operands: List[str]) -> str:
        """The data list of array ``r``, index ``xi`` checked against it."""
        d = self._heap_object(r, "HeapArray", operands)
        if (d, xi) not in self.inbounds:
            self.inbounds.add((d, xi))
            self.guard(f"not 0 <= {xi} < len({d})", operands)
        return d

    # ------------------------------------------------------ per instruction
    def compile_ins(self, ins) -> Optional[str]:
        """Lower one instruction.  A conditional branch only pops its
        operands and returns the expression that is true when it is taken
        (a ``GOTO`` lowers to nothing): where control goes is the
        region's business."""
        name = ins.op
        if name == op.LDC:
            if not isinstance(ins.a, _CONSTABLE):
                raise CodegenError(f"unconstable LDC operand {ins.a!r}")
            self.push(TreeNode(_CONST_FOR.get(ins.b, "ICONST"), value=ins.a))
        elif name == op.ACONST_NULL:
            self.push(TreeNode("NULL", value=None))
        elif name in op.LOADS:
            if self.ilocals is not None:
                self.push(TreeNode("TEMP", value=self.ilocals[ins.a]))
            elif ins.a in self.slots:
                self.push(TreeNode("TEMP", value=self.slots[ins.a]))
            else:
                self.push(TreeNode("LOCAL", value=ins.a))
        elif name in op.STORES:
            if self.ilocals is not None:
                # callee locals are write-once temps (SSA-style), so trees
                # already referencing the old temp stay valid
                val = self.pop()
                t = self.temp()
                self.emit(f"{t} = {lower_py(val)}")
                self.ilocals[ins.a] = t
                return None
            val = self.pop()
            # aliasing: any deferred tree reading this slot must evaluate
            # against the *old* value, so materialize it first
            for i, nd in enumerate(self.vstack):
                if nd.op != "TEMP" and ins.a in _local_slots(nd, set()):
                    self.vstack[i] = self._materialized(nd)
            t = self.slots[ins.a] = self._materialized(val).value
            self.emit(f"L[{ins.a}] = {t}")
        elif name == op.DUP:
            self.need(1)
            nd = self._materialized(self.vstack[-1])
            self.vstack[-1] = nd
            self.vstack.append(TreeNode("TEMP", value=nd.value))
        elif name == op.POP:
            self.pop()
        elif name == op.SWAP:
            self.need(2)
            self.vstack[-1], self.vstack[-2] = self.vstack[-2], self.vstack[-1]
        elif name in _TREE_BIN:
            b = self.pop()
            a = self.pop()
            self.push(TreeNode(_TREE_BIN[name], kids=[a, b]))
        elif name in _TREE_NEG:
            self.push(TreeNode(_TREE_NEG[name], kids=[self.pop()]))
        elif name in op.CONVERSIONS:
            self.push(TreeNode(name, kids=[self.pop()]))
        elif name in _TREE_DIV:
            root, zero = _TREE_DIV[name]
            b = self.pop()
            a = self.pop()
            if _const(b) in (_MISS, 0):  # not provably non-zero: guard
                a = self._materialized(a)
                b = self._materialized(b)
                self.guard(f"{b.value} == {zero}", [a.value, b.value])
            self.push(TreeNode(root, kids=[a, b]))
        elif name == op.GETSTATIC:
            self.needs_statics = True
            t = self.temp()
            self.emit(f"{t} = S.get(({ins.a!r}, {ins.b!r}))")
            self.vstack.append(TreeNode("TEMP", value=t))
        elif name == op.PUTSTATIC:
            self.needs_statics = True
            val = self.pop()
            self.emit(f"S[({ins.a!r}, {ins.b!r})] = {lower_py(val)}")
        elif name == op.GETFIELD:
            r = self.pop_temp()
            o = self._heap_object(r, "HeapObject", [r])
            v = self.fields.get((o, ins.b))
            if v is None:
                written = self.written
                v = self.fields[(o, ins.b)] = self._fact(
                    (o, ins.b), o in self.invariant and written is not None
                    and ins.b not in written)
                self.emit(f"{v} = {o}.fields.get({ins.b!r}, _MISS)")
                self.guard(f"{v} is _MISS", [r])
                self._end_fact(v)
            self.vstack.append(TreeNode("TEMP", value=v))
        elif name == op.PUTFIELD:
            val = self.pop()
            r = self.pop_temp()
            v = self._materialized(val).value
            o = self._heap_object(r, "HeapObject", [r, v])
            if (o, ins.b) not in self.fields:  # a hit proves the field exists
                self.guard(f"{ins.b!r} not in {o}.fields", [r, v])
            # any two references may alias: forget the field on all of them
            self.fields = {key: t for key, t in self.fields.items()
                           if key[1] != ins.b}
            self.fields[(o, ins.b)] = v
            self.emit(f"{o}.fields[{ins.b!r}] = {v}")
        elif name == op.ARRAYLENGTH:
            r = self.pop_temp()
            d = self._heap_object(r, "HeapArray", [r])
            t = self.temp()
            self.emit(f"{t} = len({d})")
            self.vstack.append(TreeNode("TEMP", value=t))
        elif name == op.XALOAD:
            xi = self.pop_temp()
            r = self.pop_temp()
            d = self._element(r, xi, [r, xi])
            t = self.temp()
            self.emit(f"{t} = {d}[{xi}]")
            self.vstack.append(TreeNode("TEMP", value=t))
        elif name == op.XASTORE:
            val = self.pop()
            xi = self.pop_temp()
            r = self.pop_temp()
            v = self._materialized(val).value
            d = self._element(r, xi, [r, xi, v])
            self.emit(f"{d}[{xi}] = {v}")
        elif name == op.NEW:
            # the one allocation path: oid order, statistics and hook are
            # the heap's; the class's field template is the loader's
            self.needs_alloc = True
            t = self.temp()
            self.emit(f"{t} = N({ins.a!r}, TM[{ins.a!r}])")
            self.vstack.append(TreeNode("TEMP", value=t))
        elif name == op.GOTO:
            pass
        elif name in op.BRANCHES:
            return self.branch_cond(ins)
        else:
            raise CodegenError(f"untraceable opcode {name}")
        return None

    def branch_cond(self, ins) -> str:
        """Pop the operands of conditional branch ``ins``; returns the
        expression that is true when the branch is taken."""
        if ins.op not in op.CMP_BRANCHES:  # IFTRUE / IFFALSE
            c = lower_py(self.pop())
            return f"({c})" if ins.op == op.IFTRUE else f"not ({c})"
        b = self.pop()
        a = self.pop()
        if ins.op == op.IF_ACMP:
            cond = f"_aeq({lower_py(a)}, {lower_py(b)})"
            return cond if ins.a == "EQ" else f"not {cond}"
        sym = _CMP_SYM.get(ins.a)
        if sym is None:
            raise CodegenError(f"uncompilable condition {ins.a!r}")
        return f"({lower_py(a)}) {sym} ({lower_py(b)})"


# --------------------------------------------------------------------------
# regions: everything traceable reachable from a hot run, one closure
# --------------------------------------------------------------------------

#: bound on region size (instructions, inlined callees included) — keeps
#: exec-compile time flat; what does not fit is left as a region exit (a
#: run longer than this is cut at it)
_MAX_REGION = 1024

#: bound on an inlined callee: instructions compiled over all its paths
_INLINE_MAX = 40

#: bound on blocks compiled inside one another in one dispatch arm (it
#: bounds the compiler's recursion and the closure's indentation); a block
#: deeper than this becomes an arm of its own
_MAX_NEST = 48

#: frames on the machine past which a region makes no direct call (each one
#: nests a Python call): the engine loop takes it, as it takes a cold one
_MAX_DEPTH = 200


def _inline_target(program, ins):
    """The pure leaf method a region may inline at this call site, or
    ``None``.  Eligible: ``INVOKEVIRTUAL``/``INVOKESTATIC`` resolving to a
    bytecode method (no natives) whose body reads only and branches forward
    only (its stack discipline is the verifier's) — so a failed guard
    anywhere inside can deopt to the call instruction itself and
    re-execute through the reference path with nothing to undo.  Its
    paths are compiled one after another, so their total length (an
    instruction after a join counts once per path through it) is what
    :data:`_INLINE_MAX` bounds."""
    o = ins.op
    if program is None or (o != op.INVOKEVIRTUAL and o != op.INVOKESTATIC):
        return None
    if ins.a == DEPENDENT_OBJECT:
        return None
    method = program.lookup_method(ins.a, ins.b)
    if method is None or method.is_ctor:
        return None
    nargs = ins.c or 0
    if nargs != method.nargs or method.is_static != (o == op.INVOKESTATIC):
        return None
    flat = verified(method, program.table)
    if len(flat) > _INLINE_MAX:
        return None
    body = flat.instrs
    depths = flat.depths
    # instructions compiled over all paths, last instruction first
    paths = [0] * len(body)
    for i in range(len(body) - 1, -1, -1):
        if depths[i] < 0:
            continue  # unreachable
        b = body[i]
        if b.op not in op.RETURNS and (
                not _traceable(b) or b.op in _EFFECTS
                or b.op == op.LDC and not isinstance(b.a, _CONSTABLE)):
            return None
        paths[i] = 1
        for j in successors(b, i):
            if j <= i:
                return None
            paths[i] += paths[j]
    return method if paths[0] <= _INLINE_MAX else None


def _direct_target(program, ins):
    """``(method, entry run, return pcs)`` of a call a region makes itself
    (see :func:`_direct_call`), or ``None``.  Eligible: an invoke of a
    bytecode method, not ``DependentObject.*`` and not a pure leaf (those
    inline), whose plan begins with a run and whose returns all cost the
    same and push what the engine's return would."""
    if program is None or ins.op not in op.INVOKES or ins.a == DEPENDENT_OBJECT:
        return None
    method = program.lookup_method(ins.a, ins.b)
    if method is None or method.nargs != (ins.c or 0) \
            or method.is_static != (ins.op == op.INVOKESTATIC) \
            or _inline_target(program, ins) is not None:
        return None
    flat = method.flat()
    entry = (flat.fused or build_fused(flat))[0]
    rets = [i for i, b in enumerate(flat.instrs) if b.op in op.RETURNS]
    if entry.__class__ is not Run \
            or len({flat.instrs[i].cost for i in rets}) != 1 \
            or flat.returns_value and any(flat.instrs[i].op == op.RETURN
                                          for i in rets):
        return None
    return method, entry, frozenset(rets)


def _native_target(program, ins) -> bool:
    """Whether a region calls ``ins`` in place (see :func:`_native_call`):
    an ``INVOKEVIRTUAL`` / ``INVOKESTATIC`` that resolves, under
    ``program``, to a native of :data:`~repro.vm.natives.IN_REGION`."""
    return program is not None \
        and (ins.op == op.INVOKEVIRTUAL or ins.op == op.INVOKESTATIC) \
        and (ins.a, ins.b) in IN_REGION \
        and program.lookup_method(ins.a, ins.b) is None


def _find_region(flat, start: int, program=None):
    """The segments of the region a hot run at ``start`` compiles as:
    ``{a: (e, successors)}`` for every stretch ``instrs[a:e]`` reachable
    from ``start`` that begins a basic block (or is the run itself) and
    extends over traceable instructions — and a block-ending call to a
    pure leaf method (see :func:`_inline_target`), inlined, to a method it
    calls directly (see :func:`_direct_target`) or to a native it calls in
    place (see :func:`_native_target`) — up to the end
    of its block or the first instruction that is not.  ``successors``
    are where control goes after ``e``: empty when ``instrs[e]`` ends the
    stretch inside its block (a clean region exit), else the branch
    target and / or the next block.  Successors that are not segments —
    untraceable, or past :data:`_MAX_REGION` — are clean exits too.  The
    run itself is always a segment: when it alone is past the bound it is
    cut there (before a call it would have inlined, if that is earlier)."""
    instrs = flat.instrs
    starts = flat.block_starts
    ends = dict(flat.basic_blocks())
    i = bisect_right(starts, start)
    ends[start] = starts[i] if i < len(starts) else len(instrs)
    segs: Dict[int, tuple] = {}
    total = 0
    work = [start]
    while work:
        a = work.pop()
        if a in segs or a not in ends:
            continue
        b = ends[a]
        t = a
        while t < b and _traceable(instrs[t]):
            t += 1
        e = t
        size = e - a
        if e == b - 1:
            callee = _inline_target(program, instrs[e])
            if callee is not None:
                e = b
                size += 1 + len(callee.flat().instrs)
            elif _direct_target(program, instrs[e]) is not None \
                    or _native_target(program, instrs[e]):
                e = b
                size += 1
        if total + size > _MAX_REGION and a == start:
            e = min(t, a + _MAX_REGION)  # a clean exit inside the block
            size = e - a
        elif e == a or total + size > _MAX_REGION:
            continue
        total += size
        succ = successors(instrs[e - 1], e - 1) if e == b else ()
        segs[a] = (e, succ)
        work.extend(succ)
    return segs


def _inline_call(tc: _TraceCompiler, inv, pc: int, n: int, c: int,
                 program) -> Tuple[int, int]:
    """Compile the call ``inv`` at ``pc`` inline: guard the receiver's
    runtime class (virtual calls), then compile the callee's body in place
    with its locals mapped to write-once temps, each of its paths in its
    own ``if`` arm.  Any failed guard inside the callee deopts to the call
    instruction itself with the receiver/arguments restored — the callee
    is pure, so the plain ``INVOKE`` handler re-executes it with reference
    semantics.  ``(n, c)`` are the steps / cycles pending before the call;
    returns those pending after it."""
    callee = _inline_target(program, inv)
    cflat = callee.flat()
    cf = cflat.instrs
    nargs = inv.c or 0
    virtual = inv.op == op.INVOKEVIRTUAL

    # materialize receiver + args to temps (top of stack: ... rcv a1 .. an)
    tc.need(nargs + (1 if virtual else 0))
    argts = [tc.pop_temp() for _ in range(nargs)][::-1]
    rcv = tc.pop_temp() if virtual else None
    tc.flush()  # caller residue below the operands goes to the real stack
    tc.at = (pc, n, c)
    tc.inline_pushback = ([rcv] if virtual else []) + argts

    ilocals = ["None"] * cflat.nlocals
    idx = 0
    if virtual:
        # monomorphic inline cache: exact-class check makes the compile-time
        # resolution from the static class valid at runtime (a subclass —
        # overriding or not — deopts to the dynamic lookup)
        o = tc._heap_object(rcv, "HeapObject", [])
        tc.guard(f"{o}.class_name != {inv.a!r}", [])
        ilocals[0] = rcv
        idx = 1
    for t in argts:
        ilocals[idx] = t
        idx += 1
    tc.ilocals = ilocals
    straight = not any(i.op in op.BRANCHES for i in cf)
    caller = tc.snapshot()  # the receiver guard dominates what follows
    rv = None if straight or callee.ret_type is VOID else tc.temp()

    def path(i: int, pn: int, pc_: int) -> Tuple[int, int]:
        """Compile the callee from ``cf[i]`` with ``(pn, pc_)`` pending;
        returns what is still pending after its return."""
        while True:
            ins = cf[i]
            pn += 1
            pc_ += ins.cost
            if ins.op in op.RETURNS:
                if ins.op != op.RETURN:
                    val = tc.pop()
                    if rv is None:
                        tc.vstack = [val]
                    else:
                        tc.emit(f"{rv} = {lower_py(val)}")
                if straight:
                    return pn, pc_
                tc.emit(f"n += {pn}")
                tc.emit(f"c += {pc_}")
                return 0, 0
            cond = tc.compile_ins(ins)
            succ = successors(ins, i)
            if cond is not None:
                tc.fork(cond, lambda: path(succ[0], pn, pc_),
                        lambda: path(succ[1], pn, pc_))
                return 0, 0
            i = succ[0]

    # the call and the callee's instructions on the path taken
    n, c = path(0, n + 1, c + inv.cost)
    tc.inline_pushback = None
    if not straight:
        # every path has counted itself: back to what the call site knew
        # (on one path, the facts it established dominate what follows)
        tc.restore(caller)
        tc.vstack = [] if rv is None else [TreeNode("TEMP", value=rv)]
    tc.ilocals = None
    return n, c


def _direct_call(tc: _TraceCompiler, inv, pc: int, n: int, c: int,
                 program) -> Tuple[int, int]:
    """Compile the call ``inv`` at ``pc`` as a call of the callee's region:
    guard the receiver's exact class (virtual calls), push the callee's
    frame and call its entry run's closure.  When that returns cleanly at a
    return instruction, pop the frame, take the value and go on with the
    call's, the callee's and the return's steps and cycles counted.  Any
    other exit leaves the callee's frame on top and this one past the call
    (status 2 / 3, see :class:`Run`).  A receiver of another class, a
    callee not compiled yet and a machine :data:`_MAX_DEPTH` frames deep
    leave cleanly at the call, operands restored: the engine's
    :class:`CallSite` makes it; so does a machine running another program
    over the caller's code.  ``(n, c)`` are the steps / cycles pending
    before the call; returns those pending after it."""
    method, run, rets = _direct_target(program, inv)
    cflat = method.flat()
    nops = (inv.c or 0) + (inv.op != op.INVOKESTATIC)
    tc.need(nops)
    ops = [tc.pop_temp() for _ in range(nops)][::-1]
    # the caller's residue below the operands stays virtual: every exit
    # from here pushes it
    tc.at = (pc, n, c)
    if inv.op == op.INVOKEVIRTUAL:
        o = tc._heap_object(ops[0], "HeapObject", ops, 0)
        tc.guard(f"{o}.class_name != {inv.a!r}", ops, 0)
    tc.needs_frames = tc.needs_own = True
    fn, cf, r, rn, rc, rs = (tc.temp() for _ in range(6))
    tc.emit(f"{fn} = {tc.const(run)}.fn")
    tc.guard(f"{fn} is None or not own or len(F) >= {_MAX_DEPTH}", ops, 0)
    loc = ", ".join(ops + ["None"] * (cflat.nlocals - nops))
    tc.emit(f"{cf} = Frame({tc.const(method)}, {tc.const(cflat)}, [{loc}])")
    tc.emit(f"F.append({cf})")
    tc.emit(f"{r}, {rn}, {rc}, {rs} = {fn}(m, {cf})")
    tc.emit(f"n += {rn}")
    tc.emit(f"c += {rc}")
    tc.emit(f"if {r} not in {tc.const(rets)}:")
    if tc.vstack:
        tc.emit("    " + _push([lower_py(nd) for nd in tc.vstack]))
    tc.emit(f"    if {rs} < 2:")
    tc.emit(f"        {cf}.pc = {r}")
    tc.emit(f"    f.pc = {pc + 1}")
    tc.emit(f"    return (-1, {_plus('n', n + 1)}, {_plus('c', c + inv.cost)}, "
            f"{rs} | 2)")
    tc.emit("del F[-1]")
    if cflat.returns_value:
        t = tc.temp()
        tc.emit(f"{t} = {cf}.stack[-1]")
        tc.vstack.append(TreeNode("TEMP", value=t))
    tc.fields = {}  # the callee may have written any of them
    return n + 2, c + inv.cost + cflat.instrs[min(rets)].cost


def _native_call(tc: _TraceCompiler, inv, pc: int, n: int, c: int,
                 program) -> Tuple[int, int]:
    """Compile the call ``inv`` at ``pc`` of a native of
    :data:`~repro.vm.natives.IN_REGION` in place: guard the receiver's exact
    class (a ``HeapObject`` of the call's class, a ``str`` for
    ``String.*``), then call the native :func:`_resolve_native` found here,
    once.  A miss — or a machine running another program over the code —
    leaves cleanly at the call, operands restored, for the engine's
    :class:`CallSite`.  A raise deopts at the call the same way: the plain
    handler re-executes the native (it raises idempotently) and charges
    what the reference path does.  The native writes no field, array or
    static, so every fact survives it.  ``(n, c)`` are the steps / cycles
    pending before the call; returns those pending after it."""
    fn, push = _resolve_native(program, inv.a, inv.b)
    virtual = inv.op == op.INVOKEVIRTUAL
    nops = (inv.c or 0) + virtual
    tc.need(nops)
    ops = [tc.pop_temp() for _ in range(nops)][::-1]
    tc.at = (pc, n, c)
    tc.needs_own = True
    if not virtual:
        tc.guard("not own", ops, 0)
    elif inv.a == "String":
        tc.guard(f"not own or {ops[0]}.__class__ is not str", ops, 0)
    else:
        o = tc._heap_object(ops[0], "HeapObject", ops, 0)
        tc.guard(f"not own or {o}.class_name != {inv.a!r}", ops, 0)
    call = (f"{tc.const(fn)}(m, {ops[0] if virtual else None}, "
            f"[{', '.join(ops[virtual:])}])")
    if push:
        rv = tc.temp()
        call = f"{rv} = {call}"
    tc.emit(f"try: {call}")
    tc.emit(f"except Exception: {tc.exit(ops)}")
    if push:
        tc.vstack.append(TreeNode("TEMP", value=rv))
    return n + 1, c + inv.cost


def _compile_region(flat, segs: Dict[int, tuple], entry: int, program=None):
    """Compile the region ``segs`` (see :func:`_find_region`) entered at
    ``entry`` into one closure: a block-dispatch loop whose arms are the
    entry, the joins and the loop heads; every other segment has a single
    predecessor and is compiled inside it, behind its branch, with the
    predecessor's virtual stack and memo.  Returns ``(exit_pc, steps,
    cycles, status)`` as :class:`Run` describes."""
    instrs = flat.instrs
    tc = _TraceCompiler()
    preds = dict.fromkeys(segs, 0)
    preds[entry] = 1
    back = False
    for a, (_, succ) in segs.items():
        for t in succ:
            if t in segs:
                preds[t] += 1
                back = back or t <= a
    if back:
        # a block may run more than once per call: hoist what none changes
        body_ins = [i for a, (e, _) in segs.items() for i in instrs[a:e]]
        stored = {i.a for i in body_ins if i.op in op.STORES}
        if any(i.op in op.INVOKES and _inline_target(program, i) is None
               and not _native_target(program, i) for i in body_ins):
            tc.written = None
        else:
            tc.written = frozenset(
                i.b for i in body_ins if i.op == op.PUTFIELD)
        tc.stable = {i.a: f"h{i.a}" for i in body_ins
                     if i.op in op.LOADS and i.a not in stored}
        tc.invariant = set(tc.stable.values())
    heads = [a for a in segs if preds[a] != 1 or a == entry]
    arms: Dict[int, List[str]] = {}

    def leave(t: int, n: int, c: int, depth: int) -> None:
        """Control goes to ``t`` with ``(n, c)`` pending."""
        if t in segs and preds[t] == 1 and depth < _MAX_NEST:
            segment(t, n, c, depth + 1)
            return
        tc.flush()
        if t not in segs:
            tc.emit(f"return ({t}, {_plus('n', n)}, {_plus('c', c)}, 0)")
            return
        if t not in heads:
            heads.append(t)  # nested too deep: an arm of its own
        if n:
            tc.emit(f"n += {n}")
        if c:
            tc.emit(f"c += {c}")
        tc.emit(f"pc = {t}")

    def segment(a: int, n: int, c: int, depth: int) -> None:
        e, succ = segs[a]
        cond = None
        for pc in range(a, e):
            ins = instrs[pc]
            if ins.op in op.INVOKES:
                if _inline_target(program, ins) is not None:
                    call = _inline_call
                elif _native_target(program, ins):
                    call = _native_call
                else:
                    call = _direct_call
                n, c = call(tc, ins, pc, n, c, program)
                continue
            tc.at = (pc, n, c)
            cond = tc.compile_ins(ins)
            n += 1
            c += ins.cost
        if not succ:
            leave(e, n, c, depth)
        elif cond is None:
            leave(succ[0], n, c, depth)
        else:
            tc.fork(cond, lambda: leave(succ[0], n, c, depth),
                    lambda: leave(succ[1], n, c, depth))

    for a in heads:  # grows while it is walked (see ``leave``)
        tc.begin_block()
        segment(a, 0, 0, 0)
        arms[a] = tc.lines
        tc.lines = []
    body = ["s = f.stack", "L = f.locals"]
    if tc.needs_heap:
        body.append("H = m.heap._store")
    if tc.needs_statics:
        body.append("S = m.statics")
    if tc.needs_alloc:
        body += ["N = m.heap.new_object", "TM = m.program.templates"]
    if tc.needs_frames:
        body.append("F = m.frames")
    if tc.needs_own:
        # callees and natives were resolved for this program; a plan is
        # shared by every program over the method, and another one's calls
        # are the engine's
        body.append(f"own = m.program.bprogram is {tc.const(program.bprogram)}")
    body += [f"{t} = L[{slot}]" for slot, t in tc.stable.items()]
    body += [f"{t} = _MISS" for t in tc.once.values()]
    body += ["n = 0", "c = 0", f"pc = {entry}", "while 1:"]
    order = sorted(arms)
    for i, a in enumerate(order):
        pad = "    "
        if len(order) > 1:
            # every pc assigned is an arm's: the last needs no test
            body.append("    " + ("else:" if i == len(order) - 1
                                  else f"{'if' if i == 0 else 'elif'} pc == {a}:"))
            pad = "        "
        body += [pad + ln for ln in arms[a]]
    return _assemble("_region", body, f"region@{entry}", tc.consts)


def promote(run: Run, flat, program=None) -> bool:
    """Compile a hot run as the region reachable from it, or — when
    lowering any of that fails — as the run's own segment alone, its
    successors exits.  A run whose own segment fails too stays cold for
    good (``promoted`` flips either way, so the attempt happens once)."""
    run.promoted = True
    segs = _find_region(flat, run.start, program)
    for part in (segs, {run.start: segs[run.start]}):
        try:
            run.fn = _compile_region(flat, part, run.start, program)
        except CodegenError:
            continue
        return True
    return False


# --------------------------------------------------------------------------
# the engine loop
# --------------------------------------------------------------------------

def run_block_compiled(machine, stop_depth: int = 1):
    """Compiled-tier twin of :meth:`Machine.run_block`: same contract
    (returns ``(kind, gen, push, cost)``; parks ``pending_block_cost`` on
    error), but a hot run executes as one region-compiled closure,
    deoptimizing to the plain threaded handlers — which a cold run takes
    throughout — at guards, syscalls and faults, and calls / returns
    between bytecode frames and calls of natives that a :class:`CallSite`
    covers never leave the loop."""
    m = machine
    frames = m.frames
    prog = m.program
    H = m.heap._store
    acc = m.inject_overcharge  # 0 unless a self-test injects a fault
    nsteps = 0
    # engine-tier accounting, flushed to the machine at every exit
    cs = cc = dn = pn = 0
    while True:  # one pass per frame switch
        frame = frames[-1]
        flat = frame.flat
        plan = flat.fused
        if plan is None:
            plan = build_fused(flat)
        while True:
            pc = frame.pc
            try:
                entry = plan[pc]
            except IndexError:
                m.steps += nsteps
                m.pending_block_cost = acc
                _flush_stats(m, cs, cc, dn, pn)
                raise VMError(
                    f"{frame.method.qualified}: fell off end of code"
                ) from None
            ec = entry.__class__
            if ec is Run:
                entry.count += 1
                if not entry.promoted and entry.count >= entry.threshold:
                    if promote(entry, flat, prog):
                        pn += 1
                fn = entry.fn
                if fn is not None:
                    # the region reports exact step / cycle totals and
                    # where it left: a clean exit, or a failed guard whose
                    # instruction the plain handler re-executes with exact
                    # reference semantics
                    exit_pc, rn, rc, de = fn(m, frame)
                    nsteps += rn
                    acc += rc
                    cs += rn
                    cc += rc
                    if de == 0:
                        frame.pc = exit_pc
                        continue
                    if de > 1:
                        # a direct call left a callee's frame on top
                        frame = frames[-1]
                        flat = frame.flat
                        plan = flat.fused
                        if de == 2:
                            continue
                        exit_pc = frame.pc
                    dn += 1
                    pc = exit_pc
                # cold, or after a deopt: this instruction alone, through
                # the list ``dispatch.threaded`` built for ``build_fused``
                handler, ins = flat.threaded[pc]
            elif ec is tuple:
                handler, ins = entry
            else:
                ins = entry.ins
                handler = entry.handler
                kind = entry.kind
                if kind >= _FIXED:
                    s = frame.stack
                    i = len(s) - entry.nops
                    cls = None
                    if kind == _VIRTUAL:
                        # only a local object has a class to cache on: null,
                        # remote, string, list, array and boxed receivers
                        # keep the generic handler's errors and syscalls
                        o = s[i]
                        o = H.get(o.oid) if o.__class__ is Ref else None
                        cls = o.class_name if o.__class__ is HeapObject \
                            else _MISS
                    if cls is not _MISS:
                        hit = entry.cache
                        if hit[0] is not prog or hit[1] != cls:
                            hit = entry.bind(prog, cls)
                        callee = hit[3]
                        if callee is not None:
                            frame.pc = pc + 1
                            nsteps += 1
                            acc += ins.cost
                            loc = s[i:]
                            del s[i:]
                            loc += hit[4]
                            frames.append(Frame(hit[2], callee, loc))
                            break
                        if hit[5] is not None:
                            # a native may read the cycle counter (Sys.time)
                            handler = hit[5]
                            m.inflight_cycles = acc
                elif frame.on_return is None and len(frames) > stop_depth:
                    # a service-initiated frame and the return that ends
                    # this block leave through the generic handler
                    nsteps += 1
                    acc += ins.cost
                    del frames[-1]
                    if kind == _XRETURN:
                        value = frame.stack.pop()
                        if flat.returns_value:
                            frames[-1].stack.append(value)
                    elif flat.returns_value:
                        frames[-1].stack.append(None)
                    break
            frame.pc = pc + 1
            nsteps += 1
            acc += ins.cost
            try:
                if handler is INVOKE_HANDLER:
                    # a native reached through this call (Sys.time) may read
                    # the cycle counter: publish the completed prefix so it
                    # sees the per-step path's exact value
                    m.inflight_cycles = acc - ins.cost
                    r = handler(m, frame, ins)
                    m.inflight_cycles = 0
                else:
                    r = handler(m, frame, ins)
            except BaseException:
                # the failing instruction's own cost is never charged — the
                # per-step path raises out of step() before returning it
                m.inflight_cycles = 0
                m.steps += nsteps
                m.pending_block_cost = acc - ins.cost
                _flush_stats(m, cs, cc, dn, pn)
                raise
            if r is None:
                continue
            if r is FRAME_SWITCH:
                if len(frames) >= stop_depth:
                    break
                r = (None, None, None)
            m.steps += nsteps
            _flush_stats(m, cs, cc, dn, pn)
            return (r[0], r[1], r[2], acc)


def _flush_stats(m, cs, cc, dn, pn) -> None:
    m.jit_compiled_steps += cs
    m.jit_compiled_cycles += cc
    m.jit_deopts += dn
    m.jit_promotions += pn
