"""The compiled execution tier: trace-compiled hot runs over the threaded
handlers.

This is the third engine behind :meth:`Machine.drive` (the other two are
the per-step reference path and the threaded-code ``run_block`` fast
path).  It works at the granularity of **runs**: maximal stretches of
traceable, syscall-free instructions inside one basic block of a method's
:class:`~repro.bytecode.model.FlatCode`.

A run is born cold: it executes one instruction at a time through the
plain threaded handlers (:func:`repro.vm.dispatch.threaded`) and counts
its executions.  Past the hotness threshold (``REPRO_VM_JIT_THRESHOLD``)
it is **trace-compiled**: lowered through the :mod:`repro.codegen.tree` /
:mod:`repro.codegen.burs` machinery (the paper's JBurg stage) against the
Python expression target (:mod:`repro.codegen.pytarget`) into a closure
that collapses whole expression chains — constants folded, operand stack
virtualized away, whatever a block (or a region call) has already resolved
or checked memoized instead of re-derived — operating directly on frame
locals.  A run that heads a syscall-free loop is compiled together with
the rest of the loop, as one region.

Between runs, a call or return of a bytecode frame is a :class:`CallSite`
the engine loop serves from a monomorphic inline cache without leaving
the loop; natives, remote receivers and service frames take the handlers.

The **deopt contract**: every faultable operation (division, heap access,
array indexing, field lookup) is *guarded* — it checks its operands by
peeking before mutating anything, and on guard failure the compiled
function returns the index of the offending instruction with the stack
and locals exactly as if all earlier instructions had run and the
offender had not.  The engine then charges the completed prefix and
re-executes that one instruction through its plain threaded-code handler
— the path a cold run takes for every instruction — which raises the
precise ``VMError`` (or performs the remote-object syscall) the reference
path would.  Cycle accounting stays integer-exact: ``run.cost`` /
``run.prefix`` are sums of ``Instr.cost``, so cycles, steps, NodeStats
and fault text are bit-identical across all three tiers.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

from repro.errors import CodegenError, ConfigError, VMError
from repro.bytecode import opcodes as op
from repro.codegen.pytarget import fold_const, lower_py
from repro.codegen.tree import TreeNode
from repro.lang.symbols import DEPENDENT_OBJECT
from repro.lang.types import VOID
from repro.vm.dispatch import FRAME_SWITCH, INVOKE_HANDLER, threaded
from repro.vm.frame import Frame
from repro.vm.heap import HeapArray, HeapObject
from repro.vm.values import Ref, f2i, f2l, frem, i32, i64, idiv, irem, iushr

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
    plain threaded handlers, one instruction per engine pass).  Once traced,
    ``fn(machine, frame)`` executes the whole run (the engine has already
    set ``frame.pc = end``; a taken terminal branch overwrites it) and
    returns ``None`` on completion or the relative index of the instruction
    whose guard failed (deopt).  ``prefix[k]`` is the cycle cost of the
    first ``k`` instructions, for exact deopt charging.
    """

    __slots__ = (
        "start", "end", "instrs", "n", "cost", "prefix",
        "fn", "count", "threshold", "promoted", "region",
    )

    def __init__(self, start: int, end: int, instrs: Tuple,
                 threshold: int) -> None:
        self.start = start
        self.end = end
        self.instrs = instrs
        self.n = end - start
        self.prefix = (0, *accumulate(i.cost for i in instrs))
        self.cost = self.prefix[-1]
        self.fn = None
        self.count = 0
        self.threshold = threshold
        #: tracing was attempted (once, whether or not it succeeded)
        self.promoted = False
        #: ``fn`` is a loop-region closure: it returns
        #: ``(exit_pc, steps, cycles, deopt)`` instead of the run protocol
        self.region = False


#: :attr:`CallSite.kind`; every kind ``>= _FIXED`` is a call
_RETURN, _XRETURN, _FIXED, _VIRTUAL = range(4)


class CallSite:
    """Plan entry of one call or return, so the engine loop can push and pop
    bytecode frames itself.  A call carries a monomorphic inline cache,
    ``(prog, cls, method, flat, pad)``: the callee ``method`` and its
    ``flat`` (``None``: not a plain bytecode call) it resolved for ``prog``
    and runtime receiver class ``cls`` (``None`` at a statically bound site).
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
        self.cache = (None, None, None, None, None)

    def bind(self, prog, cls) -> tuple:
        """Resolve the site for ``prog`` and receiver class ``cls``."""
        ins = self.ins
        method = prog.lookup_method(ins.a if cls is None else cls, ins.b)
        flat = pad = None  # native, or not a call we model
        if method is not None and method.nargs == (ins.c or 0) \
                and method.is_static == (ins.op == op.INVOKESTATIC):
            flat = method.flat()
            #: the callee's locals past receiver + arguments
            pad = [None] * (flat.nlocals - self.nops)
        hit = self.cache = (prog, cls, method, flat, pad)
        return hit


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
        op.ARRAYLENGTH, op.XALOAD, op.XASTORE,
    })
)
#: the subset a pure leaf callee may contain: no mutator but a store to
#: its own locals, no branch
_PURE = _TRACEABLE - op.BRANCHES - {op.PUTSTATIC, op.PUTFIELD, op.XASTORE}


def _traceable(ins) -> bool:
    # an unresolved condition must keep raising through the plain handler
    return ins.op in _TRACEABLE or (
        ins.op in op.CMP_BRANCHES and ins.cfn is not None)


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
                plan[start] = Run(start, j, tuple(instrs[start:j]), threshold)
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
# trace compiler: run -> exec-compiled closure via tree/BURS lowering
# --------------------------------------------------------------------------

_EXEC_GLOBALS = {
    "i32": i32, "i64": i64, "idiv": idiv, "irem": irem, "iushr": iushr,
    "f2i": f2i, "f2l": f2l, "frem": frem,
    "Ref": Ref, "HeapObject": HeapObject, "HeapArray": HeapArray,
    "_MISS": _MISS, "_aeq": op.ACMP_FUNCS["EQ"],
    "len": len, "int": int, "float": float,
}


def _assemble(fname: str, body: List[str], tag: str):
    src = f"def {fname}(m, f):\n" + "\n".join("    " + ln for ln in body)
    g = dict(_EXEC_GLOBALS)
    exec(compile(src, f"<repro-jit:{tag}>", "exec"), g)
    fn = g[fname]
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


def _target(ins) -> int:
    """Target of a flattened branch."""
    return ins.b if ins.op in op.CMP_BRANCHES else ins.a


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


class _TraceCompiler:
    """Symbolic re-execution of one run: the operand stack is virtualized
    into a stack of operator trees (``vstack``); pure computation defers as
    trees (lowered through BURS on demand), effectful or guarded operations
    materialize in program order.  At any deopt point the real operand
    stack is reconstructed exactly — remaining virtual entries first, then
    the peeked operands of the failing instruction.

    Within one block execution nothing can allocate, free, or replace an
    entry's ``.data`` / ``.fields`` (NEW, NEWARRAY and real calls are not
    traceable, an inlined callee only reads), and every temp is written once.
    So what the block has established is memoized and neither re-derived
    nor re-guarded: a dropped guard is one an identical earlier guard of
    the same block execution already passed.

    A region extends this across its blocks for what one call of it cannot
    change: a slot no block stores to (``stable``, loaded once on entry),
    and, lazily on first use, the entry behind such a value and its fields
    that no block writes (``written``) — each a region variable that
    starts as ``_MISS`` (``once``), so the guard that establishes it still
    deopts at the instruction that needed it first."""

    def __init__(self, run: Optional[Run] = None) -> None:
        self.run = run
        self.lines: List[str] = []
        self.indent = ""
        self.ntemp = 0
        self.stable: Dict[int, str] = {}
        self.written: frozenset = frozenset()
        self.once: Dict[tuple, str] = {}
        #: temps holding one value for the whole region call: the stable
        #: slots' and the hoisted ones
        self.invariant: set = set()
        self.begin_block()
        self.needs_heap = False
        self.needs_statics = False
        #: lines emitted (indented under the failing guard) to leave the
        #: compiled code at relative instruction index ``k``; the run form
        #: returns the deopt index, the region form a full exit tuple
        self.deopt_tail = lambda k: [f"return {k}"]
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

    def temp(self) -> str:
        self.ntemp += 1
        return f"t{self.ntemp}"

    def emit(self, line: str) -> None:
        self.lines.append(self.indent + line)

    def _fact(self, key: tuple, hoist: bool) -> str:
        """The temp for memo entry ``key``.  A hoisted one is established
        once per region call: until ``indent`` is reset, what is emitted
        runs only while its region variable is still ``_MISS``."""
        if not hoist:
            return self.temp()
        t = self.once.get(key)
        if t is None:
            t = self.once[key] = self.temp()
            self.invariant.add(t)
        self.emit(f"if {t} is _MISS:")
        self.indent = "    "
        return t

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

    def guard(self, cond: str, k: int, operands: List[str]) -> None:
        """Emit ``if cond: <rebuild stack>; <deopt>``.  In inlined-callee
        mode the callee's virtual stack is dropped (the callee is pure)
        and the call's own operands are restored instead."""
        self.emit(f"if {cond}:")
        if self.inline_pushback is not None:
            for ln in self.inline_pushback:
                self.emit("    " + ln)
        else:
            for nd in self.vstack:
                self.emit(f"    s.append({lower_py(nd)})")
            for t in operands:
                self.emit(f"    s.append({t})")
        for ln in self.deopt_tail(k):
            self.emit("    " + ln)

    def flush(self) -> None:
        for nd in self.vstack:
            self.emit(f"s.append({lower_py(nd)})")
        self.vstack.clear()

    def _heap_object(self, k: int, r: str, cls: str,
                     operands: List[str]) -> str:
        o = self.entries.get((r, cls))
        if o is None:
            self.needs_heap = True
            o = self.entries[(r, cls)] = self._fact(
                (r, cls), r in self.invariant)
            self.emit(f"{o} = H.get({r}.oid) if {r}.__class__ is Ref else None")
            self.guard(f"{o}.__class__ is not {cls}", k, operands)
            if cls == "HeapArray":
                self.emit(f"{o} = {o}.data")
            self.indent = ""
        return o

    def _element(self, k: int, r: str, xi: str, operands: List[str]) -> str:
        """The data list of array ``r``, index ``xi`` checked against it."""
        d = self._heap_object(k, r, "HeapArray", operands)
        if (d, xi) not in self.inbounds:
            self.inbounds.add((d, xi))
            self.guard(f"not 0 <= {xi} < len({d})", k, operands)
        return d

    # ------------------------------------------------------ per instruction
    def compile_ins(self, ins, k: int) -> None:
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
                return
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
                self.guard(f"{b.value} == {zero}", k, [a.value, b.value])
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
            o = self._heap_object(k, r, "HeapObject", [r])
            v = self.fields.get((o, ins.b))
            if v is None:
                v = self.fields[(o, ins.b)] = self._fact(
                    (o, ins.b), o in self.invariant and ins.b not in self.written)
                self.emit(f"{v} = {o}.fields.get({ins.b!r}, _MISS)")
                self.guard(f"{v} is _MISS", k, [r])
                self.indent = ""
            self.vstack.append(TreeNode("TEMP", value=v))
        elif name == op.PUTFIELD:
            val = self.pop()
            r = self.pop_temp()
            v = self._materialized(val).value
            o = self._heap_object(k, r, "HeapObject", [r, v])
            if (o, ins.b) not in self.fields:  # a hit proves the field exists
                self.guard(f"{ins.b!r} not in {o}.fields", k, [r, v])
            # any two references may alias: forget the field on all of them
            self.fields = {key: t for key, t in self.fields.items()
                           if key[1] != ins.b}
            self.fields[(o, ins.b)] = v
            self.emit(f"{o}.fields[{ins.b!r}] = {v}")
        elif name == op.ARRAYLENGTH:
            r = self.pop_temp()
            d = self._heap_object(k, r, "HeapArray", [r])
            t = self.temp()
            self.emit(f"{t} = len({d})")
            self.vstack.append(TreeNode("TEMP", value=t))
        elif name == op.XALOAD:
            xi = self.pop_temp()
            r = self.pop_temp()
            d = self._element(k, r, xi, [r, xi])
            t = self.temp()
            self.emit(f"{t} = {d}[{xi}]")
            self.vstack.append(TreeNode("TEMP", value=t))
        elif name == op.XASTORE:
            val = self.pop()
            xi = self.pop_temp()
            r = self.pop_temp()
            v = self._materialized(val).value
            d = self._element(k, r, xi, [r, xi, v])
            self.emit(f"{d}[{xi}] = {v}")
        elif name == op.GOTO:
            self.flush()
            self.emit(f"f.pc = {ins.a}")
        elif name in op.BRANCHES:
            cond = self.branch_cond(ins)
            self.flush()
            self.emit(f"if {cond}:")
            self.emit(f"    f.pc = {_target(ins)}")
        else:
            raise CodegenError(f"untraceable opcode {name}")

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

    # --------------------------------------------------------------- driver
    def compile(self):
        for k, ins in enumerate(self.run.instrs):
            self.compile_ins(ins, k)
        self.flush()
        body = ["s = f.stack", "L = f.locals"]
        if self.needs_heap:
            body.append("H = m.heap._store")
        if self.needs_statics:
            body.append("S = m.statics")
        body.extend(self.lines)
        first = self.run.instrs[0]
        return _assemble("_trace", body, f"trace@{self.run.start}:{first.op}")


# --------------------------------------------------------------------------
# loop regions: whole syscall-free loops compiled into one closure
# --------------------------------------------------------------------------

#: bound on loop-region size (instructions) — keeps exec-compile time flat
_MAX_REGION = 1024

#: bound on inlined-callee size (instructions)
_INLINE_MAX = 40


def _inline_target(program, ins):
    """The pure leaf method a region may inline at this call site, or
    ``None``.  Eligible: ``INVOKEVIRTUAL``/``INVOKESTATIC`` resolving to a
    bytecode method (no natives) whose body is straight-line, side-effect
    free (reads only), single-exit, and provably stack-disciplined — so a
    failed guard anywhere inside can deopt to the call instruction itself
    and re-execute through the reference path with nothing to undo."""
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
    body = method.flat().instrs
    if not 1 <= len(body) <= _INLINE_MAX:
        return None
    last = body[-1]
    if last.op not in op.RETURNS:
        return None
    void = last.op == op.RETURN
    if void != (method.ret_type is VOID):
        return None
    depth = 0
    for b in body[:-1]:
        if b.op not in _PURE:
            return None
        if b.op == op.LDC and not isinstance(b.a, _CONSTABLE):
            return None
        pops, pushes = op.STACK_EFFECT[b.op]
        if depth < pops:
            return None
        depth += pushes - pops
    if depth != (0 if void else 1):
        return None
    return method


def _find_region(flat, start: int, program=None):
    """Connected component of fully-traceable basic blocks reachable from
    ``start``, provided some branch inside it loops back (target at or
    before its own block — i.e. the component contains a syscall-free
    loop).  Edges to other blocks become clean region exits, so a
    loop whose body calls a method still compiles everything around the
    call; a block ending in a call to a pure leaf method (see
    :func:`_inline_target`) is itself included, the callee inlined behind
    a receiver-class guard.  Returns the sorted list of ``(a, b)`` block
    ranges, or ``None`` when the shape does not apply."""
    instrs = flat.instrs
    bmap = dict(flat.basic_blocks())
    if start not in bmap:
        return None  # run starts mid-block (after a NEW / NEWARRAY / ...)
    blocks: Dict[int, int] = {}
    total = 0
    work = [start]
    while work:
        a = work.pop()
        if a in blocks or a not in bmap:
            continue
        b = bmap[a]
        last = instrs[b - 1]
        o = last.op
        if o in op.INVOKES:
            callee = _inline_target(program, last)
            if callee is None:
                continue  # exits here fall back to the engine loop
            if not all(_traceable(i) for i in instrs[a:b - 1]):
                continue
            total += (b - a) + len(callee.flat().instrs)
        else:
            if not all(_traceable(i) for i in instrs[a:b]):
                continue
            total += b - a
        if total > _MAX_REGION:
            return None
        blocks[a] = b
        if o in op.INVOKES:
            work.append(b)
        elif o == op.GOTO:
            work.append(last.a)
        elif o in op.BRANCHES:
            work.append(_target(last))
            work.append(b)
        else:
            work.append(b)
    for a, b in blocks.items():
        last = instrs[b - 1]
        if last.op in op.BRANCHES and _target(last) in blocks \
                and _target(last) <= a:
            return [(a, blocks[a]) for a in sorted(blocks)]
    return None


def _inline_call(tc: "_TraceCompiler", inv, a: int, b: int,
                 prefix: List[int], program) -> None:
    """Epilogue of a region block ending in an inlinable call: guard the
    receiver's runtime class (virtual calls), then compile the callee's
    body in place with its locals mapped to write-once temps.  Any failed
    guard inside the callee deopts to the call instruction itself with the
    receiver/arguments restored — the callee is pure, so the plain
    ``INVOKE`` handler re-executes it with reference semantics."""
    callee = _inline_target(program, inv)
    cf = callee.flat().instrs
    nargs = inv.c or 0
    virtual = inv.op == op.INVOKEVIRTUAL
    kinv = b - 1 - a        # run-relative index of the call instruction
    cinv = prefix[kinv]     # cycles of the completed caller prefix

    # materialize receiver + args to temps (top of stack: ... rcv a1 .. an)
    tc.need(nargs + (1 if virtual else 0))
    argts = [tc.pop_temp() for _ in range(nargs)][::-1]
    rcv = tc.pop_temp() if virtual else None
    tc.flush()  # caller residue below the operands goes to the real stack

    pushback = [f"s.append({t})" for t in ([rcv] if virtual else []) + argts]
    saved_tail = tc.deopt_tail
    tc.deopt_tail = lambda k: [f"return ({b - 1}, n + {kinv}, c + {cinv}, 1)"]
    tc.inline_pushback = pushback

    ilocals = ["None"] * callee.flat().nlocals
    idx = 0
    if virtual:
        # monomorphic inline cache: exact-class check makes the compile-time
        # resolution from the static class valid at runtime (a subclass —
        # overriding or not — deopts to the dynamic lookup)
        o = tc._heap_object(0, rcv, "HeapObject", [])
        tc.guard(f"{o}.class_name != {inv.a!r}", 0, [])
        ilocals[0] = rcv
        idx = 1
    for t in argts:
        ilocals[idx] = t
        idx += 1

    tc.ilocals = ilocals
    for cins in cf[:-1]:
        tc.compile_ins(cins, 0)  # k unused: inline deopts ignore it
    ret = cf[-1]
    retval = tc.pop() if ret.op != op.RETURN else None
    tc.ilocals = None
    tc.inline_pushback = None
    tc.deopt_tail = saved_tail
    tc.vstack = []
    if retval is not None:
        tc.vstack.append(retval)

    ncallee = len(cf)
    ntot = (b - a) + ncallee  # caller prefix + INVOKE + callee body
    ctot = cinv + inv.cost + sum(i.cost for i in cf)
    tc.flush()
    tc.emit(f"n += {ntot}")
    tc.emit(f"c += {ctot}")
    tc.emit(f"pc = {b}")


def _compile_region(flat, ext: List[Tuple[int, int]], entry: int,
                    program=None):
    """Compile a loop region into one closure with an internal
    block-dispatch loop: iterations of the hot loop never return to the
    engine.  Returns ``(exit_pc, steps, cycles, deopt)`` — ``deopt=1``
    leaves the machine exactly at a failed guard (stack rebuilt, prefix
    accounted), ``deopt=0`` is a clean exit at a pc outside the region
    (a call/return block, or the loop's natural exit)."""
    instrs = flat.instrs
    tc = _TraceCompiler()
    body_ins = [i for a, b in ext for i in instrs[a:b]]
    stored = {i.a for i in body_ins if i.op in op.STORES}
    tc.written = frozenset(i.b for i in body_ins if i.op == op.PUTFIELD)
    tc.stable = {i.a: f"h{i.a}" for i in body_ins
                 if i.op in op.LOADS and i.a not in stored}
    tc.invariant = set(tc.stable.values())
    chain: List[str] = []
    for bi, (a, b) in enumerate(ext):
        blk = instrs[a:b]
        prefix = [0, *accumulate(i.cost for i in blk)]
        tc.begin_block()
        tc.deopt_tail = (
            lambda a=a, prefix=prefix:
            lambda k: [f"return ({a + k}, n + {k}, c + {prefix[k]}, 1)"]
        )()
        mark = len(tc.lines)
        last = blk[-1]
        terminal = last.op in op.BRANCHES
        is_call = last.op in op.INVOKES
        for k, ins in enumerate(blk[:-1] if (terminal or is_call) else blk):
            tc.compile_ins(ins, k)
        if is_call:
            _inline_call(tc, last, a, b, prefix, program)
        else:
            nxt = b
            if last.op == op.GOTO:
                nxt = last.a
            elif terminal:
                nxt = f"{_target(last)} if {tc.branch_cond(last)} else {b}"
            tc.flush()
            tc.emit(f"n += {len(blk)}")
            tc.emit(f"c += {prefix[-1]}")
            tc.emit(f"pc = {nxt}")
        blk_lines = tc.lines[mark:]
        del tc.lines[mark:]
        chain.append(f"{'if' if bi == 0 else 'elif'} pc == {a}:")
        chain.extend("    " + ln for ln in blk_lines)
    chain.append("else:")
    chain.append("    return (pc, n, c, 0)")
    body = ["s = f.stack", "L = f.locals"]
    if tc.needs_heap:
        body.append("H = m.heap._store")
    if tc.needs_statics:
        body.append("S = m.statics")
    body += [f"{t} = L[{slot}]" for slot, t in tc.stable.items()]
    body += [f"{t} = _MISS" for t in tc.once.values()]
    body += ["n = 0", "c = 0", f"pc = {entry}", "while 1:"]
    body += ["    " + ln for ln in chain]
    return _assemble("_region", body, f"region@{entry}")


def promote(run: Run, flat=None, program=None) -> bool:
    """Trace-compile a hot run — as a whole loop region when its block
    heads one, else as a straight-line closure.  A run whose lowering
    fails stays cold for good (``promoted`` flips either way, so the
    attempt happens once)."""
    run.promoted = True
    fn = None
    ext = _find_region(flat, run.start, program) if flat is not None else None
    if ext:
        try:
            fn = _compile_region(flat, ext, run.start, program)
        except CodegenError:
            pass
    region = fn is not None
    if not region:
        try:
            fn = _TraceCompiler(run).compile()
        except CodegenError:
            return False
    # the plan is shared between threads and the engine loop reads ``fn``
    # first: a closure must not be visible before its calling convention
    run.region = region
    run.fn = fn
    return True


# --------------------------------------------------------------------------
# the engine loop
# --------------------------------------------------------------------------

def run_block_compiled(machine, stop_depth: int = 1):
    """Compiled-tier twin of :meth:`Machine.run_block`: same contract
    (returns ``(kind, gen, push, cost)``; parks ``pending_block_cost`` on
    error), but a hot run executes as one trace-compiled closure,
    deoptimizing to the plain threaded handlers — which a cold run takes
    throughout — at guards, syscalls and faults, and calls / returns
    between bytecode frames that a :class:`CallSite` covers never leave
    the loop."""
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
                if fn is None:
                    pass  # cold: this instruction alone, as after a deopt
                elif entry.region:
                    # whole-loop closure: executes many iterations per call
                    # and reports exact step/cycle totals and its exit point
                    exit_pc, rn, rc, de = fn(m, frame)
                    nsteps += rn
                    acc += rc
                    cs += rn
                    cc += rc
                    if de == 0:
                        frame.pc = exit_pc
                        continue
                    dn += 1
                    pc = exit_pc
                else:
                    frame.pc = entry.end
                    r = fn(m, frame)
                    if r is None:
                        nsteps += entry.n
                        acc += entry.cost
                        cs += entry.n
                        cc += entry.cost
                        continue
                    # deopt: instructions < r completed; charge the prefix
                    # and re-execute instruction r through its plain
                    # handler, which raises / syscalls with exact reference
                    # semantics
                    dn += 1
                    p = entry.prefix[r]
                    nsteps += r
                    acc += p
                    cs += r
                    cc += p
                    pc = entry.start + r
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
