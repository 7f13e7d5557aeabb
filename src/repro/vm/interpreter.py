"""The steppable MJ bytecode interpreter.

:class:`Machine` has three execution engines over one instruction set
(:data:`ENGINES`), one oracle and two block engines:

* ``reference`` — :meth:`Machine.step` executes one instruction per call
  through the original if/elif chain and reports its cost individually.
  It is the oracle the differential suite checks the block engines
  against, and it is used automatically whenever a profiler is attached
  (per-step ``on_step`` hooks need per-step control);
* ``fast`` — :meth:`Machine.run_block` executes instructions in a tight
  threaded-code loop (:func:`repro.vm.dispatch.threaded`: one resolved
  handler per instruction), accumulating precomputed ``Instr.cost``
  cycles locally and surfacing **one** ``('cost', N)`` event per run of
  instructions between syscall/communication boundaries;
* ``compiled`` (the default) — :func:`repro.vm.jit.run_block_compiled`:
  the same handlers and the same batching, plus a compiled region for
  each run that gets hot and inline-cached calls between bytecode frames.

All engines emit the same totals: identical ``cycles``, ``steps``,
``result``, ``stdout`` and syscall boundaries — only the granularity of
``('cost', n)`` events differs.  Cost flows to the caller as events from
:meth:`Machine.run_gen` / :meth:`Machine.drive`; the driver (sequential
:func:`run_sync`, or a runtime-backend node) owns the clock.  Distribution
natives (``DependentObject.create`` / ``.access``) are delegated to the
machine's pluggable ``syscall`` handler — a generator function — so the same
interpreter runs both centralized and distributed programs.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, List, Optional, Tuple

from repro.errors import ConfigError, VMError
from repro.bytecode import opcodes as op
from repro.bytecode.model import BMethod, Instr
from repro.lang.symbols import DEPENDENT_OBJECT
from repro.lang.types import VOID
from repro.vm.dispatch import FRAME_SWITCH, INVOKE_HANDLER, threaded
from repro.vm.frame import Frame
from repro.vm.heap import Heap
from repro.vm.natives import find_native
from repro.vm.values import (
    DependentRef, Ref, f2i, f2l, frem, i32, i64, idiv, irem, iushr,
)

#: the three execution tiers :meth:`Machine.drive` can select
ENGINES = ("reference", "fast", "compiled")


def _engine_from_env() -> str:
    name = os.environ.get("REPRO_VM_ENGINE", "") or "compiled"
    if name not in ENGINES:
        raise ConfigError(
            f"REPRO_VM_ENGINE={name!r}: unknown VM engine "
            f"(choose from {', '.join(ENGINES)})"
        )
    return name


#: the tier in use: ``"reference"`` (per-step if/elif chain — the oracle
#: the differential suite compares the block engines against), ``"fast"``
#: (threaded-code ``run_block``) or ``"compiled"`` (threaded handlers +
#: trace-compiled hot runs, :mod:`repro.vm.jit`).  Set via
#: ``REPRO_VM_ENGINE`` or :func:`forced_engine`; an attached profiler still
#: wins (per-step hooks need per-step control).
VM_ENGINE = _engine_from_env()


@contextmanager
def forced_engine(name: str):
    """Temporarily pin the execution tier — in this process *and*, via the
    ``REPRO_VM_ENGINE`` environment variable, in any worker process spawned
    inside the block (the process backend re-reads it at import under
    spawn-style multiprocessing).  This is the axis the conformance oracle
    and ``repro bench --engine`` differentially test."""
    global VM_ENGINE
    if name not in ENGINES:
        raise ValueError(f"unknown VM engine {name!r} (choose from {ENGINES})")
    prev, prev_env = VM_ENGINE, os.environ.get("REPRO_VM_ENGINE")
    VM_ENGINE = name
    os.environ["REPRO_VM_ENGINE"] = name
    try:
        yield
    finally:
        VM_ENGINE = prev
        if prev_env is None:
            os.environ.pop("REPRO_VM_ENGINE", None)
        else:
            os.environ["REPRO_VM_ENGINE"] = prev_env


_INT_BIN = {
    op.IADD: lambda a, b: i32(a + b),
    op.ISUB: lambda a, b: i32(a - b),
    op.IMUL: lambda a, b: i32(a * b),
    op.IAND: lambda a, b: i32(a & b),
    op.IOR: lambda a, b: i32(a | b),
    op.IXOR: lambda a, b: i32(a ^ b),
    op.ISHL: lambda a, b: i32(a << (b & 31)),
    op.ISHR: lambda a, b: i32(a >> (b & 31)),
    op.IUSHR: lambda a, b: iushr(a, b, 32),
}
_LONG_BIN = {
    op.LADD: lambda a, b: i64(a + b),
    op.LSUB: lambda a, b: i64(a - b),
    op.LMUL: lambda a, b: i64(a * b),
    op.LAND: lambda a, b: i64(a & b),
    op.LOR: lambda a, b: i64(a | b),
    op.LXOR: lambda a, b: i64(a ^ b),
    op.LSHL: lambda a, b: i64(a << (b & 63)),
    op.LSHR: lambda a, b: i64(a >> (b & 63)),
    op.LUSHR: lambda a, b: iushr(a, b, 64),
}
_FLOAT_BIN = {
    op.FADD: lambda a, b: a + b,
    op.FSUB: lambda a, b: a - b,
    op.FMUL: lambda a, b: a * b,
}
# one source of truth with the fast path's flatten-time resolution — the
# oracle's dispatch structure stays independent, the comparison semantics
# must not be able to drift
_CMP = op.CMP_FUNCS


class Machine:
    """One interpreter instance (one per simulated node)."""

    def __init__(self, loaded, heap: Optional[Heap] = None, node_id: int = 0) -> None:
        self.program = loaded          # repro.vm.loader.LoadedProgram
        self.table = loaded.table
        self.heap = heap if heap is not None else Heap()
        self.statics = loaded.statics
        self.frames: List[Frame] = []
        self.stdout: List[str] = []
        self.cycles = 0                # advanced by the driver, not by step()
        self.steps = 0
        self.result = None
        self.node_id = node_id
        #: generator-function handler for DependentObject create/access;
        #: installed by the distributed runtime or the local dispatcher
        self.syscall: Optional[Callable] = None
        #: optional profiler with on_invoke/on_return/on_step/on_alloc hooks
        self.profiler = None
        #: overhead cycles queued by profiler hooks that fire mid-step
        #: (invoke/return/alloc); folded into the current step's cost
        self.pending_extra = 0
        #: cycles a failed :meth:`run_block` had accumulated for already
        #: *completed* instructions; the driving generator charges them
        #: before propagating the error, matching the per-step path
        self.pending_block_cost = 0
        #: cycles the in-flight :meth:`run_block` has completed but not yet
        #: surfaced to the driver; published around call dispatch so
        #: cycle-reading natives (``Sys.time``) see exactly what the
        #: per-step path would have charged by that point
        self.inflight_cycles = 0
        #: deliberate fast-path fault injection for conformance-oracle
        #: self-tests: when the ``REPRO_VM_INJECT_OVERCHARGE`` environment
        #: variable is a positive integer, every :meth:`run_block`
        #: overcharges that many cycles — a bug the differential oracle
        #: must catch.  Zero (the default) is free.
        self.inject_overcharge = int(
            os.environ.get("REPRO_VM_INJECT_OVERCHARGE", "0") or "0"
        )
        #: compiled-tier accounting (repro.vm.jit): steps/cycles executed
        #: inside trace-compiled closures, guard deopts, and runs promoted
        #: by this machine.  Observability only — totals
        #: (``steps``/``cycles``/NodeStats) are engine-invariant.
        self.jit_compiled_steps = 0
        self.jit_compiled_cycles = 0
        self.jit_deopts = 0
        self.jit_promotions = 0

    def jit_stats(self) -> dict:
        """Compiled-tier counters of this machine (all zero on the
        reference/fast tiers)."""
        return {
            "compiled_steps": self.jit_compiled_steps,
            "compiled_cycles": self.jit_compiled_cycles,
            "deopts": self.jit_deopts,
            "promotions": self.jit_promotions,
        }

    # ------------------------------------------------------------------ calls
    def call_bmethod(
        self, method: BMethod, receiver, args, on_return: Optional[Callable] = None
    ) -> Frame:
        flat = method.flat()
        frame = Frame(method, flat, [None] * flat.nlocals)
        idx = 0
        if not method.is_static:
            frame.locals[0] = receiver
            idx = 1
        for a in args:
            frame.locals[idx] = a
            idx += 1
        frame.on_return = on_return
        self.frames.append(frame)
        if self.profiler is not None:
            self.profiler.on_invoke(self, method)
        return frame

    def _return(self, value) -> None:
        frame = self.frames.pop()
        if self.profiler is not None:
            self.profiler.on_return(self, frame.method)
        if frame.on_return is not None:
            frame.on_return(value)
        elif self.frames:
            if frame.method.ret_type is not VOID and not frame.method.is_ctor:
                self.frames[-1].push(value)
        else:
            self.result = value

    @property
    def done(self) -> bool:
        return not self.frames

    # ------------------------------------------------------------------ stepping
    def step(self):
        """Execute one instruction.

        Returns either an ``int`` cycle cost, or a tuple
        ``('syscall', generator, push_result)`` that the driver must run via
        ``yield from`` (its return value is pushed when ``push_result``).
        """
        frame = self.frames[-1]
        if frame.pc >= len(frame.flat):
            raise VMError(f"{frame.method.qualified}: fell off end of code")
        ins = frame.flat[frame.pc]
        frame.pc += 1
        self.steps += 1
        cost = ins.cost
        if self.profiler is not None:
            cost += self.profiler.on_step(self, cost)
        result = self._execute(ins, frame)
        if self.pending_extra:
            cost += self.pending_extra
            self.pending_extra = 0
        if result is not None:
            # syscall delegation: carry this step's cost along so the driver
            # can charge it before running the delegated generator
            return (result[0], result[1], result[2], cost)
        return cost

    def _execute(self, ins: Instr, frame: Frame):
        o = ins.op
        stack = frame.stack

        # ---- the hot, simple ones first
        if o == op.LDC:
            stack.append(ins.a)
        elif o in op.LOADS:
            stack.append(frame.locals[ins.a])
        elif o in op.STORES:
            frame.locals[ins.a] = stack.pop()
        elif o in _INT_BIN:
            b = stack.pop()
            a = stack.pop()
            stack.append(_INT_BIN[o](a, b))
        elif o in _FLOAT_BIN:
            b = stack.pop()
            a = stack.pop()
            stack.append(_FLOAT_BIN[o](a, b))
        elif o == op.IDIV or o == op.IREM:
            b = stack.pop()
            a = stack.pop()
            if b == 0:
                raise VMError("integer division by zero")
            stack.append(i32(idiv(a, b) if o == op.IDIV else irem(a, b)))
        elif o == op.FDIV:
            b = stack.pop()
            a = stack.pop()
            if b == 0.0:
                raise VMError("float division by zero")
            stack.append(a / b)
        elif o == op.FREM:
            b = stack.pop()
            a = stack.pop()
            if b == 0.0:
                raise VMError("float remainder by zero")
            stack.append(frem(a, b))
        elif o in _LONG_BIN:
            b = stack.pop()
            a = stack.pop()
            stack.append(_LONG_BIN[o](a, b))
        elif o == op.LDIV or o == op.LREM:
            b = stack.pop()
            a = stack.pop()
            if b == 0:
                raise VMError("long division by zero")
            stack.append(i64(idiv(a, b) if o == op.LDIV else irem(a, b)))
        elif o == op.INEG:
            stack.append(i32(-stack.pop()))
        elif o == op.LNEG:
            stack.append(i64(-stack.pop()))
        elif o == op.FNEG:
            stack.append(-stack.pop())
        elif o == op.I2L:
            stack.append(i64(stack.pop()))
        elif o == op.I2F or o == op.L2F:
            stack.append(float(stack.pop()))
        elif o == op.L2I:
            stack.append(i32(stack.pop()))
        elif o == op.F2I:
            stack.append(f2i(stack.pop()))
        elif o == op.F2L:
            stack.append(f2l(stack.pop()))

        # ---- control flow
        elif o == op.GOTO:
            frame.pc = ins.a
        elif o in op.CMP_BRANCHES:
            b = stack.pop()
            a = stack.pop()
            if o == op.IF_ACMP:
                eq = (a == b) if (a is not None and b is not None) else (a is b)
                taken = eq if ins.a == "EQ" else not eq
            else:
                taken = _CMP[ins.a](a, b)
            if taken:
                frame.pc = ins.b
        elif o == op.IFTRUE:
            if stack.pop():
                frame.pc = ins.a
        elif o == op.IFFALSE:
            if not stack.pop():
                frame.pc = ins.a

        # ---- stack manipulation
        elif o == op.DUP:
            stack.append(stack[-1])
        elif o == op.POP:
            stack.pop()
        elif o == op.SWAP:
            stack[-1], stack[-2] = stack[-2], stack[-1]
        elif o == op.ACONST_NULL:
            stack.append(None)

        # ---- objects
        elif o == op.NEW:
            if ins.a == DEPENDENT_OBJECT:
                raise VMError(
                    "NEW DependentObject should have been rewritten to "
                    "DependentObject.create"
                )
            stack.append(self._allocate(ins.a))
        elif o == op.GETFIELD:
            recv = stack.pop()
            if isinstance(recv, DependentRef):
                return self._syscall_access(frame, recv, [], "get", ins.b)
            obj = self.heap.object(self._require_ref(recv))
            try:
                stack.append(obj.fields[ins.b])
            except KeyError:
                raise VMError(f"no field {obj.class_name}.{ins.b}") from None
        elif o == op.PUTFIELD:
            value = stack.pop()
            recv = stack.pop()
            if isinstance(recv, DependentRef):
                return self._syscall_access(frame, recv, [value], "set", ins.b)
            obj = self.heap.object(self._require_ref(recv))
            if ins.b not in obj.fields:
                raise VMError(f"no field {obj.class_name}.{ins.b}")
            obj.fields[ins.b] = value
        elif o == op.GETSTATIC:
            stack.append(self.statics.get((ins.a, ins.b)))
        elif o == op.PUTSTATIC:
            self.statics[(ins.a, ins.b)] = stack.pop()
        elif o in op.INVOKES:
            return self._invoke(ins, frame)
        elif o == op.CHECKCAST:
            value = stack[-1]
            if value is not None and not self._instance_of(value, ins.a):
                raise VMError(f"bad cast to {ins.a} of {value!r}")
        elif o == op.INSTANCEOF:
            value = stack.pop()
            stack.append(
                1 if (value is not None and self._instance_of(value, ins.a)) else 0
            )

        # ---- arrays
        elif o == op.NEWARRAY:
            length = stack.pop()
            stack.append(self.heap.new_array(ins.a, length))
        elif o == op.ARRAYLENGTH:
            recv = stack.pop()
            if isinstance(recv, DependentRef):
                return self._syscall_access(frame, recv, [], "alen", "[]")
            arr = self.heap.array(self._require_ref(recv))
            stack.append(len(arr.data))
        elif o == op.XALOAD:
            idx = stack.pop()
            recv = stack.pop()
            if isinstance(recv, DependentRef):
                return self._syscall_access(frame, recv, [idx], "aget", "[]")
            arr = self.heap.array(self._require_ref(recv))
            if not 0 <= idx < len(arr.data):
                raise VMError(f"array index {idx} out of bounds ({len(arr.data)})")
            stack.append(arr.data[idx])
        elif o == op.XASTORE:
            value = stack.pop()
            idx = stack.pop()
            recv = stack.pop()
            if isinstance(recv, DependentRef):
                return self._syscall_access(frame, recv, [idx, value], "aset", "[]")
            arr = self.heap.array(self._require_ref(recv))
            if not 0 <= idx < len(arr.data):
                raise VMError(f"array index {idx} out of bounds ({len(arr.data)})")
            arr.data[idx] = value

        # ---- returns
        elif o == op.RETURN:
            self._return(None)
        elif o in op.RETURNS:
            self._return(stack.pop())

        # ---- distribution support
        elif o == op.PACK:
            n = ins.a
            if n == 0:
                stack.append([])
            else:
                values = stack[-n:]
                del stack[-n:]
                stack.append(list(values))
        else:  # pragma: no cover
            raise VMError(f"unknown opcode {o}")
        return None

    # ------------------------------------------------------------------ helpers
    def _require_ref(self, value) -> Ref:
        if value is None:
            raise VMError("null dereference")
        if not isinstance(value, Ref):
            raise VMError(f"expected a reference, got {value!r}")
        return value

    def _allocate(self, class_name: str) -> Ref:
        return self.heap.new_object(class_name, self.program.templates[class_name])

    def _instance_of(self, value, class_name: str) -> bool:
        if class_name.startswith("["):
            return isinstance(value, Ref)  # loose array checks
        if isinstance(value, str):
            return class_name in ("String", "Object")
        if isinstance(value, list):
            return class_name in ("LinkedList", "Object")
        if isinstance(value, DependentRef):
            return self.table.is_subtype(value.class_name, class_name)
        if isinstance(value, Ref):
            entry = self.heap.get(value)
            cls = getattr(entry, "class_name", None)
            if cls is None:
                return class_name == "Object"
            return self.table.is_subtype(cls, class_name)
        return class_name == "Object"  # boxed primitive

    # ------------------------------------------------------------------ invokes
    def _invoke(self, ins: Instr, frame: Frame):
        cls, name, nargs = ins.a, ins.b, ins.c
        stack = frame.stack
        args = []
        if nargs:
            args = stack[-nargs:]
            del stack[-nargs:]

        if cls == DEPENDENT_OBJECT:
            if name == "create":
                # static factory inserted by the rewriter: (args, loc, clsName)
                gen = self._require_syscall()("create", None, args)
                return ("syscall", gen, True)
            if name == "access":
                recv = stack.pop()
                gen = self._require_syscall()("access", recv, args)
                return ("syscall", gen, True)
            raise VMError(f"unknown DependentObject method {name}")

        if ins.op == op.INVOKESTATIC:
            method = self.program.lookup_method(cls, name)
            if method is not None:
                self.call_bmethod(method, None, args)
                return None
            return self._native(cls, name, None, args, frame)

        recv = stack.pop()
        if ins.op == op.INVOKESPECIAL:
            # constructor invocation
            method = self.program.lookup_method(cls, name)
            if method is not None:
                self.call_bmethod(method, recv, args)
                return None
            return self._native(cls, name, recv, args, frame)

        # INVOKEVIRTUAL
        if isinstance(recv, DependentRef):
            # un-rewritten call on a remote object: fall back to a remote
            # DEPENDENCE access (keeps partial rewrites sound)
            return self._syscall_access(frame, recv, args, "invoke", name)
        if isinstance(recv, str):
            return self._native("String", name, recv, args, frame)
        if isinstance(recv, list):
            return self._native("LinkedList", name, recv, args, frame)
        if recv is None:
            raise VMError(f"null receiver for {cls}.{name}")
        if isinstance(recv, Ref):
            entry = self.heap.get(recv)
            runtime_cls = getattr(entry, "class_name", "Object")
            method = self.program.lookup_method(runtime_cls, name)
            if method is not None:
                self.call_bmethod(method, recv, args)
                return None
            return self._native(runtime_cls, name, recv, args, frame)
        # boxed primitive receiver (Object.equals / hashCode on ints...)
        return self._native("Object", name, recv, args, frame)

    def _native(self, cls: str, name: str, recv, args, frame: Frame):
        fn = find_native(cls, name)
        value = fn(self, recv, args)
        mi = self.table.resolve_method(cls, name)
        if mi is not None and mi.ret is not VOID and not mi.is_ctor:
            frame.push(value)
        return None

    def _require_syscall(self):
        if self.syscall is None:
            from repro.runtime.local import local_dispatcher

            self.syscall = local_dispatcher(self)
        return self.syscall

    def _syscall_access(self, frame: Frame, recv: DependentRef, args, kind: str, member: str):
        """Fallback remote access for un-rewritten instructions hitting a
        DependentRef (field get/set or invoke)."""
        from repro.lang.symbols import (
            ARRAY_GET,
            ARRAY_LEN,
            ARRAY_SET,
            FIELD_GET,
            FIELD_SET,
            INVOKE_METHOD_HASRETURN,
            INVOKE_METHOD_VOID,
        )

        if kind == "get":
            access = FIELD_GET
            push = True
        elif kind == "set":
            access = FIELD_SET
            push = False
        elif kind == "aget":
            access = ARRAY_GET
            push = True
        elif kind == "aset":
            access = ARRAY_SET
            push = False
        elif kind == "alen":
            access = ARRAY_LEN
            push = True
        else:
            mi = self.table.resolve_method(recv.class_name, member)
            if mi is not None and mi.ret is VOID:
                access = INVOKE_METHOD_VOID
                push = False
            else:
                access = INVOKE_METHOD_HASRETURN
                push = True
        gen = self._require_syscall()("access", recv, [list(args), access, member])
        return ("syscall", gen, push)

    # ------------------------------------------------------------------ fast path
    def run_block(self, stop_depth: int = 1):
        """Execute a cost-batched run of instructions in a tight
        threaded-code loop (the fast path).

        Runs until a syscall boundary is reached or the frame depth drops
        below ``stop_depth``, dispatching through
        :data:`repro.vm.dispatch.HANDLERS` and accumulating the precomputed
        per-instruction cycle cost locally — no per-step generator yields,
        no string-keyed lookups.  Returns ``(kind, gen, push, cost)`` where
        ``kind`` is ``'syscall'`` (run the generator, push its value when
        ``push``) or ``None`` (depth boundary reached); ``cost`` is the
        cycles of the whole block, to be surfaced as **one** ``('cost', N)``
        event.  On error, the cost of the completed prefix is parked in
        ``pending_block_cost`` so drivers charge exactly what the per-step
        oracle would have charged.
        """
        frames = self.frames
        acc = self.inject_overcharge  # 0 unless a self-test injects a fault
        nsteps = 0
        frame = frames[-1]
        code = threaded(frame.flat)
        ncode = len(code)
        while True:
            pc = frame.pc
            if pc >= ncode:
                self.steps += nsteps
                self.pending_block_cost = acc
                raise VMError(f"{frame.method.qualified}: fell off end of code")
            handler, ins = code[pc]
            frame.pc = pc + 1
            nsteps += 1
            acc += ins.cost
            try:
                if handler is INVOKE_HANDLER:
                    # a native reached through this call (Sys.time) may read
                    # the cycle counter: publish the block's completed
                    # prefix so it sees the per-step path's exact value
                    self.inflight_cycles = acc - ins.cost
                    r = handler(self, frame, ins)
                    self.inflight_cycles = 0
                else:
                    r = handler(self, frame, ins)
            except BaseException:
                # the failing instruction's own cost is never charged — the
                # per-step path raises out of step() before returning it
                self.inflight_cycles = 0
                self.steps += nsteps
                self.pending_block_cost = acc - ins.cost
                raise
            if r is None:
                continue
            if r is FRAME_SWITCH:
                if len(frames) < stop_depth:
                    break
                frame = frames[-1]
                code = threaded(frame.flat)
                ncode = len(code)
                continue
            self.steps += nsteps
            return (r[0], r[1], r[2], acc)
        self.steps += nsteps
        return (None, None, None, acc)

    # ------------------------------------------------------------------ compiled tier
    def run_block_compiled(self, stop_depth: int = 1):
        """Compiled-tier engine (:mod:`repro.vm.jit`): same contract as
        :meth:`run_block`, but hot runs execute as compiled regions with
        guard-based deopt back to the plain threaded handlers."""
        return _run_block_compiled(self, stop_depth)

    # ------------------------------------------------------------------ driving
    def drive(self, stop_depth: int = 1):
        """Generator driving the machine until the frame depth drops below
        ``stop_depth``, yielding ``('cost', n)`` events (and whatever events
        delegated syscall generators yield, e.g. ``('wait',)`` from the
        simulated MPI layer).

        With no profiler attached this batches cost per block-engine call
        (:meth:`run_block` on the ``fast`` tier, :meth:`run_block_compiled`
        on the ``compiled`` tier) — one event per syscall-to-syscall span
        of computation.  Attaching a profiler or selecting the
        ``reference`` tier (:data:`VM_ENGINE`) transparently falls back to
        the per-step reference path, preserving per-instruction ``on_step``
        semantics.
        All tiers produce identical cycle/step totals and identical
        machine state at every syscall boundary.
        """
        frames = self.frames
        while len(frames) >= stop_depth:
            if self.profiler is None and VM_ENGINE != "reference":
                try:
                    if VM_ENGINE == "compiled":
                        kind, gen, push, cost = _run_block_compiled(
                            self, stop_depth
                        )
                    else:
                        kind, gen, push, cost = self.run_block(stop_depth)
                except BaseException:
                    charge = self.pending_block_cost
                    self.pending_block_cost = 0
                    if charge:
                        yield ("cost", charge)
                    raise
                if cost:
                    yield ("cost", cost)
                if kind is None:
                    continue
            else:
                r = self.step()
                if isinstance(r, int):
                    yield ("cost", r)
                    continue
                _, gen, push, cost = r
                yield ("cost", cost)
            value = yield from gen
            if push and frames:
                frames[-1].push(value)
        return self.result

    def run_gen(self):
        """Generator that runs the machine to completion, yielding
        ``('cost', cycles)`` events — batched per block on the fast path,
        per instruction on the reference path (see :meth:`drive`)."""
        result = yield from self.drive(1)
        return result


def run_sync(machine: Machine) -> object:
    """Drive a machine to completion outside any cluster (centralized
    execution).  ``('wait',)`` events are illegal here — they would mean the
    program tried to block on a network that does not exist."""
    for event in machine.run_gen():
        if event[0] == "cost":
            machine.cycles += event[1]
        elif event[0] == "wait":
            raise VMError("machine blocked on communication outside a cluster")
    return machine.result


def run_main(loaded, main_args=None) -> Machine:
    """Run ``main`` of a loaded program on a fresh machine; returns the
    finished machine (inspect ``.stdout``, ``.cycles``, ``.result``)."""
    machine = Machine(loaded)
    main = loaded.main_method()
    machine.call_bmethod(main, None, [main_args])
    run_sync(machine)
    return machine


# imported last: the jit module builds on the dispatch/threaded machinery
# above but never imports this module, keeping the layering acyclic
from repro.vm.jit import run_block_compiled as _run_block_compiled  # noqa: E402
