"""Program model for MJ bytecode: classes, methods, instructions, labels.

A :class:`BMethod` holds *symbolic* code — a list of :class:`Instr` whose
branch operands are :class:`Label` objects, with ``LABEL`` pseudo-instructions
marking their positions.  Symbolic code is what the communication rewriter
edits (instructions can be inserted freely).  :meth:`BMethod.flat` resolves
labels to instruction indices and strips the markers, producing the executable
form consumed by the VM, the quad builder and the profiler.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import CompileError
from repro.bytecode import opcodes as op
from repro.lang.symbols import DEPENDENT_OBJECT
from repro.lang.types import VOID, Type


class Label:
    """A symbolic branch target; identity-based.  The name is for reading
    only; the compiler numbers it within its method."""

    __slots__ = ("name",)

    def __init__(self, name: str = "L") -> None:
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover
        return self.name


#: opcode name -> ``(opx, cost)``: one lookup per instruction built; an
#: unknown opcode is ``(0, 1)``
_OP_INFO: Dict[str, Tuple[int, int]] = {
    name: (opx, op.COST.get(name, 1)) for opx, name in enumerate(op.OPCODE_LIST)
}


class Instr:
    """One bytecode instruction: an opcode plus up to three operands.

    ``opx`` (dense interned opcode) and ``cost`` (abstract cycles) are
    precomputed at construction so the interpreter hot loop never does a
    string-keyed lookup; ``cfn`` holds the resolved comparison callable for
    flattened compare-branches (set by :meth:`BMethod.flat`).
    """

    __slots__ = ("op", "a", "b", "c", "line", "opx", "cost", "cfn")

    def __init__(self, opname: str, a=None, b=None, c=None, line: int = 0) -> None:
        self.op = opname
        self.a = a
        self.b = b
        self.c = c
        self.line = line
        self.opx, self.cost = _OP_INFO.get(opname, (0, 1))
        self.cfn = None

    def operands(self) -> Tuple:
        out = []
        for v in (self.a, self.b, self.c):
            if v is not None:
                out.append(v)
        return tuple(out)

    def __repr__(self) -> str:  # pragma: no cover
        ops = ", ".join(repr(v) for v in self.operands())
        return f"{self.op}({ops})" if ops else self.op


def stack_effect(ins: Instr, table) -> Tuple[int, int]:
    """``(pops, pushes)`` of one instruction: :data:`opcodes.STACK_EFFECT`,
    plus the two cases that read operands — ``PACK`` and the invokes, whose
    callee ``table`` (a :class:`~repro.lang.symbols.ClassTable`) resolves."""
    o = ins.op
    try:
        return op.STACK_EFFECT[o]
    except KeyError:
        pass
    if o == op.PACK:
        return (ins.a, 1)
    if o not in op.INVOKES:
        raise CompileError(f"no stack effect for {o}")
    if ins.a == DEPENDENT_OBJECT and ins.b == "create":
        return (ins.c, 1)  # static factory
    mi = table.resolve_method(ins.a, ins.b)
    if mi is None:
        raise CompileError(f"cannot resolve {ins.a}.{ins.b}")
    pops = ins.c + (0 if o == op.INVOKESTATIC else 1)
    return (pops, 0 if mi.is_ctor or mi.ret is VOID else 1)


def branch_target(ins: Instr):
    """The target operand of a branch: ``b`` of a compare-branch (``a`` is
    its condition), ``a`` of every other branch."""
    return ins.b if ins.op in op.CMP_BRANCHES else ins.a


def successors(ins: Instr, i: int) -> Tuple[int, ...]:
    """Where control goes after flattened instruction ``i``: the branch
    target first, then the fall-through ``i + 1``; nothing after a return.
    The one control-flow rule every static walk of a method follows (a
    successor may be past the end: the verifier rejects that)."""
    o = ins.op
    if o in op.BRANCHES:
        if o == op.GOTO:
            return (ins.a,)
        return (branch_target(ins), i + 1)
    return () if o in op.RETURNS else (i + 1,)


def basic_block_leaders(instrs: List[Instr], after_calls: bool = True
                        ) -> Tuple[int, ...]:
    """Basic-block leader indices of flattened code: entry, every branch
    target, and every instruction following a branch or return — and an
    invoke, unless ``after_calls`` is false (the quad builder's blocks).

    With ``after_calls`` this is the *static* block structure; the fast
    path itself batches dynamically, straight through branches and calls
    until the next syscall boundary."""
    leaders = {0}
    for i, ins in enumerate(instrs):
        o = ins.op
        if o in op.BRANCHES or o in op.RETURNS:
            leaders.update(successors(ins, i))
            leaders.add(i + 1)
        elif after_calls and o in op.INVOKES:
            leaders.add(i + 1)
    return tuple(sorted(l for l in leaders if l < len(instrs)))


class FlatCode:
    """Executable form: label-free instruction list with integer targets."""

    __slots__ = ("instrs", "label_index", "nlocals", "returns_value",
                 "depths", "max_depth", "levels", "cpu", "_block_starts",
                 "threaded", "fused")

    def __init__(self, instrs: List[Instr], label_index: Dict[Label, int],
                 nlocals: int, returns_value: bool) -> None:
        self.instrs = instrs
        self.label_index = label_index
        #: what every call and return of the method needs, computed once:
        #: local slots of an activation (receiver + arguments + locals), and
        #: whether a return hands a value to the calling frame
        self.nlocals = nlocals
        self.returns_value = returns_value
        #: what :func:`repro.bytecode.verifier.verified` found, set once by
        #: its one walk of the method: the operand-stack depth on entry to
        #: every instruction (``-1``: unreachable), and the deepest it gets
        self.depths = None
        self.max_depth = 0
        #: what :mod:`repro.analysis.loops` derives on first use: the loop
        #: level of every instruction (``bytes``, capped nesting depth) and
        #: the loop-scaled static cost of the method (an ``int``)
        self.levels: Optional[bytes] = None
        self.cpu: Optional[int] = None
        self._block_starts: Optional[Tuple[int, ...]] = None
        #: threaded form ``[(handler, instr), ...]`` built lazily by the VM
        #: fast path on first execution (the bytecode layer stays ignorant
        #: of the handler table)
        self.threaded = None
        #: compiled-tier plan built lazily by :mod:`repro.vm.jit`: per-index
        #: a Run (at run starts), a CallSite, or the plain threaded pair
        self.fused = None

    @property
    def block_starts(self) -> Tuple[int, ...]:
        """Basic-block leader indices (entry, branch targets, post-branch /
        post-call instructions) — static block structure for tooling.
        Computed lazily so the compile/rewrite hot path never pays for
        it."""
        if self._block_starts is None:
            self._block_starts = basic_block_leaders(self.instrs)
        return self._block_starts

    def basic_blocks(self) -> List[Tuple[int, int]]:
        """``(start, end)`` half-open index ranges of the basic blocks."""
        bounds = list(self.block_starts) + [len(self.instrs)]
        return [(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]

    def __len__(self) -> int:
        return len(self.instrs)

    def __iter__(self):
        return iter(self.instrs)

    def __getitem__(self, i: int) -> Instr:
        return self.instrs[i]


class BField:
    __slots__ = ("name", "ty", "is_static")

    def __init__(self, name: str, ty: Type, is_static: bool) -> None:
        self.name = name
        self.ty = ty
        self.is_static = is_static


class BMethod:
    """Bytecode for one method."""

    __slots__ = (
        "class_name",
        "name",
        "param_types",
        "ret_type",
        "is_static",
        "is_ctor",
        "max_locals",
        "code",
        "_flat",
    )

    def __init__(
        self,
        class_name: str,
        name: str,
        param_types: Sequence[Type],
        ret_type: Type,
        is_static: bool,
        is_ctor: bool,
    ) -> None:
        self.class_name = class_name
        self.name = name
        self.param_types = list(param_types)
        self.ret_type = ret_type
        self.is_static = is_static
        self.is_ctor = is_ctor
        self.max_locals = 0
        self.code: List[Instr] = []
        self._flat: Optional[FlatCode] = None

    @property
    def qualified(self) -> str:
        return f"{self.class_name}.{self.name}"

    @property
    def nargs(self) -> int:
        return len(self.param_types)

    def emit(self, opname: str, a=None, b=None, c=None, line: int = 0) -> Instr:
        ins = Instr(opname, a, b, c, line)
        self.code.append(ins)
        self._flat = None
        return ins

    def place(self, label: Label) -> None:
        self.emit(op.LABEL, label)

    def invalidate(self) -> None:
        """Mark symbolic code as modified (used by the rewriter)."""
        self._flat = None

    def flat(self) -> FlatCode:
        """Resolve labels and strip ``LABEL`` markers (cached)."""
        if self._flat is not None:
            return self._flat
        label_at: Dict[Label, int] = {}
        instrs: List[Instr] = []
        for ins in self.code:
            if ins.op == op.LABEL:
                label_at[ins.a] = len(instrs)
            else:
                instrs.append(ins)
        resolved: List[Instr] = []
        for ins in instrs:
            if ins.op in op.BRANCHES:
                target = branch_target(ins)
                if target not in label_at:
                    raise CompileError(
                        f"{self.qualified}: branch to unplaced label {target}"
                    )
                idx = label_at[target]
                if ins.op in op.CMP_BRANCHES:
                    ri = Instr(ins.op, ins.a, idx, None, ins.line)
                    # resolve the condition string to its comparison callable
                    # once, here, instead of per executed branch; mirror the
                    # reference path exactly: IF_ACMP treats every non-EQ
                    # condition as NE, the typed compares leave unknown
                    # conditions unresolved (the handler then raises the
                    # same KeyError the oracle's table lookup would)
                    if ins.op == op.IF_ACMP:
                        ri.cfn = op.ACMP_FUNCS["EQ" if ins.a == "EQ" else "NE"]
                    else:
                        ri.cfn = op.CMP_FUNCS.get(ins.a)
                    resolved.append(ri)
                else:
                    resolved.append(Instr(ins.op, idx, None, None, ins.line))
            else:
                resolved.append(ins)
        receiver = 0 if self.is_static else 1
        self._flat = FlatCode(
            resolved, label_at,
            max(self.max_locals, receiver + self.nargs, 1),
            self.ret_type is not VOID and not self.is_ctor,
        )
        return self._flat

    def size_bytes(self) -> int:
        """Rough serialized size (for Table 1's KB column): opcode byte plus
        two bytes per operand, strings by length."""
        total = 0
        for ins in self.code:
            if ins.op == op.LABEL:
                continue
            total += 1
            for v in ins.operands():
                total += len(v) if isinstance(v, str) else 2
        return total

    def __repr__(self) -> str:  # pragma: no cover
        return f"<BMethod {self.qualified} ({len(self.code)} instrs)>"


class BClass:
    __slots__ = ("name", "superclass", "fields", "methods")

    def __init__(self, name: str, superclass: str) -> None:
        self.name = name
        self.superclass = superclass
        self.fields: Dict[str, BField] = {}
        self.methods: Dict[str, BMethod] = {}

    def instance_fields(self) -> List[BField]:
        return [f for f in self.fields.values() if not f.is_static]

    def static_fields(self) -> List[BField]:
        return [f for f in self.fields.values() if f.is_static]

    def size_bytes(self) -> int:
        total = 32 + sum(len(f.name) + 4 for f in self.fields.values())
        total += sum(m.size_bytes() + len(m.name) for m in self.methods.values())
        return total

    def __repr__(self) -> str:  # pragma: no cover
        return f"<BClass {self.name}>"


class BProgram:
    """A compiled MJ program: all user classes plus links to the class table."""

    __slots__ = ("classes", "table", "main_class")

    def __init__(self, classes: Dict[str, BClass], table, main_class: Optional[str]):
        self.classes = classes
        self.table = table  # repro.lang.symbols.ClassTable
        self.main_class = main_class

    def lookup_method(self, class_name: str, method: str) -> Optional[BMethod]:
        """Resolve ``method`` starting at ``class_name``, walking supers
        (virtual dispatch resolution for compiled classes)."""
        cur: Optional[str] = class_name
        while cur is not None and cur in self.classes:
            bc = self.classes[cur]
            if method in bc.methods:
                return bc.methods[method]
            cur = bc.superclass
        return None

    def num_classes(self) -> int:
        return len(self.classes)

    def num_methods(self) -> int:
        return sum(len(c.methods) for c in self.classes.values())

    def size_bytes(self) -> int:
        return sum(c.size_bytes() for c in self.classes.values())

    def copy(self) -> "BProgram":
        """Copy down to the code lists (used before rewriting so the original
        program stays runnable for the centralized baseline).  The ``Instr``
        objects themselves are shared: nothing changes one after it is
        built — the rewriter replaces instructions, ``flat()`` builds new
        ones for resolved branches."""
        new_classes: Dict[str, BClass] = {}
        for name, bc in self.classes.items():
            nc = BClass(bc.name, bc.superclass)
            nc.fields = dict(bc.fields)
            for mname, bm in bc.methods.items():
                nm = BMethod(
                    bm.class_name,
                    bm.name,
                    bm.param_types,
                    bm.ret_type,
                    bm.is_static,
                    bm.is_ctor,
                )
                nm.max_locals = bm.max_locals
                nm.code = list(bm.code)
                nc.methods[mname] = nm
            new_classes[name] = nc
        return BProgram(new_classes, self.table, self.main_class)
