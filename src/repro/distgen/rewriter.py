"""Bytecode rewriting for communication generation (paper Figures 8 & 9).

Three transformations, applied to every method (code is replicated on all
nodes, so any method may execute anywhere):

* **remote instantiation** (Figure 9) — ``NEW C; DUP; <args>;
  INVOKESPECIAL C.<init>`` of a dependent class becomes ``<args>; PACK n;
  LDC home(C); LDC "C"; INVOKESTATIC DependentObject.create`` — the static
  factory returns a local ``Ref`` when the site's home partition is the
  executing node, or a ``DependentRef`` after a ``NEW`` message otherwise.
  (Deviation from the figure's literal ``new DependentObject``+ctor shape:
  a factory return value replaces in-place construction, because the proxy
  *is* the reference in our VM; DESIGN.md §2 records this.)

* **method invocation** (Figure 8) — ``INVOKEVIRTUAL C.m`` on a dependent
  class becomes ``PACK n; LDC INVOKE_METHOD_*; LDC "m"; INVOKEVIRTUAL
  DependentObject.access`` (+ ``CHECKCAST`` of the return class / ``POP``
  for void).

* **field access** — ``GETFIELD``/``PUTFIELD`` on dependent classes become
  ``FIELD_GET``/``FIELD_SET`` accesses the same way.

A peephole keeps ``this``-receiver accesses direct: an instance method of a
dependent class always executes on its object's home node, so accesses
through ``this`` can never be remote (J-Orchestra applies the same
co-location optimization).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.bytecode import opcodes as op
from repro.bytecode.model import BMethod, BProgram, Instr, stack_effect, successors
from repro.bytecode.verifier import verified
from repro.errors import CompileError, SemanticError
from repro.lang.symbols import (
    DEPENDENT_OBJECT,
    FIELD_GET,
    FIELD_SET,
    INVOKE_METHOD_HASRETURN,
    INVOKE_METHOD_VOID,
    ClassTable,
)
from repro.lang.types import VOID, ClassType
from repro.distgen.plan import DistributionPlan

#: the accesses that go remote when their receiver's class is dependent
_ACCESS_OPS = frozenset({op.INVOKEVIRTUAL, op.GETFIELD, op.PUTFIELD})

#: abstract operand stack of the ``this`` analysis: its depth, and a bit per
#: slot (bit 0 = bottom) that is set while the slot provably holds ``this``
_ThisState = Tuple[int, int]


def _holds_this(state: Optional[_ThisState], below_top: int) -> bool:
    """Is the slot ``below_top`` entries under the top provably ``this``?"""
    if state is None:
        return False
    depth, mask = state
    return depth > below_top and bool(mask >> (depth - 1 - below_top) & 1)


class RewriteStats:
    """Counts of each transformation (reported by the Table 2 bench)."""

    def __init__(self) -> None:
        self.instantiations = 0
        self.invocations = 0
        self.field_gets = 0
        self.field_sets = 0
        self.this_peepholes = 0

    @property
    def total(self) -> int:
        return (
            self.instantiations + self.invocations + self.field_gets + self.field_sets
        )


def _expand_rewrite_targets(table: ClassTable, dependent: Set[str]) -> Set[str]:
    """A call through static type D must be rewritten when any subtype of D
    is dependent (the runtime receiver may be the dependent subclass): the
    user classes among the ancestors of the dependent classes."""
    out: Set[str] = set()
    for dep in dependent:
        try:
            out.update(table.ancestors(dep))
        except SemanticError:  # not in the table: nothing is called through it
            continue
    return {cls for cls in out if not table.classes[cls].is_builtin}


class _MethodRewriter:
    def __init__(
        self,
        program: BProgram,
        method: BMethod,
        plan: DistributionPlan,
        rewritten_classes: Set[str],
        call_targets: Set[str],
        stats: RewriteStats,
    ) -> None:
        self.program = program
        self.table = program.table
        self.method = method
        self.plan = plan
        self.rewritten_classes = rewritten_classes
        self.call_targets = call_targets
        self.stats = stats

    # -- pairing of NEW with its INVOKESPECIAL ------------------------------
    def _pair_allocations(self) -> Dict[int, int]:
        pairs: Dict[int, int] = {}
        pending: List[int] = []
        for idx, ins in enumerate(self.method.code):
            if ins.op == op.NEW:
                pending.append(idx)
            elif ins.op == op.INVOKESPECIAL and ins.b == "<init>":
                if not pending or self.method.code[pending[-1]].a != ins.a:
                    # superclass constructor chain call inside a <init>
                    # prologue: no allocation to pair with
                    continue
                pairs[idx] = pending.pop()
        return pairs

    # -- 'this'-ness tracking -------------------------------------------------
    def _thisness(self) -> List[Optional[_ThisState]]:
        """Forward dataflow over the *flat* code of an instance method: for
        each symbolic instruction index, the abstract operand stack on entry
        (``None`` for LABELs and unreachable code) — its depth as the
        verifier found it, and the bits of the slots that hold ``this``.
        Merge is AND of the masks, so a mask only ever loses bits and the
        worklist drains after at most ``depth + 1`` visits per
        instruction."""
        flat = verified(self.method, self.table)
        instrs = flat.instrs
        depths = flat.depths
        effects = op.STACK_EFFECT
        masks: List[Optional[int]] = [None] * len(instrs)
        masks[0] = 0
        work = [0]
        while work:
            i = work.pop()
            while True:  # straight on to the last successor changed here
                mask = masks[i]
                depth = depths[i]
                ins = instrs[i]
                o = ins.op
                if o == op.DUP:
                    mask |= (mask >> (depth - 1) & 1) << depth
                elif o == op.ALOAD and ins.a == 0:
                    mask |= 1 << depth
                else:
                    pops = effects[o][0] if o in effects \
                        else stack_effect(ins, self.table)[0]
                    mask &= (1 << (depth - pops)) - 1
                nxt = -1
                for s in successors(ins, i):
                    seen = masks[s]
                    if seen is None:
                        masks[s] = mask
                    elif seen & mask != seen:
                        masks[s] = seen & mask
                    else:
                        continue
                    if nxt >= 0:
                        work.append(nxt)
                    nxt = s
                if nxt < 0:
                    break
                i = nxt

        # map back to symbolic indices (LABELs get None)
        reached = iter([
            None if m is None else (d, m) for d, m in zip(depths, masks)
        ])
        return [
            None if ins.op == op.LABEL else next(reached)
            for ins in self.method.code
        ]

    # -- the rewrite ----------------------------------------------------------
    def rewrite(self) -> Optional[List[Instr]]:
        """The method's code after rewriting, or ``None`` when nothing in it
        changes.  The method itself is left alone."""
        code = self.method.code
        pairs = self._pair_allocations()
        rewritten_news = {
            new_idx for new_idx in pairs.values()
            if code[new_idx].a in self.rewritten_classes
        }
        accesses = False
        for ins in code:
            if ins.op in _ACCESS_OPS and ins.a in self.call_targets:
                accesses = True
                break
        if not rewritten_news and not accesses:
            return None
        # only an instance method ever has ``this`` on its stack
        thisness = (
            self._thisness() if accesses and not self.method.is_static
            else [None] * len(code)
        )

        new_code: List[Instr] = []
        skip: Set[int] = set()
        changed = False
        for idx, ins in enumerate(code):
            if idx in skip:
                continue
            if idx in rewritten_news:
                # drop NEW + DUP; the create factory replaces them
                if idx + 1 >= len(code) or code[idx + 1].op != op.DUP:
                    raise CompileError(
                        f"{self.method.qualified}: NEW without DUP at {idx}"
                    )
                skip.add(idx + 1)
                changed = True
                continue
            if (
                ins.op == op.INVOKESPECIAL
                and ins.b == "<init>"
                and pairs.get(idx) in rewritten_news
            ):
                cls = ins.a
                nargs = ins.c
                home = self.plan.home_of_site(self.method.qualified, idx, cls)
                new_code.append(Instr(op.PACK, nargs, line=ins.line))
                new_code.append(Instr(op.LDC, home, "I", line=ins.line))
                new_code.append(Instr(op.LDC, cls, "S", line=ins.line))
                new_code.append(
                    Instr(op.INVOKESTATIC, DEPENDENT_OBJECT, "create", 3, ins.line)
                )
                self.stats.instantiations += 1
                changed = True
                continue
            if ins.op == op.INVOKEVIRTUAL and ins.a in self.call_targets:
                nargs = ins.c
                if _holds_this(thisness[idx], nargs):
                    self.stats.this_peepholes += 1
                    new_code.append(ins)
                    continue
                mi = self.table.resolve_method(ins.a, ins.b)
                ret = mi.ret if mi is not None else None
                acc = (
                    INVOKE_METHOD_VOID
                    if ret is VOID
                    else INVOKE_METHOD_HASRETURN
                )
                new_code.append(Instr(op.PACK, nargs, line=ins.line))
                new_code.append(Instr(op.LDC, acc, "I", line=ins.line))
                new_code.append(Instr(op.LDC, ins.b, "S", line=ins.line))
                new_code.append(
                    Instr(op.INVOKEVIRTUAL, DEPENDENT_OBJECT, "access", 3, ins.line)
                )
                if ret is VOID:
                    new_code.append(Instr(op.POP, line=ins.line))
                elif isinstance(ret, ClassType) and ret.name in self.program.classes:
                    new_code.append(Instr(op.CHECKCAST, ret.name, line=ins.line))
                self.stats.invocations += 1
                changed = True
                continue
            if ins.op in (op.GETFIELD, op.PUTFIELD) and ins.a in self.call_targets:
                is_put = ins.op == op.PUTFIELD
                if _holds_this(thisness[idx], 1 if is_put else 0):
                    self.stats.this_peepholes += 1
                    new_code.append(ins)
                    continue
                fi = self.table.resolve_field(ins.a, ins.b)
                if is_put:
                    new_code.append(Instr(op.PACK, 1, line=ins.line))
                    new_code.append(Instr(op.LDC, FIELD_SET, "I", line=ins.line))
                    self.stats.field_sets += 1
                else:
                    new_code.append(Instr(op.PACK, 0, line=ins.line))
                    new_code.append(Instr(op.LDC, FIELD_GET, "I", line=ins.line))
                    self.stats.field_gets += 1
                new_code.append(Instr(op.LDC, ins.b, "S", line=ins.line))
                new_code.append(
                    Instr(op.INVOKEVIRTUAL, DEPENDENT_OBJECT, "access", 3, ins.line)
                )
                if is_put:
                    new_code.append(Instr(op.POP, line=ins.line))
                elif fi is not None and isinstance(fi.ty, ClassType) and (
                    fi.ty.name in self.program.classes
                ):
                    new_code.append(Instr(op.CHECKCAST, fi.ty.name, line=ins.line))
                changed = True
                continue
            new_code.append(ins)
        return new_code if changed else None


def rewrite_program(
    program: BProgram, plan: DistributionPlan
) -> Tuple[BProgram, RewriteStats]:
    """Return a rewritten **copy** of ``program`` for ``plan`` (the original
    stays intact for the centralized baseline), plus transformation stats."""
    stats = RewriteStats()
    out = program.copy()
    rewritten_classes = plan.rewritten_classes()
    if not rewritten_classes:
        return out, stats
    call_targets = _expand_rewrite_targets(program.table, rewritten_classes)
    # analyse the original's methods (their flat code is usually cached by
    # the analyses that ran before) and write into the copy
    for name, bclass in program.classes.items():
        for mname, method in bclass.methods.items():
            new_code = _MethodRewriter(
                program, method, plan, rewritten_classes, call_targets, stats
            ).rewrite()
            if new_code is not None:
                target = out.classes[name].methods[mname]
                target.code = new_code
                target.invalidate()
    return out, stats
