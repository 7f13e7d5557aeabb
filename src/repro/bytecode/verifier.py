"""Bytecode verifier: the one static walk of a method's control flow and
operand-stack depth.

A lightweight analogue of the JVM verifier: abstract interpretation of the
operand-stack *depth* over all paths, following
:func:`~repro.bytecode.model.successors`.  It catches the bug classes the
communication rewriter could introduce (unbalanced PACK/LDC insertions,
missing POP after void accesses, branch-depth mismatches) before a program
reaches the interpreter: :func:`repro.vm.loader.load_program` verifies every
program it loads — the compiled original, every rewritten copy, every
generated fuzz world.

Each method is walked once.  :func:`verified` keeps what the walk found on
the method's :class:`~repro.bytecode.model.FlatCode` (``depths``: entry depth
per instruction, ``-1`` where unreachable; ``max_depth``), where it lives
until the code changes (``BMethod.emit`` / ``invalidate`` drop the flat
form).  The quad builder (block entry depths, register count), the
rewriter's ``this`` analysis and the JIT's inlining check read it instead
of walking again.
"""

from __future__ import annotations

from array import array
from typing import Dict

from repro.bytecode import opcodes as op
from repro.bytecode.model import BMethod, BProgram, FlatCode, stack_effect, successors
from repro.errors import ReproError
from repro.lang.types import VOID


class VerifyError(ReproError):
    """Raised when bytecode violates stack discipline; the message names
    the instruction as ``Class.method@pc``."""


#: a generous per-method operand stack bound (sanity, not a JVM limit)
MAX_STACK = 4096


def verified(method: BMethod, table) -> FlatCode:
    """``method``'s flat code, verified (walked on first use only).

    Checks, on every path from the entry:

    * no stack underflow, and no depth past :data:`MAX_STACK`;
    * the same depth wherever paths join;
    * control never falls off the end, and reaches every return with
      nothing else on the stack;
    * value-returning methods return a value, void ones do not.

    Raises :class:`VerifyError` naming the first bad instruction."""
    flat = method.flat()
    if flat.depths is None:
        _walk(method, flat, table)
    return flat


def _walk(method: BMethod, flat: FlatCode, table) -> None:
    instrs = flat.instrs
    n = len(instrs)
    where = method.qualified
    if n == 0:
        raise VerifyError(f"{where}@0: empty code")
    effects = op.STACK_EFFECT
    returns = op.RETURNS
    void = method.ret_type is VOID
    depths = array("h", [-1]) * n
    depths[0] = 0
    deepest = 0
    work = [0]
    while work:
        i = work.pop()
        depth = depths[i]
        while True:  # straight on to the last successor seen first here
            ins = instrs[i]
            o = ins.op
            if o in effects:
                pops, pushes = effects[o]
            else:
                try:
                    pops, pushes = stack_effect(ins, table)
                except ReproError as exc:
                    raise VerifyError(f"{where}@{i}: {exc}") from exc
            if depth < pops:
                raise VerifyError(
                    f"{where}@{i}: stack underflow ({o} pops {pops}, "
                    f"depth {depth})"
                )
            depth += pushes - pops
            if depth > deepest:
                if depth > MAX_STACK:
                    raise VerifyError(f"{where}@{i}: stack overflow")
                deepest = depth
            if o in returns:
                if depth:
                    raise VerifyError(
                        f"{where}@{i}: {depth} values left on stack at return"
                    )
                if void and o != op.RETURN:
                    raise VerifyError(f"{where}@{i}: value return in void method")
                if not void and o == op.RETURN:
                    raise VerifyError(f"{where}@{i}: bare return in value method")
                break
            nxt = -1
            for s in successors(ins, i):
                if s >= n:
                    raise VerifyError(
                        f"{where}@{i}: control flow falls off the end"
                    )
                known = depths[s]
                if known < 0:
                    depths[s] = depth
                    if nxt >= 0:
                        work.append(nxt)
                    nxt = s
                elif known != depth:
                    raise VerifyError(
                        f"{where}@{s}: inconsistent stack depth at join "
                        f"({known} vs {depth})"
                    )
            if nxt < 0:
                break
            i = nxt
    flat.depths = depths
    flat.max_depth = deepest


def verify_method(method: BMethod, table) -> int:
    """Verify ``method`` (see :func:`verified`); returns its maximum
    operand-stack depth."""
    return verified(method, table).max_depth


def verify_program(program: BProgram) -> Dict[str, int]:
    """Verify every method; returns max stack depth per qualified name."""
    out: Dict[str, int] = {}
    for bclass in program.classes.values():
        for method in bclass.methods.values():
            out[method.qualified] = verified(method, program.table).max_depth
    return out
