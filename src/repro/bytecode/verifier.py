"""Bytecode verifier: static stack-discipline checking.

A lightweight analogue of the JVM verifier: abstract interpretation of the
operand-stack *depth* over all paths.  Catches the bug classes the
communication rewriter could introduce (unbalanced PACK/LDC insertions,
missing POP after void accesses, branch-depth mismatches) before a program
reaches the interpreter.  Used by tests and by ``verify_program`` callers
that want fail-fast loading.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bytecode import opcodes as op
from repro.bytecode.model import BMethod, BProgram, stack_effect
from repro.errors import ReproError


class VerifyError(ReproError):
    """Raised when bytecode violates stack discipline."""


#: a generous per-method operand stack bound (sanity, not a JVM limit)
MAX_STACK = 4096


def verify_method(method: BMethod, table) -> int:
    """Verify ``method``; returns the maximum operand-stack depth.

    Checks:
    * no stack underflow on any path;
    * consistent depth at every join point;
    * every path ends in a return instruction;
    * value-returning methods end with the matching typed return.
    """
    flat = method.flat()
    n = len(flat)
    if n == 0:
        raise VerifyError(f"{method.qualified}: empty code")
    depth_at: Dict[int, int] = {0: 0}
    work: List[int] = [0]
    max_depth = 0
    while work:
        i = work.pop()
        depth = depth_at[i]
        ins = flat[i]
        try:
            pops, pushes = stack_effect(ins, table)
        except Exception as exc:
            raise VerifyError(f"{method.qualified}@{i}: {exc}") from exc
        if depth - pops < 0:
            raise VerifyError(
                f"{method.qualified}@{i}: stack underflow "
                f"({ins.op} pops {pops}, depth {depth})"
            )
        out = depth - pops + pushes
        if out > MAX_STACK:
            raise VerifyError(f"{method.qualified}@{i}: stack overflow")
        max_depth = max(max_depth, out)

        succs: List[int] = []
        if ins.op == op.GOTO:
            succs = [ins.a]
        elif ins.op in op.CMP_BRANCHES:
            succs = [ins.b, i + 1]
        elif ins.op in op.BOOL_BRANCHES:
            succs = [ins.a, i + 1]
        elif ins.op in op.RETURNS:
            if out != 0:
                raise VerifyError(
                    f"{method.qualified}@{i}: {out} values left on stack at "
                    "return"
                )
            succs = []
        else:
            succs = [i + 1]
        for s in succs:
            if s >= n:
                raise VerifyError(
                    f"{method.qualified}@{i}: control flow falls off the end"
                )
            known = depth_at.get(s)
            if known is None:
                depth_at[s] = out
                work.append(s)
            elif known != out:
                raise VerifyError(
                    f"{method.qualified}@{s}: inconsistent stack depth at "
                    f"join ({known} vs {out})"
                )

    # terminal instruction type check (reachable returns only)
    from repro.lang.types import VOID

    want_void = method.ret_type is VOID
    for i, ins in enumerate(flat):
        if i not in depth_at:
            continue
        if ins.op in op.RETURNS:
            if want_void and ins.op != op.RETURN:
                raise VerifyError(
                    f"{method.qualified}@{i}: value return in void method"
                )
            if not want_void and ins.op == op.RETURN:
                raise VerifyError(
                    f"{method.qualified}@{i}: bare return in value method"
                )
    return max_depth


def verify_program(program: BProgram) -> Dict[str, int]:
    """Verify every method; returns max stack depth per qualified name."""
    out: Dict[str, int] = {}
    for bclass in program.classes.values():
        for method in bclass.methods.values():
            out[method.qualified] = verify_method(method, program.table)
    return out
