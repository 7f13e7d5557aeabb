"""The list-copy ``this`` analysis ``distgen/rewriter.py`` shipped before it
moved to ``(depth, bitmask)`` states, kept verbatim (``self.method`` /
``self.table`` became parameters) as the oracle of ``test_this_oracle.py``.
It runs on every method, copies the abstract stack per instruction, and
gives up silently after ``20 * n`` iterations.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.bytecode import opcodes as op
from repro.bytecode.model import BMethod, Instr
from repro.lang.symbols import ClassTable


def reference_thisness(method: BMethod, table: ClassTable) -> List[Optional[List[bool]]]:
    """Forward dataflow over the *flat* code: for each symbolic (non-
    LABEL) instruction index, the abstract operand stack as booleans —
    is this entry provably ``this``?  Merge is element-wise AND.  Static
    methods never push True, so every peephole stays off."""
    flat = method.flat()
    n = len(flat)
    states: List[Optional[List[bool]]] = [None] * n
    if n:
        states[0] = []
    work = [0] if n else []
    is_instance = not method.is_static

    def transfer(i: int, state: List[bool]) -> Optional[List[bool]]:
        ins = flat[i]
        sim = list(state)
        if ins.op == op.DUP:
            if not sim:
                return None
            sim.append(sim[-1])
            return sim
        try:
            pops, pushes = _sim_effect(ins, table)
        except Exception:
            return None
        if pops > len(sim):
            return None
        if pops:
            del sim[-pops:]
        push_this = ins.op == op.ALOAD and ins.a == 0 and is_instance
        sim.extend([push_this] * pushes)
        return sim

    def merge(a: Optional[List[bool]], b: List[bool]) -> Optional[List[bool]]:
        if a is None:
            return list(b)
        if len(a) != len(b):  # malformed; keep whichever, peepholes off
            return a
        return [x and y for x, y in zip(a, b)]

    iterations = 0
    while work and iterations < 20 * max(n, 1):
        iterations += 1
        i = work.pop()
        state = states[i]
        if state is None:
            continue
        out = transfer(i, state)
        ins = flat[i]
        succs: List[int] = []
        if ins.op == op.GOTO:
            succs = [ins.a]
        elif ins.op in op.CMP_BRANCHES:
            succs = [ins.b, i + 1]
        elif ins.op in op.BOOL_BRANCHES:
            succs = [ins.a, i + 1]
        elif ins.op in op.RETURNS:
            succs = []
        else:
            succs = [i + 1]
        if out is None:
            continue
        for s in succs:
            if not 0 <= s < n:
                continue
            merged = merge(states[s], out)
            if merged != states[s]:
                states[s] = merged
                work.append(s)

    # map back to symbolic indices (LABELs get None)
    out_states: List[Optional[List[bool]]] = []
    flat_idx = 0
    for ins in method.code:
        if ins.op == op.LABEL:
            out_states.append(None)
        else:
            out_states.append(states[flat_idx] if flat_idx < n else None)
            flat_idx += 1
    return out_states


def _sim_effect(ins: Instr, table: ClassTable) -> Tuple[int, int]:
    from repro.bytecode.model import stack_effect

    return stack_effect(ins, table)
