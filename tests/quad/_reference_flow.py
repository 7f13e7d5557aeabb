"""The block layout ``repro.quad.builder`` computed on its own before it read
the verifier's walk — its ``_find_leaders``, block-successor chain and
per-block stack-depth worklist, kept verbatim (``self`` became ``builder``,
and the result is returned instead of kept in locals) as the oracle of
``test_flow_oracle.py``."""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Set

from repro.bytecode import opcodes as op
from repro.bytecode.model import stack_effect
from repro.errors import CompileError


def _find_leaders(builder) -> List[int]:
    leaders: Set[int] = {0}
    for i, ins in enumerate(builder.flat):
        if ins.op in op.BRANCHES:
            target = ins.b if ins.op in op.CMP_BRANCHES else ins.a
            leaders.add(target)
            leaders.add(i + 1)
        elif ins.op in op.RETURNS:
            leaders.add(i + 1)
    return sorted(x for x in leaders if x < len(builder.flat))


def reference_layout(builder):
    """``(leaders, succs, depth_in, max_depth)`` as ``_Builder._layout``
    returns them."""
    if len(builder.flat) == 0:
        raise CompileError(f"{builder.bm.qualified}: empty method")
    leaders = _find_leaders(builder)
    # block id assignment: ENTRY=0, EXIT=1, body blocks 2.. in code order
    bid_of_leader: Dict[int, int] = {
        leader: i + 2 for i, leader in enumerate(leaders)
    }
    block_end: Dict[int, int] = {}
    for i, leader in enumerate(leaders):
        block_end[leader] = leaders[i + 1] if i + 1 < len(leaders) else len(builder.flat)

    def bid_at(index: int) -> int:
        pos = bisect_right(leaders, index) - 1
        return bid_of_leader[leaders[pos]]

    # --- successor computation on bytecode ranges
    succs: Dict[int, List[int]] = {}
    for leader in leaders:
        bid = bid_of_leader[leader]
        end = block_end[leader]
        last = builder.flat[end - 1]
        out: List[int] = []
        if last.op == op.GOTO:
            out = [bid_at(last.a)]
        elif last.op in op.CMP_BRANCHES:
            out = [bid_at(last.b)]
            if end < len(builder.flat):
                out.append(bid_at(end))
        elif last.op in op.BOOL_BRANCHES:
            out = [bid_at(last.a)]
            if end < len(builder.flat):
                out.append(bid_at(end))
        elif last.op in op.RETURNS:
            out = [1]
        else:
            if end < len(builder.flat):
                out = [bid_at(end)]
            else:
                out = [1]
        succs[bid] = out

    # --- entry stack depth per block (worklist)
    depth_in: Dict[int, int] = {bid_of_leader[0]: 0}
    max_depth = 0
    work = [0]
    seen = {0}
    while work:
        leader = work.pop()
        bid = bid_of_leader[leader]
        depth = depth_in[bid]
        for i in range(leader, block_end[leader]):
            pops, pushes = stack_effect(builder.flat[i], builder.table)
            depth -= pops
            if depth < 0:
                raise CompileError(
                    f"{builder.bm.qualified}: stack underflow at {i}"
                )
            depth += pushes
            max_depth = max(max_depth, depth)
        for s in succs[bid]:
            if s == 1:
                continue
            s_leader = leaders[s - 2]
            if s in depth_in:
                if depth_in[s] != depth:
                    raise CompileError(
                        f"{builder.bm.qualified}: inconsistent stack depth "
                        f"at BB{s}"
                    )
            else:
                depth_in[s] = depth
            if s_leader not in seen:
                seen.add(s_leader)
                work.append(s_leader)
    return leaders, succs, depth_in, max_depth
