"""Loop-nesting estimation on bytecode.

``loop_depth_per_index`` counts, per flat instruction index, how many
backward-branch spans cover it — a sound nesting-depth estimate for the
structured code MJ's compiler emits.  The CRG scaler uses it to weight
access statements by execution-frequency estimates (paper §3: static
heuristics in lieu of profile data), and the object-set analysis uses the
same spans for ``*`` summary detection."""

from __future__ import annotations

from typing import List

from repro.bytecode import opcodes as op
from repro.bytecode.model import BMethod, successors


def loop_depth_per_index(method: BMethod) -> List[int]:
    flat = method.flat()
    depth = [0] * len(flat)
    for j, ins in enumerate(flat):
        if ins.op in op.BRANCHES:
            target = successors(ins, j)[0]
            if target <= j:
                for i in range(target, j + 1):
                    depth[i] += 1
    return depth


#: execution-frequency multiplier per loop-nesting level (capped)
LOOP_SCALE = 8.0
MAX_SCALED_DEPTH = 3


def frequency_factor(depth: int) -> float:
    return LOOP_SCALE ** min(depth, MAX_SCALED_DEPTH)
