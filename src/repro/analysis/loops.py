"""Loop-nesting estimation on bytecode.

:func:`loop_levels` gives, per flat instruction index, how many
backward-branch spans cover it — a sound nesting-depth estimate for the
structured code MJ's compiler emits — capped at :data:`MAX_SCALED_DEPTH`,
the deepest level any caller tells apart.  The CRG scaler weights access
statements by :data:`FREQUENCY` of their level (paper §3: static heuristics
in lieu of profile data), the object-set analysis reads a level above 0 as
loop membership for ``*`` summary detection, and :func:`static_cpu` weights
a method's bytecode cost the same way for the resource model and the
planner.

Both are static facts of one flat form, so each is computed once, on first
use, and kept on the :class:`~repro.bytecode.model.FlatCode`; a change to
the method's code builds a new flat form and with it new levels.
"""

from __future__ import annotations

from repro.bytecode import opcodes as op
from repro.bytecode.model import FlatCode

#: execution-frequency multiplier per loop-nesting level (capped)
LOOP_SCALE = 8
MAX_SCALED_DEPTH = 3
#: level -> how many times an instruction at that level is taken to run
FREQUENCY = tuple(LOOP_SCALE ** level for level in range(MAX_SCALED_DEPTH + 1))

#: byte -> byte + 1, capped: one more loop around a span of levels
_DEEPER = bytes(min(level + 1, MAX_SCALED_DEPTH) for level in range(256))


def loop_levels(flat: FlatCode) -> bytes:
    """The capped loop level of every instruction of ``flat`` (cached)."""
    levels = flat.levels
    if levels is None:
        levels = flat.levels = _levels_of(flat.instrs)
    return levels


def _levels_of(instrs) -> bytes:
    levels = bytearray(len(instrs))
    branches, compares = op.BRANCHES, op.CMP_BRANCHES
    for j, ins in enumerate(instrs):
        o = ins.op
        if o in branches:
            target = ins.b if o in compares else ins.a
            if target <= j:
                levels[target:j + 1] = levels[target:j + 1].translate(_DEEPER)
    return bytes(levels)


def static_cpu(flat: FlatCode) -> int:
    """``Σ cost × FREQUENCY[level]`` over ``flat``'s instructions (cached): the
    method's bytecode cost with instructions in loops counting more.  An
    exact integer, so summing methods' totals as floats gives the float a
    sum over all their instructions would."""
    cpu = flat.cpu
    if cpu is None:
        cpu = 0
        for ins, level in zip(flat.instrs, loop_levels(flat)):
            cpu += ins.cost * FREQUENCY[level]
        flat.cpu = cpu
    return cpu
