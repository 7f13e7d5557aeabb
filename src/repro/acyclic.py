"""The compile-side stages run with automatic garbage collection paused.

From parsing to rewriting, no stage leaves a reference cycle behind: what
it drops is freed by reference counting, and a ``gc.collect()`` after any of
them finds nothing, on every bundled workload and on generated programs of
8 to 96 classes (``tests/test_acyclic_stages.py``).  The collector's
automatic passes during those stages were pure cost — about 300 per
``pipeline_cold`` unit, each walking the unit's live artifacts and freeing
nothing.  :func:`acyclic` switches automatic collection off for one call and
back on afterwards only if it was on before, so a stage called from another
stage, or by a caller that switched the collector off itself, toggles
nothing.  The VM and the runtime are not paused: a running program may
build cycles of its own.
"""

from __future__ import annotations

import gc
from functools import wraps


def acyclic(stage):
    """Run ``stage`` with automatic collection off (see module docstring)."""

    @wraps(stage)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return stage(*args, **kwargs)
        gc.disable()
        try:
            return stage(*args, **kwargs)
        finally:
            gc.enable()

    return paused
