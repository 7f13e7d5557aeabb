"""Experiment harness: per-table/figure reproduction code, the
content-addressed stage cache, and the batch sweep orchestrator.  The
stages themselves live in :mod:`repro.api.experiment`.

The heavy submodules import lazily (PEP 562): an eager ``sweep`` import
here would cycle back through ``repro.api.experiment`` →
``repro.harness.cache``.
"""

from repro.harness.cache import StageCache, default_cache, reset_default_cache

_EXPORTS = {
    "SweepRecord": "repro.harness.sweep",
    "SweepResult": "repro.harness.sweep",
    "SweepRunner": "repro.harness.sweep",
    "run_config": "repro.harness.sweep",
    "sweep_grid": "repro.harness.sweep",
}

__all__ = [
    "StageCache",
    "default_cache",
    "reset_default_cache",
    *sorted(_EXPORTS),
]


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
