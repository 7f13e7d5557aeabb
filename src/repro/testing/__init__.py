"""``repro.testing`` — the scenario fuzzing & conformance subsystem.

Four layers, composable from tests, the :class:`~repro.api.Experiment` API
(``Experiment.conformance()``) and the ``repro fuzz`` CLI:

* :mod:`repro.testing.seeds`    — the one ``REPRO_TEST_SEED`` knob every
  randomized test, bench and fuzzer derives from;
* :mod:`repro.testing.genprog`  — seeded, size-parameterized, *shrinkable*
  multi-class MJ program generation;
* :mod:`repro.testing.genworld` — seeded worlds: the partition, cluster
  and backend sections of an ``ExperimentConfig`` plus the backends to
  agree across (degenerate 1-node up to wide 16-node heterogeneous
  topologies);
* :mod:`repro.testing.oracle`   — the cross-backend differential
  conformance oracle; each failure is minimized and recorded as a
  replayable ``counterexample`` corpus entry;
* :mod:`repro.testing.corpus`   — the golden-trace corpus under
  ``tests/corpus/``: every past counterexample is a permanent regression
  test (``repro fuzz --replay tests/corpus``).
"""

from repro._lazy import lazy_exports

# resolved on first use: ``genprog`` and ``seeds`` are imported by benchmarks
# and workloads that never run the oracle, the world generator or the corpus
__getattr__, __all__ = lazy_exports(__name__, {
    "seeds": ("DEFAULT_SEED", "ENV_VAR", "base_seed", "derive_seed"),
    "genprog": (
        "ARRAY_LEN", "GenConfig", "ProgramSpec", "generate_program",
        "generate_source", "shrink_program",
    ),
    "genworld": (
        "SPEED_PALETTE", "World", "degenerate_worlds", "generate_world",
    ),
    "oracle": (
        "ConformanceOutcome", "ConformanceReport", "Divergence", "Scenario",
        "check_experiment", "check_scenario", "minimize_scenario",
        "observe_vm", "run_fuzz", "temp_workload",
    ),
    "corpus": (
        "CorpusEntry", "entry_from_outcome", "load_corpus", "replay_entry",
    ),
})
