"""repro.testing.oracle: clean scenarios pass, injected VM faults are
caught with minimized replayable counterexamples, Experiment.conformance
works, and the degenerate worlds all hold the equivalence claim."""

import pytest

from repro.api import Experiment
from repro.testing import (
    GenConfig,
    Scenario,
    check_scenario,
    degenerate_worlds,
    generate_program,
    run_fuzz,
    temp_workload,
)


#: the paper's two-node testbed on the simulator alone
PAPER = degenerate_worlds()[1]._replace(backends=("sim",))


def _scenario(seed=7, n_classes=2, world=None, **cfg_kwargs):
    spec = generate_program(GenConfig(seed=seed, n_classes=n_classes,
                                      **cfg_kwargs))
    return Scenario(
        name=f"t-{seed}",
        source=spec.render(),
        world=world if world is not None else PAPER,
        spec=spec,
        gen_seed=seed,
    )


def test_clean_scenario_passes():
    out = check_scenario(_scenario())
    assert out.ok, [d.to_dict() for d in out.divergences]
    assert out.checks_run > 5
    assert out.reference["stdout"][-1].startswith("digest:")


@pytest.mark.parametrize(
    "world", degenerate_worlds(),
    ids=lambda w: (
        f"k{w.partition.nparts}/n{w.cluster.size}/{w.partition.granularity}"
        f"/{w.cluster.network}/{'+'.join(w.backends)}/{w.backend.engine}"
    ),
)
def test_degenerate_worlds_hold_equivalence(world):
    """1-node, wide-16, slow-wireless/async, object-granularity: the same
    generated program must conform everywhere."""
    out = check_scenario(_scenario(seed=3, world=world))
    assert out.ok, [d.to_dict() for d in out.divergences]


def test_faulting_scenario_skips_distributed_but_checks_vm():
    # seed chosen so the program faults: find one deterministically
    for seed in range(60):
        sc = _scenario(seed=seed, allow_faults=True)
        out = check_scenario(sc)
        if out.faulted:
            assert out.ok  # both engines agreed on the fault
            assert out.reference["error"] is not None
            return
    pytest.skip("no faulting seed in range (generator changed?)")


def test_injected_vm_fault_is_caught_and_minimized(monkeypatch):
    """The acceptance scenario: a deliberately injected VM fault (the fast
    path overcharges one cycle per block) must be caught by the oracle and
    reported as a minimized, replayable counterexample entry."""
    from repro.testing import CorpusEntry, replay_entry

    monkeypatch.setenv("REPRO_VM_INJECT_OVERCHARGE", "1")
    report, _ = run_fuzz(seed=0, budget=2, max_failures=1)
    assert not report.ok
    entry = report.failures[0]
    assert isinstance(entry, CorpusEntry) and entry.kind == "counterexample"
    assert any(d["check"] == "vm.cycles" for d in entry.meta["divergences"])
    # minimized: the shrinker got rid of (at least) most of the program
    assert (entry.meta["minimized_statements"]
            <= entry.meta["original_statements"])
    assert entry.meta["shrink_evals"] > 0
    assert "FuzzMain" in entry.source
    assert "vm.cycles" in report.summary()
    # replayable: the minimized source alone still reproduces while the
    # fault is injected...
    divs = replay_entry(entry)
    assert any(d.check == "vm.cycles" for d in divs)
    # ...and stops reproducing once the fault is fixed
    monkeypatch.delenv("REPRO_VM_INJECT_OVERCHARGE")
    assert replay_entry(entry) == []


def test_run_fuzz_small_budget_clean():
    report, golden = run_fuzz(seed=1, budget=6, collect_golden=True)
    assert report.ok, report.summary()
    assert report.scenarios == 6
    assert report.checks > 6 * 5
    # every conforming scenario (faulting ones included — their fault text
    # is the gold) is collectible as a corpus entry
    assert len(golden) == 6


def test_experiment_conformance_entry_point():
    """Experiment.conformance(): the oracle on a hand-picked configuration,
    through the public API."""
    exp = Experiment.from_options("bank", backend="sim")
    outcome = exp.conformance()
    assert outcome.ok, [d.to_dict() for d in outcome.divergences]
    assert outcome.checks_run >= 9
    assert outcome.reference["stdout"]


def test_experiment_conformance_checks_sim_determinism():
    """Every undegraded sim run is also held byte-identical across the VM
    tiers: 10 vm.* checks, 4 dist.* checks and the two sim.determinism
    checks (fast and compiled against the reference cluster run)."""
    exp = Experiment.from_options("bank", backend="sim")
    outcome = exp.conformance()
    assert outcome.ok, [d.to_dict() for d in outcome.divergences]
    assert outcome.checks_run == 10 + 4 + 2


def test_sim_determinism_sees_a_nodestats_difference(monkeypatch):
    """One NodeStats field off in the compiled tier's cluster run is a
    sim.determinism.compiled divergence, and nothing else."""
    from repro.runtime import executor

    real_run = executor.DistributedExecutor.run

    def run(self, *args, **kwargs):
        result = real_run(self, *args, **kwargs)
        if self.engine == "compiled":
            result.node_stats[0].heap_bytes += 1
        return result

    monkeypatch.setattr(executor.DistributedExecutor, "run", run)
    outcome = Experiment.from_options("bank", backend="sim").conformance()
    assert [d.check for d in outcome.divergences] == ["sim.determinism.compiled"]


def test_temp_workload_registers_and_cleans_up():
    from repro.workloads import WORKLOADS

    source = "class M { static void main(String[] a) { Sys.println(1); } }"
    with temp_workload(source) as name:
        assert name in WORKLOADS
        assert WORKLOADS.get(name).source("test") == source
    assert name not in WORKLOADS


def test_temp_workload_cleans_up_on_error():
    from repro.workloads import WORKLOADS

    with pytest.raises(RuntimeError):
        with temp_workload("class M {}") as name:
            raise RuntimeError("boom")
    assert name not in WORKLOADS
