"""The differential conformance oracle.

The paper's central claim is an *equivalence*: distributing a sequential
program changes where code runs and what it costs, never what it computes.
This module checks that claim mechanically for arbitrary generated
scenarios, on two axes:

* **VM engines** — the fast and compiled tiers and the per-step reference
  interpreter must agree on cycles, steps, result, stdout and fault text
  for every program (:func:`observe_vm` / the ``vm.*`` checks);
* **Execution modes** — for every runtime backend a scenario's world names
  (``sim``, ``thread``, ``process``, ``tcp``), the distributed run must
  reproduce the centralized baseline's stdout byte-for-byte and its result
  exactly, with sane per-node statistics (the ``dist.*`` checks); on every
  undegraded simulator run, the reference, fast and compiled cluster
  executions must also be byte-identical down to NodeStats floats
  (``sim.determinism`` and ``sim.determinism.compiled``).

Every distributed check runs through :class:`repro.api.Experiment` — a
generated program is registered as a transient workload and flows through
the same typed configs, registries, stage cache and event plumbing as any
hand-written experiment (:func:`temp_workload`).

When a check fails, :func:`run_fuzz` minimizes the offending program with
:func:`repro.testing.genprog.shrink_program` and records it as a
``counterexample`` :class:`~repro.testing.corpus.CorpusEntry` that
reproduces the divergence from source alone — no generator state needed.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ReproError
from repro.testing.genprog import GenConfig, ProgramSpec, generate_program
from repro.testing.genworld import World, generate_world
from repro.testing.seeds import derive_seed

if TYPE_CHECKING:
    from repro.testing.corpus import CorpusEntry

__all__ = [
    "Divergence",
    "Scenario",
    "ConformanceOutcome",
    "ConformanceReport",
    "temp_workload",
    "observe_vm",
    "check_scenario",
    "check_experiment",
    "minimize_scenario",
    "run_fuzz",
]


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------
@dataclass
class Divergence:
    """One failed conformance check."""

    check: str      # e.g. "vm.cycles", "dist.stdout[thread]"
    message: str
    expected: Any = None
    actual: Any = None

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "message": self.message,
            "expected": repr(self.expected),
            "actual": repr(self.actual),
        }


@dataclass
class Scenario:
    """One conformance scenario: a program plus the world it runs in."""

    name: str
    source: str
    world: World
    #: structured form, present for generated programs (enables shrinking)
    spec: Optional[ProgramSpec] = None
    gen_seed: Optional[int] = None

    def vm_only(self) -> bool:
        return not self.world.backends


@dataclass
class ConformanceOutcome:
    """What the oracle observed for one scenario."""

    name: str
    checks_run: int = 0
    divergences: List[Divergence] = field(default_factory=list)
    #: the program faults under sequential execution (distributed checks
    #: are skipped; the fault itself is differentially checked)
    faulted: bool = False
    #: reference-path observables — the golden trace corpus entries store
    reference: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "checks_run": self.checks_run,
            "faulted": self.faulted,
            "divergences": [d.to_dict() for d in self.divergences],
        }


@dataclass
class ConformanceReport:
    """The outcome of one fuzzing or replay session."""

    seed: int
    budget: int
    scenarios: int = 0
    checks: int = 0
    faulted: int = 0
    #: one ``counterexample`` corpus entry per minimized failure
    failures: List["CorpusEntry"] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "scenarios": self.scenarios,
            "checks": self.checks,
            "faulted": self.faulted,
            "elapsed_s": self.elapsed_s,
            "ok": self.ok,
            "failures": [f.to_dict() for f in self.failures],
        }

    def summary(self) -> str:
        lines = [
            f"fuzz seed={self.seed}: {self.scenarios} scenarios, "
            f"{self.checks} checks, {self.faulted} faulting programs, "
            f"{len(self.failures)} failures in {self.elapsed_s:.1f}s"
        ]
        for f in self.failures:
            checks = ", ".join(
                sorted({d["check"] for d in f.meta["divergences"]})
            )
            lines.append(
                f"  FAIL {f.name}: {checks} (shrunk "
                f"{f.meta['original_statements']} -> "
                f"{f.meta['minimized_statements']} statements)"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# transient workloads: generated programs through the real plumbing
# ---------------------------------------------------------------------------
_counter = itertools.count()


@contextlib.contextmanager
def temp_workload(source: str, name: Optional[str] = None) -> Iterator[str]:
    """Register MJ ``source`` as a workload for the duration of the block,
    so it is addressable by every registry-driven layer (configs,
    Experiment, stage cache), then unregister it."""
    from repro.workloads import WORKLOADS, Workload

    wname = name or f"_fuzz{next(_counter)}"
    WORKLOADS.register(
        wname,
        Workload(wname, "generated", lambda size, _src=source: _src,
                 "transient fuzz scenario"),
    )
    try:
        yield wname
    finally:
        WORKLOADS.unregister(wname)


# ---------------------------------------------------------------------------
# observations
# ---------------------------------------------------------------------------
def observe_vm(loaded, engine: str) -> Dict[str, Any]:
    """One full sequential run on the chosen execution tier ("reference",
    "fast", "compiled"); faults are recorded, not raised (their text is part
    of the observation)."""
    from repro.errors import VMError
    from repro.vm.interpreter import Machine, forced_engine, run_sync

    machine = Machine(loaded)
    machine.statics = loaded.fresh_statics()
    machine.call_bmethod(loaded.main_method(), None, [None])
    error = None
    with forced_engine(engine):
        try:
            run_sync(machine)
        except VMError as exc:
            error = str(exc)
    return {
        "cycles": machine.cycles,
        "steps": machine.steps,
        "result": machine.result,
        "stdout": list(machine.stdout),
        "error": error,
    }


def _compare_vm(
    actual: Dict[str, Any], ref: Dict[str, Any], prefix: str = "vm",
    label: str = "fast path",
) -> List[Divergence]:
    divs = []
    for key in ("error", "stdout", "result", "cycles", "steps"):
        if actual[key] != ref[key]:
            divs.append(
                Divergence(
                    f"{prefix}.{key}",
                    f"{label} diverged from the per-step oracle on {key}",
                    expected=ref[key],
                    actual=actual[key],
                )
            )
    return divs


def _vm_differential(outcome: ConformanceOutcome, loaded) -> bool:
    """The engine-equivalence half of every check: observe all three VM
    tiers against the per-step reference, record divergences and the
    reference observation on ``outcome``.  Returns True when the program
    faults (distributed checks don't apply)."""
    fast = observe_vm(loaded, engine="fast")
    compiled = observe_vm(loaded, engine="compiled")
    ref = observe_vm(loaded, engine="reference")
    outcome.checks_run += 10
    outcome.divergences.extend(_compare_vm(fast, ref))
    outcome.divergences.extend(
        _compare_vm(compiled, ref, prefix="vm.compiled",
                    label="compiled tier")
    )
    outcome.reference = ref
    if ref["error"] is not None:
        outcome.faulted = True
        return True
    return False


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------
def _check_backend(exp, backend: str) -> Tuple[List[Divergence], int]:
    """Distributed-vs-baseline checks for one Experiment (one backend).

    Fault-bearing worlds weaken the contract in exactly one way: a world
    whose :class:`~repro.runtime.faults.FaultPlan` plans crashes or
    partitions (``not transient_only``) may *degrade* — then the run must
    still return (never hang or raise), must carry structured fault
    evidence, and must report stats for every node, but its outputs are
    not comparable to the baseline.  Transient-only plans (drop /
    duplication / delay) are maskable by retry, so every equality check
    stays in force for them — and for replicated worlds, crash or not,
    whenever the run completes undegraded."""
    divs: List[Divergence] = []
    checks = 0
    plan_faults = exp.config.cluster.faults
    rec_plan = exp.config.cluster.recovery
    recovering = rec_plan is not None and rec_plan.enabled
    crashy = plan_faults is not None and not plan_faults.transient_only
    try:
        res = exp.run()
    except ReproError as exc:
        return (
            [Divergence(f"exp.crash[{backend}]",
                        f"{type(exc).__name__}: {exc}")],
            1,
        )
    if crashy and res.distributed.degraded:
        checks += 1
        if not res.distributed.faults:
            divs.append(
                Divergence(
                    f"dist.faults[{backend}]",
                    "degraded run must carry structured fault records",
                    actual=res.distributed.faults,
                )
            )
        checks += 1
        cluster = exp.cluster()
        stats = res.distributed.node_stats
        if len(stats) != cluster.size:
            divs.append(
                Divergence(
                    f"dist.nodestats[{backend}]",
                    f"degraded run must still report {cluster.size} node stats",
                    expected=cluster.size,
                    actual=len(stats),
                )
            )
        if recovering:
            # the recovery contract: a run may only degrade when something
            # genuinely unmaskable happened (the main node itself died, a
            # replay had to be aborted, the network gave out).  If every
            # fault on record is a maskable crash of a non-main node with
            # no abort evidence, the recovery tier silently failed.
            checks += 1
            main_node = exp.plan().main_partition
            records = res.distributed.faults
            maskable = {"crash", "worker_lost", "lease_expired"}
            silent_failure = bool(records) and all(
                f.kind in maskable and f.node != main_node for f in records
            )
            if silent_failure:
                divs.append(
                    Divergence(
                        f"recovery.masked[{backend}]",
                        "every fault was a maskable non-main crash yet the "
                        "run degraded without abort evidence — the recovery "
                        "tier should have masked them",
                        actual=[(f.node, f.kind) for f in records],
                    )
                )
        return divs, checks
    if recovering:
        # an undegraded run that absorbed crashes must say so: each crashed
        # node needs a matching "recovered" record (the evidence the report
        # and the corpus goldens key on)
        checks += 1
        crashed = {
            f.node
            for f in res.distributed.faults
            if f.kind in ("crash", "worker_lost")
        }
        masked = {f.node for f in res.distributed.recovered}
        if not crashed <= masked:
            divs.append(
                Divergence(
                    f"recovery.evidence[{backend}]",
                    "undegraded run absorbed crashes without RECOVERED "
                    "records naming the dead nodes",
                    expected=sorted(crashed),
                    actual=sorted(masked),
                )
            )
    seq = exp.baseline()
    checks += 1
    if list(res.stdout) != list(seq.stdout):
        divs.append(
            Divergence(
                f"dist.stdout[{backend}]",
                "distributed stdout diverged from the sequential baseline",
                expected=seq.stdout,
                actual=res.stdout,
            )
        )
    checks += 1
    if res.distributed.result != seq.result:
        divs.append(
            Divergence(
                f"dist.result[{backend}]",
                "distributed result diverged from the sequential baseline",
                expected=seq.result,
                actual=res.distributed.result,
            )
        )
    checks += 1
    cluster = exp.cluster()
    stats = res.distributed.node_stats
    seq_objects = seq.node_stats[0].heap_objects if seq.node_stats else 0
    dist_objects = sum(ns.heap_objects for ns in stats)
    if len(stats) != cluster.size or dist_objects < seq_objects:
        divs.append(
            Divergence(
                f"dist.nodestats[{backend}]",
                f"expected {cluster.size} node stats covering >= "
                f"{seq_objects} heap objects",
                expected=(cluster.size, seq_objects),
                actual=(len(stats), dist_objects),
            )
        )
    checks += 1
    if res.distributed.makespan_s <= 0.0:
        divs.append(
            Divergence(
                f"dist.makespan[{backend}]",
                "distributed makespan must be positive",
                actual=res.distributed.makespan_s,
            )
        )
    if backend == "sim":
        import dataclasses as _dc

        def cluster_run(engine: str):
            run = exp.execute(engine)
            return (
                run.stdout, run.result, run.makespan_s,
                run.total_messages, run.total_bytes,
                [_dc.asdict(s) for s in run.node_stats],
            )

        ref_obs = cluster_run("reference")
        for engine in ("fast", "compiled"):
            checks += 1
            obs = cluster_run(engine)
            if obs != ref_obs:
                divs.append(
                    Divergence(
                        "sim.determinism"
                        + ("" if engine == "fast" else f".{engine}"),
                        f"{engine}-tier cluster execution is not "
                        "byte-identical to the reference path on the "
                        "simulator",
                        expected=ref_obs,
                        actual=obs,
                    )
                )
    return divs, checks


def check_experiment(exp) -> ConformanceOutcome:
    """Conformance-check one configured :class:`~repro.api.Experiment`:
    the VM-engine differential on its compiled workload, then the
    distributed-vs-baseline checks on its configured backend.  This is what
    :meth:`Experiment.conformance` calls."""
    outcome = ConformanceOutcome(name=exp.config.label())
    if _vm_differential(outcome, exp.compile().loaded):
        return outcome
    divs, checks = _check_backend(exp, exp.config.backend.name)
    outcome.divergences.extend(divs)
    outcome.checks_run += checks
    return outcome


def check_scenario(
    scenario: Scenario,
    cache=None,
    vm_only: bool = False,
) -> ConformanceOutcome:
    """Run every conformance check a scenario asks for: the VM-engine
    differential, then — unless the program faults or ``vm_only`` — the
    distributed checks on each backend of the scenario's world."""
    from repro.api.experiment import Experiment
    from repro.harness.cache import StageCache

    cache = cache if cache is not None else StageCache()
    outcome = ConformanceOutcome(name=scenario.name)
    with temp_workload(scenario.source) as wname:
        world = scenario.world
        base_exp = Experiment(
            world.experiment_config(wname, "sim"), cache=cache
        )
        if _vm_differential(outcome, base_exp.compile().loaded):
            return outcome
        if vm_only or scenario.vm_only():
            return outcome
        for backend in world.backends:
            exp = (
                base_exp
                if backend == "sim"
                else Experiment(
                    world.experiment_config(wname, backend), cache=cache
                )
            )
            divs, checks = _check_backend(exp, backend)
            outcome.divergences.extend(divs)
            outcome.checks_run += checks
    return outcome


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------
def minimize_scenario(
    scenario: Scenario,
    outcome: ConformanceOutcome,
    max_evals: int = 120,
) -> Tuple[Scenario, ConformanceOutcome, int]:
    """Shrink a failing generated scenario while it still reproduces at
    least one of the original divergence kinds.  Returns the minimized
    scenario, its (re-checked) outcome and the predicate evaluations
    used."""
    from repro.testing.genprog import shrink_program

    if scenario.spec is None:
        return scenario, outcome, 0
    target = {d.check for d in outcome.divergences}
    # pure VM divergences replay without the (expensive) distributed grid
    vm_only = all(c.startswith("vm.") for c in target)

    def reproduces(spec: ProgramSpec) -> bool:
        cand = Scenario(
            name=scenario.name, source=spec.render(), world=scenario.world,
            spec=spec, gen_seed=scenario.gen_seed,
        )
        out = check_scenario(cand, vm_only=vm_only)
        return any(d.check in target for d in out.divergences)

    shrunk, evals = shrink_program(scenario.spec, reproduces, max_evals=max_evals)
    minimized = Scenario(
        name=scenario.name, source=shrunk.render(), world=scenario.world,
        spec=shrunk, gen_seed=scenario.gen_seed,
    )
    final = check_scenario(minimized, vm_only=vm_only)
    if final.ok:  # shrinking must never lose the bug; fall back if it did
        return scenario, outcome, evals
    return minimized, final, evals


# ---------------------------------------------------------------------------
# the fuzz loop
# ---------------------------------------------------------------------------
def _gen_config_for(seed: int, i: int) -> GenConfig:
    """The scenario mix: mostly rich multi-class programs, every 4th one
    fault-capable, every 5th one flat (the old test_fastpath shape), every
    6th one big (deep nesting, wide loops, four classes)."""
    pseed = derive_seed("genprog", seed, i)
    if i % 5 == 4:
        return GenConfig(seed=pseed, n_classes=0, allow_faults=(i % 2 == 0))
    if i % 6 == 5:
        return GenConfig(
            seed=pseed, n_classes=4, n_methods=3, max_stmts=8, max_depth=3,
            loop_bound=12, recursion_depth=8,
        )
    return GenConfig(
        seed=pseed,
        n_classes=1 + (i % 3),
        n_methods=1 + (i % 2),
        allow_faults=(i % 4 == 3),
    )


def run_fuzz(
    seed: int,
    budget: int,
    include_thread: bool = True,
    include_process: bool = False,
    include_faults: bool = False,
    include_recovery: bool = False,
    include_tcp: bool = False,
    shrink_budget: int = 120,
    max_failures: int = 5,
    collect_golden: bool = False,
    log=None,
) -> Tuple[ConformanceReport, List[Tuple[Scenario, ConformanceOutcome]]]:
    """Generate and conformance-check ``budget`` scenarios derived from
    ``seed``.  Returns the report plus, when ``collect_golden``, the passing
    ``(scenario, outcome)`` pairs (for ``repro fuzz --save-corpus``).

    Each scenario gets its own program seed and world seed via
    :func:`~repro.testing.seeds.derive_seed`, so any single iteration can
    be regenerated in isolation."""
    from repro.harness.cache import StageCache
    from repro.testing.corpus import CorpusEntry

    report = ConformanceReport(seed=seed, budget=budget)
    golden: List[Tuple[Scenario, ConformanceOutcome]] = []
    cache = StageCache()
    t0 = time.perf_counter()
    for i in range(budget):
        cfg = _gen_config_for(seed, i)
        spec = generate_program(cfg)
        world = generate_world(
            random.Random(derive_seed("genworld", seed, i)),
            include_thread=include_thread,
            include_process=include_process,
            include_faults=include_faults,
            include_recovery=include_recovery,
            include_tcp=include_tcp,
        )
        scenario = Scenario(
            name=f"fuzz-{seed}-{i}",
            source=spec.render(),
            world=world,
            spec=spec,
            gen_seed=cfg.seed,
        )
        outcome = check_scenario(scenario, cache=cache)
        report.scenarios += 1
        report.checks += outcome.checks_run
        if outcome.faulted:
            report.faulted += 1
        if outcome.ok:
            if collect_golden:
                golden.append((scenario, outcome))
            continue
        if log is not None:
            log(f"{scenario.name}: DIVERGED "
                f"({', '.join(sorted({d.check for d in outcome.divergences}))})"
                f" — minimizing...")
        minimized, final, evals = minimize_scenario(
            scenario, outcome, max_evals=shrink_budget
        )
        report.failures.append(
            CorpusEntry(
                name=scenario.name,
                kind="counterexample",
                source=minimized.source,
                world=world.to_dict(),
                expected=dict(final.reference),
                meta={
                    "gen_seed": cfg.seed,
                    "gen_config": cfg.to_dict(),
                    "divergences": [d.to_dict() for d in final.divergences],
                    "original_statements": spec.num_statements(),
                    "minimized_statements": (
                        minimized.spec.num_statements()
                        if minimized.spec is not None else 0
                    ),
                    "shrink_evals": evals,
                },
            )
        )
        if len(report.failures) >= max_failures:
            if log is not None:
                log(f"stopping after {max_failures} failures")
            break
    report.elapsed_s = time.perf_counter() - t0
    return report, golden
