"""The five workloads: what one *unit* of each runs, from which inputs, and
how its output is checked.

Imported only inside child processes (it pulls in ``repro``); the driver in
``run.py`` stays import-free so that a child pays the same interpreter and
import cost a ``repro distribute`` CLI user pays.

Every layer is driven from outside through its public functions; nothing
here reaches into private state of ``src/repro``.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.analysis.class_relations import build_crg
from repro.analysis.object_set import compute_object_set
from repro.analysis.odg import build_odg
from repro.analysis.rta import rapid_type_analysis
from repro.api.config import ClusterConfig
from repro.api.events import ExperimentObserver
from repro.api.experiment import PLAN_UBFACTOR, Experiment
from repro.bytecode import compile_program
from repro.distgen.plan import build_plan
from repro.distgen.rewriter import rewrite_program
from repro.harness.cache import StageCache
from repro.lang import analyze, parse_program
from repro.runtime.checkpoint import RecoveryPlan
from repro.runtime.executor import DistributedExecutor
from repro.runtime.faults import FaultPlan
from repro.testing.genprog import GenConfig, generate_source
from repro.vm.loader import load_program
from repro.workloads import TABLE1_ORDER, WORKLOADS

from spans import Tracer

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

COMPUTE_PROGRAMS = ("crypt", "heapsort", "moldyn", "search", "compress")
SERVICE_PROGRAM = "service_bank"

#: generated programs of ``pipeline_cold``: helper-class count -> GenConfig
#: seeds to draw from.  The 24/48-class programs are where RTA and build_plan
#: go super-linear, which the eight small paper programs can never show.
#: That cost follows the number of RTA-reachable methods, which varies by
#: +-20 % between generator seeds, so a free draw would make two benchmark
#: seeds differ by more than any change under test.  These are the first
#: eight generator seeds per class count whose reachable-method count sits at
#: the mode (26-28, 57-60, 106-107; ``make_expected.py --survey`` lists
#: them); the benchmark seed draws two from each row.
GENERATED = {
    8: (0, 1, 17, 20, 22, 26, 29, 30),
    24: (0, 4, 7, 16, 19, 20, 26, 27),
    48: (0, 1, 3, 6, 12, 13, 23, 27),
}


def gen_config(n_classes: int, gen_seed: int) -> GenConfig:
    return GenConfig(seed=gen_seed, n_classes=n_classes, n_methods=6, max_stmts=8)


#: stages of ``Experiment.run`` that turn source into rewritten bytecode
PIPELINE_STAGES = ("compile", "analyze", "partition", "plan", "rewrite")

#: program-size classes the per-layer splits use (user classes in the
#: compiled program): ``.small`` is the paper's regime, ``.gen48`` the one
#: where the analyses stop being linear
SMALL_MAX_CLASSES = 20
LARGE_MIN_CLASSES = 40


def size_class(num_classes: int) -> str:
    if num_classes < SMALL_MAX_CLASSES:
        return "small"
    if num_classes >= LARGE_MIN_CLASSES:
        return "gen48"
    return "mid"


# ---------------------------------------------------------------------------
# committed references
# ---------------------------------------------------------------------------
def read_expected(program: str, size: Optional[str]) -> Dict[str, object]:
    """``expected/<program>[.<size>].txt``: the reference engine's stdout and,
    for the service program, the clean run's exact request/frame/byte
    counts (written once by ``make_expected.py``)."""
    out: Dict[str, object] = {"stdout": []}
    stem = f"{program}.{size}" if size else program
    path = EXPECTED_DIR / f"{stem}.txt"
    for line in path.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(": ")
        if key == "stdout":
            out["stdout"].append(value)
        else:
            out[key] = int(value)
    return out


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------
@dataclass
class Inputs:
    workload: str
    #: (name, size-or-None, MJ source); generated programs have no size
    programs: List[Tuple[str, Optional[str], str]]
    #: ``Experiment.from_options`` keywords (empty for ``pipeline_cold``)
    options: Dict[str, object] = field(default_factory=dict)


def _bundled(names, size: str) -> List[Tuple[str, Optional[str], str]]:
    return [(n, size, WORKLOADS.get(n).source(size)) for n in names]


def make_inputs(workload: str, seed: int, smoke: bool) -> Inputs:
    """Everything a unit consumes, derived from ``seed`` alone."""
    if workload == "pipeline_cold":
        # nothing executes inside the unit, and a program's size only sets
        # constants in its source, so the cheap ``test`` size compiles
        # exactly like ``bench`` while keeping the after-unit output check
        # (which does execute) short
        programs = _bundled(TABLE1_ORDER, "test")
        rng = random.Random(seed)
        for n_classes in (8,) if smoke else sorted(GENERATED):
            for gen_seed in rng.sample(GENERATED[n_classes], 2):
                programs.append((
                    f"gen{n_classes}_{gen_seed}", None,
                    generate_source(gen_config(n_classes, gen_seed)),
                ))
        return Inputs(workload, programs)
    if workload == "compute_sim":
        size = "test" if smoke else "bench"
        return Inputs(
            workload, _bundled(COMPUTE_PROGRAMS, size), {"backend": "sim"}
        )
    size = "test" if smoke else "large"
    options: Dict[str, object] = {"force_distribution": True}
    if workload == "service_process":
        options["backend"] = "process"
    elif workload == "service_tcp":
        options["backend"] = "tcp"
    elif workload == "service_faulty":
        options["backend"] = "process"
        options["faults"] = FaultPlan(drop_pct=0.05, dup_pct=0.05, seed=seed)
        options["recovery"] = RecoveryPlan()
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return Inputs(workload, _bundled([SERVICE_PROGRAM], size), options)


# ---------------------------------------------------------------------------
# the compile pipeline, one public layer call at a time
# ---------------------------------------------------------------------------
@dataclass
class Artifacts:
    name: str
    size: Optional[str]
    source: str
    bprogram: object
    cg: object
    crg: object
    odg: object
    plan: object
    rewritten: object
    rewrites: int

    @property
    def size_class(self) -> str:
        return size_class(self.bprogram.num_classes())


def plan_arguments() -> Dict[str, object]:
    """The ``build_plan`` arguments a two-node ``repro distribute`` uses:
    capacity-proportional targets for the paper testbed, ``main`` pinned to
    the slowest machine.  ``force_distribution`` keeps the rewriter busy on
    programs whose cheapest placement is a single node, so ``distgen``
    always has work to measure and the output check always runs a program
    that really was rewritten."""
    cluster = ClusterConfig().build(2)
    speeds = [node.cpu_hz for node in cluster.nodes]
    return {
        "tpwgts": [s / sum(speeds) for s in speeds],
        "ubfactor": PLAN_UBFACTOR,
        "pin_main_to": min(range(2), key=lambda p: speeds[p]),
        "force_distribution": True,
    }


def layer_pass(programs, tr: Tracer) -> List[Artifacts]:
    """Source → rewritten bytecode for every program, nothing executed: the
    ``pipeline_cold`` unit, and the per-layer pass of the traced run."""
    plan_args = plan_arguments()
    out = []
    for name, size, source in programs:
        with tr.span("program", prog=name):
            with tr.span("lang.parse", prog=name):
                tree = parse_program(source)
            with tr.span("lang.semantic", prog=name):
                table = analyze(tree)
            with tr.span("bytecode.compile", prog=name):
                bprogram = compile_program(tree, table)
            with tr.span("vm.loader.load", prog=name):
                load_program(bprogram)
            with tr.span("analysis.rta", prog=name):
                cg = rapid_type_analysis(bprogram)
            with tr.span("analysis.crg", prog=name):
                crg = build_crg(cg)
            with tr.span("analysis.object_set", prog=name):
                objects = compute_object_set(cg)
            with tr.span("analysis.odg", prog=name):
                odg = build_odg(cg, crg, objects)
            with tr.span("distgen.plan", prog=name):
                plan = build_plan(bprogram, 2, **plan_args)
            with tr.span("distgen.rewrite", prog=name):
                rewritten, stats = rewrite_program(bprogram, plan)
        out.append(Artifacts(
            name, size, source, bprogram, cg, crg, odg, plan, rewritten,
            stats.total,
        ))
    return out


def check_pipeline(artifacts: List[Artifacts]) -> List[str]:
    """Run every rewritten program on the simulated two-node cluster and
    compare its stdout with the committed reference."""
    errors = []
    cluster = ClusterConfig().build(2)
    for art in artifacts:
        want = read_expected(art.name, art.size)["stdout"]
        got = DistributedExecutor(art.rewritten, art.plan, cluster).run().stdout
        if got != want:
            errors.append(
                f"{art.name}: rewritten program printed {got[-1:]!r}, "
                f"reference {want[-1:]!r}"
            )
    return errors


# ---------------------------------------------------------------------------
# Experiment.run units
# ---------------------------------------------------------------------------
class StageSpans(ExperimentObserver):
    """Turns ``on_stage_start`` / ``on_stage_end`` events into spans."""

    def __init__(self, tr: Tracer, prog: str) -> None:
        self.tr = tr
        self.prog = prog

    def on_stage_start(self, event) -> None:
        self.tr.begin(f"api.stage.{event.stage}", prog=self.prog)

    def on_stage_end(self, event) -> None:
        self.tr.end()


def experiment_unit(inputs: Inputs, tr: Tracer) -> list:
    """One cold ``Experiment.run()`` per program on a fresh stage cache."""
    results = []
    for name, size, _source in inputs.programs:
        exp = Experiment.from_options(
            name, size=size, cache=StageCache(), **inputs.options
        )
        if tr.enabled:
            exp.subscribe(StageSpans(tr, name))
        with tr.span("api.run", prog=name):
            results.append(exp.run())
    return results


def check_experiments(inputs: Inputs, results: list) -> List[str]:
    errors = []
    faulty = "faults" in inputs.options
    for (name, size, _source), res in zip(inputs.programs, results):
        want = read_expected(name, size)
        if res.distributed.degraded:
            errors.append(f"{name}: run ended degraded")
        if res.stdout != want["stdout"]:
            errors.append(
                f"{name}: printed {res.stdout[-1:]!r}, "
                f"reference {want['stdout'][-1:]!r}"
            )
        if "requests" in want:
            if res.report.latency_count != want["requests"]:
                errors.append(
                    f"{name}: {res.report.latency_count} requests, "
                    f"reference {want['requests']}"
                )
            # a faulty run resends, so only its request count is exact
            if not faulty and (res.messages, res.bytes) != (
                want["frames"], want["wire_bytes"]
            ):
                errors.append(
                    f"{name}: {res.messages} frames / {res.bytes} bytes, "
                    f"reference {want['frames']} / {want['wire_bytes']}"
                )
    return errors


def experiment_metrics(inputs: Inputs, results: list, run_s: float) -> dict:
    """Whole-run numbers of one unit, read from public result fields."""
    stage_ms: Dict[str, float] = {}
    for res in results:
        for stage in res.report.stages:
            stage_ms[stage.stage] = (
                stage_ms.get(stage.stage, 0.0) + stage.elapsed_s * 1e3
            )
    cycles = sum(r.sequential.cycles for r in results)
    seq_wall = sum(r.sequential.wall_time_s for r in results)
    virtual = inputs.options["backend"] == "sim"
    makespan = sum(r.distributed.makespan_s for r in results)
    requests = sum(r.report.latency_count for r in results)
    frames = sum(r.messages for r in results)
    wire_bytes = sum(r.bytes for r in results)
    jit = {"promotions": 0, "deopts": 0}
    for res in results:
        for key in jit:
            jit[key] += res.report.jit.get(key, 0)
    compiled = sum(r.sequential.jit.get("compiled_cycles", 0) for r in results)
    vm_ms = stage_ms.get("sequential", 0.0) + stage_ms.get("execute", 0.0)
    m = {
        "pipeline_ms": sum(stage_ms.get(s, 0.0) for s in PIPELINE_STAGES),
        "vm_mcycles_per_s": cycles / seq_wall / 1e6,
        "speedup_pct": statistics.geometric_mean(r.speedup_pct for r in results),
        # wall-clock metrics: the simulator's makespan and latencies are
        # virtual (speedup_pct and runtime.simnet.* cover those), so on it
        # these read 0
        "makespan_s": 0.0 if virtual else makespan,
        "requests_per_s": 0.0 if virtual else requests / makespan,
        "vm.cycles": cycles,
        "vm.jit_promotions": jit["promotions"],
        "vm.jit_deopts": jit["deopts"],
        "vm.compiled_cycle_share": compiled / cycles,
        "api.stage.compile_ms": stage_ms.get("compile", 0.0),
        "api.stage.plan_ms": stage_ms.get("plan", 0.0),
        "api.stage.rewrite_ms": stage_ms.get("rewrite", 0.0),
        "api.stage.sequential_ms": stage_ms.get("sequential", 0.0),
        "api.stage.execute_ms": stage_ms.get("execute", 0.0),
        "api.vm_share": vm_ms / (run_s * 1e3),
        "api.runtime_share": stage_ms.get("execute", 0.0) / (run_s * 1e3),
        "runtime.services.requests": requests,
        "runtime.services.frames_per_request": frames / requests,
        "runtime.services.wire_bytes_per_request": wire_bytes / requests,
        "runtime.checkpoint.overhead_cycles": sum(
            r.report.checkpoint_overhead_cycles for r in results
        ),
    }
    # the reliability layers are measured against the clean twin's committed
    # counts, which exist for the service program only
    clean = [read_expected(n, s) for n, s, _ in inputs.programs]
    if all("frames" in c for c in clean):
        clean_frames = sum(c["frames"] for c in clean)
        clean_bytes = sum(c["wire_bytes"] for c in clean)
        m["runtime.faults.resend_ratio"] = (frames - clean_frames) / clean_frames
        m["runtime.checkpoint.extra_frames"] = frames - clean_frames
        m["runtime.checkpoint.extra_bytes"] = wire_bytes - clean_bytes
    else:
        m.update(dict.fromkeys(RELIABILITY_METRICS, 0))
    return m


RELIABILITY_METRICS = (
    "runtime.faults.resend_ratio",
    "runtime.checkpoint.extra_frames",
    "runtime.checkpoint.extra_bytes",
)

#: what ``experiment_metrics`` reports; ``pipeline_cold`` executes nothing,
#: so there every one of these layers did zero work
EXECUTION_METRICS = RELIABILITY_METRICS + (
    "vm_mcycles_per_s", "speedup_pct", "makespan_s", "requests_per_s",
    "vm.cycles", "vm.jit_promotions", "vm.jit_deopts",
    "vm.compiled_cycle_share",
    "api.stage.compile_ms", "api.stage.plan_ms", "api.stage.rewrite_ms",
    "api.stage.sequential_ms", "api.stage.execute_ms",
    "api.vm_share", "api.runtime_share",
    "runtime.services.requests", "runtime.services.frames_per_request",
    "runtime.services.wire_bytes_per_request",
    "runtime.checkpoint.overhead_cycles",
)


def latencies_us(inputs: Inputs, results: list) -> List[float]:
    """Per-request round-trip times of a wall-clock backend, in µs."""
    if inputs.options["backend"] == "sim":
        return []
    return [
        round(s * 1e6, 2) for r in results for s in r.distributed.latency_s
    ]
