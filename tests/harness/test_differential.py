"""Differential test harness: sequential vs distributed execution.

For every workload in ``repro.workloads`` and every plan produced by the
``kl``, ``multilevel``, ``spectral`` and ``roundrobin`` partitioners, the
distributed execution must compute exactly what the centralized baseline
computes:

* the same final result value,
* the same final output line (printed by ``main`` on its home node),
* the same multiset of stdout lines (distribution may interleave the
  per-node output streams, but every line is printed exactly once),
* the same total number of user heap objects (proxies for remote objects
  are VM-internal and never inflate the user object count).

The same equivalence holds across runtime *backends*: the simulator, the
thread backend, the multiprocessing backend and the real-socket tcp
backend must produce byte-identical program output to sequential execution
for every workload (the acceptance criterion for the pluggable transport
layer).  ``REPRO_DIFF_BACKENDS`` narrows the backend set — CI uses it to
fan the suite over a matrix.

The :class:`Experiment` façade must add nothing to a run: for every
workload × partitioner × {sim, thread}, ``Experiment.run()`` yields the
program output and NodeStats the executor yields when handed the same plan
and rewrite directly, and its report applies the Figure 11 seconds rule.

Every other distributed run here really executes: :func:`_distributed` takes the
plan and the rewritten program from an :class:`Experiment` and calls the
executor itself, bypassing the ``execute`` stage cache that would replay
an earlier run of the same configuration.  All experiments share the
process-default stage cache, so the grid compiles and analyzes each
workload once.
"""

import contextlib
import dataclasses
import os

import pytest

from repro.api import Experiment
from repro.runtime.executor import DistributedExecutor
from repro.vm.interpreter import forced_engine
from repro.workloads import WORKLOADS

PLAN_METHODS = ("kl", "multilevel", "spectral", "roundrobin")

BACKENDS = tuple(
    b.strip()
    for b in os.environ.get(
        "REPRO_DIFF_BACKENDS", "sim,thread,process,tcp"
    ).split(",")
    if b.strip()
)

#: backends the Experiment-vs-executor grid covers: the deterministic
#: simulator and one wall-clock backend, narrowed by the same env filter
RUN_BACKENDS = tuple(b for b in ("sim", "thread") if b in BACKENDS)


def _distributed(workload, method="multilevel", backend="sim", engine=None):
    """One 2-node distributed run straight through the executor, on the
    plan and rewrite of ``workload``'s :class:`Experiment`; ``engine``
    pins the VM tier.  Returns the experiment too, for its baseline and
    plan."""
    exp = Experiment.from_options(workload, method=method, backend=backend)
    plan = exp.plan()
    program = exp.rewrite().program
    # forced_engine also exports REPRO_VM_ENGINE, so process-backend
    # workers pick the engine up even under spawn-style multiprocessing
    pinned = forced_engine(engine) if engine else contextlib.nullcontext()
    with pinned:
        dist = DistributedExecutor(
            program, plan, exp.cluster(), backend=backend
        ).run()
    return exp, dist


@pytest.mark.parametrize("method", PLAN_METHODS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_distributed_matches_sequential(workload, method):
    exp, dist = _distributed(workload, method)
    seq, plan = exp.baseline(), exp.plan()

    assert plan.method == method
    assert plan.nparts == 2
    assert dist.result == seq.result
    assert seq.stdout, f"{workload}: sequential run produced no output"
    assert dist.stdout[-1] == seq.stdout[-1], (
        f"{workload}/{method}: final line diverged"
    )
    assert sorted(dist.stdout) == sorted(seq.stdout), (
        f"{workload}/{method}: stdout multiset diverged"
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_backend_output_byte_identical(workload, backend):
    """sequential == sim == thread == process, byte for byte: every backend
    runs the same plan and must print exactly the sequential output and
    compute the same result."""
    exp, dist = _distributed(workload, backend=backend)
    seq = exp.baseline()

    assert exp.plan().nparts == 2
    assert dist.result == seq.result
    assert dist.stdout == seq.stdout, (
        f"{workload}/{backend}: program output diverged"
    )
    if backend != "sim":
        # wall-clock backends must report real measurements
        assert dist.makespan_s > 0.0
    assert len(dist.node_stats) == 2


@pytest.mark.parametrize("backend", RUN_BACKENDS)
@pytest.mark.parametrize("method", PLAN_METHODS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_experiment_run_matches_direct_executor(workload, method, backend):
    """``Experiment.run()`` — its cluster, plan, rewrite, backend wiring
    and, on the simulator, the ``execute`` stage cache — produces what the
    executor produces on the same plan and rewrite.  On the simulator
    everything must match exactly; on the thread backend the clocks are
    real time, so every deterministic NodeStats field must match."""
    exp, direct = _distributed(workload, method, backend=backend)
    res = exp.run()
    seq = exp.baseline()

    assert res.plan is exp.plan()
    assert res.sequential is seq
    assert res.distributed.stdout == direct.stdout == seq.stdout
    assert res.distributed.result == direct.result
    assert res.distributed.total_messages == direct.total_messages
    assert res.distributed.total_bytes == direct.total_bytes
    if backend == "sim":
        assert res.distributed.node_stats == direct.node_stats
        assert res.distributed.makespan_s == direct.makespan_s
        assert res.sequential_s == seq.exec_time_s
    else:
        assert len(res.distributed.node_stats) == len(direct.node_stats)
        for ours, theirs in zip(res.distributed.node_stats, direct.node_stats):
            assert ours.name == theirs.name
            assert ours.messages_sent == theirs.messages_sent
            assert ours.bytes_sent == theirs.bytes_sent
            assert ours.requests_served == theirs.requests_served
            assert ours.heap_objects == theirs.heap_objects
            assert ours.heap_bytes == theirs.heap_bytes
            assert ours.stdout == theirs.stdout
        assert res.sequential_s == max(seq.wall_time_s, 1e-9)
    assert res.distributed_s == res.distributed.makespan_s
    assert res.speedup_pct == pytest.approx(
        100.0 * res.sequential_s / max(res.distributed.makespan_s, 1e-9)
    )


@pytest.mark.skipif("sim" not in BACKENDS, reason="sim excluded by env")
@pytest.mark.parametrize("method", PLAN_METHODS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_fast_path_matches_reference_sim(workload, method):
    """The perf_opt acceptance criterion, simulator half: the cost-batched
    fast path must be **byte-identical** to the per-step reference oracle —
    stdout, result, every NodeStats field (including the float clocks),
    makespan and message totals — for every workload × partitioner."""
    _, fast = _distributed(workload, method, engine="fast")
    _, ref = _distributed(workload, method, engine="reference")

    assert fast.stdout == ref.stdout
    assert fast.result == ref.result
    assert fast.total_messages == ref.total_messages
    assert fast.total_bytes == ref.total_bytes
    assert fast.makespan_s == ref.makespan_s
    assert [dataclasses.asdict(s) for s in fast.node_stats] == [
        dataclasses.asdict(s) for s in ref.node_stats
    ]


@pytest.mark.parametrize("backend", tuple(b for b in BACKENDS if b != "sim"))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_fast_path_matches_reference_wallclock(workload, backend):
    """Fast vs reference path on the wall-clock backends: every
    deterministic observable must match (clocks are real time and differ
    between two executions by nature)."""
    _, fast = _distributed(workload, backend=backend, engine="fast")
    _, ref = _distributed(workload, backend=backend, engine="reference")

    assert fast.stdout == ref.stdout
    assert fast.result == ref.result
    assert fast.total_messages == ref.total_messages
    assert fast.total_bytes == ref.total_bytes
    for ours, theirs in zip(fast.node_stats, ref.node_stats):
        assert ours.name == theirs.name
        assert ours.messages_sent == theirs.messages_sent
        assert ours.bytes_sent == theirs.bytes_sent
        assert ours.requests_served == theirs.requests_served
        assert ours.heap_objects == theirs.heap_objects
        assert ours.heap_bytes == theirs.heap_bytes
        assert ours.stdout == theirs.stdout


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_heap_population_matches_sequential(workload):
    """Every ``new`` the sequential run executes happens exactly once
    somewhere in the cluster too: the distributed heaps together hold at
    least the sequential census (proxies may add, never subtract)."""
    from repro.vm.heap import Heap
    from repro.vm.interpreter import Machine, run_sync

    exp, dist = _distributed(workload)
    loaded = exp.compile().loaded
    machine = Machine(loaded, heap=Heap())
    machine.statics = loaded.fresh_statics()
    machine.call_bmethod(loaded.main_method(), None, [None])
    run_sync(machine)

    dist_objects = sum(ns.heap_objects for ns in dist.node_stats)
    assert dist_objects >= machine.heap.allocated_objects, (
        f"{workload}: distributed heaps lost objects"
    )
