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

The Experiment API must be indistinguishable from the legacy pipeline:
for every workload × partitioner × {sim, thread}, ``Experiment.run()``
produces byte-identical program output and equal NodeStats to
``Pipeline.run_distributed`` (the api_redesign acceptance criterion).

All pipelines share the process-default stage cache, so the grid compiles
and analyzes each workload once.
"""

import dataclasses
import os

import pytest

from repro.api import Experiment
from repro.harness.pipeline import Pipeline
from repro.runtime.cluster import paper_testbed
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

#: backends the Experiment-vs-legacy grid covers (the api_redesign
#: acceptance criterion: sim + thread), narrowed by the same env filter
API_BACKENDS = tuple(b for b in ("sim", "thread") if b in BACKENDS)


@pytest.mark.parametrize("method", PLAN_METHODS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_distributed_matches_sequential(workload, method):
    pipe = Pipeline(workload, "test")
    seq = pipe.run_sequential()
    dist, plan, _ = pipe.run_distributed(2, method=method)

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
    pipe = Pipeline(workload, "test")
    seq = pipe.run_sequential()
    dist, plan, _ = pipe.run_distributed(2, method="multilevel", backend=backend)

    assert plan.nparts == 2
    assert dist.result == seq.result
    assert dist.stdout == seq.stdout, (
        f"{workload}/{backend}: program output diverged"
    )
    if backend != "sim":
        # wall-clock backends must report real measurements
        assert dist.makespan_s > 0.0
    assert len(dist.node_stats) == 2


@pytest.mark.parametrize("backend", API_BACKENDS)
@pytest.mark.parametrize("method", PLAN_METHODS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_experiment_matches_legacy_pipeline(workload, method, backend):
    """The api_redesign acceptance criterion: the Experiment façade produces
    byte-identical program output and equal NodeStats to the legacy
    ``Pipeline.run_distributed`` path for every workload × partitioner ×
    {sim, thread}.  On the deterministic simulator *everything* must match
    exactly; on the wall-clock thread backend the timing fields naturally
    differ between two real executions, so equality is asserted on every
    deterministic NodeStats field."""
    pipe = Pipeline(workload, "test")
    legacy_dist, legacy_plan, _ = pipe.run_distributed(
        2, method=method, backend=backend
    )

    exp = Experiment.from_options(workload, method=method, backend=backend)
    res = exp.run()

    assert res.plan is legacy_plan  # same engine, same cache key
    assert res.distributed.stdout == legacy_dist.stdout
    assert res.distributed.result == legacy_dist.result
    if backend == "sim":
        assert res.distributed.node_stats == legacy_dist.node_stats
        assert res.distributed.makespan_s == legacy_dist.makespan_s
        assert res.distributed.total_messages == legacy_dist.total_messages
        assert res.distributed.total_bytes == legacy_dist.total_bytes
    else:
        assert len(res.distributed.node_stats) == len(legacy_dist.node_stats)
        for ours, theirs in zip(
            res.distributed.node_stats, legacy_dist.node_stats
        ):
            assert ours.name == theirs.name
            assert ours.messages_sent == theirs.messages_sent
            assert ours.bytes_sent == theirs.bytes_sent
            assert ours.requests_served == theirs.requests_served
            assert ours.heap_objects == theirs.heap_objects
            assert ours.heap_bytes == theirs.heap_bytes
            assert ours.stdout == theirs.stdout


def _run_on_path(workload, method, backend, slow):
    """One distributed run straight through the executor (bypassing the
    ``execute`` stage cache, which would otherwise replay the first path's
    result) on the chosen VM engine."""
    pipe = Pipeline(workload, "test")
    cluster = paper_testbed()
    plan = pipe.plan(2, method=method, cluster=cluster)
    rewritten, _, _ = pipe.rewrite(plan)
    # forced_engine also exports REPRO_VM_ENGINE, so process-backend
    # workers pick the engine up even under spawn-style multiprocessing
    with forced_engine("reference" if slow else "fast"):
        return DistributedExecutor(
            rewritten, plan, cluster, backend=backend
        ).run()


@pytest.mark.skipif("sim" not in BACKENDS, reason="sim excluded by env")
@pytest.mark.parametrize("method", PLAN_METHODS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_fast_path_matches_reference_sim(workload, method):
    """The perf_opt acceptance criterion, simulator half: the cost-batched
    fast path must be **byte-identical** to the per-step reference oracle —
    stdout, result, every NodeStats field (including the float clocks),
    makespan and message totals — for every workload × partitioner."""
    fast = _run_on_path(workload, method, "sim", slow=False)
    ref = _run_on_path(workload, method, "sim", slow=True)

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
    fast = _run_on_path(workload, "multilevel", backend, slow=False)
    ref = _run_on_path(workload, "multilevel", backend, slow=True)

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

    pipe = Pipeline(workload, "test")
    machine = Machine(pipe.work.loaded, heap=Heap())
    machine.statics = pipe.work.loaded.fresh_statics()
    machine.call_bmethod(pipe.work.loaded.main_method(), None, [None])
    run_sync(machine)

    dist, _, _ = pipe.run_distributed(2, method="multilevel")
    dist_objects = sum(ns.heap_objects for ns in dist.node_stats)
    assert dist_objects >= machine.heap.allocated_objects, (
        f"{workload}: distributed heaps lost objects"
    )
