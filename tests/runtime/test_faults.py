"""Fault-injection and quorum-replication tests.

The crash-safety contract, checked on every backend:

* a planned node crash degrades the run to a structured
  :class:`~repro.runtime.faults.FaultRecord` report — never a hang, never
  a bare exception out of :meth:`DistributedExecutor.run`;
* transient message loss / duplication / delay is masked by bounded retry
  with backoff, so outputs stay byte-identical to the fault-free run;
* with quorum replication (read ``ceil(n/2)``, write majority), the same
  crash is *masked*: the run completes with the correct result and the
  crash shows up only as fault evidence.
"""

import sys
import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))

import pytest

from helpers import compile_mj_raw

from repro.distgen import rewrite_program
from repro.distgen.plan import DistributionPlan
from repro.distgen.quorum import (
    plan_replication,
    quorum_availability,
    read_quorum,
    replication_safe_classes,
    write_quorum,
)
from repro.errors import ConfigError
from repro.runtime.cluster import ClusterSpec, NodeSpec, ethernet_100m
from repro.runtime.executor import DistributedExecutor
from repro.runtime.faults import FaultInjector, FaultPlan, FaultRecord

BACKENDS = ("sim", "thread", "process", "tcp")

# a replication-safe worker (primitive state only, self-contained methods)
# doing enough compute on its home node that a mid-run crash cycle exists
WORKER_SRC = """
class Worker {
    int acc;
    Worker(int s) { acc = s; }
    int crunch(int n) {
        int i = 0;
        int v = acc;
        while (i < n) {
            int k = 0;
            while (k < n) {
                int m = 0;
                while (m < n) { v = (v * 31 + m) % 65521; m = m + 1; }
                k = k + 1;
            }
            i = i + 1;
        }
        acc = v;
        return v;
    }
    int get() { return acc; }
}

class Main {
    static void main(String[] args) {
        Worker w = new Worker(7);
        int r = w.crunch(9);
        Sys.println("total:" + (r + w.get()));
    }
}
"""
WORKER_STDOUT = ["total:27422"]


def run_worker(backend, nnodes=2, faults=None, replicas=None):
    """WORKER_SRC with Worker homed on node 0 and main on node 1."""
    bp, _ = compile_mj_raw(WORKER_SRC)
    plan = DistributionPlan(
        nparts=2,
        granularity="class",
        class_home={"Worker": 0, "Main": 1},
        dependent_classes={"Worker", "Main"},
        main_partition=1,
    )
    rewritten, _ = rewrite_program(bp, plan)
    cluster = ClusterSpec(
        nodes=[NodeSpec(f"n{i}", 1e9) for i in range(nnodes)],
        link=ethernet_100m(),
    )
    return DistributedExecutor(
        rewritten, plan, cluster, backend=backend,
        faults=faults, replicas=replicas,
    ).run()


# ------------------------------------------------------------------ FaultPlan
def test_fault_plan_round_trip():
    plan = FaultPlan(
        crashes=((0, 5_000), (2, 9_999)),
        drop_pct=0.05, dup_pct=0.01, delay_s=1e-4,
        partitions=((0, 3),), seed=42, max_retries=4, backoff_cycles=500,
    )
    again = FaultPlan.from_dict(plan.to_dict())
    assert again == plan
    assert again.crash_cycle(0) == 5_000
    assert again.crash_cycle(1) is None
    assert not again.transient_only


def test_fault_plan_transient_only():
    assert FaultPlan(drop_pct=0.1, dup_pct=0.05, delay_s=1e-5).transient_only
    assert not FaultPlan(crashes=((1, 100),)).transient_only
    assert not FaultPlan(partitions=((0, 1),)).transient_only


def test_fault_plan_validation():
    with pytest.raises(ConfigError):
        FaultPlan(drop_pct=1.5)
    with pytest.raises(ConfigError):
        FaultPlan(crashes=((0, -1),))
    with pytest.raises(ConfigError):
        FaultPlan(max_retries=-1)


@pytest.mark.parametrize("plan", (
    FaultPlan(),                                     # the empty plan
    FaultPlan(partitions=()),                        # explicit empty edges
    FaultPlan(max_retries=0),                        # no retry budget at all
    FaultPlan(crashes=((0, 0),)),                    # crash at cycle zero
    FaultPlan(crashes=((3, 1),), max_retries=0, backoff_cycles=1),
    FaultPlan(drop_pct=1.0, dup_pct=1.0),            # probability extremes
    FaultPlan(partitions=((0, 1), (1, 0))),          # both link directions
), ids=("empty", "no-partitions", "no-retries", "cycle-zero",
        "minima", "extremes", "bidirectional"))
def test_fault_plan_round_trip_edge_shapes(plan):
    again = FaultPlan.from_dict(plan.to_dict())
    assert again == plan
    assert again.to_dict() == plan.to_dict()
    # and a second hop is a fixed point
    assert FaultPlan.from_dict(again.to_dict()) == again


def test_fault_plan_rejects_duplicate_crash_entries():
    with pytest.raises(ValueError, match="node 2 more than once"):
        FaultPlan(crashes=((2, 1_000), (2, 5_000)))
    # even an exact duplicate of the same entry is refused: a node dies
    # at most once, so the plan is ambiguous either way
    with pytest.raises(ValueError, match="more than once"):
        FaultPlan(crashes=((1, 100), (1, 100)))
    with pytest.raises(ValueError):
        FaultPlan.from_dict(
            {"crashes": [[0, 10], [1, 20], [0, 30]], "seed": 7}
        )


def test_cluster_config_coerces_fault_dict():
    from repro.api.config import ClusterConfig

    plan = FaultPlan(drop_pct=0.1, seed=3)
    cfg = ClusterConfig(faults=plan.to_dict())
    assert cfg.faults == plan
    assert ClusterConfig.from_dict(cfg.to_dict()) == cfg


# ---------------------------------------------------------------- FaultInjector
def test_injector_verdicts_are_deterministic():
    plan = FaultPlan(drop_pct=0.3, dup_pct=0.2, delay_s=1e-5, seed=99)
    a = FaultInjector(plan, node_id=1)
    b = FaultInjector(plan, node_id=1)
    va = [a.on_send(dst=0, req_id=i) for i in range(50)]
    vb = [b.on_send(dst=0, req_id=i) for i in range(50)]
    assert va == vb
    assert any(copies == 0 for copies, _ in va)  # drops do happen at 30%
    assert any(copies == 2 for copies, _ in va)  # and duplications at 20%


def test_injector_nodes_draw_independent_streams():
    plan = FaultPlan(drop_pct=0.5, seed=7)
    ia, ib = FaultInjector(plan, 0), FaultInjector(plan, 1)
    a = [ia.on_send(1, i)[0] for i in range(40)]
    b = [ib.on_send(0, i)[0] for i in range(40)]
    assert a != b


def test_injector_backoff_grows_then_caps():
    plan = FaultPlan(drop_pct=1.0, backoff_cycles=100)
    inj = FaultInjector(plan, 0)
    costs = [inj.backoff(k) for k in range(1, 14)]
    assert costs[0] == 100
    assert costs == sorted(costs)
    assert costs[-1] == costs[-2] == 100 << 10  # capped exponent


def test_injector_crash_fires_once():
    inj = FaultInjector(FaultPlan(crashes=((3, 1_000),)), node_id=3)
    assert not inj.crash_due(999)
    assert inj.crash_due(1_000)
    assert not inj.crash_due(2_000)  # one structured record, not a storm
    assert not FaultInjector(FaultPlan(crashes=((3, 1_000),)), 0).crash_due(5_000)


# -------------------------------------------------------------------- quorum
def test_quorum_sizes_match_mcs():
    # read ceil(n/2), write floor(n/2)+1 — every read meets every write
    for n in range(1, 8):
        assert read_quorum(n) == (n + 1) // 2
        assert write_quorum(n) == n // 2 + 1
        assert read_quorum(n) + write_quorum(n) > n


def test_quorum_availability_bounds():
    assert quorum_availability(3, 1.0, 2) == pytest.approx(1.0)
    assert quorum_availability(3, 0.0, 2) == pytest.approx(0.0)
    # 3 copies at p=0.9, need 2 up: 0.9^3 + 3*0.9^2*0.1
    assert quorum_availability(3, 0.9, 2) == pytest.approx(0.972)
    # more copies at the same quorum never hurt
    assert quorum_availability(5, 0.9, 2) >= quorum_availability(3, 0.9, 2)


def test_replication_safety_scan():
    bp, _ = compile_mj_raw(WORKER_SRC)
    assert replication_safe_classes(bp) == {"Worker"}  # Main is main_class

    arr_src = """
    class Holder {
        int[] data;
        Holder(int n) { data = new int[n]; }
        int get(int i) { return data[i]; }
    }
    class Main { static void main(String[] args) { Sys.println(0); } }
    """
    bp2, _ = compile_mj_raw(arr_src)
    # array fields read back as per-node heap refs -> never quorum-safe
    assert "Holder" not in replication_safe_classes(bp2)


def test_plan_replication_prefers_idle_nodes():
    bp, _ = compile_mj_raw(WORKER_SRC)
    plan = DistributionPlan(
        nparts=2, granularity="class",
        class_home={"Worker": 0, "Main": 1},
        dependent_classes={"Worker", "Main"},
        main_partition=1,
    )
    rmap = plan_replication(plan, bp, cluster_size=4, factor=3)
    assert rmap == {"Worker": (0, 2, 3)}  # home first, then the idle nodes
    assert plan_replication(plan, bp, cluster_size=4, factor=1) == {}


# ----------------------------------------------------- crash: degrade, don't hang
@pytest.mark.parametrize("backend", BACKENDS)
def test_node_crash_degrades_to_structured_report(backend):
    run = run_worker(backend, faults=FaultPlan(crashes=((0, 5_000),), seed=1))
    assert run.degraded
    kinds = {f.kind for f in run.faults}
    assert "crash" in kinds
    assert all(isinstance(f, FaultRecord) for f in run.faults)
    crash = next(f for f in run.faults if f.kind == "crash")
    assert crash.node == 0
    assert crash.at_cycle >= 5_000
    # every node still reports stats — a degraded run is still observable
    assert len(run.node_stats) == 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_transient_loss_is_masked_by_retry(backend):
    plan = FaultPlan(drop_pct=0.10, dup_pct=0.05, delay_s=1e-5, seed=11)
    run = run_worker(backend, faults=plan)
    assert not run.degraded
    assert run.faults == []
    assert run.stdout == WORKER_STDOUT


def test_total_loss_exhausts_retries_and_degrades():
    plan = FaultPlan(drop_pct=1.0, seed=2, max_retries=3)
    run = run_worker("sim", faults=plan)
    assert run.degraded
    assert "retries_exhausted" in {f.kind for f in run.faults}


# ------------------------------------------------------ replication masks crashes
@pytest.mark.parametrize("backend", BACKENDS)
def test_replicated_run_is_correct_without_faults(backend):
    run = run_worker(backend, nnodes=4, replicas={"Worker": (0, 2, 3)})
    assert run.stdout == WORKER_STDOUT
    assert not run.degraded


@pytest.mark.parametrize("backend", BACKENDS)
def test_quorum_masks_primary_crash(backend):
    """The flagship scenario: the replica primary crashes mid-run, yet the
    quorum-replicated run completes with the correct result; the same
    world unreplicated only degrades."""
    faults = FaultPlan(crashes=((0, 5_000),), seed=5)
    masked = run_worker(
        backend, nnodes=4, faults=faults, replicas={"Worker": (0, 2, 3)}
    )
    assert masked.stdout == WORKER_STDOUT
    assert masked.degraded  # the crash is still evidence, not hidden
    assert "crash" in {f.kind for f in masked.faults}

    bare = run_worker(backend, nnodes=4, faults=faults)
    assert bare.degraded
    assert bare.stdout == []


# --------------------------------------------------------------- API plumbing
def test_experiment_threads_faults_and_reports_availability():
    from repro.api.config import (
        BackendConfig,
        ClusterConfig,
        ExperimentConfig,
        PartitionConfig,
        WorkloadSpec,
    )
    from repro.api.experiment import Experiment
    from repro.testing.oracle import temp_workload

    with temp_workload(WORKER_SRC) as wname:
        cfg = ExperimentConfig(
            workload=WorkloadSpec(name=wname, size="test"),
            partition=PartitionConfig(nparts=2, replication=3),
            cluster=ClusterConfig(
                speeds=(1.7e9, 800e6, 1.0e9, 2.4e9),
                faults=FaultPlan(crashes=((0, 5_000),), seed=5),
            ),
            backend=BackendConfig(name="sim"),
        )
        exp = Experiment(cfg)
        assert exp.replicas() == {"Worker": (0, 2, 3)}
        res = exp.run()
        assert res.distributed.stdout == WORKER_STDOUT
        assert res.distributed.degraded
        report = exp.report()
        assert report.replication == 3
        assert report.degraded
        assert report.availability == pytest.approx(
            quorum_availability(3, 0.9, write_quorum(3))
        )
        assert any(f["kind"] == "crash" for f in report.faults)


def test_oracle_accepts_degraded_crashy_world():
    from repro.api.config import ExperimentConfig
    from repro.api.experiment import Experiment
    from repro.testing.oracle import _check_backend

    cfg = ExperimentConfig.from_options(
        "crypt", nparts=2, backend="sim",
        faults=FaultPlan(crashes=((0, 20_000),), seed=3),
    )
    divs, checks = _check_backend(Experiment(cfg), "sim")
    assert divs == []
    assert checks == 2  # the degraded-mode checks, not the equality suite
