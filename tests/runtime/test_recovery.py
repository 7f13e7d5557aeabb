"""Recovery-tier tests: checkpointed object state, heartbeat leases and
object migration (repro.runtime.checkpoint).

The recovery contract, checked on every backend and VM engine: for a
recoverable seeded crash (a non-main node dies), a RecoveryPlan-enabled
run finishes with ``result`` and ``stdout`` byte-identical to the
fault-free run — the crash shows up only as fault evidence next to a
RECOVERED record — at a measurable (charged-cycle) cost.  Unrecoverable
crashes (the main node itself) keep PR-6 degradation semantics.
"""

import sys
import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))

import pytest

from helpers import compile_mj_raw

from repro.distgen import rewrite_program
from repro.distgen.plan import DistributionPlan
from repro.errors import ConfigError
from repro.runtime.checkpoint import (
    NodeRecovery,
    RecoveryPlan,
    decode_checkpoint,
    encode_checkpoint,
    recovery_homes,
)
from repro.runtime.cluster import ClusterSpec, NodeSpec, ethernet_100m
from repro.runtime.executor import DistributedExecutor
from repro.runtime.faults import FaultPlan
from repro.runtime.message import Message, MessageKind

BACKENDS = ("sim", "thread", "process", "tcp")

# three classes over three partitions: Worker (node 0) and Helper (node 2)
# both carry state the crashed run must reconstruct exactly
SRC = """
class Worker {
    int acc;
    Worker(int s) { acc = s; }
    int crunch(int n) {
        int i = 0;
        int v = acc;
        while (i < n) {
            int k = 0;
            while (k < n) { v = (v * 31 + k) % 65521; k = k + 1; }
            i = i + 1;
        }
        acc = v;
        return v;
    }
    int get() { return acc; }
}

class Helper {
    int tot;
    Helper(int s) { tot = s; }
    int fold(int x) { tot = (tot * 17 + x) % 99991; return tot; }
}

class Main {
    static void main(String[] args) {
        Worker w = new Worker(7);
        Helper h = new Helper(3);
        int j = 0;
        int s = 0;
        while (j < 8) {
            s = s + w.crunch(6) + h.fold(j);
            j = j + 1;
        }
        Sys.println("grand:" + (s + w.get() + h.fold(s)));
    }
}
"""
EXPECTED_STDOUT = ["grand:573169"]

REC = RecoveryPlan(interval=4_000)


def run_cluster(backend="sim", nnodes=5, faults=None, recovery=None,
                engine="default"):
    """SRC over 3 partitions (Worker@0, Main@1, Helper@2) on ``nnodes``
    machines — the extra nodes are the idle recovery homes."""
    bp, _ = compile_mj_raw(SRC)
    plan = DistributionPlan(
        nparts=3,
        granularity="class",
        class_home={"Worker": 0, "Main": 1, "Helper": 2},
        dependent_classes={"Worker", "Helper", "Main"},
        main_partition=1,
    )
    rewritten, _ = rewrite_program(bp, plan)
    cluster = ClusterSpec(
        nodes=[NodeSpec(f"n{i}", 1e9) for i in range(nnodes)],
        link=ethernet_100m(),
    )
    return DistributedExecutor(
        rewritten, plan, cluster, backend=backend,
        faults=faults, recovery=recovery, engine=engine,
    ).run()


def assert_masked(run, dead_nodes):
    """The full recovery contract for one run."""
    assert run.stdout == EXPECTED_STDOUT
    assert not run.degraded
    assert sorted({r.node for r in run.recovered}) == sorted(dead_nodes)
    assert all(r.kind == "recovered" for r in run.recovered)
    crash_records = {f.node for f in run.faults
                     if f.kind in ("crash", "worker_lost")}
    assert crash_records == set(dead_nodes)


# ------------------------------------------------------------ RecoveryPlan
def test_recovery_plan_round_trip():
    plan = RecoveryPlan(interval=9_000, heartbeat_cycles=1_000,
                        lease_cycles=50_000, copies=2, enabled=True)
    assert RecoveryPlan.from_dict(plan.to_dict()) == plan


def test_recovery_plan_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        RecoveryPlan.from_dict({"interval": 100, "cadence": 5})


@pytest.mark.parametrize("kwargs", (
    {"interval": 0},
    {"heartbeat_cycles": -1},
    {"heartbeat_cycles": 1_000, "lease_cycles": 10},
    {"copies": 0},
))
def test_recovery_plan_validation(kwargs):
    with pytest.raises(ConfigError):
        RecoveryPlan(**kwargs)


def test_recovery_homes_prefer_idle_nodes():
    # 5 machines, 3 partitions: nodes 3 and 4 are idle and rank first —
    # the same preference order plan_replication uses
    assert recovery_homes(0, 5, 3) == (3,)
    assert recovery_homes(0, 5, 3, copies=3) == (3, 4, 1)
    assert recovery_homes(3, 5, 3, copies=2) == (4, 0)
    # no idle nodes: the lowest surviving id takes over
    assert recovery_homes(0, 2, 2) == (1,)
    assert recovery_homes(1, 2, 2) == (0,)


# ----------------------------------------------------------- blob framing
def test_checkpoint_blob_round_trip():
    blob = {"node": 0, "epoch": 3, "objects": {1: ("O", "C", {"x": 9}, None)}}
    assert decode_checkpoint(encode_checkpoint(blob)) == blob


@pytest.mark.parametrize("mangle", (
    lambda b: b[:-1],                 # truncated payload (torn write)
    lambda b: b[:8] + b"\x00" * (len(b) - 8),  # corrupted payload
    lambda b: b[:3],                  # shorter than the header
    lambda b: b"",                    # nothing at all
))
def test_torn_checkpoint_blob_detected(mangle):
    data = encode_checkpoint({"node": 0, "epoch": 1})
    assert decode_checkpoint(mangle(data)) is None


# ----------------------------------------------------- the masking matrix
@pytest.mark.parametrize("backend", BACKENDS)
def test_single_crash_masked(backend):
    run = run_cluster(backend=backend,
                      faults=FaultPlan(crashes=((0, 9_000),)), recovery=REC)
    assert_masked(run, [0])
    baseline = run_cluster(backend=backend)
    assert run.result == baseline.result
    assert run.stdout == baseline.stdout


@pytest.mark.parametrize("backend", BACKENDS)
def test_double_nonadjacent_crash_masked(backend):
    run = run_cluster(
        backend=backend,
        faults=FaultPlan(crashes=((0, 9_000), (2, 5_000))), recovery=REC,
    )
    assert_masked(run, [0, 2])


@pytest.mark.parametrize("engine", ("fast", "compiled"))
def test_crash_masked_on_forced_engine(engine):
    run = run_cluster(faults=FaultPlan(crashes=((0, 9_000), (2, 5_000))),
                      recovery=REC, engine=engine)
    assert_masked(run, [0, 2])


def test_early_crash_before_first_checkpoint_masked():
    # the victim dies before any checkpoint barrier: recovery restores the
    # empty epoch-0 blob and replays the client's full log — and the
    # heartbeat traffic this generates must not false-fire anyone's lease
    run = run_cluster(faults=FaultPlan(crashes=((0, 1_500),)), recovery=REC)
    assert_masked(run, [0])
    assert not any(f.kind == "lease_expired" for f in run.faults)
    assert [r.node for r in run.recovered] == [0]
    assert "epoch 0" in run.recovered[0].detail


def test_recovery_charges_cycles():
    clean = run_cluster(recovery=REC)
    crashed = run_cluster(faults=FaultPlan(crashes=((0, 9_000),)),
                          recovery=REC)
    # checkpointing runs even fault-free; restoration only after a crash
    assert clean.checkpoint_overhead_cycles > 0
    assert clean.recovery_cycles == 0
    assert crashed.recovery_cycles > 0
    # masking is not free: the recovered run pays measurable virtual time
    assert crashed.makespan_s > clean.makespan_s


def test_fault_free_run_unchanged_by_recovery_plan():
    bare = run_cluster()
    with_rec = run_cluster(recovery=REC)
    assert with_rec.stdout == bare.stdout == EXPECTED_STDOUT
    assert with_rec.result == bare.result
    assert not with_rec.degraded and not with_rec.recovered


def test_main_node_crash_still_degrades():
    # the main partition has nowhere to migrate to (its continuation is
    # its own stack): PR-6 degradation semantics are preserved
    run = run_cluster(faults=FaultPlan(crashes=((1, 9_000),)), recovery=REC)
    assert run.degraded
    assert not run.recovered
    assert any(f.node == 1 and f.kind in ("crash", "worker_lost")
               for f in run.faults)


def test_disabled_recovery_plan_is_inert():
    run = run_cluster(
        faults=FaultPlan(crashes=((0, 9_000),)),
        recovery=RecoveryPlan(interval=4_000, enabled=False),
    )
    assert run.degraded
    assert not run.recovered


def test_two_node_cluster_recovers_without_idle_homes():
    # no idle machines: the main node itself is the recovery home
    bp, _ = compile_mj_raw(SRC)
    plan = DistributionPlan(
        nparts=2, granularity="class",
        class_home={"Worker": 0, "Helper": 0, "Main": 1},
        dependent_classes={"Worker", "Helper", "Main"},
        main_partition=1,
    )
    rewritten, _ = rewrite_program(bp, plan)
    cluster = ClusterSpec(
        nodes=[NodeSpec(f"n{i}", 1e9) for i in range(2)],
        link=ethernet_100m(),
    )
    baseline = DistributedExecutor(rewritten, plan, cluster).run()
    run = DistributedExecutor(
        rewritten, plan, cluster,
        faults=FaultPlan(crashes=((0, 9_000),)),
        recovery=REC,
    ).run()
    assert run.stdout == baseline.stdout == EXPECTED_STDOUT
    assert not run.degraded
    assert [r.node for r in run.recovered] == [0]


def _bank(backend, faults=None, recovery=None):
    from repro.api import Experiment
    from repro.harness.cache import StageCache

    return Experiment.from_options(
        "service_bank", size="bench", cache=StageCache(), backend=backend,
        nparts=3, nodes=3, force_distribution=True, faults=faults,
        recovery=recovery,
    ).run()


@pytest.mark.parametrize("backend", BACKENDS)
def test_service_bank_crash_of_a_non_main_node_is_masked(backend):
    """``service_bank`` on three nodes, node 1 crashing at cycle 200 000
    with the default plan: once a bare ``VMError`` ("recovered no copy of
    object n1#15"), now one recovered record and the fault-free stdout."""
    clean = _bank(backend)
    crashed = _bank(backend, FaultPlan(crashes=((1, 200_000),)),
                    RecoveryPlan())
    run = crashed.distributed
    assert crashed.stdout == clean.stdout == clean.sequential.stdout
    assert not run.degraded
    assert [(r.node, r.kind) for r in run.recovered] == [(1, "recovered")]
    assert {f.node for f in run.faults
            if f.kind in ("crash", "worker_lost")} == {1}


# -------------------------------------------------- detection primitives
class _FakeMPI:
    def __init__(self, size=3):
        self.size = size
        self.sent = []

    def isend(self, msg):
        self.sent.append(msg)
        yield ("cost", 1)


@pytest.fixture
def unit_reference_hz(monkeypatch):
    """Pin the detection reference speed to 1 Hz so the plan's
    cycle-denominated knobs map 1:1 onto node.clock seconds."""
    import repro.runtime.checkpoint as ckpt_mod

    monkeypatch.setattr(ckpt_mod, "REFERENCE_HZ", 1.0)


class _FakeNode:
    def __init__(self):
        self.node_id = 1
        self.main_partition = 1
        self.spec = NodeSpec("fake", 1.0)
        self.charged_cycles = 0
        self.clock = 0.0
        self.dead_peers = set()
        self.faults = []
        self.injector = object()   # fault plan present: leases are armed
        self.replica_dir = {}
        self.mpi = _FakeMPI()

    def take_matching(self, match):
        return None    # empty inbox


def _drive(gen):
    return [event for event in gen]


def test_heartbeats_emitted_on_cycle_schedule(unit_reference_hz):
    node = _FakeNode()
    rec = NodeRecovery(
        node, RecoveryPlan(interval=10**9, heartbeat_cycles=100,
                           lease_cycles=1_000), nparts=2,
    )
    node.clock = 150.0
    _drive(rec.tick(serving=False))
    beats = [m for m in node.mpi.sent if m.kind is MessageKind.HEARTBEAT]
    assert sorted(m.dst for m in beats) == [0, 2]
    # not due again until another 100 "cycles" of virtual time pass
    node.mpi.sent.clear()
    _drive(rec.tick(serving=False))
    assert node.mpi.sent == []
    node.clock = 260.0
    _drive(rec.tick(serving=False))
    assert [m.dst for m in node.mpi.sent
            if m.kind is MessageKind.HEARTBEAT] == [0, 2]


def test_lease_expiry_declares_peer_dead(unit_reference_hz):
    node = _FakeNode()
    rec = NodeRecovery(
        node, RecoveryPlan(interval=10**9, heartbeat_cycles=100,
                           lease_cycles=500), nparts=2,
    )
    rec.note_frame(2)              # heard from node 2 at clock 0
    node.clock = 400.0
    _drive(rec.tick(serving=False))
    assert 2 not in node.dead_peers          # lease not yet expired
    # expiry needs BOTH the lease window and >= 3 unanswered probes: walk
    # the clock through enough beat rounds to accumulate them
    for clock in (501.0, 601.0, 701.0, 801.0):
        node.clock = clock
        _drive(rec.tick(serving=False))
    assert 2 in node.dead_peers
    verdicts = [f for f in node.faults if f.kind == "lease_expired"]
    assert len(verdicts) == 1 and verdicts[0].node == 2


def test_lease_needs_unanswered_probes(unit_reference_hz):
    # a single clock burst far past the lease window (a node returning
    # from a long local stretch) must NOT indict a peer it never probed:
    # verdicts need several unanswered pings, not just elapsed time
    node = _FakeNode()
    rec = NodeRecovery(
        node, RecoveryPlan(interval=10**9, heartbeat_cycles=100,
                           lease_cycles=500), nparts=2,
    )
    rec.note_frame(2)
    node.clock = 50_000.0          # 100x the lease window in one jump
    _drive(rec.tick(serving=False))
    assert 2 not in node.dead_peers and node.faults == []
    # and a beat-back mid-probing resets the count: still no verdict
    node.clock = 50_100.0
    _drive(rec.tick(serving=False))
    rec.note_frame(2)
    node.clock = 50_200.0
    _drive(rec.tick(serving=False))
    assert 2 not in node.dead_peers and node.faults == []


def test_lease_disarmed_without_fault_plan(unit_reference_hz):
    node = _FakeNode()
    node.injector = None           # fault-free run: no verdicts, ever
    rec = NodeRecovery(
        node, RecoveryPlan(interval=10**9, heartbeat_cycles=100,
                           lease_cycles=500), nparts=2,
    )
    rec.note_frame(2)
    node.clock = 10_000.0
    _drive(rec.tick(serving=False))
    assert node.dead_peers == set() and node.faults == []
