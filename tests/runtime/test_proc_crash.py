"""Process-backend worker-death tests: a worker killed before it can
report (SIGKILL — simulating OOM-kill or a segfault) must surface as a
structured ``worker_lost`` fault record promptly, never as a hang on the
results queue or on peers blocked in recv.
"""

import os
import signal
import sys
import pathlib
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))

import pytest

from helpers import compile_mj_raw

from repro.distgen import rewrite_program
from repro.distgen.plan import DistributionPlan
from repro.runtime import worker as worker_mod
from repro.runtime.cluster import ClusterSpec, NodeSpec, ethernet_100m
from repro.runtime.executor import DistributedExecutor

SRC = """
class Cell {
    int v;
    Cell(int v) { this.v = v; }
    int get() { return v; }
}

class Main {
    static void main(String[] args) {
        Cell c = new Cell(41);
        Sys.println("got:" + (c.get() + 1));
    }
}
"""


def _run_process(monkeypatch, victim):
    """Run SRC on the process backend with node ``victim`` SIGKILLing
    itself during provisioning (fork inherits the patch, the parent keeps
    the real function)."""
    real_provision = worker_mod.provision_node

    def killing_provision(node, transport, loaded, policy):
        if node.node_id == victim:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_provision(node, transport, loaded, policy)

    monkeypatch.setattr(worker_mod, "provision_node", killing_provision)
    bp, _ = compile_mj_raw(SRC)
    plan = DistributionPlan(
        nparts=2,
        granularity="class",
        class_home={"Cell": 0, "Main": 1},
        dependent_classes={"Cell", "Main"},
        main_partition=1,
    )
    rewritten, _ = rewrite_program(bp, plan)
    cluster = ClusterSpec(
        nodes=[NodeSpec(f"n{i}", 1e9) for i in range(2)],
        link=ethernet_100m(),
    )
    return DistributedExecutor(
        rewritten, plan, cluster, backend="process"
    ).run()


@pytest.mark.parametrize("victim", (0, 1))
def test_sigkilled_worker_becomes_structured_fault(monkeypatch, victim):
    t0 = time.monotonic()
    run = _run_process(monkeypatch, victim)
    elapsed = time.monotonic() - t0
    # promptly: dead-worker detection polls exit codes, it does not sit out
    # the 60 s recv timeout the peers would otherwise block in
    assert elapsed < 30.0
    assert run.degraded
    lost = [f for f in run.faults if f.kind == "worker_lost"]
    assert len(lost) == 1
    assert lost[0].node == victim
    assert f"node {victim}" in lost[0].detail
    # the survivor still reports; the dead node contributes zeroed stats
    assert len(run.node_stats) == 2


def test_unkilled_process_run_still_clean(monkeypatch):
    """Guard against the harness itself: with no victim the same plumbing
    reports a clean, undegraded run."""
    run = _run_process(monkeypatch, victim=-1)
    assert not run.degraded
    assert run.faults == []
    assert run.stdout == ["got:42"]


# --------------------------------------------------------- torn checkpoints
COUNTER_SRC = """
class Cell {
    int v;
    Cell(int v) { this.v = v; }
    int bump(int d) { v = v + d; return v; }
    int get() { return v; }
}

class Main {
    static void main(String[] args) {
        Cell c = new Cell(1);
        int i = 0;
        while (i < 40) { c.bump(i); i = i + 1; }
        Sys.println("cell:" + c.get());
    }
}
"""
COUNTER_STDOUT = ["cell:781"]


def _run_counter(monkeypatch, recovery, torn_victim=-1):
    """COUNTER_SRC on the process backend; with ``torn_victim`` >= 0 that
    node is SIGKILLed in the middle of shipping its second checkpoint, so
    its recovery home holds epoch 1 intact and a truncated epoch-2 blob."""
    from repro.runtime import checkpoint as ckpt_mod
    from repro.runtime.message import Message, MessageKind

    real_checkpoint = ckpt_mod.NodeRecovery.checkpoint

    def torn_checkpoint(self):
        if self.node.node_id == torn_victim and self.epoch >= 1:
            # the write is torn mid-flight: only a prefix of the encoded
            # blob reaches the home, then the process dies on the spot —
            # no acks, no retransmit
            node = self.node
            payload = ckpt_mod.encode_checkpoint(self._snapshot_blob())
            torn = payload[: max(8, len(payload) // 3)]
            for home in ckpt_mod.recovery_homes(
                node.node_id, node.exchange.size, self.nparts, self.plan.copies
            ):
                yield from node.exchange.send(
                    Message(MessageKind.CHECKPOINT, node.node_id, home, 0, torn)
                )
            os.kill(os.getpid(), signal.SIGKILL)
        result = yield from real_checkpoint(self)
        return result

    monkeypatch.setattr(
        ckpt_mod.NodeRecovery, "checkpoint", torn_checkpoint
    )
    bp, _ = compile_mj_raw(COUNTER_SRC)
    plan = DistributionPlan(
        nparts=2,
        granularity="class",
        class_home={"Cell": 0, "Main": 1},
        dependent_classes={"Cell", "Main"},
        main_partition=1,
    )
    rewritten, _ = rewrite_program(bp, plan)
    cluster = ClusterSpec(
        nodes=[NodeSpec(f"n{i}", 1e9) for i in range(3)],
        link=ethernet_100m(),
    )
    return DistributedExecutor(
        rewritten, plan, cluster, backend="process", recovery=recovery
    ).run()


def test_sigkill_during_checkpoint_write_falls_back_an_epoch(monkeypatch):
    from repro.runtime.checkpoint import RecoveryPlan

    t0 = time.monotonic()
    run = _run_counter(
        monkeypatch,
        recovery=RecoveryPlan(interval=2_000),
        torn_victim=0,
    )
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    # the torn epoch-2 blob failed validation at the home and was dropped
    torn = [f for f in run.faults if f.kind == "torn_checkpoint"]
    assert torn and torn[0].node == 0
    assert "keeping previous epoch" in torn[0].detail
    # ... so the takeover restored epoch 1, replayed the rest, and the
    # crash is fully masked: byte-identical output, nothing degraded
    assert [r.node for r in run.recovered] == [0]
    assert "epoch 1" in run.recovered[0].detail
    assert not run.degraded
    assert run.stdout == COUNTER_STDOUT
    assert any(f.kind == "worker_lost" and f.node == 0 for f in run.faults)


def test_counter_workload_baseline_masks_plain_sigkill(monkeypatch):
    """Same workload, no torn write: checkpointed recovery on the process
    backend masks an uncorrupted crash too (the control for the test
    above)."""
    from repro.runtime.checkpoint import RecoveryPlan

    run = _run_counter(monkeypatch, recovery=RecoveryPlan(interval=2_000))
    assert not run.degraded
    assert run.stdout == COUNTER_STDOUT
    assert run.faults == []
