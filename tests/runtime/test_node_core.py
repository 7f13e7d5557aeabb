"""The node core's contract, checked once over every transport.

The blocking rule, the event budget and the crash path live in
:class:`repro.runtime.backend.BackendNode` / ``run_node`` exactly once; a
backend only supplies how frames move.  These tests pin the shared
behaviour down per backend so a transport cannot drift away from it.
"""

import os
import socket
import sys
import pathlib
import threading
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))

import pytest

from helpers import compile_mj_raw

from repro.distgen import rewrite_program
from repro.distgen.plan import DistributionPlan
from repro.errors import RuntimeServiceError
from repro.runtime.backend import BackendNode
from repro.runtime.cluster import ClusterSpec, NodeSpec, ethernet_100m
from repro.runtime.executor import DistributedExecutor
from repro.runtime.faults import FaultInjector, FaultPlan, FaultRecord, PeerLost
from repro.runtime.message import FAULT_NOTICE, Message, MessageKind
from repro.runtime.worker import HELLO, StreamNode

BACKENDS = ("sim", "thread", "process", "tcp")

SPEC3 = ClusterSpec(
    nodes=[NodeSpec(f"n{i}", 1e9) for i in range(3)], link=ethernet_100m()
)


# ------------------------------------------------- (a) the blocking rule
def _thread_node():
    from repro.runtime.threads import ThreadBackend

    node = ThreadBackend(SPEC3).nodes[0]
    # the thread transport has no link to lose: death is protocol knowledge
    yield node, node.dead_peers.add


def _process_node():
    ctrl = os.pipe()
    pipes = {src: os.pipe() for src in (1, 2)}
    node = StreamNode(0, SPEC3.nodes[0], 3, ctrl[0])
    for src, (reader, _) in pipes.items():
        node.add_reader(reader, src)
    # a peer's exit closes its write end; the node sees EOF on its next read
    yield node, lambda peer: os.close(pipes[peer][1])
    node.close()
    os.close(ctrl[1])
    os.close(pipes[1][1])


def _tcp_node():
    from repro.runtime.tcp import TcpBackend, _link_sockets

    socks = TcpBackend(SPEC3)._bind_all()
    endpoints = [s.getsockname()[:2] for s in socks]
    ctrl = os.pipe()
    node = StreamNode(0, SPEC3.nodes[0], 3, ctrl[0])
    _link_sockets(node, [s.detach() for s in socks], endpoints)
    # both peers dial node 0, the way their workers would
    peers = {}
    for peer in (1, 2):
        peers[peer] = socket.create_connection(endpoints[0])
        peers[peer].sendall(HELLO.pack(peer))
        # a post waits for the peer's hello, so afterwards the link is up
        node.post(0, peer, Message(MessageKind.REPLY, 0, peer, 1))
    # a peer's exit closes its socket; the node sees EOF on its next read
    yield node, lambda peer: peers[peer].close()
    node.close()
    os.close(ctrl[1])
    peers[1].close()


def _sim_node():
    from repro.runtime.simnet import SimBackend

    yield SimBackend(SPEC3).nodes[0], None


_NODE_FACTORIES = {
    "sim": _sim_node, "thread": _thread_node, "process": _process_node,
    "tcp": _tcp_node,
}


@pytest.fixture(params=("thread", "process", "tcp"))
def blocked_node(request):
    """(node 0 of a 3-node cluster with every peer reachable, a function
    that makes one peer unreachable the way this transport learns it)."""
    yield from _NODE_FACTORIES[request.param]()


@pytest.fixture(params=BACKENDS)
def any_node(request):
    """Node 0 of a 3-node cluster, of each backend's node class."""
    for node, _ in _NODE_FACTORIES[request.param]():
        yield node


def test_wait_blocks_while_a_peer_lives_then_short_circuits(blocked_node):
    node, lose = blocked_node
    node.dead_peers.add(1)
    # one peer still reachable: the wait must block, then time out with the
    # structured deadlock error — not PeerLost
    t0 = time.monotonic()
    with pytest.raises(RuntimeServiceError, match="blocked") as err:
        node.wait(0.05)
    assert time.monotonic() - t0 >= 0.05
    assert not isinstance(err.value, PeerLost)
    # every peer unreachable: nothing can ever arrive, so the wait degrades
    # at once instead of riding out its (here: 60 s) timeout
    lose(2)
    assert node.take_matching(lambda m: True) is None
    t0 = time.monotonic()
    with pytest.raises(PeerLost):
        node.wait(60.0)
    assert time.monotonic() - t0 < 1.0


# ------------------------------------------ (a') receiver-side dedup at intake
def _queued(node):
    """Everything ``intake`` let through, in inbox order."""
    return list(iter(node.take_matching, None))


def test_a_uniquely_identified_frame_is_queued_once(any_node):
    any_node.injector = FaultInjector(FaultPlan(dup_pct=1.0), 0)
    reply = Message(MessageKind.REPLY, 1, 0, 7, b"r")
    same_id_other_peer = Message(MessageKind.REPLY, 2, 0, 7, b"s")
    same_id_other_kind = Message(MessageKind.DEPENDENCE, 1, 0, 7, b"d")
    for frame in (reply, reply, same_id_other_peer, reply,
                  same_id_other_kind, same_id_other_peer, same_id_other_kind):
        any_node.intake(frame)
    assert _queued(any_node) == [reply, same_id_other_peer, same_id_other_kind]


def test_frames_without_a_unique_id_always_pass(any_node):
    """Posts (0, or a negative id under a recovery plan), SHUTDOWN, fault
    notices and REPLAY frames are idempotent or carry their own ordering:
    a sender never duplicates them and a receiver never filters them."""
    any_node.injector = FaultInjector(FaultPlan(dup_pct=1.0), 0)
    frames = [
        Message(MessageKind.DEPENDENCE, 1, 0, 0, b"post"),
        Message(MessageKind.DEPENDENCE, 1, 0, -1_000_004, b"logged post"),
        Message(MessageKind.SHUTDOWN, 1, 0, 0),
        Message(MessageKind.SHUTDOWN, 2, 0, FAULT_NOTICE),
        Message(MessageKind.REPLAY, 1, 0, 0, b"entry"),
    ]
    for frame in frames:
        any_node.intake(frame)
        any_node.intake(frame)
    assert _queued(any_node) == [f for frame in frames for f in (frame, frame)]


def test_every_heartbeat_passes_and_is_counted(any_node):
    """A pong's ``req_id`` is ``HEARTBEAT_PONG`` (1) only to tell it from a
    ping.  Dedup once took it for a request id and kept each peer's first
    pong alone, so later pings went unanswered."""
    from repro.runtime.checkpoint import HEARTBEAT_PING, HEARTBEAT_PONG

    any_node.injector = FaultInjector(FaultPlan(dup_pct=1.0), 0)
    ping = Message(MessageKind.HEARTBEAT, 1, 0, HEARTBEAT_PING)
    pong = Message(MessageKind.HEARTBEAT, 1, 0, HEARTBEAT_PONG)
    for frame in (ping, pong, pong, ping, pong):
        any_node.intake(frame)
    assert _queued(any_node) == [ping, pong, pong, ping, pong]
    assert any_node.heartbeats_in == 5


def test_without_an_injector_nothing_is_filtered(any_node):
    assert any_node.injector is None
    reply = Message(MessageKind.REPLY, 1, 0, 7, b"r")
    any_node.intake(reply)
    any_node.intake(reply)
    assert _queued(any_node) == [reply, reply]


def test_heartbeat_counts_survive_concurrent_senders():
    """``heartbeats_in`` is written by sender threads, under the thread
    node's inbox lock, and only read by the node's own thread;
    ``heartbeats_taken`` is that thread's alone.  A lost update on either
    would leave ``NodeRecovery.due`` stuck on, or off with a beat queued."""
    from repro.runtime.checkpoint import NodeRecovery, RecoveryPlan
    from repro.runtime.threads import ThreadBackend

    node = ThreadBackend(SPEC3).nodes[0]
    recovery = NodeRecovery(
        node, RecoveryPlan(heartbeat_cycles=0, lease_cycles=0), nparts=3
    )
    senders, each = 8, 1_500

    def send(src):
        for _ in range(each):
            node.intake(Message(MessageKind.HEARTBEAT, src, 0, 1))

    threads = [
        threading.Thread(target=send, args=(1 + i % 2,)) for i in range(senders)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        deadline = time.monotonic() + 30.0
        while (
            recovery.heartbeats_taken < senders * each
            and time.monotonic() < deadline
        ):
            if recovery.due(serving=False):
                recovery.drain_heartbeats()
        for t in threads:
            t.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert node.heartbeats_in == recovery.heartbeats_taken == senders * each
    assert not recovery.due(serving=False)


# ------------------------------------- (b) + (c) whole runs, all four backends
PROGRAM = """
class Left  { int v; Left(int v)  { this.v = v; } int get() { return v; } }
class Right { int v; Right(int v) { this.v = v; } int get() { return v; } }

class Main {
    static void main(String[] args) {
        Left l = new Left(3);
        Right r = new Right(4);
        int acc = l.get() + r.get();
        int i = 0;
        while (i < 5000) { acc = (acc * 31 + i) % 65521; i = i + 1; }
        Sys.println("total:" + acc);
    }
}
"""


def _executor(backend, faults=None):
    """PROGRAM on 3 nodes: main in the middle, one served class each side.
    By the time main enters its loop it has completed a round trip with
    both peers, so every link is up in both directions."""
    bp, _ = compile_mj_raw(PROGRAM)
    plan = DistributionPlan(
        nparts=3,
        granularity="class",
        class_home={"Left": 0, "Main": 1, "Right": 2},
        dependent_classes={"Left", "Main", "Right"},
        main_partition=1,
    )
    rewritten, _ = rewrite_program(bp, plan)
    return DistributedExecutor(
        rewritten, plan, SPEC3, backend=backend, faults=faults
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_event_budget_exhaustion_is_a_structured_error(backend):
    t0 = time.monotonic()
    with pytest.raises(RuntimeServiceError, match="event budget"):
        _executor(backend).run(max_events=3)
    assert time.monotonic() - t0 < 30.0, "peers rode out their wait timeout"


@pytest.mark.parametrize("backend", BACKENDS)
def test_planned_crash_is_one_record_and_every_live_peer_is_told(
    backend, monkeypatch
):
    """The main node crashes on charging its loop, before its farewell.
    Both service nodes are idle by then and only ever stop on its fault
    notice, so each must receive it; intake is the single way in, so evidence planted there comes home
    in the node report on every backend (fork inherits the patch)."""
    real_intake = BackendNode.intake

    def noting_intake(self, msg, arrival=0.0):
        if msg.kind is MessageKind.SHUTDOWN and msg.req_id == FAULT_NOTICE:
            self.faults.append(
                FaultRecord(self.node_id, "notice_seen", f"from {msg.src}")
            )
        real_intake(self, msg, arrival)

    monkeypatch.setattr(BackendNode, "intake", noting_intake)
    run = _executor(backend, FaultPlan(crashes=((1, 20_000),), seed=1)).run()
    assert run.degraded
    assert [f.node for f in run.faults if f.kind == "crash"] == [1]
    assert sorted(
        (f.node, f.detail) for f in run.faults if f.kind == "notice_seen"
    ) == [(0, "from 1"), (2, "from 1")]
    assert len(run.node_stats) == 3


@pytest.mark.parametrize("backend", BACKENDS)
def test_total_duplication_is_invisible_above_intake(backend):
    """Every uniquely-identified frame goes out twice and is taken in once:
    the program, the served and answered request counts are the clean
    run's, and the wire carries exactly one extra copy per request and per
    reply."""
    clean = _executor(backend).run()
    doubled = _executor(backend, FaultPlan(dup_pct=1.0, seed=2)).run()
    assert not doubled.degraded and doubled.faults == []
    assert doubled.stdout == clean.stdout and len(clean.stdout) == 1
    assert doubled.result == clean.result

    def counts(run, field):
        return [getattr(s, field) for s in run.node_stats]

    for field in ("requests_served", "requests_sent", "latency_count"):
        assert counts(doubled, field) == counts(clean, field), field
    # a request and its reply are the frames with ``req_id > 0``
    identified = 2 * sum(counts(clean, "requests_sent"))
    assert identified > 0
    assert doubled.total_messages == clean.total_messages + identified
