"""MessageExchange unit tests: the node's one send path and one receive
path, request ids and the reply frame."""

import pytest

from helpers import compile_mj

from repro.lang.symbols import FIELD_GET
from repro.runtime.cluster import ClusterSpec, LinkSpec, NodeSpec
from repro.runtime.faults import FaultInjector, FaultPlan, RetriesExhausted
from repro.runtime.message import Message, MessageKind
from repro.runtime.serial import decode_value, encode_value
from repro.runtime.services import (
    CYCLES_PER_BYTE,
    ERR,
    SEND_BASE_CYCLES,
    MessageExchange,
)
from repro.runtime.simnet import SimCluster
from repro.vm.interpreter import Machine


def make_cluster(n=2):
    spec = ClusterSpec(
        nodes=[NodeSpec(f"n{i}", 1e9) for i in range(n)],
        link=LinkSpec(latency_s=1e-4, bandwidth_Bps=1e7),
    )
    cluster = SimCluster(spec)
    for node in cluster.nodes:
        node.exchange = MessageExchange(node, cluster)
    return cluster


def drive(gen, node, cluster):
    """Synchronously drive one generator, fast-forwarding the node clock.
    Mirrors the scheduler's rule: a 'wait' can only be satisfied by a
    *future* arrival (everything already arrived was examined and did not
    match)."""
    try:
        while True:
            ev = next(gen)
            if ev[0] == "cost":
                node.clock += ev[1] / node.spec.cpu_hz
            elif ev[0] == "wait":
                future = node.earliest_future_arrival()
                if future is None:
                    raise RuntimeError("would block forever")
                node.clock = future
    except StopIteration as stop:
        return stop.value


def costs(gen):
    """Run a generator that never waits; its cost events, in order."""
    events = list(gen)
    assert all(ev[0] == "cost" for ev in events), events
    return [ev[1] for ev in events]


def test_rank_and_size():
    cluster = make_cluster(3)
    assert [n.exchange.node.node_id for n in cluster.nodes] == [0, 1, 2]
    assert [n.exchange.size for n in cluster.nodes] == [3, 3, 3]


def test_send_recv_roundtrip():
    cluster = make_cluster()
    n0, n1 = cluster.nodes
    msg = Message(MessageKind.NEW, 0, 1, 42, b"payload")
    drive(n0.exchange.send(msg), n0, cluster)
    got = drive(n1.exchange.recv(lambda m: m.req_id == 42), n1, cluster)
    assert got.payload == b"payload"
    assert got.kind is MessageKind.NEW


def test_send_charges_cycles_per_byte():
    cluster = make_cluster()
    n0 = cluster.nodes[0]
    small = Message(MessageKind.NEW, 0, 1, 1, b"x")
    big = Message(MessageKind.NEW, 0, 1, 2, b"x" * 10000)
    t0 = n0.clock
    drive(n0.exchange.send(small), n0, cluster)
    t_small = n0.clock - t0
    t1 = n0.clock
    drive(n0.exchange.send(big), n0, cluster)
    t_big = n0.clock - t1
    assert t_big > t_small
    assert costs(n0.exchange.send(big)) == [SEND_BASE_CYCLES + CYCLES_PER_BYTE * 10000]


def test_nothing_is_taken_before_it_arrives():
    cluster = make_cluster()
    n0, n1 = cluster.nodes
    assert n1.take_matching(lambda m: True) is None
    drive(n0.exchange.send(Message(MessageKind.NEW, 0, 1, 1)), n0, cluster)
    assert n1.take_matching(lambda m: True) is None  # not yet arrived (latency)
    n1.clock = 1.0
    assert n1.take_matching(lambda m: True).req_id == 1


def test_a_reply_routes_back_to_the_requester():
    """A served request's reply is a REPLY frame from the server to the
    requester under the request's id (here an error reply: the object is
    not on the server's heap)."""
    cluster = make_cluster()
    n0, n1 = cluster.nodes
    n1.machine = Machine(compile_mj("class Main { static void main(String[] a) { } }"))
    payload = encode_value([5, FIELD_GET, "x", []], 0, None)
    req = Message(MessageKind.DEPENDENCE, 0, 1, 77, payload)
    drive(n1.exchange.handle_request(req), n1, cluster)
    reply = drive(n0.exchange.recv(), n0, cluster)
    assert reply.kind is MessageKind.REPLY
    assert reply.dst == 0 and reply.src == 1
    assert reply.req_id == 77
    assert decode_value(reply.payload, 0)[0] == ERR


def test_req_ids_unique_per_node():
    cluster = make_cluster()
    a = cluster.nodes[0].exchange
    b = cluster.nodes[1].exchange
    ids = {a.next_req_id() for _ in range(100)}
    ids |= {b.next_req_id() for _ in range(100)}
    assert len(ids) == 200


def test_recv_is_selective_and_ordered():
    cluster = make_cluster()
    n0, n1 = cluster.nodes
    for req in (1, 2, 3):
        drive(n0.exchange.send(Message(MessageKind.NEW, 0, 1, req)), n0, cluster)
    got = drive(n1.exchange.recv(lambda m: m.req_id == 2), n1, cluster)
    assert got.req_id == 2
    got = drive(n1.exchange.recv(lambda m: True), n1, cluster)
    assert got.req_id == 1  # earliest remaining


class _DropsFirst(FaultInjector):
    """Loses the first ``drops`` attempts, then delivers one copy."""

    def __init__(self, plan, drops):
        super().__init__(plan, 0)
        self.drops = drops

    def on_send(self, dst, req_id):
        if self.drops:
            self.drops -= 1
            return 0, 0.0
        return 1, 0.0


def test_a_dropped_send_is_retried_after_a_charged_backoff():
    cluster = make_cluster()
    n0, n1 = cluster.nodes
    plan = FaultPlan(backoff_cycles=100)
    n0.injector = _DropsFirst(plan, drops=3)
    msg = Message(MessageKind.NEW, 0, 1, 9, b"abc")
    assert costs(n0.exchange.send(msg)) == [
        SEND_BASE_CYCLES + CYCLES_PER_BYTE * 3, 100, 200, 400,
    ]
    assert n0.msgs_sent == 1
    n1.clock = 1.0
    assert n1.take_matching().req_id == 9


def test_a_link_that_never_delivers_exhausts_the_retries():
    cluster = make_cluster()
    n0 = cluster.nodes[0]
    plan = FaultPlan(partitions=((0, 1),), max_retries=3, backoff_cycles=10)
    n0.injector = FaultInjector(plan, 0)
    charged = []
    with pytest.raises(RetriesExhausted, match="lost after 4 attempts"):
        for ev in n0.exchange.send(Message(MessageKind.NEW, 0, 1, 1)):
            charged.append(ev[1])
    assert charged == [SEND_BASE_CYCLES, 10, 20, 40]
    assert n0.msgs_sent == 0
