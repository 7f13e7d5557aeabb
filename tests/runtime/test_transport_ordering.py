"""Transport ordering guarantees.

The message-exchange protocol relies on per-(src, dst) FIFO delivery: an
asynchronous remote write followed by a synchronous read of the same object
must observe the write (the paper's §4.2 communication optimization).  These
tests pin that down on every backend:

* a hypothesis property that the simulated network keeps per-pair FIFO under
  randomized latency, bandwidth and message sizes;
* the same property for the thread backend's locked queues, and — the
  lock being that backend's own, around a node core that takes none —
  concurrent senders against a draining node: exactly once, FIFO per
  sender, no wake-up slept through;
* the §async ablation invariant — async-write-then-sync-read reads its own
  writes — as an end-to-end MJ program on sim, thread and process backends.
"""

import sys
import pathlib
import threading
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import compile_mj_raw

from repro.distgen import rewrite_program
from repro.distgen.plan import DistributionPlan
from repro.runtime.cluster import ClusterSpec, LinkSpec, NodeSpec, ethernet_100m
from repro.runtime.executor import DistributedExecutor
from repro.runtime.message import Message, MessageKind
from repro.runtime.simnet import SimCluster
from repro.runtime.threads import ThreadBackend

BACKENDS = ("sim", "thread", "process")


# ------------------------------------------------------------- simnet property
@settings(max_examples=60, deadline=None)
@given(
    latency=st.floats(min_value=1e-6, max_value=0.5),
    bandwidth=st.floats(min_value=1e3, max_value=1e9),
    sizes=st.lists(st.integers(min_value=0, max_value=5000), min_size=1, max_size=30),
    interleave=st.lists(st.booleans(), min_size=0, max_size=30),
)
def test_simnet_fifo_per_pair_under_random_timing(latency, bandwidth, sizes, interleave):
    """Per-(src, dst) FIFO must hold whatever the link looks like: messages
    of wildly different sizes from the same sender arrive in send order,
    even when a second sender interleaves its own traffic."""
    spec = ClusterSpec(
        nodes=[NodeSpec(f"n{i}", 1e9) for i in range(3)],
        link=LinkSpec(latency_s=latency, bandwidth_Bps=bandwidth),
    )
    cluster = SimCluster(spec)
    received = []

    def sender():
        for req, size in enumerate(sizes, start=1):
            cluster.post(0, 2, Message(MessageKind.DEPENDENCE, 0, 2, req, b"x" * size))
            # vary the sender clock so departures are not simultaneous
            yield ("cost", 1000 * (size % 7 + 1))

    def other_sender():
        for req, _ in enumerate(interleave, start=1):
            cluster.post(1, 2, Message(MessageKind.DEPENDENCE, 1, 2, req, b"y" * 64))
            yield ("cost", 500)

    def receiver():
        want = len(sizes) + len(interleave)
        while len(received) < want:
            m = cluster.nodes[2].take_matching(lambda m: True)
            if m is not None:
                received.append((m.src, m.req_id))
            else:
                yield ("wait",)

    cluster.nodes[0].gen = sender()
    cluster.nodes[1].gen = other_sender()
    cluster.nodes[2].gen = receiver()
    cluster.run()

    from_0 = [req for src, req in received if src == 0]
    from_1 = [req for src, req in received if src == 1]
    assert from_0 == sorted(from_0), "per-(0,2) FIFO violated"
    assert from_1 == sorted(from_1), "per-(1,2) FIFO violated"


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=2000), min_size=1, max_size=40)
)
def test_thread_backend_fifo_per_pair(sizes):
    """The thread backend's locked queue preserves sender program order."""
    spec = ClusterSpec(
        nodes=[NodeSpec("a", 1e9), NodeSpec("b", 1e9)], link=ethernet_100m()
    )
    backend = ThreadBackend(spec)
    for req, size in enumerate(sizes, start=1):
        backend.post(0, 1, Message(MessageKind.DEPENDENCE, 0, 1, req, b"x" * size))
    got = []
    while True:
        m = backend.nodes[1].take_matching(lambda m: True)
        if m is None:
            break
        got.append(m.req_id)
    assert got == list(range(1, len(sizes) + 1))
    assert backend.nodes[0].msgs_sent == len(sizes)


def test_thread_node_concurrent_senders_exactly_once_and_fifo():
    """Six threads post into node 0 at once while its own thread drains,
    sleeping in ``wait`` whenever it finds nothing: every frame is taken
    exactly once, in its sender's order, and a delivery that lands between
    a failed scan and the wait is never slept through (the wait would time
    out with the structured "blocked" error)."""
    senders, per_sender = 6, 300
    spec = ClusterSpec(
        nodes=[NodeSpec(f"n{i}", 1e9) for i in range(senders + 1)],
        link=ethernet_100m(),
    )
    backend = ThreadBackend(spec)
    node = backend.nodes[0]
    go = threading.Barrier(senders + 1)

    def send(src):
        go.wait(10.0)
        for req in range(1, per_sender + 1):
            backend.post(src, 0, Message(MessageKind.DEPENDENCE, src, 0, req))
            if req % 2:
                time.sleep(1e-4)  # let the node drain: it must wait, often

    threads = [
        threading.Thread(target=send, args=(src,), daemon=True)
        for src in range(1, senders + 1)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads mid-method, not between
    try:
        for t in threads:
            t.start()
        go.wait(10.0)
        got = []
        while len(got) < senders * per_sender:
            # two looks in three are selective first, so frames are also
            # taken from the middle of the inbox while senders append to it
            want = len(got) % 3
            msg = (
                node.take_matching(lambda m: m.src % 3 == want)
                if want else None
            )
            if msg is None:
                msg = node.take_matching()
            if msg is None:
                node.wait(10.0)
            else:
                got.append((msg.src, msg.req_id))
        for t in threads:
            t.join(10.0)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert node.take_matching() is None
    assert len(set(got)) == len(got)
    for src in range(1, senders + 1):
        assert [req for s, req in got if s == src] == list(
            range(1, per_sender + 1)
        )
        assert backend.nodes[src].msgs_sent == per_sender
    assert node.msgs_received == senders * per_sender


@pytest.mark.parametrize("wake", ("delivery", "peer_gone"))
def test_thread_node_waiter_is_woken(wake):
    """A node blocked in ``wait`` sleeps on its inbox's condition; a frame
    from another thread and a lost link both wake it at once."""
    spec = ClusterSpec(
        nodes=[NodeSpec(f"n{i}", 1e9) for i in range(3)], link=ethernet_100m()
    )
    backend = ThreadBackend(spec)
    node = backend.nodes[0]
    assert node.take_matching() is None  # a failed scan: the wait may block
    woken = []

    def waiter():
        t0 = time.monotonic()
        node.wait(30.0)
        woken.append(time.monotonic() - t0)

    t = threading.Thread(target=waiter, daemon=True)
    t.start()
    time.sleep(0.05)
    assert not woken, "nothing happened, yet the wait returned"
    if wake == "delivery":
        backend.post(1, 0, Message(MessageKind.REPLY, 1, 0, 7))
    else:
        node.peer_gone(2)
    t.join(10.0)
    assert not t.is_alive() and woken[0] < 10.0
    if wake == "delivery":
        assert node.take_matching().req_id == 7
    else:
        assert node.gone_peers == {2}


# ------------------------------------------------- async ablation invariant
ASYNC_SRC = """
class Store {
    int a;
    int b;
    int[] arr;
    Store() { arr = new int[8]; }
    int sum() { return a + b + arr[3]; }
}
class M {
    static void main(String[] args) {
        Store s = new Store();
        int i;
        for (i = 0; i < 25; i++) {
            s.a = i;
            s.b = i * 2;
            s.arr[3] = i * 3;
        }
        Sys.println(s.sum() + "," + s.a + "," + s.arr[3]);
    }
}
"""


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("async_writes", (False, True))
def test_async_write_then_sync_read_consistent(backend, async_writes):
    """The §async ablation invariant: fire-and-forget remote field/array
    writes followed by a synchronous read observe every write, because the
    transport keeps per-pair FIFO.  Holds on every backend, and the result
    is identical with the optimization off."""
    bp, _ = compile_mj_raw(ASYNC_SRC)
    plan = DistributionPlan(
        nparts=2,
        granularity="class",
        class_home={"Store": 1, "M": 0},
        dependent_classes={"Store", "M"},
        main_partition=0,
    )
    rewritten, _ = rewrite_program(bp, plan)
    cluster = ClusterSpec(
        nodes=[NodeSpec("n0", 1e9), NodeSpec("n1", 1e9)], link=ethernet_100m()
    )
    result = DistributedExecutor(
        rewritten, plan, cluster, async_writes=async_writes, backend=backend
    ).run()
    assert result.stdout == ["144,24,72"]  # 24 + 48 + 72, a=24, arr[3]=72


def test_async_writes_send_fewer_replies_on_sim():
    """Sanity that the ablation really goes fire-and-forget: async mode
    moves fewer messages (no REPLY per write) for the same program."""
    bp, _ = compile_mj_raw(ASYNC_SRC)
    plan = DistributionPlan(
        nparts=2, granularity="class", class_home={"Store": 1, "M": 0},
        dependent_classes={"Store", "M"}, main_partition=0,
    )
    rewritten, _ = rewrite_program(bp, plan)
    cluster = ClusterSpec(
        nodes=[NodeSpec("n0", 1e9), NodeSpec("n1", 1e9)], link=ethernet_100m()
    )

    def run(async_writes):
        return DistributedExecutor(
            rewritten, plan, cluster, async_writes=async_writes, backend="sim"
        ).run()

    assert run(True).total_messages < run(False).total_messages
