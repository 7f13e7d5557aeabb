"""Link-level tests for :class:`repro.runtime.worker.StreamNode`, the one
polled byte-stream transport under the ``process`` and ``tcp`` backends.

Everything a link can do to a node is driven here from the other end of a
real pipe and of a real TCP connection: torn and coalesced frames, the
connection hello, garbage, EOF, and two nodes writing more than a kernel
buffer at each other at once.
"""

import multiprocessing
import os
import signal
import socket
import sys
import pathlib
import zlib

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))

import pytest

from helpers import compile_mj_raw

from repro.distgen import rewrite_program
from repro.distgen.plan import DistributionPlan
from repro.runtime import worker as worker_mod
from repro.runtime.cluster import ClusterSpec, NodeSpec, ethernet_100m
from repro.runtime.executor import DistributedExecutor
from repro.runtime.faults import FaultRecord, PeerLost
from repro.runtime.message import Message, MessageKind
from repro.runtime.proc import _link_pipes
from repro.runtime.tcp import TcpBackend, _link_sockets
from repro.runtime.worker import HELLO, StreamNode


def _spec(n):
    return ClusterSpec(
        nodes=[NodeSpec(f"n{i}", 1e9) for i in range(n)], link=ethernet_100m()
    )


def _frames(n, src=1):
    return [
        Message(MessageKind.REPLY, src, 0, i + 1, bytes([i]) * (5 * i))
        for i in range(n)
    ]


def _drain(node, want, timeout_s=2.0):
    """Everything that reaches the inbox once ``want`` frames are in."""
    got = []
    while len(got) < want:
        msg = node.take_matching(lambda m: True)
        if msg is None:
            assert node.pump(timeout_s), f"only {len(got)}/{want} frames arrived"
        else:
            got.append(msg)
    return got


class _PipePeer:
    """Peer 1's ends of the two one-way pipes that link it to node 0."""

    def __init__(self, node):
        to_node, self._wfd = os.pipe()
        self._rfd, from_node = os.pipe()
        node.add_reader(to_node, 1)
        node.add_writer(from_node, 1)

    def send(self, data):
        os.write(self._wfd, data)

    def recv(self, n):
        return os.read(self._rfd, n)

    def close(self):
        for fd in (self._wfd, self._rfd):
            try:
                os.close(fd)
            except OSError:
                pass


class _SocketPeer:
    """Peer ``peer``'s end of a TCP connection it dialed to node 0."""

    def __init__(self, node, peer=1, hello=True):
        self._sock = socket.create_connection(node.test_endpoint)
        if hello:
            self.send(HELLO.pack(peer))
            # a post waits for the hello, so afterwards the link is up
            node.post(0, peer, Message(MessageKind.HEARTBEAT, 0, peer, 0))
            assert len(self.recv(64)) == 24

    def send(self, data):
        self._sock.sendall(data)

    def recv(self, n):
        return self._sock.recv(n)

    def close(self):
        self._sock.close()


@pytest.fixture
def node():
    """Node 0 of a 3-node cluster, listening, linked to nobody yet."""
    ctrl = os.pipe()
    node = StreamNode(0, NodeSpec("n0", 1e9), 3, ctrl[0])
    server = socket.create_server(("127.0.0.1", 0))
    node.test_endpoint = server.getsockname()
    node.listen(server)
    yield node
    node.close()
    os.close(ctrl[1])


@pytest.fixture(params=("pipe", "socket"))
def peer(request, node):
    """The far end of node 0's link to peer 1, over each kind of fd."""
    peer = (_PipePeer if request.param == "pipe" else _SocketPeer)(node)
    yield peer
    peer.close()


# ----------------------------------------------------------- reassembly
def test_frames_split_at_every_byte_boundary_reassemble_in_order(node, peer):
    msgs = _frames(3)
    stream = b"".join(m.serialize() for m in msgs)
    for cut in range(1, len(stream)):
        peer.send(stream[:cut])
        assert node.pump(2.0)          # the torn prefix is read and parked
        peer.send(stream[cut:])
        assert _drain(node, 3) == msgs, f"split at byte {cut}"
        assert node.take_matching(lambda m: True) is None


def test_several_frames_in_one_read_reassemble_in_order(node, peer):
    msgs = _frames(6)
    peer.send(b"".join(m.serialize() for m in msgs))
    assert node.pump(2.0)
    # one read took them all: nothing is left for a second look at the link
    assert not node.pump(0.05)
    assert _drain(node, 6) == msgs


# ------------------------------------------------------------- lost links
def _corrupt_crc(frame):
    return frame[:-1] + bytes([frame[-1] ^ 0xFF])


@pytest.mark.parametrize(
    "poison",
    (b"definitely not a frame header", _corrupt_crc(_frames(2)[1].serialize())),
    ids=("garbage", "crc"),
)
def test_unframeable_bytes_lose_the_peer(node, peer, poison):
    good = _frames(1)[0]
    peer.send(good.serialize() + poison)
    # what framed before the damage is delivered, then the link is dropped
    assert _drain(node, 1) == [good]
    assert node.gone_peers == {1}
    with pytest.raises(PeerLost, match="node 1 unreachable"):
        node.post(0, 1, good)


def test_eof_mid_frame_loses_the_peer(node, peer):
    frame = _frames(2)[1].serialize()
    peer.send(frame[: len(frame) // 2])
    assert node.pump(2.0)
    assert node.gone_peers == set()
    peer.close()
    assert node.pump(2.0)
    assert node.gone_peers == {1}
    assert node.take_matching(lambda m: True) is None
    with pytest.raises(PeerLost):
        node.post(0, 1, _frames(1)[0])


def test_parent_control_pipe_carries_raw_frames_and_is_nobodys_link():
    ctrl_r, ctrl_w = os.pipe()
    node = StreamNode(0, NodeSpec("n0", 1e9), 2, ctrl_r)
    try:
        notice = Message(MessageKind.SHUTDOWN, 1, 0, -1)
        os.write(ctrl_w, notice.serialize())
        assert _drain(node, 1) == [notice]
        os.close(ctrl_w)
        assert node.pump(2.0)
        assert node.gone_peers == set()
    finally:
        node.close()


# ------------------------------------------------------------------ hello
def test_hello_torn_across_two_writes(node):
    peer = _SocketPeer(node, hello=False)
    try:
        hello = HELLO.pack(2)
        peer.send(hello[:1])
        assert node.pump(2.0)          # accept
        assert node.pump(2.0)          # one byte of hello: not a peer yet
        msg = _frames(1, src=2)[0]
        peer.send(hello[1:] + msg.serialize())
        assert _drain(node, 1) == [msg]
        node.post(0, 2, msg)
        assert peer.recv(64) == msg.serialize()
        assert node.msgs_sent == 1 and node.bytes_sent == msg.size
    finally:
        peer.close()


@pytest.mark.parametrize("claimed", (3, 70_000, -2, 0, 1))
def test_invalid_hello_is_dropped_without_losing_a_real_peer(node, claimed):
    """Out of range, our own id, or a peer that is already connected: the
    connection is closed, and nobody is reported gone for it."""
    real = _SocketPeer(node)
    liar = _SocketPeer(node, hello=False)
    try:
        liar.send(HELLO.pack(claimed) + _frames(1)[0].serialize())
        assert node.pump(2.0)          # accept
        assert node.pump(2.0)          # hello read and refused
        assert liar.recv(64) == b""    # closed on us
        assert node.gone_peers == set()
        assert node.take_matching(lambda m: True) is None
        # peer 1's link is untouched, both ways
        msg = _frames(1)[0]
        real.send(msg.serialize())
        assert _drain(node, 1) == [msg]
        node.post(0, 1, msg)
        assert real.recv(64) == msg.serialize()
    finally:
        real.close()
        liar.close()


def test_post_to_a_peer_that_never_dials_is_peer_lost(node, monkeypatch):
    monkeypatch.setattr(worker_mod, "WAIT_TIMEOUT_S", 0.05)
    with pytest.raises(PeerLost, match="never connected"):
        node.post(0, 2, _frames(1)[0])
    assert node.msgs_sent == 0


# --------------------------------------------------------------- deadlock
BIG = 4 << 20


def _big_payload(node_id):
    return bytes([node_id + 1]) * BIG


def _exchange_big_frames(node_id, link, link_args, ctrl):
    """Child body: post a frame far larger than any pipe or socket buffer
    to the other node *before* reading anything, then expect its twin."""
    signal.alarm(10)
    other = 1 - node_id
    node = StreamNode(node_id, NodeSpec(f"n{node_id}", 1e9), 2, ctrl[node_id])
    link(node, *link_args)
    node.post(
        node_id, other,
        Message(MessageKind.REPLY, node_id, other, 1, _big_payload(node_id)),
    )
    got = None
    while got is None:
        got = node.take_matching(lambda m: True)
        if got is None:
            node.wait(10.0)
    node.close()
    ok = got.src == other and zlib.crc32(got.payload) == zlib.crc32(
        _big_payload(other)
    )
    os._exit(0 if ok else 1)


@pytest.mark.parametrize("kind", ("pipe", "socket"))
def test_two_nodes_posting_big_frames_at_each_other_do_not_deadlock(kind):
    """Both nodes write 4 MiB at each other before either reads.  A write
    the kernel will not take whole waits for room while draining the node's
    own inbound links, so both frames arrive intact.

    The parent commit hangs here on the process backend: its transport
    called a blocking ``conn.send_bytes``, so each worker sat in ``write``
    with its pipe full and nobody reading, and no timeout covered it."""
    if kind == "pipe":
        mesh = {(0, 1): os.pipe(), (1, 0): os.pipe()}
        link, link_args = _link_pipes, (mesh,)
        fds = [fd for ends in mesh.values() for fd in ends]
    else:
        socks = TcpBackend(_spec(2))._bind_all()
        endpoints = [s.getsockname()[:2] for s in socks]
        fds = [s.detach() for s in socks]
        link, link_args = _link_sockets, (fds, endpoints)
    ctrl = [os.pipe() for _ in range(2)]
    ctx = multiprocessing.get_context("fork")
    procs = [
        ctx.Process(
            target=_exchange_big_frames,
            args=(i, link, link_args, [r for r, _ in ctrl]),
        )
        for i in range(2)
    ]
    try:
        for p in procs:
            p.start()
        for fd in (*fds, *(fd for ends in ctrl for fd in ends)):
            os.close(fd)
        for p in procs:
            p.join(10.0)
        assert [p.exitcode for p in procs] == [0, 0]
    finally:
        for p in procs:
            if p.is_alive():
                p.kill()
                p.join(5.0)


# ---------------------------------------------------- a real run's sockets
SRC = """
class Cell { int v; Cell(int v) { this.v = v; } int get() { return v; } }
class M {
    static void main(String[] args) {
        Cell c = new Cell(41);
        Sys.println("cell:" + (c.get() + 1));
    }
}
"""


def test_both_ends_of_a_real_connection_run_with_nodelay(monkeypatch):
    """asyncio set TCP_NODELAY implicitly; the polled transport must do it
    itself, on the dialed and on the accepted socket.  Evidence rides home
    in each worker's report (fork inherits the patches)."""
    real_add, real_run = StreamNode.add_socket, worker_mod.run_node
    seen = []

    def noting_add(self, sock, peer):
        real_add(self, sock, peer)
        seen.append(sock)

    def reporting_run(node, transport, max_events):
        report = real_run(node, transport, max_events)
        for sock in seen:
            flag = sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            report.stats.faults.append(
                FaultRecord(node.node_id, "nodelay", str(flag)).to_dict()
            )
        return report

    monkeypatch.setattr(StreamNode, "add_socket", noting_add)
    monkeypatch.setattr(worker_mod, "run_node", reporting_run)
    bp, _ = compile_mj_raw(SRC)
    plan = DistributionPlan(
        nparts=2,
        granularity="class",
        class_home={"Cell": 1, "M": 0},
        dependent_classes={"Cell", "M"},
        main_partition=0,
    )
    rewritten, _ = rewrite_program(bp, plan)
    run = DistributedExecutor(rewritten, plan, _spec(2), backend="tcp").run()
    assert run.stdout == ["cell:42"]
    assert sorted(
        (f.node, f.detail) for f in run.faults if f.kind == "nodelay"
    ) == [(0, "1"), (1, "1")]
