"""Idle-CPU regression test for the worker transport (PR 10 satellite).

The original worker loop spun on ``conn.poll(0)`` across the whole pipe
mesh while blocked, burning a full core per idle node.  A blocked node now
sits in one ``poll()`` over its persistent fd set; these tests pin the
contract down — for a pipe link and for a socket link — by measuring actual
CPU time consumed while a node sits in ``wait`` with nothing arriving.
"""

import os
import socket
import sys
import pathlib
import threading
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))

from repro.runtime.cluster import NodeSpec
from repro.runtime.message import Message, MessageKind
from repro.runtime.worker import StreamNode


def _tcp_pair():
    with socket.create_server(("127.0.0.1", 0)) as server:
        a = socket.create_connection(server.getsockname())
        b, _ = server.accept()
    return a, b


def _assert_blocked_wait_is_idle(node, send):
    """A node blocked in wait for ~0.6s of wall time must burn (almost) no
    CPU: the wait is a real blocking poll, not a spin loop."""
    frame = Message(MessageKind.REPLY, 1, 0, 7, b"late").serialize()
    sender = threading.Timer(0.6, lambda: send(frame))
    sender.start()
    try:
        wall0 = time.monotonic()
        cpu0 = time.process_time()
        node.wait(10.0)
        wall = time.monotonic() - wall0
        cpu = time.process_time() - cpu0
        # the frame that woke us up is actually deliverable
        got = node.take_matching(lambda m: m.req_id == 7)
    finally:
        sender.cancel()
        sender.join()

    assert wall >= 0.5, "sender fired early — the wait never blocked"
    # a poll(0) spin loop would burn ~wall seconds of CPU here; the blocking
    # wait should use a small fraction (generous bound for slow CI boxes)
    assert cpu < 0.25, f"blocked wait burned {cpu:.3f}s CPU over {wall:.3f}s"
    assert got is not None and got.payload == b"late"


def test_blocked_wait_does_not_spin():
    ctrl, (r1, w1), (r2, w2) = os.pipe(), os.pipe(), os.pipe()
    node = StreamNode(0, NodeSpec("n0", 1e9), 3, ctrl[0])
    node.add_reader(r1, 1)
    node.add_reader(r2, 2)
    try:
        _assert_blocked_wait_is_idle(node, lambda frame: os.write(w1, frame))
    finally:
        node.close()
        for fd in (ctrl[1], w1, w2):
            os.close(fd)


def test_blocked_wait_does_not_spin_on_a_socket():
    ctrl = os.pipe()
    node = StreamNode(0, NodeSpec("n0", 1e9), 2, ctrl[0])
    ours, theirs = _tcp_pair()
    node.add_socket(ours, 1)
    try:
        _assert_blocked_wait_is_idle(node, theirs.sendall)
    finally:
        node.close()
        theirs.close()
        os.close(ctrl[1])
