"""Idle-CPU regression test for the process backend (PR 10 satellite).

The original worker loop spun on ``conn.poll(0)`` across the whole pipe
mesh while blocked, burning a full core per idle node.  The fix blocks in
``multiprocessing.connection.wait()``; this test pins the contract down by
measuring actual CPU time consumed while a node sits in
``wait`` with nothing arriving.
"""

import sys
import pathlib
import threading
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))

from repro.runtime.cluster import NodeSpec
from repro.runtime.message import Message, MessageKind
from repro.runtime.proc import ProcNode
from repro.runtime.worker import mp_context


def test_blocked_wait_does_not_spin():
    """A node blocked in wait for ~0.6s of wall time must burn
    (almost) no CPU: the wait is a real blocking select, not a poll loop."""
    ctx = mp_context()
    r0, w0 = ctx.Pipe(duplex=False)
    r1, w1 = ctx.Pipe(duplex=False)
    node = ProcNode(0, NodeSpec("n0", 1e9), 3, {1: r0, 2: r1})

    frame = Message(MessageKind.REPLY, 1, 0, 7, b"late").serialize()
    sender = threading.Timer(0.6, lambda: w0.send_bytes(frame))
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
        for conn in (r0, w0, r1, w1):
            conn.close()

    assert wall >= 0.5, "sender fired early — the wait never blocked"
    # a poll(0) spin loop would burn ~wall seconds of CPU here; the blocking
    # wait should use a small fraction (generous bound for slow CI boxes)
    assert cpu < 0.25, f"blocked wait burned {cpu:.3f}s CPU over {wall:.3f}s"
    assert got is not None and got.payload == b"late"
