"""Re-entrant method invocation on a steppable machine.

Both the local dispatcher and the MessageExchange service need to run one
method call to completion *inside* an already-running machine (the paper's
runtime does the same when a DEPENDENCE request arrives at an object's home
node).  ``call_and_run`` pushes a frame whose return value is captured
instead of being handed to a caller frame, then drives the machine until
that frame pops — delegating any nested syscalls, so remote calls may nest
arbitrarily.  Driving goes through :meth:`Machine.drive`, so service-side
execution gets the same cost-batched fast path (and the same per-step
profiler fallback) as top-level execution."""

from __future__ import annotations

from typing import Iterator

from repro.bytecode.model import BMethod


def call_and_run(machine, method: BMethod, receiver, args) -> Iterator:
    """Generator: runs ``method`` to completion on ``machine``; yields cost
    events; returns the method's return value."""
    captured = []
    machine.call_bmethod(method, receiver, args, on_return=captured.append)
    # drive until the frame we just pushed has returned: its depth is the
    # current depth, so the stop condition is "depth fell below it"
    yield from machine.drive(len(machine.frames))
    return captured[0] if captured else None
