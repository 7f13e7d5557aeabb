"""Discrete-event simulated cluster (the substitution for the paper's real
two-machine testbed; see DESIGN.md §2).

Each :class:`SimNode` owns a steppable VM machine and a generator (its
"process").  The scheduler always advances the runnable node with the
smallest virtual clock, which makes execution deterministic.  Generators
yield events:

* ``('cost', cycles)`` — CPU work: the node's clock advances by
  ``cycles / cpu_hz`` and the machine's cycle counter by ``cycles``;
* ``('wait',)``       — the node is blocked on message arrival; the
  scheduler fast-forwards its clock to the earliest in-flight arrival, or
  parks it until a sender posts one.

The fast VM path batches the cost of whole syscall-to-syscall spans into
one event, so the scheduler advances a node's clock by whole blocks between
communication boundaries instead of per instruction — an order of magnitude
fewer events for the same virtual timeline.  To keep the timeline *exactly*
the same either way, a node's clock is always derived from its integer
cycle total since the last fast-forward (``base + cycles/hz``) rather than
accumulated float-by-float: one big charge and a thousand small ones land
on the same clock value, bit for bit.

Message timing models a store-and-forward link with per-pair FIFO:
``arrival = max(sender_clock + latency, link_busy_until) + size/bandwidth``.
FIFO per (src, dst) pair preserves the ordering guarantees the message
exchange protocol relies on (e.g. asynchronous field writes followed by a
synchronous read).
"""

from __future__ import annotations

from bisect import bisect_right, insort
from itertools import count
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import RuntimeServiceError
from repro.runtime.backend import (
    BackendNode,
    BackendRun,
    RunPolicy,
    RuntimeBackend,
    Transport,
    assemble_run,
    node_report,
    provision,
    register_backend,
    shutdown_frames,
)
from repro.runtime.cluster import ClusterSpec, NodeSpec
from repro.runtime.faults import FaultError
from repro.runtime.message import FAULT_NOTICE, Message


#: sorts after every ``seq``: ``(t, _LAST)`` bisects past every arrival <= t
_LAST = float("inf")


class SimNode(BackendNode):
    """One simulated machine: VM + virtual clock + arrival-ordered inbox."""

    def __init__(self, node_id: int, spec: NodeSpec) -> None:
        super().__init__(node_id, spec)
        #: ``(arrival, seq, msg)`` sorted: earliest arrival first, ties in
        #: delivery order (``seq`` is unique, so ``msg`` is never compared)
        self.inbox: List[Tuple[float, int, Message]] = []
        self._seq = count()                  # tie-break: delivery order
        self.parked = False                  # blocked with empty inbox
        # clock derivation base: virtual time and cycle total at the last
        # fast-forward; clock = base + (charged - base_cycles) / hz
        self._base_clock = 0.0
        self._base_cycles = 0

    def charge(self, cycles: int) -> None:
        """Advance the virtual clock by ``cycles`` of CPU work.  Derived
        from the integer cycle total so per-block and per-step charging
        produce bit-identical clocks."""
        super().charge(cycles)
        self.clock = self._base_clock + (
            (self.charged_cycles - self._base_cycles) / self.spec.cpu_hz
        )

    def now(self) -> float:
        """Virtual time: latency samples on the simulator are functions of
        the modeled timeline, hence deterministic across VM engines."""
        return self.clock

    def fast_forward(self, t: float) -> None:
        """Jump the clock forward to ``t`` (a message arrival) and reset
        the cycle-derivation base there."""
        if t > self.clock:
            self.clock = t
        self._base_clock = self.clock
        self._base_cycles = self.charged_cycles

    def _enqueue(self, msg: Message, arrival: float) -> None:
        insort(self.inbox, (arrival, next(self._seq), msg))
        self.parked = False

    def wait(self) -> None:
        """The node just failed to find a matching message among the
        arrivals <= clock; only a *future* arrival can change that: jump to
        the earliest one, or park until a sender posts one."""
        future = self.earliest_future_arrival()
        if future is None:
            self.parked = True
        else:
            self.fast_forward(future)

    def earliest_future_arrival(self) -> Optional[float]:
        inbox = self.inbox
        i = bisect_right(inbox, (self.clock + 1e-15, _LAST))
        return inbox[i][0] if i < len(inbox) else None

    def take_matching(
        self, match: Optional[Callable[[Message], bool]] = None
    ) -> Optional[Message]:
        """Pop the earliest message with arrival <= clock satisfying
        ``match`` (non-matching messages stay queued)."""
        now = self.clock + 1e-15
        inbox = self.inbox
        for i, (arrival, _, msg) in enumerate(inbox):
            if arrival > now:
                break
            if match is None or match(msg):
                del inbox[i]
                self.msgs_received += 1
                return msg
        return None


class SimCluster(Transport):
    """The networked system: nodes + link + the event scheduler."""

    def __init__(self, spec: ClusterSpec) -> None:
        self.spec = spec
        self.nodes = [SimNode(i, ns) for i, ns in enumerate(spec.nodes)]
        self._link_busy: Dict[Tuple[int, int], float] = {}
        #: scheduler events processed by the last :meth:`run` (cost
        #: batching shrinks it by orders of magnitude at identical virtual
        #: timing; ``tests/vm/test_fastpath.py`` pins it per engine)
        self.events_processed = 0

    @property
    def nnodes(self) -> int:
        return len(self.nodes)

    @property
    def total_messages(self) -> int:
        return sum(n.msgs_sent for n in self.nodes)

    @property
    def total_bytes(self) -> int:
        return sum(n.bytes_sent for n in self.nodes)

    # ------------------------------------------------------------------ network
    def post(self, src: int, dst: int, msg: Message) -> None:
        """Inject a message; called by the sender's MessageExchange after it
        charged its serialization cost.  An injected duplicate occupies the
        link and the counters like any frame before intake discards it."""
        if not 0 <= dst < len(self.nodes):
            raise RuntimeServiceError(f"message to unknown node {dst}")
        sender = self.nodes[src]
        link = self.spec.link
        key = (src, dst)
        depart = max(sender.clock + link.latency_s, self._link_busy.get(key, 0.0))
        arrival = depart + msg.size / link.bandwidth_Bps
        self._link_busy[key] = arrival
        sender.msgs_sent += 1
        sender.bytes_sent += msg.size
        self.nodes[dst].intake(msg, arrival)

    def broadcast(self, frames) -> None:
        """Fault notices travel the modeled link like any other frame."""
        for frame in frames:
            self.post(frame.src, frame.dst, frame)

    # ------------------------------------------------------------------ scheduler
    def run(self, max_events: int = 200_000_000) -> None:
        """Drive all node generators to completion."""
        events = 0
        self.events_processed = 0
        try:
            while True:
                runnable = [
                    n for n in self.nodes if not n.done and not n.parked
                ]
                if not runnable:
                    # a parked node has, by construction, examined every
                    # message whose arrival is <= its clock; only *future*
                    # arrivals can unblock it
                    blocked = [
                        (a, n)
                        for n in self.nodes
                        if not n.done
                        for a in [n.earliest_future_arrival()]
                        if a is not None
                    ]
                    if not blocked:
                        if all(n.done for n in self.nodes):
                            return
                        raise RuntimeServiceError(
                            "distributed deadlock: all nodes blocked with "
                            "no messages in flight"
                        )
                    arrival, node = min(
                        blocked, key=lambda t: (t[0], t[1].node_id)
                    )
                    node.fast_forward(arrival)
                    node.parked = False
                    continue
                node = min(runnable, key=lambda n: (n.clock, n.node_id))
                events += 1
                if events > max_events:
                    raise RuntimeServiceError(
                        "simulation exceeded event budget"
                    )
                try:
                    node.step(next(node.gen))
                except StopIteration:
                    node.done = True
                except FaultError as exc:
                    self._fault_stop(node, exc)
        finally:
            self.events_processed = events

    def _fault_stop(self, node: SimNode, exc: FaultError) -> None:
        """Degrade instead of raising: record the fault, retire the node and
        tell every live peer so nobody waits forever on a reply that cannot
        come."""
        node.record_fault(exc)
        node.done = True
        node.parked = False
        node.gen.close()
        self.broadcast(
            shutdown_frames(
                node.node_id,
                [p.node_id for p in self.nodes if not p.done],
                FAULT_NOTICE,
            )
        )

    @property
    def makespan(self) -> float:
        return max(n.clock for n in self.nodes)


@register_backend
class SimBackend(SimCluster, RuntimeBackend):
    """The discrete-event simulator as a pluggable runtime backend: virtual
    clocks, deterministic scheduling, modeled network timing."""

    name = "sim"

    def execute(self, program, loaded, policy: RunPolicy) -> BackendRun:
        provision(self, loaded, policy)
        self.run(max_events=policy.max_events)
        return assemble_run(
            {n.node_id: node_report(n) for n in self.nodes}, policy
        )
