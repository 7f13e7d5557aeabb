"""The MPI service (paper §5, Figure 10).

"The MPI service sets up the necessary MPI working environment — such as
groups, communicators, and the communication context."  The API follows
mpi4py's lowercase, pickle-style object methods (``send``/``recv``/
``isend``/``iprobe``) but all methods that can block are generators driven
by the runtime backend's node driver (the discrete-event scheduler, a
worker thread, or a worker process), and serialization uses the streamed
format of :mod:`repro.runtime.serial`.

Send/receive CPU costs model marshalling: a fixed per-call overhead plus a
per-byte copy cost, charged to the calling node's clock.
"""

from __future__ import annotations

from itertools import count
from typing import Callable, Iterator, Optional

from repro.runtime.backend import BackendNode, Transport
from repro.runtime.faults import RetriesExhausted
from repro.runtime.message import Message, MessageKind

#: marshalling cost model (abstract cycles)
SEND_BASE_CYCLES = 400
RECV_BASE_CYCLES = 300
CYCLES_PER_BYTE = 2


class Communicator:
    """A communication context over a subset of ranks (COMM_WORLD default)."""

    def __init__(self, transport: Transport, ranks: Optional[list] = None) -> None:
        self.transport = transport
        self.ranks = ranks if ranks is not None else list(range(transport.nnodes))

    @property
    def size(self) -> int:
        return len(self.ranks)


class MPIService:
    """Per-node endpoint: rank, communicator, typed send/recv."""

    def __init__(self, node: BackendNode, transport: Transport) -> None:
        self.node = node
        self.transport = transport
        self.comm_world = Communicator(transport)
        self._req_ids = count(node.node_id * 1_000_000 + 1)

    @property
    def rank(self) -> int:
        return self.node.node_id

    @property
    def size(self) -> int:
        return self.comm_world.size

    def next_req_id(self) -> int:
        return next(self._req_ids)

    # ------------------------------------------------------------------ send
    def send(self, msg: Message) -> Iterator:
        """Generator: charge marshalling cost, then post to the network.

        When the node carries a :class:`~repro.runtime.faults.FaultInjector`
        each post is a seeded decision: dropped sends are masked by bounded
        retry with exponential backoff (charged as cycles, so the cost model
        sees the loss); injected delay is an extra sender-side stall; a
        duplicated frame is simply posted twice (receivers dedup by req id).
        A link that never delivers (partition, or more consecutive drops
        than ``max_retries``) raises :class:`RetriesExhausted`."""
        yield ("cost", SEND_BASE_CYCLES + CYCLES_PER_BYTE * len(msg.payload))
        inj = self.node.injector
        if inj is None:
            self.transport.post(self.node.node_id, msg.dst, msg)
            return None
        attempt = 0
        while True:
            copies, delay_s = inj.on_send(msg.dst, msg.req_id)
            if copies:
                if delay_s:
                    yield ("cost", int(delay_s * self.node.spec.cpu_hz))
                for _ in range(copies):
                    self.transport.post(self.node.node_id, msg.dst, msg)
                return None
            attempt += 1
            if attempt > inj.plan.max_retries:
                raise RetriesExhausted(
                    f"send {self.node.node_id}->{msg.dst} "
                    f"({msg.kind.name} req={msg.req_id}) lost after "
                    f"{attempt} attempts"
                )
            yield ("cost", inj.backoff(attempt))

    def isend(self, msg: Message) -> Iterator:
        """Fire-and-forget send (the asynchronous point-to-point style the
        paper argues for over RPC); same cost, no completion handle needed
        in the simulated world."""
        return self.send(msg)

    # ------------------------------------------------------------------ recv
    def recv(
        self, match: Optional[Callable[[Message], bool]] = None
    ) -> Iterator:
        """Generator: blocks (yields ``('wait',)``) until a message matching
        ``match`` (any message without one) has *arrived*; returns it after
        charging unmarshalling cost."""
        while True:
            msg = self.node.take_matching(match)
            if msg is not None:
                # heartbeats are absorbed for free: their cost lives on the
                # sender.  Charging receipt would let idle nodes push each
                # other past their next heartbeat threshold — a
                # self-sustaining storm that races clocks ahead of the
                # nodes doing real work (and false-fires liveness leases).
                if msg.kind is not MessageKind.HEARTBEAT:
                    yield (
                        "cost",
                        RECV_BASE_CYCLES + CYCLES_PER_BYTE * len(msg.payload),
                    )
                return msg
            yield ("wait",)

    def recv_any(self) -> Iterator:
        return self.recv()

    def iprobe(self, match: Callable[[Message], bool]) -> bool:
        """Non-blocking arrival check."""
        return self.node.iprobe(match)

    # ------------------------------------------------------------------ helpers
    def reply_to(self, request: Message, payload: bytes) -> Message:
        return Message(
            MessageKind.REPLY, self.node.node_id, request.src,
            request.req_id, payload,
        )
