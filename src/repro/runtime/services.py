"""Runtime services (paper §5, Figure 10): ExecutionStarter and
MessageExchange, plus the DependentObject syscall dispatcher that connects
the VM to them.

"The core of this MPI-aware runtime support is the Message Exchange service.
This service processes all the send and receive MPI communication generated
from the object dependence information."  The paper's third service, the
MPI service that sets up each node's communication context, is part of
:class:`MessageExchange` here: it owns the node's request ids, its one send
path (marshalling charge, the fault injector's retries, the transport's
``post``) and its one receive path (the inbox take and the unmarshalling
charge).

Protocol (all request/reply, with nested requests served while waiting —
remote calls may call back into the requester):

* ``NEW  [class_name, ctor_args]``          → reply ``[status, ref]``
* ``DEPENDENCE [oid, access_type, member, args]`` → reply ``[status, value]``
* ``REPLICA_NEW [class_name, ctor_args, primary_node, primary_oid]`` →
  reply ``[status, True]`` — create a replica copy aliased to the primary
  object's identity
* ``REPLICA_DEP [primary_node, primary_oid, access_type, member, args]`` →
  reply ``[status, value]`` — a dependence access addressed to whichever
  local copy aliases that identity
* ``REPLY [status, value]`` — status 0 = ok, 1 = remote error (message
  text), 2 = recovery failure (the peer is unrecoverable; the requester
  degrades via :class:`~repro.runtime.faults.PeerLost`)
* ``SHUTDOWN`` — ends a node's serve loop; with ``req_id == FAULT_NOTICE``
  it is instead an emergency notice that ``src`` died (receivers mark the
  peer dead and keep serving unless the dead node ran ``main``).

The recovery tier (``repro.runtime.checkpoint``) adds HEARTBEAT /
CHECKPOINT / CHECKPOINT_ACK / REPLAY / RECOVER_NEW frames.  Its hooks live
here, at protocol quiescence: the top of the serve loop and the entry of
each outgoing request call ``NodeRecovery.tick`` (heartbeats, leases,
checkpoint barriers), clients retain state-bearing frames in a replay log,
and requests addressed to a recoverably-dead peer are transparently
re-routed to that peer's recovery home.
"""

from __future__ import annotations

from itertools import count
from typing import Callable, Iterator, List, Optional

from repro.distgen.quorum import read_quorum, write_quorum
from repro.errors import RuntimeServiceError, VMError
from repro.lang.symbols import ARRAY_GET, ARRAY_LEN, ARRAY_SET, FIELD_GET, FIELD_SET
from repro.runtime.faults import FaultError, PeerLost, QuorumLost, RetriesExhausted
from repro.runtime.local import access_local, create_local
from repro.runtime.message import FAULT_NOTICE, Message, MessageKind
from repro.runtime.backend import BackendNode, Transport, shutdown_frames
from repro.runtime.checkpoint import HEARTBEAT_PING
from repro.runtime.serial import decode_value, encode_value
from repro.vm.values import DependentRef, Ref

OK = 0
ERR = 1
#: reply status: the request touched an unrecoverable dead peer — the
#: requester raises PeerLost (degrade), not VMError (program error)
RECOVERY_ERR = 2

#: cycles charged for dispatching one incoming request (scheduling + lookup)
DISPATCH_CYCLES = 250

#: marshalling cost model (abstract cycles): a fixed per-frame overhead plus
#: a per-byte copy cost, charged to the sending / receiving node's clock
SEND_BASE_CYCLES = 400
RECV_BASE_CYCLES = 300
CYCLES_PER_BYTE = 2

#: req_id marking a fire-and-forget request (no reply expected).  Under an
#: enabled RecoveryPlan, posts instead carry *negative* unique ids (same
#: counter as requests) so checkpoint highwater marks cover them; any
#: ``req_id <= NO_REPLY`` means "do not reply".
NO_REPLY = 0

#: request kinds the recovery tier can transparently re-route to a dead
#: peer's recovery home (replicated-object traffic keeps its own quorum
#: fallback instead)
_RECOVERABLE_KINDS = (MessageKind.NEW, MessageKind.DEPENDENCE)


class MessageExchange:
    """A node's one messaging object: the paper's MPI service and Message
    Exchange in one.  Every frame the node's services send goes through
    :meth:`send`, every frame they take through :meth:`recv`; on top of the
    two sit the request/reply protocol (:meth:`request`, :meth:`post`,
    :meth:`handle_request`) and the serve loop."""

    def __init__(self, node: BackendNode, transport: Transport) -> None:
        self.node = node
        self.transport = transport
        #: ranks of the communication context (every node of the cluster)
        self.size = transport.nnodes
        self._req_ids = count(node.node_id * 1_000_000 + 1)
        self.requests_served = 0
        self.requests_sent = 0
        #: per-request latency samples in seconds (send to reply-decoded);
        #: the simulator's virtual clock makes these deterministic, real
        #: backends record wall time
        self.latencies_s: List[float] = []

    def next_req_id(self) -> int:
        return next(self._req_ids)

    # ------------------------------------------------------------ the wire
    def send(self, msg: Message) -> Iterator:
        """Generator: charge marshalling cost, then post to the network.

        When the node carries a :class:`~repro.runtime.faults.FaultInjector`
        each post is a seeded decision: dropped sends are masked by bounded
        retry with exponential backoff (charged as cycles, so the cost model
        sees the loss); injected delay is an extra sender-side stall; a
        duplicated frame is simply posted twice (receivers dedup by req id).
        A link that never delivers (partition, or more consecutive drops
        than ``max_retries``) raises :class:`RetriesExhausted`."""
        node = self.node
        yield ("cost", SEND_BASE_CYCLES + CYCLES_PER_BYTE * len(msg.payload))
        inj = node.injector
        if inj is None:
            self.transport.post(node.node_id, msg.dst, msg)
            return None
        attempt = 0
        while True:
            copies, delay_s = inj.on_send(msg.dst, msg.req_id)
            if copies:
                if delay_s:
                    yield ("cost", int(delay_s * node.spec.cpu_hz))
                for _ in range(copies):
                    self.transport.post(node.node_id, msg.dst, msg)
                return None
            attempt += 1
            if attempt > inj.plan.max_retries:
                raise RetriesExhausted(
                    f"send {node.node_id}->{msg.dst} "
                    f"({msg.kind.name} req={msg.req_id}) lost after "
                    f"{attempt} attempts"
                )
            yield ("cost", inj.backoff(attempt))

    def recv(self, match: Optional[Callable[[Message], bool]] = None) -> Iterator:
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

    # ------------------------------------------------------------------ client
    def request(self, dst: int, kind: MessageKind, payload_obj) -> Iterator:
        """Generator: send a request and wait for its reply, serving any
        incoming requests in the meantime (nested remote calls).  Each
        completed round-trip contributes one latency sample."""
        node = self.node
        t0 = node.now()
        if dst == node.node_id:
            raise RuntimeServiceError("request addressed to self")
        recovery = node.recovery
        if recovery is not None:
            recovery.guard_outbound()
            if recovery.due(serving=False):
                yield from recovery.tick(serving=False)
        if dst in node.dead_peers:
            if not self._can_reroute(dst, kind):
                raise PeerLost(
                    f"node {node.node_id} requested {kind.name} from node "
                    f"{dst}, which already failed"
                )
            value = yield from self._recover_request(
                dst, kind, payload_obj, self.request
            )
        else:
            req_id = self.next_req_id()
            payload = encode_value(payload_obj, node.node_id, node.machine.heap)
            msg = Message(kind, node.node_id, dst, req_id, payload)
            if recovery is not None:
                recovery.log_request(dst, req_id, kind, payload)
            self.requests_sent += 1
            try:
                yield from self.send(msg)
            except PeerLost:
                # transport-level death notice (e.g. the process backend's
                # pipe closed under the write): the frame never left this
                # node, so it is safe to drop from the replay log and
                # re-issue against the recovered state — same reasoning as
                # the FAULT_NOTICE path in _await_reply
                node.dead_peers.add(dst)
                if not self._can_reroute(dst, kind):
                    raise
                recovery.unlog_request(dst, req_id)
                value = yield from self._recover_request(
                    dst, kind, payload_obj, self.request
                )
            else:
                value = yield from self._await_reply(
                    req_id, dst, kind=kind, payload_obj=payload_obj
                )
        self.latencies_s.append(node.now() - t0)
        return value

    def _can_reroute(self, dead: int, kind: Optional[MessageKind]) -> bool:
        """Whether a ``kind`` request to the dead peer can be satisfied by
        its recovery home instead."""
        recovery = self.node.recovery
        return (
            recovery is not None
            and kind in _RECOVERABLE_KINDS
            and recovery.can_recover(dead)
        )

    def post(self, dst: int, kind: MessageKind, payload_obj) -> Iterator:
        """Fire-and-forget request (the asynchronous point-to-point style
        the paper argues message exchange enables over RPC).  Per-link FIFO
        ordering keeps later synchronous reads consistent.  Remote errors
        are lost — only safe for idempotent state writes."""
        node = self.node
        if dst == node.node_id:
            raise RuntimeServiceError("post addressed to self")
        recovery = node.recovery
        req_id = NO_REPLY
        if recovery is not None:
            recovery.guard_outbound()
            if dst in node.dead_peers and self._can_reroute(dst, kind):
                yield from self._recover_request(
                    dst, kind, payload_obj, self.post
                )
                return None
            # unique negative ids keep fire-and-forget posts inside the
            # checkpoint highwater accounting without soliciting replies
            req_id = -self.next_req_id()
        payload = encode_value(payload_obj, node.node_id, node.machine.heap)
        msg = Message(kind, node.node_id, dst, req_id, payload)
        if recovery is not None:
            recovery.log_request(dst, req_id, kind, payload)
        self.requests_sent += 1
        try:
            yield from self.send(msg)
        except PeerLost:
            # the pipe closed under the write: the frame never left, so
            # unlog it and re-route it like a post to a known-dead peer
            node.dead_peers.add(dst)
            if not self._can_reroute(dst, kind):
                raise
            recovery.unlog_request(dst, req_id)
            yield from self._recover_request(dst, kind, payload_obj, self.post)
        return None

    def _await_reply(
        self,
        req_id: int,
        dst: Optional[int] = None,
        kind: Optional[MessageKind] = None,
        payload_obj=None,
    ) -> Iterator:
        node = self.node

        def match(m: Message) -> bool:
            # take our reply; serve any other request kind while waiting;
            # SHUTDOWN while a reply is pending is a peer's teardown or a
            # fault notice — accept it so the requester fails fast instead
            # of stalling out its wait timeout
            if m.kind is MessageKind.REPLY:
                return m.req_id == req_id
            return True

        while True:
            msg = yield from self.recv(match)
            if msg.kind is MessageKind.REPLY:
                status, value = decode_value(msg.payload, node.node_id)
                if status == ERR:
                    raise VMError(f"remote error from node {msg.src}: {value}")
                if status == RECOVERY_ERR:
                    raise PeerLost(
                        f"recovery failed behind node {msg.src}: {value}"
                    )
                return value
            if msg.kind is MessageKind.SHUTDOWN:
                if msg.req_id == FAULT_NOTICE:
                    node.dead_peers.add(msg.src)
                    if msg.src == dst and self._can_reroute(dst, kind):
                        # the in-flight request died with the peer: it was
                        # never applied (FIFO: its reply would have preceded
                        # any checkpoint ack), so drop it from the replay
                        # log and re-issue it against the recovered state
                        node.recovery.unlog_request(dst, req_id)
                        result = yield from self._recover_request(
                            dst, kind, payload_obj, self.request
                        )
                        return result
                    if msg.src == dst or msg.src == node.main_partition:
                        raise PeerLost(
                            f"node {msg.src} died while node {node.node_id} "
                            f"awaited a reply from node {dst}"
                        )
                    continue  # someone else died — keep waiting
                raise RuntimeServiceError(
                    f"node {msg.src} shut down while node {node.node_id} "
                    f"awaited a reply (peer failure)"
                )
            yield from self.handle_request(msg)

    def _recover_request(self, dead: int, kind: MessageKind, payload_obj,
                         forward: Callable) -> Iterator:
        """Generator: transparently satisfy a request whose destination
        died recoverably — flush this client's replay log (the leading
        marker frame is the home's death verdict), then execute against
        the recovered state, locally when this node *is* the home, else
        ``forward`` it there (:meth:`request`, or :meth:`post` for a
        fire-and-forget write)."""
        node = self.node
        recovery = node.recovery
        yield from recovery.flush_replay(dead)
        home = recovery.home_of(dead)
        if home == node.node_id:
            result = yield from recovery.recovered_op(dead, kind, payload_obj)
            return result
        if kind is MessageKind.NEW:
            class_name, ctor_args = payload_obj
            result = yield from forward(
                home, MessageKind.RECOVER_NEW, [dead, class_name, ctor_args]
            )
            return result
        oid, access_type, member, args = payload_obj
        result = yield from forward(
            home, MessageKind.REPLICA_DEP, [dead, oid, access_type, member, args]
        )
        return result

    # ------------------------------------------------------------------ server
    def handle_request(self, msg: Message) -> Iterator:
        node = self.node
        machine = node.machine
        recovery = node.recovery
        if recovery is not None:
            recovery.note_frame(msg.src)
            if msg.kind is MessageKind.HEARTBEAT:
                recovery.heartbeats_taken += 1
                if msg.req_id == HEARTBEAT_PING:
                    yield from recovery.pong(msg.src)
                return None
            if msg.kind is MessageKind.CHECKPOINT:
                recovery.store_blob(msg.src, msg.payload)
                return None
            if msg.kind is MessageKind.CHECKPOINT_ACK:
                epoch, highwater = decode_value(msg.payload, node.node_id)
                recovery.note_ack(msg.src, epoch, highwater)
                return None
            if msg.kind is MessageKind.REPLAY:
                dead, _epoch, orig_req, kind_value, inner = (
                    recovery.parse_replay_frame(msg.payload)
                )
                yield ("cost", DISPATCH_CYCLES)
                yield from recovery.apply_replay(
                    dead, msg.src, orig_req, kind_value, inner
                )
                return None
        self.requests_served += 1
        yield ("cost", DISPATCH_CYCLES)
        try:
            body = decode_value(msg.payload, node.node_id)
            if recovery is not None and msg.kind in (
                MessageKind.NEW,
                MessageKind.DEPENDENCE,
                MessageKind.REPLICA_NEW,
                MessageKind.REPLICA_DEP,
            ):
                recovery.note_applied(msg.src, msg.req_id)
            if msg.kind is MessageKind.RECOVER_NEW and recovery is not None:
                dead, class_name, ctor_args = body
                try:
                    value = yield from recovery.recovered_op(
                        dead, MessageKind.NEW, [class_name, ctor_args or []]
                    )
                    result: List = [OK, value]
                except FaultError as exc:
                    result = [RECOVERY_ERR, str(exc)]
            elif msg.kind is MessageKind.NEW:
                class_name, ctor_args = body
                ref = yield from create_local(machine, class_name, ctor_args or [])
                result: List = [OK, ref]
            elif msg.kind is MessageKind.DEPENDENCE:
                oid, access_type, member, args = body
                recv = Ref(oid)
                value = yield from access_local(
                    machine, recv, access_type, member, args or []
                )
                result = [OK, value]
            elif msg.kind is MessageKind.REPLICA_NEW:
                class_name, ctor_args, pnode, poid = body
                ref = yield from create_local(machine, class_name, ctor_args or [])
                node.replica_dir[(pnode, poid)] = ref.oid
                result = [OK, True]
            elif msg.kind is MessageKind.REPLICA_DEP:
                pnode, poid, access_type, member, args = body
                if recovery is not None and (
                    recovery.responsible_for(pnode)
                    or (pnode in recovery.aborted)
                    or (
                        pnode != node.node_id
                        and pnode in node.dead_peers
                        and (pnode, poid) not in node.replica_dir
                        and recovery.home_of(pnode) == node.node_id
                    )
                ):
                    # an access re-routed to us as the dead primary's
                    # recovery home (the takeover is lazy: the replay
                    # marker normally precedes this, but a never-acked
                    # client may lead with the access itself)
                    try:
                        value = yield from recovery.recovered_op(
                            pnode, MessageKind.REPLICA_DEP, body
                        )
                        result = [OK, value]
                    except FaultError as exc:
                        result = [RECOVERY_ERR, str(exc)]
                elif pnode == node.node_id:
                    oid = poid
                    value = yield from access_local(
                        machine, Ref(oid), access_type, member, args or []
                    )
                    result = [OK, value]
                else:
                    oid = node.replica_dir.get((pnode, poid))
                    if oid is None:
                        raise VMError(
                            f"node {node.node_id} holds no replica of "
                            f"object n{pnode}#{poid}"
                        )
                    value = yield from access_local(
                        machine, Ref(oid), access_type, member, args or []
                    )
                    result = [OK, value]
            else:
                raise RuntimeServiceError(f"unexpected request {msg!r}")
        except VMError as exc:
            result = [ERR, str(exc)]
        if msg.req_id <= NO_REPLY:
            return None  # asynchronous request: nobody is waiting
        payload = encode_value(result, node.node_id, machine.heap)
        yield from self.send(
            Message(MessageKind.REPLY, node.node_id, msg.src, msg.req_id, payload)
        )

    def serve_forever(self) -> Iterator:
        """The service loop for non-initiating nodes: handle requests until
        SHUTDOWN.  A fault notice about a non-main peer is recorded and
        served *through* — that is what lets a replicated run outlive a
        minority of its replicas."""
        node = self.node
        recovery = node.recovery
        while True:
            if recovery is not None and recovery.due(serving=True):
                # protocol quiescence: no request is half-applied here, so
                # this is where heartbeats, leases and checkpoint barriers
                # are evaluated
                yield from recovery.tick(serving=True)
            msg = yield from self.recv()
            if msg.kind is MessageKind.SHUTDOWN:
                if msg.req_id == FAULT_NOTICE:
                    node.dead_peers.add(msg.src)
                    if msg.src == node.main_partition:
                        return None  # the initiator died: nothing left to serve
                    continue
                return None
            yield from self.handle_request(msg)


def make_node_syscall(node: BackendNode, async_writes: bool = False,
                      replicas=None):
    """The DependentObject dispatcher for a cluster node: resolves create/
    access locally when possible, otherwise exchanges NEW / DEPENDENCE
    messages with the object's home node.

    ``async_writes`` enables the communication optimization of paper §4.2:
    remote field/array *writes* go fire-and-forget instead of waiting for a
    reply (FIFO links keep read-after-write consistent).

    ``replicas`` maps class names to the ordered node tuple holding their
    copies (primary first).  Creates of a replicated class allocate on every
    replica (aliased to the primary copy's identity) and must reach a write
    majority; reads need ⌈n/2⌉ agreeing replicas; writes and invocations go
    to every live replica and must reach a write majority — the MCS quorum
    discipline, so any read quorum intersects any write quorum."""
    replicas = dict(replicas or {})
    read_types = (FIELD_GET, ARRAY_GET, ARRAY_LEN)

    def _local_replica_oid(pnode: int, poid: int):
        """This node's local oid for a replicated identity, or None."""
        if pnode == node.node_id:
            return poid
        return node.replica_dir.get((pnode, poid))

    def _create_replicated(class_name: str, ctor_args, rset) -> Iterator:
        """Allocate on every replica; the primary copy's (node, oid) is the
        object's identity, the others alias it via REPLICA_NEW."""
        machine = node.machine
        primary = rset[0]
        try:
            if primary == node.node_id:
                ref = yield from create_local(machine, class_name, ctor_args)
                primary_oid = ref.oid
            else:
                ref = yield from node.exchange.request(
                    primary, MessageKind.NEW, [class_name, ctor_args]
                )
                primary_oid = ref.oid
        except FaultError as exc:
            raise QuorumLost(
                f"primary replica (node {primary}) of {class_name} "
                f"unreachable: {exc}"
            ) from exc
        acks = 1
        for replica in rset[1:]:
            try:
                if replica == node.node_id:
                    local = yield from create_local(machine, class_name, ctor_args)
                    node.replica_dir[(primary, primary_oid)] = local.oid
                else:
                    yield from node.exchange.request(
                        replica,
                        MessageKind.REPLICA_NEW,
                        [class_name, ctor_args, primary, primary_oid],
                    )
                acks += 1
            except (PeerLost, RetriesExhausted, VMError):
                continue  # a minority of replicas may be gone
        if acks < write_quorum(len(rset)):
            raise QuorumLost(
                f"created only {acks}/{len(rset)} replicas of {class_name} "
                f"(write quorum {write_quorum(len(rset))})"
            )
        # always a DependentRef — even when the primary is local — so every
        # later access routes back through this dispatcher's quorum path
        return DependentRef(primary, primary_oid, class_name)

    def _access_replicated(recv: DependentRef, access_type: int, member: str,
                           call_args) -> Iterator:
        rset = replicas[recv.class_name]
        machine = node.machine
        n = len(rset)
        if access_type in read_types:
            needed, values = read_quorum(n), []
            for replica in rset:
                if len(values) >= needed:
                    break
                try:
                    if replica == node.node_id:
                        oid = _local_replica_oid(recv.node, recv.oid)
                        if oid is None:
                            continue
                        value = yield from access_local(
                            machine, Ref(oid), access_type, member, call_args
                        )
                    else:
                        value = yield from node.exchange.request(
                            replica,
                            MessageKind.REPLICA_DEP,
                            [recv.node, recv.oid, access_type, member, call_args],
                        )
                    values.append(value)
                except (PeerLost, RetriesExhausted, VMError):
                    continue
            if len(values) < needed:
                raise QuorumLost(
                    f"read quorum on {recv!r}.{member}: {len(values)}/{needed} "
                    f"replicas reachable"
                )
            if any(v != values[0] for v in values[1:]):
                raise QuorumLost(
                    f"read quorum on {recv!r}.{member} disagreed: {values!r}"
                )
            return values[0]
        # writes and invocations: apply on every live replica, majority must
        # succeed; the primary's result (or the first success) is returned
        acks, result, have_result = 0, None, False
        for replica in rset:
            try:
                if replica == node.node_id:
                    oid = _local_replica_oid(recv.node, recv.oid)
                    if oid is None:
                        continue
                    value = yield from access_local(
                        machine, Ref(oid), access_type, member, call_args
                    )
                else:
                    value = yield from node.exchange.request(
                        replica,
                        MessageKind.REPLICA_DEP,
                        [recv.node, recv.oid, access_type, member, call_args],
                    )
                acks += 1
                if not have_result or replica == recv.node:
                    result, have_result = value, True
            except (PeerLost, RetriesExhausted, VMError):
                continue
        if acks < write_quorum(n):
            raise QuorumLost(
                f"write quorum on {recv!r}.{member}: {acks}/{n} replicas "
                f"acknowledged (need {write_quorum(n)})"
            )
        return result

    def syscall(kind: str, recv, args) -> Iterator:
        machine = node.machine
        if kind == "create":
            ctor_args, location, class_name = args
            rset = replicas.get(class_name)
            if rset is not None and len(rset) > 1:
                result = yield from _create_replicated(
                    class_name, ctor_args or [], rset
                )
                return result
            if location == node.node_id:
                result = yield from create_local(machine, class_name, ctor_args or [])
                return result
            result = yield from node.exchange.request(
                location, MessageKind.NEW, [class_name, ctor_args or []]
            )
            return result
        if kind == "access":
            call_args, access_type, member = args
            if isinstance(recv, DependentRef):
                rset = replicas.get(recv.class_name)
                if rset is not None and len(rset) > 1:
                    result = yield from _access_replicated(
                        recv, access_type, member, call_args or []
                    )
                    return result
                if recv.node == node.node_id:
                    recv = Ref(recv.oid)
                elif async_writes and access_type in (FIELD_SET, ARRAY_SET):
                    yield from node.exchange.post(
                        recv.node,
                        MessageKind.DEPENDENCE,
                        [recv.oid, access_type, member, call_args or []],
                    )
                    return None
                else:
                    result = yield from node.exchange.request(
                        recv.node,
                        MessageKind.DEPENDENCE,
                        [recv.oid, access_type, member, call_args or []],
                    )
                    return result
            if recv is None:
                raise VMError("dependence access on null")
            result = yield from access_local(
                machine, recv, access_type, member, call_args or []
            )
            return result
        raise RuntimeServiceError(f"unknown syscall {kind!r}")  # pragma: no cover

    return syscall


class ExecutionStarter:
    """Starts the application (paper: "The Execution Starter service starts
    the application by invoking the main() method ... Only one copy needs to
    be active on the processor node where the user initiates the
    application.")."""

    def __init__(self, node: BackendNode, main_method) -> None:
        self.node = node
        self.main_method = main_method
        self.result = None

    def run(self) -> Iterator:
        node = self.node
        self.result = yield from node.machine.call(self.main_method, None, [None])
        # application finished: stop every other node's service loop.  Dead
        # peers are skipped, and a fault on the farewell itself must not
        # turn a completed run into a failed one.
        live = [
            other for other in range(node.exchange.size)
            if other != node.node_id and other not in node.dead_peers
        ]
        for farewell in shutdown_frames(node.node_id, live):
            try:
                yield from node.exchange.send(farewell)
            except FaultError:
                continue
        return self.result
