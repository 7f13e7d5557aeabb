"""The recovery tier: checkpointed object state, heartbeat leases and
object migration on top of the PR-6 fault machinery.

PR 6 made crashes *survivable* — a killed node degrades the run to a
structured fault report.  This module makes recoverable crashes *masked*:
for a :class:`RecoveryPlan`-enabled run, a crashed node's remote objects
are re-homed onto a surviving node and the run finishes with results and
stdout bit-identical to the fault-free execution (at a measurable cycle
cost).  Four cooperating mechanisms:

* **Checkpointing** — every serving node snapshots its heap (objects,
  allocation counter, per-client applied-request highwater marks, stdout)
  at deterministic cycle-interval barriers, evaluated only at protocol
  quiescence (the top of the serve loop, so a snapshot never captures a
  half-applied request).  The blob ships to the node's *recovery home* —
  chosen idle-node-first in exactly the preference order of
  :func:`repro.distgen.quorum.plan_replication` — framed with its own
  length + crc32 so a torn write is detected and the previous epoch is
  used instead.
* **Detection** — cycle-charged ``HEARTBEAT`` frames plus a lease: a peer
  that has been heard from but then stays silent for ``lease_cycles`` of
  virtual time and ignores several pings is declared dead.  That is the
  simulator's detector.  On ``thread`` / ``process`` / ``tcp`` ``node.clock``
  stays 0.0 until ``run_node`` returns, so a node sends exactly one beat
  round (at its first quiescent point), no lease can expire, and detection
  is the backends' own death notices (thread fault notice, the process
  backend's exit-code polling), which feed the same verdict.
* **Takeover & replay** — clients retain every state-bearing frame they
  sent in a per-destination replay log, trimmed one epoch behind the
  destination's ``CHECKPOINT_ACK`` highwater (so a fallback to the
  previous epoch still finds every op it needs).  On a death verdict the
  recovery home restores the newest intact blob into its own heap —
  aliased through ``replica_dir`` under the dead node's identity, with a
  *virtual allocation counter* continuing the dead node's oid sequence so
  re-homed references stay bit-identical to the fault-free run — and
  clients re-issue their retained logs (epoch-keyed, filtered against the
  blob's highwater marks so nothing is applied twice).
* **Evidence** — each masked crash emits a ``RECOVERED`` record next to
  the crash's own :class:`~repro.runtime.faults.FaultRecord`; the dead
  node's stdout stream is reconstructed (checkpointed prefix + re-executed
  suffix) so the run's aggregate stdout matches the fault-free run.

Soundness guard: replayed operations must be confined to the dead node's
own objects.  A replayed op that needs outbound traffic, or replay logs
arriving from more than one client, abort the recovery and the run
degrades exactly as PR 6 — never silently diverges.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigError, VMError
from repro.runtime.faults import FaultError, FaultRecord, PeerLost, RecoveryAborted
from repro.runtime.local import access_local, create_local
from repro.runtime.message import Message, MessageKind
from repro.runtime.serial import decode_value, encode_value
from repro.vm.values import DependentRef, Ref

__all__ = [
    "RecoveryPlan",
    "NodeRecovery",
    "recovery_homes",
    "encode_checkpoint",
    "decode_checkpoint",
]

#: abstract-cycle cost model for the recovery machinery (charged like any
#: other CPU work, so overhead is visible in clocks and speedups)
CHECKPOINT_BASE_CYCLES = 800
CHECKPOINT_CYCLES_PER_BYTE = 1
RESTORE_BASE_CYCLES = 600
RESTORE_CYCLES_PER_OBJECT = 120
HEARTBEAT_CYCLES_COST = 40

#: a lease verdict additionally needs this many consecutive unanswered
#: probes — one missed beat is a busy peer, several are a dead one
LEASE_MIN_PINGS = 3

#: the plan's cycle-denominated detection knobs are converted to virtual
#: seconds at this fixed reference speed, NOT each node's own CPU speed:
#: liveness is a property of the *network* (clocks are loosely synchronized
#: by message timestamps), so a 3.2 GHz observer must not run a 8x shorter
#: lease against a 400 MHz peer whose beat period is 8x longer
REFERENCE_HZ = 1.0e9

#: HEARTBEAT req_id discriminator: pings solicit an immediate pong (so a
#: probed peer answers within a round trip no matter how long its own beat
#: period is); pongs terminate the exchange
HEARTBEAT_PING = 0
HEARTBEAT_PONG = 1

#: blob frame: payload length + crc32 of the payload (torn-write detection)
_BLOB_HEADER = struct.Struct("<II")
#: replay frame prefix: dead node, client's last acked epoch, original
#: (signed) request id, original message kind (0 = takeover marker)
_REPLAY_HEADER = struct.Struct("<hiqB")


# ---------------------------------------------------------------------------
# the typed plan
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RecoveryPlan:
    """How a run checkpoints and recovers, described up front.

    ``interval`` is the cycle distance between checkpoint barriers
    (evaluated at protocol quiescence, so actual snapshots land on the
    first quiescent point after each crossing).  ``heartbeat_cycles`` /
    ``lease_cycles`` parameterize failure detection; ``copies`` is how
    many recovery homes each node ships its blobs to (placement follows
    the idle-node-first order of ``plan_replication``).  ``enabled``
    False keeps the plan inert (useful as a sweep axis endpoint).
    """

    interval: int = 60_000
    #: beat cadence, in cycles of the node's own CPU (150 us at 1 GHz).
    #: Beats fan out to every live peer per round, so this also bounds the
    #: liveness traffic: a much shorter period floods the virtual network
    #: with HEARTBEAT frames to no detection benefit, since a lease verdict
    #: additionally needs LEASE_MIN_PINGS unanswered probes
    heartbeat_cycles: int = 150_000
    lease_cycles: int = 600_000
    copies: int = 1
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ConfigError(
                f"RecoveryPlan.interval must be >= 1, got {self.interval}"
            )
        if self.heartbeat_cycles < 0:
            raise ConfigError(
                f"RecoveryPlan.heartbeat_cycles must be >= 0, "
                f"got {self.heartbeat_cycles}"
            )
        if self.heartbeat_cycles and self.lease_cycles < self.heartbeat_cycles:
            raise ConfigError(
                "RecoveryPlan.lease_cycles must be >= heartbeat_cycles "
                f"({self.lease_cycles} < {self.heartbeat_cycles})"
            )
        if self.copies < 1:
            raise ConfigError(
                f"RecoveryPlan.copies must be >= 1, got {self.copies}"
            )

    # ----------------------------------------------------------- round trip
    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RecoveryPlan":
        if not isinstance(data, dict):
            raise ConfigError(
                f"RecoveryPlan.from_dict needs a dict, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(
                f"unknown RecoveryPlan field(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        return cls(**data)


def recovery_homes(
    dead: int, cluster_size: int, nparts: int, copies: int = 1
) -> Tuple[int, ...]:
    """Where a node's checkpoints live and who takes over when it dies:
    idle nodes (beyond the plan's partitions) first, then id order — the
    exact preference order of :func:`repro.distgen.quorum.plan_replication`,
    so replica placement and recovery placement agree."""
    ranked = sorted(range(cluster_size), key=lambda n: (n < nparts, n))
    candidates = [n for n in ranked if n != dead]
    return tuple(candidates[: max(1, copies)])


# ---------------------------------------------------------------------------
# blob framing (torn-write detection)
# ---------------------------------------------------------------------------
def encode_checkpoint(blob: Dict[str, Any]) -> bytes:
    """Frame one checkpoint blob: length + crc32 + pickle.  The crc makes
    a torn write (killed mid-checkpoint) detectable, so recovery falls
    back to the previous epoch instead of loading a partial snapshot."""
    raw = pickle.dumps(blob, protocol=4)
    return _BLOB_HEADER.pack(len(raw), zlib.crc32(raw)) + raw


def decode_checkpoint(data: bytes) -> Optional[Dict[str, Any]]:
    """Inverse of :func:`encode_checkpoint`; ``None`` for a torn blob."""
    if len(data) < _BLOB_HEADER.size:
        return None
    length, crc = _BLOB_HEADER.unpack_from(data)
    raw = data[_BLOB_HEADER.size:]
    if len(raw) != length or zlib.crc32(raw) != crc:
        return None
    try:
        blob = pickle.loads(raw)
    except Exception:
        return None
    return blob if isinstance(blob, dict) else None


# ---------------------------------------------------------------------------
# the per-node recovery engine
# ---------------------------------------------------------------------------
class NodeRecovery:
    """One node's view of the recovery protocol: checkpoint producer,
    heartbeat/lease observer, replay-log keeper (as a client) and recovery
    home (as a survivor).  Installed on ``BackendNode.recovery`` by
    :func:`repro.runtime.backend.provision_node` when the run policy
    carries an enabled :class:`RecoveryPlan`."""

    #: message kinds a client must retain for replay (state can depend on
    #: them); mirrored by the server-side applied-highwater accounting
    LOGGED_KINDS = frozenset(
        (
            MessageKind.NEW._value_,
            MessageKind.DEPENDENCE._value_,
            MessageKind.REPLICA_NEW._value_,
            MessageKind.REPLICA_DEP._value_,
        )
    )

    def __init__(self, node, plan: RecoveryPlan, nparts: int) -> None:
        self.node = node
        self.plan = plan
        self.nparts = nparts
        # --- metrics
        self.checkpoint_overhead_cycles = 0
        self.recovery_cycles = 0
        # --- checkpoint producer (serving nodes)
        self.epoch = 0
        self._next_ckpt = plan.interval
        self._applied_highwater: Dict[int, int] = {}
        # --- detection: beats and leases run on *virtual time* (node.clock,
        # loosely synchronized across the cluster by message timestamps),
        # never on charged cycles.  Charged cycles advance with local work,
        # so an idle-but-alive node would legitimately stop beating and a
        # node in a long burst (a takeover replay, say) would race its
        # lease clock thousands of cycles ahead of its peers and declare
        # live nodes dead.  REFERENCE_HZ makes the periods identical on
        # every node regardless of its CPU speed.
        self._beat_period_s = plan.heartbeat_cycles / REFERENCE_HZ
        self._lease_s = plan.lease_cycles / REFERENCE_HZ
        self._next_beat_s = 0.0
        self._last_heard: Dict[int, float] = {}
        #: beats sent to a peer since we last heard from it (ping-ack), and
        #: how many peers have LEASE_MIN_PINGS or more of them outstanding
        self._unanswered: Dict[int, int] = {}
        self._suspects = 0
        self.heartbeats_taken = 0     # of the node's ``heartbeats_in``
        # --- client side (replay logs)
        self._replay_log: Dict[int, List[Tuple[int, int, bytes]]] = {}
        self._acks: Dict[int, List[Tuple[int, int]]] = {}
        self._flushed: set = set()
        # --- recovery home side
        self.blobs: Dict[int, Dict[int, Dict[str, Any]]] = {}
        self.recovered: Dict[int, int] = {}          # dead -> epoch used
        self.recovered_records: List[FaultRecord] = []
        self.adopted: Dict[int, List[str]] = {}      # dead -> stdout stream
        self.virtual_next: Dict[int, int] = {}       # dead -> next virtual oid
        self.aborted: Dict[int, str] = {}
        self._replay_filter: Dict[int, Dict[int, int]] = {}
        self._replay_src: Dict[int, int] = {}
        self._replaying = False

    # ------------------------------------------------------------ topology
    def home_of(self, dead: int) -> int:
        """The (static, cluster-wide agreed) takeover node for ``dead``."""
        return recovery_homes(dead, self.node.exchange.size, self.nparts, 1)[0]

    def can_recover(self, dead: int) -> bool:
        node = self.node
        if not self.plan.enabled or dead == node.main_partition:
            return False
        if dead in self.aborted:
            return False
        home = self.home_of(dead)
        return home == node.node_id or home not in node.dead_peers

    def responsible_for(self, peer: int) -> bool:
        """True when this node has taken over ``peer``'s objects."""
        return peer in self.recovered and peer not in self.aborted

    # ----------------------------------------------------------- liveness
    def note_frame(self, src: int) -> None:
        if src >= 0:
            self._last_heard[src] = self.node.clock
            if self._unanswered.pop(src, 0) >= LEASE_MIN_PINGS:
                self._suspects -= 1

    def drain_heartbeats(self) -> List[int]:
        """Absorb every HEARTBEAT frame that has already arrived and return
        the peers whose frames were *pings* (they expect an answer).  Called
        before any liveness judgement: a beat sitting unprocessed in the
        inbox (the node was busy, or is a client whose recv only matches
        replies) must count as heard, or long local bursts turn into
        false ``lease_expired`` verdicts."""
        pinged = []
        while True:
            msg = self.node.take_matching(
                lambda m: m.kind is MessageKind.HEARTBEAT
            )
            if msg is None:
                return pinged
            self.heartbeats_taken += 1
            self.note_frame(msg.src)
            if msg.req_id == HEARTBEAT_PING:
                pinged.append(msg.src)

    def pong(self, peer: int):
        """Generator: answer a ping immediately.  A peer's own beat period
        may be arbitrarily long (it is a *sending* schedule), so liveness
        probes are answered out of schedule — that is what lets an observer
        treat several unanswered pings as evidence of death."""
        node = self.node
        if peer == node.node_id or peer in node.dead_peers:
            return
        try:
            yield from node.exchange.send(
                Message(
                    MessageKind.HEARTBEAT, node.node_id, peer, HEARTBEAT_PONG
                )
            )
        except FaultError:
            pass

    def note_applied(self, src: int, req_id: int) -> None:
        """Server side: remember the newest state-bearing request applied
        per client (the checkpoint highwater mark)."""
        if req_id == 0:
            return
        rid = abs(req_id)
        if rid > self._applied_highwater.get(src, 0):
            self._applied_highwater[src] = rid

    def due(self, serving: bool) -> bool:
        """Whether :meth:`tick` would do anything — asked at every quiescent
        point, before a generator exists: a heartbeat is queued, a beat round
        is due, a lease verdict is possible, or (serving) a barrier is crossed."""
        node = self.node
        return (
            node.heartbeats_in != self.heartbeats_taken
            or (self.plan.heartbeat_cycles and node.clock >= self._next_beat_s)
            or self._suspects > 0
            or (serving and node.charged_cycles >= self._next_ckpt)
        )

    def tick(self, serving: bool):
        """Generator, entered at protocol quiescence (top of the serve
        loop; before each outgoing request on client nodes) when :meth:`due`:
        emit due heartbeats, evaluate leases, and — on serving nodes — take
        the checkpoint barrier when the cycle interval has been crossed."""
        node = self.node
        plan = self.plan
        for peer in self.drain_heartbeats():
            yield from self.pong(peer)
        if plan.heartbeat_cycles and node.clock >= self._next_beat_s:
            self._next_beat_s = node.clock + self._beat_period_s
            yield ("cost", HEARTBEAT_CYCLES_COST)
            for peer in range(node.exchange.size):
                if peer == node.node_id or peer in node.dead_peers:
                    continue
                pings = self._unanswered[peer] = self._unanswered.get(peer, 0) + 1
                if pings == LEASE_MIN_PINGS:
                    self._suspects += 1
                try:
                    yield from node.exchange.send(
                        Message(
                            MessageKind.HEARTBEAT,
                            node.node_id,
                            peer,
                            HEARTBEAT_PING,
                        )
                    )
                except FaultError:
                    continue  # heartbeat loss is exactly what leases catch
        if plan.lease_cycles and node.injector is not None:
            for peer, heard_s in list(self._last_heard.items()):
                if peer == node.node_id or peer in node.dead_peers:
                    continue
                if peer == node.main_partition:
                    # the main partition is the *client*: it beats only at
                    # its own request points and owes nobody a response,
                    # so its silence proves nothing.  Its real death is
                    # detected by the backend (drive loop / sentinel) and
                    # ends the run outright.
                    continue
                if self._unanswered.get(peer, 0) < LEASE_MIN_PINGS:
                    # ping-ack discipline: a live serving node wakes on
                    # our beat and beats back within a round trip, so we
                    # only indict peers that ignored several probes
                    continue
                if node.clock - heard_s > self._lease_s:
                    node.dead_peers.add(peer)
                    node.faults.append(
                        FaultRecord(
                            node=peer,
                            kind="lease_expired",
                            detail=(
                                f"node {node.node_id} declared node {peer} "
                                f"dead: no heartbeat for "
                                f"{plan.lease_cycles} cycles "
                                f"({self._lease_s * 1e6:.0f} us) of "
                                f"virtual time"
                            ),
                            at_cycle=node.charged_cycles,
                            time_s=node.clock,
                        )
                    )
        if serving and node.charged_cycles >= self._next_ckpt:
            self._next_ckpt = (
                node.charged_cycles // plan.interval + 1
            ) * plan.interval
            yield from self.checkpoint()

    # ------------------------------------------------------ producer side
    def _snapshot_blob(self) -> Dict[str, Any]:
        node = self.node
        machine = node.machine
        heap = machine.heap
        objects: Dict[int, tuple] = {}
        for oid, entry in heap._store.items():
            if hasattr(entry, "class_name"):
                objects[oid] = (
                    "O", entry.class_name, dict(entry.fields), entry.native_state
                )
            else:
                objects[oid] = ("A", entry.elem_desc, list(entry.data))
        return {
            "node": node.node_id,
            "epoch": self.epoch,
            "next_oid": heap._next,
            "highwater": dict(self._applied_highwater),
            "stdout": list(machine.stdout),
            "objects": objects,
            "replica_dir": dict(node.replica_dir),
            "virtual_next": dict(self.virtual_next),
            "adopted": {d: list(s) for d, s in self.adopted.items()},
            "recovered": dict(self.recovered),
        }

    def checkpoint(self):
        """Generator: snapshot the heap, ship the blob to this node's
        recovery homes and ack every known client with the new epoch's
        highwater mark.  All of it is charged cycles."""
        node = self.node
        self.epoch += 1
        payload = encode_checkpoint(self._snapshot_blob())
        cost = CHECKPOINT_BASE_CYCLES + CHECKPOINT_CYCLES_PER_BYTE * len(payload)
        self.checkpoint_overhead_cycles += cost
        yield ("cost", cost)
        homes = recovery_homes(
            node.node_id, node.exchange.size, self.nparts, self.plan.copies
        )
        for home in homes:
            if home in node.dead_peers:
                continue
            try:
                yield from node.exchange.send(
                    Message(
                        MessageKind.CHECKPOINT, node.node_id, home, 0, payload
                    )
                )
            except FaultError:
                continue
        for src in sorted(self._applied_highwater):
            if src == node.node_id or src in node.dead_peers:
                continue
            ack = encode_value(
                [self.epoch, self._applied_highwater[src]],
                node.node_id,
                node.machine.heap,
            )
            try:
                yield from node.exchange.send(
                    Message(
                        MessageKind.CHECKPOINT_ACK, node.node_id, src, 0, ack
                    )
                )
            except FaultError:
                continue

    # ------------------------------------------------------- client side
    def log_request(self, dst: int, req_id: int, kind: MessageKind,
                    payload: bytes) -> None:
        """Retain one sent state-bearing frame for possible replay."""
        if kind._value_ not in self.LOGGED_KINDS or dst == self.node.node_id:
            return
        self._replay_log.setdefault(dst, []).append(
            (req_id, kind._value_, payload)
        )

    def unlog_request(self, dst: int, req_id: int) -> None:
        """Drop one frame from the replay log: the caller is about to
        re-issue that in-flight request itself, so replaying it too would
        apply it twice."""
        log = self._replay_log.get(dst)
        if log:
            self._replay_log[dst] = [e for e in log if e[0] != req_id]

    def note_ack(self, src: int, epoch: int, highwater: int) -> None:
        """A checkpoint ack from ``src``: trim the replay log one epoch
        behind (a torn newest blob falls back one epoch, and the log must
        still cover everything after the *previous* barrier)."""
        acks = self._acks.setdefault(src, [])
        acks.append((epoch, highwater))
        if len(acks) > 2:
            acks.pop(0)
        if len(acks) == 2:
            prev_hw = acks[0][1]
            log = self._replay_log.get(src)
            if log:
                self._replay_log[src] = [
                    e for e in log if abs(e[0]) > prev_hw
                ]

    def last_acked_epoch(self, dst: int) -> int:
        acks = self._acks.get(dst)
        return acks[-1][0] if acks else 0

    def flush_replay(self, dead: int):
        """Generator: once per dead peer, push this client's retained log
        to the recovery home (or apply it locally when this node *is* the
        home).  The leading marker frame doubles as the death verdict, so
        the home takes over before any rerouted operation arrives."""
        node = self.node
        if dead in self._flushed:
            return
        self._flushed.add(dead)
        home = self.home_of(dead)
        entries = self._replay_log.pop(dead, [])
        epoch = self.last_acked_epoch(dead)
        if home == node.node_id:
            yield from self.takeover(dead)
            for req_id, kind_value, payload in entries:
                yield from self.apply_replay(
                    dead, node.node_id, req_id, kind_value, payload
                )
            return
        frames = [(0, 0, b"")] + entries      # marker first
        for req_id, kind_value, payload in frames:
            head = _REPLAY_HEADER.pack(dead, epoch, req_id, kind_value)
            try:
                yield from node.exchange.send(
                    Message(
                        MessageKind.REPLAY, node.node_id, home, 0,
                        head + payload,
                    )
                )
            except FaultError as exc:
                raise PeerLost(
                    f"replay log for node {dead} could not reach its "
                    f"recovery home {home}: {exc}"
                ) from exc

    # --------------------------------------------------------- home side
    def store_blob(self, src: int, payload: bytes) -> None:
        node = self.node
        blob = decode_checkpoint(payload)
        if blob is None:
            node.faults.append(
                FaultRecord(
                    node=src,
                    kind="torn_checkpoint",
                    detail=(
                        f"checkpoint blob from node {src} failed validation "
                        f"({len(payload)} bytes); keeping previous epoch"
                    ),
                    at_cycle=node.charged_cycles,
                    time_s=node.clock,
                )
            )
            return
        per = self.blobs.setdefault(src, {})
        per[int(blob["epoch"])] = blob
        while len(per) > 2:
            del per[min(per)]

    def _empty_blob(self, dead: int) -> Dict[str, Any]:
        return {
            "node": dead, "epoch": 0, "next_oid": 1, "highwater": {},
            "stdout": [], "objects": {}, "replica_dir": {},
            "virtual_next": {}, "adopted": {}, "recovered": {},
        }

    def takeover(self, dead: int):
        """Generator, idempotent: restore the newest intact blob for
        ``dead`` into this node's heap, aliased under the dead node's
        identity, and continue its allocation sequence virtually."""
        node = self.node
        if dead in self.recovered or dead in self.aborted:
            return
        node.dead_peers.add(dead)
        per = self.blobs.get(dead, {})
        blob = per[max(per)] if per else self._empty_blob(dead)
        machine = node.machine
        heap = machine.heap
        objects = blob["objects"]
        mapping: Dict[int, int] = {}
        entries: Dict[int, object] = {}
        from repro.vm.heap import HeapArray, HeapObject

        for oid in sorted(objects):
            shape = objects[oid]
            if shape[0] == "O":
                entry = HeapObject(shape[1], {k: None for k in shape[2]})
                ref = heap._insert(entry, shape[1])
            else:
                entry = HeapArray(shape[1], len(shape[2]))
                ref = heap._insert(entry, shape[1] + "[]")
            entries[oid] = entry
            mapping[oid] = ref.oid
        for oid in sorted(objects):
            shape = objects[oid]
            entry = entries[oid]
            if shape[0] == "O":
                for name, value in shape[2].items():
                    entry.fields[name] = self._remap(value, dead, mapping)
                entry.native_state = self._remap(shape[3], dead, mapping)
            else:
                entry.data[:] = [
                    self._remap(v, dead, mapping) for v in shape[2]
                ]
        for oid, local in mapping.items():
            node.replica_dir[(dead, oid)] = local
        for key, dead_local in blob["replica_dir"].items():
            if dead_local in mapping:
                node.replica_dir[tuple(key)] = mapping[dead_local]
        self.virtual_next[dead] = int(blob["next_oid"])
        for d2, nx in blob.get("virtual_next", {}).items():
            self.virtual_next.setdefault(d2, nx)
        self.adopted[dead] = list(blob["stdout"])
        for d2, lines in blob.get("adopted", {}).items():
            self.adopted.setdefault(d2, list(lines))
        self._replay_filter[dead] = dict(blob["highwater"])
        self.recovered[dead] = int(blob["epoch"])
        cost = RESTORE_BASE_CYCLES + RESTORE_CYCLES_PER_OBJECT * len(mapping)
        self.recovery_cycles += cost
        self.recovered_records.append(
            FaultRecord(
                node=dead,
                kind="recovered",
                detail=(
                    f"node {dead} re-homed to node {node.node_id} from "
                    f"checkpoint epoch {blob['epoch']} "
                    f"({len(mapping)} objects)"
                ),
                at_cycle=node.charged_cycles,
                time_s=node.clock,
            )
        )
        yield ("cost", cost)

    def abort(self, dead: int, detail: str) -> None:
        """Recovery for ``dead`` cannot be completed soundly: withdraw the
        takeover and let the run degrade (PR-6 semantics) instead of
        silently diverging."""
        node = self.node
        if dead in self.aborted:
            return
        self.aborted[dead] = detail
        self.recovered.pop(dead, None)
        self.adopted.pop(dead, None)
        self.recovered_records = [
            r for r in self.recovered_records if r.node != dead
        ]
        node.replica_dir = {
            k: v for k, v in node.replica_dir.items() if k[0] != dead
        }
        node.faults.append(
            FaultRecord(
                node=dead,
                kind="recovery_aborted",
                detail=detail,
                at_cycle=node.charged_cycles,
                time_s=node.clock,
            )
        )

    def apply_replay(self, dead: int, src: int, req_id: int,
                     kind_value: int, payload: bytes):
        """Generator: apply one replayed frame against the recovered state
        (epoch-aware: frames at or below the restored blob's highwater
        mark for ``src`` are already inside the snapshot and are skipped)."""
        yield from self.takeover(dead)
        if dead in self.aborted:
            return
        first = self._replay_src.setdefault(dead, src)
        if src != first:
            self.abort(
                dead,
                f"replay logs for node {dead} arrived from clients {first} "
                f"and {src}; cross-client replay order is undefined",
            )
            return
        if kind_value == 0:
            return  # takeover marker
        if abs(req_id) <= self._replay_filter.get(dead, {}).get(src, 0):
            return  # already inside the restored checkpoint
        body = decode_value(payload, self.node.node_id)
        self._replaying = True
        try:
            yield from self._apply_op(dead, MessageKind(kind_value), body)
        except VMError:
            pass  # the original op failed identically; state effects match
        except RecoveryAborted as exc:
            self.abort(dead, str(exc))
        finally:
            self._replaying = False

    def guard_outbound(self) -> None:
        """Called by the message exchange before any outgoing request: a
        *replayed* op that needs other nodes cannot be replayed soundly."""
        if self._replaying:
            raise RecoveryAborted(
                "replayed operation attempted outbound traffic"
            )

    def recovered_op(self, dead: int, kind: MessageKind, body):
        """Generator: one re-routed (post-recovery) operation addressed to
        the dead node, executed against the recovered state.  Raises
        :class:`PeerLost` when recovery was aborted, so callers degrade."""
        if dead in self.aborted:
            raise PeerLost(
                f"node {dead} is unrecoverable: {self.aborted[dead]}"
            )
        yield from self.takeover(dead)
        if dead in self.aborted:
            raise PeerLost(
                f"node {dead} is unrecoverable: {self.aborted[dead]}"
            )
        result = yield from self._apply_op(dead, kind, body)
        return result

    def _apply_op(self, dead: int, kind: MessageKind, body):
        """Generator: execute one operation that originally belonged to
        ``dead`` against this node's heap, with the dead node's stdout
        stream spliced out and its virtual allocation counter advanced."""
        node = self.node
        machine = node.machine
        heap = machine.heap
        n0 = len(machine.stdout)
        h0 = heap._next
        try:
            if kind is MessageKind.NEW:
                class_name, ctor_args = body
                root = self.virtual_next.get(dead, 1)
                ref = yield from create_local(
                    machine, class_name, ctor_args or []
                )
                # the constructor may allocate more than the object itself
                # (field arrays, nested locals): on the dead node those
                # took the oids right after ``root`` in the same
                # deterministic order, so alias the entire range — clients
                # hold refs into it (e.g. a field read of an array)
                for i in range(heap._next - h0):
                    node.replica_dir.setdefault((dead, root + i), h0 + i)
                node.replica_dir[(dead, root)] = ref.oid
                return DependentRef(dead, root, class_name)
            if kind is MessageKind.DEPENDENCE:
                oid, access_type, member, args = body
                local = node.replica_dir.get((dead, oid))
                if local is None:
                    raise VMError(
                        f"node {node.node_id} recovered no copy of object "
                        f"n{dead}#{oid}"
                    )
                result = yield from access_local(
                    machine, Ref(local), access_type, member, args or []
                )
                return result
            if kind is MessageKind.REPLICA_NEW:
                class_name, ctor_args, pnode, poid = body
                ref = yield from create_local(
                    machine, class_name, ctor_args or []
                )
                node.replica_dir[(pnode, poid)] = ref.oid
                return True
            if kind is MessageKind.REPLICA_DEP:
                pnode, poid, access_type, member, args = body
                if pnode == dead:
                    local = node.replica_dir.get((dead, poid))
                else:
                    local = node.replica_dir.get((pnode, poid))
                if local is None:
                    raise VMError(
                        f"node {node.node_id} recovered no copy of object "
                        f"n{pnode}#{poid}"
                    )
                result = yield from access_local(
                    machine, Ref(local), access_type, member, args or []
                )
                return result
            raise VMError(f"unexpected recovered op kind {kind!r}")
        finally:
            self.virtual_next[dead] = (
                self.virtual_next.get(dead, 1) + (heap._next - h0)
            )
            moved = machine.stdout[n0:]
            del machine.stdout[n0:]
            self.adopted.setdefault(dead, []).extend(moved)

    # ---------------------------------------------------------- restore
    def _remap(self, value, dead: int, mapping: Dict[int, int]):
        """Swizzle a checkpointed value into this node's heap: the dead
        node's local references follow the restore mapping; references to
        other nodes travel unchanged."""
        if isinstance(value, Ref):
            return Ref(mapping.get(value.oid, value.oid))
        if isinstance(value, DependentRef):
            if value.node == dead and value.oid in mapping:
                return Ref(mapping[value.oid])
            return value
        if isinstance(value, list):
            return [self._remap(v, dead, mapping) for v in value]
        if isinstance(value, tuple):
            return tuple(self._remap(v, dead, mapping) for v in value)
        return value

    # ---------------------------------------------------------- summary
    def parse_replay_frame(self, payload: bytes):
        """Split one REPLAY frame into (dead, epoch, req_id, kind_value,
        original payload)."""
        dead, epoch, req_id, kind_value = _REPLAY_HEADER.unpack_from(payload)
        return dead, epoch, req_id, kind_value, payload[_REPLAY_HEADER.size:]
