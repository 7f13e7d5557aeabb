"""Seeded fault injection: the typed failure axis of the runtime.

The paper's runtime targets pervasive clusters whose nodes can disappear
mid-run, yet every backend used to assume all peers survive.  This module
makes failure a first-class, *reproducible* input:

* :class:`FaultPlan` — a frozen, hashable description of what goes wrong:
  node crashes at a given cycle count, independent per-message drop /
  duplication / delay, and permanently partitioned links.  It round-trips
  through dicts/JSON like every other typed config, so it can ride inside
  :class:`~repro.api.config.ClusterConfig` and key the stage cache.
* :class:`FaultInjector` — the per-node decision engine.  Every decision is
  a pure function of ``(plan.seed, src, dst, per-pair send counter)``, so
  the deterministic simulator replays the exact same fault schedule run
  after run, and the wall-clock backends inject the same *decisions* even
  though their timing varies.  Which schedule a seed denotes is this
  module's to define (an integer mix of the counter; it differs from the
  per-attempt Mersenne Twister of PR 22 and before, which nothing pinned).
* :class:`FaultRecord` — the structured evidence a degraded run reports
  instead of hanging or raising: one record per observed fault, attached to
  ``NodeStats`` / ``BackendRun`` / ``Report``.  ``time_s`` is virtual time on
  the simulator and 0.0 on the wall-clock backends, whose ``node.clock`` is
  only set when ``run_node`` returns.
* the fault exception family (:class:`NodeCrashed`, :class:`PeerLost`,
  :class:`RetriesExhausted`, :class:`QuorumLost`) — what the runtime raises
  internally; backends convert these into records, never into hangs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigError, RuntimeServiceError

__all__ = [
    "FaultPlan",
    "FaultRecord",
    "FaultInjector",
    "FaultError",
    "NodeCrashed",
    "PeerLost",
    "RetriesExhausted",
    "QuorumLost",
    "RecoveryAborted",
]


# ---------------------------------------------------------------------------
# the fault exception family
# ---------------------------------------------------------------------------
class FaultError(RuntimeServiceError):
    """Base of the injected-fault family.  Backends catch this (and only
    this) to degrade gracefully: the node is marked dead, a structured
    :class:`FaultRecord` is emitted, peers are notified — the run still
    returns.  Everything else keeps today's raise behavior."""

    #: short machine-readable tag recorded in :class:`FaultRecord.kind`
    kind = "fault"


class NodeCrashed(FaultError):
    """An injected node crash (``FaultPlan.crashes``) fired."""

    kind = "crash"


class PeerLost(FaultError):
    """A request was addressed to (or awaited from) a node known to be
    dead."""

    kind = "peer_lost"


class RetriesExhausted(FaultError):
    """A send was dropped more times than ``FaultPlan.max_retries``
    allows (or the link is partitioned)."""

    kind = "retries_exhausted"


class QuorumLost(FaultError):
    """A replicated-object operation could not reach its read/write
    quorum, or the read quorum disagreed."""

    kind = "quorum_lost"


class RecoveryAborted(FaultError):
    """Recovery of a crashed node could not be completed soundly (e.g. a
    replayed operation needed outbound traffic, or replay logs arrived
    from more than one client) — the run degrades instead of masking."""

    kind = "recovery_aborted"


# ---------------------------------------------------------------------------
# the typed plan
# ---------------------------------------------------------------------------
def _pair_tuple(value) -> Tuple[Tuple[int, int], ...]:
    return tuple(tuple(int(x) for x in pair) for pair in value)


@dataclass(frozen=True)
class FaultPlan:
    """What goes wrong, described up front and seeded.

    ``crashes`` lists ``(node, at_cycle)`` pairs: the node dies the first
    time its charged cycle total reaches ``at_cycle``.  ``drop_pct`` /
    ``dup_pct`` are independent per-message probabilities; ``delay_s``
    bounds a uniform extra sender-side stall per message.  ``partitions``
    lists ``(src, dst)`` links that never deliver.  Transient loss is
    masked by bounded retry: up to ``max_retries`` resends with exponential
    backoff starting at ``backoff_cycles``.
    """

    crashes: Tuple[Tuple[int, int], ...] = ()
    drop_pct: float = 0.0
    dup_pct: float = 0.0
    delay_s: float = 0.0
    partitions: Tuple[Tuple[int, int], ...] = ()
    seed: int = 0
    max_retries: int = 8
    backoff_cycles: int = 2_000

    def __post_init__(self) -> None:
        object.__setattr__(self, "crashes", _pair_tuple(self.crashes))
        object.__setattr__(self, "partitions", _pair_tuple(self.partitions))
        # a wrong type is refused here, by field, not as a TypeError in a worker
        for name, low in (("seed", None), ("max_retries", 0), ("backoff_cycles", 1)):
            v = getattr(self, name)
            ok = isinstance(v, int) and not isinstance(v, bool)
            if not ok or (low is not None and v < low):
                need = "an int" if low is None else f"an int >= {low}"
                raise ConfigError(f"FaultPlan.{name} must be {need}, got {v!r}")
        for name, top in (("drop_pct", 1.0), ("dup_pct", 1.0), ("delay_s", math.inf)):
            v = getattr(self, name)
            ok = isinstance(v, (int, float)) and not isinstance(v, bool)
            if not ok or not 0.0 <= v <= top or v == math.inf:
                need = "in [0, 1]" if top == 1.0 else "finite and >= 0"
                raise ConfigError(f"FaultPlan.{name} must be {need}, got {v!r}")
        for node, cycle in self.crashes:
            if node < 0 or cycle < 0:
                raise ConfigError(f"bad crash entry ({node}, {cycle})")
        seen_nodes = set()
        for node, _cycle in self.crashes:
            if node in seen_nodes:
                raise ValueError(
                    f"FaultPlan.crashes lists node {node} more than once; "
                    "a node dies at most once — merge the entries"
                )
            seen_nodes.add(node)

    @property
    def transient_only(self) -> bool:
        """True when every configured fault is maskable by retry (no
        crashes, no partitioned links) — such a plan must not change what
        the program computes, only what it costs."""
        return not self.crashes and not self.partitions

    @property
    def inert(self) -> bool:
        """True when nothing is injected at all — no crash, partition, drop,
        dup or delay: the fault-free run whatever the seed, given no injector."""
        dice = self.drop_pct or self.dup_pct or self.delay_s
        return self.transient_only and not dice

    def crash_cycle(self, node_id: int) -> Optional[int]:
        """The cycle count at which ``node_id`` dies, or None."""
        hits = [c for n, c in self.crashes if n == node_id]
        return min(hits) if hits else None

    # ----------------------------------------------------------- round trip
    def to_dict(self) -> Dict[str, Any]:
        d = asdict(self)
        d["crashes"] = [list(c) for c in self.crashes]
        d["partitions"] = [list(p) for p in self.partitions]
        return d

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ConfigError(
                f"FaultPlan.from_dict needs a dict, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(
                f"unknown FaultPlan field(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        return cls(**data)


# ---------------------------------------------------------------------------
# structured fault evidence
# ---------------------------------------------------------------------------
@dataclass
class FaultRecord:
    """One observed fault — the structured report a degraded run carries
    instead of a hang or a bare traceback."""

    node: int
    kind: str           # FaultError.kind, or "worker_lost" for vanished procs
    detail: str
    at_cycle: int = 0
    time_s: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultRecord":
        return cls(**data)


# ---------------------------------------------------------------------------
# the decision engine
# ---------------------------------------------------------------------------
_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15   # SplitMix64's counter step, 2**64 / golden ratio


def _mix64(x: int) -> int:
    """SplitMix64's finaliser, a bijection on 64-bit words: counter in, draw out."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class FaultInjector:
    """Per-node fault decisions, deterministic per (seed, src, dst, attempt).

    One injector per node: the per-destination attempt counters are only
    ever touched by that node's own driver (thread/process safe without
    locks), and the decision stream for a (src, dst) pair is identical
    across backends and across VM engines.  Decisions are counter-based
    (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11):
    attempt ``k`` is one :func:`_mix64` of ``link key + k * gamma``, high half
    against the drop threshold, low half against the duplicate threshold."""

    def __init__(self, plan: FaultPlan, node_id: int) -> None:
        self.plan = plan
        self._attempts: Dict[int, int] = {}
        self._keys: Dict[int, int] = {}
        self._base = _mix64(_mix64(plan.seed + _GAMMA) + node_id)
        self._cut = frozenset(d for s, d in plan.partitions if s == node_id)
        # scaling by 2**32 is exact; ceil keeps any p > 0 possible
        self._drop_below = math.ceil(plan.drop_pct * (1 << 32))
        self._dup_below = math.ceil(plan.dup_pct * (1 << 32))
        self._delay_unit_s = plan.delay_s / (1 << 32)
        self.crash_cycle = plan.crash_cycle(node_id)
        self._crashed = False

    # -------------------------------------------------------------- crashes
    def crash_due(self, charged_cycles: int) -> bool:
        """True exactly once: the first time this node's cycle total
        reaches its planned crash point."""
        if self._crashed or self.crash_cycle is None:
            return False
        if charged_cycles >= self.crash_cycle:
            self._crashed = True
            return True
        return False

    # ---------------------------------------------------------------- sends
    def on_send(self, dst: int, req_id: int) -> Tuple[int, float]:
        """Decide one send attempt from this node to ``dst``: ``(copies,
        delay_s)``, where 0 copies means the attempt is lost.  Duplication
        only applies to uniquely-identified frames (``req_id > 0``), which
        receivers can dedup; fire-and-forget posts and control frames are
        never duplicated."""
        attempt = self._attempts.get(dst, 0)
        self._attempts[dst] = attempt + 1
        if dst in self._cut:
            return 0, 0.0
        key = self._keys.get(dst)
        if key is None:
            key = self._keys[dst] = _mix64(self._base + dst)
        word = _mix64(key + attempt * _GAMMA)
        if (word >> 32) < self._drop_below:
            return 0, 0.0
        copies = 2 if req_id > 0 and (word & 0xFFFFFFFF) < self._dup_below else 1
        if self._delay_unit_s:
            return copies, (_mix64(word) >> 32) * self._delay_unit_s
        return copies, 0.0

    def backoff(self, attempt: int) -> int:
        """Cycles to stall before resend ``attempt`` (1-based), capped
        exponential."""
        return self.plan.backoff_cycles << min(attempt - 1, 10)
