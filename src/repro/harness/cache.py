"""Content-addressed stage caching for the experiment harness.

Every stage of the paper's Figure 1 pipeline is a pure function of
(source program, stage configuration): compilation, RTA/CRG/ODG analysis,
partitioning, plan construction, and — because the cluster runtime is a
deterministic discrete-event simulation — even distributed execution.
That makes each stage memoizable under a content hash, so a sweep that
varies only downstream knobs (partitioner, k, tolerance, network) pays the
upstream stages once.

Layout: one process-local :class:`StageCache` holds a flat
``(stage, sha256(key material)) -> object`` map.  Key material is the
canonical-JSON encoding of everything the stage result depends on — always
including the workload *source text*, never just its name, so editing a
workload invalidates every derived entry automatically.  There is no disk
tier and no TTL: invalidation is purely content-addressed.  Process-pool
sweep workers each hold their own shard (a worker warms up on its first
config and hits from the second onward).
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Tuple

__all__ = [
    "StageCache",
    "StageStats",
    "default_cache",
    "fingerprint",
    "reset_default_cache",
]


def _canonical(value: Any) -> str:
    """Deterministic JSON encoding of key material (sorted keys, no
    whitespace; non-JSON leaves fall back to ``str``)."""
    return json.dumps(value, sort_keys=True, default=str, separators=(",", ":"))


def fingerprint(*parts: Any) -> str:
    """sha256 hex digest over the canonical encoding of ``parts``."""
    h = hashlib.sha256()
    for part in parts:
        data = part if isinstance(part, bytes) else _canonical(part).encode()
        h.update(data)
        h.update(b"\x1f")  # unit separator: ("ab","c") != ("a","bc")
    return h.hexdigest()


@dataclass
class StageStats:
    """Hit/miss counters for one pipeline stage."""

    hits: int = 0
    misses: int = 0
    build_s: float = 0.0  # wall-clock spent building on misses

    @property
    def calls(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.calls if self.calls else 0.0


class StageCache:
    """Thread-safe content-addressed memo table for pipeline stages."""

    def __init__(self) -> None:
        self._store: Dict[Tuple[str, str], Any] = {}
        self._stats: Dict[str, StageStats] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ core
    def get_or_build(
        self, stage: str, key_material: Any, builder: Callable[[], Any]
    ) -> Any:
        """Return the cached value for ``(stage, key_material)``, building
        and storing it via ``builder()`` on a miss.  Hits return the
        *identical* object that the miss stored."""
        return self.get_or_build_info(stage, key_material, builder)[0]

    def get_or_build_info(
        self, stage: str, key_material: Any, builder: Callable[[], Any]
    ) -> Tuple[Any, bool]:
        """Like :meth:`get_or_build` but also reports whether the value was
        served from the cache: ``(value, hit)``.  The Experiment API's stage
        events carry this flag."""
        key = (stage, fingerprint(key_material))
        with self._lock:
            stats = self._stats.setdefault(stage, StageStats())
            if key in self._store:
                stats.hits += 1
                return self._store[key], True
        # build outside the lock: stages can be expensive and re-entrant
        # (plan building partitions, which may consult the cache itself)
        t0 = time.perf_counter()
        value = builder()
        elapsed = time.perf_counter() - t0
        with self._lock:
            # setdefault again: a concurrent clear() may have emptied _stats
            # while builder() ran outside the lock
            stats = self._stats.setdefault(stage, StageStats())
            if key in self._store:  # lost a race; keep the first object
                stats.hits += 1
                return self._store[key], True
            stats.misses += 1
            stats.build_s += elapsed
            self._store[key] = value
            return value, False

    # ------------------------------------------------------------------ views
    def __len__(self) -> int:
        return len(self._store)

    @property
    def hits(self) -> int:
        with self._lock:
            return sum(s.hits for s in self._stats.values())

    @property
    def misses(self) -> int:
        with self._lock:
            return sum(s.misses for s in self._stats.values())

    @property
    def hit_rate(self) -> float:
        calls = self.hits + self.misses
        return self.hits / calls if calls else 0.0

    def stats(self) -> Dict[str, StageStats]:
        """Per-stage counter snapshot (copies, safe to keep)."""
        with self._lock:
            return {
                stage: StageStats(s.hits, s.misses, s.build_s)
                for stage, s in self._stats.items()
            }

    def counts(self) -> Tuple[int, int]:
        """(hits, misses) across all stages."""
        with self._lock:
            return (
                sum(s.hits for s in self._stats.values()),
                sum(s.misses for s in self._stats.values()),
            )

    def summary(self) -> str:
        """One human line per stage plus the overall hit rate."""
        lines = []
        for stage, s in sorted(self.stats().items()):
            lines.append(
                f"  {stage:<12} {s.hits:4d} hits {s.misses:4d} misses "
                f"({100.0 * s.hit_rate:5.1f}% hit rate, "
                f"{s.build_s * 1e3:.1f} ms building)"
            )
        head = (
            f"stage cache: {self.hits} hits / {self.misses} misses "
            f"({100.0 * self.hit_rate:.1f}% hit rate, {len(self)} entries)"
        )
        return "\n".join([head] + lines)

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
            self._stats.clear()


# ---------------------------------------------------------------------------
# process-default cache: what experiments, tables and benchmarks share when
# no explicit cache is passed.  Sweep workers inherit one per process.
# ---------------------------------------------------------------------------
_default = StageCache()


def default_cache() -> StageCache:
    return _default


def reset_default_cache() -> StageCache:
    """Swap in a fresh default cache (tests use this for isolation)."""
    global _default
    _default = StageCache()
    return _default
