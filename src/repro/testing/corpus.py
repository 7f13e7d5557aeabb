"""The golden-trace conformance corpus: save/replay for fuzz scenarios.

A corpus entry is a **self-contained** JSON file: the rendered MJ source,
the world (:meth:`repro.testing.genworld.World.to_dict`), and the
reference-path observables (stdout, result, cycles, steps, fault text)
recorded when the entry was created.  Replay needs no generator state —
entries stay replayable even when the generators evolve — so every
counterexample the oracle ever minimizes (``run_fuzz`` records each as a
``counterexample`` entry) can be committed under ``tests/corpus/`` and
becomes a permanent regression test (``repro fuzz --replay tests/corpus``
runs in CI).  An entry of any schema but :data:`SCHEMA_VERSION` is
refused, not converted.

Replaying an entry checks two things:

* **golden equivalence** — the reference interpreter still produces the
  recorded stdout/result/cycles/steps/error (``corpus.*`` divergences
  mean the VM's observable semantics or cost model drifted; regenerate
  the corpus deliberately with ``repro fuzz --save-corpus`` if the drift
  is intended);
* **conformance** — the full differential oracle still passes on the
  entry's scenario (``vm.*`` / ``dist.*`` divergences mean a live bug).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.testing.genworld import World
from repro.testing.oracle import (
    ConformanceOutcome,
    Divergence,
    Scenario,
    check_scenario,
)

__all__ = [
    "SCHEMA_VERSION",
    "CorpusEntry",
    "entry_from_outcome",
    "load_corpus",
    "replay_entry",
]

#: 2: the world is the sections of an ExperimentConfig plus ``backends``
SCHEMA_VERSION = 2

#: golden fields compared strictly on replay, in report order
_GOLDEN_KEYS = ("error", "stdout", "result", "cycles", "steps")


@dataclass
class CorpusEntry:
    """One committed scenario with its golden reference trace."""

    name: str
    kind: str                      # "golden" | "counterexample"
    source: str
    world: Dict[str, Any]
    expected: Dict[str, Any]
    meta: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"schema": SCHEMA_VERSION, **asdict(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(
        cls, text: str, origin: str = "corpus entry"
    ) -> "CorpusEntry":
        """Parse one entry; ``origin`` (the file) names it in errors."""
        data = json.loads(text)
        if not isinstance(data, dict) or "source" not in data:
            raise ReproError(f"{origin}: must be an object with a 'source'")
        if data.get("schema") != SCHEMA_VERSION:
            raise ReproError(
                f"{origin}: corpus schema {data.get('schema')!r} is not "
                f"{SCHEMA_VERSION}; rewrite the entry in schema "
                f"{SCHEMA_VERSION} (see tests/corpus/README.md)"
            )
        return cls(
            name=data.get("name", "corpus-entry"),
            kind=data.get("kind", "golden"),
            source=data["source"],
            world=data.get("world", {}),
            expected=data.get("expected", {}),
            meta=data.get("meta", {}),
        )

    def save(self, directory: pathlib.Path) -> pathlib.Path:
        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.name}.json"
        path.write_text(self.to_json())
        return path

    def scenario(self) -> Scenario:
        return Scenario(
            name=self.name,
            source=self.source,
            world=World.from_dict(self.world),
        )


def entry_from_outcome(
    scenario: Scenario, outcome: ConformanceOutcome, meta: Optional[dict] = None
) -> CorpusEntry:
    """Package a passing scenario as a golden corpus entry."""
    return CorpusEntry(
        name=scenario.name,
        kind="golden",
        source=scenario.source,
        world=scenario.world.to_dict(),
        expected=dict(outcome.reference),
        meta=dict(meta or {}),
    )


def load_corpus(path) -> List[Tuple[pathlib.Path, CorpusEntry]]:
    """Load one entry file or every ``*.json`` under a directory."""
    path = pathlib.Path(path)
    if path.is_file():
        files = [path]
    elif path.is_dir():
        files = sorted(path.glob("*.json"))
    else:
        raise ReproError(f"no corpus at {path}")
    entries = []
    for f in files:
        try:
            entries.append((f, CorpusEntry.from_json(f.read_text(), str(f))))
        except json.JSONDecodeError as exc:
            raise ReproError(f"bad corpus entry {f}: {exc}") from exc
    if not entries:
        raise ReproError(f"corpus at {path} holds no *.json entries")
    return entries


def replay_entry(entry: CorpusEntry) -> List[Divergence]:
    """Replay one entry: the full conformance oracle plus the golden
    comparison against the oracle's own reference-path observation (one
    compile, one run per VM tier).  Returns every divergence found (empty =
    the entry still passes)."""
    outcome = check_scenario(entry.scenario())
    divergences: List[Divergence] = list(outcome.divergences)
    ref = outcome.reference
    for key in _GOLDEN_KEYS:
        if key in entry.expected and entry.expected[key] != ref.get(key):
            divergences.append(
                Divergence(
                    f"corpus.{key}",
                    f"{entry.name}: golden {key} drifted (regenerate the "
                    f"corpus if this change is intended)",
                    expected=entry.expected[key],
                    actual=ref.get(key),
                )
            )
    return divergences
