"""The golden-trace conformance corpus: save/replay for fuzz scenarios.

A corpus entry is a **self-contained** JSON file: the rendered MJ source,
the world configuration, and the reference-path observables (stdout,
result, cycles, steps, fault text) recorded when the entry was created.
Replay needs no generator state — entries stay replayable even when the
generators evolve — so every counterexample the oracle ever minimizes can
be committed under ``tests/corpus/`` and becomes a permanent regression
test (``repro fuzz --replay tests/corpus`` runs in CI).

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
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.testing.genworld import WorldSpec
from repro.testing.oracle import (
    ConformanceOutcome,
    CounterExample,
    Divergence,
    Scenario,
    check_scenario,
)

__all__ = [
    "SCHEMA_VERSION",
    "CorpusEntry",
    "entry_from_outcome",
    "entry_from_counterexample",
    "load_corpus",
    "replay_entry",
]

SCHEMA_VERSION = 1

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
    schema: int = SCHEMA_VERSION

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": self.schema,
                "name": self.name,
                "kind": self.kind,
                "world": self.world,
                "expected": self.expected,
                "meta": self.meta,
                "source": self.source,
            },
            indent=2,
            sort_keys=True,
        ) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CorpusEntry":
        data = json.loads(text)
        if not isinstance(data, dict) or "source" not in data:
            raise ReproError("corpus entry must be an object with a 'source'")
        return cls(
            name=data.get("name", "corpus-entry"),
            kind=data.get("kind", "golden"),
            source=data["source"],
            world=data.get("world", {}),
            expected=data.get("expected", {}),
            meta=data.get("meta", {}),
            schema=int(data.get("schema", SCHEMA_VERSION)),
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
            world=WorldSpec.from_dict(self.world),
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


def entry_from_counterexample(ce: CounterExample) -> CorpusEntry:
    """Package a minimized counterexample for replay/regression."""
    return CorpusEntry(
        name=ce.name,
        kind="counterexample",
        source=ce.source,
        world=dict(ce.world),
        expected=dict(ce.reference),
        meta={
            "gen_seed": ce.gen_seed,
            "gen_config": ce.gen_config,
            "divergences": [d.to_dict() for d in ce.divergences],
            "original_statements": ce.original_statements,
            "minimized_statements": ce.minimized_statements,
        },
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
            entries.append((f, CorpusEntry.from_json(f.read_text())))
        except (json.JSONDecodeError, ReproError) as exc:
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
