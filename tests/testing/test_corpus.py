"""repro.testing.corpus: entry round-trips, the committed corpus replays
clean, and golden drift is detected."""

import json
import pathlib

import pytest

from repro.errors import ReproError
from repro.testing import (
    CorpusEntry,
    GenConfig,
    Scenario,
    World,
    check_scenario,
    degenerate_worlds,
    entry_from_outcome,
    generate_program,
    load_corpus,
    replay_entry,
)

CORPUS_DIR = pathlib.Path(__file__).parent.parent / "corpus"
#: the paper's two-node testbed on the simulator alone
PAPER = degenerate_worlds()[1]._replace(backends=("sim",))


def _passing_entry(seed=4):
    spec = generate_program(GenConfig(seed=seed, n_classes=1))
    scenario = Scenario(
        name=f"corpus-t-{seed}", source=spec.render(), world=PAPER, spec=spec,
    )
    outcome = check_scenario(scenario)
    assert outcome.ok
    return entry_from_outcome(scenario, outcome, meta={"seed": seed})


def test_entry_json_round_trip(tmp_path):
    entry = _passing_entry()
    path = entry.save(tmp_path)
    again = CorpusEntry.from_json(path.read_text())
    assert again.name == entry.name
    assert again.source == entry.source
    assert again.expected == entry.expected
    assert again.to_json() == entry.to_json()


def test_replay_fresh_entry_passes():
    entry = _passing_entry()
    assert replay_entry(entry) == []


def test_replay_detects_golden_drift():
    entry = _passing_entry()
    entry.expected["cycles"] += 1  # simulate a cost-model drift
    divs = replay_entry(entry)
    assert any(d.check == "corpus.cycles" for d in divs)


def test_replay_detects_stdout_drift():
    entry = _passing_entry()
    entry.expected["stdout"] = list(entry.expected["stdout"]) + ["extra"]
    divs = replay_entry(entry)
    assert any(d.check == "corpus.stdout" for d in divs)


def test_load_corpus_rejects_missing_and_garbage(tmp_path):
    with pytest.raises(ReproError):
        load_corpus(tmp_path / "nope")
    (tmp_path / "bad.json").write_text("{not json")
    with pytest.raises(ReproError):
        load_corpus(tmp_path)


def test_load_corpus_refuses_another_schema(tmp_path):
    """A schema-1 entry (the flat world form) is refused with the file and
    the schema named, not converted."""
    data = json.loads(_passing_entry().to_json())
    data["schema"] = 1
    path = tmp_path / "old.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ReproError, match=r"old\.json: corpus schema 1 is not 2"):
        load_corpus(tmp_path)


def test_committed_corpus_loads_and_has_both_shapes():
    entries = load_corpus(CORPUS_DIR)
    assert len(entries) >= 5
    kinds = {e.kind for _, e in entries}
    assert "golden" in kinds
    for _, entry in entries:
        assert entry.source.strip()
        assert entry.expected["stdout"], entry.name
        world = World.from_dict(entry.world)  # world must round-trip
        assert json.loads(json.dumps(world.to_dict())) == entry.world


def test_committed_corpus_replays_clean():
    """The CI regression gate, in-process: every committed golden trace
    still reproduces and still conforms."""
    for path, entry in load_corpus(CORPUS_DIR):
        divs = replay_entry(entry)
        assert divs == [], (
            f"{path.name}: {[d.to_dict() for d in divs]}"
        )
