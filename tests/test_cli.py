"""CLI smoke tests."""

import json

import pytest

from helpers import run_python

from repro.cli import build_parser, main


def test_run_command(capsys):
    assert main(["run", "bank"]) == 0
    captured = capsys.readouterr()
    assert "assets=6597100" in captured.out
    assert "virtual ms" in captured.err  # diagnostics stay off stdout


def test_run_backend_stdout_matches_sequential(capsys):
    """The documented contract: program output on stdout is byte-identical
    whether the workload runs sequentially or on a runtime backend."""
    assert main(["run", "bank"]) == 0
    seq = capsys.readouterr().out
    assert main(["run", "bank", "--backend", "sim"]) == 0
    sim = capsys.readouterr()
    assert sim.out == seq
    assert "backend=sim" in sim.err


def test_run_json_emits_report(capsys):
    assert main(["run", "bank", "--backend", "sim", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["workload"]["name"] == "bank"
    assert report["speedup_pct"] > 0
    assert report["messages"] >= 1
    stages = [t["stage"] for t in report["stages"]]
    assert stages == ["compile", "sequential", "plan", "rewrite", "execute"]
    # the distributed program output rides inside the node statistics
    assert any(
        "assets=6597100" in line
        for ns in report["node_stats"]
        for line in ns["stdout"]
    )


def test_run_seq_baseline_ignores_nodes(capsys):
    """--nodes shapes distributed runs only: the centralized baseline always
    runs on the paper's 800 MHz machine, so its numbers don't drift."""
    assert main(["run", "bank"]) == 0
    two = capsys.readouterr().err
    assert main(["run", "bank", "--nodes", "3"]) == 0
    three = capsys.readouterr().err
    assert two == three
    assert "800 MHz baseline" in two


def test_run_seq_json_emits_report(capsys):
    assert main(["run", "bank", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sequential_s"] > 0
    assert report["distributed_s"] is None  # nothing distributed ran


def test_analyze_command(capsys, tmp_path):
    assert main(["analyze", "bank", "--vcg", str(tmp_path / "vcg")]) == 0
    out = capsys.readouterr().out
    assert "CRG:" in out and "ODG:" in out
    assert (tmp_path / "vcg" / "bank_crg.vcg").exists()
    assert (tmp_path / "vcg" / "bank_odg.vcg").exists()


def test_distribute_command(capsys):
    assert main(["distribute", "method", "--size", "test"]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out
    assert "messages" in out


def test_distribute_json_emits_report(capsys):
    assert main(["distribute", "method", "--size", "test", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["partition"]["nparts"] == 2
    assert report["speedup_pct"] > 0
    assert report["config"]["backend"]["name"] == "sim"


def test_sweep_command(capsys, tmp_path):
    out_file = tmp_path / "sweep.txt"
    assert main([
        "sweep", "--workloads", "bank,method", "--methods", "multilevel,kl",
        "--out", str(out_file),
    ]) == 0
    out = capsys.readouterr().out
    assert "workload" in out and "speedup %" in out
    assert "hit rate" in out  # stage-cache telemetry reported
    assert "4 configs" in out
    assert out_file.read_text().count("\n") >= 6  # header + rule + 4 rows


def test_sweep_json_emits_reports(capsys):
    assert main([
        "sweep", "--workloads", "bank", "--methods", "multilevel,kl", "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["records"]) == 2
    methods = [
        r["config"]["partition"]["method"] for r in payload["records"]
    ]
    assert methods == ["multilevel", "kl"]
    assert all(r["speedup_pct"] > 0 for r in payload["records"])


def test_sweep_rejects_bad_grid_cleanly(capsys):
    assert main(["sweep", "--workloads", "bank", "--methods", "annealing"]) == 2
    assert "unknown partition method" in capsys.readouterr().err
    assert main(["sweep", "--workloads", "bank", "--nodes", "two"]) == 2
    assert "two" in capsys.readouterr().err


def test_codegen_command(capsys):
    assert main(["codegen"]) == 0
    out = capsys.readouterr().out
    assert "mov eax, 4" in out
    assert "mov PC, R14" in out


def test_unknown_workload_rejected(capsys):
    """Unknown plugin names exit cleanly with a did-you-mean, no traceback."""
    assert main(["run", "nosuch"]) == 2
    err = capsys.readouterr().err
    assert "error: unknown workload 'nosuch'" in err
    assert main(["run", "hepsort"]) == 2
    assert "did you mean 'heapsort'" in capsys.readouterr().err


def test_unknown_backend_rejected(capsys):
    assert main(["run", "bank", "--backend", "threds"]) == 2
    err = capsys.readouterr().err
    assert "error: unknown runtime backend 'threds'" in err
    assert "did you mean 'thread'" in err
    assert main(["distribute", "bank", "--backend", "carrier-pigeon"]) == 2
    assert "unknown runtime backend" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["distribute", "crypt", "--crash", "x"],
    ["sweep", "--workloads", "crypt", "--crash", "x"],
])
def test_bad_crash_exits_2_with_one_line(capsys, argv):
    """Every command parses NODE:CYCLE the same way and fails the same way."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: crash must be NODE:CYCLE, got 'x'\n"


_CLI = "from repro.cli import main; sys.exit(main(sys.argv[1:]))"


@pytest.mark.parametrize("var, value, message", [
    ("REPRO_VM_ENGINE", "compield",
     "REPRO_VM_ENGINE='compield': unknown VM engine "
     "(choose from reference, fast, compiled)"),
    ("REPRO_VM_JIT_THRESHOLD", "abc",
     "REPRO_VM_JIT_THRESHOLD='abc': expected a positive integer"),
    ("REPRO_VM_JIT_THRESHOLD", "0",
     "REPRO_VM_JIT_THRESHOLD='0': expected a positive integer"),
])
def test_mistyped_vm_environment_exits_2_with_one_line(
        monkeypatch, var, value, message):
    """Both variables arrive from outside the program: a value that is not
    one of the choices names itself instead of silently running another
    tier (the engine) or dying in a bare ``ValueError`` (the threshold)."""
    monkeypatch.setenv(var, value)
    proc = run_python(_CLI, "run", "crypt", "--json")
    assert proc.returncode == 2 and proc.stdout == ""
    line, = proc.stderr.splitlines()
    assert line.startswith(f"error: {message}")


def test_empty_vm_environment_means_the_defaults(monkeypatch):
    def jit_counters():
        proc = run_python(_CLI, "run", "crypt", "--json")
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)["jit"]

    for var in ("REPRO_VM_ENGINE", "REPRO_VM_JIT_THRESHOLD"):
        monkeypatch.delenv(var, raising=False)
    unset = jit_counters()
    for var in ("REPRO_VM_ENGINE", "REPRO_VM_JIT_THRESHOLD"):
        monkeypatch.setenv(var, "")
    assert jit_counters() == unset
    assert unset["promotions"] > 0  # the compiled engine


def test_parser_lists_all_workloads():
    parser = build_parser()
    help_text = parser.format_help()
    assert "distribute" in help_text and "analyze" in help_text
    assert "fuzz" in help_text


# ------------------------------------------------------------------ fuzz
def test_fuzz_small_budget_clean(capsys):
    assert main(["fuzz", "--seed", "0", "--budget", "4"]) == 0
    captured = capsys.readouterr()
    assert "0 failures" in captured.out
    assert "seed=0" in captured.err  # the seed is always announced


def test_fuzz_json_report(capsys):
    assert main(["fuzz", "--seed", "2", "--budget", "3", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["scenarios"] == 3
    assert report["seed"] == 2
    assert report["failures"] == []


def test_fuzz_replay_committed_corpus(capsys):
    import pathlib

    corpus = pathlib.Path(__file__).parent / "corpus"
    assert main(["fuzz", "--replay", str(corpus)]) == 0
    err = capsys.readouterr().err
    assert "replayed" in err and "0 divergences" in err


def test_fuzz_replay_missing_path_is_clean_error(capsys):
    assert main(["fuzz", "--replay", "does/not/exist"]) == 2
    assert "error:" in capsys.readouterr().err


def test_fuzz_save_corpus_and_replay_round_trip(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    assert main(["fuzz", "--seed", "5", "--budget", "3",
                 "--save-corpus", str(corpus_dir)]) == 0
    capsys.readouterr()
    saved = list(corpus_dir.glob("*.json"))
    assert saved, "passing scenarios must be saved as golden entries"
    assert main(["fuzz", "--replay", str(corpus_dir)]) == 0


def test_fuzz_injected_fault_fails_with_counterexample(
    tmp_path, capsys, monkeypatch
):
    """The acceptance criterion, end to end through the CLI: an injected VM
    fault makes `repro fuzz` exit 1 and write a minimized, replayable
    counterexample."""
    monkeypatch.setenv("REPRO_VM_INJECT_OVERCHARGE", "1")
    fail_dir = tmp_path / "failures"
    assert main(["fuzz", "--seed", "0", "--budget", "2",
                 "--failures-dir", str(fail_dir)]) == 1
    captured = capsys.readouterr()
    assert "vm.cycles" in captured.out
    saved = list(fail_dir.glob("*.json"))
    assert saved, "minimized counterexample must be written"
    # the saved entry replays: still failing while the fault is in...
    assert main(["fuzz", "--replay", str(saved[0])]) == 1
    capsys.readouterr()
    # ...and clean once the fault is fixed
    monkeypatch.delenv("REPRO_VM_INJECT_OVERCHARGE")
    assert main(["fuzz", "--replay", str(saved[0])]) == 0
