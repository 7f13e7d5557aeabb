"""Tier-1 smoke test of the benchmark: one unit per workload at test sizes.

Checks the contract between ``run.py`` and ``BENCHMARK.json`` (every declared
workload and metric is reported, finite, well-named), the exact counts
against the committed references, and that a run leaves the worktree alone.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def git_status():
    proc = subprocess.run(
        ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True
    )
    return proc.stdout if proc.returncode == 0 else None


def expected_counts(stem: str) -> dict:
    counts = {}
    for line in (HERE / "expected" / f"{stem}.txt").read_text().splitlines():
        key, _, value = line.partition(": ")
        if key in ("requests", "frames", "wire_bytes"):
            counts[key] = int(value)
    return counts


def test_smoke_run_reports_the_whole_vocabulary(tmp_path):
    before = git_status()
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "1",
            "--out", str(tmp_path / "smoke.json"),
            "--trace-out", str(tmp_path / "trace.jsonl"),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == json.loads((tmp_path / "smoke.json").read_text())
    assert (tmp_path / "trace.jsonl").stat().st_size > 0

    vocab = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["workloads"]) == {w["name"] for w in vocab["workloads"]}
    for workload, res in result["workloads"].items():
        assert NAME.fullmatch(workload)
        assert res["failed"] == 0 and res["attempted"] >= 2
        for kind in ("end_to_end", "per_layer"):
            assert list(res[kind]) == [m["name"] for m in vocab[kind]]
            for name, metric in res[kind].items():
                assert NAME.fullmatch(name), name
                assert math.isfinite(metric["value"]), (workload, name)
        for name, metric in res["end_to_end"].items():
            assert metric["value"] > 0, (workload, name)

    # exact counts: the service program's clean runs reproduce the committed
    # reference bit for bit, and the faulty run keeps the request count
    want = expected_counts("service_bank.test")
    for workload in ("service_process", "service_tcp", "service_faulty"):
        layer = result["workloads"][workload]["per_layer"]
        assert layer["runtime.services.requests"]["value"] == want["requests"]
        assert layer["leaked_workers"]["value"] == 0
    for workload in ("service_process", "service_tcp"):
        layer = result["workloads"][workload]["per_layer"]
        assert layer["runtime.services.frames_per_request"]["value"] == (
            want["frames"] / want["requests"]
        )
        assert layer["runtime.services.wire_bytes_per_request"]["value"] == (
            want["wire_bytes"] / want["requests"]
        )
        assert layer["runtime.checkpoint.extra_frames"]["value"] == 0
    faulty = result["workloads"]["service_faulty"]["per_layer"]
    assert faulty["runtime.checkpoint.extra_frames"]["value"] > 0
    cold = result["workloads"]["pipeline_cold"]["per_layer"]
    assert cold["vm.cycles"]["value"] == 0      # nothing executes there
    assert cold["distgen.rewrites"]["value"] > 0

    assert git_status() == before   # hermetic: the run dirtied nothing
