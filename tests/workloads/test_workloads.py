"""Workload correctness tests: each benchmark compiles, runs, validates its
own computation, and is deterministic."""

import sys
import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))

import pytest

from helpers import compile_mj, run_mj

from repro.vm import run_main
from repro.workloads import TABLE1_ORDER, WORKLOADS, get


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_compiles_and_runs(name):
    machine = run_mj(WORKLOADS[name].source("test"))
    assert machine.stdout, name
    assert machine.done


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_deterministic(name):
    src = WORKLOADS[name].source("test")
    out1 = run_main(compile_mj(src)).stdout
    out2 = run_main(compile_mj(src)).stdout
    assert out1 == out2


def test_table1_order_is_the_papers():
    assert TABLE1_ORDER == (
        "create", "method", "crypt", "heapsort", "moldyn", "search",
        "compress", "db",
    )
    for name in TABLE1_ORDER:
        assert name in WORKLOADS


def test_get_unknown_raises():
    with pytest.raises(KeyError):
        get("quicksort")


def test_bank_assets_exact():
    out = run_mj(WORKLOADS["bank"].source("test")).stdout
    assert out == ["assets=6597100"]


def test_crypt_roundtrip_validates():
    out = run_mj(WORKLOADS["crypt"].source("test")).stdout[-1]
    assert out.startswith("crypt check=")
    assert "-" not in out.split("=")[1]  # no errors (negative = mismatches)


def test_heapsort_sorts():
    out = run_mj(WORKLOADS["heapsort"].source("test")).stdout[-1]
    assert out.startswith("heapsort check=")
    assert "FAILED" not in out


def test_compress_roundtrip_and_compression():
    out = run_mj(WORKLOADS["compress"].source("test")).stdout[-1]
    assert out.startswith("compress ok ratio=")
    ratio = int(out.split("=")[1])
    assert 0 < ratio < 100  # LZW actually compressed the skewed text


def test_search_visits_nodes():
    out = run_mj(WORKLOADS["search"].source("test")).stdout[-1]
    nodes = int(out.split("nodes=")[1])
    assert nodes > 50


def test_db_runs_operations():
    out = run_mj(WORKLOADS["db"].source("test")).stdout[-1]
    assert "size=" in out and "check=" in out
    size = int(out.split("size=")[1].split(" ")[0])
    assert size > 0
    found = int(out.split("found=")[1].split(" ")[0])
    assert found > 0  # some lookups hit


def test_moldyn_energy_finite():
    out = run_mj(WORKLOADS["moldyn"].source("test")).stdout[-1]
    check = int(out.split("=")[1])
    assert check != 0


def test_method_result_scales_with_reps():
    small = run_mj(WORKLOADS["method"].source("test")).stdout[-1]
    assert small.startswith("method result=")


def test_sizes_increase_workload():
    """'bench' must be a strictly bigger computation than 'test'."""
    for name in ("crypt", "heapsort", "method"):
        src_t = WORKLOADS[name].source("test")
        src_b = WORKLOADS[name].source("bench")
        mt = run_main(compile_mj(src_t))
        mb = run_main(compile_mj(src_b))
        assert mb.steps > 2 * mt.steps, name


def test_class_counts_in_table1_regime():
    """Table 1's benchmarks are small programs (a few to a few dozen
    classes); ours must be in the same regime."""
    from repro.api.experiment import compile_workload

    for name in TABLE1_ORDER:
        work = compile_workload(name, "test")
        assert 2 <= work.num_classes <= 40, name
        assert work.num_methods >= 5, name
        assert work.size_kb > 0, name
