"""End-to-end integration tests across the whole infrastructure."""

import pytest

from repro import compile_source
from repro.api import Experiment
from repro.distgen import build_plan, rewrite_program
from repro.vm import run_main
from repro.workloads import WORKLOADS


def test_compile_source_one_shot():
    loaded = compile_source(
        "class M { static void main(String[] a) { Sys.println(6 * 7); } }"
    )
    assert run_main(loaded).stdout == ["42"]


@pytest.mark.parametrize("name", ["crypt", "moldyn", "compress"])
def test_full_pipeline_distributed_correctness(name):
    """source -> analysis -> plan -> rewrite -> 2-node execution == seq."""
    res = Experiment.from_options(name).run()  # raises if outputs diverge
    assert res.distributed_s > 0


def test_all_workloads_survive_forced_object_granularity():
    for name in ("bank", "method", "search"):
        res = Experiment.from_options(name, granularity="object").run()
        assert res.stdout[-1] == res.sequential.stdout[-1], name


def test_four_node_homogeneous_cluster():
    exp = Experiment.from_options("create", nparts=4, nodes=4)
    res = exp.run()
    assert [n.cpu_hz for n in exp.cluster().nodes] == [1e9] * 4
    assert res.stdout[-1] == res.sequential.stdout[-1]
    assert res.plan.nparts == 4


def test_rewrite_then_run_locally_is_identity():
    """A fully rewritten program still runs on a single machine thanks to
    the local dispatcher — offline plans are runnable anywhere."""
    from repro.vm import load_program

    bp, = [compile_source(WORKLOADS["bank"].source("test")).bprogram]
    plan = build_plan(bp, 2, force_distribution=True)
    rewritten, _ = rewrite_program(bp, plan)
    out = run_main(load_program(rewritten)).stdout
    base = run_main(load_program(bp)).stdout
    assert out == base


def test_makespan_never_less_than_busy_time():
    result = Experiment.from_options("heapsort").run().distributed
    for ns in result.node_stats:
        assert result.makespan_s >= ns.busy_s - 1e-12


def test_message_accounting_consistent():
    result = Experiment.from_options("method").run().distributed
    assert result.total_messages == sum(n.messages_sent for n in result.node_stats)
    assert result.total_bytes == sum(n.bytes_sent for n in result.node_stats)
