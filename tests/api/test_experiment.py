"""Experiment façade: stage composition, memoization, reports and the
Figure 11 seconds rule."""

import dataclasses
import json

import pytest

from repro.api import Experiment, ExperimentConfig, Report, WorkloadSpec
from repro.errors import ConfigError
from repro.harness.cache import StageCache


def test_stage_methods_return_typed_artifacts():
    exp = Experiment.from_options("bank", cache=StageCache())
    work = exp.compile()
    assert work.num_classes == 3
    analysis = exp.analyze()
    assert analysis.crg.num_nodes > 0
    partition = exp.partition()
    assert partition.nparts == 2
    assert len(partition.parts) == analysis.crg.use_graph()[0].num_nodes
    plan = exp.plan()
    assert plan.nparts == 2
    rewritten = exp.rewrite()
    assert rewritten.elapsed_ms >= 0.0
    result = exp.run()
    assert result.speedup_pct > 0
    assert result.stdout


def test_stage_artifacts_are_instance_memoized():
    exp = Experiment.from_options("bank", cache=StageCache())
    assert exp.compile() is exp.compile()
    assert exp.analyze() is exp.analyze()
    assert exp.plan() is exp.plan()
    assert exp.run() is exp.run()


def test_two_experiments_share_stage_cache():
    cache = StageCache()
    e1 = Experiment.from_options("method", cache=cache)
    e2 = Experiment.from_options("method", cache=cache)
    assert e1.compile() is e2.compile()
    assert e1.analyze() is e2.analyze()
    # deterministic simulator: even the execution artifact is shared
    assert e1.run().distributed is e2.run().distributed


def test_partition_stage_cached_and_valid():
    cache = StageCache()
    e1 = Experiment.from_options("crypt", cache=cache)
    p1 = e1.partition()
    assert e1.partition() is p1
    e2 = Experiment.from_options("crypt", cache=cache)
    assert e2.partition() is p1  # cross-experiment via the stage cache
    graph, _ = e1.analyze().crg.use_graph()
    p1.validate(graph)


def test_run_report_is_json_round_trippable():
    exp = Experiment.from_options("bank", cache=StageCache())
    report = exp.run().report
    data = json.loads(report.to_json())
    restored = Report.from_json(report.to_json())
    assert restored.to_dict() == report.to_dict()
    assert data["config"]["workload"]["name"] == "bank"
    assert data["partition"]["nparts"] == 2
    assert [t["stage"] for t in data["stages"]] == [
        "compile", "sequential", "plan", "rewrite", "execute",
    ]
    assert data["speedup_pct"] == pytest.approx(
        100.0 * data["sequential_s"] / data["distributed_s"]
    )
    assert len(data["node_stats"]) == 2
    # config section round-trips into an equal typed config
    assert ExperimentConfig.from_dict(data["config"]) == exp.config


def test_report_before_run_is_partial():
    exp = Experiment.from_options("bank", cache=StageCache())
    exp.analyze()
    report = exp.report()
    assert report.partition is None
    assert report.speedup_pct is None
    assert [t.stage for t in report.stages] == ["compile", "analyze"]


def test_report_aggregate_rolls_up_node_stats():
    report = Experiment.from_options("bank", cache=StageCache()).run().report
    agg = report.aggregate()
    assert agg["nodes"] == 2.0
    assert agg["messages_sent"] >= 1


def test_config_validation_happens_at_construction():
    with pytest.raises(ConfigError):
        Experiment(
            ExperimentConfig(
                workload=WorkloadSpec(name="bank"),
                partition=dataclasses.replace(
                    ExperimentConfig.from_options("bank").partition, nparts=4
                ),
                cluster=ExperimentConfig.from_options("bank", nodes=2).cluster,
            )
        )


def test_thread_backend_reports_wall_time():
    res = Experiment.from_options(
        "bank", cache=StageCache(), backend="thread"
    ).run()
    assert res.distributed_s > 0.0
    assert res.sequential_s > 0.0  # wall-clock baseline, not virtual
    assert res.report.to_dict()["config"]["backend"]["name"] == "thread"


def test_baseline_only_report_follows_the_run_seconds_rule():
    """Before the distributed run, the report's ``sequential_s`` already
    follows the Figure 11 rule ``run()`` uses: measured wall seconds on a
    wall-clock backend, not the simulator's virtual seconds."""
    exp = Experiment.from_options("bank", cache=StageCache(), backend="thread")
    seq = exp.baseline()
    early = exp.report().sequential_s
    assert early == max(seq.wall_time_s, 1e-9)
    assert early != seq.exec_time_s
    assert exp.run().sequential_s == early
