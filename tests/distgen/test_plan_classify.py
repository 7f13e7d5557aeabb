"""Distribution plan + dependence classification tests."""

import sys
import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))

import pytest

from helpers import compile_mj_raw

from repro.analysis import build_crg, rapid_type_analysis
from repro.distgen import build_plan, build_plans, classify_dependent
from repro.distgen.classify import classify_dependent_crg
from repro.errors import AnalysisError
from repro.workloads import WORKLOADS


def bank_bp():
    return compile_mj_raw(WORKLOADS["bank"].source("test"))[0]


def test_plan_covers_all_user_classes():
    bp = bank_bp()
    plan = build_plan(bp, 2, force_distribution=True)
    for cls in bp.classes:
        assert cls in plan.class_home


def test_plan_partitions_in_range():
    bp = bank_bp()
    for n in (1, 2, 3):
        plan = build_plan(bp, n)
        assert all(0 <= p < n for p in plan.class_home.values())
        assert 0 <= plan.main_partition < n


def test_single_partition_has_no_dependents():
    plan = build_plan(bank_bp(), 1)
    assert plan.dependent_classes == set()
    assert plan.rewritten_classes() == set()


def test_pin_main_respected():
    bp = bank_bp()
    plan = build_plan(bp, 2, pin_main_to=1, force_distribution=True)
    assert plan.main_partition == 1


def test_object_granularity_has_site_homes():
    bp = bank_bp()
    plan = build_plan(bp, 2, granularity="object")
    assert plan.granularity == "object"
    assert isinstance(plan.site_home, dict)
    for (method, idx), home in plan.site_home.items():
        assert 0 <= home < 2
        assert "." in method and idx >= 0


def test_home_of_site_falls_back_to_class():
    bp = bank_bp()
    plan = build_plan(bp, 2, granularity="class", force_distribution=True)
    home = plan.home_of_site("Bank.initializeAccounts", 99, "Account")
    assert home == plan.class_home["Account"]


def test_unknown_granularity_rejected():
    with pytest.raises(AnalysisError):
        build_plan(bank_bp(), 2, granularity="module")


def test_offline_plans_for_1_to_n():
    plans = build_plans(bank_bp(), 3)
    assert [p.nparts for p in plans] == [1, 2, 3]


def test_classification_cross_edges_only():
    bp = bank_bp()
    cg = rapid_type_analysis(bp)
    crg = build_crg(cg)
    all_same = {node: 0 for node in crg.nodes}
    assert classify_dependent_crg(crg, all_same) == set()
    # force Bank's dynamic part to the other side: both endpoints of any
    # crossing edge become dependent
    split = dict(all_same)
    split["DT_Bank"] = 1
    dependent = classify_dependent_crg(crg, split)
    assert "Bank" in dependent
    assert "Account" in dependent or "BankMain" in dependent


def test_classify_dispatches_on_graph_type():
    bp = bank_bp()
    cg = rapid_type_analysis(bp)
    crg = build_crg(cg)
    assert classify_dependent(crg, {n: 0 for n in crg.nodes}) == set()


def test_cost_model_colocates_chatty_db():
    bp, _ = compile_mj_raw(WORKLOADS["db"].source("test"))
    plan = build_plan(bp, 2, tpwgts=[0.68, 0.32], pin_main_to=1)
    # db is chatty: the cost model keeps everything with main
    assert len(set(plan.class_home.values())) == 1


def test_cost_model_splits_compute_heavy_crypt():
    bp, _ = compile_mj_raw(WORKLOADS["crypt"].source("test"))
    plan = build_plan(bp, 2, tpwgts=[0.68, 0.32], pin_main_to=1)
    homes = set(plan.class_home.values())
    assert len(homes) == 2  # kernel offloaded away from main
    assert plan.class_home["CryptEngine"] != plan.main_partition
    # the hot engine<->keys pair stays together
    assert plan.class_home["CryptEngine"] == plan.class_home["KeySchedule"]


@pytest.mark.parametrize("workload", ["crypt", "bank"])
@pytest.mark.parametrize("ubfactor, tried", [
    (1.30, [1.05, 1.3, 2.0, 2.6]),       # the default repeats 1.3
    (1.0, [1.05, 1.3, 2.0, 1.0]),        # 2 * 1.0 repeats 2.0
    (4.0, [1.05, 1.3, 2.0, 4.0, 8.0]),   # what `repro distribute` passes
])
def test_each_balance_tolerance_is_partitioned_once(
    monkeypatch, workload, ubfactor, tried
):
    import repro.distgen.plan as plan_mod
    from repro.distgen.plan import placement_cost
    from repro.partition.api import part_graph

    by_tolerance = {}
    calls = []
    real = plan_mod.part_graph_tolerances

    def recording(graph, nparts, ubfactors, **kwargs):
        calls.append(list(ubfactors))
        results = real(graph, nparts, ubfactors, **kwargs)
        for ub, result in zip(ubfactors, results):
            by_tolerance[ub] = list(result.parts)
            # one call at many tolerances is each tolerance's own call
            alone = part_graph(graph, nparts, ubfactor=ub, **kwargs)
            assert (result.parts, result.edgecut) == (alone.parts, alone.edgecut)
        return results

    monkeypatch.setattr(plan_mod, "part_graph_tolerances", recording)
    bp, _ = compile_mj_raw(WORKLOADS[workload].source("test"))
    plan = build_plan(bp, 2, ubfactor=ubfactor)
    assert calls == [tried]

    # the winner is still the first lowest-cost candidate of the full list
    full = [by_tolerance[ub] for ub in (1.05, 1.3, 2.0, ubfactor, 2 * ubfactor)]
    full.append([0] * len(plan.parts))  # everything co-located with main
    costs = [placement_cost(bp, parts, 2) for parts in full]
    assert plan.est_cost == min(costs)
    assert plan.parts == full[costs.index(min(costs))]


def test_plans_do_not_depend_on_the_string_hash_seed():
    """Sets and dicts of class names iterate in a different order under
    every ``PYTHONHASHSEED``; the placement may not follow them.  (What the
    kernel oracle of ``tests/partition`` compares is only worth pinning if
    this holds.)"""
    import json
    import os
    import subprocess

    script = (
        "import json, sys; sys.path[:0] = {paths!r}\n"
        "from helpers import compile_mj_raw, scaling_source, two_node_plan_arguments\n"
        "from repro.distgen import build_plan\n"
        "from repro.workloads import WORKLOADS\n"
        "out = []\n"
        "for source in (WORKLOADS['bank'].source('test'), scaling_source(24)):\n"
        "    program, _ = compile_mj_raw(source)\n"
        "    for kwargs in (two_node_plan_arguments(), {{'granularity': 'object'}}):\n"
        "        plan = build_plan(program, 2, **kwargs)\n"
        "        out.append([plan.order, plan.parts, plan.edgecut,\n"
        "                    sorted(plan.class_home.items()),\n"
        "                    sorted(map(list, plan.site_home.items())),\n"
        "                    sorted(plan.dependent_classes)])\n"
        "print(json.dumps(out))\n"
    ).format(paths=[p for p in sys.path if p])
    plans = []
    for seed in ("0", "4242"):
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": seed}, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        plans.append(json.loads(done.stdout))
    assert plans[0] == plans[1]
    assert all(len(set(parts)) == 2 for _, parts, *_ in plans[0][::2])
