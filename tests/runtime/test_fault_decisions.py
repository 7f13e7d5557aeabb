"""The fault decision engine, by its properties.

``FaultInjector.on_send`` is counter-based: attempt ``k`` on link ``(src,
dst)`` is one integer mix of a per-link key and ``k``.  The stream it
replaced (a ``random.Random`` seeded per attempt) is *not* kept as a
``_reference_`` oracle the way the codec, the partition kernels and the
scanner were: equality with the old values is not the contract, and nothing
in the repo pinned them.  The contract is what these tests state — every
decision is a pure function of ``(seed, src, dst, attempt)``, the same on
every backend; rates are the plan's; attempts and links are independent —
checked over enough draws that a biased or correlated mix would fail.
All bounds are 4 sigma of the estimator at the sample size used; seeds are
fixed, so a pass is a pass on every run.
"""

import math

import pytest

from repro.api import Experiment
from repro.api.config import ClusterConfig
from repro.errors import ConfigError
from repro.runtime.faults import FaultInjector, FaultPlan

BACKENDS = ("sim", "thread", "process", "tcp")
N = 200_000


def _stream(plan, src, dst, n, req_id=1):
    inj = FaultInjector(plan, src)
    return [inj.on_send(dst, req_id) for _ in range(n)]


# ------------------------------------------------------------------ rates
@pytest.mark.parametrize("drop, dup", ((0.05, 0.05), (0.30, 0.20)))
@pytest.mark.parametrize("seed", (0, 3, 99))
def test_rates_are_the_plans_and_attempts_are_uncorrelated(drop, dup, seed):
    draws = _stream(FaultPlan(drop_pct=drop, dup_pct=dup, seed=seed), 1, 0, N)
    dropped = [1 if copies == 0 else 0 for copies, _ in draws]
    p = sum(dropped) / N
    assert abs(p - drop) <= 4 * math.sqrt(drop * (1 - drop) / N), p
    # duplication is decided among the attempts that were not lost
    delivered = N - sum(dropped)
    q = sum(1 for copies, _ in draws if copies == 2) / delivered
    assert abs(q - dup) <= 4 * math.sqrt(dup * (1 - dup) / delivered), q
    assert {copies for copies, _ in draws} == {0, 1, 2}
    # lag-1 autocorrelation of the drop indicator: ~ N(0, 1/N) if independent
    lag1 = sum(a * b for a, b in zip(dropped, dropped[1:])) / (N - 1)
    r = (lag1 - p * p) / (p * (1 - p))
    assert abs(r) <= 4 / math.sqrt(N), r
    # a drop says nothing about the next attempt's duplication either
    after_drop = [
        nxt[0] for (copies, _), nxt in zip(draws, draws[1:])
        if copies == 0 and nxt[0] != 0
    ]
    q2 = sum(1 for copies in after_drop if copies == 2) / len(after_drop)
    assert abs(q2 - dup) <= 4 * math.sqrt(dup * (1 - dup) / len(after_drop)), q2


def test_probability_extremes_are_exact():
    """``test_total_loss_exhausts_retries_and_degrades`` leans on the first."""
    assert {c for c, _ in _stream(FaultPlan(drop_pct=1.0), 0, 1, 5_000)} == {0}
    assert {c for c, _ in _stream(FaultPlan(dup_pct=1.0), 0, 1, 5_000)} == {2}
    assert {c for c, _ in _stream(FaultPlan(delay_s=1e-3), 0, 1, 5_000)} == {1}
    # the smallest positive probability is still a possibility, not zero
    assert FaultInjector(FaultPlan(drop_pct=5e-324), 0)._drop_below == 1


def test_only_uniquely_identified_frames_are_duplicated():
    inj = FaultInjector(FaultPlan(dup_pct=1.0, seed=4), 0)
    for req_id in (0, -1, -1_000_017):     # SHUTDOWN, fault notice, a post
        assert inj.on_send(1, req_id) == (1, 0.0)
    assert inj.on_send(1, 1) == (2, 0.0)


def test_delays_cover_the_half_open_interval():
    delay_s = 1e-5
    delays = [d for _, d in _stream(FaultPlan(delay_s=delay_s, seed=8), 0, 1, N)]
    assert all(0.0 <= d < delay_s for d in delays)
    mean = sum(delays) / N
    # uniform on [0, d): mean d/2, sigma d/sqrt(12)
    assert abs(mean - delay_s / 2) <= 4 * delay_s / math.sqrt(12 * N), mean
    assert min(delays) < 0.001 * delay_s and max(delays) > 0.999 * delay_s
    # no delay configured: exactly 0.0, so ``MessageExchange.send``
    # charges no event
    assert {d for _, d in _stream(FaultPlan(drop_pct=0.5), 0, 1, 1_000)} == {0.0}


# ----------------------------------------------------------- independence
def _agreement(a, b):
    return sum(1 for (x, _), (y, _) in zip(a, b) if (x == 0) == (y == 0)) / len(a)


@pytest.mark.parametrize("p", (0.05, 0.5))
def test_links_and_seeds_draw_independent_streams(p):
    """Two independent Bernoulli(p) streams agree where both drop or both
    deliver: p² + (1 − p)² of positions.  Correlated keys (the two
    directions of a link, adjacent seeds, adjacent nodes) would show."""
    n = 50_000
    base = _stream(FaultPlan(drop_pct=p, seed=7), 0, 1, n)
    others = {
        "reverse link": _stream(FaultPlan(drop_pct=p, seed=7), 1, 0, n),
        "next seed": _stream(FaultPlan(drop_pct=p, seed=8), 0, 1, n),
        "next dst": _stream(FaultPlan(drop_pct=p, seed=7), 0, 2, n),
        "next src": _stream(FaultPlan(drop_pct=p, seed=7), 1, 1, n),
        "negative seed": _stream(FaultPlan(drop_pct=p, seed=-7), 0, 1, n),
    }
    expect = p * p + (1 - p) * (1 - p)
    bound = 4 * math.sqrt(expect * (1 - expect) / n)
    for name, other in others.items():
        assert other != base, name
        assert abs(_agreement(base, other) - expect) <= bound, name


def test_one_links_traffic_does_not_move_anothers_stream():
    plan = FaultPlan(drop_pct=0.3, dup_pct=0.2, delay_s=1e-5, seed=11)
    alone = _stream(plan, 0, 1, 500)
    inj = FaultInjector(plan, 0)
    mixed = []
    for _ in range(500):
        inj.on_send(2, 1)
        mixed.append(inj.on_send(1, 1))
        inj.on_send(3, 0)
    assert mixed == alone


def test_a_partitioned_link_never_delivers_and_still_counts_attempts():
    plan = FaultPlan(partitions=((0, 1),), drop_pct=0.2, seed=5)
    inj = FaultInjector(plan, 0)
    assert {inj.on_send(1, i + 1) for i in range(200)} == {(0, 0.0)}
    assert inj._attempts[1] == 200
    # only that direction of that link: 0 -> 2 and 1 -> 0 draw as usual
    assert [inj.on_send(2, 1) for _ in range(200)] == _stream(
        FaultPlan(drop_pct=0.2, seed=5), 0, 2, 200
    )
    assert any(c for c, _ in _stream(plan, 1, 0, 200))


# ------------------------------------------------ the same on every backend
def test_every_backend_plays_the_same_schedule():
    """Decisions are a pure function of ``(seed, src, dst, attempt)`` and a
    program sends the same frames down each link in the same order
    whatever moves them, so each node posts the same number of frames —
    resends and duplicates included — on all four backends."""
    def run(backend, faults=None):
        return Experiment.from_options(
            "service_bank", backend=backend, faults=faults,
            force_distribution=True,
        ).run().distributed

    plan = FaultPlan(drop_pct=0.2, dup_pct=0.2, seed=21)
    runs = {backend: run(backend, plan) for backend in BACKENDS}
    clean = run("sim")
    sent = {
        backend: [s.messages_sent for s in r.node_stats]
        for backend, r in runs.items()
    }
    assert len({tuple(v) for v in sent.values()}) == 1, sent
    # ~ 20 % of the ~ 290 delivered request / reply frames went out twice
    assert sum(sent["sim"]) > clean.total_messages + 30
    for r in runs.values():
        assert r.stdout == clean.stdout and not r.degraded


# ------------------------------------------------- a plan that cannot run
@pytest.mark.parametrize("field, value", (
    ("delay_s", float("nan")),
    ("delay_s", float("inf")),
    ("drop_pct", float("nan")),
    ("dup_pct", float("-inf")),
    ("drop_pct", "0.1"),
    ("dup_pct", None),
    ("delay_s", True),
    ("seed", "x"),
    ("seed", 1.5),
    ("seed", True),
    ("seed", None),
    ("max_retries", 2.0),
    ("max_retries", "8"),
    ("backoff_cycles", 1e3),
))
def test_a_malformed_plan_is_a_config_error_naming_field_and_value(field, value):
    """Each of these used to pass validation and die inside a worker —
    ``cannot convert float NaN to integer`` in ``MessageExchange.send``,
    ``unsupported operand type(s) for ^`` in ``on_send`` — or as a bare
    ``TypeError`` from the range comparison.  An integer seed is the mix's
    precondition."""
    for build in (
        lambda: FaultPlan(**{field: value}),
        lambda: FaultPlan.from_dict({field: value}),
        lambda: ClusterConfig(faults={field: value}),
    ):
        with pytest.raises(ConfigError) as err:
            build()
        assert f"FaultPlan.{field}" in str(err.value)
        assert repr(value) in str(err.value)


def test_integral_numbers_are_accepted_where_reals_are_expected():
    plan = FaultPlan.from_dict({"drop_pct": 0, "dup_pct": 1, "delay_s": 0})
    assert plan.dup_pct == 1 and not plan.inert
    assert FaultPlan(seed=-3, drop_pct=0.1).seed == -3
    assert FaultPlan(seed=2**80).seed == 2**80


def test_inert_is_derived_from_what_the_plan_injects():
    assert FaultPlan().inert and FaultPlan(seed=9, max_retries=0).inert
    for plan in (
        FaultPlan(drop_pct=0.1), FaultPlan(dup_pct=0.1),
        FaultPlan(delay_s=1e-6), FaultPlan(crashes=((0, 10),)),
        FaultPlan(partitions=((0, 1),)),
    ):
        assert not plan.inert, plan
