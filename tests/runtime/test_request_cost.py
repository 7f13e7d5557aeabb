"""What a request costs, as a count — the hardware-independent gate on the
message path (``MessageExchange.request`` to the wire and back).

``service_bank`` runs on ``process`` and on ``tcp`` with ``run_node`` under
cProfile inside every worker; the profile rides home in the node report.
Wall-clock evidence lives in perfbench (``run_s`` / ``rtt_p50_us`` @
``service_*``); this is the part of it that repeats exactly enough to
assert on: Python-level calls per round trip, summed over both nodes, VM
included.  The count moves by about ±1 with scheduling (whether a reply is
already there on the first look or only after a blocking wait), and
exactly by what those waits cost: :data:`CALLS_PER_WAIT` calls each, and
a resumption of every generator frame between the node's driver and the
``recv`` that waited.  Net of that, calls per round trip are the same
whatever the schedule, so a comparison of two legs is made on the net
count.

The rule for every count gate in the suite: what it asserts is
schedule-independent, or its ceiling carries a margin measured under load.
Calls per round trip have the margin (292 shipped, 312 allowed: the 7 %
the ceiling had over the 309 that shipped before).  Polls are asserted per
side against what no schedule can exceed: a side that finds its frame on the first look
polls once, one that does not polls twice, and which of the two happens is
the host's choice, not the code's — summed over both nodes the same commit
read 3.04–3.12 per round trip on an idle two-CPU box and 4.02 on a busy one
(a ``<= 3.3`` on that sum failed one full tier-1 run in two).

The ``faulty`` leg is the same program on ``process`` under perfbench's
``service_faulty`` plans (5 % drop, 5 % duplication, recovery on).  What the
reliability path adds is asserted as a difference from the clean leg of the
same session, and by name: no generator object per send attempt, no enum
descriptor per frame, no recovery tick that finds nothing to do, and the
same poll bound per side as the clean run.
"""

import json
from typing import Dict, NamedTuple

import pytest

from helpers import profiled

from repro.api import Experiment
from repro.runtime import worker as worker_mod
from repro.runtime.backend import BackendNode
from repro.runtime.checkpoint import NodeRecovery, RecoveryPlan
from repro.runtime.faults import FaultPlan, FaultRecord

#: shipped: 292 on both backends; the parent commit, whose re-entrant call
#: was a generator of its own, read 300.  Before the codec, the value
#: stream and the inbox became one pass each: 375; before the polled stream
#: transport: 649 on ``process`` (a selector built, filled and torn down
#: per wait)
MAX_CALLS_PER_ROUND_TRIP = 312
#: what the reliability path may add to a round trip.  Shipped: 30–33 over
#: three runs (the parent commit: 32); 72 when every send attempt seeded a
#: ``random.Random`` and every quiescent point ran the recovery tick.  The
#: margin covers ±1 of scheduling on either leg and the handful of resends a
#: ``test``-size run sees
MAX_FAULTY_EXTRA_CALLS = 43

#: leg -> ``Experiment.from_options`` keywords
LEGS = {
    "process": {"backend": "process"},
    "tcp": {"backend": "tcp"},
    "faulty": {
        "backend": "process",
        "faults": FaultPlan(drop_pct=0.05, dup_pct=0.05, seed=3),
        "recovery": RecoveryPlan(),
    },
    # perfbench's ``runtime.faults.inert_plan_overhead_pct`` pair, as a count
    "inert": {
        "backend": "process",
        "faults": FaultPlan(seed=3),
        "recovery": RecoveryPlan(enabled=False),
    },
}

_REAL_RUN = worker_mod.run_node
_REAL_TICK, _REAL_PONG = NodeRecovery.tick, NodeRecovery.pong
_REAL_WAIT = BackendNode.wait
_POLL = "~:<method 'poll' of 'select.poll' objects>"
_TICK = "test_request_cost.py:tick_entry"
_PONG = "test_request_cost.py:pong_entry"
_WAIT = "test_request_cost.py:wait_entry"
#: calls a blocking wait adds besides the generator frames it resumes:
#: the ``step`` of the wait event, ``wait``, its ``issuperset``, the
#: ``pump`` and ``poll`` that block, and the ``take_matching`` that then
#: finds what they brought in; less the ``len`` of the inbox that a
#: ``take_matching`` whose own ``pump`` brought the frame in makes
CALLS_PER_WAIT = 5


def tick_entry(self, serving):
    """A generator's profile row counts resumptions; this plain function in
    front of ``tick`` counts how often one is *built*."""
    return _REAL_TICK(self, serving)


def pong_entry(self, peer):
    """Likewise: one per ping taken out of an inbox."""
    return _REAL_PONG(self, peer)


def wait_entry(self, *args):
    """Counts, on the node, the generator frames the blocking wait will
    resume: the node's generator and every one it delegates to with
    ``yield from``."""
    gen = self.gen
    while gen is not None:
        self.resumed_after_waits += 1
        gen = gen.gi_yieldfrom
    return _REAL_WAIT(self, *args)


class Cost(NamedTuple):
    calls: float                # per round trip, both nodes
    net_calls: float            # the same, net of what blocking waits cost
    by_name: Dict[str, float]   # the same, per ``file:function``
    client_polls: float         # per request sent, on the nodes that send
    server_polls: float         # per request served, on the nodes that serve
    round_trips: int

    def total(self, name: str) -> int:
        """Calls of ``file:function`` in the whole run, all nodes."""
        return round(self.by_name.get(name, 0) * self.round_trips)


def _calls_per_round_trip(monkeypatch, **options) -> Cost:
    def profiled_run(node, transport, max_events):
        node.resumed_after_waits = 0
        report, calls, by_name, _ = profiled(
            _REAL_RUN, node, transport, max_events
        )
        evidence = {
            "calls": calls - by_name.get(_WAIT, 0),   # not the probe's own
            "by_name": by_name,
            "resumed": node.resumed_after_waits,
        }
        report.stats.faults.append(
            FaultRecord(node.node_id, "profile", json.dumps(evidence)).to_dict()
        )
        return report

    # fork inherits the patch, so every worker profiles itself
    monkeypatch.setattr(worker_mod, "run_node", profiled_run)
    monkeypatch.setattr(NodeRecovery, "tick", tick_entry)
    monkeypatch.setattr(NodeRecovery, "pong", pong_entry)
    monkeypatch.setattr(BackendNode, "wait", wait_entry)
    run = Experiment.from_options(
        "service_bank", force_distribution=True, **options
    ).run().distributed
    profiles = {
        f.node: json.loads(f.detail) for f in run.faults if f.kind == "profile"
    }
    assert len(profiles) == len(run.node_stats)
    round_trips = sum(s.requests_sent for s in run.node_stats)
    assert round_trips > 100
    by_name = {}
    for p in profiles.values():
        for key, ncalls in p["by_name"].items():
            by_name[key] = by_name.get(key, 0) + ncalls

    def polls_per(attr):
        nodes = [i for i, s in enumerate(run.node_stats) if getattr(s, attr)]
        return (
            sum(profiles[i]["by_name"].get(_POLL, 0) for i in nodes)
            / sum(getattr(run.node_stats[i], attr) for i in nodes)
        )

    calls = sum(p["calls"] for p in profiles.values())
    waited = sum(
        p["resumed"] + CALLS_PER_WAIT * p["by_name"].get(_WAIT, 0)
        for p in profiles.values()
    )
    return Cost(
        calls / round_trips,
        (calls - waited) / round_trips,
        {key: n / round_trips for key, n in by_name.items()},
        polls_per("requests_sent"),
        polls_per("requests_served"),
        round_trips,
    )


@pytest.fixture(scope="module")
def cost():
    """``cost[leg]``: measured on first use, once per session."""
    with pytest.MonkeyPatch.context() as mp:

        class Legs(dict):
            def __missing__(self, leg):
                self[leg] = _calls_per_round_trip(mp, **LEGS[leg])
                return self[leg]

        yield Legs()


@pytest.mark.parametrize("backend", ("process", "tcp"))
def test_calls_per_round_trip_are_bounded(cost, backend):
    assert cost[backend].calls <= MAX_CALLS_PER_ROUND_TRIP, cost[backend].calls


@pytest.mark.parametrize("backend", ("process", "tcp"))
def test_no_selector_is_built_per_request(cost, backend):
    """The poll set is persistent: a readiness wait registers nothing."""
    by_name = cost[backend].by_name
    assert "connection.py:wait" not in by_name
    assert "selectors.py:register" not in by_name
    assert by_name["worker.py:pump"] > 0


@pytest.mark.parametrize("backend", ("process", "tcp"))
def test_a_wake_up_costs_no_spare_poll(cost, backend):
    """Waiting for a frame is at most a miss on the first look, one
    blocking poll, and a scan that does not poll again (it did: 3 on the
    side that blocked) — 2 per request on either side whatever the
    scheduler does, 1 when the frame was already there.  Measured under
    load: 2.00 and 2.02; start-up and shutdown are the rest of the 0.1."""
    assert cost[backend].client_polls <= 2.1, cost[backend]._replace(by_name={})
    assert cost[backend].server_polls <= 2.1, cost[backend]._replace(by_name={})


@pytest.mark.parametrize("backend", ("process", "tcp"))
def test_a_stream_worker_takes_no_lock(cost, backend):
    """The node reads its own links: its inbox is the core's bare one."""
    by_name = cost[backend].by_name
    assert not [
        key for key in by_name
        if "notify" in key or "_thread.lock" in key or "_thread.RLock" in key
    ]


@pytest.mark.parametrize("backend", ("process", "tcp"))
def test_the_codec_is_one_pass(cost, backend):
    """A frame's kind is a lookup, not ``MessageKind(value)``; the value
    stream costs a call per list, not per value — 3 lists out and 3 in."""
    by_name = cost[backend].by_name
    assert by_name.get("enum.py:__call__", 0) < 0.1
    assert by_name["serial.py:_encode"] + by_name["serial.py:_decode"] <= 9


def test_tcp_costs_what_process_costs(cost):
    """One transport over two kinds of fd, as a number."""
    calls = {backend: cost[backend].calls for backend in ("process", "tcp")}
    assert calls["tcp"] <= 1.05 * calls["process"], calls


# ------------------------------------------------------- the reliability path
def test_an_inert_plan_costs_what_no_plan_costs(cost):
    """A plan that injects nothing installs no injector: no send decision,
    no dedup lookup, no crash check (it was ≈ 20 calls per round trip).
    Compared net of blocking waits, which follow the host's schedule: in
    eight sessions, idle and beside a CPU-bound job, the net count read the
    same on both legs to the last digit, where the totals differed by up
    to 0.85.  Between sessions it moved by 0.21, on both legs alike, with
    the calls of one JIT region; the ±0.5 leaves room for that."""
    inert, clean = cost["inert"], cost["process"]
    assert abs(inert.net_calls - clean.net_calls) <= 0.5, (
        inert.net_calls, clean.net_calls)
    assert not [key for key in inert.by_name if key.startswith("faults.py:")]


def test_an_inert_plan_polls_like_no_plan(cost):
    """The schedule-dependent half of the same comparison: polls per side
    per request, under the bound every leg is held to."""
    inert = cost["inert"]
    assert inert.client_polls <= 2.1, inert._replace(by_name={})
    assert inert.server_polls <= 2.1, inert._replace(by_name={})


def test_faulty_leg_adds_a_bounded_number_of_calls(cost):
    extra = cost["faulty"].calls - cost["process"].calls
    assert extra <= MAX_FAULTY_EXTRA_CALLS, (extra, cost["process"].calls)


def test_faulty_leg_polls_like_the_clean_one(cost):
    """A recovery plan costs no poll of its own: the tick that used to look
    for heartbeats at every quiescent point (a miss, hence a ``poll(0)``,
    per side per round trip: 2.59 / 2.32) is not entered when none came."""
    assert cost["faulty"].client_polls <= 2.1, cost["faulty"]._replace(by_name={})
    assert cost["faulty"].server_polls <= 2.1, cost["faulty"]._replace(by_name={})


def test_faulty_leg_decides_with_integers_and_plain_attributes(cost):
    by_name = cost["faulty"].by_name
    assert by_name["faults.py:on_send"] >= 2       # the plan is in force
    for absent in ("random.py:seed", "random.py:__init__", "enum.py:__get__"):
        assert absent not in by_name, (absent, by_name[absent])


def test_faulty_leg_ticks_only_when_something_is_due(cost):
    """A tick is built for a checkpoint barrier, for a heartbeat frame in
    the inbox, and once per node for its beat round — whatever the
    schedule, so no margin.  It was one per quiescent point: one per
    request on either side."""
    faulty = cost["faulty"]
    checkpoints = faulty.total("checkpoint.py:_snapshot_blob")
    heartbeats = 2 * faulty.total(_PONG)          # every ping is answered
    assert checkpoints > 0 and heartbeats > 0
    assert faulty.total(_TICK) <= checkpoints + heartbeats + 2, faulty.total(_TICK)
    assert faulty.total(_TICK) < faulty.round_trips / 4
    assert cost["process"].total(_TICK) == 0
