"""What a request costs, as a count — the hardware-independent gate on the
message path (``MessageExchange.request`` to the wire and back).

``service_bank`` runs on ``process`` and on ``tcp`` with ``run_node`` under
cProfile inside every worker; the profile rides home in the node report.
Wall-clock evidence lives in perfbench (``run_s`` / ``rtt_p50_us`` @
``service_*``); this is the part of it that repeats exactly enough to
assert on: Python-level calls per round trip, summed over both nodes, VM
included.  The count moves by about ±1 with scheduling (whether a reply is
already there on the first look or only after a blocking wait).

The rule for every count gate in the suite: what it asserts is
schedule-independent, or its ceiling carries a margin measured under load.
Calls per round trip have the margin (286 shipped, 330 allowed, 299 read
with both CPUs of the box kept busy).  Polls are asserted per side against
what no schedule can exceed: a side that finds its frame on the first look
polls once, one that does not polls twice, and which of the two happens is
the host's choice, not the code's — summed over both nodes the same commit
read 3.04–3.12 per round trip on an idle two-CPU box and 4.02 on a busy one
(a ``<= 3.3`` on that sum failed one full tier-1 run in two).
"""

import cProfile
import json
import pstats
from typing import Dict, NamedTuple

import pytest

from repro.api import Experiment
from repro.runtime import worker as worker_mod
from repro.runtime.faults import FaultRecord

#: shipped: 286 on both backends.  Before the codec, the value stream and
#: the inbox became one pass each: 375; before the polled stream transport:
#: 649 on ``process`` (a selector built, filled and torn down per wait)
MAX_CALLS_PER_ROUND_TRIP = 330

_REAL_RUN = worker_mod.run_node
_POLL = "~:<method 'poll' of 'select.poll' objects>"


class Cost(NamedTuple):
    calls: float                # per round trip, both nodes
    by_name: Dict[str, float]   # the same, per ``file:function``
    client_polls: float         # per request sent, on the nodes that send
    server_polls: float         # per request served, on the nodes that serve


def _calls_per_round_trip(monkeypatch, backend) -> Cost:
    def profiled_run(node, transport, max_events):
        profile = cProfile.Profile()
        report = profile.runcall(_REAL_RUN, node, transport, max_events)
        stats = pstats.Stats(profile)
        by_name = {}
        for (path, _, name), (_, ncalls, *_rest) in stats.stats.items():
            key = f"{path.rsplit('/', 1)[-1]}:{name}"
            by_name[key] = by_name.get(key, 0) + ncalls
        evidence = {"calls": stats.total_calls, "by_name": by_name}
        report.stats.faults.append(
            FaultRecord(node.node_id, "profile", json.dumps(evidence)).to_dict()
        )
        return report

    # fork inherits the patch, so every worker profiles itself
    monkeypatch.setattr(worker_mod, "run_node", profiled_run)
    run = Experiment.from_options(
        "service_bank", backend=backend, force_distribution=True
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

    return Cost(
        sum(p["calls"] for p in profiles.values()) / round_trips,
        {key: n / round_trips for key, n in by_name.items()},
        polls_per("requests_sent"),
        polls_per("requests_served"),
    )


@pytest.fixture(scope="module")
def cost():
    with pytest.MonkeyPatch.context() as mp:
        return {
            backend: _calls_per_round_trip(mp, backend)
            for backend in ("process", "tcp")
        }


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
    calls = {backend: c.calls for backend, c in cost.items()}
    assert calls["tcp"] <= 1.05 * calls["process"], calls
