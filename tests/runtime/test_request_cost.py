"""What a request costs, as a count — the hardware-independent gate on the
message path (``MessageExchange.request`` to the wire and back).

``service_bank`` runs on ``process`` and on ``tcp`` with ``run_node`` under
cProfile inside every worker; the profile rides home in the node report.
Wall-clock evidence lives in perfbench (``run_s`` / ``rtt_p50_us`` @
``service_*``); this is the part of it that repeats exactly enough to
assert on: Python-level calls per round trip, summed over both nodes, VM
included.  The count moves by about ±1 with scheduling (whether a reply is
already there on the first look or only after a blocking wait).
"""

import cProfile
import json
import pstats

import pytest

from repro.api import Experiment
from repro.runtime import worker as worker_mod
from repro.runtime.faults import FaultRecord

#: shipped: 286 on both backends.  Before the codec, the value stream and
#: the inbox became one pass each: 375; before the polled stream transport:
#: 649 on ``process`` (a selector built, filled and torn down per wait)
MAX_CALLS_PER_ROUND_TRIP = 330

_REAL_RUN = worker_mod.run_node


def _calls_per_round_trip(monkeypatch, backend):
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
    profiles = [json.loads(f.detail) for f in run.faults if f.kind == "profile"]
    assert len(profiles) == len(run.node_stats)
    round_trips = sum(s.requests_sent for s in run.node_stats)
    assert round_trips > 100
    by_name = {}
    for p in profiles:
        for key, ncalls in p["by_name"].items():
            by_name[key] = by_name.get(key, 0) + ncalls
    per_round_trip = {key: n / round_trips for key, n in by_name.items()}
    return sum(p["calls"] for p in profiles) / round_trips, per_round_trip


@pytest.fixture(scope="module")
def cost():
    with pytest.MonkeyPatch.context() as mp:
        return {
            backend: _calls_per_round_trip(mp, backend)
            for backend in ("process", "tcp")
        }


@pytest.mark.parametrize("backend", ("process", "tcp"))
def test_calls_per_round_trip_are_bounded(cost, backend):
    per_round_trip, _ = cost[backend]
    assert per_round_trip <= MAX_CALLS_PER_ROUND_TRIP, per_round_trip


@pytest.mark.parametrize("backend", ("process", "tcp"))
def test_no_selector_is_built_per_request(cost, backend):
    """The poll set is persistent: a readiness wait registers nothing."""
    _, by_name = cost[backend]
    assert "connection.py:wait" not in by_name
    assert "selectors.py:register" not in by_name
    assert by_name["worker.py:pump"] > 0


@pytest.mark.parametrize("backend", ("process", "tcp"))
def test_a_wake_up_costs_no_spare_poll(cost, backend):
    """The client's side of a request is a miss on its first look, one
    blocking poll, and a scan that does not poll again (it did: 4.1 per
    round trip).  The server is usually preempted by the client it just
    woke, so by the time it looks the next request is there: one poll."""
    _, by_name = cost[backend]
    assert by_name["~:<method 'poll' of 'select.poll' objects>"] <= 3.3


@pytest.mark.parametrize("backend", ("process", "tcp"))
def test_a_stream_worker_takes_no_lock(cost, backend):
    """The node reads its own links: its inbox is the core's bare one."""
    _, by_name = cost[backend]
    assert not [
        key for key in by_name
        if "notify" in key or "_thread.lock" in key or "_thread.RLock" in key
    ]


@pytest.mark.parametrize("backend", ("process", "tcp"))
def test_the_codec_is_one_pass(cost, backend):
    """A frame's kind is a lookup, not ``MessageKind(value)``; the value
    stream costs a call per list, not per value — 3 lists out and 3 in."""
    _, by_name = cost[backend]
    assert by_name.get("enum.py:__call__", 0) < 0.1
    assert by_name["serial.py:_encode"] + by_name["serial.py:_decode"] <= 9


def test_tcp_costs_what_process_costs(cost):
    """One transport over two kinds of fd, as a number."""
    assert cost["tcp"][0] <= 1.05 * cost["process"][0], cost
