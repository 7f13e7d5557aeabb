"""The recovery early-out and the plain-attribute checks skip only no-ops:
``sim`` is the proof.

``services.request`` / ``serve_forever`` enter ``NodeRecovery.tick`` only
when ``due`` says a heartbeat is in the inbox, a beat round is due, a lease
verdict is possible or the checkpoint barrier is crossed, and ``step``
compares a node's planned crash cycle as a plain attribute.  On virtual
time every one of those decisions is deterministic, so for plans that roll
no dice — no plan, a crash-only plan, recovery with 5 000-cycle beats and
16 000-cycle barriers on two and on three nodes — a run must land on the
timeline it had before, to the last bit of every clock.

``PARENT`` holds that timeline as literals, captured from the commit before
the early-out existed (PR 22) — not as a comparison with a kept copy of the
old ``tick``.  They move only when what a run *charges* moves (a VM cost, a
marshalling constant, a recovery default): regenerate them then, from the
parent of that change.  Floats are ``float.hex()`` strings.  The five crash +
recovery rows were regenerated when ``intake`` stopped deduplicating
heartbeats (a crash plan's injector had kept only each peer's first pong);
their ``lease_expired`` verdicts stay, because ``FAST``'s 20 000-cycle lease
is shorter than the simulated link's round trip.

Plans with ``drop_pct`` / ``dup_pct`` / ``delay_s`` are not here: their fault
schedule changed with the decision engine (see ``test_fault_decisions.py``).
"""

import pytest

from repro.api import Experiment
from repro.runtime.checkpoint import RecoveryPlan
from repro.runtime.faults import FaultPlan

FAST = RecoveryPlan(interval=16_000, heartbeat_cycles=5_000, lease_cycles=20_000)


def _crash(node, cycle):
    return FaultPlan(crashes=((node, cycle),))


#: scenario -> ``Experiment.from_options`` keywords on top of the program's
RUNS = {
    "service_bank/none": {},
    "service_bank/rec": {"recovery": FAST},
    "service_bank/crash0@30000+rec2": {
        "faults": _crash(0, 30_000), "recovery": FAST,
    },
    "service_bank/crash1@30000+rec3": {
        "faults": _crash(1, 30_000), "recovery": FAST, "nodes": 3,
    },
    "service_bank/crash0@200000+rec3": {
        "faults": _crash(0, 200_000), "recovery": FAST, "nodes": 3,
    },
    "service_bank/crash0@200000": {"faults": _crash(0, 200_000)},
    "compress/none": {},
    "compress/rec": {"recovery": FAST},
    "compress/crash0@200000+rec2": {
        "faults": _crash(0, 200_000), "recovery": FAST,
    },
    "moldyn/none": {},
    "moldyn/rec": {"recovery": FAST},
    "moldyn/crash0@30000+rec2": {"faults": _crash(0, 30_000), "recovery": FAST},
}

#: scenario -> (makespan_s, checkpoint_overhead_cycles, recovery_cycles,
#: [(clock_s, messages_sent, bytes_sent) per node], the client's latency
#: (p50, p95, p99) in ms, [(node, at_cycle, time_s) per RECOVERED record],
#: [(node, kind, at_cycle, time_s) per fault record])
PARENT = {
    "service_bank/none": (
        "0x1.165fc670c9d78p-2", 0, 0,
        [("0x1.165fc670c9d78p-2", 1089, 42362),
         ("0x1.163fc4af655a6p-2", 1090, 64192)],
        ("0x1.fec6956e85122p-3", "0x1.ff124c0cf92c0p-3", "0x1.01568f7eb3897p-2"),
        [],
        [],
    ),
    "service_bank/rec": (
        "0x1.22ed2d9a72064p-2", 1004029, 0,
        [("0x1.22ed2d9a72064p-2", 16712, 931503),
         ("0x1.22cd2bd90d892p-2", 15453, 408904)],
        ("0x1.01608b8d99d42p-2", "0x1.476bf73ad02c4p-2", "0x1.47c27927a4ce4p-2"),
        [],
        [],
    ),
    "service_bank/crash0@30000+rec2": (
        "0x1.f2065b7d179c8p-10", 1127, 1080,
        [("0x1.b5148edd580fbp-10", 56, 1884),
         ("0x1.f2065b7d179c8p-10", 54, 1569)],
        ("0x1.f75104d54cd00p-15", "0x1.f75104d554a00p-15", "0x1.cd5f99c38af80p-14"),
        [(0, 26613, "0x1.d5931dc2ccdd6p-10")],
        [(0, "crash", 30099, "0x1.b5148edd580fbp-10")],
    ),
    "service_bank/crash1@30000+rec3": (
        "0x1.e3a9b42a24cfdp-4", 428438, 600,
        [("0x1.e3298bfbb276ap-4", 6037, 163725),
         ("0x1.a13fd62ecb44dp-10", 59, 1629),
         ("0x1.e3a9b42a24cfdp-4", 6489, 393886)],
        ("0x1.020bc382a123ap-2", "0x1.4f1bac2df0c36p-2", "0x1.5193b3a68b197p-2"),
        [(1, 27776, "0x1.e1d41af4cdf31p-10")],
        [(2, "lease_expired", 5268, "0x1.017245eda0011p-12"),
         (1, "crash", 30202, "0x1.a13fd62ecb44dp-10"),
         (1, "lease_expired", 8280, "0x1.013737a4b1fb9p-11")],
    ),
    "service_bank/crash0@200000+rec3": (
        "0x1.3d0152bb63c3ap-8", 18298, 0,
        [("0x1.34e54f7a91966p-8", 461, 11798),
         ("0x1.3d0152bb63c3ap-8", 296, 7808),
         ("0x1.3ce7d261b729fp-8", 230, 6432)],
        ("0x1.038433d6c7217p-2", "0x1.04c1ebc83a95bp-2", "0x1.04c1ebc83a95bp-2"),
        [],
        [(0, "crash", 200284, "0x1.34e54f7a91966p-8"),
         (2, "lease_expired", 5268, "0x1.017245eda0011p-12"),
         (1, "lease_expired", 8280, "0x1.013737a4b1fb9p-11")],
    ),
    "service_bank/crash0@200000": (
        "0x1.7a5730a012933p-5", 0, 0,
        [("0x1.7956b7ff41f8ap-5", 185, 7443),
         ("0x1.7a5730a012933p-5", 185, 10930)],
        ("0x1.fec6956e85122p-3", "0x1.01568f7eb3897p-2", "0x1.01568f7eb38abp-2"),
        [],
        [(0, "crash", 200198, "0x1.7956b7ff41f8ap-5"),
         (1, "peer_lost", 157240, "0x1.7a5730a012933p-5")],
    ),
    "compress/none": (
        "0x1.5d1d8c112a032p-10", 0, 0,
        [("0x1.5d1d8c112a032p-10", 4, 162),
         ("0x1.3d1bcaacace7ap-10", 5, 254)],
        ("0x1.11027171dab64p-2", "0x1.61c51fa52cc09p-2", "0x1.61c51fa52cc09p-2"),
        [],
        [],
    ),
    "compress/rec": (
        "0x1.9f1708ab1a455p-6", 548798, 0,
        [("0x1.9f1708ab1a455p-6", 75, 534179),
         ("0x1.9d16ec94d273ap-6", 27, 782)],
        ("0x1.63b3eba042760p-2", "0x1.200fb7e90ff96p+4", "0x1.200fb7e90ff96p+4"),
        [],
        [],
    ),
    "compress/crash0@200000+rec2": (
        "0x1.0e42a2254298ep-10", 4662, 960,
        [("0x1.023206e0c24a9p-11", 14, 3457),
         ("0x1.0e42a2254298ep-10", 10, 308)],
        ("0x1.7f564302b40fbp-3", "0x1.1ae41a94a434cp-1", "0x1.1ae41a94a434cp-1"),
        [(0, 12306, "0x1.42502f14e8edcp-11")],
        [(0, "crash", 208838, "0x1.023206e0c24a9p-11")],
    ),
    "moldyn/none": (
        "0x1.ea3f30234002ap-11", 0, 0,
        [("0x1.ea3f30234002ap-11", 3, 143),
         ("0x1.aa3bad5a45cbbp-11", 4, 211)],
        ("0x1.1e4ef613fa955p-2", "0x1.1e4ef613fa956p-2", "0x1.1e4ef613fa956p-2"),
        [],
        [],
    ),
    "moldyn/rec": (
        "0x1.024220c8892cfp-10", 10724, 0,
        [("0x1.024220c8892cfp-10", 29, 8351),
         ("0x1.c480bec81822ep-11", 18, 547)],
        ("0x1.203a7b32b2e74p-2", "0x1.4dc779a6b50aep-2", "0x1.4dc779a6b50aep-2"),
        [],
        [],
    ),
    "moldyn/crash0@30000+rec2": (
        "0x1.5caec3632d62ap-11", 0, 600,
        [("0x1.b070a32dc48bdp-12", 10, 273),
         ("0x1.5caec3632d62ap-11", 10, 317)],
        ("0x1.051a849ab9088p-2", "0x1.63622c842bb27p-2", "0x1.63622c842bb27p-2"),
        [(0, 4956, "0x1.185679cb08e92p-11")],
        [(0, "crash", 58485, "0x1.b070a32dc48bdp-12")],
    ),
}


def _run(program, **options):
    if program == "service_bank":
        options.update(size="bench", force_distribution=True)
    # a planned crash fires at the first cost event at or past its cycle, and
    # the reference engine charges per instruction where the others charge
    # per block: pin the engine the literals were captured on
    return Experiment.from_options(
        program, backend="sim", engine="compiled", **options
    ).run().distributed


def _fingerprint(run):
    (client,) = [s for s in run.node_stats if s.latency_count]
    return (
        run.makespan_s.hex(),
        run.checkpoint_overhead_cycles,
        run.recovery_cycles,
        [(s.clock_s.hex(), s.messages_sent, s.bytes_sent) for s in run.node_stats],
        (
            client.latency_p50_ms.hex(),
            client.latency_p95_ms.hex(),
            client.latency_p99_ms.hex(),
        ),
        [(r.node, r.at_cycle, r.time_s.hex()) for r in run.recovered],
        [(f.node, f.kind, f.at_cycle, f.time_s.hex()) for f in run.faults],
    )


@pytest.mark.parametrize("scenario", sorted(RUNS))
def test_virtual_timeline_is_the_parents_to_the_last_bit(scenario):
    program = scenario.split("/")[0]
    assert _fingerprint(_run(program, **RUNS[scenario])) == PARENT[scenario]


def test_the_scenarios_exercise_what_they_claim():
    """Checkpoints, takeovers, lease verdicts and degraded runs are all in
    the table — identity over runs in which nothing happens proves little."""
    assert sum(1 for v in PARENT.values() if v[1]) >= 7       # checkpoints
    assert sum(1 for v in PARENT.values() if v[5]) >= 4       # RECOVERED
    kinds = {f[1] for v in PARENT.values() for f in v[6]}
    assert kinds == {"crash", "lease_expired", "peer_lost"}
    assert max(sum(n[1] for n in v[3]) for v in PARENT.values()) > 30_000


def test_a_crash_that_never_fires_indicts_no_live_peer():
    """Four nodes under a crash plan that never fires: every ping is
    answered, so no lease runs out.  While dedup kept only each peer's first
    pong, this run declared nodes 1, 2 and 3 dead (four ``lease_expired``
    verdicts against live peers)."""
    heard = RecoveryPlan(interval=16_000, heartbeat_cycles=50_000, lease_cycles=100_000)
    run = _run("service_bank", faults=_crash(0, 10**12), recovery=heard, nodes=4)
    assert run.faults == []
    assert run.checkpoint_overhead_cycles > 0


@pytest.mark.parametrize(
    "program",
    ("service_bank", "crypt", "heapsort", "moldyn", "search", "compress"),
)
def test_an_inert_plan_is_no_plan(program):
    """A plan that injects nothing installs no injector, so under recovery
    it runs the fault-free timeline — the one ``PARENT`` holds for *no*
    plan.  (Before, it did not: the installed injector's dedup also
    discarded every HEARTBEAT pong after a peer's first — pongs carry
    ``req_id`` 1 — so pings went unanswered and, on three nodes, an empty
    plan produced ``lease_expired`` verdicts against live peers.)"""
    inert = _fingerprint(
        _run(program, faults=FaultPlan(seed=5, max_retries=2), recovery=FAST)
    )
    assert inert == _fingerprint(_run(program, recovery=FAST))
    if f"{program}/rec" in PARENT:
        assert inert == PARENT[f"{program}/rec"]
