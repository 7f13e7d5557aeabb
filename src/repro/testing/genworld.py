"""Seeded generators for execution *worlds*: cluster topology, network,
partitioner and runtime-backend configurations.

A :class:`World` is the environment half of a fuzz scenario (the program
half comes from :mod:`repro.testing.genprog`): the partition, cluster and
backend sections of the :class:`~repro.api.config.ExperimentConfig` it
denotes, plus the runtime backends the oracle must agree across.  It adds
no field, default or validation of its own, so fuzz scenarios run through
exactly the same typed-config / registry / stage-cache plumbing as every
other experiment in the repo.  Sampling deliberately spans the degenerate
corners the fixed test grids never visit:

* 1-node "clusters" (distribution must collapse to sequential semantics),
* the paper's heterogeneous 2-node testbed shape,
* mid-size heterogeneous clusters with node speeds spread over ~8x,
* wide 16-node topologies where most nodes sit idle (plans use fewer
  partitions than there are machines),
* every registered network preset and partitioner, both granularities,
  and sync vs fire-and-forget remote writes.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Tuple

from repro.api.config import (
    BackendConfig,
    ClusterConfig,
    ExperimentConfig,
    PartitionConfig,
    WorkloadSpec,
)
from repro.errors import ConfigError
from repro.runtime.checkpoint import RecoveryPlan
from repro.runtime.faults import FaultPlan

__all__ = [
    "World",
    "generate_world",
    "degenerate_worlds",
    "SPEED_PALETTE",
]

#: CPU speeds (Hz) heterogeneous clusters draw from — 400 MHz handhelds up
#: to 3.2 GHz servers, the paper's pervasive-computing spread
SPEED_PALETTE = (400e6, 800e6, 1.0e9, 1.7e9, 2.4e9, 3.2e9)

#: the sections of an ExperimentConfig a world carries: all but the workload
_SECTIONS = {
    name: cls for name, cls in ExperimentConfig._NESTED.items()
    if name != "workload"
}


class World(NamedTuple):
    """One reproducible execution environment for a generated program."""

    partition: PartitionConfig
    cluster: ClusterConfig
    #: every backend setting but the name, which comes from ``backends``
    backend: BackendConfig
    #: runtime backends the oracle must agree across
    backends: Tuple[str, ...]

    def experiment_config(
        self, workload: str, backend: str
    ) -> ExperimentConfig:
        """The experiment this world denotes for one workload on one
        backend (``nparts`` against the cluster size is checked there)."""
        return ExperimentConfig(
            WorkloadSpec(workload), self.partition, self.cluster,
            self.backend.replace(name=backend),
        )

    def to_dict(self) -> dict:
        """``ExperimentConfig.to_dict()`` without ``workload``, plus
        ``backends``."""
        data = {name: getattr(self, name).to_dict() for name in _SECTIONS}
        data["backends"] = list(self.backends)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "World":
        missing = [k for k in (*_SECTIONS, "backends") if k not in data]
        if missing:
            raise ConfigError(f"world is missing {', '.join(missing)}")
        return cls(
            *(section.from_dict(data[name])
              for name, section in _SECTIONS.items()),
            tuple(data["backends"]),
        )


def _speeds(rng: random.Random, n: int, heterogeneous: bool) -> Tuple[float, ...]:
    if not heterogeneous:
        return (rng.choice(SPEED_PALETTE),) * n
    return tuple(rng.choice(SPEED_PALETTE) for _ in range(n))


def generate_world(
    rng: random.Random,
    include_thread: bool = True,
    include_process: bool = False,
    max_nodes: int = 16,
    include_faults: bool = False,
    include_recovery: bool = False,
    include_tcp: bool = False,
) -> World:
    """Sample one world.  Distribution is deliberately corner-heavy: about
    one scenario in five runs a degenerate topology (1 node, or a wide
    cluster with idle machines).

    With ``include_faults`` the world may additionally carry a seeded
    :class:`~repro.runtime.faults.FaultPlan` — transient loss (drop /
    duplication / delay, maskable by retry so outputs must stay identical)
    or a planned node crash (the run must degrade to a structured fault
    report, never hang) — and multi-node worlds may enable quorum
    replication.  Fault-free sampling is untouched, so existing corpora
    replay identically.

    With ``include_recovery`` (requires ``include_faults``) crash worlds
    may additionally carry a :class:`RecoveryPlan`, under which the crash
    must be *masked*: the run is held to byte-identical output against the
    fault-free execution, not just graceful degradation.  All recovery
    draws are gated behind the flag, so fault corpora generated before the
    recovery tier replay identically too."""
    from repro.partition.api import PARTITIONERS
    from repro.runtime.cluster import NETWORKS

    shape = rng.choice(
        ("paper", "flat", "flat", "hetero", "hetero", "single", "wide")
    )
    if shape == "single":
        nparts, nnodes, hetero = 1, 1, False
    elif shape == "paper":
        nparts, nnodes, hetero = 2, 2, True
    elif shape == "wide":
        nparts = rng.randint(2, 4)
        nnodes = min(max_nodes, rng.choice((8, 12, 16)))
        hetero = True
    else:
        nparts = rng.randint(2, 4)
        nnodes = nparts
        hetero = shape == "hetero"
    if shape == "paper":
        speeds: Tuple[float, ...] = (1.7e9, 800e6)
    else:
        speeds = _speeds(rng, nnodes, hetero)
    backends = ["sim"]
    if include_thread and rng.random() < 0.5 and nnodes <= 8:
        backends.append("thread")
    if include_process and nnodes <= 4 and rng.random() < 0.25:
        backends.append("process")
    # gated behind its own flag (and its own rng draw only when the flag is
    # on) so corpora generated before the tcp backend replay identically
    if include_tcp and nnodes <= 4 and rng.random() < 0.25:
        backends.append("tcp")
    faults = None
    replication = 1
    if include_faults and nnodes > 1:
        roll = rng.random()
        if roll < 0.25:
            # transient-only: maskable by retry, outputs must not change
            faults = FaultPlan(
                drop_pct=rng.choice((0.02, 0.05, 0.10)),
                dup_pct=rng.choice((0.0, 0.02, 0.05)),
                delay_s=rng.choice((0.0, 1e-5, 1e-4)),
                seed=rng.randrange(1 << 30),
            )
        elif roll < 0.45:
            # a planned crash: the run must degrade, not hang
            victim = rng.randrange(nnodes)
            faults = FaultPlan(
                crashes=((victim, rng.choice((2_000, 20_000, 200_000))),),
                seed=rng.randrange(1 << 30),
            )
        if nnodes > nparts and rng.random() < 0.4:
            replication = min(rng.choice((2, 3)), nnodes)
    recovery = None
    if (
        include_recovery
        and faults is not None
        and faults.crashes
        and rng.random() < 0.7
    ):
        # pair the crash with a recovery plan: the oracle then holds the
        # run to byte-identical output, not just graceful degradation
        recovery = RecoveryPlan(
            interval=rng.choice((4_000, 16_000, 60_000)),
            heartbeat_cycles=rng.choice((150_000, 300_000)),
        )
    # the VM execution tier is an explicit world axis: half the scenarios
    # run the cluster on a forced tier so the distributed checks exercise
    # the compiled/fast/reference engines, not just the ambient default
    engine = rng.choice(
        ("default", "default", "default", "compiled", "compiled", "fast")
    )
    # the draws below run in argument order (method, granularity, network,
    # mem_mb, async_writes): the order every seed's world was drawn in
    return World(
        PartitionConfig(
            method=rng.choice(PARTITIONERS.names()),
            nparts=nparts,
            granularity="object" if rng.random() < 0.25 else "class",
            replication=replication,
        ),
        ClusterConfig(
            network=rng.choice(NETWORKS.names()),
            speeds=speeds,
            mem_mb=rng.choice((64, 128, 256, 512)),
            faults=faults,
            recovery=recovery,
        ),
        BackendConfig(async_writes=rng.random() < 0.3, engine=engine),
        tuple(backends),
    )


def degenerate_worlds() -> Tuple[World, ...]:
    """The fixed corner cases every conformance run should cover at least
    once (tests parametrize over these directly)."""
    paper = ClusterConfig(speeds=(1.7e9, 800e6), mem_mb=512)
    return (
        # 1-node: distribution must collapse to sequential semantics
        World(
            PartitionConfig(nparts=1),
            ClusterConfig(speeds=(800e6,), mem_mb=512),
            BackendConfig(),
            ("sim",),
        ),
        # the paper's exact heterogeneous testbed
        World(PartitionConfig(), paper, BackendConfig(), ("sim", "thread")),
        # wide: 16 machines, 4 partitions, 12 idle nodes
        World(
            PartitionConfig(nparts=4),
            ClusterConfig(
                speeds=tuple(
                    SPEED_PALETTE[i % len(SPEED_PALETTE)] for i in range(16)
                ),
                mem_mb=512,
            ),
            BackendConfig(),
            ("sim",),
        ),
        # slow link + fire-and-forget writes
        World(
            PartitionConfig(),
            ClusterConfig(
                network="wireless_80211b", speeds=(400e6, 3.2e9), mem_mb=512
            ),
            BackendConfig(async_writes=True),
            ("sim",),
        ),
        # object granularity on a 3-way split
        World(
            PartitionConfig(method="kl", nparts=3, granularity="object"),
            ClusterConfig(speeds=(1.0e9, 2.4e9, 800e6), mem_mb=512),
            BackendConfig(),
            ("sim",),
        ),
        # the paper testbed forced onto the compiled tier end to end
        World(
            PartitionConfig(), paper, BackendConfig(engine="compiled"), ("sim",)
        ),
    )
