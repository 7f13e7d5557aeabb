"""Typed experiment configuration: frozen dataclasses with validation and
dict/JSON round-tripping.

Every knob the pipeline, sweep and CLI used to pass as ad-hoc kwargs lives
in exactly one place here:

* :class:`WorkloadSpec`     — which program, at which input size;
* :class:`PartitionConfig`  — partitioner, k, granularity, main pinning;
* :class:`ClusterConfig`    — node count and network preset;
* :class:`BackendConfig`    — runtime backend and execution limits;
* :class:`ExperimentConfig` — the composition of all four.

Validation happens eagerly in ``__post_init__``: unknown plugin names
(workload, partitioner, backend, network) raise
:class:`~repro.errors.UnknownPluginError` with a did-you-mean suggestion,
bad field values raise :class:`~repro.errors.ConfigError`.  Round-tripping
is lossless: ``Cfg.from_dict(cfg.to_dict()) == cfg`` and likewise via JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, ClassVar, Dict, Optional

from repro.errors import ConfigError

__all__ = [
    "WorkloadSpec",
    "PartitionConfig",
    "ClusterConfig",
    "BackendConfig",
    "ExperimentConfig",
]

#: workload input sizes the generators understand
SIZES = ("test", "bench", "large")

#: distribution granularities the planner understands
GRANULARITIES = ("class", "object")


@dataclass(frozen=True)
class _Config:
    """Shared dict/JSON round-trip machinery for the flat config types."""

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "_Config":
        if not isinstance(data, dict):
            raise ConfigError(
                f"{cls.__name__}.from_dict needs a dict, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(
                f"unknown {cls.__name__} field(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        return cls(**data)

    def to_json(self, **dumps_kwargs: Any) -> str:
        dumps_kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "_Config":
        return cls.from_dict(json.loads(text))

    def replace(self, **changes: Any) -> "_Config":
        """A modified copy (configs are frozen)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class WorkloadSpec(_Config):
    """Which benchmark program to run, at which input size."""

    name: str
    size: str = "test"

    def __post_init__(self) -> None:
        from repro.workloads import WORKLOADS

        WORKLOADS.get(self.name)  # UnknownPluginError on bad names
        if self.size not in SIZES:
            raise ConfigError(
                f"unknown workload size {self.size!r}; pick one of {SIZES}"
            )

    def source(self) -> str:
        """The MJ source text this spec denotes."""
        from repro.workloads import WORKLOADS

        return WORKLOADS.get(self.name).source(self.size)


@dataclass(frozen=True)
class PartitionConfig(_Config):
    """How the dependence graphs are split into placement partitions."""

    method: str = "multilevel"
    nparts: int = 2
    granularity: str = "class"
    #: pin ``main`` to the slowest machine (the paper's "computation node")
    pin_main: bool = True
    #: copies per replication-safe dependent object (1 = no replication;
    #: >= 2 enables the quorum protocol of repro.distgen.quorum)
    replication: int = 1
    #: service deployment: force a genuine distribution even when the
    #: makespan objective would co-locate everything (a request-serving
    #: workload wants the service on a remote node, like the paper's
    #: service/computation testbed split)
    force_distribution: bool = False

    def __post_init__(self) -> None:
        from repro.partition.api import PARTITIONERS

        PARTITIONERS.get(self.method)
        if self.nparts < 1:
            raise ConfigError(f"nparts must be >= 1, got {self.nparts}")
        if self.granularity not in GRANULARITIES:
            raise ConfigError(
                f"unknown granularity {self.granularity!r}; "
                f"pick one of {GRANULARITIES}"
            )
        if self.replication < 1:
            raise ConfigError(
                f"replication must be >= 1, got {self.replication}"
            )


@dataclass(frozen=True)
class ClusterConfig(_Config):
    """The machines and the link between them.

    ``nodes is None`` means "as many nodes as the partition config needs":
    the paper's heterogeneous two-node testbed for k == 2, a homogeneous
    cluster otherwise — exactly the sweep's historical behavior.

    ``speeds`` makes the cluster explicitly heterogeneous: one ``cpu_hz``
    per node (the scenario generator's degenerate 1-node and wide 16-node
    topologies use this).  When given, it fixes the node count; ``nodes``
    may be omitted or must agree.  ``mem_mb`` bounds every node's memory.
    """

    nodes: Optional[int] = None
    network: str = "ethernet_100m"
    #: explicit per-node CPU speeds in Hz (heterogeneous clusters); None
    #: keeps the historical paper-testbed/homogeneous shapes
    speeds: Optional[tuple] = None
    #: per-node memory bound in MB (None = the NodeSpec default)
    mem_mb: Optional[int] = None
    #: seeded fault plan injected at runtime (None = fault-free); accepts a
    #: FaultPlan or its dict form and normalizes to the typed plan
    faults: Optional[Any] = None
    #: recovery plan: checkpointing + heartbeat leases + object migration
    #: (None = degradation only); accepts a RecoveryPlan or its dict form
    recovery: Optional[Any] = None
    #: ``host:port`` endpoint per node for socket transports (the tcp
    #: backend); None = localhost with OS-assigned ephemeral ports
    roster: Optional[tuple] = None

    def __post_init__(self) -> None:
        from repro.runtime.checkpoint import RecoveryPlan
        from repro.runtime.cluster import NETWORKS
        from repro.runtime.faults import FaultPlan

        NETWORKS.get(self.network)
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            if not isinstance(self.faults, dict):
                raise ConfigError(
                    "ClusterConfig.faults must be a FaultPlan or dict, "
                    f"got {type(self.faults).__name__}"
                )
            object.__setattr__(self, "faults", FaultPlan.from_dict(self.faults))
        if self.recovery is not None and not isinstance(
            self.recovery, RecoveryPlan
        ):
            if not isinstance(self.recovery, dict):
                raise ConfigError(
                    "ClusterConfig.recovery must be a RecoveryPlan or dict, "
                    f"got {type(self.recovery).__name__}"
                )
            object.__setattr__(
                self, "recovery", RecoveryPlan.from_dict(self.recovery)
            )
        if self.speeds is not None:
            # normalize the JSON round-trip (lists) to the hashable tuple
            object.__setattr__(
                self, "speeds", tuple(float(s) for s in self.speeds)
            )
            if not self.speeds:
                raise ConfigError("speeds must name at least one node")
            if any(s <= 0 for s in self.speeds):
                raise ConfigError(f"speeds must be positive, got {self.speeds}")
            if self.nodes is not None and self.nodes != len(self.speeds):
                raise ConfigError(
                    f"nodes={self.nodes} disagrees with "
                    f"{len(self.speeds)} speeds"
                )
        if self.nodes is not None and self.nodes < 1:
            raise ConfigError(f"cluster needs >= 1 node, got {self.nodes}")
        if self.mem_mb is not None and self.mem_mb < 1:
            raise ConfigError(f"mem_mb must be >= 1, got {self.mem_mb}")
        if self.roster is not None:
            # normalize the JSON round-trip (lists) to the hashable tuple
            object.__setattr__(
                self, "roster", tuple(str(e) for e in self.roster)
            )
            for entry in self.roster:
                host, sep, port = entry.rpartition(":")
                if not sep or not host or not port.isdigit():
                    raise ConfigError(
                        f"roster entry {entry!r} is not host:port"
                    )
            pinned = self.size
            if pinned is not None and len(self.roster) != pinned:
                raise ConfigError(
                    f"roster names {len(self.roster)} endpoints for "
                    f"{pinned} nodes"
                )

    def to_dict(self) -> Dict[str, Any]:
        d = super().to_dict()
        if self.faults is not None:
            d["faults"] = self.faults.to_dict()
        if self.recovery is not None:
            d["recovery"] = self.recovery.to_dict()
        return d

    @property
    def size(self) -> Optional[int]:
        """Node count when the config pins one (``nodes`` or ``speeds``)."""
        if self.speeds is not None:
            return len(self.speeds)
        return self.nodes

    def build(self, nparts: int = 2):
        """Materialize the :class:`~repro.runtime.cluster.ClusterSpec`."""
        from repro.runtime.cluster import (
            MB,
            ClusterSpec,
            NETWORKS,
            NodeSpec,
            homogeneous,
            paper_testbed,
        )

        link = NETWORKS.get(self.network)()
        roster = list(self.roster) if self.roster is not None else None
        if self.speeds is not None:
            mem = (self.mem_mb if self.mem_mb is not None else 512) * MB
            return ClusterSpec(
                nodes=[
                    NodeSpec(f"node{i}", hz, mem_bytes=mem)
                    for i, hz in enumerate(self.speeds)
                ],
                link=link,
                roster=roster,
            )
        size = self.nodes if self.nodes is not None else nparts
        if size == 2:
            base = paper_testbed()
            cluster = ClusterSpec(nodes=list(base.nodes), link=link,
                                  roster=roster)
        else:
            cluster = homogeneous(max(size, 1), link=link)
            if roster is not None:
                # re-construct so ClusterSpec validates roster vs node count
                cluster = ClusterSpec(
                    nodes=cluster.nodes, link=link, roster=roster
                )
        if self.mem_mb is not None:
            from dataclasses import replace as _replace

            cluster.nodes = [
                _replace(n, mem_bytes=self.mem_mb * MB) for n in cluster.nodes
            ]
        return cluster


def crash_plan(spec: Optional[str]):
    """The :class:`~repro.runtime.faults.FaultPlan` of one ``NODE:CYCLE``
    crash, the form ``--crash`` and the sweep grid take (None for "")."""
    if not spec:
        return None
    from repro.runtime.faults import FaultPlan

    node_s, _, cycle_s = spec.partition(":")
    try:
        crash = (int(node_s), int(cycle_s))
    except ValueError:
        raise ConfigError(f"crash must be NODE:CYCLE, got {spec!r}") from None
    return FaultPlan(crashes=(crash,))


def roster_endpoints(spec: Optional[str]) -> Optional[tuple]:
    """A comma-separated ``host:port`` list, the form ``--roster`` and the
    sweep grid take, as :attr:`ClusterConfig.roster` (None for "")."""
    return tuple(e.strip() for e in spec.split(",")) if spec else None


@dataclass(frozen=True)
class BackendConfig(_Config):
    """Which runtime executes the distributed plan, and its limits."""

    name: str = "sim"
    #: paper §4.2: fire-and-forget remote writes (FIFO links keep
    #: read-after-write consistent)
    async_writes: bool = False
    #: scheduler/driver event bound (global for the simulator, per node for
    #: wall-clock backends)
    max_events: int = 200_000_000
    #: VM execution tier for every node machine: ``"default"`` inherits the
    #: ambient engine (``REPRO_VM_ENGINE``, normally the compiled tier), or
    #: pin one of ``reference`` / ``fast`` / ``compiled`` explicitly — all
    #: three are bit-identical in cycles, NodeStats and output
    engine: str = "default"

    def __post_init__(self) -> None:
        from repro.runtime.backend import BACKENDS
        from repro.vm.interpreter import ENGINES

        BACKENDS.get(self.name)
        if self.max_events < 1:
            raise ConfigError(f"max_events must be >= 1, got {self.max_events}")
        if self.engine != "default" and self.engine not in ENGINES:
            raise ConfigError(
                f"unknown vm engine {self.engine!r}; pick one of "
                f"{('default',) + ENGINES}"
            )

    @property
    def is_virtual(self) -> bool:
        """True for the deterministic discrete-event simulator — virtual
        times, memoizable executions."""
        return self.name == "sim"


@dataclass(frozen=True)
class ExperimentConfig(_Config):
    """One fully specified experiment: workload × partition × cluster ×
    backend."""

    workload: WorkloadSpec
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    backend: BackendConfig = field(default_factory=BackendConfig)

    #: nested field name -> config class, used by the round-trip machinery
    _NESTED: ClassVar[Dict[str, type]] = {
        "workload": WorkloadSpec,
        "partition": PartitionConfig,
        "cluster": ClusterConfig,
        "backend": BackendConfig,
    }

    def __post_init__(self) -> None:
        for name, cls in self._NESTED.items():
            value = getattr(self, name)
            if not isinstance(value, cls):
                raise ConfigError(
                    f"ExperimentConfig.{name} must be a {cls.__name__}, "
                    f"got {type(value).__name__}"
                )
        if (
            self.cluster.size is not None
            and self.cluster.size < self.partition.nparts
        ):
            raise ConfigError(
                f"plan needs {self.partition.nparts} nodes, cluster config "
                f"has {self.cluster.size}"
            )

    @classmethod
    def from_options(
        cls,
        workload: str,
        size: str = "test",
        method: str = "multilevel",
        nparts: int = 2,
        granularity: str = "class",
        network: str = "ethernet_100m",
        backend: str = "sim",
        nodes: Optional[int] = None,
        pin_main: bool = True,
        async_writes: bool = False,
        faults: Optional[Any] = None,
        recovery: Optional[Any] = None,
        replication: int = 1,
        engine: str = "default",
        roster: Optional[tuple] = None,
        force_distribution: bool = False,
    ) -> "ExperimentConfig":
        """Flat-kwargs convenience constructor — the shape the CLI and the
        sweep grid speak."""
        return cls(
            workload=WorkloadSpec(name=workload, size=size),
            partition=PartitionConfig(
                method=method, nparts=nparts, granularity=granularity,
                pin_main=pin_main, replication=replication,
                force_distribution=force_distribution,
            ),
            cluster=ClusterConfig(
                nodes=nodes, network=network, faults=faults,
                recovery=recovery, roster=roster,
            ),
            backend=BackendConfig(
                name=backend, async_writes=async_writes, engine=engine
            ),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {name: getattr(self, name).to_dict() for name in self._NESTED}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError(
                f"ExperimentConfig.from_dict needs a dict, "
                f"got {type(data).__name__}"
            )
        unknown = sorted(set(data) - set(cls._NESTED))
        if unknown:
            raise ConfigError(
                f"unknown ExperimentConfig field(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(cls._NESTED))})"
            )
        if "workload" not in data:
            raise ConfigError("ExperimentConfig needs a 'workload' section")
        kwargs = {
            name: nested_cls.from_dict(data[name])
            for name, nested_cls in cls._NESTED.items()
            if name in data
        }
        return cls(**kwargs)

    def label(self) -> str:
        """Compact human identifier (sweep tables, event streams)."""
        return (
            f"{self.workload.name}/{self.partition.method}"
            f"/k{self.partition.nparts}/{self.cluster.network}"
            f"/{self.backend.name}"
        )
