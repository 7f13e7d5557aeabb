"""Distribution plans: the offline output of analysis + partitioning.

"To generate communication, we generate partitions off-line for 1, 2, ...
nodes.  This is a form of off-line rather than runtime specialization."
(paper §4.2) — :func:`build_plans` produces exactly that sequence.

A plan fixes, for a given node count: the home partition of every class
(class granularity — what the paper's evaluation uses: "currently we use the
class relation graph partitioning to distribute the program") or of every
allocation site (object granularity over the ODG), the dependent-class set,
and where ``main`` starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.acyclic import acyclic
from repro.analysis.class_relations import build_crg
from repro.analysis.object_set import compute_object_set
from repro.analysis.odg import build_odg
from repro.analysis.resources import ResourceModel, UNIFORM, _class_cpu
from repro.analysis.rta import rapid_type_analysis
from repro.bytecode.model import BProgram
from repro.distgen.classify import classify_dependent_crg, classify_dependent_odg
from repro.errors import AnalysisError
from repro.graph.wgraph import pairwise_sum
from repro.partition.api import part_graph, part_graph_tolerances


@dataclass
class DistributionPlan:
    """Everything the rewriter and the runtime need for one node count."""

    nparts: int
    granularity: str                      # 'class' | 'object'
    class_home: Dict[str, int]           # class -> partition
    site_home: Dict[Tuple[str, int], int] = field(default_factory=dict)
    dependent_classes: Set[str] = field(default_factory=set)
    main_partition: int = 0
    edgecut: float = 0.0
    method: str = "multilevel"
    #: the chosen placement vector over ``order`` (the dependence-graph
    #: node names) — lets adaptive repartitioning seed the next plan with
    #: this plan as a baseline candidate
    parts: Optional[List[int]] = None
    order: Optional[List[str]] = None
    #: the static makespan estimate the placement was chosen by
    est_cost: float = 0.0
    #: estimated cost of the first ``extra_candidates`` placement under
    #: *this* plan's weights — what adaptive repartitioning reports as the
    #: baseline prediction without re-running the analysis
    baseline_cost: Optional[float] = None

    def home_of_site(self, method_q: str, index: int, class_name: str) -> int:
        if self.granularity == "object":
            home = self.site_home.get((method_q, index))
            if home is not None:
                return home
        return self.class_home.get(class_name, self.main_partition)

    def rewritten_classes(self) -> Set[str]:
        """Classes whose allocations/accesses the rewriter must transform."""
        if self.nparts <= 1:
            return set()
        return set(self.dependent_classes)


#: estimated communication cycles per static dependence-volume unit on a
#: cut edge (latency-dominated small messages; calibrated against the
#: simulated 100 Mb Ethernet and the static loop-frequency scale)
COMM_CYCLES_PER_VOLUME = 20.0


def estimate_plan_cost(
    graph,
    parts: List[int],
    nparts: int,
    tpwgts: Optional[List[float]],
) -> float:
    """Static makespan estimate for a candidate placement of a *sequential*
    program: every piece of work runs serially on its home node, so the
    estimate is Σ cpu(node i)/relative_speed(home(i)) plus a communication
    charge for every dependence edge crossing the cut.  This is the cost
    model that lets offline specialization pick between balance-tight and
    balance-loose partitions (paper §1: "study their interaction")."""
    if tpwgts is None:
        rel = [1.0] * nparts
    else:
        top = max(tpwgts)
        rel = [max(t, 1e-9) / top for t in tpwgts]
    vw = graph.vwgts()
    cpu = 0.0
    for i in range(graph.num_nodes):
        cpu += pairwise_sum(vw[i]) / rel[parts[i]]
    comm = 0.0
    for u, v, w in graph.edges():
        if parts[u] != parts[v]:
            comm += w * COMM_CYCLES_PER_VOLUME
    return cpu + comm


def _weighted_use_graph(crg, program: BProgram,
                        measured_cpu: Optional[Dict[str, float]]):
    """The CRG use graph with CPU vertex weights: measured cycles when a
    profile is available (adaptive repartitioning input), the static
    loop-scaled heuristic otherwise.  One definition, shared by
    :func:`build_plan` and :func:`placement_cost` so candidate placements
    are always compared on the same weighted graph."""
    graph, order = crg.use_graph()
    for i, node in enumerate(order):
        cls = node.split("_", 1)[1]
        if measured_cpu is not None and cls in measured_cpu:
            graph.set_weight(i, [max(measured_cpu[cls], 1.0)])
        else:
            graph.set_weight(i, [max(_class_cpu(cls, program), 1.0)])
    return graph, order


def _edgecut_of(graph, parts: List[int]) -> float:
    return float(sum(
        w for u, v, w in graph.edges() if parts[u] != parts[v]
    ))


def placement_cost(
    program: BProgram,
    parts: List[int],
    nparts: int,
    tpwgts: Optional[List[float]] = None,
    measured_cpu: Optional[Dict[str, float]] = None,
) -> float:
    """Static makespan estimate of an explicit class-granularity placement
    (a ``DistributionPlan.parts`` vector) under the given — possibly
    measured — weights.  Lets callers compare two plans' predictions on an
    equal footing (see :mod:`repro.adaptive`)."""
    cg = rapid_type_analysis(program)
    crg = build_crg(cg)
    graph, order = _weighted_use_graph(crg, program, measured_cpu)
    if len(parts) != graph.num_nodes:
        raise AnalysisError(
            f"placement names {len(parts)} nodes, graph has {graph.num_nodes}"
        )
    return estimate_plan_cost(graph, list(parts), nparts, tpwgts)


@acyclic
def build_plan(
    program: BProgram,
    nparts: int,
    granularity: str = "class",
    method: str = "multilevel",
    model: Optional[ResourceModel] = None,
    seed: int = 17,
    tpwgts: Optional[List[float]] = None,
    ubfactor: float = 1.30,
    pin_main_to: Optional[int] = None,
    force_distribution: bool = False,
    measured_cpu: Optional[Dict[str, float]] = None,
    extra_candidates: Optional[List[List[int]]] = None,
) -> DistributionPlan:
    """Analyze ``program`` and produce a distribution plan for ``nparts``.

    ``tpwgts`` gives target capacity fractions per partition (e.g. relative
    CPU speeds of the actual machines — the paper's resource-availability
    modeling); CPU-heuristic node weights make the balance constraint mean
    *compute* balance, not class-count balance.

    ``extra_candidates`` (class granularity only) adds explicit placement
    vectors to the candidate pool — e.g. a previous plan's ``parts`` — so a
    replan under new weights can never pick something it predicts to be
    worse than that baseline."""
    if granularity not in ("class", "object"):
        raise AnalysisError(f"unknown granularity {granularity!r}")
    cg = rapid_type_analysis(program)
    crg = build_crg(cg)
    main_cls = program.main_class

    if granularity == "class" or nparts == 1:
        graph, order = _weighted_use_graph(crg, program, measured_cpu)

        main_node = f"ST_{main_cls}"

        def pinned_parts(parts: List[int]) -> List[int]:
            if pin_main_to is None:
                return list(parts)
            out = list(parts)
            for i, node in enumerate(order):
                if node == main_node:
                    out[i] = pin_main_to
            return out

        # The placement objective for a *sequential* program is a makespan
        # estimate, not balance: try several balance tolerances and keep
        # the candidate with the lowest estimated cost (CPU on assigned
        # node speeds + communication across the cut).  A tolerance that
        # repeats (ubfactor 1.3 or 1.0) would repeat an identical seeded
        # partition, and the first of equal-cost candidates wins anyway.
        # One call partitions them all, doing once what reads no tolerance.
        best = None
        candidates = [
            (pinned_parts(res.parts), res.edgecut)
            for res in part_graph_tolerances(
                graph, nparts,
                tuple(dict.fromkeys((1.05, 1.3, 2.0, ubfactor, 2 * ubfactor))),
                method=method, seed=seed, tpwgts=tpwgts,
            )
        ]
        if nparts > 1 and not force_distribution:
            # degenerate candidate: everything co-located with main — the
            # right answer for chatty programs ("many programs may not need
            # distribution at all", §1)
            home = pin_main_to if pin_main_to is not None else 0
            candidates.append(([home] * graph.num_nodes, 0.0))
        baseline_cost = None
        for extra in extra_candidates or ():
            if len(extra) != graph.num_nodes:
                continue  # stale baseline from a different program shape
            parts = pinned_parts(list(extra))
            candidates.append((parts, _edgecut_of(graph, parts)))
            if baseline_cost is None:
                baseline_cost = estimate_plan_cost(graph, parts, nparts, tpwgts)
        for parts, cut in candidates:
            if force_distribution and len(set(parts)) < min(nparts, 2):
                continue  # collapsed after pinning; not a real distribution
            cost = estimate_plan_cost(graph, parts, nparts, tpwgts)
            if best is None or cost < best[0]:
                best = (cost, parts, cut)
        if best is None:
            # every candidate collapsed; fall back to isolating the heaviest
            # non-main node on partition (pin+1) % nparts
            vw = graph.vwgts()
            fallback = pinned_parts([0] * graph.num_nodes)
            movable = [
                i for i, node in enumerate(order) if node != main_node
            ]
            if movable and nparts > 1:
                heavy = max(movable, key=lambda i: pairwise_sum(vw[i]))
                home = fallback[heavy]
                fallback[heavy] = (home + 1) % nparts
            best = (
                estimate_plan_cost(graph, fallback, nparts, tpwgts),
                fallback,
                _edgecut_of(graph, fallback),
            )
        cost, parts, edgecut = best
        part_of = {node: parts[i] for i, node in enumerate(order)}
        class_home: Dict[str, int] = {}
        for node, p in part_of.items():
            kind, cls = node.split("_", 1)
            if kind == "DT" or cls not in class_home:
                class_home[cls] = p
        dependent = classify_dependent_crg(crg, part_of)
        main_partition = part_of.get(f"ST_{main_cls}", 0)
        plan = DistributionPlan(
            nparts=nparts,
            granularity="class",
            class_home=class_home,
            dependent_classes=dependent if nparts > 1 else set(),
            main_partition=main_partition,
            edgecut=edgecut,
            method=method,
            parts=list(parts),
            order=list(order),
            est_cost=cost,
            baseline_cost=baseline_cost,
        )
        return plan

    objects = compute_object_set(cg)
    odg = build_odg(cg, crg, objects)
    graph, order = odg.partition_graph()
    if model is None:
        model = UNIFORM
    objects_by_uid = {o.uid: o for o in objects}
    graph = model.apply(graph, objects_by_uid, program)
    result = part_graph(
        graph, nparts, method=method, seed=seed, tpwgts=tpwgts, ubfactor=ubfactor
    )
    part_of = {uid: result.parts[i] for i, uid in enumerate(order)}
    if pin_main_to is not None and f"ST_{main_cls}" in part_of:
        part_of[f"ST_{main_cls}"] = pin_main_to
    site_home: Dict[Tuple[str, int], int] = {}
    class_home: Dict[str, int] = {}
    for obj in objects:
        p = part_of.get(obj.uid, 0)
        if obj.static_part:
            class_home.setdefault(obj.class_name, p)
        else:
            site_home[obj.site] = p
            class_home.setdefault(obj.class_name, p)
    dependent = classify_dependent_odg(odg, part_of)
    main_partition = part_of.get(f"ST_{main_cls}", 0)
    return DistributionPlan(
        nparts=nparts,
        granularity="object",
        class_home=class_home,
        site_home=site_home,
        dependent_classes=dependent if nparts > 1 else set(),
        main_partition=main_partition,
        edgecut=result.edgecut,
        method=method,
    )


def build_plans(
    program: BProgram,
    max_nodes: int,
    granularity: str = "class",
    method: str = "multilevel",
    seed: int = 17,
) -> List[DistributionPlan]:
    """Offline specialization: plans for 1, 2, ..., ``max_nodes`` nodes."""
    return [
        build_plan(program, n, granularity=granularity, method=method, seed=seed)
        for n in range(1, max_nodes + 1)
    ]
