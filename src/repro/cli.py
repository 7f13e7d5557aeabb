"""Command-line interface: ``python -m repro <command>``.

A thin consumer of :mod:`repro.api` — every stage runs through the typed
:class:`~repro.api.experiment.Experiment` façade.  Commands mirror the
infrastructure's phases:

* ``run <workload>``        — execute a workload; ``--backend seq`` (default)
  is the centralized baseline, ``--backend {sim,thread,process,tcp}`` runs the
  distributed plan on that runtime backend (program output on stdout,
  byte-identical across backends; diagnostics on stderr)
* ``analyze <workload>``    — CRG/ODG summary (+ ``--vcg DIR`` to dump Figure 3/4 files)
* ``distribute <workload>`` — plan, rewrite and execute on the paper's
  2-node testbed (``--nodes N`` for more, ``--backend`` to pick the
  runtime), printing the Figure 11 numbers
* ``tables``                — regenerate Tables 1/2/3 and Figure 11 to stdout
* ``sweep``                 — batch-run a (workload × partitioner × cluster
  × network × backend) grid through the stage-cached pipeline, optionally
  across a process pool (``--workers N``), printing one result table +
  cache stats
* ``fuzz``                  — differential conformance fuzzing: seeded
  generated programs × generated worlds through the cross-backend oracle
  (:mod:`repro.testing`), with minimized counterexamples and golden-corpus
  save/replay (``--replay tests/corpus`` is the CI regression gate)
* ``codegen``               — the Figure 5/6/7 tour

``run``, ``distribute`` and ``sweep`` accept ``--json``: instead of the
human-readable rendering, stdout carries one structured
:class:`~repro.api.report.Report` serialization (the machine-readable
bench-trajectory format).  Unknown workload/partitioner/backend/network
names exit with code 2 and a one-line ``error:`` message (including a
did-you-mean suggestion) instead of a traceback.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional

from repro.workloads import WORKLOADS


_VM_ENGINE_HELP = (
    "force the VM execution tier on every machine: reference (per-step "
    "oracle), fast (threaded handlers) or compiled (threaded handlers + "
    "traced hot runs); default = ambient REPRO_VM_ENGINE, else compiled"
)


def _experiment(args: argparse.Namespace, backend: str):
    from repro.api import Experiment
    from repro.api.config import crash_plan, roster_endpoints

    replication = getattr(args, "replication", 1)
    recovery = None
    if getattr(args, "recovery", False):
        from repro.runtime.checkpoint import RecoveryPlan

        recovery = RecoveryPlan(
            interval=getattr(args, "recovery_interval", 60_000)
        )
    return Experiment.from_options(
        args.workload,
        size=args.size,
        nparts=getattr(args, "nodes", 2),
        backend=backend,
        replication=replication,
        faults=crash_plan(getattr(args, "crash", None)),
        recovery=recovery,
        engine=getattr(args, "vm_engine", "default"),
        roster=roster_endpoints(getattr(args, "roster", None)),
        force_distribution=getattr(args, "serve", False),
        # replicas need somewhere to live: give each extra copy its own
        # (otherwise idle) machine beyond the nparts the plan uses
        nodes=(
            getattr(args, "nodes", 2) + replication - 1
            if replication > 1 else None
        ),
    )


def _cmd_run(args: argparse.Namespace) -> int:
    if args.backend == "seq":
        from repro.api import Experiment

        # the centralized baseline always runs on the paper's 800 MHz
        # machine (the slowest paper-testbed node); --nodes only shapes
        # distributed runs
        exp = Experiment.from_options(
            args.workload, size=args.size,
            engine=getattr(args, "vm_engine", "default"),
        )
        seq = exp.baseline()
        if args.json:
            print(exp.report().to_json(indent=2))
            return 0
        for line in seq.stdout:
            print(line)
        print(f"[{args.workload}] {seq.cycles} cycles, "
              f"{seq.exec_time_s * 1e3:.3f} virtual ms on the 800 MHz baseline",
              file=sys.stderr)
        return 0
    # distributed run on a real backend; program output goes to stdout so it
    # is byte-comparable across backends, diagnostics go to stderr
    exp = _experiment(args, args.backend)
    res = exp.run()
    if args.json:
        print(res.report.to_json(indent=2))
        return 0
    for line in res.stdout:
        print(line)
    unit = "virtual ms" if args.backend == "sim" else "wall ms"
    print(f"[{args.workload}] backend={args.backend} k={res.plan.nparts} "
          f"{res.distributed_s * 1e3:.3f} {unit}, "
          f"{res.messages} messages ({res.bytes} bytes)",
          file=sys.stderr)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    exp = _experiment(args, "sim")
    work = exp.compile()
    a = exp.analyze()
    print(f"classes={work.num_classes} methods={work.num_methods} "
          f"size={work.size_kb:.1f}KB")
    print(f"CRG: {a.crg.num_nodes} nodes, {a.crg.num_edges} edges, "
          f"2-way edgecut {a.crg_partition.edgecut:.0f}")
    print(f"ODG: {a.odg.num_nodes} objects, {a.odg.num_edges} relations, "
          f"2-way edgecut {a.odg_partition.edgecut:.0f}")
    for obj in a.odg.objects:
        print(f"  {obj.label:18s} {obj.uid}")
    if args.vcg:
        out = pathlib.Path(args.vcg)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{args.workload}_crg.vcg").write_text(
            a.crg.to_vcg(f"{args.workload} CRG")
        )
        graph, order = a.odg.partition_graph()
        from repro.graph.vcg import vcg_digraph

        nodes = [(uid, a.odg.nodes[uid]) for uid in order]
        edges = [
            (e.src, e.dst, e.kind) for e in a.odg.edges() if e.kind != "reference"
        ]
        (out / f"{args.workload}_odg.vcg").write_text(
            vcg_digraph(f"{args.workload} ODG", nodes, edges)
        )
        print(f"VCG files written to {out}/")
    return 0


def _cmd_distribute(args: argparse.Namespace) -> int:
    exp = _experiment(args, args.backend)
    res = exp.run()
    if args.json:
        print(res.report.to_json(indent=2))
        return 0
    # non-sim backends compare wall against wall (commensurable units)
    unit = "virtual ms" if args.backend == "sim" else "wall ms"
    print(f"sequential : {res.sequential_s * 1e3:10.3f} {unit}")
    print(f"distributed: {res.distributed_s * 1e3:10.3f} {unit} "
          f"on {args.nodes} nodes ({args.backend} backend)")
    print(f"messages   : {res.messages}  ({res.bytes} bytes)")
    print(f"rewrites   : {res.rewrite_stats.total}  "
          f"(plan edgecut {res.plan.edgecut:.0f})")
    print(f"speedup    : {res.speedup_pct:.1f}%  (paper range: 79.2%..175.2%)")
    if res.report.replication > 1 and res.report.availability is not None:
        print(f"replication: {res.report.replication} copies/safe class, "
              f"modeled availability {res.report.availability:.3f}")
    if res.report.faults:
        verdict = (
            "degraded" if res.report.degraded
            else "masked" if res.report.recovered
            else "survived"
        )
        print(f"faults     : {len(res.report.faults)} record(s), run {verdict}")
    if res.report.recovered:
        nodes = sorted({r['node'] for r in res.report.recovered})
        print(f"recovery   : masked crash of node(s) {nodes} — "
              f"{res.report.checkpoint_overhead_cycles} checkpoint cycles, "
              f"{res.report.recovery_cycles} recovery cycles")
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.harness.tables import figure11, table1, table2, table3

    for fn, kwargs in (
        (table1, {"size": args.size}),
        (table2, {"size": args.size}),
        (table3, {"size": args.size}),
        (figure11, {"size": "bench" if args.size == "test" else args.size}),
    ):
        _, text = fn(**kwargs)
        print(text)
        print()
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.harness.sweep import SweepRunner, sweep_grid

    try:
        configs = sweep_grid(
            workloads=args.workloads.split(",") if args.workloads else None,
            methods=tuple(args.methods.split(",")),
            cluster_sizes=tuple(int(n) for n in args.nodes.split(",")),
            networks=tuple(args.networks.split(",")),
            size=args.size,
            backends=tuple(args.backends.split(",")),
            crash=args.crash,
            recovery_intervals=tuple(
                int(n) for n in args.recovery_intervals.split(",")
            ),
            serve=args.serve,
            roster=args.roster,
        )
    except ValueError as exc:  # e.g. non-integer --nodes
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = SweepRunner(configs, workers=args.workers).run()
    if args.json:
        print(result.to_json(indent=2))
        return 0
    text = result.table()
    print(text)
    print()
    print(result.summary())
    if args.out:
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")
        print(f"table written to {out}")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import json

    from repro.testing import corpus as corpus_mod
    from repro.testing import oracle
    from repro.testing.seeds import base_seed, describe

    if args.replay:
        failures = 0
        entries = corpus_mod.load_corpus(args.replay)
        for path, entry in entries:
            divs = corpus_mod.replay_entry(entry)
            status = "ok" if not divs else "DIVERGED"
            print(f"replay {entry.name} [{entry.kind}]: {status}",
                  file=sys.stderr)
            for d in divs:
                failures += 1
                print(f"  {d.check}: {d.message}", file=sys.stderr)
                print(f"    expected: {d.expected!r}", file=sys.stderr)
                print(f"    actual:   {d.actual!r}", file=sys.stderr)
        print(f"replayed {len(entries)} corpus entries, "
              f"{failures} divergences", file=sys.stderr)
        return 1 if failures else 0

    seed = args.seed if args.seed is not None else base_seed(default=0)
    print(f"fuzzing: seed={seed} budget={args.budget} ({describe()} overrides "
          f"the default seed)", file=sys.stderr)
    report, golden = oracle.run_fuzz(
        seed=seed,
        budget=args.budget,
        include_thread=not args.no_thread,
        include_process=args.include_process,
        include_tcp=args.include_tcp,
        include_faults=args.faults or args.recovery,
        include_recovery=args.recovery,
        shrink_budget=args.max_shrink,
        collect_golden=bool(args.save_corpus),
        log=lambda msg: print(msg, file=sys.stderr),
    )
    if args.save_corpus:
        out = pathlib.Path(args.save_corpus)
        for scenario, outcome in golden:
            entry = corpus_mod.entry_from_outcome(
                scenario, outcome,
                meta={"gen_seed": scenario.gen_seed, "fuzz_seed": seed},
            )
            entry.save(out)
        print(f"saved {len(golden)} golden entries to {out}/", file=sys.stderr)
    for entry in report.failures:
        path = entry.save(pathlib.Path(args.save_corpus or args.failures_dir))
        print(f"counterexample minimized and saved: {path}", file=sys.stderr)
        print(f"  replay with: repro fuzz --replay {path}", file=sys.stderr)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    return 0 if report.ok else 1


def _cmd_codegen(args: argparse.Namespace) -> int:
    from repro.harness.figures import fig5, fig6, fig7

    print("Quad IR (Figure 5):")
    print(fig5())
    print("\nTrees (Figure 6):")
    print(fig6())
    print("\nMachine code (Figure 7):")
    listings = fig7()
    print(listings["x86"])
    print()
    print(listings["StrongARM"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Automatic program distribution infrastructure "
        "(Diaconescu et al., IPPS 2005 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # workload/backend names are validated against the plugin registries at
    # execution time (clean UnknownPluginError with a did-you-mean), not by
    # argparse choices= — so plugins registered later are first-class
    workload_help = f"workload name ({', '.join(sorted(WORKLOADS))})"

    p = sub.add_parser("run", help="execute a workload (centralized or on a backend)")
    p.add_argument("workload", metavar="workload", help=workload_help)
    p.add_argument("--size", default="test", choices=("test", "bench", "large"))
    p.add_argument(
        "--backend", default="seq", metavar="NAME",
        help="seq = centralized baseline; sim/thread/process/tcp = "
        "distributed execution on that runtime backend",
    )
    p.add_argument("--nodes", type=int, default=2,
                   help="partitions for non-seq backends")
    p.add_argument(
        "--serve", action="store_true",
        help="service deployment: force a genuine multi-node placement so "
        "request/reply traffic (throughput, latency percentiles) is real "
        "instead of co-located away",
    )
    p.add_argument(
        "--roster", default="", metavar="HOST:PORT,...",
        help="tcp backend only: comma-separated host:port listen endpoints, "
        "one per node (default: 127.0.0.1 with ephemeral ports)",
    )
    p.add_argument("--vm-engine", default="default", metavar="TIER",
                   choices=("default", "reference", "fast", "compiled"),
                   help=_VM_ENGINE_HELP)
    p.add_argument("--json", action="store_true",
                   help="emit the structured Report as JSON on stdout "
                   "(seq runs report distributed_s: null)")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("analyze", help="dependence analysis summary")
    p.add_argument("workload", metavar="workload", help=workload_help)
    p.add_argument("--size", default="test", choices=("test", "bench", "large"))
    p.add_argument("--vcg", help="directory for Figure 3/4 VCG files")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("distribute", help="distributed execution (Figure 11)")
    p.add_argument("workload", metavar="workload", help=workload_help)
    p.add_argument("--size", default="bench", choices=("test", "bench", "large"))
    p.add_argument("--nodes", type=int, default=2)
    p.add_argument("--backend", default="sim", metavar="NAME",
                   help="runtime backend (sim, thread, process, tcp)")
    p.add_argument(
        "--serve", action="store_true",
        help="service deployment: force a genuine multi-node placement so "
        "request/reply traffic (throughput, latency percentiles) is real "
        "instead of co-located away",
    )
    p.add_argument(
        "--roster", default="", metavar="HOST:PORT,...",
        help="tcp backend only: comma-separated host:port listen endpoints, "
        "one per node (default: 127.0.0.1 with ephemeral ports)",
    )
    p.add_argument(
        "--replication", type=int, default=1, metavar="N",
        help="quorum-replicate safe remote classes over N copies "
        "(adds N-1 extra nodes to host them; default 1 = off)",
    )
    p.add_argument(
        "--crash", metavar="NODE:CYCLE",
        help="inject a planned node crash, e.g. --crash 0:20000",
    )
    p.add_argument(
        "--recovery", action="store_true",
        help="enable the recovery tier (checkpoints + heartbeat leases + "
        "object migration): a --crash of a non-main node is then masked "
        "with byte-identical output instead of degrading",
    )
    p.add_argument(
        "--recovery-interval", type=int, default=60_000, metavar="CYCLES",
        help="checkpoint cadence in cycles for --recovery (default 60000)",
    )
    p.add_argument("--vm-engine", default="default", metavar="TIER",
                   choices=("default", "reference", "fast", "compiled"),
                   help=_VM_ENGINE_HELP)
    p.add_argument("--json", action="store_true",
                   help="emit the structured Report as JSON on stdout")
    p.set_defaults(fn=_cmd_distribute)

    p = sub.add_parser("tables", help="regenerate Tables 1-3 + Figure 11")
    p.add_argument("--size", default="test", choices=("test", "bench", "large"))
    p.set_defaults(fn=_cmd_tables)

    p = sub.add_parser(
        "sweep", help="batch-run a config grid through the cached pipeline"
    )
    p.add_argument(
        "--workloads",
        help="comma-separated workload names (default: the Table 1 set)",
    )
    p.add_argument(
        "--methods", default="multilevel",
        help="comma-separated partitioners (multilevel,kl,spectral,roundrobin)",
    )
    p.add_argument(
        "--nodes", default="2",
        help="comma-separated cluster sizes, e.g. 2,3,4",
    )
    p.add_argument(
        "--networks", default="ethernet_100m",
        help="comma-separated network presets "
        "(ethernet_100m,ethernet_1g,wireless_80211b)",
    )
    p.add_argument(
        "--backends", default="sim",
        help="comma-separated runtime backends (sim,thread,process,tcp)",
    )
    p.add_argument(
        "--serve", action="store_true",
        help="service deployment for every grid point: force a genuine "
        "multi-node placement so the throughput/latency columns carry "
        "real request/reply traffic",
    )
    p.add_argument(
        "--roster", default="", metavar="HOST:PORT,...",
        help="tcp backend only: comma-separated host:port listen endpoints "
        "applied to every grid point (default: ephemeral localhost ports)",
    )
    p.add_argument("--size", default="test", choices=("test", "bench", "large"))
    p.add_argument(
        "--crash", default="", metavar="NODE:CYCLE",
        help="inject a planned crash into every grid point (pairs with "
        "--recovery-intervals to measure masking cost)",
    )
    p.add_argument(
        "--recovery-intervals", default="0", metavar="CYCLES,...",
        help="comma-separated checkpoint intervals as a sweep axis "
        "(0 = recovery off; default 0)",
    )
    p.add_argument(
        "--workers", type=int, default=0,
        help="process-pool width; <=1 runs serially in-process",
    )
    p.add_argument("--out", help="also write the result table to this file")
    p.add_argument("--json", action="store_true",
                   help="emit one JSON object on stdout whose 'records' "
                   "array holds one Report per grid point")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser(
        "fuzz",
        help="differential conformance fuzzing (repro.testing): generated "
        "programs x generated worlds through the cross-backend oracle",
    )
    p.add_argument(
        "--seed", type=int, default=None,
        help="fuzz seed (default: $REPRO_TEST_SEED, else 0)",
    )
    p.add_argument(
        "--budget", type=int, default=50,
        help="number of generated scenarios to check (default 50)",
    )
    p.add_argument(
        "--replay", metavar="PATH",
        help="replay a corpus entry file or directory (e.g. tests/corpus) "
        "instead of generating new scenarios",
    )
    p.add_argument(
        "--save-corpus", metavar="DIR",
        help="save every passing scenario as a golden corpus entry (and "
        "counterexamples) under DIR",
    )
    p.add_argument(
        "--failures-dir", default="fuzz-failures", metavar="DIR",
        help="where minimized counterexamples are written (default "
        "fuzz-failures/)",
    )
    p.add_argument(
        "--no-thread", action="store_true",
        help="restrict worlds to the deterministic simulator backend",
    )
    p.add_argument(
        "--include-process", action="store_true",
        help="let worlds include the multiprocessing backend (slow)",
    )
    p.add_argument(
        "--include-tcp", action="store_true",
        help="let worlds include the real-socket tcp backend on localhost "
        "(slow; gated off by default so existing corpora replay unchanged)",
    )
    p.add_argument(
        "--faults", action="store_true",
        help="let worlds carry seeded FaultPlans (message loss, node "
        "crashes) and quorum replication; crashes must degrade to "
        "structured fault reports, transient loss must be masked",
    )
    p.add_argument(
        "--recovery", action="store_true",
        help="(with --faults) let crash worlds carry RecoveryPlans: the "
        "oracle then hunts recovered-vs-fault-free divergence — masked "
        "crashes must reproduce byte-identical output with RECOVERED "
        "evidence",
    )
    p.add_argument(
        "--max-shrink", type=int, default=120,
        help="shrinking budget (oracle evaluations) per counterexample",
    )
    p.add_argument("--json", action="store_true",
                   help="emit the structured ConformanceReport as JSON")
    p.set_defaults(fn=_cmd_fuzz)

    p = sub.add_parser("codegen", help="Figure 5/6/7 tour")
    p.set_defaults(fn=_cmd_codegen)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    from repro.errors import ReproError

    try:
        return args.fn(args)
    except ReproError as exc:
        # infrastructure failures (unknown plugin names, bad configs,
        # diverged runs) surface as one clean line, not a traceback;
        # genuine Python bugs still get their stack trace
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
