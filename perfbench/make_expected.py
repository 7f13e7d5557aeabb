"""Regenerate ``expected/<program>.<size>.txt``, the committed references
every unit's output is checked against.

Run by hand, once, when a bundled program, a size or a generated program is
added:

    PYTHONPATH=src python3 perfbench/make_expected.py
    PYTHONPATH=src python3 perfbench/make_expected.py --survey 48

``--survey N`` only lists the reachable-method counts of the first 48
generated N-class programs, from which ``workloads.GENERATED`` was picked.

The stdout lines come from the *reference* engine — the per-step oracle —
running the original program sequentially: not from the compiled tier, the
rewriter or any backend the benchmark times.  The service program's
request / frame / byte counts are those of one clean two-node run on the
deterministic simulator, also on the reference engine.
"""

from __future__ import annotations

import sys

from repro.analysis.rta import rapid_type_analysis
from repro.api.config import ClusterConfig
from repro.api.experiment import Experiment, compile_workload
from repro.bytecode import compile_program
from repro.harness.cache import StageCache
from repro.lang import analyze, parse_program
from repro.runtime.executor import run_sequential
from repro.testing.genprog import generate_source
from repro.workloads import TABLE1_ORDER

from workloads import (
    COMPUTE_PROGRAMS, EXPECTED_DIR, GENERATED, SERVICE_PROGRAM, gen_config,
)

#: (program, size) pairs the workloads, the probes and ``--smoke`` run
WANTED = (
    [(p, "test") for p in TABLE1_ORDER]
    + [(p, "bench") for p in COMPUTE_PROGRAMS]
    + [(SERVICE_PROGRAM, s) for s in ("test", "bench", "large")]
)


def compile_generated(n_classes: int, gen_seed: int):
    tree = parse_program(generate_source(gen_config(n_classes, gen_seed)))
    return compile_program(tree, analyze(tree))


def survey(n_classes: int) -> None:
    for gen_seed in range(48):
        cg = rapid_type_analysis(compile_generated(n_classes, gen_seed))
        print(gen_seed, len(cg.reachable))


def write(stem: str, stdout, extra=()) -> None:
    lines = [
        "# reference engine, sequential; see make_expected.py",
        *(f"stdout: {line}" for line in stdout),
        *extra,
    ]
    (EXPECTED_DIR / f"{stem}.txt").write_text("\n".join(lines) + "\n")
    print(stem, stdout[-1])


def main() -> None:
    if sys.argv[1:2] == ["--survey"]:
        return survey(int(sys.argv[2]))
    node = ClusterConfig().build(2).nodes[0]
    for program, size in WANTED:
        work = compile_workload(program, size, StageCache())
        seq = run_sequential(
            work.bprogram, node, loaded=work.loaded, engine="reference"
        )
        extra = []
        if program == SERVICE_PROGRAM:
            res = Experiment.from_options(
                program, size=size, backend="sim", engine="reference",
                force_distribution=True, cache=StageCache(),
            ).run()
            extra = [
                f"requests: {res.report.latency_count}",
                f"frames: {res.messages}",
                f"wire_bytes: {res.bytes}",
            ]
        write(f"{program}.{size}", seq.stdout, extra)
    for n_classes, gen_seeds in GENERATED.items():
        for gen_seed in gen_seeds:
            bprogram = compile_generated(n_classes, gen_seed)
            seq = run_sequential(bprogram, node, engine="reference")
            write(f"gen{n_classes}_{gen_seed}", seq.stdout)


if __name__ == "__main__":
    main()
