"""Shared test helper functions (import via `from helpers import ...`)."""

from __future__ import annotations

import cProfile
import pstats
from typing import Dict, NamedTuple

from repro.bytecode import compile_program
from repro.lang import analyze, parse_program
from repro.vm import load_program, run_main
from repro.vm.interpreter import Machine, run_sync


def compile_mj(source: str):
    """MJ source -> LoadedProgram."""
    ast = parse_program(source)
    table = analyze(ast)
    return load_program(compile_program(ast, table))


def compile_mj_raw(source: str):
    """MJ source -> (BProgram, ClassTable) without loading."""
    ast = parse_program(source)
    table = analyze(ast)
    return compile_program(ast, table), table


def run_mj(source: str):
    """Compile + run main; returns the finished Machine."""
    return run_main(compile_mj(source))


def stdout_of(source: str):
    return run_mj(source).stdout


def eval_expr(expr: str, decls: str = "", ty: str = "int"):
    """Evaluate one MJ expression inside a synthesized main; returns the
    printed value text."""
    src = f"""
    class EvalHost {{
        {decls}
        static void main(String[] args) {{
            {ty} result = {expr};
            Sys.println("" + result);
        }}
    }}
    """
    out = stdout_of(src)
    return out[-1]


def two_node_plan_arguments() -> dict:
    """The ``build_plan`` arguments of a two-node ``repro distribute`` on the
    paper testbed, with the distribution forced so that the rewriter always
    has work: capacity-proportional targets, ``main`` pinned to the slower
    machine (what ``perfbench``'s ``pipeline_cold`` plans with)."""
    from repro.api.config import ClusterConfig
    from repro.api.experiment import PLAN_UBFACTOR

    speeds = [node.cpu_hz for node in ClusterConfig().build(2).nodes]
    return {
        "tpwgts": [s / sum(speeds) for s in speeds],
        "ubfactor": PLAN_UBFACTOR,
        "pin_main_to": speeds.index(min(speeds)),
        "force_distribution": True,
    }


def scaling_source(n_classes: int) -> str:
    """The generated program the compile-path scaling guards and oracles
    share: ``n_classes`` helper classes of six methods, generator seed 0."""
    from repro.testing.genprog import GenConfig, generate_source

    return generate_source(
        GenConfig(seed=0, n_classes=n_classes, n_methods=6, max_stmts=8)
    )


def run_python(script: str, *argv: str, blocked=()):
    """Run ``script`` in a fresh interpreter that imports what this one does
    (same ``sys.path``), with the ``blocked`` packages made unimportable the
    way a machine without them sees it: ``import numpy`` raises
    ``ModuleNotFoundError``.  Returns the ``CompletedProcess`` (text mode)."""
    import subprocess
    import sys

    prelude = (
        f"import sys; sys.path[:0] = {[p for p in sys.path if p]!r}\n"
        f"sys.modules.update(dict.fromkeys({tuple(blocked)!r}))\n"
    )
    return subprocess.run(
        [sys.executable, "-c", prelude + script, *argv],
        capture_output=True, text=True, timeout=300,
    )


class Profiled(NamedTuple):
    """One call run under cProfile, for the suite's count gates."""

    result: object
    calls: int                  # cProfile's ``total_calls``
    by_name: Dict[str, int]     # the same per ``file:function``
    stats: pstats.Stats         # for callers and anything else by row


def profiled(fn, *args, **kwargs) -> Profiled:
    """Run ``fn(*args, **kwargs)`` under cProfile.  A generator's row counts
    its resumptions; ``by_name`` sums the rows of same-named functions of a
    file, and a builtin's file is ``~``."""
    profile = cProfile.Profile()
    result = profile.runcall(fn, *args, **kwargs)
    stats = pstats.Stats(profile)
    by_name: Dict[str, int] = {}
    for (path, _, name), (_, ncalls, *_rest) in stats.stats.items():
        key = f"{path.rsplit('/', 1)[-1]}:{name}"
        by_name[key] = by_name.get(key, 0) + ncalls
    return Profiled(result, stats.total_calls, by_name, stats)
