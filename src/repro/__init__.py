"""repro — a reproduction of *A Compiler and Runtime Infrastructure for
Automatic Program Distribution* (Diaconescu, Wang, Mouri & Chu, IPPS 2005).

:mod:`repro.api` is the public programmatic entry point — typed configs,
the composable :class:`~repro.api.experiment.Experiment` façade, unified
plugin registries, stage events and structured reports; see README.md
("Public API") and ``examples/api_quickstart.py``.

Layers (bottom-up):

* ``repro.lang`` / ``repro.bytecode`` / ``repro.vm`` — the MJ language
  substrate (Java stand-in) and its virtual machine;
* ``repro.quad`` — register-style quad IR (Joeq stand-in);
* ``repro.analysis`` — RTA call graph, class relation graph, object
  dependence graph, resource modeling;
* ``repro.graph`` / ``repro.partition`` — weighted graphs and the
  from-scratch multilevel multi-constraint partitioner (Metis stand-in);
* ``repro.codegen`` — BURS retargetable back-ends (x86, StrongARM);
* ``repro.distgen`` — dependence classification and communication
  generation (bytecode rewriting);
* ``repro.runtime`` — simulated cluster, message exchange;
* ``repro.profiler`` — instrumentation & sampling profiler;
* ``repro.workloads`` / ``repro.harness`` — benchmark programs and the
  table/figure reproduction harness.
"""

__version__ = "1.0.0"


def compile_source(source: str):
    """Convenience one-shot: MJ source text -> loaded, runnable program."""
    from repro.lang import analyze, parse_program
    from repro.bytecode import compile_program
    from repro.vm import load_program

    program = parse_program(source)
    table = analyze(program)
    bprogram = compile_program(program, table)
    return load_program(bprogram)
