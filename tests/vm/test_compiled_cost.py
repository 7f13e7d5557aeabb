"""What a VM cycle costs on the compiled tier, as a count — the
hardware-independent half of the ``compute_sim`` evidence.

Python-level calls (``cProfile``'s ``total_calls``) per 1 000 VM cycles of
``run_sequential(engine="compiled")`` on the five ``compute_sim`` programs
at ``bench`` size, promotion included.  Every generated guard that calls
(``H.get``, ``fields.get``, ``len``), every trip through
``Machine._invoke`` / ``call_bmethod`` / ``_return`` and every region that
hands a block back to the engine loop shows here, so the cap — a tenth
above what shipped — keeps them from creeping back; by-name rows hold the
natives (resolved once per call site, called in place by regions), the
wraps (inline in generated code), the field templates (built once per
class) and ``compile()`` (once per region source per process) to what
they are.  Wall-clock evidence is ``perfbench``'s (``run_s`` @
``compute_sim``).

The exact counts come in two classes.  *Invariants* stay identical:
``vm.cycles``, ``vm.jit_deopts``, ``speedup_pct``, ``runtime.services.*``
and ``runtime.simnet.virtual_rtt_us`` — here the cycles and the deopts (0)
are pinned exactly: less work per cycle, not fewer cycles.  *Design
counts* move with the design and are reported parent → change:
``vm.jit_promotions``, ``vm.compiled_cycle_share`` and calls per 1 000
cycles — here the promotions are pinned to what shipped.
"""

import builtins
import cProfile
import pstats

import pytest

from repro.api import Experiment
from repro.api.experiment import compile_workload
from repro.bytecode import opcodes as op
from repro.harness.cache import StageCache
from repro.lang.symbols import DEPENDENT_OBJECT
from repro.runtime.cluster import paper_testbed
from repro.runtime.executor import run_sequential
from repro.vm import jit
from repro.vm.jit import jit_threshold
from repro.vm.natives import IN_REGION, REGISTRY

#: program -> (cycles, promotions, shipped calls per 1 000 cycles).  The
#: parent commit made 49 / 74 / 41 / 208 / 155 calls (all five: 89) and
#: 8 / 8 / 9 / 6 / 18 promotions; shipped, where regions call the audited
#: natives in place and wrap inline, all five make SHIPPED_ALL.
EXPECTED = {
    "crypt": (5_738_415, 6, 26),
    "heapsort": (4_824_997, 7, 61),
    "moldyn": (7_621_425, 3, 40),
    "search": (2_951_688, 6, 167),
    "compress": (4_680_224, 15, 118),
}
SHIPPED_ALL = 70
SLACK = 1.10
#: the hotness threshold measured at (the default)
THRESHOLD = 16

#: functions that run at most once per native call site of the program
PER_NATIVE_SITE = ("interpreter.py:_native", "natives.py:find_native",
                   "symbols.py:resolve_method")

#: natives outside :data:`IN_REGION`, by function name: they end a region
#: and go through the engine's bound-native handler
OUTSIDE = ({f"natives.py:{fn.__name__}" for key, fn in REGISTRY.items()
            if key not in IN_REGION}
           - {f"natives.py:{fn.__name__}" for key, fn in REGISTRY.items()
              if key in IN_REGION})


def _static_counts(bprogram):
    """(native call sites, classes allocated with ``NEW``, call sites of
    audited natives) of a program."""
    code = [i for bc in bprogram.classes.values()
            for bm in bc.methods.values() for i in bm.flat().instrs]
    natives = [i for i in code if i.op in op.INVOKES and i.a != DEPENDENT_OBJECT
               and bprogram.lookup_method(i.a, i.b) is None]
    return (len(natives), len({i.a for i in code if i.op == op.NEW}),
            sum((i.a, i.b) in IN_REGION for i in natives))


@pytest.fixture(scope="module")
def measured():
    """``{program: (result, calls per 1 000 cycles, calls by name,
    :func:`_static_counts`)}``, default threshold; ``by name`` also holds
    ``jit:<func>``, the calls of ``values.py:<func>`` from generated code."""
    node = paper_testbed().nodes[0]
    out = {}
    with jit_threshold(THRESHOLD):
        for name in EXPECTED:
            work = compile_workload(name, "bench", cache=StageCache())
            profile = cProfile.Profile()
            result = profile.runcall(
                run_sequential, work.bprogram, node,
                loaded=work.loaded, engine="compiled",
            )
            stats = pstats.Stats(profile)
            by_name = {}
            for (path, _, func), (_, ncalls, _, _, callers) in \
                    stats.stats.items():
                key = f"{path.rsplit('/', 1)[-1]}:{func}"
                by_name[key] = by_name.get(key, 0) + ncalls
                if key in ("values.py:i32", "values.py:i64"):
                    by_name[f"jit:{func}"] = sum(
                        v[1] for (cpath, _, _), v in callers.items()
                        if cpath.startswith("<repro-jit:"))
            out[name] = (result, stats.total_calls * 1000 / result.cycles,
                         by_name, _static_counts(work.bprogram))
    return out


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_cycles_and_jit_counters_are_the_parents(measured, name):
    """Cycles and deopts are the parent's; promotions what shipped."""
    result = measured[name][0]
    cycles, promotions, _ = EXPECTED[name]
    assert result.cycles == cycles
    assert (result.jit["promotions"], result.jit["deopts"]) == (promotions, 0)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_calls_per_kilocycle_are_bounded(measured, name):
    per_kcycle = measured[name][1]
    assert per_kcycle <= SLACK * EXPECTED[name][2], per_kcycle


def test_calls_per_kilocycle_over_all_five(measured):
    calls = sum(r.cycles * k for r, k, _, _ in measured.values())
    cycles = sum(r.cycles for r, _, _, _ in measured.values())
    assert calls / cycles <= SLACK * SHIPPED_ALL, calls / cycles


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_natives_resolve_once_per_site_and_templates_once_per_class(
        measured, name):
    """A native is found and its push decided when its call site binds or
    a region calling it in place compiles, not on every call; a class's
    field template is built on its first allocation."""
    _, _, by_name, (sites, classes, _) = measured[name]
    # a site binds once in the engine, and once per region compiled over it
    bound = sites + by_name.get("jit.py:_native_call", 0)
    for func in PER_NATIVE_SITE:
        assert by_name.get(func, 0) <= bound, (func, by_name.get(func), bound)
    layouts = by_name.get("loader.py:instance_field_layout", 0)
    assert layouts <= classes, (layouts, classes)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_audited_natives_run_in_regions_and_wraps_inline(measured, name):
    """The engine's bound-native handler sees the natives outside
    :data:`IN_REGION` and an audited site only while its region is cold
    (fewer executions than the threshold); generated code calls neither
    ``i32`` nor ``i64``."""
    _, _, by_name, (_, _, audited_sites) = measured[name]
    outside = sum(by_name.get(func, 0) for func in OUTSIDE)
    engine = by_name.get("jit.py:call", 0)
    assert engine <= outside + THRESHOLD * audited_sites, (engine, outside)
    assert (by_name.get("jit:i32", 0), by_name.get("jit:i64", 0)) == (0, 0)


def test_compile_runs_once_per_region_source_per_process(monkeypatch):
    """Sequential and distributed pass in one process, as a ``compute_sim``
    unit runs them: the rewritten copy's regions lower to the sources the
    original's did, and reuse their code objects."""
    compiled, regions = [], []

    def counting_compile(src, filename, *args, **kwargs):
        compiled.append(filename)
        return builtins.compile(src, filename, *args, **kwargs)

    def recording(*args, **kwargs):
        fn = compile_region(*args, **kwargs)
        regions.append((fn.__doc__, fn.__code__.co_filename))
        return fn

    compile_region = jit._compile_region
    monkeypatch.setattr(jit, "compile", counting_compile, raising=False)
    monkeypatch.setattr(jit, "_compile_region", recording)
    for name in sorted(EXPECTED):
        # as a fresh process starts: no other program's regions (an entry
        # lives only as long as some program holds a closure over it)
        jit._CODE.clear()
        del compiled[:], regions[:]
        res = Experiment.from_options(name, size="test", cache=StageCache(),
                                      backend="sim").run()
        assert res.stdout == res.sequential.stdout
        assert len(compiled) == len(set(regions)) < len(regions), name
