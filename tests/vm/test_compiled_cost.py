"""What a VM cycle costs on the compiled tier, as a count — the
hardware-independent half of the ``compute_sim`` evidence.

Python-level calls (``cProfile``'s ``total_calls``) per 1 000 VM cycles of
``run_sequential(engine="compiled")`` on the five ``compute_sim`` programs
at ``bench`` size, promotion included.  Every generated guard that calls
(``H.get``, ``fields.get``, ``len``, ``i32``), every trip through
``Machine._invoke`` / ``call_bmethod`` / ``_return`` and every region that
hands a block back to the engine loop shows here, so the cap — a tenth
above what shipped — keeps them from creeping back; by-name rows hold the
natives (resolved once per call site) and the field templates (built once
per class) to what they are.  Wall-clock evidence is ``perfbench``'s
(``run_s`` @ ``compute_sim``).

The exact counts come in two classes.  *Invariants* stay identical:
``vm.cycles``, ``vm.jit_deopts``, ``speedup_pct``, ``runtime.services.*``
and ``runtime.simnet.virtual_rtt_us`` — here the cycles and the deopts (0)
are pinned exactly: less work per cycle, not fewer cycles.  *Design
counts* move with the design and are reported parent → change:
``vm.jit_promotions``, ``vm.compiled_cycle_share`` and calls per 1 000
cycles — here the promotions are pinned to what shipped.
"""

import cProfile
import pstats

import pytest

from repro.api.experiment import compile_workload
from repro.bytecode import opcodes as op
from repro.harness.cache import StageCache
from repro.lang.symbols import DEPENDENT_OBJECT
from repro.runtime.cluster import paper_testbed
from repro.runtime.executor import run_sequential
from repro.vm.jit import jit_threshold

#: program -> (cycles, promotions, shipped calls per 1 000 cycles).  The
#: parent commit made 63 / 100 / 42 / 316 / 236 calls (all five: 124) and
#: 8 / 9 / 9 / 10 / 20 promotions; shipped, where regions call compiled
#: callees directly, allocate in place and natives are bound at their call
#: sites, all five make SHIPPED_ALL.
EXPECTED = {
    "crypt": (5_738_415, 8, 49),
    "heapsort": (4_824_997, 8, 74),
    "moldyn": (7_621_425, 9, 41),
    "search": (2_951_688, 6, 208),
    "compress": (4_680_224, 18, 155),
}
SHIPPED_ALL = 89
SLACK = 1.10

#: functions that run at most once per native call site of the program
PER_NATIVE_SITE = ("interpreter.py:_native", "natives.py:find_native",
                   "symbols.py:resolve_method")


def _static_counts(bprogram):
    """(native call sites, classes allocated with ``NEW``) of a program."""
    code = [i for bc in bprogram.classes.values()
            for bm in bc.methods.values() for i in bm.flat().instrs]
    sites = sum(1 for i in code if i.op in op.INVOKES and i.a != DEPENDENT_OBJECT
                and bprogram.lookup_method(i.a, i.b) is None)
    return sites, len({i.a for i in code if i.op == op.NEW})


@pytest.fixture(scope="module")
def measured():
    """``{program: (result, calls per 1 000 cycles, calls by name,
    (native call sites, allocated classes))}``, default threshold."""
    node = paper_testbed().nodes[0]
    out = {}
    with jit_threshold(16):
        for name in EXPECTED:
            work = compile_workload(name, "bench", cache=StageCache())
            profile = cProfile.Profile()
            result = profile.runcall(
                run_sequential, work.bprogram, node,
                loaded=work.loaded, engine="compiled",
            )
            stats = pstats.Stats(profile)
            by_name = {}
            for (path, _, func), (_, ncalls, *_) in stats.stats.items():
                key = f"{path.rsplit('/', 1)[-1]}:{func}"
                by_name[key] = by_name.get(key, 0) + ncalls
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
    """A native is found and its push decided when its call site binds,
    not on every call; a class's field template is built on its first
    allocation."""
    _, _, by_name, (sites, classes) = measured[name]
    for func in PER_NATIVE_SITE:
        assert by_name.get(func, 0) <= sites, (func, by_name.get(func), sites)
    layouts = by_name.get("loader.py:instance_field_layout", 0)
    assert layouts <= classes, (layouts, classes)
