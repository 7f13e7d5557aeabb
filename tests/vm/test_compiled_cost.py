"""What a VM cycle costs on the compiled tier, as a count — the
hardware-independent half of the ``compute_sim`` evidence.

Python-level calls (``cProfile``'s ``total_calls``) per 1 000 VM cycles of
``run_sequential(engine="compiled")`` on the five ``compute_sim`` programs
at ``bench`` size, promotion included.  Every generated guard that calls
(``H.get``, ``fields.get``, ``len``, ``i32``), every trip through
``Machine._invoke`` / ``call_bmethod`` / ``_return`` and every region that
hands a block back to the engine loop shows here, so the cap — a tenth
above what shipped — keeps them from creeping back.  Wall-clock evidence is
``perfbench``'s (``run_s`` @ ``compute_sim``).  Cycles are pinned exactly:
less work per cycle, not fewer cycles.
"""

import cProfile
import pstats

import pytest

from repro.api.experiment import compile_workload
from repro.harness.cache import StageCache
from repro.runtime.cluster import paper_testbed
from repro.runtime.executor import run_sequential
from repro.vm.jit import jit_threshold

#: program -> (cycles, promotions, shipped calls per 1 000 cycles).  The
#: parent commit made 88 / 118 / 42 / 447 / 268 calls (all five: 154);
#: shipped, where every hot run compiles as a region and pure leaves that
#: branch forward inline, all five make 124.
EXPECTED = {
    "crypt": (5_738_415, 8, 63),
    "heapsort": (4_824_997, 9, 100),
    "moldyn": (7_621_425, 9, 42),
    "search": (2_951_688, 10, 316),
    "compress": (4_680_224, 20, 236),
}
SLACK = 1.10


@pytest.fixture(scope="module")
def measured():
    """``{program: (result, calls per 1 000 cycles)}``, default threshold."""
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
            calls = pstats.Stats(profile).total_calls
            out[name] = (result, calls * 1000 / result.cycles)
    return out


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_cycles_and_jit_counters_are_the_parents(measured, name):
    result, _ = measured[name]
    cycles, promotions, _ = EXPECTED[name]
    assert result.cycles == cycles
    assert (result.jit["promotions"], result.jit["deopts"]) == (promotions, 0)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_calls_per_kilocycle_are_bounded(measured, name):
    _, per_kcycle = measured[name]
    assert per_kcycle <= SLACK * EXPECTED[name][2], per_kcycle


def test_calls_per_kilocycle_over_all_five(measured):
    calls = sum(r.cycles * k for r, k in measured.values())
    cycles = sum(r.cycles for r, _ in measured.values())
    assert calls / cycles <= SLACK * 124, calls / cycles
