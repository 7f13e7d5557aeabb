"""The compile path stays linear past the benchmark's 48 classes, as a
count — the hardware-independent half of the ``pipeline_cold`` evidence.

Python-level calls (``cProfile``'s ``total_calls``) per token for
``tokenize`` and for parsing the tokens, and per flat instruction for
``verify_program``, ``build_plan`` and ``rewrite_program``, on generated
programs of 24, 96 and 192 classes.  The rewriter is counted on a verified
program, as every pipeline runs it (loading verifies), so it reads the
verifier's cached walk instead of paying for it.  A linear layer spends the
same number of calls on every token or instruction whatever the program's
size, so the 192 : 24 ratio is bounded; the absolute level is capped a
tenth above what shipped, so that a per-token or per-instruction helper call
does not creep back in.  Wall-clock evidence is ``perfbench``'s (``run_s`` @
``pipeline_cold``); its generated programs stop at 48 classes, which is why
the larger rows live here.
"""

import cProfile
import pstats

import pytest

from helpers import compile_mj_raw, scaling_source, two_node_plan_arguments

from repro.bytecode.verifier import verify_program
from repro.distgen import build_plan, rewrite_program
from repro.lang import tokenize
from repro.lang.parser import Parser

SIZES = (24, 96, 192)
MAX_GROWTH = 1.25  # calls per unit at 192 classes : at 24 classes

#: shipped calls per unit at 24 / 96 / 192 classes, and the parent commit's:
#: tokenize  6.3 /  6.3 /  6.3  (29.0 / 29.1 / 29.2: a call per character)
#: parse     4.5 /  4.5 /  4.5  (14.6 / 14.6 / 14.6: a helper call per token
#:           read, an ``Enum.__hash__`` per operator-table lookup)
#: plan      9.8 /  9.3 /  9.3  (14.3 / 23.8 / 33.8: numpy per vertex per
#:           step, every virtual site tried against every instantiated class)
#: verify    1.8 /  1.8 /  1.8  (6.7 / 6.7 / 6.7: a dict worklist, a
#:           ``max()`` and a ``stack_effect`` per instruction)
#: rewrite   4.8 /  4.2 /  4.1  (6.3 / 5.5 / 5.4: on an unverified program,
#:           its ``this`` analysis walking depths of its own)
MAX_CALLS = {"tokenize": 6.9, "parse": 5.0, "verify_program": 2.0,
             "build_plan": 10.8, "rewrite_program": 5.3}


def calls_of(fn, *args, **kwargs):
    profile = cProfile.Profile()
    result = profile.runcall(fn, *args, **kwargs)
    return pstats.Stats(profile).total_calls, result


@pytest.fixture(scope="module")
def calls_per_unit():
    """``{layer: {n_classes: calls per token or per instruction}}``."""
    table = {layer: {} for layer in MAX_CALLS}
    for n_classes in SIZES:
        source = scaling_source(n_classes)
        calls, tokens = calls_of(tokenize, source)
        table["tokenize"][n_classes] = calls / len(tokens)
        calls, _ = calls_of(Parser(tokens).parse_program)
        table["parse"][n_classes] = calls / len(tokens)

        program, _ = compile_mj_raw(source)
        instructions = sum(
            len(method.flat())
            for bclass in program.classes.values()
            for method in bclass.methods.values()
        )
        calls, _ = calls_of(verify_program, program)
        table["verify_program"][n_classes] = calls / instructions
        calls, plan = calls_of(build_plan, program, 2, **two_node_plan_arguments())
        table["build_plan"][n_classes] = calls / instructions
        calls, (_, stats) = calls_of(rewrite_program, program, plan)
        assert stats.total > n_classes  # the rewriter had work at every size
        table["rewrite_program"][n_classes] = calls / instructions
    return table


@pytest.mark.parametrize("layer", sorted(MAX_CALLS))
def test_calls_per_unit_do_not_grow_with_the_program(calls_per_unit, layer):
    per_unit = calls_per_unit[layer]
    assert per_unit[192] <= MAX_GROWTH * per_unit[24], per_unit
    assert max(per_unit.values()) <= MAX_CALLS[layer], per_unit
