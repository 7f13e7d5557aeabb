"""The ``(depth, bitmask)`` ``this`` analysis of the rewriter against the
list-copy analysis it replaced (``_reference_thisness``): the same abstract
stack before every instruction, and — with the reference swapped in — the
same ``RewriteStats`` and the same rewritten bytecode, on every bundled
workload and on generated 8 / 24 / 48 / 96-class programs, planned for two
nodes with the distribution forced.
"""

import sys
import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))

import pytest

from _reference_thisness import reference_thisness
from helpers import compile_mj_raw, scaling_source, two_node_plan_arguments

from repro.bytecode.model import Label
from repro.distgen import build_plan, rewrite_program
from repro.distgen import rewriter
from repro.workloads import WORKLOADS

PROGRAMS = {name: (lambda name=name: WORKLOADS[name].source("test"))
            for name in sorted(WORKLOADS)}
PROGRAMS.update({f"gen{n}": (lambda n=n: scaling_source(n)) for n in (8, 24, 48, 96)})


def as_bitmask_states(states):
    """Reference states (a list of booleans per instruction) in the shipped
    analysis' form."""
    return [
        None if st is None
        else (len(st), sum(1 << slot for slot, is_this in enumerate(st) if is_this))
        for st in states
    ]


def listing(program):
    """Every instruction of ``program``, labels by order of first use."""
    rows = []
    for bclass in program.classes.values():
        for method in bclass.methods.values():
            labels = {}

            def operand(value):
                if isinstance(value, Label):
                    return f"L{labels.setdefault(value, len(labels))}"
                return value

            rows.append((method.qualified, [
                (i.op, operand(i.a), operand(i.b), operand(i.c), i.line)
                for i in method.code
            ]))
    return rows


def outcome(program, plan):
    rewritten, stats = rewrite_program(program, plan)
    counts = (stats.instantiations, stats.invocations, stats.field_gets,
              stats.field_sets, stats.this_peepholes)
    return counts, listing(rewritten)


@pytest.mark.parametrize("name", PROGRAMS)
def test_this_states_and_rewrite_match_the_reference(name, monkeypatch):
    program, table = compile_mj_raw(PROGRAMS[name]())
    plan = build_plan(program, 2, **two_node_plan_arguments())
    assert plan.rewritten_classes(), "nothing to rewrite: the oracle is idle"

    analysed = 0
    for bclass in program.classes.values():
        for method in bclass.methods.values():
            want = reference_thisness(method, table)
            if method.is_static:
                # the shipped rewriter skips these: no slot is ever ``this``
                assert not any(any(st) for st in want if st)
                continue
            got = rewriter._MethodRewriter(
                program, method, plan, set(), set(), rewriter.RewriteStats()
            )._thisness()
            assert got == as_bitmask_states(want), method.qualified
            analysed += 1
    assert analysed

    shipped = outcome(program, plan)
    monkeypatch.setattr(
        rewriter._MethodRewriter, "_thisness",
        lambda self: as_bitmask_states(reference_thisness(self.method, self.table)),
    )
    assert outcome(program, plan) == shipped
    if name != "crypt":  # its one remote class never calls itself
        assert shipped[0][-1] > 0, "no this-peephole taken: nothing compared"
