"""The quad builder's block layout, read off the verifier's one walk, against
the leaders / successors / depth worklist it computed on its own before
(``_reference_flow``): the same block successors (in order), entry depths
and register count, and the same ``format_method`` listing, for every
method of every bundled workload and of generated 8 / 24 / 48-class
programs — compiled, and rewritten for two nodes with the distribution
forced."""

import sys
import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))

import pytest

from _reference_flow import reference_layout
from helpers import compile_mj_raw, scaling_source, two_node_plan_arguments

from repro.distgen import build_plan, rewrite_program
from repro.quad import build_quads, format_method
from repro.quad.builder import _Builder
from repro.workloads import WORKLOADS

PROGRAMS = {name: (lambda name=name: WORKLOADS[name].source("test"))
            for name in sorted(WORKLOADS)}
PROGRAMS.update({f"gen{n}": (lambda n=n: scaling_source(n)) for n in (8, 24, 48)})


class _ReferenceBuilder(_Builder):
    def _layout(self):
        return reference_layout(self)


@pytest.mark.parametrize("name", PROGRAMS)
def test_layout_and_listing_match_the_reference(name):
    program, table = compile_mj_raw(PROGRAMS[name]())
    plan = build_plan(program, 2, **two_node_plan_arguments())
    rewritten, stats = rewrite_program(program, plan)
    assert stats.total, "nothing rewritten: the rewritten half is idle"
    methods = 0
    for prog in (program, rewritten):
        for bclass in prog.classes.values():
            for method in bclass.methods.values():
                builder = _Builder(method, table)
                assert builder._layout() == reference_layout(builder), \
                    method.qualified
                want = format_method(_ReferenceBuilder(method, table).build())
                assert format_method(build_quads(method, table)) == want, \
                    method.qualified
                methods += 1
    assert methods > 2 * len(program.classes)
