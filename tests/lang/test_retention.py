"""A compiled program lets go of the tree it was compiled from.

``compile_program`` reads the AST, and nothing it returns keeps it: the
symbol table holds names, types and flags, and call graphs, plans and
rewritten programs are built from bytecode.  Once the caller drops the
tree, every ``ast.Node`` and ``SourcePosition`` is freed at once, and the
collector's full passes walk only what later stages use.

The walk follows ``gc.get_referents`` from a ``BProgram``, its table, its
call graph, a two-node plan and the rewritten program, and does not descend
into classes, modules or module namespaces.  It also counts the tracked
objects it reaches per flat instruction of the compiled program, capped a
tenth above what shipped, so that an object kept per node or per
instruction shows.
"""

import gc
import sys
import types

import pytest

from helpers import compile_mj_raw, scaling_source, two_node_plan_arguments

from repro.analysis import rapid_type_analysis
from repro.distgen import build_plan, rewrite_program
from repro.errors import SourcePosition
from repro.lang import ast, parse_program
from repro.workloads import WORKLOADS

PROGRAMS = sorted(WORKLOADS) + ["gen24", "gen96", "gen192"]

#: reachable tracked objects per flat instruction, the most over
#: ``PROGRAMS``: 4.5 shipped (1.8 at 96 and 192 generated classes); 7.7 at
#: the parent commit (4.4), whose table held every declaration's tree
MAX_TRACKED_PER_INSTRUCTION = 5.0


def source_of(program):
    if program.startswith("gen"):
        return scaling_source(int(program[3:]))
    return WORKLOADS[program].source("test")


def reachable(*roots):
    """Every object reachable from ``roots``."""
    namespaces = {
        id(vars(module)) for module in list(sys.modules.values())
        if hasattr(module, "__dict__")
    }
    seen = {}
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen[id(obj)] = obj
        if not isinstance(obj, (type, types.ModuleType)) and id(obj) not in namespaces:
            stack.extend(gc.get_referents(obj))
    return list(seen.values())


def retention(program):
    """``(names of the tree classes reachable, tracked objects per flat
    instruction)`` for ``program`` compiled, planned on two nodes and
    rewritten."""
    bprogram, table = compile_mj_raw(source_of(program))
    instructions = sum(
        len(method.flat())
        for bclass in bprogram.classes.values()
        for method in bclass.methods.values()
    )
    plan = build_plan(bprogram, 2, **two_node_plan_arguments())
    rewritten, stats = rewrite_program(bprogram, plan)
    gc.collect()  # untracks the tuples that hold no container
    objects = reachable(
        bprogram, table, rapid_type_analysis(bprogram), plan, rewritten, stats
    )
    tree = sorted({
        type(obj).__name__ for obj in objects
        if isinstance(obj, (ast.Node, SourcePosition))
    })
    return tree, sum(map(gc.is_tracked, objects)) / instructions


@pytest.fixture(scope="module")
def retained():
    return {program: retention(program) for program in PROGRAMS}


@pytest.mark.parametrize("program", PROGRAMS)
def test_no_tree_node_is_reachable_from_a_compiled_program(retained, program):
    assert retained[program][0] == []


@pytest.mark.parametrize("program", PROGRAMS)
def test_tracked_objects_per_instruction_stay_pinned(retained, program):
    assert retained[program][1] <= MAX_TRACKED_PER_INSTRUCTION, retained[program]


def test_the_walk_finds_a_tree_where_there_is_one():
    """A tree holds its positions as ints, so the walk finds nodes and no
    ``SourcePosition``."""
    kinds = {type(obj) for obj in reachable(parse_program(source_of("bank")))}
    assert {ast.MethodDecl, ast.VarRef} <= kinds
    assert SourcePosition not in kinds
