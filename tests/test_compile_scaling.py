"""The compile path stays linear past the benchmark's 48 classes, as a
count — the hardware-independent half of the ``pipeline_cold`` evidence.

Python-level calls (``cProfile``'s ``total_calls``) per token for
``tokenize``, for parsing the tokens and for ``analyze``, and per flat
instruction for ``compile_program``, ``verify_program``, ``build_plan``,
``build_crg``, ``compute_object_set`` and ``rewrite_program``, on generated
programs of 24, 96 and 192 classes.  The rewriter is counted on a verified
program, as every pipeline runs it (loading verifies), so it reads the
verifier's cached walk instead of paying for it.  A linear layer spends the
same number of calls on every token or instruction whatever the program's
size, so the 192 : 24 ratio is bounded; the absolute level is capped a
tenth above what shipped, so that a per-token or per-instruction helper call
does not creep back in.  Wall-clock evidence is ``perfbench``'s (``run_s`` @
``pipeline_cold``); its generated programs stop at 48 classes, which is why
the larger rows live here.

Three more counts hold this file's other savings: automatic collections
during one pass from source to rewritten bytecode (the stages run with the
collector paused, ``repro.acyclic``), Python calls per mask of a 15-vertex
exhaustive bisection (the Gray-code walk), and ``grow_bisection`` calls per
``build_plan`` (one initial bisection serves every balance tolerance).
"""

import gc
import random

import pytest

from helpers import profiled, scaling_source, two_node_plan_arguments

from repro.analysis import (
    build_crg,
    build_odg,
    compute_object_set,
    rapid_type_analysis,
)
from repro.bytecode import compile_program
from repro.bytecode.verifier import verify_program
from repro.distgen import build_plan, rewrite_program
from repro.errors import SemanticError, SourcePosition
from repro.graph.wgraph import WeightedGraph
from repro.lang import analyze, ast, parse_program, tokenize
from repro.lang.parser import Parser
from repro.partition.multilevel import exhaustive_bisect
from repro.vm import load_program

SIZES = (24, 96, 192)
MAX_GROWTH = 1.25  # calls per unit at 192 classes : at 24 classes

#: shipped calls per unit at 24 / 96 / 192 classes under ``PYTHONHASHSEED=0``,
#: and the parent commit's:
#: tokenize  3.2 /  3.2 /  3.2  (6.3 / 6.3 / 6.3: a ``Token`` and a
#:           ``SourcePosition`` constructor per token; 29.0 / 29.1 / 29.2
#:           before that, a call per character)
#: parse     2.9 /  2.9 /  2.9  (3.5 / 3.5 / 3.5: a ``SourcePosition`` per
#:           node; 4.5 before that, 2.7 ``__init__`` calls per node, up the
#:           ``Node`` / ``Expr`` chain, and a ``dict.get`` per operator-table
#:           lookup; 14.6 before that, a helper call per token read, an
#:           ``Enum.__hash__`` per operator-table lookup)
#: analyze   3.1 /  3.1 /  3.1  (3.7 / 3.6 / 3.6: a ``supers()`` generator
#:           per member lookup; 8.5 / 8.5 / 8.4 before that, an
#:           ``isinstance`` test per expression kind tried, and a second
#:           method call per expression)
#: compile_program
#:           8.9 /  8.9 /  8.9  (9.9 / 9.9 / 9.9: two ``dict.get`` per
#:           ``Instr`` built and a ``supers()`` generator per member lookup;
#:           18.0 / 17.9 / 17.9 before that, ``isinstance`` chains, a
#:           wrapper call per emitted instruction, and a dict literal and a
#:           helper call per load, store or return opcode)
#: plan      2.9 /  2.9 /  3.0  (5.0 / 4.4 / 4.2: five partitioner runs,
#:           one per tolerance, each coarsening and growing the same initial
#:           bisection or enumerating the same masks, at five or so calls per
#:           mask; 10.4 / 9.7 / 9.7 before that, loop depths rewalked per
#:           method by the CRG and twice per class by the CPU estimate, with
#:           a ``frequency_factor`` and an ``op.cost_of`` call per
#:           instruction; 14.3 / 23.8 / 33.8 before that, numpy per vertex
#:           per step, every virtual site tried against every instantiated
#:           class)
#: crg       1.3 /  1.2 /  1.3  (2.5 / 2.4 / 2.5: a ``frequency_factor`` call
#:           per instruction, and a ``RelEdge`` built per access even when
#:           its edge existed), loop levels included
#: objects   0.26 / 0.25 / 0.28  (0.43 / 0.42 / 0.44: a set of loop indices
#:           rebuilt per call site), on the loop levels the CRG left
#: verify    1.6 /  1.6 /  1.6  (1.8 / 1.8 / 1.8: a ``supers()`` generator
#:           per invoke's callee lookup; 6.7 / 6.7 / 6.7 before that, a dict
#:           worklist, a ``max()`` and a ``stack_effect`` per instruction)
#: rewrite   4.2 /  3.7 /  3.7  (4.8 / 4.2 / 4.1: a ``supers()`` generator
#:           per member lookup; 6.3 / 5.5 / 5.4 before that, on an
#:           unverified program, its ``this`` analysis walking depths of its
#:           own)
MAX_CALLS = {"tokenize": 3.5, "parse": 3.2, "analyze": 3.5,
             "compile_program": 9.8, "verify_program": 1.8,
             "build_plan": 3.3, "build_crg": 1.5,
             "compute_object_set": 0.31, "rewrite_program": 4.7}


@pytest.fixture(scope="module")
def calls_per_unit():
    """``{layer: {n_classes: calls per token or per instruction}}``."""
    table = {layer: {} for layer in MAX_CALLS}
    for n_classes in SIZES:
        source = scaling_source(n_classes)
        tokens, calls, *_ = profiled(tokenize, source)
        table["tokenize"][n_classes] = calls / len(tokens)
        tree, calls, *_ = profiled(Parser(tokens).parse_program)
        table["parse"][n_classes] = calls / len(tokens)
        classes, calls, *_ = profiled(analyze, tree)
        table["analyze"][n_classes] = calls / len(tokens)

        program, compile_calls, *_ = profiled(compile_program, tree, classes)
        instructions = sum(
            len(method.flat())
            for bclass in program.classes.values()
            for method in bclass.methods.values()
        )
        table["compile_program"][n_classes] = compile_calls / instructions
        calls = profiled(verify_program, program).calls
        table["verify_program"][n_classes] = calls / instructions
        plan, calls, *_ = profiled(build_plan, program, 2, **two_node_plan_arguments())
        table["build_plan"][n_classes] = calls / instructions
        # a copy has no flat forms yet: the CRG pays for the loop levels, and
        # the object set reads the ones the CRG left, as in every pipeline
        cg = rapid_type_analysis(program.copy())
        calls = profiled(build_crg, cg).calls
        table["build_crg"][n_classes] = calls / instructions
        calls = profiled(compute_object_set, cg).calls
        table["compute_object_set"][n_classes] = calls / instructions
        (_, stats), calls, *_ = profiled(rewrite_program, program, plan)
        assert stats.total > n_classes  # the rewriter had work at every size
        table["rewrite_program"][n_classes] = calls / instructions
    return table


@pytest.mark.parametrize("layer", sorted(MAX_CALLS))
def test_calls_per_unit_do_not_grow_with_the_program(calls_per_unit, layer):
    per_unit = calls_per_unit[layer]
    assert per_unit[192] <= MAX_GROWTH * per_unit[24], per_unit
    assert max(per_unit.values()) <= MAX_CALLS[layer], per_unit


def test_loop_levels_are_computed_once_per_method():
    """Loop levels are a fact of a method's flat form: from source to plan,
    through both CRG builds (the analysis layer's and ``build_plan``'s), the
    object set and the CPU estimate of every class, each method's levels
    are computed at most once."""
    def parse_to_plan(source):
        tree = parse_program(source)
        program = compile_program(tree, analyze(tree))
        verify_program(program)
        cg = rapid_type_analysis(program)
        build_odg(cg, build_crg(cg), compute_object_set(cg))
        build_plan(program, 2, **two_node_plan_arguments())
        return program

    program, _, by_name, _ = profiled(parse_to_plan, scaling_source(24))
    methods = sum(len(c.methods) for c in program.classes.values())
    assert 0 < by_name["loops.py:_levels_of"] <= methods


def test_tokens_are_tuples_the_collector_stops_tracking():
    """A token is an exact tuple of atomic values, so after one collection
    the collector no longer walks it: a ``NamedTuple`` or a slotted object
    would stay tracked, and be walked by every full collection after."""
    tokens = tokenize(scaling_source(192))
    gc.collect()
    assert all(type(tok) is tuple and not gc.is_tracked(tok) for tok in tokens)


def _nodes(tree):
    """Every distinct node reachable from ``tree``; the parser's ``x++``
    desugaring shares ``x`` between two parents."""
    seen = {}
    stack = [tree]
    while stack:
        value = stack.pop()
        if isinstance(value, list):
            stack.extend(value)
        elif isinstance(value, ast.Node) and id(value) not in seen:
            seen[id(value)] = value
            stack.extend(
                getattr(value, slot)
                for klass in type(value).__mro__
                for slot in getattr(klass, "__slots__", ())
            )
    return seen.values()


def test_parse_builds_each_node_in_one_call():
    """One ``ast.py`` ``__init__`` per node the parser builds: constructors
    set inherited slots themselves instead of calling up the chain."""
    tokens = tokenize(scaling_source(24))
    tree, _, by_name, _ = profiled(Parser(tokens).parse_program)
    inits = sum(n for key, n in by_name.items() if key == "ast.py:__init__")
    assert inits == len(_nodes(tree))


def test_a_correct_program_builds_no_source_position():
    """A node keeps its line and column as two ints, and the type checker
    and the compiler make a position only for an error: from source to
    bytecode, a correct program constructs no ``SourcePosition``.  A
    program with a type error does, which shows that the count sees them."""
    init = SourcePosition.__init__.__code__
    key = (init.co_filename, init.co_firstlineno, "__init__")

    def front_to_bytecode(source):
        tree = parse_program(source)
        compile_program(tree, analyze(tree))

    def rejected(source):
        with pytest.raises(SemanticError):
            analyze(parse_program(source))

    assert key not in profiled(front_to_bytecode, scaling_source(96)).stats.stats
    broken = scaling_source(24).replace("return", "return true +", 1)
    assert profiled(rejected, broken).stats.stats[key][1] == 1


#: automatic collections by generation during one pass over
#: ``scaling_source(48)``, as shipped 1 / 0 / 0 (95 / 8 / 0 while every stage
#: ran with the collector on; the one left is set off by what the pass
#: allocates between two stages); gen 0 capped a tenth above, never a full one
MAX_COLLECTIONS = {0: 1, 1: 0, 2: 0}


def test_the_pipeline_runs_with_the_collector_paused():
    """The stages from parsing to rewriting leave no cyclic garbage
    (``tests/test_acyclic_stages.py``), so they run with automatic
    collection off, and a pass sets off only the collections that what
    runs between the stages allocates.  Counted with ``gc.callbacks`` from
    a collected heap: the count follows allocations, not the host."""
    def one_pass(source):
        tree = parse_program(source)
        program = compile_program(tree, analyze(tree))
        load_program(program)
        cg = rapid_type_analysis(program)
        crg = build_crg(cg)
        build_odg(cg, crg, compute_object_set(cg))
        plan = build_plan(program, 2, **plan_arguments)
        rewrite_program(program, plan)

    plan_arguments = two_node_plan_arguments()
    source = scaling_source(48)
    one_pass(scaling_source(8))  # imports, and the caches they fill
    started = dict.fromkeys(MAX_COLLECTIONS, 0)

    def count(phase, info):
        if phase == "start":
            started[info["generation"]] += 1

    gc.collect()
    gc.callbacks.append(count)
    try:
        one_pass(source)
    finally:
        gc.callbacks.remove(count)
    assert all(started[g] <= MAX_COLLECTIONS[g] for g in started), started


def _integral_graph(n: int) -> WeightedGraph:
    rng = random.Random(n)
    g = WeightedGraph(1)
    for i in range(n):
        g.add_node(i, [float(rng.randint(1, 9))])
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.3:
                g.add_edge(u, v, float(rng.randint(1, 5)))
    return g


#: Python calls per mask of one 15-vertex exhaustive bisection on integral
#: weights, as shipped 0.0156 (4.0 when each mask re-summed its side weights
#: and its cut)
MAX_CALLS_PER_MASK = 0.0172


def test_exhaustive_bisection_costs_no_call_per_mask():
    """The exhaustive bisection walks its 2**15 - 2 masks in Gray-code order
    with no Python call per mask: the side weights and the cut move by the
    one vertex that flips (ROADMAP item 14's cliff)."""
    calls = profiled(exhaustive_bisect, _integral_graph(15), 0.5, 1.3).calls
    assert calls / (2 ** 15 - 2) <= MAX_CALLS_PER_MASK, calls


def test_one_initial_bisection_serves_every_tolerance():
    """``build_plan`` partitions at five balance tolerances; coarsening and
    the initial bisection read none of them, so a two-node plan of a
    49-vertex class graph grows one initial bisection, not five."""
    tree = parse_program(scaling_source(48))
    program = compile_program(tree, analyze(tree))
    by_name = profiled(
        build_plan, program, 2, **two_node_plan_arguments()
    ).by_name
    assert by_name["initial.py:grow_bisection"] == 1
