"""Resource model + loop analysis tests."""

import sys
import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))

from helpers import compile_mj_raw

from repro.analysis import (
    STATIC_HEURISTIC,
    UNIFORM,
    compute_object_set,
    rapid_type_analysis,
)
from repro.analysis.loops import (
    FREQUENCY,
    LOOP_SCALE,
    MAX_SCALED_DEPTH,
    loop_levels,
    static_cpu,
)
from repro.analysis.resources import NCON, from_profile


SRC = """
class Small { int a; }
class Big {
    int a; int b; int c; int d; int e;
    void spin() {
        int i;
        for (i = 0; i < 10; i++) {
            int j;
            for (j = 0; j < 10; j++) { a = a + 1; }
        }
    }
}
class M {
    static void main(String[] args) {
        Small s = new Small();
        Big b = new Big();
        b.spin();
        int i;
        for (i = 0; i < 5; i++) { Small t = new Small(); }
    }
}
"""


def objects_and_program():
    bp, _ = compile_mj_raw(SRC)
    cg = rapid_type_analysis(bp)
    return compute_object_set(cg), bp


def test_uniform_model_is_all_ones():
    objects, bp = objects_and_program()
    for obj in objects:
        assert UNIFORM.weights_for(obj, bp) == [1.0, 1.0, 1.0]


def test_heuristic_memory_scales_with_fields():
    objects, bp = objects_and_program()
    by_label = {o.label: o for o in objects}
    small = [o for o in objects if o.class_name == "Small" and not o.summary][0]
    big = [o for o in objects if o.class_name == "Big"][0]
    w_small = STATIC_HEURISTIC.weights_for(small, bp)
    w_big = STATIC_HEURISTIC.weights_for(big, bp)
    assert w_big[0] > w_small[0]   # more fields -> more memory
    assert w_big[1] > w_small[1]   # loops in spin() -> more cpu


def test_heuristic_summary_objects_heavier():
    objects, bp = objects_and_program()
    single = [o for o in objects if o.class_name == "Small" and not o.summary][0]
    summary = [o for o in objects if o.class_name == "Small" and o.summary][0]
    w1 = STATIC_HEURISTIC.weights_for(single, bp)
    w2 = STATIC_HEURISTIC.weights_for(summary, bp)
    assert w2[0] > w1[0] and w2[1] > w1[1]


def test_profiled_model_uses_measurements():
    objects, bp = objects_and_program()
    model = from_profile({"Big": 5000.0}, {"Big": 4096.0})
    big = [o for o in objects if o.class_name == "Big"][0]
    weights = model.weights_for(big, bp)
    assert weights[0] == 4096.0
    assert weights[1] == 5000.0
    assert len(weights) == NCON


def test_loop_levels():
    bp, _ = compile_mj_raw(SRC)
    spin = bp.classes["Big"].methods["spin"]
    levels = loop_levels(spin.flat())
    assert max(levels) == 2       # nested loops
    assert levels[0] == 0         # prologue before the loops
    assert len(levels) == len(spin.flat())


def test_loop_levels_are_capped_and_cached_on_the_flat_form():
    deep = "\n".join(
        f"for (i{k} = 0; i{k} < 2; i{k}++) {{" for k in range(5)
    )
    decls = " ".join(f"int i{k};" for k in range(5))
    bp, _ = compile_mj_raw(
        "class M { static void main(String[] args) { "
        f"{decls} int x; x = 0; {deep} x = x + 1; {'}' * 5} }} }}"
    )
    method = bp.classes["M"].methods["main"]
    flat = method.flat()
    levels = loop_levels(flat)
    assert max(levels) == MAX_SCALED_DEPTH
    assert loop_levels(flat) is levels
    cpu = static_cpu(flat)
    assert cpu == sum(
        ins.cost * LOOP_SCALE ** level for ins, level in zip(flat, levels)
    )
    method.invalidate()   # new code, new flat form, new levels
    assert method.flat().levels is None


def test_frequency_table_monotone_and_capped():
    assert FREQUENCY[0] == 1.0
    assert list(FREQUENCY) == sorted(set(FREQUENCY))
    assert len(FREQUENCY) == MAX_SCALED_DEPTH + 1


def test_apply_produces_ncon_graph():
    from repro.analysis import build_crg, build_odg

    bp, _ = compile_mj_raw(SRC)
    cg = rapid_type_analysis(bp)
    crg = build_crg(cg)
    objects = compute_object_set(cg)
    odg = build_odg(cg, crg, objects)
    graph, order = odg.partition_graph()
    weighted = STATIC_HEURISTIC.apply(graph, {o.uid: o for o in objects}, bp)
    assert weighted.ncon == NCON
    assert weighted.num_nodes == graph.num_nodes
    assert weighted.num_edges == graph.num_edges
    assert all(w > 0 for row in weighted.vwgts() for w in row)
