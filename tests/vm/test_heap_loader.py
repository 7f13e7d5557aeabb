"""Heap accounting + class loader tests."""

import sys
import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))

import pytest

from helpers import compile_mj, compile_mj_raw

from repro.errors import VMError
from repro.vm.heap import ARRAY_HEADER, FIELD_SLOT, Heap, OBJECT_HEADER
from repro.vm.values import Ref


def test_object_allocation_and_fields():
    heap = Heap()
    template = {"x": 0, "f": 0.0}
    ref = heap.new_object("A", template)
    obj = heap.object(ref)
    assert obj.class_name == "A"
    assert obj.fields == {"x": 0, "f": 0.0}
    obj.fields["x"] = 7
    assert template == {"x": 0, "f": 0.0}
    assert heap.object(heap.new_object("A", template)).fields["x"] == 0


def test_array_allocation_defaults():
    heap = Heap()
    ref = heap.new_array("I", 5)
    arr = heap.array(ref)
    assert arr.data == [0] * 5
    ref2 = heap.new_array("LBank;", 2)
    assert heap.array(ref2).data == [None, None]


def test_negative_array_rejected():
    with pytest.raises(VMError):
        Heap().new_array("I", -1)


def test_size_model():
    heap = Heap()
    obj = heap.object(heap.new_object("A", {"x": 0, "y": 0}))
    assert obj.size_bytes() == OBJECT_HEADER + 2 * FIELD_SLOT
    arr = heap.array(heap.new_array("I", 10))
    assert arr.size_bytes() == ARRAY_HEADER + 4 * 10
    arr8 = heap.array(heap.new_array("F", 10))
    assert arr8.size_bytes() == ARRAY_HEADER + 8 * 10


def test_allocation_statistics():
    heap = Heap()
    heap.new_object("A", {})
    heap.new_array("I", 4)
    assert heap.allocated_objects == 2
    assert heap.allocated_bytes > 0
    assert heap.live_bytes == heap.allocated_bytes


def test_free_reduces_live_bytes():
    heap = Heap()
    ref = heap.new_object("A", {"x": 0})
    before = heap.live_bytes
    heap.free(ref)
    assert heap.live_bytes < before
    with pytest.raises(VMError):
        heap.get(ref)


def test_alloc_hook_fires():
    heap = Heap()
    events = []
    heap.alloc_hook = lambda kind, size: events.append((kind, size))
    heap.new_object("Bank", {})
    heap.new_array("I", 3)
    assert events[0][0] == "Bank"
    assert events[1][0] == "I[]"


def test_dangling_and_type_confusion():
    heap = Heap()
    ref = heap.new_object("A", {})
    with pytest.raises(VMError, match="not an array"):
        heap.array(ref)
    arr = heap.new_array("I", 1)
    with pytest.raises(VMError, match="not an object"):
        heap.object(arr)
    with pytest.raises(VMError, match="null"):
        heap.get(None)


# ------------------------------------------------------------------ loader
def test_statics_default_initialized():
    loaded = compile_mj("class A { static int x; static float f; static String s; }"
                        "class M { static void main(String[] a) { } }")
    assert loaded.statics[("A", "x")] == 0
    assert loaded.statics[("A", "f")] == 0.0
    assert loaded.statics[("A", "s")] is None


def test_clinit_runs_at_load():
    loaded = compile_mj("class A { static int x = 6 * 7; }"
                        "class M { static void main(String[] a) { } }")
    assert loaded.statics[("A", "x")] == 42


def test_fresh_statics_isolated():
    loaded = compile_mj("class A { static int x = 1; }"
                        "class M { static void main(String[] a) { } }")
    s1 = loaded.fresh_statics()
    s2 = loaded.fresh_statics()
    s1[("A", "x")] = 99
    assert s2[("A", "x")] == 1
    assert loaded.statics[("A", "x")] == 1


def test_field_layout_includes_inherited():
    loaded = compile_mj(
        "class Base { int a; } class Child extends Base { float b; }"
        "class M { static void main(String[] x) { } }"
    )
    names, chars = loaded.instance_field_layout("Child")
    assert names == ["a", "b"]     # superclass fields first
    assert chars == ["I", "F"]


def test_template_is_default_valued_and_built_once_per_class():
    loaded = compile_mj(
        "class Base { int a; Base r; } class Child extends Base { float b; }"
        "class M { static void main(String[] x) { } }"
    )
    child = loaded.templates["Child"]
    assert child == {"a": 0, "r": None, "b": 0.0}
    assert isinstance(child["b"], float)
    assert loaded.templates["Child"] is child
    assert loaded.templates["Nope"] == {}  # a built-in: no bytecode fields


def test_layout_cached():
    loaded = compile_mj("class A { int x; } class M { static void main(String[] a) { } }")
    assert loaded.instance_field_layout("A") is loaded.instance_field_layout("A")


def test_main_method_lookup():
    loaded = compile_mj("class M { static void main(String[] a) { } }")
    assert loaded.main_method().qualified == "M.main"


def test_main_missing_raises():
    from repro.bytecode import compile_program
    from repro.lang import analyze, parse_program
    from repro.vm import load_program

    ast = parse_program("class A { void f() { } }")
    loaded = load_program(compile_program(ast, analyze(ast)))
    with pytest.raises(VMError, match="no static main"):
        loaded.main_method()
