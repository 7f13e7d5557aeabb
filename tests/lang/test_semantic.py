"""Semantic analysis (name resolution + type checking) tests."""

import pytest

from repro.errors import SemanticError
from repro.lang import analyze, parse_program
from repro.lang.types import BOOLEAN, FLOAT, INT, LONG, STRING


def check(src: str):
    prog = parse_program(src)
    return analyze(prog), prog


def check_fails(src: str, fragment: str = ""):
    with pytest.raises(SemanticError) as err:
        check(src)
    if fragment:
        assert fragment in str(err.value)


def wrap_main(body: str, extra_classes: str = "") -> str:
    return f"{extra_classes}\nclass M {{ static void main(String[] a) {{ {body} }} }}"


# --------------------------------------------------------------------- classes
def test_duplicate_class_rejected():
    check_fails("class A {} class A {}", "duplicate class")


def test_unknown_superclass():
    check_fails("class A extends Nope {}", "unknown superclass")


def test_inheritance_cycle():
    check_fails("class A extends B {} class B extends A {}", "cycle")


def test_duplicate_field():
    check_fails("class A { int x; float x; }", "duplicate field")


def test_field_shadowing_rejected():
    check_fails("class A { int x; } class B extends A { int x; }", "shadows")


def test_no_overloading():
    check_fails("class A { void f() {} void f(int x) {} }", "overloading")


def test_default_ctor_synthesized():
    table, _ = check("class A { }")
    assert table.resolve_ctor("A") is not None


def test_unknown_field_type():
    check_fails("class A { Missing m; }", "unknown type")


# --------------------------------------------------------------------- expressions
def test_arithmetic_promotion_types():
    _, prog = check(wrap_main("int i = 1; long l = 2L; float f = i + l * 1.5;"))
    stmts = prog.classes[-1].methods[0].body.stmts
    assert stmts[2].init.ty is FLOAT
    assert stmts[2].init.right.ty is FLOAT


def test_string_concat_types_as_string():
    _, prog = check(wrap_main('String s = "n=" + 5;'))
    init = prog.classes[-1].methods[0].body.stmts[0].init
    assert init.ty is STRING


def test_condition_must_be_boolean():
    check_fails(wrap_main("if (1) { }"), "condition")
    check_fails(wrap_main("while (\"x\") { }"), "condition")


def test_logical_ops_require_boolean():
    check_fails(wrap_main("boolean b = 1 && 2;"))


def test_bitwise_ops_reject_float():
    check_fails(wrap_main("float f = 1.0; int x = 1 & 2; float y = f & 1.0;"))


def test_shift_amount_must_be_int():
    check_fails(wrap_main("long l = 1L << 2L;"), "shift amount")


def test_comparison_mixed_numeric_ok():
    check(wrap_main("boolean b = 1 < 2.5;"))


def test_equality_reference_vs_numeric():
    check(wrap_main("String s = null; boolean b = s == null;"))
    check_fails(wrap_main('boolean b = "x" == 1;'))


def test_unary_minus_requires_numeric():
    check_fails(wrap_main("boolean b = true; int x = -0 + (-1); b = !b; int y = 0; y = -y; float f = -(1.0); boolean c = -b > 0;"))


def test_assignment_widening_ok_narrowing_rejected():
    check(wrap_main("long l = 5; float f = l;"))
    check_fails(wrap_main("int i = 5L;"), "cannot assign")


def test_explicit_narrowing_cast_ok():
    check(wrap_main("int i = (int) 5L; int j = (int) 1.9;"))


def test_cannot_cast_boolean_to_int():
    check_fails(wrap_main("int i = (int) true;"))


def test_array_indexing_types():
    check(wrap_main("int[] xs = new int[3]; xs[0] = 1; int y = xs[2];"))
    check_fails(wrap_main("int[] xs = new int[3]; xs[1.5] = 1;"), "index")
    check_fails(wrap_main("int x = 1; int y = x[0];"), "non-array")


def test_array_length_requires_array():
    check(wrap_main("float[] xs = new float[2]; int n = xs.length;"))
    check_fails(wrap_main("int n = 5; int m = n.length;"))


def test_array_size_must_be_int():
    check_fails(wrap_main("int[] xs = new int[2L];"), "length")


# --------------------------------------------------------------------- names
def test_unknown_name():
    check_fails(wrap_main("int x = nope;"), "unknown name")


def test_duplicate_local():
    check_fails(wrap_main("int x = 1; int x = 2;"), "duplicate local")


def test_block_scoping_allows_shadow_free_reuse():
    check(wrap_main("{ int x = 1; } { int x = 2; }"))


def test_field_access_via_this_and_unqualified():
    check("""
    class A {
        int v;
        int get() { return v; }
        int get2() { return this.v; }
        static void main(String[] a) { }
    }
    """)


def test_instance_field_from_static_context_rejected():
    check_fails(
        "class A { int v; static void main(String[] a) { int x = v; } }",
        "static context",
    )


def test_instance_method_from_static_context_rejected():
    check_fails(
        "class A { int f() { return 1; } static void main(String[] a) { f(); } }",
        "static context",
    )


def test_this_in_static_context_rejected():
    check_fails("class A { static void main(String[] a) { A x = this; } }", "'this'")


def test_static_field_access_via_class_name():
    check("""
    class Config { static int limit = 10; }
    class M { static void main(String[] a) { int x = Config.limit; } }
    """)


def test_static_method_call_via_class_name():
    check("""
    class Util { static int twice(int x) { return x * 2; } }
    class M { static void main(String[] a) { int y = Util.twice(3); } }
    """)


def test_static_method_called_on_instance_rejected():
    check_fails("""
    class Util { static int f() { return 1; } }
    class M { static void main(String[] a) { Util u = new Util(); u.f(); } }
    """, "static method")


# --------------------------------------------------------------------- calls
def test_arity_checked():
    check_fails("""
    class A { int f(int x) { return x; }
              static void main(String[] a) { A o = new A(); o.f(); } }
    """, "expects 1 args")


def test_argument_types_checked():
    check_fails("""
    class A { int f(int x) { return x; }
              static void main(String[] a) { A o = new A(); o.f("s"); } }
    """, "argument")


def test_virtual_dispatch_through_superclass():
    check("""
    class Base { int f() { return 1; } }
    class Derived extends Base { }
    class M { static void main(String[] a) {
        Derived d = new Derived(); int x = d.f(); } }
    """)


def test_ctor_arity_checked():
    check_fails("""
    class A { A(int x) { } }
    class M { static void main(String[] a) { A o = new A(); } }
    """, "expects 1 args")


def test_cannot_instantiate_static_only_builtins():
    check_fails(wrap_main("Math m = new Math();"), "cannot instantiate")
    check_fails(wrap_main('String s = new String();'), "cannot instantiate")


def test_builtin_vector_api():
    check(wrap_main(
        'Vector v = new Vector(); v.add("a"); int n = v.size(); '
        "String s = (String) v.get(0);"
    ))


def test_math_builtins_typed():
    _, prog = check(wrap_main("float r = Math.sqrt(2.0); int m = Math.imax(1, 2);"))
    stmts = prog.classes[-1].methods[0].body.stmts
    assert stmts[0].init.ty is FLOAT
    assert stmts[1].init.ty is INT


def test_println_accepts_anything():
    check(wrap_main('Sys.println(1); Sys.println("x"); Sys.println(1.5);'))


def test_return_type_checked():
    check_fails("class A { int f() { return \"s\"; } }", "return")
    check_fails("class A { void f() { return 1; } }", "void method")
    check_fails("class A { int f() { return; } }", "missing return value")


def test_break_outside_loop_rejected():
    check_fails(wrap_main("break;"), "outside loop")


def test_vector_get_returns_object_needs_cast():
    check_fails(wrap_main(
        "Vector v = new Vector(); v.add(1); int x = v.get(0);"
    ), "cannot assign")


def test_instanceof_typechecks():
    check(wrap_main('Object o = "s"; boolean b = o instanceof String;'))
    check_fails(wrap_main("boolean b = 1 instanceof String;"), "non-reference")


# ---------------------------------------------------------------------------
# ClassTable.is_subtype: one ancestor-set lookup, kept honest by add_class
# ---------------------------------------------------------------------------
def test_is_subtype_follows_the_superclass_chain():
    table = analyze(parse_program(
        "class A { } class B extends A { } class C extends B { } class D { }"
    ))
    assert table.ancestors("C") == {"C", "B", "A", "Object"}
    for sub, sup, want in [
        ("C", "A", True), ("C", "C", True), ("A", "C", False),
        ("D", "A", False), ("D", "Object", True), ("Vector", "Object", True),
    ]:
        assert table.is_subtype(sub, sup) is want, (sub, sup)
    assert table.is_subtype("C", "A")  # second ask: served from the memo


def test_is_subtype_of_unknown_class_raises_until_it_is_added():
    from repro.lang.symbols import ClassInfo, ClassTable

    table = ClassTable()
    table.add_class(ClassInfo("Leaf", "Mid"))
    with pytest.raises(SemanticError, match="unknown class Mid"):
        table.is_subtype("Leaf", "Base")
    with pytest.raises(SemanticError, match="unknown class Nope"):
        table.is_subtype("Nope", "Leaf")
    assert table.is_subtype("Nope", "Object")  # everything is an Object
    table.add_class(ClassInfo("Base", "Object"))
    table.add_class(ClassInfo("Mid", "Base"))
    assert table.is_subtype("Leaf", "Base")
    assert not table.is_subtype("Base", "Leaf")
