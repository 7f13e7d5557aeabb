"""Parser unit tests."""

import pytest

from repro.errors import ParseError
from repro.lang import ast
from repro.lang.parser import parse_program
from repro.lang.types import BOOLEAN, FLOAT, INT, LONG, ArrayType, ClassType, VOID


def parse_class(body: str) -> ast.ClassDecl:
    return parse_program(f"class T {{ {body} }}").classes[0]


def parse_method_body(stmts: str):
    cd = parse_class(f"void m() {{ {stmts} }}")
    return cd.methods[0].body.stmts


def parse_expr(expr: str) -> ast.Expr:
    stmts = parse_method_body(f"int x = {expr};")
    return stmts[0].init


def test_empty_class():
    cd = parse_class("")
    assert cd.name == "T"
    assert cd.superclass is None
    assert cd.fields == [] and cd.methods == []


def test_extends():
    prog = parse_program("class A {} class B extends A {}")
    assert prog.classes[1].superclass == "A"


def test_field_declarations():
    cd = parse_class("int a; static float b; String c = \"x\";")
    assert [f.name for f in cd.fields] == ["a", "b", "c"]
    assert cd.fields[0].ty is INT
    assert cd.fields[1].is_static and cd.fields[1].ty is FLOAT
    assert isinstance(cd.fields[2].init, ast.StrLit)


def test_modifiers_are_accepted_and_ignored():
    cd = parse_class("public int a; private static final long b;")
    assert not cd.fields[0].is_static
    assert cd.fields[1].is_static


def test_constructor_recognized_by_name():
    cd = parse_class("T(int x) { }")
    ctor = cd.methods[0]
    assert ctor.is_ctor and ctor.name == "<init>"
    assert ctor.params[0].ty is INT


def test_method_signature():
    cd = parse_class("static int f(float a, boolean[] b) { return 0; }")
    m = cd.methods[0]
    assert m.is_static and m.ret is INT
    assert m.params[0].ty is FLOAT
    assert m.params[1].ty == ArrayType(BOOLEAN)


def test_array_types_nest():
    cd = parse_class("int[][] grid;")
    assert cd.fields[0].ty == ArrayType(ArrayType(INT))


def test_vardecl_vs_expression_disambiguation():
    stmts = parse_method_body("Foo x; foo.bar(); Foo[] ys; foo[1] = 2;")
    assert isinstance(stmts[0], ast.VarDecl)
    assert isinstance(stmts[1], ast.ExprStmt)
    assert isinstance(stmts[2], ast.VarDecl)
    assert stmts[2].ty == ArrayType(ClassType("Foo"))
    assert isinstance(stmts[3], ast.ExprStmt)
    assert isinstance(stmts[3].expr, ast.Assign)


def test_if_else_binding():
    stmts = parse_method_body("if (a) if (b) x = 1; else x = 2;")
    outer = stmts[0]
    assert isinstance(outer, ast.If)
    inner = outer.then
    assert isinstance(inner, ast.If)
    assert inner.otherwise is not None  # else binds to the nearest if
    assert outer.otherwise is None


def test_for_loop_parts():
    stmts = parse_method_body("for (int i = 0; i < 3; i++) { }")
    loop = stmts[0]
    assert isinstance(loop, ast.For)
    assert isinstance(loop.init, ast.VarDecl)
    assert isinstance(loop.cond, ast.Binary)
    assert isinstance(loop.update, ast.Assign)


def test_for_loop_empty_parts():
    loop = parse_method_body("for (;;) { break; }")[0]
    assert loop.init is None and loop.cond is None and loop.update is None


def test_while_break_continue():
    stmts = parse_method_body("while (c) { break; continue; }")
    body = stmts[0].body
    assert isinstance(body.stmts[0], ast.Break)
    assert isinstance(body.stmts[1], ast.Continue)


def test_precedence_arithmetic():
    e = parse_expr("1 + 2 * 3")
    assert e.op == "+" and e.right.op == "*"


def test_precedence_shift_vs_additive():
    e = parse_expr("a << 1 + 2")
    assert e.op == "<<"
    assert e.right.op == "+"


def test_precedence_bitwise_chain():
    e = parse_expr("a | b ^ c & d")
    assert e.op == "|"
    assert e.right.op == "^"
    assert e.right.right.op == "&"


def test_logical_lower_than_comparison():
    e = parse_expr("a < b && c > d")
    assert e.op == "&&"
    assert e.left.op == "<" and e.right.op == ">"


def test_assignment_right_associative():
    e = parse_expr("a = b = 1")
    assert isinstance(e, ast.Assign)
    assert isinstance(e.value, ast.Assign)


def test_compound_assignment_desugars():
    e = parse_expr("a += 2")
    assert isinstance(e, ast.Assign)
    assert isinstance(e.value, ast.Binary) and e.value.op == "+"


def test_increment_desugars():
    pre = parse_expr("++a")
    post = parse_expr("a++")
    for e in (pre, post):
        assert isinstance(e, ast.Assign)
        assert e.value.op == "+"


def test_unary_chain():
    e = parse_expr("--x")  # pre-decrement, not double negation
    assert isinstance(e, ast.Assign)
    e2 = parse_expr("-(-x)")
    assert isinstance(e2, ast.Unary) and isinstance(e2.operand, ast.Unary)


def test_cast_vs_parenthesized_expr():
    cast = parse_expr("(Foo) x")
    assert isinstance(cast, ast.Cast)
    # lowercase identifier in parens is grouping, not a cast
    grouped = parse_expr("(foo) + x")
    assert isinstance(grouped, ast.Binary)


def test_primitive_cast():
    e = parse_expr("(int) f")
    assert isinstance(e, ast.Cast) and e.to is INT


def test_new_object_and_array():
    obj = parse_expr("new Foo(1, 2)")
    assert isinstance(obj, ast.New) and len(obj.args) == 2
    arr = parse_expr("new int[10]")
    assert isinstance(arr, ast.NewArray) and arr.elem_ty is INT
    arr2 = parse_expr("new Foo[n]")
    assert isinstance(arr2, ast.NewArray)
    assert arr2.elem_ty == ClassType("Foo")


def test_postfix_chains():
    e = parse_expr("a.b.c(1)[2]")
    assert isinstance(e, ast.ArrayIndex)
    assert isinstance(e.target, ast.Call)
    assert isinstance(e.target.target, ast.FieldAccess)


def test_array_length_postfix():
    e = parse_expr("xs.length")
    assert isinstance(e, ast.ArrayLength)


def test_instanceof():
    e = parse_expr("x instanceof Foo")
    assert isinstance(e, ast.InstanceOf)


def test_this_and_null_and_booleans():
    assert isinstance(parse_expr("this"), ast.This)
    assert isinstance(parse_expr("null"), ast.NullLit)
    assert parse_expr("true").value is True
    assert parse_expr("false").value is False


def test_unqualified_call():
    e = parse_expr("helper(1)")
    assert isinstance(e, ast.Call) and e.target is None


def test_error_on_missing_semicolon():
    with pytest.raises(ParseError):
        parse_program("class A { void m() { int x = 1 } }")


def test_error_on_bad_assignment_target():
    with pytest.raises(ParseError):
        parse_program("class A { void m() { 1 = 2; } }")


def test_error_on_void_field():
    with pytest.raises(ParseError):
        parse_program("class A { void x; }")


def test_error_on_stray_token():
    with pytest.raises(ParseError):
        parse_program("class A { } }")


def test_long_literal_expression():
    e = parse_expr("1L")
    assert isinstance(e, ast.LongLit)


# ---------------------------------------------------------------------------
# operator table: every pair of binary operators (and instanceof)
# ---------------------------------------------------------------------------
#: Java's binary operator levels, loosest first — written out here, not read
#: from the parser, so the parser's table is checked against something
BINARY_LEVELS = [
    ["||"], ["&&"], ["|"], ["^"], ["&"], ["==", "!="],
    ["<", "<=", ">", ">=", "instanceof"], ["<<", ">>", ">>>"],
    ["+", "-"], ["*", "/", "%"],
]
LEVEL_OF = {op: lvl for lvl, ops in enumerate(BINARY_LEVELS) for op in ops}


def shape(e: ast.Expr) -> str:
    """Fully parenthesized rendering of an expression's AST."""
    if isinstance(e, ast.Binary):
        return f"({shape(e.left)} {e.op} {shape(e.right)})"
    if isinstance(e, ast.InstanceOf):
        return f"({shape(e.expr)} instanceof {e.of})"
    if isinstance(e, ast.Assign):
        return f"({shape(e.target)} = {shape(e.value)})"
    if isinstance(e, ast.IntLit):
        return str(e.value)
    assert isinstance(e, ast.VarRef), e
    return e.name


def test_operator_table_is_complete():
    from repro.lang.parser import _BINARY_OPS

    # indexed by token kind; a kind that is no operator has precedence 0
    assert sorted(op for prec, op in _BINARY_OPS if prec) == sorted(LEVEL_OF)
    assert len(LEVEL_OF) == 20


@pytest.mark.parametrize("first", sorted(LEVEL_OF))
def test_operator_pair_precedence_and_associativity(first):
    for second in LEVEL_OF:
        rhs1 = "B" if first == "instanceof" else "b"
        rhs2 = "C" if second == "instanceof" else "c"
        source = f"a {first} {rhs1} {second} {rhs2}"
        tighter_second = LEVEL_OF[second] > LEVEL_OF[first]
        if first == "instanceof" and tighter_second:
            # its right side is a type, which a tighter operator cannot
            # take as an operand: not an expression at all
            with pytest.raises(ParseError, match="expected SEMI"):
                parse_expr(source)
        elif tighter_second:
            assert shape(parse_expr(source)) == (
                f"(a {first} ({rhs1} {second} {rhs2}))"
            )
        else:  # equal levels group to the left
            assert shape(parse_expr(source)) == (
                f"((a {first} {rhs1}) {second} {rhs2})"
            )


def test_instanceof_then_equality():
    assert shape(parse_expr("a instanceof B == c")) == "((a instanceof B) == c)"
    assert shape(parse_expr("c == a instanceof B")) == "(c == (a instanceof B))"
    # the tighter operator is refused by the enclosing levels too
    with pytest.raises(ParseError, match=r"at 1:\d+: expected SEMI, found PLUS"):
        parse_expr("c == a instanceof B + 1")


def test_three_operands_same_level_lean_left():
    assert shape(parse_expr("a - b + c - d")) == "(((a - b) + c) - d)"
    assert shape(parse_expr("a < b instanceof C >= d")) == (
        "(((a < b) instanceof C) >= d)"
    )


def test_assignment_chain_with_compound():
    assert shape(parse_expr("x = y += 1")) == "(x = (y = (y + 1)))"
    assert shape(parse_expr("x = a || b && c")) == "(x = (a || (b && c)))"
    with pytest.raises(ParseError, match="invalid assignment target"):
        parse_expr("a + b = c")


def test_binary_operand_errors_name_the_offending_token():
    with pytest.raises(ParseError) as err:
        parse_program("class A { void m() {\n  x = a + * b; } }")
    assert (err.value.pos.line, err.value.pos.col) == (2, 11)
    assert "unexpected token '*'" in str(err.value)
