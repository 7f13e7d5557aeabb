"""Bytecode compiler structural tests: the emitted instruction shapes the
rest of the infrastructure pattern-matches on."""

import sys
import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))

import pytest

from helpers import compile_mj_raw

from repro.bytecode import opcodes as op
from repro.errors import CompileError


def method_ops(src: str, cls: str, name: str):
    bp, _ = compile_mj_raw(src)
    return [ins.op for ins in bp.classes[cls].methods[name].flat()]


def test_new_compiles_to_new_dup_invokespecial():
    ops = method_ops(
        """
        class A { A(int x) { } }
        class M { static void main(String[] a) { A o = new A(1); } }
        """,
        "M", "main",
    )
    i = ops.index(op.NEW)
    assert ops[i + 1] == op.DUP
    assert op.INVOKESPECIAL in ops[i + 2 :]


def test_string_concat_lowers_to_str_concat():
    bp, _ = compile_mj_raw(
        'class M { static void main(String[] a) { Sys.println("x" + 1); } }'
    )
    instrs = list(bp.classes["M"].methods["main"].flat())
    calls = [(i.a, i.b) for i in instrs if i.op == op.INVOKESTATIC]
    assert ("Str", "concat") in calls
    assert ("Sys", "println") in calls


def test_instance_field_init_runs_in_ctor():
    bp, _ = compile_mj_raw("class A { int x = 42; }")
    ctor = bp.classes["A"].methods["<init>"]
    ops = [i.op for i in ctor.flat()]
    assert op.PUTFIELD in ops
    assert ops[-1] == op.RETURN


def test_static_init_becomes_clinit():
    bp, _ = compile_mj_raw("class A { static int x = 42; static int y; }")
    clinit = bp.classes["A"].methods["<clinit>"]
    ops = [i.op for i in clinit.flat()]
    assert ops.count(op.PUTSTATIC) == 1  # only initialized fields


def test_no_clinit_without_static_inits():
    bp, _ = compile_mj_raw("class A { static int x; int y = 1; }")
    assert "<clinit>" not in bp.classes["A"].methods


def test_widening_conversions_inserted():
    ops = method_ops(
        "class M { static void main(String[] a) { long l = 1; float f = l; } }",
        "M", "main",
    )
    assert op.I2L in ops
    assert op.L2F in ops


def test_comparison_in_value_position_materializes():
    ops = method_ops(
        "class M { static void main(String[] a) { boolean b = 1 < 2; } }",
        "M", "main",
    )
    assert op.IF_ICMP in ops
    assert ops.count(op.LDC) >= 4  # 1, 2, true, false


def test_condition_in_branch_position_does_not_materialize():
    ops = method_ops(
        "class M { static void main(String[] a) { if (1 < 2) { Sys.println(1); } } }",
        "M", "main",
    )
    assert ops.count(op.IF_ICMP) == 1
    assert op.IFFALSE not in ops


def test_superclass_with_args_ctor_rejected_for_implicit_chain():
    with pytest.raises(CompileError, match="zero-arg"):
        compile_mj_raw(
            """
            class Base { Base(int x) { } }
            class Child extends Base { }
            """
        )


def test_main_class_detected():
    bp, _ = compile_mj_raw(
        "class A { } class M { static void main(String[] a) { } }"
    )
    assert bp.main_class == "M"


def test_max_locals_accounts_for_params_and_temps():
    bp, _ = compile_mj_raw(
        """
        class A {
            int f(int a, int b) { int c = a + b; int d = c * 2; return d; }
        }
        """
    )
    m = bp.classes["A"].methods["f"]
    assert m.max_locals >= 5  # this, a, b, c, d


def test_flat_resolves_labels_to_indices():
    bp, _ = compile_mj_raw(
        """
        class M {
            static int f(int n) {
                int s = 0;
                while (n > 0) { s += n; n--; }
                return s;
            }
        }
        """
    )
    flat = bp.classes["M"].methods["f"].flat()
    for ins in flat:
        if ins.op in op.BRANCHES:
            target = ins.b if ins.op in op.CMP_BRANCHES else ins.a
            assert isinstance(target, int)
            assert 0 <= target <= len(flat)


def test_program_copy_is_deep():
    bp, _ = compile_mj_raw("class M { static void main(String[] a) { int x = 1; } }")
    cp = bp.copy()
    cp.classes["M"].methods["main"].code.clear()
    assert len(bp.classes["M"].methods["main"].code) > 0


def test_size_bytes_positive_and_additive():
    bp, _ = compile_mj_raw(
        "class A { int x; void f() { x = 1; } } class B { }"
    )
    assert bp.size_bytes() > 0
    assert bp.size_bytes() >= bp.classes["A"].size_bytes()


def test_pop_inserted_for_discarded_values():
    ops = method_ops(
        """
        class A { int f() { return 1; } }
        class M { static void main(String[] a) { A o = new A(); o.f(); } }
        """,
        "M", "main",
    )
    assert op.POP in ops


# ---------------------------------------------------------------------------
# deep expressions: operator chains have no depth limit, real nesting ends
# in a structured error
# ---------------------------------------------------------------------------
def _main_with(body: str) -> str:
    return "class M { static void main(String[] a) { int x = 3; %s } }" % body


@pytest.mark.parametrize("engine", ["reference", "compiled"])
def test_five_thousand_operand_sum_compiles_and_runs(engine):
    from helpers import compile_mj
    from repro.vm import run_main
    from repro.vm.interpreter import forced_engine

    total = " + ".join(["x"] * 5000)
    source = _main_with(f'int y = {total}; Sys.println("" + y);')
    with forced_engine(engine):
        assert run_main(compile_mj(source)).stdout == ["15000"]


def test_long_chains_of_every_operator_family_run_correctly():
    """Arithmetic with coercions, string concatenation, ``&&`` and ``||``
    (as a condition and as a value): 3 000 operands each."""
    from helpers import stdout_of

    def chain(operand, sep, n=3000):
        return sep.join([operand] * n)

    assert stdout_of(_main_with(
        'long y = 1L + %s; Sys.println("" + y);' % chain("x", " + ")
    )) == ["9001"]
    assert stdout_of(_main_with(
        'String s = "" + %s; Sys.println(s);' % chain("x", " + ")
    )) == ["3" * 3000]
    assert stdout_of(_main_with(
        'if (%s && x > 3) { Sys.println("all"); } else { Sys.println("last"); }'
        % chain("x > 0", " && ")
    )) == ["last"]
    assert stdout_of(_main_with(
        'boolean b = %s || x == 3; if (b) { Sys.println("last"); }'
        % chain("x < 0", " || ")
    )) == ["last"]
    assert stdout_of(_main_with(
        'while (x > 0 && (%s || x > 1)) { x = x - 1; } Sys.println("" + x);'
        % chain("x == 9", " || ")
    )) == ["1"]


def test_generated_192_class_program_compiles():
    from helpers import scaling_source

    bp, _ = compile_mj_raw(scaling_source(192))
    assert bp.num_classes() == 193


@pytest.mark.parametrize("expression, error", [
    ("(" * 5000 + "x" + ")" * 5000, "ParseError"),
    ("-" * 5000 + "x", "ParseError"),
    ("x + (" * 1000 + "x" + ")" * 1000, "ParseError"),
    (" = ".join(["x"] * 700), "SemanticError"),
])
def test_expression_nested_too_deeply_is_a_structured_error(expression, error):
    from repro import errors

    with pytest.raises(getattr(errors, error)) as err:
        compile_mj_raw(_main_with(f"int y = {expression};"))
    assert "expression nested too deeply" in str(err.value)
    assert err.value.pos is not None and err.value.pos.line == 1


def test_two_hundred_nested_parentheses_compile():
    # the parser spends four frames per parenthesis, so this stays clear of
    # the stack limit (at six, as it once did, it was a ParseError)
    from helpers import stdout_of

    assert stdout_of(_main_with(
        'int y = %sx%s; Sys.println("" + y);' % ("(" * 200, ")" * 200)
    )) == ["3"]


def test_compiler_out_of_stack_is_a_compile_error_naming_the_method():
    from repro.bytecode import compile_program
    from repro.lang import analyze, parse_program

    tree = parse_program(_main_with("int y = %s;" % " = ".join(["x"] * 150)))
    table = analyze(tree)

    def depth():
        frame, n = sys._getframe(), 0
        while frame is not None:
            frame, n = frame.f_back, n + 1
        return n

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth() + 120)  # the chain needs about 300 frames
    try:
        with pytest.raises(CompileError) as err:
            compile_program(tree, table)
    finally:
        sys.setrecursionlimit(limit)
    assert str(err.value) == "expression nested too deeply in M.main at 1:18"
