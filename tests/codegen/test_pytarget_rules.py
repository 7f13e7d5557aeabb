"""Every strength-reduced rule of the Python target against ``vm/values.py``.

The rules of :mod:`repro.codegen.pytarget` drop a wrap where the result
cannot leave the operand range, wrap by range check first elsewhere, and
lower immediate shifts / divisors without the helper call.  Each emitted
expression must equal the interpreter's definition on every operand of the
operator's type — random ones and the boundaries where a missing wrap,
mask or sign rule would show.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.codegen.pytarget import lower_py
from repro.codegen.tree import TreeNode
from repro.vm.values import f2i, f2l, frem, i32, i64, idiv, irem, iushr

_ENV = {"i32": i32, "i64": i64, "idiv": idiv, "irem": irem, "iushr": iushr,
        "f2i": f2i, "f2l": f2l, "frem": frem, "float": float}

#: suffix -> (wrap, bits, constant leaf)
_KINDS = {"I": (i32, 32, "ICONST"), "L": (i64, 64, "LCONST")}

#: operator -> its definition on in-range operands, per the interpreter
_BINARY = {
    "ADD": lambda w, n, a, b: w(a + b),
    "SUB": lambda w, n, a, b: w(a - b),
    "MUL": lambda w, n, a, b: w(a * b),
    "AND": lambda w, n, a, b: w(a & b),
    "OR": lambda w, n, a, b: w(a | b),
    "XOR": lambda w, n, a, b: w(a ^ b),
    "SHL": lambda w, n, a, b: w(a << (b & (n - 1))),
    "SHR": lambda w, n, a, b: w(a >> (b & (n - 1))),
    "USHR": lambda w, n, a, b: iushr(a, b, n),
    "DIV": lambda w, n, a, b: w(idiv(a, b)),
    "REM": lambda w, n, a, b: w(irem(a, b)),
}


def _operands(bits: int):
    top = 1 << (bits - 1)
    edges = [-top, -top + 1, -(1 << 31), -(1 << 31) - 1, -65537, -2, -1, 0,
             1, 2, 31, 32, 63, 64, 65536, (1 << 31) - 1, 1 << 31, top - 1]
    return st.sampled_from([e for e in edges if -top <= e < top]) \
        | st.integers(min_value=-top, max_value=top - 1)


def _evaluate(tree: TreeNode, **temps):
    return eval(lower_py(tree), dict(_ENV), temps)


@pytest.mark.parametrize("suffix", sorted(_KINDS))
@pytest.mark.parametrize("opname", sorted(_BINARY))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_integer_rule_equals_values_py(opname, suffix, data):
    wrap, bits, const = _KINDS[suffix]
    a = data.draw(_operands(bits))
    b = data.draw(_operands(bits))
    if opname in ("DIV", "REM") and b == 0:
        b = data.draw(st.sampled_from([1, -1, -(1 << (bits - 1))]))
    want = _BINARY[opname](wrap, bits, a, b)
    root = f"{opname}_{suffix}"
    left = TreeNode("TEMP", value="a")
    generic = TreeNode(root, kids=[left, TreeNode("TEMP", value="b")])
    assert _evaluate(generic, a=a, b=b) == want
    immediate = TreeNode(root, kids=[left, TreeNode(const, value=b)])
    assert _evaluate(immediate, a=a) == want


@settings(max_examples=150, deadline=None)
@given(a=_operands(32), b=_operands(32), c=_operands(32))
def test_nested_range_checked_wraps_do_not_clobber_each_other(a, b, c):
    """Every wrap binds the same ``_w``; nesting on both sides of an
    operator must still evaluate each one before the next rebinds it."""
    def t(name):
        return TreeNode("TEMP", value=name)

    def bin_(root, x, y):
        return TreeNode(root, kids=[x, y])

    tree = bin_(
        "SUB_I",
        bin_("MUL_I", bin_("ADD_I", t("a"), t("b")),
             bin_("REM_I", bin_("SUB_I", t("b"), t("c")),
                  TreeNode("ICONST", value=1000003))),
        bin_("SHL_I", bin_("ADD_I", t("c"), t("a")),
             TreeNode("ICONST", value=5)),
    )
    want = i32(
        i32(i32(a + b) * i32(irem(i32(b - c), 1000003)))
        - i32(i32(c + a) << 5)
    )
    assert _evaluate(tree, a=a, b=b, c=c) == want


@settings(max_examples=100, deadline=None)
@given(a=_operands(32), v=_operands(64))
def test_integer_conversions_equal_values_py(a, v):
    temp = TreeNode("TEMP", value="x")
    assert _evaluate(TreeNode("I2L", kids=[temp]), x=a) == i64(a)
    assert _evaluate(TreeNode("L2I", kids=[temp]), x=v) == i32(v)


_FLOATS = st.sampled_from(
    [math.nan, math.inf, -math.inf, 1.0e308, -1.0e308, 1.0e-300, 0.5, -0.5,
     2.0 ** 31, -(2.0 ** 31) - 1.0, 2.0 ** 63, -(2.0 ** 63), 3.0e10]
) | st.floats(allow_nan=True, allow_infinity=True)


def _same(x, y) -> bool:
    return x == y or (x != x and y != y)


@settings(max_examples=150, deadline=None)
@given(a=_FLOATS, b=_FLOATS)
def test_float_rules_equal_values_py(a, b):
    temp = TreeNode("TEMP", value="a")
    const = TreeNode("FCONST", value=a)
    assert _evaluate(TreeNode("F2I", kids=[temp]), a=a) == f2i(a)
    assert _evaluate(TreeNode("F2L", kids=[temp]), a=a) == f2l(a)
    assert _evaluate(TreeNode("F2I", kids=[const])) == f2i(a)
    assert _evaluate(TreeNode("F2L", kids=[const])) == f2l(a)
    if b != 0.0:
        rem = TreeNode("REM_F", kids=[temp, TreeNode("TEMP", value="b")])
        assert _same(_evaluate(rem, a=a, b=b), frem(a, b))


def test_nonfinite_conversions_are_javas():
    assert (f2i(math.nan), f2i(math.inf), f2i(-math.inf)) == (
        0, 2**31 - 1, -(2**31))
    assert (f2l(math.nan), f2l(math.inf), f2l(-math.inf)) == (
        0, 2**63 - 1, -(2**63))
    assert f2i(3.0e10) == i32(30000000000) and f2i(-2.7) == -2  # as before
    assert frem(math.inf, 2.0) != frem(math.inf, 2.0)  # NaN
    assert frem(1.0e308, 1.0e-300) == math.fmod(1.0e308, 1.0e-300)
    assert frem(7.5, 2.0) == 1.5 and frem(-7.5, 2.0) == -1.5


def test_immediate_rules_are_the_cheaper_derivation():
    """The labeler picks the immediate forms: no helper call for a positive
    divisor or an immediate ``>>>``, no wrap after ``& | ^ >>``."""
    a = TreeNode("TEMP", value="a")

    def imm(root, value):
        return lower_py(TreeNode(root, kids=[a, TreeNode("ICONST", value=value)]))

    assert "irem" not in imm("REM_I", 4) and "idiv" not in imm("DIV_I", 4)
    assert "irem" in imm("REM_I", -4)  # a negative one keeps the helper
    assert "iushr" not in imm("USHR_I", 3) and "i32" not in imm("USHR_I", 3)
    assert imm("USHR_I", 32) == "(a)"  # count 0 after masking: identity
    for root in ("AND_I", "OR_I", "XOR_I", "SHR_I"):
        assert "i32" not in imm(root, 5)
    assert "i32" in imm("ADD_I", 5) and "i32" in imm("SHL_I", 5)
