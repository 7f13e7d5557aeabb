"""BURS rules lowering operator trees to Python expressions.

This is the target the trace compiler (:mod:`repro.vm.jit`) reduces hot
basic blocks against: the generic BURS engine (:mod:`repro.codegen.burs`)
labels each :class:`~repro.codegen.tree.TreeNode` with the cheapest
derivation, and the emitters here produce Python *expression strings* that
``exec``-compiled block closures evaluate directly on frame locals.

Two nonterminals:

* ``imm`` — a compile-time constant (the raw Python value).  Constant
  leaves reduce to ``imm``, and folding rules (cost 0) reduce whole
  constant subtrees to ``imm`` using the exact wrap-around semantics of
  :mod:`repro.vm.values`, so folded results feed further folds.
* ``py`` — a Python expression string.  The ``imm -> py`` chain rule
  reprs the constant; operator rules parenthesize operands, so emitted
  expressions compose safely.

Rule costs make the labeler prefer folded constants and the immediate
shift / divisor forms (mask and sign rule applied at compile time, no
helper call) over the generic runtime forms — the same minimum-cost-traversal scheme the paper's JBurg
stage uses for its real target.
"""

from __future__ import annotations

from typing import List

from repro.codegen.burs import BURS, Rule
from repro.codegen.tree import TreeNode
from repro.vm.values import f2i, f2l, i32, i64, iushr

__all__ = ["PY_RULES", "PY_BURS", "lower_py", "fold_const"]


def _paren(e: object) -> str:
    return f"({e})"


#: ``i32`` / ``i64`` -> (2**(bits-1), 2**bits - 1): the wrap emitted inline
_WRAP = {"i32": (1 << 31, 0xFFFFFFFF), "i64": (1 << 63, 0xFFFFFFFFFFFFFFFF)}


def _wrap(wname: str, e: str) -> str:
    """``e`` wrapped as ``i32`` / ``i64`` would wrap it, inline — range check
    first (in range is the common case), else two's complement by mask —
    or, with no ``wname``, left as it is: the operator cannot leave its
    operands' range."""
    if not wname:
        return f"({e})"
    top, mask = _WRAP[wname]
    return (f"(_w if {-top} <= (_w := {e}) <= {top - 1} "
            f"else ((_w + {top:#x}) & {mask:#x}) - {top:#x})")


def _div_imm(wname: str, py: str, fn: str):
    """Division / remainder by an immediate the trace compiler knows to be
    non-zero: a positive one needs neither the helper call nor a wrap
    (Java truncates toward zero, the remainder takes the dividend's sign)."""
    def emit(ctx, n, k):
        if k[1] > 0:
            return f"(_w {py} {k[1]} if (_w := {k[0]}) >= 0 else -(-_w {py} {k[1]}))"
        return _wrap(wname, f"{fn}({_paren(k[0])}, {k[1]})")
    return emit


def _rules() -> List[Rule]:
    rules: List[Rule] = []
    add = rules.append

    # ---- constant leaves -> imm; imm -> py via repr
    for leaf in ("ICONST", "LCONST", "FCONST", "SCONST", "NULL"):
        add(Rule("imm", (leaf,), 0, lambda ctx, n, k: n.value, name=f"imm.{leaf}"))
    add(Rule("py", "imm", 1, lambda ctx, n, k: repr(k[0]), name="py.imm"))

    # ---- value leaves
    add(Rule("py", ("LOCAL",), 1, lambda ctx, n, k: f"L[{n.value}]", name="py.local"))
    add(Rule("py", ("TEMP",), 0, lambda ctx, n, k: str(n.value), name="py.temp"))

    # ---- wrapped integer arithmetic (32/64-bit), with constant folding.
    # Operands of a typed operator are in its range already, so ``& | ^ >>``
    # cannot leave it; only ``+ - * <<`` wrap.
    for suffix, wrap, wname, nbits in (("I", i32, "i32", 32), ("L", i64, "i64", 64)):
        for opname, sym, wn in (
            ("ADD", "+", wname), ("SUB", "-", wname), ("MUL", "*", wname),
            ("AND", "&", ""), ("OR", "|", ""), ("XOR", "^", ""),
        ):
            root = f"{opname}_{suffix}"
            add(Rule(
                "py", (root, "py", "py"), 2,
                (lambda wn, s: lambda ctx, n, k: _wrap(wn, f"{_paren(k[0])} {s} {_paren(k[1])}"))(wn, sym),
                name=f"py.{root}",
            ))
            add(Rule(
                "imm", (root, "imm", "imm"), 0,
                (lambda w, s: lambda ctx, n, k: w(_FOLD_BIN[s](k[0], k[1])))(wrap, sym),
                name=f"fold.{root}",
            ))
        bits = nbits - 1
        for opname, sym, wn in (("SHL", "<<", wname), ("SHR", ">>", "")):
            root = f"{opname}_{suffix}"
            add(Rule(
                "py", (root, "py", "imm"), 1,
                (lambda wn, s, b: lambda ctx, n, k: _wrap(wn, f"{_paren(k[0])} {s} {int(k[1]) & b}"))(wn, sym, bits),
                name=f"py.{root}.imm",
            ))
            add(Rule(
                "py", (root, "py", "py"), 2,
                (lambda wn, s, b: lambda ctx, n, k: _wrap(wn, f"{_paren(k[0])} {s} ({_paren(k[1])} & {b})"))(wn, sym, bits),
                name=f"py.{root}",
            ))
            add(Rule(
                "imm", (root, "imm", "imm"), 0,
                (lambda w, s, b: lambda ctx, n, k: w(_FOLD_BIN[s](k[0], int(k[1]) & b)))(wrap, sym, bits),
                name=f"fold.{root}",
            ))
        root = f"USHR_{suffix}"
        # immediate count: mask and shift; only a count of 0 could leave a
        # value above the signed range, and that one is the identity
        add(Rule(
            "py", (root, "py", "imm"), 1,
            (lambda nb: lambda ctx, n, k:
             f"(({_paren(k[0])} & {(1 << nb) - 1}) >> {int(k[1]) & (nb - 1)})"
             if int(k[1]) & (nb - 1) else _paren(k[0]))(nbits),
            name=f"py.{root}.imm",
        ))
        add(Rule(
            "py", (root, "py", "py"), 2,
            (lambda nb: lambda ctx, n, k: f"iushr({_paren(k[0])}, {_paren(k[1])}, {nb})")(nbits),
            name=f"py.{root}",
        ))
        add(Rule(
            "imm", (root, "imm", "imm"), 0,
            (lambda nb: lambda ctx, n, k: iushr(k[0], k[1], nb))(nbits),
            name=f"fold.{root}",
        ))
        # division / remainder: the trace compiler builds these trees only
        # over a divisor it has guarded against zero at runtime or knows to
        # be a non-zero constant, so the emitted expression never faults
        wn = wname
        for opname, py, fn in (("DIV", "//", "idiv"), ("REM", "%", "irem")):
            root = f"{opname}_{suffix}"
            add(Rule(
                "py", (root, "py", "py"), 3,
                (lambda wn, fn: lambda ctx, n, k: _wrap(wn, f"{fn}({_paren(k[0])}, {_paren(k[1])})"))(wn, fn),
                name=f"py.{root}",
            ))
            add(Rule("py", (root, "py", "imm"), 2, _div_imm(wn, py, fn),
                     name=f"py.{root}.imm"))
        add(Rule(
            "py", (f"NEG_{suffix}", "py"), 1,
            (lambda wn: lambda ctx, n, k: _wrap(wn, f"-{_paren(k[0])}"))(wn),
            name=f"py.NEG_{suffix}",
        ))
        add(Rule(
            "imm", (f"NEG_{suffix}", "imm"), 0,
            (lambda w: lambda ctx, n, k: w(-k[0]))(wrap),
            name=f"fold.NEG_{suffix}",
        ))

    # ---- float arithmetic (Python floats are the F domain; no wrapping)
    for opname, sym in (("ADD", "+"), ("SUB", "-"), ("MUL", "*")):
        root = f"{opname}_F"
        add(Rule(
            "py", (root, "py", "py"), 2,
            (lambda s: lambda ctx, n, k: f"({_paren(k[0])} {s} {_paren(k[1])})")(sym),
            name=f"py.{root}",
        ))
        add(Rule(
            "imm", (root, "imm", "imm"), 0,
            (lambda s: lambda ctx, n, k: _FOLD_BIN[s](k[0], k[1]))(sym),
            name=f"fold.{root}",
        ))
    add(Rule("py", ("DIV_F", "py", "py"), 3,
             lambda ctx, n, k: f"({_paren(k[0])} / {_paren(k[1])})", name="py.DIV_F"))
    add(Rule("py", ("REM_F", "py", "py"), 3,
             lambda ctx, n, k: f"frem({k[0]}, {k[1]})", name="py.REM_F"))
    add(Rule("py", ("NEG_F", "py"), 1,
             lambda ctx, n, k: f"(-{_paren(k[0])})", name="py.NEG_F"))
    add(Rule("imm", ("NEG_F", "imm"), 0,
             lambda ctx, n, k: -k[0], name="fold.NEG_F"))

    # ---- conversions
    for root, wn, fold in (
        ("I2L", "", i64),  # an int is in the long range already
        ("L2I", "i32", i32),
        ("I2F", "float", float),
        ("L2F", "float", float),
        ("F2I", "f2i", f2i),
        ("F2L", "f2l", f2l),
    ):
        add(Rule("py", (root, "py"), 1,
                 (lambda wn: lambda ctx, n, k: f"{wn}({k[0]})"
                  if wn not in _WRAP else _wrap(wn, k[0]))(wn),
                 name=f"py.{root}"))
        add(Rule("imm", (root, "imm"), 0,
                 (lambda f: lambda ctx, n, k: f(k[0]))(fold),
                 name=f"fold.{root}"))

    return rules


_FOLD_BIN = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "<<": lambda a, b: a << b,
    ">>": lambda a, b: a >> b,
}

#: the rule set, and one shared engine instance (the engine is stateless
#: between trees apart from per-node ``state`` scratch)
PY_RULES = _rules()
PY_BURS = BURS(PY_RULES)


def lower_py(tree: TreeNode, ctx=None) -> str:
    """Reduce ``tree`` to a Python expression string (goal ``py``)."""
    return PY_BURS.generate(tree, "py", ctx)


def fold_const(tree: TreeNode, ctx=None):
    """Reduce ``tree`` all the way to a compile-time constant (goal
    ``imm``); raises :class:`~repro.errors.CodegenError` if any leaf is
    not a constant."""
    return PY_BURS.generate(tree, "imm", ctx)
