"""MJ language front-end.

MJ is the Java-subset substrate this reproduction uses in place of real Java
(see DESIGN.md, substitution table).  The subpackage provides:

* :mod:`repro.lang.tokens`   — token kinds (``T``) and the token tuple
  ``(kind, text, line, col, value)``
* :mod:`repro.lang.lexer`    — tokenizer: source text to token tuples
* :mod:`repro.lang.parser`   — recursive-descent parser producing the AST
* :mod:`repro.lang.ast`      — AST node definitions, one call per node
* :mod:`repro.lang.types`    — the MJ type lattice
* :mod:`repro.lang.symbols`  — class/field/method symbol tables + built-ins
* :mod:`repro.lang.semantic` — resolver and type checker

The usual entry point is :func:`parse_program` followed by
:func:`repro.lang.semantic.analyze`.
"""

from repro.lang.lexer import tokenize
from repro.lang.parser import Parser, parse_program
from repro.lang.semantic import analyze
from repro.lang.types import (
    BOOLEAN,
    FLOAT,
    INT,
    LONG,
    NULL,
    STRING,
    VOID,
    ArrayType,
    ClassType,
    Type,
)

__all__ = [
    "tokenize",
    "Parser",
    "parse_program",
    "analyze",
    "Type",
    "ClassType",
    "ArrayType",
    "INT",
    "LONG",
    "FLOAT",
    "BOOLEAN",
    "VOID",
    "STRING",
    "NULL",
]
