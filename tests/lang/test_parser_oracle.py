"""``Parser`` against the parser it replaced (``_reference_parser``): the
same tree — every slot of every node, every position — or the same
``ParseError`` text at the same position.

Both read one token list, so the lexer is not under test here (its oracle
is ``test_lexer_oracle.py``); the reference reads it as the token objects
it was written for (``as_objects``).  The inputs are every bundled workload at
every size, ``genprog`` programs of 8 to 96 classes, and hypothesis-drawn
expressions and statements: well formed, with one token dropped, repeated
or swapped, and as token soup.  Nesting deep enough to exhaust the
interpreter's stack is left out: the two parsers descend through different
numbers of frames per level, so they give up at different tokens
(``tests/bytecode/test_compiler.py`` checks that both give up with a
``ParseError``).
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference_lexer
import _reference_parser

from repro.errors import ParseError, SourcePosition
from repro.lang import ast
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser
from repro.lang.tokens import T
from repro.lang.types import Type
from repro.testing.genprog import GenConfig, generate_source
from repro.workloads import WORKLOADS


def _slots(cls):
    return [
        slot
        for klass in reversed(cls.__mro__)
        for slot in getattr(klass, "__slots__", ())
        if slot not in ("line", "col")
    ]


def dump(value):
    """A node as ``(class, line, col, ((slot, value), ...))``, recursively;
    a type by name, anything else with its class (``1`` is not ``1.0``)."""
    if isinstance(value, ast.Node):
        return (
            type(value).__name__, value.line, value.col,
            tuple((slot, dump(getattr(value, slot))) for slot in _slots(type(value))),
        )
    if isinstance(value, list):
        return [dump(item) for item in value]
    if isinstance(value, Type):
        return ("type", value.name)
    return (type(value).__name__, value)


def as_objects(tokens):
    """``(kind, text, line, col, value)`` tuples as the reference parser's
    token objects."""
    return [
        _reference_lexer.Token(T(kind), text, SourcePosition(line, col), value)
        for kind, text, line, col, value in tokens
    ]


def outcome(parser, tokens):
    try:
        return dump(parser(tokens).parse_program())
    except ParseError as err:
        return ("ParseError", str(err), err.pos.line, err.pos.col)


def same_parse(tokens):
    want = outcome(_reference_parser.Parser, as_objects(tokens))
    assert outcome(Parser, tokens) == want
    return want


@pytest.mark.parametrize("size", ["test", "bench", "large"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_bundled_sources_parse_the_same(name, size):
    assert same_parse(tokenize(WORKLOADS[name].source(size)))[0] == "Program"


@pytest.mark.parametrize("n_classes", [8, 24, 48, 96])
@pytest.mark.parametrize("seed", range(3))
def test_generated_sources_parse_the_same(seed, n_classes):
    source = generate_source(
        GenConfig(seed=seed, n_classes=n_classes, n_methods=6, max_stmts=8)
    )
    assert same_parse(tokenize(source))[0] == "Program"


NAMES = ["a", "b", "x", "length", "Foo", "Bar"]
LITERALS = ["0", "7", "2L", "0x1F", "1.5", "3e2f", '"s"', "true", "false", "null", "this"]
BINARY = [
    "||", "&&", "|", "^", "&", "==", "!=", "<", "<=", ">", ">=",
    "<<", ">>", ">>>", "+", "-", "*", "/", "%",
]
ASSIGN = ["=", "+=", "-=", "*=", "/="]
TYPES = ["int", "long", "double", "boolean", "Foo", "int[]", "Foo[][]"]


def _words(*parts):
    return " ".join(parts)


def _call(target, args):
    return f"{target}({', '.join(args)})"


expressions = st.recursive(
    st.sampled_from(NAMES + LITERALS),
    lambda inner: st.one_of(
        st.builds(_words, inner, st.sampled_from(BINARY), inner),
        st.builds(
            _words, inner, st.just("instanceof"), st.sampled_from(["Foo", "Foo[]", "int[]"])
        ),
        st.builds(_words, st.sampled_from(["-", "!", "++", "--"]), inner),
        st.builds(
            _words, st.sampled_from(["(int)", "(Foo)", "(Foo[])", "(x)", "(Foo) -"]), inner
        ),
        inner.map("({})".format),
        st.builds(
            _words, inner, st.sampled_from([".f", ".length", ".length()", "[0]", "++", "--"])
        ),
        st.builds(_words, inner, st.sampled_from(ASSIGN), inner),
        st.builds(
            _call,
            st.one_of(st.sampled_from(["m", "new Foo"]), inner.map("{}.m".format)),
            st.lists(inner, max_size=3),
        ),
        st.builds("new {}[{}][]".format, st.sampled_from(["int", "Foo"]), inner),
    ),
    max_leaves=12,
)

statements = st.recursive(
    st.one_of(
        expressions.map("{};".format),
        st.builds("{} v = {};".format, st.sampled_from(TYPES), expressions),
        st.builds("{} v;".format, st.sampled_from(TYPES)),
        expressions.map("return {};".format),
        st.sampled_from(["return;", "break;", "continue;", "{ }"]),
    ),
    lambda inner: st.one_of(
        st.builds("if ({}) {} else {}".format, expressions, inner, inner),
        st.builds("if ({}) {}".format, expressions, inner),
        st.builds("while ({}) {}".format, expressions, inner),
        st.builds(
            "for (int i = {}; {}; {}) {}".format, expressions, expressions, expressions, inner
        ),
        st.builds("for ({}; ; ) {}".format, expressions, inner),
        st.lists(inner, max_size=3).map(lambda body: "{ " + " ".join(body) + " }"),
    ),
    max_leaves=6,
)


def in_method(body):
    return (
        "class A extends B { static int f = 1; public final Foo[] g; A() { } "
        f"static void m(int p, Foo[] q) {{ {body} }} }}"
    )


@settings(max_examples=300)
@given(expressions)
@example("(Foo) x + (Foo[]) (y) - (x) + 1")
@example("a instanceof Foo << c")
@example("new int[3][] == new Foo[n][][]")
@example("x.length + x.length() + ++a[0] + a.b.c(d)[e]--")
@example("x = y += z -= 1")
def test_expressions_parse_the_same(expression):
    same_parse(tokenize(in_method(f"x = {expression};")))
    same_parse(tokenize(f"class A {{ int f = {expression}; }}"))


@settings(max_examples=300)
@given(statements)
def test_statements_parse_the_same(statement):
    same_parse(tokenize(in_method(statement)))


@settings(max_examples=300)
@given(statements, st.data())
def test_damaged_statements_parse_the_same(statement, data):
    """One token dropped, repeated or swapped with the next, never the
    closing EOF: mostly no longer a program, so what is compared is the
    error and where it was found."""
    tokens = tokenize(in_method(statement))
    k = data.draw(st.integers(0, len(tokens) - 3), label="token")
    edit = data.draw(st.sampled_from(["drop", "repeat", "swap"]), label="edit")
    if edit == "drop":
        del tokens[k]
    elif edit == "repeat":
        tokens.insert(k, tokens[k])
    else:
        tokens[k], tokens[k + 1] = tokens[k + 1], tokens[k]
    same_parse(tokens)


SOUP = NAMES + LITERALS + BINARY + ASSIGN + TYPES[:5] + [
    "(", ")", "[", "]", "{", "}", ".", ",", ";", "++", "--", "!", "instanceof",
    "new", "if", "else", "while", "for", "return", "break", "continue",
    "class", "extends", "static", "public", "final", "void",
]


@settings(max_examples=400)
@given(st.lists(st.sampled_from(SOUP), max_size=30).map(" ".join))
@example("class A { A ( ) { } void")
@example("class A { int [ ] ] x ; }")
@example("( Foo ) ( Foo [ ] ) (")
def test_token_soup_parses_the_same(text):
    for source in (text, in_method(text), f"class A {{ int f = {text}; }}"):
        same_parse(tokenize(source))
