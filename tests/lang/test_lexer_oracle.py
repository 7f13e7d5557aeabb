"""``tokenize`` against the character scanner it replaced
(``_reference_lexer``): the same ``(kind, text, line, col, value)`` stream,
or the same ``LexerError`` text.

The one family of inputs where they may differ is the pair of defects the
pattern scanner fixes: the reference lets an empty hexadecimal body and
whatever ``str.isdigit()`` accepts beyond ``0-9`` through to ``int()`` /
``float()``, which crash with a bare ``ValueError`` (``0x``, ``²``) or read
a number the language does not have (``٣``).  Up to such a literal the two
must agree; from there the shipped scanner goes its own way — to a
``LexerError`` or to other tokens, never to another exception.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference_lexer

from repro.errors import LexerError
from repro.lang.lexer import tokenize
from repro.lang.tokens import T
from repro.testing.genprog import GenConfig, generate_source
from repro.workloads import WORKLOADS


def stream(tokens):
    """The reference's token objects as the shipped scanner's tuples."""
    return [(t.kind._value_, t.text, t.pos.line, t.pos.col, t.value) for t in tokens]


def reference_scan(source):
    """The reference scanner, one token at a time: ``(tokens, error text or
    None, bad)``.  ``bad`` is ``(line, col, offset)`` of the first
    number literal it crashed on or read a non-ASCII digit in; the scan
    stops there."""
    lexer = _reference_lexer.Lexer(source)
    tokens = []
    while True:
        error = None
        try:
            lexer._skip_trivia()
        except LexerError as err:
            return tokens, str(err), None
        line, col, offset = lexer.line, lexer.col, lexer.i
        try:
            tok = lexer.next_token()
        except LexerError as err:
            error = str(err)
        except ValueError:
            return tokens, None, (line, col, offset)
        scanned = source[offset:lexer.i]
        if scanned[:1].isdigit() and not scanned.isascii():
            return tokens, None, (line, col, offset)
        if error is not None:
            return tokens, error, None
        tokens.append(tok)
        if tok.kind is T.EOF:
            return tokens, None, None


def assert_same_scan(source):
    want, want_error, bad = reference_scan(source)
    if bad is None:
        try:
            got, got_error = tokenize(source), None
        except LexerError as err:
            got, got_error = None, str(err)
        assert got_error == want_error, source
        if got is not None:
            assert got == stream(want), source
        return got
    # the shipped scanner agrees on everything before that literal, then
    # raises a LexerError (``²``) or reads other tokens (``0E٣``: ``0`` ``E٣``)
    line, col, offset = bad
    assert tokenize(source[:offset]) == stream(want) + [
        (T.EOF._value_, "", line, col, None)
    ], source
    try:
        tokenize(source)
    except LexerError as err:
        assert (err.pos.line, err.pos.col) >= (line, col), source


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("size", ["test", "bench"])
def test_bundled_sources_scan_the_same(name, size):
    assert assert_same_scan(WORKLOADS[name].source(size))


@pytest.mark.parametrize("seed", range(30))
def test_generated_sources_scan_the_same(seed):
    n_classes = (2, 8, 24)[seed % 3]
    assert assert_same_scan(generate_source(GenConfig(seed=seed, n_classes=n_classes)))


#: spells every literal form, comment, operator and error of the scanner,
#: plus letters and digits beyond ASCII (``é`` ``λ`` letters, ``٣`` a decimal
#: digit ``int()`` reads, ``²`` ``①`` digits it rejects, ``½`` numeric only)
ALPHABET = " \t\r\n" "abcxXeEfFdDlL_" "0123456789" ".\"\\/*+-<>=!&|^%(){}[];,@#" "éλ٣²①½"


@settings(max_examples=600)
@given(st.text(alphabet=ALPHABET, max_size=40))
@example("x = 0x;")
@example("x = 0xL;")
@example("int x = ²;")
@example("y = 1٣ + ٣.٣;")
@example('s = "a\\')
@example('"\\\n"')
@example("a /* b * / c **/ d /* e")
@example("1.5e+3f 1e 1e+ 1.e5 0x1g 08L 7l .5 5.")
@example("0xFFFFFFFF 0x80000000 2147483648 0x8000000000000000L 9223372036854775808l")
@example("x = 4294967296; y = 0x1FFFFFFFFFFFFFFFFL;")
def test_arbitrary_text_scans_the_same(text):
    assert_same_scan(text)


@pytest.mark.parametrize("source, line, col", [
    ("x = 0x;", 1, 5),
    ("x = 0xL;", 1, 5),
    ("int x = ²;", 1, 9),
    ("y = 1٣;", 1, 6),
    ("\n  z = ٣;", 2, 7),
])
def test_the_fixed_literals_are_lexer_errors_at_the_literal(source, line, col):
    assert reference_scan(source)[2] is not None
    with pytest.raises(LexerError) as err:
        tokenize(source)
    assert (err.value.pos.line, err.value.pos.col) == (line, col)
