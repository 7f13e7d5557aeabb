"""Lexer unit tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LexerError
from repro.lang.lexer import tokenize
from repro.lang.tokens import T


KIND, TEXT, LINE, COL, VALUE = range(5)


def kinds(src):
    return [T(t[KIND]) for t in tokenize(src)][:-1]  # drop EOF


def values(src):
    return [t[VALUE] for t in tokenize(src)][:-1]


def test_empty_input():
    toks = tokenize("")
    assert toks == [(T.EOF._value_, "", 1, 1, None)]


def test_tokens_are_plain_tuples():
    for tok in tokenize('class A { int f = 0x1F + 2L; String s = "q\\n"; } é'):
        assert type(tok) is tuple and len(tok) == 5
        assert type(tok[KIND]) is int and type(tok[LINE]) is int and type(tok[COL]) is int


def test_keywords_vs_identifiers():
    assert kinds("class classy int integer") == [T.CLASS, T.IDENT, T.INT, T.IDENT]


def test_int_literals():
    assert values("0 42 2147483647") == [0, 42, 2147483647]
    assert kinds("0 42 2147483647") == [T.INT_LIT] * 3


def test_long_literal_suffix():
    assert kinds("42L 0x10L 7l") == [T.LONG_LIT] * 3
    assert values("42L 0x10L 7l") == [42, 16, 7]


def test_hex_literals():
    assert values("0xFF 0x0 0x7FFFFFFF") == [255, 0, 0x7FFFFFFF]


@pytest.mark.parametrize("source, value", [
    ("0xFFFFFFFF", -1),
    ("0xDEADBEEF", 0xDEADBEEF - 2**32),
    ("0x80000000", -(2**31)),
    ("2147483648", -(2**31)),
    ("4294967295", -1),
    ("2654435761", 2654435761 - 2**32),
    ("0x7FFFFFFFFFFFFFFFL", 2**63 - 1),
    ("0x8000000000000000L", -(2**63)),
    ("0xFFFFFFFFFFFFFFFFl", -1),
    ("9223372036854775808L", -(2**63)),
    ("18446744073709551615L", -1),
    ("4294967296L", 2**32),
])
def test_integer_literals_take_their_twos_complement_value(source, value):
    """An integer literal is a bit pattern of its type's width: int 32,
    long 64 bits.  The spelling is kept as written."""
    assert values(source) == [value]
    assert tokenize(source)[0][TEXT].rstrip("lL") == source.rstrip("lL")


def test_float_literals():
    toks = tokenize("1.5 0.25 2e3 1.5e-2 3f 4.0d")
    assert all(t[KIND] == T.FLOAT_LIT._value_ for t in toks[:-1])
    assert toks[0][VALUE] == 1.5
    assert toks[2][VALUE] == 2000.0
    assert toks[3][VALUE] == 0.015


def test_float_requires_digit_after_dot():
    # "1." followed by an identifier is a DOT access, not a float
    assert kinds("x.foo") == [T.IDENT, T.DOT, T.IDENT]


def test_string_literal_escapes():
    toks = tokenize(r'"a\nb\t\"q\\"')
    assert toks[0][KIND] == T.STR_LIT._value_
    assert toks[0][VALUE] == 'a\nb\t"q\\'


def test_unterminated_string():
    with pytest.raises(LexerError):
        tokenize('"abc')


def test_newline_in_string():
    with pytest.raises(LexerError):
        tokenize('"ab\ncd"')


def test_bad_escape():
    with pytest.raises(LexerError):
        tokenize(r'"\q"')


def test_comments_skipped():
    toks = tokenize("a // line comment\nb /* block\n comment */ c")
    assert [t[TEXT] for t in toks[:-1]] == ["a", "b", "c"]


def test_unterminated_block_comment():
    with pytest.raises(LexerError):
        tokenize("a /* never ends")


def test_operators_two_char():
    src = "== != <= >= && || << >> ++ -- += -= *= /="
    expect = [T.EQ, T.NE, T.LE, T.GE, T.ANDAND, T.OROR, T.SHL, T.SHR,
              T.PLUSPLUS, T.MINUSMINUS, T.PLUS_ASSIGN, T.MINUS_ASSIGN,
              T.STAR_ASSIGN, T.SLASH_ASSIGN]
    assert kinds(src) == expect


def test_ushr_three_char():
    assert kinds("a >>> b") == [T.IDENT, T.USHR, T.IDENT]
    assert kinds("a >> > b") == [T.IDENT, T.SHR, T.GT, T.IDENT]


def test_positions_track_lines_and_columns():
    toks = tokenize("a\n  b")
    assert toks[0][LINE] == 1 and toks[0][COL] == 1
    assert toks[1][LINE] == 2 and toks[1][COL] == 3


def test_unexpected_character():
    with pytest.raises(LexerError):
        tokenize("a @ b")


def test_double_alias():
    # MJ treats 'double' as an alias for float
    assert kinds("double x") == [T.FLOAT, T.IDENT]


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_int_literal_roundtrip(n):
    toks = tokenize(str(n))
    assert toks[0][KIND] == T.INT_LIT._value_ and toks[0][VALUE] == n


@given(st.text(alphabet=st.characters(whitelist_categories=("Ll", "Lu")),
               min_size=1, max_size=12))
def test_identifier_roundtrip(name):
    from repro.lang.tokens import KEYWORDS

    toks = tokenize(name)
    if name in KEYWORDS:
        assert toks[0][KIND] == KEYWORDS[name]._value_
    elif name.isascii():
        assert toks[0][KIND] == T.IDENT._value_ and toks[0][TEXT] == name


@given(st.text(alphabet=" \t\nabc123+-*/%()<>=!&|" '0xXeEfL."\\_²', max_size=60))
def test_lexer_never_crashes_or_loops(text):
    """Tokenizing arbitrary input from an alphabet that spells operators,
    comments and every literal form either succeeds or raises LexerError —
    never hangs or raises anything else."""
    try:
        toks = tokenize(text)
        assert toks[-1][KIND] == T.EOF._value_
    except LexerError:
        pass


# ---------------------------------------------------------------------------
# positions: every token's text sits where its position says
# ---------------------------------------------------------------------------
def assert_tokens_sit_at_their_positions(source):
    line_offsets = [0]
    for i, ch in enumerate(source):
        if ch == "\n":
            line_offsets.append(i + 1)
    toks = tokenize(source)
    assert toks[-1][KIND] == T.EOF._value_
    for tok in toks:
        if tok[KIND] == T.STR_LIT._value_:
            continue  # text holds the decoded value, not the spelling
        start = line_offsets[tok[LINE] - 1] + tok[COL] - 1
        assert source[start:][: len(tok[TEXT])] == tok[TEXT], tok
    return toks


def test_token_positions_on_bundled_sources():
    from repro.workloads import WORKLOADS

    for name in WORKLOADS:
        toks = assert_tokens_sit_at_their_positions(WORKLOADS[name].source("test"))
        assert len(toks) > 100, name


@settings(max_examples=15)
@given(st.integers(min_value=0, max_value=2**16), st.sampled_from([2, 8, 24]))
def test_token_positions_on_generated_sources(seed, n_classes):
    from repro.testing.genprog import GenConfig, generate_source

    assert_tokens_sit_at_their_positions(
        generate_source(GenConfig(seed=seed, n_classes=n_classes))
    )


def test_token_positions_after_comments_and_blank_lines():
    toks = assert_tokens_sit_at_their_positions(
        "a /* one\n two */ b // tail\n\n\tc 0x1F 2.5e-3f 7L >>>= \r\n  d"
    )
    assert [(t[TEXT], t[LINE], t[COL]) for t in toks] == [
        ("a", 1, 1), ("b", 2, 9), ("c", 4, 2), ("0x1F", 4, 4),
        ("2.5e-3", 4, 9), ("7L", 4, 17), (">>>", 4, 20), ("=", 4, 23),
        ("d", 5, 3), ("", 5, 4),
    ]


@pytest.mark.parametrize("source, message, line, col", [
    ("a /* never ends", "unterminated block comment", 1, 3),
    ("a\n\n  b /* x\n y", "unterminated block comment", 3, 5),
    ('x = "abc', "unterminated string literal", 1, 5),
    ('x = "abc\\', "bad escape '\\'", 1, 5),
    ('\n "ab\ncd"', "newline in string literal", 2, 2),
    ('f("ok", "\\q")', "bad escape '\\q'", 1, 9),
    ("y = 1.5L;", "'L' suffix on floating literal", 1, 5),
    ("y = 2e3l;", "'L' suffix on floating literal", 1, 5),
    ("a @ b", "unexpected character '@'", 1, 3),
    ("a\n\tb # c", "unexpected character '#'", 2, 4),
    ("x = 0x;", "hexadecimal literal without digits", 1, 5),
    ("x = 0xL;", "hexadecimal literal without digits", 1, 5),
    ("int x = ²;", "unexpected character '²'", 1, 9),
    ("0x100000000", "integer literal out of range", 1, 1),
    ("4294967296", "integer literal out of range", 1, 1),
    ("\n  x = 99999999999;", "integer literal out of range", 2, 7),
    ("0x10000000000000000L", "integer literal out of range", 1, 1),
    ("y = 18446744073709551616L;", "integer literal out of range", 1, 5),
])
def test_lexer_errors_pin_message_and_position(source, message, line, col):
    with pytest.raises(LexerError) as err:
        tokenize(source)
    assert str(err.value) == f"lex error at {line}:{col}: {message}"
    assert (err.value.pos.line, err.value.pos.col) == (line, col)
