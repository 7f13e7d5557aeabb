"""Lexer unit tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LexerError
from repro.lang.lexer import tokenize
from repro.lang.tokens import T


def kinds(src):
    return [t.kind for t in tokenize(src)][:-1]  # drop EOF


def test_empty_input():
    toks = tokenize("")
    assert len(toks) == 1 and toks[0].kind is T.EOF


def test_keywords_vs_identifiers():
    toks = tokenize("class classy int integer")
    assert [t.kind for t in toks[:-1]] == [T.CLASS, T.IDENT, T.INT, T.IDENT]


def test_int_literals():
    toks = tokenize("0 42 2147483647")
    assert [t.value for t in toks[:-1]] == [0, 42, 2147483647]
    assert all(t.kind is T.INT_LIT for t in toks[:-1])


def test_long_literal_suffix():
    toks = tokenize("42L 0x10L 7l")
    assert [t.kind for t in toks[:-1]] == [T.LONG_LIT] * 3
    assert [t.value for t in toks[:-1]] == [42, 16, 7]


def test_hex_literals():
    toks = tokenize("0xFF 0x0 0xDEADBEEF")
    assert [t.value for t in toks[:-1]] == [255, 0, 0xDEADBEEF]


def test_float_literals():
    toks = tokenize("1.5 0.25 2e3 1.5e-2 3f 4.0d")
    assert all(t.kind is T.FLOAT_LIT for t in toks[:-1])
    assert toks[0].value == 1.5
    assert toks[2].value == 2000.0
    assert toks[3].value == 0.015


def test_float_requires_digit_after_dot():
    # "1." followed by an identifier is a DOT access, not a float
    toks = tokenize("x.foo")
    assert [t.kind for t in toks[:-1]] == [T.IDENT, T.DOT, T.IDENT]


def test_string_literal_escapes():
    toks = tokenize(r'"a\nb\t\"q\\"')
    assert toks[0].kind is T.STR_LIT
    assert toks[0].value == 'a\nb\t"q\\'


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
    assert [t.text for t in toks[:-1]] == ["a", "b", "c"]


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
    assert toks[0].pos.line == 1 and toks[0].pos.col == 1
    assert toks[1].pos.line == 2 and toks[1].pos.col == 3


def test_unexpected_character():
    with pytest.raises(LexerError):
        tokenize("a @ b")


def test_double_alias():
    # MJ treats 'double' as an alias for float
    assert kinds("double x") == [T.FLOAT, T.IDENT]


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_int_literal_roundtrip(n):
    toks = tokenize(str(n))
    assert toks[0].kind is T.INT_LIT and toks[0].value == n


@given(st.text(alphabet=st.characters(whitelist_categories=("Ll", "Lu")),
               min_size=1, max_size=12))
def test_identifier_roundtrip(name):
    from repro.lang.tokens import KEYWORDS

    toks = tokenize(name)
    if name in KEYWORDS:
        assert toks[0].kind is KEYWORDS[name]
    elif name.isascii():
        assert toks[0].kind is T.IDENT and toks[0].text == name


@given(st.text(alphabet=" \t\nabc123+-*/%()<>=!&|" '0xXeEfL."\\_²', max_size=60))
def test_lexer_never_crashes_or_loops(text):
    """Tokenizing arbitrary input from an alphabet that spells operators,
    comments and every literal form either succeeds or raises LexerError —
    never hangs or raises anything else."""
    try:
        toks = tokenize(text)
        assert toks[-1].kind is T.EOF
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
    assert toks[-1].kind is T.EOF
    for tok in toks:
        if tok.kind is T.STR_LIT:
            continue  # text holds the decoded value, not the spelling
        start = line_offsets[tok.pos.line - 1] + tok.pos.col - 1
        assert source[start:][: len(tok.text)] == tok.text, tok
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
    assert [(t.text, t.pos.line, t.pos.col) for t in toks] == [
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
])
def test_lexer_errors_pin_message_and_position(source, message, line, col):
    with pytest.raises(LexerError) as err:
        tokenize(source)
    assert str(err.value) == f"lex error at {line}:{col}: {message}"
    assert (err.value.pos.line, err.value.pos.col) == (line, col)
