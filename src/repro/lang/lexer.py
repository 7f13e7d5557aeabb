"""Scanner for MJ source text: one compiled pattern, one pass.

Supports Java-style ``//`` and ``/* */`` comments, decimal and hexadecimal
integer literals with an optional ``L`` suffix, floating literals (with
optional ``f``/``F``/``d``/``D`` suffix), string literals with the common
escapes, and all MJ operators (see :mod:`repro.lang.tokens`).  Digits are
ASCII only; identifiers may use any Unicode letter.

Tokens are the plain tuples :mod:`repro.lang.tokens` describes, with the
kind as an ``int``; a ``SourcePosition`` is made only for an error.  An
integer literal's value is its two's-complement reading at the width of its
type (32 bits, or 64 with ``L``): ``0xFFFFFFFF`` is the int ``-1``, and a
literal of more bits than that is an error.
"""

from __future__ import annotations

import re
from typing import List

from repro.errors import LexerError, SourcePosition
from repro.lang.tokens import KEYWORDS, T, Token

_INT_LIT = T.INT_LIT._value_
_LONG_LIT = T.LONG_LIT._value_
_FLOAT_LIT = T.FLOAT_LIT._value_
_STR_LIT = T.STR_LIT._value_
_IDENT = T.IDENT._value_
_EOF = T.EOF._value_

_OPERATORS = {
    ">>>": T.USHR,
    "==": T.EQ,
    "!=": T.NE,
    "<=": T.LE,
    ">=": T.GE,
    "&&": T.ANDAND,
    "||": T.OROR,
    "<<": T.SHL,
    ">>": T.SHR,
    "++": T.PLUSPLUS,
    "--": T.MINUSMINUS,
    "+=": T.PLUS_ASSIGN,
    "-=": T.MINUS_ASSIGN,
    "*=": T.STAR_ASSIGN,
    "/=": T.SLASH_ASSIGN,
    "(": T.LPAREN,
    ")": T.RPAREN,
    "{": T.LBRACE,
    "}": T.RBRACE,
    "[": T.LBRACKET,
    "]": T.RBRACKET,
    ";": T.SEMI,
    ",": T.COMMA,
    ".": T.DOT,
    "=": T.ASSIGN,
    "+": T.PLUS,
    "-": T.MINUS,
    "*": T.STAR,
    "/": T.SLASH,
    "%": T.PERCENT,
    "!": T.NOT,
    "<": T.LT,
    ">": T.GT,
    "&": T.AMP,
    "|": T.PIPE,
    "^": T.CARET,
}

#: spelling -> kind of every word-group match that is not an identifier
_WORD_KINDS = {
    spelling: kind._value_ for spelling, kind in {**KEYWORDS, **_OPERATORS}.items()
}

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\", "'": "'", "0": "\0"}

# One match per token, comment or line break; blanks before it are skipped
# by the same match.  Longest operators first, and a "/" that opens a
# comment is left to the comment group.  The alternatives are total — end of
# input, "\n", or any other character — so ``finditer`` never skips text.
_WORD, _NUMBER, _STRING, _NEWLINE, _COMMENT, _UNICODE_WORD, _END, _OTHER = range(1, 9)
_LONG_OPERATORS = "|".join(
    re.escape(sp)
    for sp in sorted(_OPERATORS, key=len, reverse=True) if len(sp) > 1
)
_SHORT_OPERATORS = "".join(
    re.escape(sp) for sp in _OPERATORS if len(sp) == 1 and sp != "/"
)
_MASTER = re.compile(
    r"[ \t\r]*(?:"
    rf"([A-Za-z_]\w*|{_LONG_OPERATORS}|[{_SHORT_OPERATORS}]|/(?![/*]))"
    r"|(0[xX][0-9a-fA-F]*[lL]?|[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?[fFdDlL]?)"
    r'|("(?:[^"\\\n]|\\[^\n])*")'
    r"|(\n)"
    r"|(//[^\n]*|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/)"
    r"|([^\W\d]\w*)"
    r"|(\Z)"
    r"|([^\n])"
    r")"
)


def _number(text: str, line: int, col: int) -> Token:
    if text[:2] in ("0x", "0X"):
        digits = text.rstrip("lL")
        if len(digits) == 2:
            raise LexerError("hexadecimal literal without digits", SourcePosition(line, col))
        is_long = len(digits) != len(text)
        value = int(digits, 16)
    else:
        body, suffix = text[:-1], text[-1]
        if suffix in "fFdD":
            return (_FLOAT_LIT, body, line, col, float(body))
        is_long = suffix in "lL"
        if is_long:
            if not body.isdigit():
                raise LexerError("'L' suffix on floating literal", SourcePosition(line, col))
            digits = body
        elif text.isdigit():
            digits = text
        else:
            return (_FLOAT_LIT, text, line, col, float(text))
        value = int(digits)
    bits = 64 if is_long else 32
    if value >> bits:
        raise LexerError("integer literal out of range", SourcePosition(line, col))
    if value >> (bits - 1):
        value -= 1 << bits
    if is_long:
        return (_LONG_LIT, digits + "L", line, col, value)
    return (_INT_LIT, digits, line, col, value)


def _string(source: str, start: int, line: int, col: int) -> Token:
    """Decode the string literal opening at ``source[start]``; everything
    wrong with it is reported at the opening quote, first defect first."""
    out: List[str] = []
    i = start + 1
    while True:
        if i >= len(source):
            raise LexerError("unterminated string literal", SourcePosition(line, col))
        ch = source[i]
        i += 1
        if ch == '"':
            break
        if ch == "\n":
            raise LexerError("newline in string literal", SourcePosition(line, col))
        if ch == "\\":
            esc = source[i : i + 1]
            i += 1
            if esc not in _ESCAPES:
                raise LexerError(f"bad escape '\\{esc}'", SourcePosition(line, col))
            out.append(_ESCAPES[esc])
        else:
            out.append(ch)
    value = "".join(out)
    return (_STR_LIT, f'"{value}"', line, col, value)


def tokenize(source: str) -> List[Token]:
    """Tokenize MJ source text, returning a list ending with an EOF token."""
    out: List[Token] = []
    append = out.append
    kind_of = _WORD_KINDS.get
    ident = _IDENT
    line = 1
    line_start = 0  # offset of the current line's first character
    for m in _MASTER.finditer(source):
        group = m.lastindex
        text = m[group]
        start = m.start(group)
        if group == _WORD:
            append((kind_of(text, ident), text, line, start - line_start + 1, None))
        elif group == _NEWLINE:
            line += 1
            line_start = start + 1
        elif group == _COMMENT:
            breaks = text.count("\n")
            if breaks:
                line += breaks
                line_start = start + text.rindex("\n") + 1
        else:
            col = start - line_start + 1
            if group == _NUMBER:
                append(_number(text, line, col))
            elif group == _STRING:
                if "\\" in text:
                    append(_string(source, start, line, col))
                else:
                    append((_STR_LIT, text, line, col, text[1:-1]))
            elif group == _UNICODE_WORD and text[0].isalpha():
                append((ident, text, line, col, None))
            elif group == _END:
                append((_EOF, "", line, col, None))
                break  # after trailing blanks, the end matches once more
            elif text[0] == '"':
                _string(source, start, line, col)  # raises: it did not match whole
            elif text[0] == "/":
                raise LexerError("unterminated block comment", SourcePosition(line, col))
            else:
                raise LexerError(
                    f"unexpected character {text[0]!r}", SourcePosition(line, col)
                )
    return out
