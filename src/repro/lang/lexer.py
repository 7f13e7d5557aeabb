"""Scanner for MJ source text: one compiled pattern, one pass.

Supports Java-style ``//`` and ``/* */`` comments, decimal and hexadecimal
integer literals with an optional ``L`` suffix, floating literals (with
optional ``f``/``F``/``d``/``D`` suffix), string literals with the common
escapes, and all MJ operators (see :mod:`repro.lang.tokens`).  Digits are
ASCII only; identifiers may use any Unicode letter.
"""

from __future__ import annotations

import re
from typing import List

from repro.errors import LexerError, SourcePosition
from repro.lang.tokens import KEYWORDS, T, Token

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
_WORD_KINDS = {**KEYWORDS, **_OPERATORS}

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\", "'": "'", "0": "\0"}

# One match per token, comment or line break; blanks before it are skipped
# by the same match.  Longest operators first, and a "/" that opens a
# comment is left to the comment group.  The alternatives are total — end of
# input, "\n", or any other character — so ``finditer`` never skips text.
_WORD, _NUMBER, _STRING, _NEWLINE, _COMMENT, _UNICODE_WORD, _EOF, _OTHER = range(1, 9)
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


def _number(text: str, pos: SourcePosition) -> Token:
    if text[:2] in ("0x", "0X"):
        digits = text.rstrip("lL")
        if len(digits) == 2:
            raise LexerError("hexadecimal literal without digits", pos)
        if len(digits) != len(text):
            return Token(T.LONG_LIT, digits + "L", pos, int(digits, 16))
        return Token(T.INT_LIT, digits, pos, int(digits, 16))
    body, suffix = text[:-1], text[-1]
    if suffix in "fFdD":
        return Token(T.FLOAT_LIT, body, pos, float(body))
    if suffix in "lL":
        if not body.isdigit():
            raise LexerError("'L' suffix on floating literal", pos)
        return Token(T.LONG_LIT, body + "L", pos, int(body))
    if text.isdigit():
        return Token(T.INT_LIT, text, pos, int(text))
    return Token(T.FLOAT_LIT, text, pos, float(text))


def _string(source: str, start: int, pos: SourcePosition) -> Token:
    """Decode the string literal opening at ``source[start]``; everything
    wrong with it is reported at the opening quote, first defect first."""
    out: List[str] = []
    i = start + 1
    while True:
        if i >= len(source):
            raise LexerError("unterminated string literal", pos)
        ch = source[i]
        i += 1
        if ch == '"':
            break
        if ch == "\n":
            raise LexerError("newline in string literal", pos)
        if ch == "\\":
            esc = source[i : i + 1]
            i += 1
            if esc not in _ESCAPES:
                raise LexerError(f"bad escape '\\{esc}'", pos)
            out.append(_ESCAPES[esc])
        else:
            out.append(ch)
    value = "".join(out)
    return Token(T.STR_LIT, f'"{value}"', pos, value)


def tokenize(source: str) -> List[Token]:
    """Tokenize MJ source text, returning a list ending with an EOF token."""
    out: List[Token] = []
    append = out.append
    kind_of = _WORD_KINDS.get
    ident = T.IDENT
    line = 1
    line_start = 0  # offset of the current line's first character
    for m in _MASTER.finditer(source):
        group = m.lastindex
        text = m.group(group)
        start = m.start(group)
        if group == _WORD:
            append(Token(
                kind_of(text, ident), text,
                SourcePosition(line, start - line_start + 1),
            ))
        elif group == _NEWLINE:
            line += 1
            line_start = start + 1
        elif group == _COMMENT:
            breaks = text.count("\n")
            if breaks:
                line += breaks
                line_start = start + text.rindex("\n") + 1
        else:
            pos = SourcePosition(line, start - line_start + 1)
            if group == _NUMBER:
                append(_number(text, pos))
            elif group == _STRING:
                if "\\" in text:
                    append(_string(source, start, pos))
                else:
                    append(Token(T.STR_LIT, text, pos, text[1:-1]))
            elif group == _UNICODE_WORD and text[0].isalpha():
                append(Token(ident, text, pos))
            elif group == _EOF:
                append(Token(T.EOF, "", pos))
                break  # after trailing blanks, the end matches once more
            elif text[0] == '"':
                _string(source, start, pos)  # raises: it did not match whole
            elif text[0] == "/":
                raise LexerError("unterminated block comment", pos)
            else:
                raise LexerError(f"unexpected character {text[0]!r}", pos)
    return out
