"""The hand-written character scanner ``repro.lang.lexer`` shipped before
``tokenize`` became one compiled pattern, kept verbatim as the oracle of
``test_lexer_oracle.py``, with the token object it made then (the shipped
scanner makes plain tuples).  Known defects, fixed in the shipped scanner
and left in here on purpose: an empty hexadecimal body (``0x``) and every
character ``str.isdigit()`` accepts beyond ``0-9`` reach ``int()`` /
``float()``, which either raise a bare ``ValueError`` (``²``) or quietly
read a non-ASCII digit as a number.

One rule was added here as it was added to the shipped scanner, since it
changes what a correct stream is: an integer literal's value is its
two's-complement reading at its type's width (``_integer``).
"""

from __future__ import annotations

from typing import Any, List

from repro.errors import LexerError, SourcePosition
from repro.lang.tokens import KEYWORDS, T


class Token:
    """A single lexed token with source position."""

    __slots__ = ("kind", "text", "value", "pos")

    def __init__(self, kind: T, text: str, pos: SourcePosition, value: Any = None):
        self.kind = kind
        self.text = text
        self.pos = pos
        #: decoded literal value for *_LIT tokens
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.kind.name}, {self.text!r}@{self.pos})"


def _integer(kind: T, text: str, pos: SourcePosition, value: int) -> Token:
    """An INT_LIT (32-bit) or LONG_LIT (64-bit) token whose value is the
    signed number with the literal's bit pattern; more bits are an error."""
    width = 64 if kind is T.LONG_LIT else 32
    if not 0 <= value < 2**width:
        raise LexerError("integer literal out of range", pos)
    if value >= 2 ** (width - 1):
        value -= 2**width
    return Token(kind, text, pos, value)

_TWO_CHAR = {
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
}

_ONE_CHAR = {
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

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\", "'": "'", "0": "\0"}


class Lexer:
    """Streaming tokenizer; use :func:`tokenize` for the common path."""

    def __init__(self, source: str) -> None:
        self.src = source
        self.i = 0
        self.line = 1
        self.col = 1

    # -- low-level helpers -------------------------------------------------
    def _pos(self) -> SourcePosition:
        return SourcePosition(self.line, self.col)

    def _peek(self, ahead: int = 0) -> str:
        j = self.i + ahead
        return self.src[j] if j < len(self.src) else ""

    def _advance(self) -> str:
        ch = self.src[self.i]
        self.i += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch

    def _skip_trivia(self) -> None:
        while self.i < len(self.src):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.i < len(self.src) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start = self._pos()
                self._advance()
                self._advance()
                while True:
                    if self.i >= len(self.src):
                        raise LexerError("unterminated block comment", start)
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance()
                        self._advance()
                        break
                    self._advance()
            else:
                return

    # -- literal scanning --------------------------------------------------
    def _number(self) -> Token:
        pos = self._pos()
        start = self.i
        if self._peek() == "0" and self._peek(1) and self._peek(1) in "xX":
            self._advance()
            self._advance()
            while self._peek() and (self._peek() in "0123456789abcdefABCDEF"):
                self._advance()
            text = self.src[start : self.i]
            value = int(text, 16)
            nxt = self._peek()
            if nxt and nxt in "lL":
                self._advance()
                return _integer(T.LONG_LIT, text + "L", pos, value)
            return _integer(T.INT_LIT, text, pos, value)

        is_float = False
        while self._peek().isdigit():
            self._advance()
        if self._peek() == "." and self._peek(1).isdigit():
            is_float = True
            self._advance()
            while self._peek().isdigit():
                self._advance()
        if self._peek() and self._peek() in "eE" and (
            self._peek(1).isdigit()
            or (self._peek(1) in "+-" and self._peek(2).isdigit())
        ):
            is_float = True
            self._advance()
            if self._peek() and self._peek() in "+-":
                self._advance()
            while self._peek().isdigit():
                self._advance()
        text = self.src[start : self.i]
        if self._peek() and self._peek() in "fFdD":
            self._advance()
            return Token(T.FLOAT_LIT, text, pos, float(text))
        if self._peek() and self._peek() in "lL":
            if is_float:
                raise LexerError("'L' suffix on floating literal", pos)
            self._advance()
            return _integer(T.LONG_LIT, text + "L", pos, int(text))
        if is_float:
            return Token(T.FLOAT_LIT, text, pos, float(text))
        return _integer(T.INT_LIT, text, pos, int(text))

    def _string(self) -> Token:
        pos = self._pos()
        self._advance()  # opening quote
        out: List[str] = []
        while True:
            if self.i >= len(self.src):
                raise LexerError("unterminated string literal", pos)
            ch = self._advance()
            if ch == '"':
                break
            if ch == "\n":
                raise LexerError("newline in string literal", pos)
            if ch == "\\":
                esc = self._advance() if self.i < len(self.src) else ""
                if esc not in _ESCAPES:
                    raise LexerError(f"bad escape '\\{esc}'", pos)
                out.append(_ESCAPES[esc])
            else:
                out.append(ch)
        value = "".join(out)
        return Token(T.STR_LIT, f'"{value}"', pos, value)

    # -- main loop ----------------------------------------------------------
    def next_token(self) -> Token:
        self._skip_trivia()
        pos = self._pos()
        if self.i >= len(self.src):
            return Token(T.EOF, "", pos)
        ch = self._peek()
        if ch.isdigit():
            return self._number()
        if ch == '"':
            return self._string()
        if ch.isalpha() or ch == "_":
            start = self.i
            while self._peek().isalnum() or self._peek() == "_":
                self._advance()
            text = self.src[start : self.i]
            kind = KEYWORDS.get(text, T.IDENT)
            return Token(kind, text, pos)
        # operators; check ">>>" before ">>"
        if self.src.startswith(">>>", self.i):
            for _ in range(3):
                self._advance()
            return Token(T.USHR, ">>>", pos)
        two = self.src[self.i : self.i + 2]
        if two in _TWO_CHAR:
            self._advance()
            self._advance()
            return Token(_TWO_CHAR[two], two, pos)
        if ch in _ONE_CHAR:
            self._advance()
            return Token(_ONE_CHAR[ch], ch, pos)
        raise LexerError(f"unexpected character {ch!r}", pos)

    def tokens(self) -> List[Token]:
        out: List[Token] = []
        while True:
            tok = self.next_token()
            out.append(tok)
            if tok.kind is T.EOF:
                return out


def tokenize(source: str) -> List[Token]:
    """Tokenize MJ source text, returning a list ending with an EOF token."""
    return Lexer(source).tokens()
