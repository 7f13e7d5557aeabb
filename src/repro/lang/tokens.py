"""Token kinds and the token shape of the MJ lexer.

A token is the exact tuple ``(kind, text, line, col, value)``: ``kind`` is
the :class:`T` member's small-int ``_value_`` (``T(kind).name`` spells it),
``text`` the spelling (a string literal's is its decoded value in quotes),
``line`` / ``col`` its 1-based position, and ``value`` the decoded value of
a literal, ``None`` for every other kind.  Every field is atomic, so the
collector stops tracking a token after its first pass over it.
"""

from __future__ import annotations

from enum import Enum, auto
from typing import Any, Tuple


class T(Enum):
    """Token kinds.  Punctuation tokens carry their spelling in ``text``."""

    # literals / identifiers
    INT_LIT = auto()
    LONG_LIT = auto()
    FLOAT_LIT = auto()
    STR_LIT = auto()
    IDENT = auto()

    # keywords
    CLASS = auto()
    EXTENDS = auto()
    STATIC = auto()
    VOID = auto()
    INT = auto()
    LONG = auto()
    FLOAT = auto()
    BOOLEAN = auto()
    IF = auto()
    ELSE = auto()
    WHILE = auto()
    FOR = auto()
    RETURN = auto()
    NEW = auto()
    THIS = auto()
    NULL = auto()
    TRUE = auto()
    FALSE = auto()
    BREAK = auto()
    CONTINUE = auto()
    INSTANCEOF = auto()
    PUBLIC = auto()
    PRIVATE = auto()
    PROTECTED = auto()
    FINAL = auto()

    # punctuation / operators
    LPAREN = auto()
    RPAREN = auto()
    LBRACE = auto()
    RBRACE = auto()
    LBRACKET = auto()
    RBRACKET = auto()
    SEMI = auto()
    COMMA = auto()
    DOT = auto()
    ASSIGN = auto()       # =
    PLUS = auto()
    MINUS = auto()
    STAR = auto()
    SLASH = auto()
    PERCENT = auto()
    NOT = auto()          # !
    LT = auto()
    LE = auto()
    GT = auto()
    GE = auto()
    EQ = auto()           # ==
    NE = auto()           # !=
    ANDAND = auto()       # &&
    OROR = auto()         # ||
    AMP = auto()          # &
    PIPE = auto()         # |
    CARET = auto()        # ^
    SHL = auto()          # <<
    SHR = auto()          # >>
    USHR = auto()         # >>>
    PLUSPLUS = auto()     # ++
    MINUSMINUS = auto()   # --
    PLUS_ASSIGN = auto()  # +=
    MINUS_ASSIGN = auto() # -=
    STAR_ASSIGN = auto()  # *=
    SLASH_ASSIGN = auto() # /=
    EOF = auto()


KEYWORDS = {
    "class": T.CLASS,
    "extends": T.EXTENDS,
    "static": T.STATIC,
    "void": T.VOID,
    "int": T.INT,
    "long": T.LONG,
    "float": T.FLOAT,
    "double": T.FLOAT,   # MJ treats double as an alias of float (binary64)
    "boolean": T.BOOLEAN,
    "if": T.IF,
    "else": T.ELSE,
    "while": T.WHILE,
    "for": T.FOR,
    "return": T.RETURN,
    "new": T.NEW,
    "this": T.THIS,
    "null": T.NULL,
    "true": T.TRUE,
    "false": T.FALSE,
    "break": T.BREAK,
    "continue": T.CONTINUE,
    "instanceof": T.INSTANCEOF,
    "public": T.PUBLIC,
    "private": T.PRIVATE,
    "protected": T.PROTECTED,
    "final": T.FINAL,
}


#: ``(kind, text, line, col, value)``; see the module docstring
Token = Tuple[int, str, int, int, Any]
