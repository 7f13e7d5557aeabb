"""Recursive-descent parser for MJ.

The grammar is the familiar Java subset (see README).  One MJ convention the
parser relies on: **class names start with an uppercase letter**, which
disambiguates casts ``(Foo) x`` from parenthesized expressions ``(foo) + x``
without full backtracking.

Every lookahead follows a token that is not EOF, so the lexer's closing
EOF bounds it and ``self.toks[self.i + k]`` needs no bounds check; the
statement and expression methods, which see nearly every token, read it
inline.  Tokens are the lexer's ``(kind, text, line, col, value)`` tuples,
read by index, and kinds are compared as the ints bound below: an
``Enum`` member costs an attribute lookup per comparison and hashes in
Python.  ``T(kind).name`` is spelled only in error text.  A node takes the
line and column of the token that starts it as two ints; a
``SourcePosition`` is made only for an error.
"""

from __future__ import annotations

from typing import List, Optional

from repro.acyclic import acyclic
from repro.errors import NESTED_TOO_DEEPLY, ParseError, SourcePosition
from repro.lang import ast
from repro.lang.lexer import tokenize
from repro.lang.tokens import T, Token
from repro.lang.types import (
    BOOLEAN,
    FLOAT,
    INT,
    LONG,
    VOID,
    ArrayType,
    ClassType,
    Type,
)


_EOF = T.EOF._value_
_IDENT = T.IDENT._value_
_CLASS = T.CLASS._value_
_EXTENDS = T.EXTENDS._value_
_STATIC = T.STATIC._value_
_VOID = T.VOID._value_
_IF = T.IF._value_
_ELSE = T.ELSE._value_
_WHILE = T.WHILE._value_
_FOR = T.FOR._value_
_RETURN = T.RETURN._value_
_BREAK = T.BREAK._value_
_CONTINUE = T.CONTINUE._value_
_NEW = T.NEW._value_
_THIS = T.THIS._value_
_NULL = T.NULL._value_
_TRUE = T.TRUE._value_
_FALSE = T.FALSE._value_
_INSTANCEOF = T.INSTANCEOF._value_
_LPAREN = T.LPAREN._value_
_RPAREN = T.RPAREN._value_
_LBRACE = T.LBRACE._value_
_RBRACE = T.RBRACE._value_
_LBRACKET = T.LBRACKET._value_
_RBRACKET = T.RBRACKET._value_
_SEMI = T.SEMI._value_
_COMMA = T.COMMA._value_
_DOT = T.DOT._value_
_ASSIGN = T.ASSIGN._value_
_MINUS = T.MINUS._value_
_NOT = T.NOT._value_
_PLUSPLUS = T.PLUSPLUS._value_
_MINUSMINUS = T.MINUSMINUS._value_


def _by_kind(table, default=None):
    """``table`` as a tuple indexed by kind, ``default`` for the kinds it
    leaves out: a lookup is a subscript, not a ``dict.get`` call."""
    out = [default] * (max(kind._value_ for kind in T) + 1)
    for kind, entry in table.items():
        out[kind._value_] = entry
    return tuple(out)


_PRIM_TOKENS = _by_kind({T.INT: INT, T.LONG: LONG, T.FLOAT: FLOAT, T.BOOLEAN: BOOLEAN})

_MODIFIER_TOKENS = tuple(
    kind._value_ for kind in (T.PUBLIC, T.PRIVATE, T.PROTECTED, T.FINAL)
)

#: binary operator token -> (precedence, AST operator); a higher precedence
#: binds tighter.  ``instanceof`` sits with the relational operators and
#: takes a type, not an expression, on its right.
_BINARY_OPS = _by_kind({
    T.OROR: (1, "||"),
    T.ANDAND: (2, "&&"),
    T.PIPE: (3, "|"),
    T.CARET: (4, "^"),
    T.AMP: (5, "&"),
    T.EQ: (6, "=="),
    T.NE: (6, "!="),
    T.LT: (7, "<"),
    T.LE: (7, "<="),
    T.GT: (7, ">"),
    T.GE: (7, ">="),
    T.INSTANCEOF: (7, "instanceof"),
    T.SHL: (8, "<<"),
    T.SHR: (8, ">>"),
    T.USHR: (8, ">>>"),
    T.PLUS: (9, "+"),
    T.MINUS: (9, "-"),
    T.STAR: (10, "*"),
    T.SLASH: (10, "/"),
    T.PERCENT: (10, "%"),
}, (0, ""))
_TIGHTEST = max(prec for prec, _ in _BINARY_OPS)

_COMPOUND_ASSIGN = _by_kind({
    T.PLUS_ASSIGN: "+",
    T.MINUS_ASSIGN: "-",
    T.STAR_ASSIGN: "*",
    T.SLASH_ASSIGN: "/",
})

_LITERALS = _by_kind({
    T.INT_LIT: ast.IntLit,
    T.LONG_LIT: ast.LongLit,
    T.FLOAT_LIT: ast.FloatLit,
    T.STR_LIT: ast.StrLit,
})

#: tokens that may start the operand of a cast to a class type
_CAST_OPERAND_START = frozenset(kind._value_ for kind in (
    T.IDENT, T.INT_LIT, T.LONG_LIT, T.FLOAT_LIT, T.STR_LIT, T.THIS, T.NEW,
    T.NULL, T.LPAREN, T.NOT, T.TRUE, T.FALSE,
))


def _pos(tok: Token) -> SourcePosition:
    """For errors: a node keeps its token's line and column as two ints."""
    return SourcePosition(tok[2], tok[3])


class Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self.toks = tokens
        self.i = 0

    # ------------------------------------------------------------------ util
    def _peek(self, ahead: int = 0) -> Token:
        return self.toks[self.i + ahead]

    def _at(self, kind: int, ahead: int = 0) -> bool:
        return self.toks[self.i + ahead][0] == kind

    def _advance(self) -> Token:
        tok = self.toks[self.i]
        if tok[0] != _EOF:
            self.i += 1
        return tok

    # ``_expect`` and ``_accept`` are never asked for EOF, so a match moves on
    def _expect(self, kind: int) -> Token:
        tok = self.toks[self.i]
        if tok[0] != kind:
            raise ParseError(
                f"expected {T(kind).name}, found {T(tok[0]).name} {tok[1]!r}", _pos(tok)
            )
        self.i += 1
        return tok

    def _accept(self, kind: int) -> Optional[Token]:
        tok = self.toks[self.i]
        if tok[0] == kind:
            self.i += 1
            return tok
        return None

    def _skip_modifiers(self) -> bool:
        """Consume visibility/final modifiers; return True if 'static' seen."""
        is_static = False
        while True:
            kind = self.toks[self.i][0]
            if kind in _MODIFIER_TOKENS:
                self.i += 1
            elif kind == _STATIC:
                is_static = True
                self.i += 1
            else:
                return is_static

    # ------------------------------------------------------------------ types
    def _parse_type(self) -> Type:
        tok = self._advance()
        ty = _PRIM_TOKENS[tok[0]]
        if ty is None:
            if tok[0] != _IDENT:
                raise ParseError(f"expected a type, found {tok[1]!r}", _pos(tok))
            ty = ClassType(tok[1])
        return self._array_dims(ty)

    def _array_dims(self, ty: Type) -> Type:
        """``ty`` wrapped once per ``[ ]`` pair that follows."""
        toks = self.toks
        while toks[self.i][0] == _LBRACKET and toks[self.i + 1][0] == _RBRACKET:
            self.i += 2
            ty = ArrayType(ty)
        return ty

    # ------------------------------------------------------------ declarations
    def parse_program(self) -> ast.Program:
        first = self._peek()
        classes: List[ast.ClassDecl] = []
        try:
            while not self._at(_EOF):
                self._skip_modifiers()
                classes.append(self._parse_class())
        except RecursionError:
            # reported at the token the descent had reached
            raise ParseError(NESTED_TOO_DEEPLY, _pos(self._peek())) from None
        return ast.Program(classes, first[2], first[3])

    def _parse_class(self) -> ast.ClassDecl:
        start = self._expect(_CLASS)
        name = self._expect(_IDENT)[1]
        superclass = None
        if self._accept(_EXTENDS):
            superclass = self._expect(_IDENT)[1]
        self._expect(_LBRACE)
        fields: List[ast.FieldDecl] = []
        methods: List[ast.MethodDecl] = []
        while not self._at(_RBRACE):
            self._parse_member(name, fields, methods)
        self._expect(_RBRACE)
        return ast.ClassDecl(name, superclass, fields, methods, start[2], start[3])

    def _parse_member(
        self,
        class_name: str,
        fields: List[ast.FieldDecl],
        methods: List[ast.MethodDecl],
    ) -> None:
        is_static = self._skip_modifiers()
        start = self._peek()

        # constructor: ClassName '('
        if start[0] == _IDENT and start[1] == class_name and self._at(_LPAREN, 1):
            self._advance()
            params = self._parse_params()
            body = self._parse_block()
            methods.append(
                ast.MethodDecl(
                    "<init>", params, VOID, body, False, True, start[2], start[3]
                )
            )
            return

        if self._accept(_VOID):
            ret: Type = VOID
        else:
            ret = self._parse_type()
        name = self._expect(_IDENT)[1]
        if self._at(_LPAREN):
            params = self._parse_params()
            body = self._parse_block()
            methods.append(
                ast.MethodDecl(
                    name, params, ret, body, is_static, False, start[2], start[3]
                )
            )
        else:
            init = None
            if self._accept(_ASSIGN):
                init = self._parse_expr()
            self._expect(_SEMI)
            if ret is VOID:
                raise ParseError("field cannot have type void", _pos(start))
            fields.append(
                ast.FieldDecl(name, ret, is_static, init, start[2], start[3])
            )

    def _parse_params(self) -> List[ast.Param]:
        self._expect(_LPAREN)
        params: List[ast.Param] = []
        if not self._at(_RPAREN):
            while True:
                start = self._peek()
                ty = self._parse_type()
                name = self._expect(_IDENT)[1]
                params.append(ast.Param(name, ty, start[2], start[3]))
                if not self._accept(_COMMA):
                    break
        self._expect(_RPAREN)
        return params

    # ---------------------------------------------------------------- statements
    def _parse_block(self) -> ast.Block:
        start = self._expect(_LBRACE)
        stmts: List[ast.Stmt] = []
        toks = self.toks
        while toks[self.i][0] != _RBRACE:
            stmts.append(self._parse_stmt())
        self.i += 1
        return ast.Block(stmts, start[2], start[3])

    def _looks_like_vardecl(self) -> bool:
        """A statement starts a local declaration if it begins with a
        primitive type, or ``Ident Ident``, or ``Ident [ ] ``."""
        toks = self.toks
        kind = toks[self.i][0]
        if _PRIM_TOKENS[kind] is not None:
            return True
        if kind != _IDENT:
            return False
        # Ident ([])* Ident
        k = self.i + 1
        while toks[k][0] == _LBRACKET and toks[k + 1][0] == _RBRACKET:
            k += 2
        return toks[k][0] == _IDENT

    def _parse_stmt(self) -> ast.Stmt:
        tok = self.toks[self.i]
        kind = tok[0]
        if kind == _LBRACE:
            return self._parse_block()
        if kind == _IF:
            return self._parse_if()
        if kind == _WHILE:
            return self._parse_while()
        if kind == _FOR:
            return self._parse_for()
        if kind == _RETURN:
            self.i += 1
            value = None if self.toks[self.i][0] == _SEMI else self._parse_expr()
            self._expect(_SEMI)
            return ast.Return(value, tok[2], tok[3])
        if kind == _BREAK:
            self.i += 1
            self._expect(_SEMI)
            return ast.Break(tok[2], tok[3])
        if kind == _CONTINUE:
            self.i += 1
            self._expect(_SEMI)
            return ast.Continue(tok[2], tok[3])
        if self._looks_like_vardecl():
            stmt = self._parse_vardecl()
        else:
            stmt = ast.ExprStmt(self._parse_expr(), tok[2], tok[3])
        self._expect(_SEMI)
        return stmt

    def _parse_vardecl(self) -> ast.Stmt:
        start = self.toks[self.i]
        ty = self._parse_type()
        name = self._expect(_IDENT)[1]
        init = None
        if self._accept(_ASSIGN):
            init = self._parse_expr()
        return ast.VarDecl(name, ty, init, start[2], start[3])

    def _parse_if(self) -> ast.Stmt:
        start = self._expect(_IF)
        self._expect(_LPAREN)
        cond = self._parse_expr()
        self._expect(_RPAREN)
        then = self._parse_stmt()
        otherwise = None
        if self._accept(_ELSE):
            otherwise = self._parse_stmt()
        return ast.If(cond, then, otherwise, start[2], start[3])

    def _parse_while(self) -> ast.Stmt:
        start = self._expect(_WHILE)
        self._expect(_LPAREN)
        cond = self._parse_expr()
        self._expect(_RPAREN)
        body = self._parse_stmt()
        return ast.While(cond, body, start[2], start[3])

    def _parse_for(self) -> ast.Stmt:
        start = self._expect(_FOR)
        self._expect(_LPAREN)
        init: Optional[ast.Stmt] = None
        if not self._at(_SEMI):
            if self._looks_like_vardecl():
                init = self._parse_vardecl()
            else:
                expr = self._parse_expr()
                at = self.toks[self.i]
                init = ast.ExprStmt(expr, at[2], at[3])
        self._expect(_SEMI)
        cond = None if self._at(_SEMI) else self._parse_expr()
        self._expect(_SEMI)
        update = None if self._at(_RPAREN) else self._parse_expr()
        self._expect(_RPAREN)
        body = self._parse_stmt()
        return ast.For(init, cond, update, body, start[2], start[3])

    # ---------------------------------------------------------------- expressions
    def _parse_expr(self) -> ast.Expr:
        """An assignment (right-associative, plain or compound) or a binary
        expression."""
        left = self._parse_binary(1)
        tok = self.toks[self.i]
        kind = tok[0]
        if kind == _ASSIGN:
            self.i += 1
            value = self._parse_expr()
            self._check_lvalue(left)
            return ast.Assign(left, value, tok[2], tok[3])
        op = _COMPOUND_ASSIGN[kind]
        if op is not None:
            self.i += 1
            rhs = self._parse_expr()
            self._check_lvalue(left)
            line, col = tok[2], tok[3]
            return ast.Assign(left, ast.Binary(op, left, rhs, line, col), line, col)
        return left

    def _check_lvalue(self, expr: ast.Expr) -> None:
        if not isinstance(expr, (ast.VarRef, ast.FieldAccess, ast.ArrayIndex)):
            raise ParseError("invalid assignment target", expr.pos)

    def _parse_binary(self, min_prec: int) -> ast.Expr:
        """Precedence climbing over :data:`_BINARY_OPS`: operators binding
        at least as tightly as ``min_prec``, all left-associative."""
        left = self._parse_unary()
        # An operator's right operand swallows everything tighter, so the
        # next operator seen here is never tighter than the last — except
        # after ``instanceof``, whose right side is a type: ``a instanceof B
        # << c`` is not an expression, and ``limit`` stops it here.
        limit = _TIGHTEST
        toks = self.toks
        while True:
            tok = toks[self.i]
            prec, op = _BINARY_OPS[tok[0]]
            if prec < min_prec or prec > limit:
                return left
            self.i += 1
            if tok[0] == _INSTANCEOF:
                left = ast.InstanceOf(left, self._parse_type(), tok[2], tok[3])
            else:
                right = self._parse_binary(prec + 1)
                left = ast.Binary(op, left, right, tok[2], tok[3])
            limit = prec

    def _at_cast(self) -> bool:
        """At LPAREN: (prim | UpperIdent ([])* ) RPAREN <expr-start>?"""
        toks = self.toks
        k = self.i + 1
        tok = toks[k]
        if _PRIM_TOKENS[tok[0]] is not None:
            return True
        if tok[0] == _IDENT and tok[1][:1].isupper():
            k += 1
            while toks[k][0] == _LBRACKET and toks[k + 1][0] == _RBRACKET:
                k += 2
            if toks[k][0] == _RPAREN:
                return toks[k + 1][0] in _CAST_OPERAND_START
        return False

    def _parse_unary(self) -> ast.Expr:
        """Prefix operators and casts, then a primary and its postfix
        operators."""
        tok = self.toks[self.i]
        kind = tok[0]
        if kind == _MINUS:
            self.i += 1
            return ast.Unary("-", self._parse_unary(), tok[2], tok[3])
        if kind == _NOT:
            self.i += 1
            return ast.Unary("!", self._parse_unary(), tok[2], tok[3])
        if kind == _PLUSPLUS or kind == _MINUSMINUS:
            # pre-increment: ++x  ==>  x = x + 1 (value is the new value)
            op = "+" if kind == _PLUSPLUS else "-"
            self.i += 1
            operand = self._parse_unary()
            self._check_lvalue(operand)
            line, col = tok[2], tok[3]
            return ast.Assign(
                operand,
                ast.Binary(op, operand, ast.IntLit(1, line, col), line, col),
                line,
                col,
            )
        if kind == _LPAREN and self._at_cast():
            self.i += 1
            to = self._parse_type()
            self._expect(_RPAREN)
            return ast.Cast(to, self._parse_unary(), tok[2], tok[3])

        expr = self._parse_primary()
        toks = self.toks
        while True:
            tok = toks[self.i]
            kind = tok[0]
            if kind == _DOT:
                self.i += 1
                name = self._expect(_IDENT)[1]
                line, col = tok[2], tok[3]
                if toks[self.i][0] == _LPAREN:
                    expr = ast.Call(expr, name, self._parse_args(), line, col)
                elif name == "length":
                    expr = ast.ArrayLength(expr, line, col)
                else:
                    expr = ast.FieldAccess(expr, name, line, col)
            elif kind == _LBRACKET:
                self.i += 1
                index = self._parse_expr()
                self._expect(_RBRACKET)
                expr = ast.ArrayIndex(expr, index, tok[2], tok[3])
            elif kind == _PLUSPLUS or kind == _MINUSMINUS:
                # postfix inc/dec desugars like the prefix form; MJ code in
                # this repo only uses it in statement position where the
                # difference in result value is unobservable.
                op = "+" if kind == _PLUSPLUS else "-"
                self.i += 1
                self._check_lvalue(expr)
                line, col = tok[2], tok[3]
                expr = ast.Assign(
                    expr,
                    ast.Binary(op, expr, ast.IntLit(1, line, col), line, col),
                    line,
                    col,
                )
            else:
                return expr

    def _parse_args(self) -> List[ast.Expr]:
        """``( expr, ... )``, from the LPAREN the caller is at."""
        self.i += 1
        args: List[ast.Expr] = []
        toks = self.toks
        if toks[self.i][0] != _RPAREN:
            args.append(self._parse_expr())
            while toks[self.i][0] == _COMMA:
                self.i += 1
                args.append(self._parse_expr())
        self._expect(_RPAREN)
        return args

    def _parse_primary(self) -> ast.Expr:
        tok = self.toks[self.i]
        kind = tok[0]
        if kind == _IDENT:
            self.i += 1
            line, col = tok[2], tok[3]
            if self.toks[self.i][0] == _LPAREN:
                return ast.Call(None, tok[1], self._parse_args(), line, col)
            return ast.VarRef(tok[1], line, col)
        literal = _LITERALS[kind]
        if literal is not None:
            self.i += 1
            return literal(tok[4], tok[2], tok[3])
        if kind == _TRUE:
            self.i += 1
            return ast.BoolLit(True, tok[2], tok[3])
        if kind == _FALSE:
            self.i += 1
            return ast.BoolLit(False, tok[2], tok[3])
        if kind == _NULL:
            self.i += 1
            return ast.NullLit(tok[2], tok[3])
        if kind == _THIS:
            self.i += 1
            return ast.This(tok[2], tok[3])
        if kind == _NEW:
            return self._parse_new(tok)
        if kind == _LPAREN:
            self.i += 1
            expr = self._parse_expr()
            self._expect(_RPAREN)
            return expr
        raise ParseError(f"unexpected token {tok[1]!r}", _pos(tok))

    def _parse_new(self, start: Token) -> ast.Expr:
        """``new C(args)`` or an array allocation, from the NEW ``start``."""
        self.i += 1
        base = _PRIM_TOKENS[self.toks[self.i][0]]
        if base is not None:
            self.i += 1
        else:
            name = self._expect(_IDENT)[1]
            if self.toks[self.i][0] == _LPAREN:
                return ast.New(name, self._parse_args(), start[2], start[3])
        self._expect(_LBRACKET)
        length = self._parse_expr()
        self._expect(_RBRACKET)
        if base is None:
            base = ClassType(name)
        return ast.NewArray(self._array_dims(base), length, start[2], start[3])


@acyclic
def parse_program(source: str) -> ast.Program:
    """Parse MJ source text into an (unanalyzed) :class:`~repro.lang.ast.Program`."""
    return Parser(tokenize(source)).parse_program()
