"""Recursive-descent parser for MJ.

The grammar is the familiar Java subset (see README).  One MJ convention the
parser relies on: **class names start with an uppercase letter**, which
disambiguates casts ``(Foo) x`` from parenthesized expressions ``(foo) + x``
without full backtracking.

Every lookahead follows a token that is not EOF, so the lexer's closing
EOF bounds it and ``self.toks[self.i + k]`` needs no bounds check; the
statement and expression methods, which see nearly every token, read it
inline.  Token tables are keyed by ``T._value_``: an ``Enum`` member hashes
in Python, an ``int`` in C.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import NESTED_TOO_DEEPLY, ParseError
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


def _by_value(table):
    return {kind._value_: entry for kind, entry in table.items()}


_PRIM_TOKENS = _by_value({T.INT: INT, T.LONG: LONG, T.FLOAT: FLOAT, T.BOOLEAN: BOOLEAN})

_MODIFIER_TOKENS = (T.PUBLIC, T.PRIVATE, T.PROTECTED, T.FINAL)

#: binary operator token -> (precedence, AST operator); a higher precedence
#: binds tighter.  ``instanceof`` sits with the relational operators and
#: takes a type, not an expression, on its right.
_BINARY_OPS = _by_value({
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
})
_NOT_BINARY = (0, "")
_TIGHTEST = max(prec for prec, _ in _BINARY_OPS.values())

_COMPOUND_ASSIGN = _by_value({
    T.PLUS_ASSIGN: "+",
    T.MINUS_ASSIGN: "-",
    T.STAR_ASSIGN: "*",
    T.SLASH_ASSIGN: "/",
})

_LITERALS = _by_value({
    T.INT_LIT: ast.IntLit,
    T.LONG_LIT: ast.LongLit,
    T.FLOAT_LIT: ast.FloatLit,
    T.STR_LIT: ast.StrLit,
})

#: tokens that may start the operand of a cast to a class type
_CAST_OPERAND_START = (
    T.IDENT, T.INT_LIT, T.LONG_LIT, T.FLOAT_LIT, T.STR_LIT, T.THIS, T.NEW,
    T.NULL, T.LPAREN, T.NOT, T.TRUE, T.FALSE,
)


class Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self.toks = tokens
        self.i = 0

    # ------------------------------------------------------------------ util
    def _peek(self, ahead: int = 0) -> Token:
        return self.toks[self.i + ahead]

    def _at(self, kind: T, ahead: int = 0) -> bool:
        return self.toks[self.i + ahead].kind is kind

    def _advance(self) -> Token:
        tok = self.toks[self.i]
        if tok.kind is not T.EOF:
            self.i += 1
        return tok

    # ``_expect`` and ``_accept`` are never asked for EOF, so a match moves on
    def _expect(self, kind: T) -> Token:
        tok = self.toks[self.i]
        if tok.kind is not kind:
            raise ParseError(
                f"expected {kind.name}, found {tok.kind.name} {tok.text!r}", tok.pos
            )
        self.i += 1
        return tok

    def _accept(self, kind: T) -> Optional[Token]:
        tok = self.toks[self.i]
        if tok.kind is kind:
            self.i += 1
            return tok
        return None

    def _skip_modifiers(self) -> bool:
        """Consume visibility/final modifiers; return True if 'static' seen."""
        is_static = False
        while True:
            kind = self.toks[self.i].kind
            if kind in _MODIFIER_TOKENS:
                self.i += 1
            elif kind is T.STATIC:
                is_static = True
                self.i += 1
            else:
                return is_static

    # ------------------------------------------------------------------ types
    def _parse_type(self) -> Type:
        tok = self._advance()
        ty = _PRIM_TOKENS.get(tok.kind._value_)
        if ty is None:
            if tok.kind is not T.IDENT:
                raise ParseError(f"expected a type, found {tok.text!r}", tok.pos)
            ty = ClassType(tok.text)
        return self._array_dims(ty)

    def _array_dims(self, ty: Type) -> Type:
        """``ty`` wrapped once per ``[ ]`` pair that follows."""
        toks = self.toks
        while toks[self.i].kind is T.LBRACKET and toks[self.i + 1].kind is T.RBRACKET:
            self.i += 2
            ty = ArrayType(ty)
        return ty

    # ------------------------------------------------------------ declarations
    def parse_program(self) -> ast.Program:
        pos = self._peek().pos
        classes: List[ast.ClassDecl] = []
        try:
            while not self._at(T.EOF):
                self._skip_modifiers()
                classes.append(self._parse_class())
        except RecursionError:
            # reported at the token the descent had reached
            raise ParseError(NESTED_TOO_DEEPLY, self._peek().pos) from None
        return ast.Program(classes, pos)

    def _parse_class(self) -> ast.ClassDecl:
        start = self._expect(T.CLASS)
        name = self._expect(T.IDENT).text
        superclass = None
        if self._accept(T.EXTENDS):
            superclass = self._expect(T.IDENT).text
        self._expect(T.LBRACE)
        fields: List[ast.FieldDecl] = []
        methods: List[ast.MethodDecl] = []
        while not self._at(T.RBRACE):
            self._parse_member(name, fields, methods)
        self._expect(T.RBRACE)
        return ast.ClassDecl(name, superclass, fields, methods, start.pos)

    def _parse_member(
        self,
        class_name: str,
        fields: List[ast.FieldDecl],
        methods: List[ast.MethodDecl],
    ) -> None:
        is_static = self._skip_modifiers()
        pos = self._peek().pos

        # constructor: ClassName '('
        if self._at(T.IDENT) and self._peek().text == class_name and self._at(T.LPAREN, 1):
            self._advance()
            params = self._parse_params()
            body = self._parse_block()
            methods.append(
                ast.MethodDecl("<init>", params, VOID, body, False, True, pos)
            )
            return

        if self._accept(T.VOID):
            ret: Type = VOID
        else:
            ret = self._parse_type()
        name = self._expect(T.IDENT).text
        if self._at(T.LPAREN):
            params = self._parse_params()
            body = self._parse_block()
            methods.append(
                ast.MethodDecl(name, params, ret, body, is_static, False, pos)
            )
        else:
            init = None
            if self._accept(T.ASSIGN):
                init = self._parse_expr()
            self._expect(T.SEMI)
            if ret is VOID:
                raise ParseError("field cannot have type void", pos)
            fields.append(ast.FieldDecl(name, ret, is_static, init, pos))

    def _parse_params(self) -> List[ast.Param]:
        self._expect(T.LPAREN)
        params: List[ast.Param] = []
        if not self._at(T.RPAREN):
            while True:
                pos = self._peek().pos
                ty = self._parse_type()
                name = self._expect(T.IDENT).text
                params.append(ast.Param(name, ty, pos))
                if not self._accept(T.COMMA):
                    break
        self._expect(T.RPAREN)
        return params

    # ---------------------------------------------------------------- statements
    def _parse_block(self) -> ast.Block:
        start = self._expect(T.LBRACE)
        stmts: List[ast.Stmt] = []
        toks = self.toks
        while toks[self.i].kind is not T.RBRACE:
            stmts.append(self._parse_stmt())
        self.i += 1
        return ast.Block(stmts, start.pos)

    def _looks_like_vardecl(self) -> bool:
        """A statement starts a local declaration if it begins with a
        primitive type, or ``Ident Ident``, or ``Ident [ ] ``."""
        toks = self.toks
        kind = toks[self.i].kind
        if kind._value_ in _PRIM_TOKENS:
            return True
        if kind is not T.IDENT:
            return False
        # Ident ([])* Ident
        k = self.i + 1
        while toks[k].kind is T.LBRACKET and toks[k + 1].kind is T.RBRACKET:
            k += 2
        return toks[k].kind is T.IDENT

    def _parse_stmt(self) -> ast.Stmt:
        tok = self.toks[self.i]
        kind = tok.kind
        if kind is T.LBRACE:
            return self._parse_block()
        if kind is T.IF:
            return self._parse_if()
        if kind is T.WHILE:
            return self._parse_while()
        if kind is T.FOR:
            return self._parse_for()
        if kind is T.RETURN:
            self.i += 1
            value = None if self.toks[self.i].kind is T.SEMI else self._parse_expr()
            self._expect(T.SEMI)
            return ast.Return(value, tok.pos)
        if kind is T.BREAK:
            self.i += 1
            self._expect(T.SEMI)
            return ast.Break(tok.pos)
        if kind is T.CONTINUE:
            self.i += 1
            self._expect(T.SEMI)
            return ast.Continue(tok.pos)
        if self._looks_like_vardecl():
            stmt = self._parse_vardecl()
        else:
            stmt = ast.ExprStmt(self._parse_expr(), tok.pos)
        self._expect(T.SEMI)
        return stmt

    def _parse_vardecl(self) -> ast.Stmt:
        pos = self.toks[self.i].pos
        ty = self._parse_type()
        name = self._expect(T.IDENT).text
        init = None
        if self._accept(T.ASSIGN):
            init = self._parse_expr()
        return ast.VarDecl(name, ty, init, pos)

    def _parse_if(self) -> ast.Stmt:
        start = self._expect(T.IF)
        self._expect(T.LPAREN)
        cond = self._parse_expr()
        self._expect(T.RPAREN)
        then = self._parse_stmt()
        otherwise = None
        if self._accept(T.ELSE):
            otherwise = self._parse_stmt()
        return ast.If(cond, then, otherwise, start.pos)

    def _parse_while(self) -> ast.Stmt:
        start = self._expect(T.WHILE)
        self._expect(T.LPAREN)
        cond = self._parse_expr()
        self._expect(T.RPAREN)
        body = self._parse_stmt()
        return ast.While(cond, body, start.pos)

    def _parse_for(self) -> ast.Stmt:
        start = self._expect(T.FOR)
        self._expect(T.LPAREN)
        init: Optional[ast.Stmt] = None
        if not self._at(T.SEMI):
            if self._looks_like_vardecl():
                init = self._parse_vardecl()
            else:
                init = ast.ExprStmt(self._parse_expr(), self._peek().pos)
        self._expect(T.SEMI)
        cond = None if self._at(T.SEMI) else self._parse_expr()
        self._expect(T.SEMI)
        update = None if self._at(T.RPAREN) else self._parse_expr()
        self._expect(T.RPAREN)
        body = self._parse_stmt()
        return ast.For(init, cond, update, body, start.pos)

    # ---------------------------------------------------------------- expressions
    def _parse_expr(self) -> ast.Expr:
        """An assignment (right-associative, plain or compound) or a binary
        expression."""
        left = self._parse_binary(1)
        tok = self.toks[self.i]
        if tok.kind is T.ASSIGN:
            self.i += 1
            value = self._parse_expr()
            self._check_lvalue(left)
            return ast.Assign(left, value, tok.pos)
        op = _COMPOUND_ASSIGN.get(tok.kind._value_)
        if op is not None:
            self.i += 1
            rhs = self._parse_expr()
            self._check_lvalue(left)
            return ast.Assign(left, ast.Binary(op, left, rhs, tok.pos), tok.pos)
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
            prec, op = _BINARY_OPS.get(tok.kind._value_, _NOT_BINARY)
            if prec < min_prec or prec > limit:
                return left
            self.i += 1
            if tok.kind is T.INSTANCEOF:
                left = ast.InstanceOf(left, self._parse_type(), tok.pos)
            else:
                right = self._parse_binary(prec + 1)
                left = ast.Binary(op, left, right, tok.pos)
            limit = prec

    def _at_cast(self) -> bool:
        """At LPAREN: (prim | UpperIdent ([])* ) RPAREN <expr-start>?"""
        toks = self.toks
        k = self.i + 1
        tok = toks[k]
        if tok.kind._value_ in _PRIM_TOKENS:
            return True
        if tok.kind is T.IDENT and tok.text[:1].isupper():
            k += 1
            while toks[k].kind is T.LBRACKET and toks[k + 1].kind is T.RBRACKET:
                k += 2
            if toks[k].kind is T.RPAREN:
                return toks[k + 1].kind in _CAST_OPERAND_START
        return False

    def _parse_unary(self) -> ast.Expr:
        """Prefix operators and casts, then a primary and its postfix
        operators."""
        tok = self.toks[self.i]
        kind = tok.kind
        if kind is T.MINUS:
            self.i += 1
            return ast.Unary("-", self._parse_unary(), tok.pos)
        if kind is T.NOT:
            self.i += 1
            return ast.Unary("!", self._parse_unary(), tok.pos)
        if kind is T.PLUSPLUS or kind is T.MINUSMINUS:
            # pre-increment: ++x  ==>  x = x + 1 (value is the new value)
            op = "+" if kind is T.PLUSPLUS else "-"
            self.i += 1
            operand = self._parse_unary()
            self._check_lvalue(operand)
            return ast.Assign(
                operand, ast.Binary(op, operand, ast.IntLit(1, tok.pos), tok.pos), tok.pos
            )
        if kind is T.LPAREN and self._at_cast():
            self.i += 1
            to = self._parse_type()
            self._expect(T.RPAREN)
            return ast.Cast(to, self._parse_unary(), tok.pos)

        expr = self._parse_primary()
        toks = self.toks
        while True:
            tok = toks[self.i]
            kind = tok.kind
            if kind is T.DOT:
                self.i += 1
                name = self._expect(T.IDENT).text
                if toks[self.i].kind is T.LPAREN:
                    expr = ast.Call(expr, name, self._parse_args(), tok.pos)
                elif name == "length":
                    expr = ast.ArrayLength(expr, tok.pos)
                else:
                    expr = ast.FieldAccess(expr, name, tok.pos)
            elif kind is T.LBRACKET:
                self.i += 1
                index = self._parse_expr()
                self._expect(T.RBRACKET)
                expr = ast.ArrayIndex(expr, index, tok.pos)
            elif kind is T.PLUSPLUS or kind is T.MINUSMINUS:
                # postfix inc/dec desugars like the prefix form; MJ code in
                # this repo only uses it in statement position where the
                # difference in result value is unobservable.
                op = "+" if kind is T.PLUSPLUS else "-"
                self.i += 1
                self._check_lvalue(expr)
                expr = ast.Assign(
                    expr,
                    ast.Binary(op, expr, ast.IntLit(1, tok.pos), tok.pos),
                    tok.pos,
                )
            else:
                return expr

    def _parse_args(self) -> List[ast.Expr]:
        """``( expr, ... )``, from the LPAREN the caller is at."""
        self.i += 1
        args: List[ast.Expr] = []
        toks = self.toks
        if toks[self.i].kind is not T.RPAREN:
            args.append(self._parse_expr())
            while toks[self.i].kind is T.COMMA:
                self.i += 1
                args.append(self._parse_expr())
        self._expect(T.RPAREN)
        return args

    def _parse_primary(self) -> ast.Expr:
        tok = self.toks[self.i]
        kind = tok.kind
        if kind is T.IDENT:
            self.i += 1
            if self.toks[self.i].kind is T.LPAREN:
                return ast.Call(None, tok.text, self._parse_args(), tok.pos)
            return ast.VarRef(tok.text, tok.pos)
        literal = _LITERALS.get(kind._value_)
        if literal is not None:
            self.i += 1
            return literal(tok.value, tok.pos)
        if kind is T.TRUE:
            self.i += 1
            return ast.BoolLit(True, tok.pos)
        if kind is T.FALSE:
            self.i += 1
            return ast.BoolLit(False, tok.pos)
        if kind is T.NULL:
            self.i += 1
            return ast.NullLit(tok.pos)
        if kind is T.THIS:
            self.i += 1
            return ast.This(tok.pos)
        if kind is T.NEW:
            return self._parse_new(tok)
        if kind is T.LPAREN:
            self.i += 1
            expr = self._parse_expr()
            self._expect(T.RPAREN)
            return expr
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)

    def _parse_new(self, start: Token) -> ast.Expr:
        """``new C(args)`` or an array allocation, from the NEW ``start``."""
        self.i += 1
        base = _PRIM_TOKENS.get(self.toks[self.i].kind._value_)
        if base is not None:
            self.i += 1
        else:
            name = self._expect(T.IDENT).text
            if self.toks[self.i].kind is T.LPAREN:
                return ast.New(name, self._parse_args(), start.pos)
        self._expect(T.LBRACKET)
        length = self._parse_expr()
        self._expect(T.RBRACKET)
        if base is None:
            base = ClassType(name)
        return ast.NewArray(self._array_dims(base), length, start.pos)


def parse_program(source: str) -> ast.Program:
    """Parse MJ source text into an (unanalyzed) :class:`~repro.lang.ast.Program`."""
    return Parser(tokenize(source)).parse_program()
