"""The recursive-descent parser ``repro.lang.parser`` shipped before it read
each token inline from an EOF-padded copy of the token list and keyed its
token tables by ``T._value_``, kept verbatim as the oracle of
``test_parser_oracle.py``.  It reads the token objects of its time
(``_reference_lexer.Token``); the oracle turns the shipped scanner's tuples
into those.

Recursive-descent parser for MJ.

The grammar is the familiar Java subset (see README).  One MJ convention the
parser relies on: **class names start with an uppercase letter**, which
disambiguates casts ``(Foo) x`` from parenthesized expressions ``(foo) + x``
without full backtracking.
"""

from __future__ import annotations

from typing import List, Optional

from _reference_lexer import Token, tokenize

from repro.errors import NESTED_TOO_DEEPLY, ParseError
from repro.lang import ast
from repro.lang.tokens import T
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

_PRIM_TOKENS = {T.INT: INT, T.LONG: LONG, T.FLOAT: FLOAT, T.BOOLEAN: BOOLEAN}

_MODIFIER_TOKENS = (T.PUBLIC, T.PRIVATE, T.PROTECTED, T.FINAL)

#: binary operator token -> (precedence, AST operator); a higher precedence
#: binds tighter.  ``instanceof`` sits with the relational operators and
#: takes a type, not an expression, on its right.
_BINARY_OPS = {
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
}
_NOT_BINARY = (0, "")
_TIGHTEST = max(prec for prec, _ in _BINARY_OPS.values())

_COMPOUND_ASSIGN = {
    T.PLUS_ASSIGN: "+",
    T.MINUS_ASSIGN: "-",
    T.STAR_ASSIGN: "*",
    T.SLASH_ASSIGN: "/",
}


def _lc(pos):
    """A token's position as the ``line, col`` a node is built with."""
    return pos.line, pos.col


class Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self.toks = tokens
        self.i = 0

    # ------------------------------------------------------------------ util
    def _peek(self, ahead: int = 0) -> Token:
        j = self.i + ahead
        return self.toks[j] if j < len(self.toks) else self.toks[-1]

    def _at(self, kind: T, ahead: int = 0) -> bool:
        return self._peek(ahead).kind is kind

    def _advance(self) -> Token:
        tok = self.toks[self.i]
        if tok.kind is not T.EOF:
            self.i += 1
        return tok

    def _expect(self, kind: T, what: str = "") -> Token:
        tok = self._peek()
        if tok.kind is not kind:
            msg = what or f"expected {kind.name}, found {tok.kind.name} {tok.text!r}"
            raise ParseError(msg, tok.pos)
        return self._advance()

    def _accept(self, kind: T) -> Optional[Token]:
        if self._at(kind):
            return self._advance()
        return None

    def _skip_modifiers(self) -> bool:
        """Consume visibility/final modifiers; return True if 'static' seen."""
        is_static = False
        while True:
            tok = self._peek()
            if tok.kind in _MODIFIER_TOKENS:
                self._advance()
            elif tok.kind is T.STATIC:
                is_static = True
                self._advance()
            else:
                return is_static

    # ------------------------------------------------------------------ types
    def _at_type_start(self, ahead: int = 0) -> bool:
        tok = self._peek(ahead)
        return tok.kind in _PRIM_TOKENS or tok.kind is T.IDENT

    def _parse_type(self) -> Type:
        tok = self._advance()
        if tok.kind in _PRIM_TOKENS:
            ty: Type = _PRIM_TOKENS[tok.kind]
        elif tok.kind is T.IDENT:
            ty = ClassType(tok.text)
        else:
            raise ParseError(f"expected a type, found {tok.text!r}", tok.pos)
        while self._at(T.LBRACKET) and self._at(T.RBRACKET, 1):
            self._advance()
            self._advance()
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
        return ast.Program(classes, *_lc(pos))

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
        return ast.ClassDecl(name, superclass, fields, methods, *_lc(start.pos))

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
                ast.MethodDecl("<init>", params, VOID, body, False, True, *_lc(pos))
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
                ast.MethodDecl(name, params, ret, body, is_static, False, *_lc(pos))
            )
        else:
            init = None
            if self._accept(T.ASSIGN):
                init = self._parse_expr()
            self._expect(T.SEMI)
            if ret is VOID:
                raise ParseError("field cannot have type void", pos)
            fields.append(ast.FieldDecl(name, ret, is_static, init, *_lc(pos)))

    def _parse_params(self) -> List[ast.Param]:
        self._expect(T.LPAREN)
        params: List[ast.Param] = []
        if not self._at(T.RPAREN):
            while True:
                pos = self._peek().pos
                ty = self._parse_type()
                name = self._expect(T.IDENT).text
                params.append(ast.Param(name, ty, *_lc(pos)))
                if not self._accept(T.COMMA):
                    break
        self._expect(T.RPAREN)
        return params

    # ---------------------------------------------------------------- statements
    def _parse_block(self) -> ast.Block:
        start = self._expect(T.LBRACE)
        stmts: List[ast.Stmt] = []
        while not self._at(T.RBRACE):
            stmts.append(self._parse_stmt())
        self._expect(T.RBRACE)
        return ast.Block(stmts, *_lc(start.pos))

    def _looks_like_vardecl(self) -> bool:
        """A statement starts a local declaration if it begins with a
        primitive type, or ``Ident Ident``, or ``Ident [ ] ``."""
        if self._peek().kind in _PRIM_TOKENS:
            return True
        if self._at(T.IDENT):
            if self._at(T.IDENT, 1):
                return True
            k = 1
            # Ident ([])* Ident
            while self._at(T.LBRACKET, k) and self._at(T.RBRACKET, k + 1):
                k += 2
            if k > 1 and self._at(T.IDENT, k):
                return True
        return False

    def _parse_stmt(self) -> ast.Stmt:
        tok = self._peek()
        if tok.kind is T.LBRACE:
            return self._parse_block()
        if tok.kind is T.IF:
            return self._parse_if()
        if tok.kind is T.WHILE:
            return self._parse_while()
        if tok.kind is T.FOR:
            return self._parse_for()
        if tok.kind is T.RETURN:
            self._advance()
            value = None if self._at(T.SEMI) else self._parse_expr()
            self._expect(T.SEMI)
            return ast.Return(value, *_lc(tok.pos))
        if tok.kind is T.BREAK:
            self._advance()
            self._expect(T.SEMI)
            return ast.Break(*_lc(tok.pos))
        if tok.kind is T.CONTINUE:
            self._advance()
            self._expect(T.SEMI)
            return ast.Continue(*_lc(tok.pos))
        if self._looks_like_vardecl():
            stmt = self._parse_vardecl()
            self._expect(T.SEMI)
            return stmt
        expr = self._parse_expr()
        self._expect(T.SEMI)
        return ast.ExprStmt(expr, *_lc(tok.pos))

    def _parse_vardecl(self) -> ast.Stmt:
        pos = self._peek().pos
        ty = self._parse_type()
        name = self._expect(T.IDENT).text
        init = None
        if self._accept(T.ASSIGN):
            init = self._parse_expr()
        return ast.VarDecl(name, ty, init, *_lc(pos))

    def _parse_if(self) -> ast.Stmt:
        start = self._expect(T.IF)
        self._expect(T.LPAREN)
        cond = self._parse_expr()
        self._expect(T.RPAREN)
        then = self._parse_stmt()
        otherwise = None
        if self._accept(T.ELSE):
            otherwise = self._parse_stmt()
        return ast.If(cond, then, otherwise, *_lc(start.pos))

    def _parse_while(self) -> ast.Stmt:
        start = self._expect(T.WHILE)
        self._expect(T.LPAREN)
        cond = self._parse_expr()
        self._expect(T.RPAREN)
        body = self._parse_stmt()
        return ast.While(cond, body, *_lc(start.pos))

    def _parse_for(self) -> ast.Stmt:
        start = self._expect(T.FOR)
        self._expect(T.LPAREN)
        init: Optional[ast.Stmt] = None
        if not self._at(T.SEMI):
            if self._looks_like_vardecl():
                init = self._parse_vardecl()
            else:
                init = ast.ExprStmt(self._parse_expr(), *_lc(self._peek().pos))
        self._expect(T.SEMI)
        cond = None if self._at(T.SEMI) else self._parse_expr()
        self._expect(T.SEMI)
        update = None if self._at(T.RPAREN) else self._parse_expr()
        self._expect(T.RPAREN)
        body = self._parse_stmt()
        return ast.For(init, cond, update, body, *_lc(start.pos))

    # ---------------------------------------------------------------- expressions
    def _parse_expr(self) -> ast.Expr:
        return self._parse_assignment()

    def _parse_assignment(self) -> ast.Expr:
        left = self._parse_binary(1)
        tok = self._peek()
        if tok.kind is T.ASSIGN:
            self._advance()
            value = self._parse_assignment()
            self._check_lvalue(left)
            return ast.Assign(left, value, *_lc(tok.pos))
        op = _COMPOUND_ASSIGN.get(tok.kind)
        if op is not None:
            self._advance()
            rhs = self._parse_assignment()
            self._check_lvalue(left)
            line, col = _lc(tok.pos)
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
        while True:
            tok = self._peek()
            prec, op = _BINARY_OPS.get(tok.kind, _NOT_BINARY)
            if prec < min_prec or prec > limit:
                return left
            self._advance()
            if tok.kind is T.INSTANCEOF:
                left = ast.InstanceOf(left, self._parse_type(), *_lc(tok.pos))
            else:
                right = self._parse_binary(prec + 1)
                left = ast.Binary(op, left, right, *_lc(tok.pos))
            limit = prec

    def _at_cast(self) -> bool:
        """LPAREN (prim | UpperIdent ([])* ) RPAREN <expr-start>?"""
        if not self._at(T.LPAREN):
            return False
        if self._peek(1).kind in _PRIM_TOKENS:
            return True
        if self._at(T.IDENT, 1) and self._peek(1).text[:1].isupper():
            k = 2
            while self._at(T.LBRACKET, k) and self._at(T.RBRACKET, k + 1):
                k += 2
            if self._at(T.RPAREN, k):
                nxt = self._peek(k + 1)
                return nxt.kind in (
                    T.IDENT,
                    T.INT_LIT,
                    T.LONG_LIT,
                    T.FLOAT_LIT,
                    T.STR_LIT,
                    T.THIS,
                    T.NEW,
                    T.NULL,
                    T.LPAREN,
                    T.NOT,
                    T.TRUE,
                    T.FALSE,
                )
        return False

    def _parse_unary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is T.MINUS:
            self._advance()
            return ast.Unary("-", self._parse_unary(), *_lc(tok.pos))
        if tok.kind is T.NOT:
            self._advance()
            return ast.Unary("!", self._parse_unary(), *_lc(tok.pos))
        if tok.kind is T.PLUSPLUS or tok.kind is T.MINUSMINUS:
            # pre-increment: ++x  ==>  x = x + 1 (value is the new value)
            op = "+" if tok.kind is T.PLUSPLUS else "-"
            self._advance()
            operand = self._parse_unary()
            self._check_lvalue(operand)
            line, col = _lc(tok.pos)
            return ast.Assign(
                operand,
                ast.Binary(op, operand, ast.IntLit(1, line, col), line, col),
                line,
                col,
            )
        if self._at_cast():
            self._advance()  # (
            to = self._parse_type()
            self._expect(T.RPAREN)
            return ast.Cast(to, self._parse_unary(), *_lc(tok.pos))
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            tok = self._peek()
            if tok.kind is T.DOT:
                self._advance()
                name = self._expect(T.IDENT).text
                if self._at(T.LPAREN):
                    args = self._parse_args()
                    expr = ast.Call(expr, name, args, *_lc(tok.pos))
                elif name == "length" and not self._at(T.LPAREN):
                    expr = ast.ArrayLength(expr, *_lc(tok.pos))
                else:
                    expr = ast.FieldAccess(expr, name, *_lc(tok.pos))
            elif tok.kind is T.LBRACKET:
                self._advance()
                index = self._parse_expr()
                self._expect(T.RBRACKET)
                expr = ast.ArrayIndex(expr, index, *_lc(tok.pos))
            elif tok.kind in (T.PLUSPLUS, T.MINUSMINUS):
                # postfix inc/dec desugars like the prefix form; MJ code in
                # this repo only uses it in statement position where the
                # difference in result value is unobservable.
                op = "+" if tok.kind is T.PLUSPLUS else "-"
                self._advance()
                self._check_lvalue(expr)
                expr = ast.Assign(
                    expr,
                    ast.Binary(op, expr, ast.IntLit(1, *_lc(tok.pos)), *_lc(tok.pos)),
                    *_lc(tok.pos),
                )
            else:
                return expr

    def _parse_args(self) -> List[ast.Expr]:
        self._expect(T.LPAREN)
        args: List[ast.Expr] = []
        if not self._at(T.RPAREN):
            while True:
                args.append(self._parse_expr())
                if not self._accept(T.COMMA):
                    break
        self._expect(T.RPAREN)
        return args

    def _parse_primary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is T.INT_LIT:
            self._advance()
            return ast.IntLit(tok.value, *_lc(tok.pos))
        if tok.kind is T.LONG_LIT:
            self._advance()
            return ast.LongLit(tok.value, *_lc(tok.pos))
        if tok.kind is T.FLOAT_LIT:
            self._advance()
            return ast.FloatLit(tok.value, *_lc(tok.pos))
        if tok.kind is T.STR_LIT:
            self._advance()
            return ast.StrLit(tok.value, *_lc(tok.pos))
        if tok.kind is T.TRUE:
            self._advance()
            return ast.BoolLit(True, *_lc(tok.pos))
        if tok.kind is T.FALSE:
            self._advance()
            return ast.BoolLit(False, *_lc(tok.pos))
        if tok.kind is T.NULL:
            self._advance()
            return ast.NullLit(*_lc(tok.pos))
        if tok.kind is T.THIS:
            self._advance()
            return ast.This(*_lc(tok.pos))
        if tok.kind is T.NEW:
            return self._parse_new()
        if tok.kind is T.LPAREN:
            self._advance()
            expr = self._parse_expr()
            self._expect(T.RPAREN)
            return expr
        if tok.kind is T.IDENT:
            self._advance()
            if self._at(T.LPAREN):
                args = self._parse_args()
                return ast.Call(None, tok.text, args, *_lc(tok.pos))
            return ast.VarRef(tok.text, *_lc(tok.pos))
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)

    def _parse_new(self) -> ast.Expr:
        start = self._expect(T.NEW)
        tok = self._peek()
        if tok.kind in _PRIM_TOKENS:
            self._advance()
            base: Type = _PRIM_TOKENS[tok.kind]
            self._expect(T.LBRACKET)
            length = self._parse_expr()
            self._expect(T.RBRACKET)
            ty: Type = base
            while self._at(T.LBRACKET) and self._at(T.RBRACKET, 1):
                self._advance()
                self._advance()
                ty = ArrayType(ty)
            return ast.NewArray(ty, length, *_lc(start.pos))
        name = self._expect(T.IDENT).text
        if self._at(T.LPAREN):
            args = self._parse_args()
            return ast.New(name, args, *_lc(start.pos))
        self._expect(T.LBRACKET)
        length = self._parse_expr()
        self._expect(T.RBRACKET)
        ty = ClassType(name)
        while self._at(T.LBRACKET) and self._at(T.RBRACKET, 1):
            self._advance()
            self._advance()
            ty = ArrayType(ty)
        return ast.NewArray(ty, length, *_lc(start.pos))


def parse_program(source: str) -> ast.Program:
    """Parse MJ source text into an (unanalyzed) :class:`~repro.lang.ast.Program`."""
    return Parser(tokenize(source)).parse_program()
