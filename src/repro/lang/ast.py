"""AST node definitions for MJ.

Nodes are plain classes with ``__slots__`` (cheap, picklable) and carry the
``line`` and ``col`` of the token that starts them as two ints; ``pos``
builds a :class:`~repro.errors.SourcePosition` from them on demand, for
error text, so a correct program makes none.  Each constructor sets every
slot of its node itself, inherited ones included, and calls no base
``__init__``: building a node is one Python call.  Expression nodes gain a ``ty``
attribute (the static type) during semantic analysis; some nodes gain
resolution results (e.g. :class:`Call.resolved`).

Nothing built from a tree holds on to it: the symbol table, the bytecode and
everything derived from them keep no node, so a tree lives exactly as long
as its caller keeps a reference to it.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import SourcePosition
from repro.lang.types import Type


class Node:
    __slots__ = ("line", "col")

    def __init__(self, line: int, col: int) -> None:
        self.line = line
        self.col = col

    @property
    def pos(self) -> SourcePosition:
        return SourcePosition(self.line, self.col)


# --------------------------------------------------------------------------
# declarations
# --------------------------------------------------------------------------
class Program(Node):
    __slots__ = ("classes",)

    def __init__(self, classes: List["ClassDecl"], line: int, col: int) -> None:
        self.line = line
        self.col = col
        self.classes = classes


class ClassDecl(Node):
    __slots__ = ("name", "superclass", "fields", "methods")

    def __init__(
        self,
        name: str,
        superclass: Optional[str],
        fields: List["FieldDecl"],
        methods: List["MethodDecl"],
        line: int,
        col: int,
    ) -> None:
        self.line = line
        self.col = col
        self.name = name
        self.superclass = superclass  # None means implicit Object
        self.fields = fields
        self.methods = methods


class FieldDecl(Node):
    __slots__ = ("name", "ty", "is_static", "init")

    def __init__(
        self,
        name: str,
        ty: Type,
        is_static: bool,
        init: Optional["Expr"],
        line: int,
        col: int,
    ) -> None:
        self.line = line
        self.col = col
        self.name = name
        self.ty = ty
        self.is_static = is_static
        self.init = init


class Param(Node):
    __slots__ = ("name", "ty")

    def __init__(self, name: str, ty: Type, line: int, col: int) -> None:
        self.line = line
        self.col = col
        self.name = name
        self.ty = ty


class MethodDecl(Node):
    __slots__ = ("name", "params", "ret", "body", "is_static", "is_ctor")

    def __init__(
        self,
        name: str,
        params: List[Param],
        ret: Type,
        body: "Block",
        is_static: bool,
        is_ctor: bool,
        line: int,
        col: int,
    ) -> None:
        self.line = line
        self.col = col
        self.name = name
        self.params = params
        self.ret = ret
        self.body = body
        self.is_static = is_static
        self.is_ctor = is_ctor


# --------------------------------------------------------------------------
# statements
# --------------------------------------------------------------------------
class Stmt(Node):
    __slots__ = ()


class Block(Stmt):
    __slots__ = ("stmts",)

    def __init__(self, stmts: List[Stmt], line: int, col: int) -> None:
        self.line = line
        self.col = col
        self.stmts = stmts


class VarDecl(Stmt):
    __slots__ = ("name", "ty", "init", "slot")

    def __init__(
        self, name: str, ty: Type, init: Optional["Expr"], line: int, col: int
    ) -> None:
        self.line = line
        self.col = col
        self.name = name
        self.ty = ty
        self.init = init
        self.slot: Optional[int] = None  # local slot, assigned by the compiler


class If(Stmt):
    __slots__ = ("cond", "then", "otherwise")

    def __init__(
        self,
        cond: "Expr",
        then: Stmt,
        otherwise: Optional[Stmt],
        line: int,
        col: int,
    ) -> None:
        self.line = line
        self.col = col
        self.cond = cond
        self.then = then
        self.otherwise = otherwise


class While(Stmt):
    __slots__ = ("cond", "body")

    def __init__(self, cond: "Expr", body: Stmt, line: int, col: int) -> None:
        self.line = line
        self.col = col
        self.cond = cond
        self.body = body


class For(Stmt):
    __slots__ = ("init", "cond", "update", "body")

    def __init__(
        self,
        init: Optional[Stmt],
        cond: Optional["Expr"],
        update: Optional["Expr"],
        body: Stmt,
        line: int,
        col: int,
    ) -> None:
        self.line = line
        self.col = col
        self.init = init
        self.cond = cond
        self.update = update
        self.body = body


class Return(Stmt):
    __slots__ = ("value",)

    def __init__(self, value: Optional["Expr"], line: int, col: int) -> None:
        self.line = line
        self.col = col
        self.value = value


class ExprStmt(Stmt):
    __slots__ = ("expr",)

    def __init__(self, expr: "Expr", line: int, col: int) -> None:
        self.line = line
        self.col = col
        self.expr = expr


class Break(Stmt):
    __slots__ = ()


class Continue(Stmt):
    __slots__ = ()


# --------------------------------------------------------------------------
# expressions
# --------------------------------------------------------------------------
class Expr(Node):
    __slots__ = ("ty",)

    def __init__(self, line: int, col: int) -> None:
        self.line = line
        self.col = col
        self.ty: Optional[Type] = None  # filled in by semantic analysis


class IntLit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: int, line: int, col: int) -> None:
        self.line = line
        self.col = col
        self.ty = None
        self.value = value


class LongLit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: int, line: int, col: int) -> None:
        self.line = line
        self.col = col
        self.ty = None
        self.value = value


class FloatLit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float, line: int, col: int) -> None:
        self.line = line
        self.col = col
        self.ty = None
        self.value = value


class BoolLit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: bool, line: int, col: int) -> None:
        self.line = line
        self.col = col
        self.ty = None
        self.value = value


class StrLit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: str, line: int, col: int) -> None:
        self.line = line
        self.col = col
        self.ty = None
        self.value = value


class NullLit(Expr):
    __slots__ = ()


class This(Expr):
    __slots__ = ()


class VarRef(Expr):
    """An unqualified name.  After semantic analysis ``binding`` is one of
    ``("local", slot_name)``, ``("field", class_name)``,
    ``("static_field", class_name)`` or ``("class", class_name)`` (for the
    receiver of a static call like ``Math.sqrt``)."""

    __slots__ = ("name", "binding")

    def __init__(self, name: str, line: int, col: int) -> None:
        self.line = line
        self.col = col
        self.ty = None
        self.name = name
        self.binding = None


class FieldAccess(Expr):
    """``target.name``; ``resolved_class`` is set during analysis; for static
    field reads the target is a VarRef bound to a class."""

    __slots__ = ("target", "name", "resolved_class", "is_static")

    def __init__(self, target: Expr, name: str, line: int, col: int) -> None:
        self.line = line
        self.col = col
        self.ty = None
        self.target = target
        self.name = name
        self.resolved_class: Optional[str] = None
        self.is_static = False


class ArrayIndex(Expr):
    __slots__ = ("target", "index")

    def __init__(self, target: Expr, index: Expr, line: int, col: int) -> None:
        self.line = line
        self.col = col
        self.ty = None
        self.target = target
        self.index = index


class ArrayLength(Expr):
    __slots__ = ("target",)

    def __init__(self, target: Expr, line: int, col: int) -> None:
        self.line = line
        self.col = col
        self.ty = None
        self.target = target


class Call(Expr):
    """``target.name(args)``.  ``target is None`` means an unqualified call
    (implicit ``this`` or same-class static).  After analysis
    ``resolved = (class_name, method_name, is_static)``."""

    __slots__ = ("target", "name", "args", "resolved")

    def __init__(
        self,
        target: Optional[Expr],
        name: str,
        args: List[Expr],
        line: int,
        col: int,
    ) -> None:
        self.line = line
        self.col = col
        self.ty = None
        self.target = target
        self.name = name
        self.args = args
        self.resolved = None


class New(Expr):
    __slots__ = ("class_name", "args")

    def __init__(
        self, class_name: str, args: List[Expr], line: int, col: int
    ) -> None:
        self.line = line
        self.col = col
        self.ty = None
        self.class_name = class_name
        self.args = args


class NewArray(Expr):
    __slots__ = ("elem_ty", "length")

    def __init__(self, elem_ty: Type, length: Expr, line: int, col: int) -> None:
        self.line = line
        self.col = col
        self.ty = None
        self.elem_ty = elem_ty
        self.length = length


class Unary(Expr):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr, line: int, col: int) -> None:
        self.line = line
        self.col = col
        self.ty = None
        self.op = op  # "-" | "!"
        self.operand = operand


class Binary(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(
        self, op: str, left: Expr, right: Expr, line: int, col: int
    ) -> None:
        self.line = line
        self.col = col
        self.ty = None
        self.op = op  # + - * / % < <= > >= == != && || & | ^ << >> >>>
        self.left = left
        self.right = right


class Assign(Expr):
    """``target = value`` where target is VarRef | FieldAccess | ArrayIndex."""

    __slots__ = ("target", "value")

    def __init__(self, target: Expr, value: Expr, line: int, col: int) -> None:
        self.line = line
        self.col = col
        self.ty = None
        self.target = target
        self.value = value


class Cast(Expr):
    __slots__ = ("to", "expr")

    def __init__(self, to: Type, expr: Expr, line: int, col: int) -> None:
        self.line = line
        self.col = col
        self.ty = None
        self.to = to
        self.expr = expr


class InstanceOf(Expr):
    __slots__ = ("expr", "of")

    def __init__(self, expr: Expr, of: Type, line: int, col: int) -> None:
        self.line = line
        self.col = col
        self.ty = None
        self.expr = expr
        self.of = of
