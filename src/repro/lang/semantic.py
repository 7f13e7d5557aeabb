"""Semantic analysis for MJ: name resolution and type checking.

``analyze(program)`` builds the :class:`~repro.lang.symbols.ClassTable`,
resolves every name, annotates every expression node with its static type
(``node.ty``) and resolution results (``VarRef.binding``, ``Call.resolved``,
``FieldAccess.resolved_class``), and raises
:class:`~repro.errors.SemanticError` on ill-typed programs.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.acyclic import acyclic
from repro.errors import NESTED_TOO_DEEPLY, SemanticError
from repro.lang import ast
from repro.lang.symbols import (
    STATIC_ONLY_BUILTINS,
    ClassInfo,
    ClassTable,
    FieldInfo,
    MethodInfo,
)
from repro.lang.types import (
    BOOLEAN,
    FLOAT,
    INT,
    LONG,
    NULL,
    OBJECT,
    STRING,
    VOID,
    ArrayType,
    ClassType,
    Type,
    is_assignable,
    promote,
)


class _Scope:
    """Lexically nested name -> type environment for locals."""

    def __init__(self, parent: Optional["_Scope"] = None) -> None:
        self.parent = parent
        self.names: Dict[str, Type] = {}

    def declare(self, name: str, ty: Type, node: ast.Node) -> None:
        if name in self.names:
            raise SemanticError(f"duplicate local {name}", node.pos)
        self.names[name] = ty

    def lookup(self, name: str) -> Optional[Type]:
        scope: Optional[_Scope] = self
        while scope is not None:
            ty = scope.names.get(name)
            if ty is not None:
                return ty
            scope = scope.parent
        return None


class Analyzer:
    def __init__(self, program: ast.Program) -> None:
        self.program = program
        self.table = ClassTable()
        self._cur_class: Optional[ClassInfo] = None
        self._cur_method: Optional[MethodInfo] = None
        self._loop_depth = 0

    # ------------------------------------------------------------------ pass 1
    def _register_classes(self) -> None:
        for cd in self.program.classes:
            info = ClassInfo(cd.name, cd.superclass or "Object")
            self.table.add_class(info)
        for cd in self.program.classes:
            info = self.table.get(cd.name)
            if not self.table.has(info.superclass):
                raise SemanticError(
                    f"unknown superclass {info.superclass} of {cd.name}", cd.pos
                )
            # validate no cycles (the chain walk raises)
            self.table.chain(cd.name)

        for cd in self.program.classes:
            info = self.table.get(cd.name)
            for fd in cd.fields:
                if fd.name in info.fields:
                    raise SemanticError(
                        f"duplicate field {cd.name}.{fd.name}", fd.pos
                    )
                self._check_type_exists(fd.ty, fd)
                info.fields[fd.name] = FieldInfo(
                    fd.name, fd.ty, fd.is_static, cd.name
                )
            have_ctor = False
            for md in cd.methods:
                if md.name in info.methods:
                    raise SemanticError(
                        f"duplicate method {cd.name}.{md.name} "
                        "(MJ does not support overloading)",
                        md.pos,
                    )
                for p in md.params:
                    self._check_type_exists(p.ty, p)
                self._check_type_exists(md.ret, md)
                info.methods[md.name] = MethodInfo(
                    md.name,
                    [(p.name, p.ty) for p in md.params],
                    md.ret,
                    md.is_static,
                    md.is_ctor,
                    cd.name,
                )
                if md.is_ctor:
                    have_ctor = True
            if not have_ctor:
                self._synthesize_default_ctor(cd, info)
        # shadowed fields across the hierarchy are rejected (keeps the object
        # model — and the dependence analysis — simple)
        for cd in self.program.classes:
            info = self.table.get(cd.name)
            sup = info.superclass
            for fname in info.fields:
                if sup and self.table.resolve_field(sup, fname) is not None:
                    raise SemanticError(
                        f"field {cd.name}.{fname} shadows an inherited field", cd.pos
                    )

    def _synthesize_default_ctor(self, cd: ast.ClassDecl, info: ClassInfo) -> None:
        body = ast.Block([], cd.line, cd.col)
        md = ast.MethodDecl("<init>", [], VOID, body, False, True, cd.line, cd.col)
        cd.methods.append(md)
        info.methods["<init>"] = MethodInfo(
            "<init>", [], VOID, False, True, cd.name
        )

    def _check_type_exists(self, ty: Type, node: ast.Node) -> None:
        while type(ty) is ArrayType:
            ty = ty.elem
        if type(ty) is ClassType and not self.table.has(ty.name):
            raise SemanticError(f"unknown type {ty.name}", node.pos)

    # ------------------------------------------------------------------ pass 2
    def analyze(self) -> ClassTable:
        self._register_classes()
        member: ast.Node = self.program  # the field or method being checked
        try:
            for cd in self.program.classes:
                info = self.table.get(cd.name)
                self._cur_class = info
                for fd in cd.fields:
                    if fd.init is not None:
                        member = fd
                        scope = _Scope()
                        ty = self._expr(fd.init, scope)
                        self._require_assignable(ty, fd.ty, fd, "field initializer")
                for md in cd.methods:
                    member = md
                    self._method(info, md)
        except RecursionError:
            raise SemanticError(NESTED_TOO_DEEPLY, member.pos) from None
        self._cur_class = None
        return self.table

    def _method(self, info: ClassInfo, md: ast.MethodDecl) -> None:
        self._cur_method = info.methods[md.name]
        scope = _Scope()
        for p in md.params:
            scope.declare(p.name, p.ty, p)
        self._block(md.body, scope)
        self._cur_method = None

    # ------------------------------------------------------------------ statements
    def _stmt(self, stmt: ast.Stmt, scope: _Scope) -> None:
        _STMT_RULES[type(stmt)](self, stmt, scope)

    def _block(self, block: ast.Block, scope: _Scope) -> None:
        inner = _Scope(scope)
        for stmt in block.stmts:
            _STMT_RULES[type(stmt)](self, stmt, inner)

    def _var_decl(self, stmt: ast.VarDecl, scope: _Scope) -> None:
        self._check_type_exists(stmt.ty, stmt)
        if stmt.init is not None:
            ty = self._expr(stmt.init, scope)
            self._require_assignable(ty, stmt.ty, stmt, "initializer")
        scope.declare(stmt.name, stmt.ty, stmt)

    def _if(self, stmt: ast.If, scope: _Scope) -> None:
        self._condition(stmt.cond, scope)
        self._stmt(stmt.then, scope)
        if stmt.otherwise is not None:
            self._stmt(stmt.otherwise, scope)

    def _while(self, stmt: ast.While, scope: _Scope) -> None:
        self._condition(stmt.cond, scope)
        self._loop_depth += 1
        self._stmt(stmt.body, scope)
        self._loop_depth -= 1

    def _for(self, stmt: ast.For, scope: _Scope) -> None:
        inner = _Scope(scope)
        if stmt.init is not None:
            self._stmt(stmt.init, inner)
        if stmt.cond is not None:
            self._condition(stmt.cond, inner)
        if stmt.update is not None:
            self._expr(stmt.update, inner)
        self._loop_depth += 1
        self._stmt(stmt.body, inner)
        self._loop_depth -= 1

    def _return(self, stmt: ast.Return, scope: _Scope) -> None:
        assert self._cur_method is not None
        want = self._cur_method.ret
        if stmt.value is None:
            if want is not VOID:
                raise SemanticError("missing return value", stmt.pos)
        else:
            if want is VOID:
                raise SemanticError("void method returns a value", stmt.pos)
            got = self._expr(stmt.value, scope)
            self._require_assignable(got, want, stmt, "return")

    def _expr_stmt(self, stmt: ast.ExprStmt, scope: _Scope) -> None:
        self._expr(stmt.expr, scope)

    def _jump(self, stmt: ast.Stmt, scope: _Scope) -> None:
        if self._loop_depth == 0:
            raise SemanticError("break/continue outside loop", stmt.pos)

    def _condition(self, expr: ast.Expr, scope: _Scope) -> None:
        ty = self._expr(expr, scope)
        if ty is not BOOLEAN:
            raise SemanticError(f"condition must be boolean, got {ty}", expr.pos)

    # ------------------------------------------------------------------ expressions
    def _require_assignable(
        self, src: Type, dst: Type, node: ast.Node, what: str
    ) -> None:
        if src is dst or (dst is OBJECT and src is not VOID):
            return  # the same type, or implicit boxing into an Object slot
        if not is_assignable(src, dst, self.table.is_subtype):
            raise SemanticError(f"{what}: cannot assign {src} to {dst}", node.pos)

    def _expr(self, expr: ast.Expr, scope: _Scope) -> Type:
        ty = expr.ty = _EXPR_RULES[type(expr)](self, expr, scope)
        return ty

    def _literal(self, expr: ast.Expr, scope: _Scope) -> Type:
        return _LITERAL_TYPES[type(expr)]

    def _this(self, expr: ast.This, scope: _Scope) -> Type:
        if self._cur_method is None or self._cur_method.is_static:
            raise SemanticError("'this' in static context", expr.pos)
        assert self._cur_class is not None
        return ClassType(self._cur_class.name)

    def _var_ref(self, expr: ast.VarRef, scope: _Scope) -> Type:
        local = scope.lookup(expr.name)
        if local is not None:
            expr.binding = ("local", expr.name)
            return local
        assert self._cur_class is not None
        fi = self.table.resolve_field(self._cur_class.name, expr.name)
        if fi is not None:
            if not fi.is_static and self._cur_method is not None and self._cur_method.is_static:
                raise SemanticError(
                    f"instance field {expr.name} referenced from static context",
                    expr.pos,
                )
            expr.binding = ("field", fi)
            return fi.ty
        if self.table.has(expr.name):
            expr.binding = ("class", expr.name)
            return ClassType(expr.name)  # only legal as a static-call receiver
        raise SemanticError(f"unknown name {expr.name}", expr.pos)

    def _field_access(self, expr: ast.FieldAccess, scope: _Scope) -> Type:
        if type(expr.target) is ast.VarRef and scope.lookup(expr.target.name) is None:
            assert self._cur_class is not None
            shadow = self.table.resolve_field(self._cur_class.name, expr.target.name)
            if shadow is None and self.table.has(expr.target.name):
                # static field access Class.field
                expr.target.binding = ("class", expr.target.name)
                expr.target.ty = ClassType(expr.target.name)
                fi = self.table.resolve_field(expr.target.name, expr.name)
                if fi is None or not fi.is_static:
                    raise SemanticError(
                        f"unknown static field {expr.target.name}.{expr.name}",
                        expr.pos,
                    )
                expr.resolved_class = fi.declaring_class
                expr.is_static = True
                return fi.ty
        target_ty = self._expr(expr.target, scope)
        if type(target_ty) is not ClassType:
            raise SemanticError(f"field access on {target_ty}", expr.pos)
        fi = self.table.resolve_field(target_ty.name, expr.name)
        if fi is None:
            raise SemanticError(
                f"unknown field {target_ty.name}.{expr.name}", expr.pos
            )
        if fi.is_static:
            expr.is_static = True
        expr.resolved_class = fi.declaring_class
        return fi.ty

    def _array_index(self, expr: ast.ArrayIndex, scope: _Scope) -> Type:
        target = self._expr(expr.target, scope)
        if type(target) is not ArrayType:
            raise SemanticError(f"indexing non-array {target}", expr.pos)
        idx = self._expr(expr.index, scope)
        if idx is not INT:
            raise SemanticError(f"array index must be int, got {idx}", expr.pos)
        return target.elem

    def _array_length(self, expr: ast.ArrayLength, scope: _Scope) -> Type:
        target = self._expr(expr.target, scope)
        if type(target) is not ArrayType:
            raise SemanticError(f".length on non-array {target}", expr.pos)
        return INT

    def _call(self, expr: ast.Call, scope: _Scope) -> Type:
        # resolve receiver
        if expr.target is None:
            assert self._cur_class is not None
            mi = self.table.resolve_method(self._cur_class.name, expr.name)
            if mi is None:
                raise SemanticError(f"unknown method {expr.name}", expr.pos)
            if (
                not mi.is_static
                and self._cur_method is not None
                and self._cur_method.is_static
            ):
                raise SemanticError(
                    f"instance method {expr.name} called from static context",
                    expr.pos,
                )
            recv_class = self._cur_class.name
        elif type(expr.target) is ast.VarRef and scope.lookup(
            expr.target.name
        ) is None and self.table.has(expr.target.name) and (
            self.table.resolve_field(
                self._cur_class.name, expr.target.name  # type: ignore[union-attr]
            )
            is None
        ):
            # static call Class.method(...)
            expr.target.binding = ("class", expr.target.name)
            expr.target.ty = ClassType(expr.target.name)
            mi = self.table.resolve_method(expr.target.name, expr.name)
            if mi is None or not mi.is_static:
                raise SemanticError(
                    f"unknown static method {expr.target.name}.{expr.name}", expr.pos
                )
            recv_class = expr.target.name
        else:
            target_ty = self._expr(expr.target, scope)
            if type(target_ty) is ArrayType:
                raise SemanticError("method call on array", expr.pos)
            if type(target_ty) is not ClassType:
                raise SemanticError(f"method call on {target_ty}", expr.pos)
            if target_ty.name in STATIC_ONLY_BUILTINS:
                raise SemanticError(
                    f"{target_ty.name} has no instances", expr.pos
                )
            mi = self.table.resolve_method(target_ty.name, expr.name)
            if mi is None:
                raise SemanticError(
                    f"unknown method {target_ty.name}.{expr.name}", expr.pos
                )
            if mi.is_static:
                raise SemanticError(
                    f"static method {expr.name} called on instance", expr.pos
                )
            recv_class = target_ty.name

        if mi.is_ctor:
            raise SemanticError("constructors cannot be called directly", expr.pos)
        self._check_args(mi, expr, scope)
        expr.resolved = (recv_class, mi)
        return mi.ret

    def _check_args(self, mi: MethodInfo, expr: ast.Expr, scope: _Scope) -> None:
        """The arguments of the call or ``new`` ``expr`` against ``mi``."""
        args = expr.args
        if len(args) != mi.arity:
            raise SemanticError(
                f"{mi.declaring_class}.{mi.name} expects {mi.arity} args, "
                f"got {len(args)}",
                expr.pos,
            )
        for arg, (pname, pty) in zip(args, mi.params):
            got = self._expr(arg, scope)
            self._require_assignable(got, pty, arg, f"argument {pname}")

    def _new(self, expr: ast.New, scope: _Scope) -> Type:
        if not self.table.has(expr.class_name):
            raise SemanticError(f"unknown class {expr.class_name}", expr.pos)
        if expr.class_name in STATIC_ONLY_BUILTINS or expr.class_name in (
            "Object",
            "String",
        ):
            raise SemanticError(f"cannot instantiate {expr.class_name}", expr.pos)
        ctor = self.table.resolve_ctor(expr.class_name)
        if ctor is None:
            raise SemanticError(f"{expr.class_name} has no constructor", expr.pos)
        self._check_args(ctor, expr, scope)
        return ClassType(expr.class_name)

    def _new_array(self, expr: ast.NewArray, scope: _Scope) -> Type:
        self._check_type_exists(expr.elem_ty, expr)
        n = self._expr(expr.length, scope)
        if n is not INT:
            raise SemanticError("array length must be int", expr.pos)
        return ArrayType(expr.elem_ty)

    def _unary(self, expr: ast.Unary, scope: _Scope) -> Type:
        ty = self._expr(expr.operand, scope)
        if expr.op == "-":
            if not ty.is_numeric():
                raise SemanticError(f"unary - on {ty}", expr.pos)
            return ty
        if expr.op == "!":
            if ty is not BOOLEAN:
                raise SemanticError(f"! on {ty}", expr.pos)
            return BOOLEAN
        raise SemanticError(f"unknown unary op {expr.op}", expr.pos)

    def _binary(self, expr: ast.Binary, scope: _Scope) -> Type:
        # ``a + b + c + ...`` nests one level per operator down the left
        # operand: walk that spine in a loop, innermost operator first
        spine = [expr]
        while type(spine[-1].left) is ast.Binary:
            spine.append(spine[-1].left)
        lt = self._expr(spine[-1].left, scope)
        for node in reversed(spine):
            rt = self._expr(node.right, scope)
            lt = node.ty = self._binary_type(node, lt, rt)
        return lt

    def _binary_type(self, node: ast.Binary, lt: Type, rt: Type) -> Type:
        op = node.op
        if op == "+" and (lt is STRING or rt is STRING):
            return STRING
        if op in ("+", "-", "*", "/", "%"):
            res = promote(lt, rt)
            if res is None:
                raise SemanticError(f"arithmetic {op} on {lt} and {rt}", node.pos)
            return res
        if op in ("<", "<=", ">", ">="):
            if promote(lt, rt) is None:
                raise SemanticError(f"comparison {op} on {lt} and {rt}", node.pos)
            return BOOLEAN
        if op in ("==", "!="):
            if promote(lt, rt) is not None:
                return BOOLEAN
            if lt is BOOLEAN and rt is BOOLEAN:
                return BOOLEAN
            if lt.is_reference() and rt.is_reference():
                return BOOLEAN
            raise SemanticError(f"cannot compare {lt} and {rt}", node.pos)
        if op in ("&&", "||"):
            if lt is not BOOLEAN or rt is not BOOLEAN:
                raise SemanticError(f"{op} on {lt} and {rt}", node.pos)
            return BOOLEAN
        if op in ("&", "|", "^"):
            if lt in (INT, LONG) and rt in (INT, LONG):
                return LONG if LONG in (lt, rt) else INT
            raise SemanticError(f"bitwise {op} on {lt} and {rt}", node.pos)
        if op in ("<<", ">>", ">>>"):
            if lt not in (INT, LONG):
                raise SemanticError(f"shift on {lt}", node.pos)
            if rt is not INT:
                raise SemanticError("shift amount must be int", node.pos)
            return lt
        raise SemanticError(f"unknown binary op {op}", node.pos)

    def _assign(self, expr: ast.Assign, scope: _Scope) -> Type:
        target_ty = self._expr(expr.target, scope)
        if type(expr.target) is ast.VarRef and expr.target.binding and (
            expr.target.binding[0] == "class"
        ):
            raise SemanticError("cannot assign to a class name", expr.pos)
        value_ty = self._expr(expr.value, scope)
        self._require_assignable(value_ty, target_ty, expr, "assignment")
        return target_ty

    def _cast(self, expr: ast.Cast, scope: _Scope) -> Type:
        self._check_type_exists(expr.to, expr)
        src = self._expr(expr.expr, scope)
        dst = expr.to
        if src.is_numeric() and dst.is_numeric():
            return dst
        if src.is_reference() and dst.is_reference():
            return dst
        if src.is_reference() and (dst.is_numeric() or dst is BOOLEAN):
            # unboxing a primitive stored in an Object slot (Vector.get...)
            return dst
        if src is dst:
            return dst
        raise SemanticError(f"cannot cast {src} to {dst}", expr.pos)

    def _instance_of(self, expr: ast.InstanceOf, scope: _Scope) -> Type:
        src = self._expr(expr.expr, scope)
        if not src.is_reference():
            raise SemanticError("instanceof on non-reference", expr.pos)
        self._check_type_exists(expr.of, expr)
        return BOOLEAN


#: a statement's or an expression's rule, by the node's class: one lookup in
#: place of an ``isinstance`` test per kind tried
_STMT_RULES = {
    ast.Block: Analyzer._block,
    ast.VarDecl: Analyzer._var_decl,
    ast.If: Analyzer._if,
    ast.While: Analyzer._while,
    ast.For: Analyzer._for,
    ast.Return: Analyzer._return,
    ast.ExprStmt: Analyzer._expr_stmt,
    ast.Break: Analyzer._jump,
    ast.Continue: Analyzer._jump,
}

_LITERAL_TYPES = {
    ast.IntLit: INT,
    ast.LongLit: LONG,
    ast.FloatLit: FLOAT,
    ast.BoolLit: BOOLEAN,
    ast.StrLit: STRING,
    ast.NullLit: NULL,
}

_EXPR_RULES = {
    **dict.fromkeys(_LITERAL_TYPES, Analyzer._literal),
    ast.This: Analyzer._this,
    ast.VarRef: Analyzer._var_ref,
    ast.FieldAccess: Analyzer._field_access,
    ast.ArrayIndex: Analyzer._array_index,
    ast.ArrayLength: Analyzer._array_length,
    ast.Call: Analyzer._call,
    ast.New: Analyzer._new,
    ast.NewArray: Analyzer._new_array,
    ast.Unary: Analyzer._unary,
    ast.Binary: Analyzer._binary,
    ast.Assign: Analyzer._assign,
    ast.Cast: Analyzer._cast,
    ast.InstanceOf: Analyzer._instance_of,
}


@acyclic
def analyze(program: ast.Program) -> ClassTable:
    """Resolve and type check ``program`` (annotating its AST in place);
    returns the populated class table."""
    return Analyzer(program).analyze()
