"""AST → MJ bytecode compiler.

Follows javac's general lowering strategy: short-circuit booleans compile to
branch trees, comparisons in value position materialize ``true``/``false``,
``new C(...)`` compiles to ``NEW; DUP; <args>; INVOKESPECIAL C.<init>``
(exactly the shape the communication rewriter pattern-matches, Figure 9 of
the paper), and string ``+`` lowers to ``INVOKESTATIC Str.concat``.

A statement or an expression finds its lowering in one lookup by the node's
class (``_STMT_CODE`` / ``_EXPR_CODE``), and an instruction is emitted by
one call, to the method's own :meth:`BMethod.emit`.  Labels are numbered per
method, so the same source compiles to the same symbolic code whatever the
process compiled before.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.acyclic import acyclic
from repro.errors import NESTED_TOO_DEEPLY, CompileError
from repro.lang import ast
from repro.lang.symbols import ClassTable
from repro.lang.types import (
    BOOLEAN,
    FLOAT,
    INT,
    LONG,
    STRING,
    VOID,
    ArrayType,
    ClassType,
    NullType,
    Type,
    promote,
)
from repro.bytecode import opcodes as op
from repro.bytecode.model import BClass, BField, BMethod, BProgram, Label

_NEGATE = {"EQ": "NE", "NE": "EQ", "LT": "GE", "GE": "LT", "GT": "LE", "LE": "GT"}
_CMP = {"==": "EQ", "!=": "NE", "<": "LT", "<=": "LE", ">": "GT", ">=": "GE"}
#: operators whose value is materialized through branches
_BOOLEAN_OPS = frozenset({"&&", "||", *_CMP})


#: the operand kind of a value of each primitive type; any other is "A"
_TYCHAR = {INT: "I", BOOLEAN: "I", LONG: "J", FLOAT: "F"}
_LOAD = {INT: op.ILOAD, BOOLEAN: op.ILOAD, LONG: op.LLOAD, FLOAT: op.FLOAD}
_STORE = {INT: op.ISTORE, BOOLEAN: op.ISTORE, LONG: op.LSTORE, FLOAT: op.FSTORE}
_RETURN = {INT: op.IRETURN, BOOLEAN: op.IRETURN, LONG: op.LRETURN, FLOAT: op.FRETURN}
_NEG = {INT: op.INEG, LONG: op.LNEG, FLOAT: op.FNEG}
_CMP_BRANCH = {INT: op.IF_ICMP, LONG: op.IF_LCMP, FLOAT: op.IF_FCMP}
#: the ``LDC`` kind of each literal that loads its value as written
_LDC_KIND = {ast.IntLit: "I", ast.LongLit: "J", ast.FloatLit: "F", ast.StrLit: "S"}


_ARITH = {
    ("+", "I"): op.IADD, ("-", "I"): op.ISUB, ("*", "I"): op.IMUL,
    ("/", "I"): op.IDIV, ("%", "I"): op.IREM,
    ("+", "J"): op.LADD, ("-", "J"): op.LSUB, ("*", "J"): op.LMUL,
    ("/", "J"): op.LDIV, ("%", "J"): op.LREM,
    ("+", "F"): op.FADD, ("-", "F"): op.FSUB, ("*", "F"): op.FMUL,
    ("/", "F"): op.FDIV, ("%", "F"): op.FREM,
    ("&", "I"): op.IAND, ("|", "I"): op.IOR, ("^", "I"): op.IXOR,
    ("<<", "I"): op.ISHL, (">>", "I"): op.ISHR, (">>>", "I"): op.IUSHR,
    ("&", "J"): op.LAND, ("|", "J"): op.LOR, ("^", "J"): op.LXOR,
    ("<<", "J"): op.LSHL, (">>", "J"): op.LSHR, (">>>", "J"): op.LUSHR,
}

#: (from, to) type -> the conversion a value needs; no entry: none
_CONVERT: Dict[Tuple[Type, Type], str] = {
    (INT, LONG): op.I2L, (INT, FLOAT): op.I2F,
    (LONG, INT): op.L2I, (LONG, FLOAT): op.L2F,
    (FLOAT, INT): op.F2I, (FLOAT, LONG): op.F2L,
}


def _chain_operands(expr: ast.Binary) -> List[ast.Expr]:
    """``[a, b, c, d]`` for the left-nested ``((a && b) && c) && d`` (same for
    ``||``): every operand branches to one target, so the chain is compiled
    in a loop, not by descending its left spine."""
    operands = [expr.right]
    left = expr.left
    while isinstance(left, ast.Binary) and left.op == expr.op:
        operands.append(left.right)
        left = left.left
    operands.append(left)
    operands.reverse()
    return operands


class _MethodCompiler:
    def __init__(
        self,
        table: ClassTable,
        bclass: BClass,
        method: BMethod,
        params: Sequence[Tuple[str, Type]] = (),
    ) -> None:
        self.table = table
        self.bclass = bclass
        self.method = method
        self.emit = method.emit
        self.place = method.place
        self._label_ids = itertools.count()
        # slot 0 is 'this' for instance methods
        self.slots: List[Dict[str, Tuple[int, Type]]] = [{}]
        self.next_slot = 0 if method.is_static else 1
        for pname, pty in params:
            self._declare(pname, pty)
        self.break_labels: List[Label] = []
        self.continue_labels: List[Label] = []

    # ------------------------------------------------------------- scope/slots
    def _declare(self, name: str, ty: Type) -> int:
        slot = self._alloc_temp()
        self.slots[-1][name] = (slot, ty)
        return slot

    def _lookup(self, name: str) -> Tuple[int, Type]:
        for frame in reversed(self.slots):
            if name in frame:
                return frame[name]
        raise CompileError(f"{self.method.qualified}: unbound local {name}")

    def _alloc_temp(self) -> int:
        slot = self.next_slot
        self.next_slot += 1
        if self.next_slot > self.method.max_locals:
            self.method.max_locals = self.next_slot
        return slot

    # ------------------------------------------------------------- emission
    def _label(self, hint: str) -> Label:
        return Label(f"{hint}{next(self._label_ids)}")

    def _load(self, slot: int, ty: Type, line: int = 0) -> None:
        self.emit(_LOAD.get(ty, op.ALOAD), slot, line=line)

    def _store(self, slot: int, ty: Type, line: int = 0) -> None:
        self.emit(_STORE.get(ty, op.ASTORE), slot, line=line)

    def _coerce(self, src: Type, dst: Type) -> None:
        """Emit a conversion so a value of type ``src`` on the stack becomes
        ``dst`` (numeric only; reference widening is free)."""
        conv = _CONVERT.get((src, dst))
        if conv is not None:
            self.emit(conv)

    # ------------------------------------------------------------- entry point
    def compile(self, decl: ast.MethodDecl, fields: List[ast.FieldDecl]) -> BMethod:
        """Lower ``decl``; a constructor first runs the instance initializers
        among its class's ``fields``."""
        method = self.method
        if method.is_ctor:
            self._emit_ctor_prologue(fields)
        self._block(decl.body)
        code = method.code
        if not code or code[-1].op not in op.RETURNS:
            ret = method.ret_type
            if ret is VOID:
                self.emit(op.RETURN)
            else:
                # MJ is lenient: falling off the end of a non-void method
                # returns the type's default value.
                ch = _TYCHAR.get(ret, "A")
                if ch == "A":
                    self.emit(op.ACONST_NULL)
                    self.emit(op.ARETURN)
                else:
                    self.emit(op.LDC, 0 if ch != "F" else 0.0, ch)
                    self.emit(_RETURN[ret])
        return method

    def _emit_ctor_prologue(self, fields: List[ast.FieldDecl]) -> None:
        sup = self.bclass.superclass
        if sup != "Object" and not self.table.get(sup).is_builtin:
            sup_ctor = self.table.resolve_ctor(sup)
            if sup_ctor is not None and sup_ctor.arity != 0:
                raise CompileError(
                    f"{self.bclass.name}: superclass {sup} has no zero-arg "
                    "constructor (MJ constructors chain implicitly)"
                )
            self.emit(op.ALOAD, 0)
            self.emit(op.INVOKESPECIAL, sup, "<init>", 0)
        # instance field initializers
        for fd in fields:
            if fd.is_static or fd.init is None:
                continue
            self.emit(op.ALOAD, 0, line=fd.line)
            self._expr(fd.init)
            self._coerce(fd.init.ty, fd.ty)
            self.emit(op.PUTFIELD, self.bclass.name, fd.name, line=fd.line)

    # ------------------------------------------------------------- statements
    def _stmt(self, stmt: ast.Stmt) -> None:
        _STMT_CODE[type(stmt)](self, stmt)

    def _block(self, block: ast.Block) -> None:
        self.slots.append({})
        for stmt in block.stmts:
            _STMT_CODE[type(stmt)](self, stmt)
        self.slots.pop()

    def _var_decl(self, stmt: ast.VarDecl) -> None:
        slot = self._declare(stmt.name, stmt.ty)
        stmt.slot = slot
        if stmt.init is not None:
            self._expr(stmt.init)
            self._coerce(stmt.init.ty, stmt.ty)
            self._store(slot, stmt.ty, stmt.line)

    def _if(self, stmt: ast.If) -> None:
        l_else = self._label("ELSE")
        self._branch_if_false(stmt.cond, l_else)
        self._stmt(stmt.then)
        if stmt.otherwise is not None:
            l_end = self._label("ENDIF")
            self.emit(op.GOTO, l_end, line=stmt.line)
            self.place(l_else)
            self._stmt(stmt.otherwise)
            self.place(l_end)
        else:
            self.place(l_else)

    def _while(self, stmt: ast.While) -> None:
        l_cond, l_end = self._label("WCOND"), self._label("WEND")
        self.place(l_cond)
        self._branch_if_false(stmt.cond, l_end)
        self.break_labels.append(l_end)
        self.continue_labels.append(l_cond)
        self._stmt(stmt.body)
        self.break_labels.pop()
        self.continue_labels.pop()
        self.emit(op.GOTO, l_cond, line=stmt.line)
        self.place(l_end)

    def _for(self, stmt: ast.For) -> None:
        self.slots.append({})
        if stmt.init is not None:
            self._stmt(stmt.init)
        l_cond, l_cont, l_end = (
            self._label("FCOND"), self._label("FCONT"), self._label("FEND")
        )
        self.place(l_cond)
        if stmt.cond is not None:
            self._branch_if_false(stmt.cond, l_end)
        self.break_labels.append(l_end)
        self.continue_labels.append(l_cont)
        self._stmt(stmt.body)
        self.break_labels.pop()
        self.continue_labels.pop()
        self.place(l_cont)
        if stmt.update is not None:
            self._discard(stmt.update)
        self.emit(op.GOTO, l_cond, line=stmt.line)
        self.place(l_end)
        self.slots.pop()

    def _return(self, stmt: ast.Return) -> None:
        if stmt.value is None:
            self.emit(op.RETURN, line=stmt.line)
        else:
            ret = self.method.ret_type
            self._expr(stmt.value)
            self._coerce(stmt.value.ty, ret)
            self.emit(_RETURN.get(ret, op.ARETURN), line=stmt.line)

    def _expr_stmt(self, stmt: ast.ExprStmt) -> None:
        self._discard(stmt.expr)

    def _break(self, stmt: ast.Break) -> None:
        if not self.break_labels:
            raise CompileError("break outside loop")
        self.emit(op.GOTO, self.break_labels[-1], line=stmt.line)

    def _continue(self, stmt: ast.Continue) -> None:
        if not self.continue_labels:
            raise CompileError("continue outside loop")
        self.emit(op.GOTO, self.continue_labels[-1], line=stmt.line)

    # ------------------------------------------------------------- conditions
    def _branch_if_false(self, expr: ast.Expr, target: Label) -> None:
        kind = type(expr)
        if kind is ast.Binary:
            if expr.op == "&&":
                for operand in _chain_operands(expr):
                    self._branch_if_false(operand, target)
                return
            if expr.op == "||":
                l_true = self._label("ORT")
                self._branch_if_true(expr.left, l_true)
                self._branch_if_false(expr.right, target)
                self.place(l_true)
                return
            if expr.op in _CMP:
                self._compare_branch(expr, target, negate=True)
                return
        elif kind is ast.Unary and expr.op == "!":
            self._branch_if_true(expr.operand, target)
            return
        elif kind is ast.BoolLit:
            if not expr.value:
                self.emit(op.GOTO, target, line=expr.line)
            return
        self._expr(expr)
        self.emit(op.IFFALSE, target, line=expr.line)

    def _branch_if_true(self, expr: ast.Expr, target: Label) -> None:
        kind = type(expr)
        if kind is ast.Binary:
            if expr.op == "||":
                for operand in _chain_operands(expr):
                    self._branch_if_true(operand, target)
                return
            if expr.op == "&&":
                l_false = self._label("ANDF")
                self._branch_if_false(expr.left, l_false)
                self._branch_if_true(expr.right, target)
                self.place(l_false)
                return
            if expr.op in _CMP:
                self._compare_branch(expr, target, negate=False)
                return
        elif kind is ast.Unary and expr.op == "!":
            self._branch_if_false(expr.operand, target)
            return
        elif kind is ast.BoolLit:
            if expr.value:
                self.emit(op.GOTO, target, line=expr.line)
            return
        self._expr(expr)
        self.emit(op.IFTRUE, target, line=expr.line)

    def _compare_branch(self, expr: ast.Binary, target: Label, negate: bool) -> None:
        lt, rt = expr.left.ty, expr.right.ty
        cond = _CMP[expr.op]
        if negate:
            cond = _NEGATE[cond]
        line = expr.line
        if lt.is_numeric() and rt.is_numeric():
            common = promote(lt, rt)
            assert common is not None
            self._expr(expr.left)
            self._coerce(lt, common)
            self._expr(expr.right)
            self._coerce(rt, common)
            self.emit(_CMP_BRANCH[common], cond, target, line=line)
        elif lt is BOOLEAN and rt is BOOLEAN:
            self._expr(expr.left)
            self._expr(expr.right)
            self.emit(op.IF_ICMP, cond, target, line=line)
        else:  # reference comparison
            self._expr(expr.left)
            self._expr(expr.right)
            self.emit(op.IF_ACMP, cond, target, line=line)

    # ------------------------------------------------------------- expressions
    def _expr(self, expr: ast.Expr) -> None:
        """Push the value of ``expr``."""
        _EXPR_CODE[type(expr)](self, expr)

    def _discard(self, expr: ast.Expr) -> None:
        """``expr`` as a statement: its value, if any, is dropped."""
        kind = type(expr)
        if kind is ast.Call:
            self._call(expr, want_value=False)
        elif kind is ast.Assign:
            self._assign(expr, want_value=False)
        else:
            _EXPR_CODE[kind](self, expr)
            self.emit(op.POP, line=expr.line)

    def _literal(self, expr: ast.Expr) -> None:
        self.emit(op.LDC, expr.value, _LDC_KIND[type(expr)], line=expr.line)

    def _bool_lit(self, expr: ast.BoolLit) -> None:
        self.emit(op.LDC, 1 if expr.value else 0, "I", line=expr.line)

    def _null_lit(self, expr: ast.NullLit) -> None:
        self.emit(op.ACONST_NULL, line=expr.line)

    def _this(self, expr: ast.This) -> None:
        self.emit(op.ALOAD, 0, line=expr.line)

    def _var_ref(self, expr: ast.VarRef) -> None:
        line = expr.line
        kind = expr.binding[0] if expr.binding else None
        if kind == "local":
            slot, ty = self._lookup(expr.name)
            self._load(slot, ty, line)
        elif kind == "field":
            fi = expr.binding[1]
            if fi.is_static:
                self.emit(op.GETSTATIC, fi.declaring_class, fi.name, line=line)
            else:
                self.emit(op.ALOAD, 0, line=line)
                self.emit(op.GETFIELD, fi.declaring_class, fi.name, line=line)
        else:
            raise CompileError(f"class name {expr.name} used as a value")

    def _field_access(self, expr: ast.FieldAccess) -> None:
        if expr.is_static:
            self.emit(op.GETSTATIC, expr.resolved_class, expr.name, line=expr.line)
        else:
            self._expr(expr.target)
            self.emit(op.GETFIELD, expr.resolved_class, expr.name, line=expr.line)

    def _array_index(self, expr: ast.ArrayIndex) -> None:
        self._expr(expr.target)
        self._expr(expr.index)
        assert type(expr.target.ty) is ArrayType
        self.emit(op.XALOAD, _TYCHAR.get(expr.target.ty.elem, "A"), line=expr.line)

    def _array_length(self, expr: ast.ArrayLength) -> None:
        self._expr(expr.target)
        self.emit(op.ARRAYLENGTH, line=expr.line)

    def _call(self, expr: ast.Call, want_value: bool = True) -> None:
        line = expr.line
        recv_class, mi = expr.resolved
        if mi.is_static:
            pass  # no receiver
        elif expr.target is None:
            self.emit(op.ALOAD, 0, line=line)
        else:
            self._expr(expr.target)
        for arg, (_, pty) in zip(expr.args, mi.params):
            self._expr(arg)
            self._coerce(arg.ty, pty)
        if mi.is_static:
            self.emit(op.INVOKESTATIC, recv_class, mi.name, mi.arity, line=line)
        else:
            self.emit(op.INVOKEVIRTUAL, recv_class, mi.name, mi.arity, line=line)
        if not want_value and mi.ret is not VOID:
            self.emit(op.POP, line=line)

    def _new(self, expr: ast.New) -> None:
        line = expr.line
        ctor = self.table.resolve_ctor(expr.class_name)
        assert ctor is not None
        self.emit(op.NEW, expr.class_name, line=line)
        self.emit(op.DUP, line=line)
        for arg, (_, pty) in zip(expr.args, ctor.params):
            self._expr(arg)
            self._coerce(arg.ty, pty)
        self.emit(op.INVOKESPECIAL, expr.class_name, "<init>", ctor.arity, line=line)

    def _new_array(self, expr: ast.NewArray) -> None:
        self._expr(expr.length)
        self.emit(op.NEWARRAY, expr.elem_ty.descriptor(), line=expr.line)

    def _unary(self, expr: ast.Unary) -> None:
        if expr.op == "-":
            self._expr(expr.operand)
            self.emit(_NEG[expr.ty], line=expr.line)
        else:  # "!": materialize via branches
            self._materialize_bool(expr)

    def _materialize_bool(self, expr: ast.Expr) -> None:
        l_false, l_end = self._label("BF"), self._label("BE")
        self._branch_if_false(expr, l_false)
        self.emit(op.LDC, 1, "I", line=expr.line)
        self.emit(op.GOTO, l_end)
        self.place(l_false)
        self.emit(op.LDC, 0, "I", line=expr.line)
        self.place(l_end)

    def _binary(self, expr: ast.Binary) -> None:
        if expr.op in _BOOLEAN_OPS:
            self._materialize_bool(expr)
            return
        # ``a + b + c + ...`` nests one level per operator down the left
        # operand: walk that spine in a loop, innermost operator first
        spine = [expr]
        left = expr.left
        while type(left) is ast.Binary and left.op not in _BOOLEAN_OPS:
            spine.append(left)
            left = left.left
        self._expr(left)
        for node in reversed(spine):
            opname = node.op
            line = node.line
            if opname == "+" and node.ty is STRING:
                self._expr(node.right)
                self.emit(op.INVOKESTATIC, "Str", "concat", 2, line=line)
                continue
            assert node.ty is not None
            if opname in ("<<", ">>", ">>>"):
                self._expr(node.right)  # shift amount stays int
            else:
                self._coerce(node.left.ty, node.ty)
                self._expr(node.right)
                self._coerce(node.right.ty, node.ty)
            try:
                self.emit(_ARITH[opname, _TYCHAR.get(node.ty, "A")], line=line)
            except KeyError:  # pragma: no cover
                raise CompileError(f"no opcode for {opname} on {node.ty}") from None

    def _assign(self, expr: ast.Assign, want_value: bool = True) -> None:
        target = expr.target
        line = expr.line
        kind = type(target)
        if kind is ast.VarRef and target.binding[0] == "local":
            slot, ty = self._lookup(target.name)
            self._expr(expr.value)
            self._coerce(expr.value.ty, ty)
            if want_value:
                self.emit(op.DUP, line=line)
            self._store(slot, ty, line)
            return
        # resolve the (class, field, static?) triple for field targets
        if kind is ast.VarRef:
            fi = target.binding[1]
            cls, fname, is_static, fty = fi.declaring_class, fi.name, fi.is_static, fi.ty
            obj_pusher = None if is_static else (lambda: self.emit(op.ALOAD, 0, line=line))
        elif kind is ast.FieldAccess:
            fi = self.table.resolve_field(target.resolved_class, target.name)
            assert fi is not None
            cls, fname, is_static, fty = (
                target.resolved_class,
                target.name,
                target.is_static,
                fi.ty,
            )
            obj_pusher = None if is_static else (lambda: self._expr(target.target))
        elif kind is ast.ArrayIndex:
            assert type(target.target.ty) is ArrayType
            elem_ty = target.target.ty.elem
            elem = _TYCHAR.get(elem_ty, "A")
            if want_value:
                tmp = self._alloc_temp()
                self._expr(expr.value)
                self._coerce(expr.value.ty, elem_ty)
                self._store(tmp, elem_ty, line)
                self._expr(target.target)
                self._expr(target.index)
                self._load(tmp, elem_ty, line)
                self.emit(op.XASTORE, elem, line=line)
                self._load(tmp, elem_ty, line)
            else:
                self._expr(target.target)
                self._expr(target.index)
                self._expr(expr.value)
                self._coerce(expr.value.ty, elem_ty)
                self.emit(op.XASTORE, elem, line=line)
            return
        else:  # pragma: no cover
            raise CompileError("bad assignment target")

        if is_static:
            self._expr(expr.value)
            self._coerce(expr.value.ty, fty)
            if want_value:
                self.emit(op.DUP, line=line)
            self.emit(op.PUTSTATIC, cls, fname, line=line)
        elif want_value:
            tmp = self._alloc_temp()
            self._expr(expr.value)
            self._coerce(expr.value.ty, fty)
            self._store(tmp, fty, line)
            obj_pusher()
            self._load(tmp, fty, line)
            self.emit(op.PUTFIELD, cls, fname, line=line)
            self._load(tmp, fty, line)
        else:
            obj_pusher()
            self._expr(expr.value)
            self._coerce(expr.value.ty, fty)
            self.emit(op.PUTFIELD, cls, fname, line=line)

    def _cast(self, expr: ast.Cast) -> None:
        self._expr(expr.expr)
        src, dst = expr.expr.ty, expr.to
        if src.is_numeric() and dst.is_numeric():
            self._coerce(src, dst)
        elif isinstance(dst, (ClassType, ArrayType)) and not isinstance(
            src, NullType
        ):
            name = dst.name if isinstance(dst, ClassType) else dst.descriptor()
            self.emit(op.CHECKCAST, name, line=expr.line)

    def _instance_of(self, expr: ast.InstanceOf) -> None:
        self._expr(expr.expr)
        of = expr.of
        name = of.name if isinstance(of, ClassType) else of.descriptor()
        self.emit(op.INSTANCEOF, name, line=expr.line)


#: a statement's or an expression's lowering, by the node's class: one lookup
#: in place of an ``isinstance`` test per kind tried
_STMT_CODE = {
    ast.Block: _MethodCompiler._block,
    ast.VarDecl: _MethodCompiler._var_decl,
    ast.If: _MethodCompiler._if,
    ast.While: _MethodCompiler._while,
    ast.For: _MethodCompiler._for,
    ast.Return: _MethodCompiler._return,
    ast.ExprStmt: _MethodCompiler._expr_stmt,
    ast.Break: _MethodCompiler._break,
    ast.Continue: _MethodCompiler._continue,
}

_EXPR_CODE = {
    **dict.fromkeys(_LDC_KIND, _MethodCompiler._literal),
    ast.BoolLit: _MethodCompiler._bool_lit,
    ast.NullLit: _MethodCompiler._null_lit,
    ast.This: _MethodCompiler._this,
    ast.VarRef: _MethodCompiler._var_ref,
    ast.FieldAccess: _MethodCompiler._field_access,
    ast.ArrayIndex: _MethodCompiler._array_index,
    ast.ArrayLength: _MethodCompiler._array_length,
    ast.Call: _MethodCompiler._call,
    ast.New: _MethodCompiler._new,
    ast.NewArray: _MethodCompiler._new_array,
    ast.Unary: _MethodCompiler._unary,
    ast.Binary: _MethodCompiler._binary,
    ast.Assign: _MethodCompiler._assign,
    ast.Cast: _MethodCompiler._cast,
    ast.InstanceOf: _MethodCompiler._instance_of,
}


@acyclic
def compile_program(program: ast.Program, table: ClassTable) -> BProgram:
    """Compile an analyzed AST into a :class:`BProgram`.

    Static field initializers become a synthetic ``<clinit>`` method run at
    class-load time; the class containing a static ``main`` becomes the
    program entry point.
    """
    classes: Dict[str, BClass] = {}
    main_class: Optional[str] = None
    member: Optional[ast.Node] = None  # the field or method being compiled
    try:
        for cd in program.classes:
            info = table.get(cd.name)
            bclass = BClass(cd.name, cd.superclass or "Object")
            for fd in cd.fields:
                bclass.fields[fd.name] = BField(fd.name, fd.ty, fd.is_static)
            # <clinit> for static initializers
            static_inits = [fd for fd in cd.fields if fd.is_static and fd.init is not None]
            if static_inits:
                clinit = BMethod(cd.name, "<clinit>", [], VOID, True, False)
                sub = _MethodCompiler(table, bclass, clinit)
                for fd in static_inits:
                    member = fd
                    sub._expr(fd.init)
                    sub._coerce(fd.init.ty, fd.ty)
                    clinit.emit(op.PUTSTATIC, cd.name, fd.name, line=fd.line)
                clinit.emit(op.RETURN)
                bclass.methods["<clinit>"] = clinit
            for md in cd.methods:
                member = md
                mi = info.methods[md.name]
                method = BMethod(
                    cd.name,
                    mi.name,
                    [ty for _, ty in mi.params],
                    mi.ret,
                    mi.is_static,
                    mi.is_ctor,
                )
                mc = _MethodCompiler(table, bclass, method, mi.params)
                bclass.methods[md.name] = mc.compile(md, cd.fields)
                if md.name == "main" and md.is_static:
                    main_class = cd.name
            classes[cd.name] = bclass
    except RecursionError:
        raise CompileError(
            f"{NESTED_TOO_DEEPLY} in {cd.name}.{member.name} at {member.pos}"
        ) from None
    return BProgram(classes, table, main_class)
