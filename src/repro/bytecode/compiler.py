"""AST → MJ bytecode compiler.

Follows javac's general lowering strategy: short-circuit booleans compile to
branch trees, comparisons in value position materialize ``true``/``false``,
``new C(...)`` compiles to ``NEW; DUP; <args>; INVOKESPECIAL C.<init>``
(exactly the shape the communication rewriter pattern-matches, Figure 9 of
the paper), and string ``+`` lowers to ``INVOKESTATIC Str.concat``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import NESTED_TOO_DEEPLY, CompileError
from repro.lang import ast
from repro.lang.symbols import ClassTable, MethodInfo
from repro.lang.types import (
    BOOLEAN,
    FLOAT,
    INT,
    LONG,
    NULL,
    STRING,
    VOID,
    ArrayType,
    ClassType,
    NullType,
    Type,
)
from repro.bytecode import opcodes as op
from repro.bytecode.model import BClass, BField, BMethod, BProgram, Label

_NEGATE = {"EQ": "NE", "NE": "EQ", "LT": "GE", "GE": "LT", "GT": "LE", "LE": "GT"}
_CMP = {"==": "EQ", "!=": "NE", "<": "LT", "<=": "LE", ">": "GT", ">=": "GE"}
#: operators whose value is materialized through branches
_BOOLEAN_OPS = frozenset({"&&", "||", *_CMP})


def _tychar(ty: Type) -> str:
    if ty in (INT, BOOLEAN):
        return "I"
    if ty is LONG:
        return "J"
    if ty is FLOAT:
        return "F"
    return "A"


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

_CONVERT: Dict[Tuple[str, str], str] = {
    ("I", "J"): op.I2L, ("I", "F"): op.I2F,
    ("J", "I"): op.L2I, ("J", "F"): op.L2F,
    ("F", "I"): op.F2I, ("F", "J"): op.F2L,
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
    def __init__(self, table: ClassTable, bclass: BClass, mi: MethodInfo) -> None:
        self.table = table
        self.bclass = bclass
        self.mi = mi
        self.method = BMethod(
            bclass.name,
            mi.name,
            [ty for _, ty in mi.params],
            mi.ret,
            mi.is_static,
            mi.is_ctor,
        )
        # slot 0 is 'this' for instance methods
        self.slots: List[Dict[str, Tuple[int, Type]]] = [{}]
        self.next_slot = 0
        if not mi.is_static:
            self.next_slot = 1
        for pname, pty in mi.params:
            self._declare(pname, pty)
        self.break_labels: List[Label] = []
        self.continue_labels: List[Label] = []

    # ------------------------------------------------------------- scope/slots
    def _declare(self, name: str, ty: Type) -> int:
        slot = self.next_slot
        self.next_slot += 1
        self.method.max_locals = max(self.method.max_locals, self.next_slot)
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
        self.method.max_locals = max(self.method.max_locals, self.next_slot)
        return slot

    # ------------------------------------------------------------- emission
    def emit(self, opname: str, a=None, b=None, c=None, line: int = 0):
        return self.method.emit(opname, a, b, c, line)

    def _load(self, slot: int, ty: Type, line: int = 0) -> None:
        self.emit({"I": op.ILOAD, "J": op.LLOAD, "F": op.FLOAD, "A": op.ALOAD}[
            _tychar(ty)
        ], slot, line=line)

    def _store(self, slot: int, ty: Type, line: int = 0) -> None:
        self.emit({"I": op.ISTORE, "J": op.LSTORE, "F": op.FSTORE, "A": op.ASTORE}[
            _tychar(ty)
        ], slot, line=line)

    def _coerce(self, src: Type, dst: Type) -> None:
        """Emit a conversion so a value of type ``src`` on the stack becomes
        ``dst`` (numeric only; reference widening is free)."""
        if src is dst or dst is VOID:
            return
        a, b = _tychar(src), _tychar(dst)
        if a == b:
            return
        conv = _CONVERT.get((a, b))
        if conv is not None:
            self.emit(conv)

    # ------------------------------------------------------------- entry point
    def compile(self, decl: ast.MethodDecl, fields: List[ast.FieldDecl]) -> BMethod:
        """Lower ``decl``; a constructor first runs the instance initializers
        among its class's ``fields``."""
        if self.mi.is_ctor:
            self._emit_ctor_prologue(fields)
        self._block(decl.body)
        code = self.method.code
        if not code or code[-1].op not in op.RETURNS:
            if self.mi.ret is VOID:
                self.emit(op.RETURN)
            else:
                # MJ is lenient: falling off the end of a non-void method
                # returns the type's default value.
                ch = _tychar(self.mi.ret)
                if ch == "A":
                    self.emit(op.ACONST_NULL)
                    self.emit(op.ARETURN)
                else:
                    self.emit(op.LDC, 0 if ch != "F" else 0.0, ch)
                    self.emit({"I": op.IRETURN, "J": op.LRETURN, "F": op.FRETURN}[ch])
        return self.method

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
            self.emit(op.ALOAD, 0, line=fd.pos.line)
            self._expr(fd.init)
            self._coerce(fd.init.ty, fd.ty)
            self.emit(op.PUTFIELD, self.bclass.name, fd.name, line=fd.pos.line)

    # ------------------------------------------------------------- statements
    def _block(self, block: ast.Block) -> None:
        self.slots.append({})
        for stmt in block.stmts:
            self._stmt(stmt)
        self.slots.pop()

    def _stmt(self, stmt: ast.Stmt) -> None:
        line = stmt.pos.line
        if isinstance(stmt, ast.Block):
            self._block(stmt)
        elif isinstance(stmt, ast.VarDecl):
            slot = self._declare(stmt.name, stmt.ty)
            stmt.slot = slot
            if stmt.init is not None:
                self._expr(stmt.init)
                self._coerce(stmt.init.ty, stmt.ty)
                self._store(slot, stmt.ty, line)
        elif isinstance(stmt, ast.If):
            l_else = Label("ELSE")
            self._branch_if_false(stmt.cond, l_else)
            self._stmt(stmt.then)
            if stmt.otherwise is not None:
                l_end = Label("ENDIF")
                self.emit(op.GOTO, l_end, line=line)
                self.method.place(l_else)
                self._stmt(stmt.otherwise)
                self.method.place(l_end)
            else:
                self.method.place(l_else)
        elif isinstance(stmt, ast.While):
            l_cond, l_end = Label("WCOND"), Label("WEND")
            self.method.place(l_cond)
            self._branch_if_false(stmt.cond, l_end)
            self.break_labels.append(l_end)
            self.continue_labels.append(l_cond)
            self._stmt(stmt.body)
            self.break_labels.pop()
            self.continue_labels.pop()
            self.emit(op.GOTO, l_cond, line=line)
            self.method.place(l_end)
        elif isinstance(stmt, ast.For):
            self.slots.append({})
            if stmt.init is not None:
                self._stmt(stmt.init)
            l_cond, l_cont, l_end = Label("FCOND"), Label("FCONT"), Label("FEND")
            self.method.place(l_cond)
            if stmt.cond is not None:
                self._branch_if_false(stmt.cond, l_end)
            self.break_labels.append(l_end)
            self.continue_labels.append(l_cont)
            self._stmt(stmt.body)
            self.break_labels.pop()
            self.continue_labels.pop()
            self.method.place(l_cont)
            if stmt.update is not None:
                self._expr(stmt.update, want_value=False)
            self.emit(op.GOTO, l_cond, line=line)
            self.method.place(l_end)
            self.slots.pop()
        elif isinstance(stmt, ast.Return):
            if stmt.value is None:
                self.emit(op.RETURN, line=line)
            else:
                self._expr(stmt.value)
                self._coerce(stmt.value.ty, self.mi.ret)
                ch = _tychar(self.mi.ret)
                self.emit(
                    {"I": op.IRETURN, "J": op.LRETURN, "F": op.FRETURN, "A": op.ARETURN}[ch],
                    line=line,
                )
        elif isinstance(stmt, ast.ExprStmt):
            self._expr(stmt.expr, want_value=False)
        elif isinstance(stmt, ast.Break):
            if not self.break_labels:
                raise CompileError("break outside loop")
            self.emit(op.GOTO, self.break_labels[-1], line=line)
        elif isinstance(stmt, ast.Continue):
            if not self.continue_labels:
                raise CompileError("continue outside loop")
            self.emit(op.GOTO, self.continue_labels[-1], line=line)
        else:  # pragma: no cover
            raise CompileError(f"unknown statement {type(stmt).__name__}")

    # ------------------------------------------------------------- conditions
    def _branch_if_false(self, expr: ast.Expr, target: Label) -> None:
        if isinstance(expr, ast.Binary):
            if expr.op == "&&":
                for operand in _chain_operands(expr):
                    self._branch_if_false(operand, target)
                return
            if expr.op == "||":
                l_true = Label("ORT")
                self._branch_if_true(expr.left, l_true)
                self._branch_if_false(expr.right, target)
                self.method.place(l_true)
                return
            if expr.op in _CMP:
                self._compare_branch(expr, target, negate=True)
                return
        if isinstance(expr, ast.Unary) and expr.op == "!":
            self._branch_if_true(expr.operand, target)
            return
        if isinstance(expr, ast.BoolLit):
            if not expr.value:
                self.emit(op.GOTO, target, line=expr.pos.line)
            return
        self._expr(expr)
        self.emit(op.IFFALSE, target, line=expr.pos.line)

    def _branch_if_true(self, expr: ast.Expr, target: Label) -> None:
        if isinstance(expr, ast.Binary):
            if expr.op == "||":
                for operand in _chain_operands(expr):
                    self._branch_if_true(operand, target)
                return
            if expr.op == "&&":
                l_false = Label("ANDF")
                self._branch_if_false(expr.left, l_false)
                self._branch_if_true(expr.right, target)
                self.method.place(l_false)
                return
            if expr.op in _CMP:
                self._compare_branch(expr, target, negate=False)
                return
        if isinstance(expr, ast.Unary) and expr.op == "!":
            self._branch_if_false(expr.operand, target)
            return
        if isinstance(expr, ast.BoolLit):
            if expr.value:
                self.emit(op.GOTO, target, line=expr.pos.line)
            return
        self._expr(expr)
        self.emit(op.IFTRUE, target, line=expr.pos.line)

    def _compare_branch(self, expr: ast.Binary, target: Label, negate: bool) -> None:
        lt, rt = expr.left.ty, expr.right.ty
        cond = _CMP[expr.op]
        if negate:
            cond = _NEGATE[cond]
        line = expr.pos.line
        if lt.is_numeric() and rt.is_numeric():
            from repro.lang.types import promote

            common = promote(lt, rt)
            assert common is not None
            self._expr(expr.left)
            self._coerce(lt, common)
            self._expr(expr.right)
            self._coerce(rt, common)
            cmp_op = {"I": op.IF_ICMP, "J": op.IF_LCMP, "F": op.IF_FCMP}[_tychar(common)]
            self.emit(cmp_op, cond, target, line=line)
        elif lt is BOOLEAN and rt is BOOLEAN:
            self._expr(expr.left)
            self._expr(expr.right)
            self.emit(op.IF_ICMP, cond, target, line=line)
        else:  # reference comparison
            self._expr(expr.left)
            self._expr(expr.right)
            self.emit(op.IF_ACMP, cond, target, line=line)

    # ------------------------------------------------------------- expressions
    def _expr(self, expr: ast.Expr, want_value: bool = True) -> None:
        line = expr.pos.line
        if isinstance(expr, ast.IntLit):
            self.emit(op.LDC, expr.value, "I", line=line)
        elif isinstance(expr, ast.LongLit):
            self.emit(op.LDC, expr.value, "J", line=line)
        elif isinstance(expr, ast.FloatLit):
            self.emit(op.LDC, expr.value, "F", line=line)
        elif isinstance(expr, ast.BoolLit):
            self.emit(op.LDC, 1 if expr.value else 0, "I", line=line)
        elif isinstance(expr, ast.StrLit):
            self.emit(op.LDC, expr.value, "S", line=line)
        elif isinstance(expr, ast.NullLit):
            self.emit(op.ACONST_NULL, line=line)
        elif isinstance(expr, ast.This):
            self.emit(op.ALOAD, 0, line=line)
        elif isinstance(expr, ast.VarRef):
            self._var_ref(expr)
        elif isinstance(expr, ast.FieldAccess):
            if expr.is_static:
                self.emit(op.GETSTATIC, expr.resolved_class, expr.name, line=line)
            else:
                self._expr(expr.target)
                self.emit(op.GETFIELD, expr.resolved_class, expr.name, line=line)
        elif isinstance(expr, ast.ArrayIndex):
            self._expr(expr.target)
            self._expr(expr.index)
            assert isinstance(expr.target.ty, ArrayType)
            self.emit(op.XALOAD, _tychar(expr.target.ty.elem), line=line)
        elif isinstance(expr, ast.ArrayLength):
            self._expr(expr.target)
            self.emit(op.ARRAYLENGTH, line=line)
        elif isinstance(expr, ast.Call):
            self._call(expr, want_value)
            return
        elif isinstance(expr, ast.New):
            self._new(expr)
        elif isinstance(expr, ast.NewArray):
            self._expr(expr.length)
            self.emit(op.NEWARRAY, expr.elem_ty.descriptor(), line=line)
        elif isinstance(expr, ast.Unary):
            self._unary(expr)
        elif isinstance(expr, ast.Binary):
            self._binary(expr)
        elif isinstance(expr, ast.Assign):
            self._assign(expr, want_value)
            return
        elif isinstance(expr, ast.Cast):
            self._cast(expr)
        elif isinstance(expr, ast.InstanceOf):
            self._expr(expr.expr)
            of = expr.of
            name = of.name if isinstance(of, ClassType) else of.descriptor()
            self.emit(op.INSTANCEOF, name, line=line)
        else:  # pragma: no cover
            raise CompileError(f"unknown expression {type(expr).__name__}")
        if not want_value:
            self.emit(op.POP, line=line)

    def _var_ref(self, expr: ast.VarRef) -> None:
        line = expr.pos.line
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

    def _call(self, expr: ast.Call, want_value: bool) -> None:
        line = expr.pos.line
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
        line = expr.pos.line
        ctor = self.table.resolve_ctor(expr.class_name)
        assert ctor is not None
        self.emit(op.NEW, expr.class_name, line=line)
        self.emit(op.DUP, line=line)
        for arg, (_, pty) in zip(expr.args, ctor.params):
            self._expr(arg)
            self._coerce(arg.ty, pty)
        self.emit(op.INVOKESPECIAL, expr.class_name, "<init>", ctor.arity, line=line)

    def _unary(self, expr: ast.Unary) -> None:
        if expr.op == "-":
            self._expr(expr.operand)
            neg = {"I": op.INEG, "J": op.LNEG, "F": op.FNEG}[_tychar(expr.ty)]
            self.emit(neg, line=expr.pos.line)
        else:  # "!": materialize via branches
            self._materialize_bool(expr)

    def _materialize_bool(self, expr: ast.Expr) -> None:
        l_false, l_end = Label("BF"), Label("BE")
        self._branch_if_false(expr, l_false)
        self.emit(op.LDC, 1, "I", line=expr.pos.line)
        self.emit(op.GOTO, l_end)
        self.method.place(l_false)
        self.emit(op.LDC, 0, "I", line=expr.pos.line)
        self.method.place(l_end)

    def _binary(self, expr: ast.Binary) -> None:
        if expr.op in _BOOLEAN_OPS:
            self._materialize_bool(expr)
            return
        # ``a + b + c + ...`` nests one level per operator down the left
        # operand: walk that spine in a loop, innermost operator first
        spine = [expr]
        left = expr.left
        while isinstance(left, ast.Binary) and left.op not in _BOOLEAN_OPS:
            spine.append(left)
            left = left.left
        self._expr(left)
        for node in reversed(spine):
            opname = node.op
            line = node.pos.line
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
                self.emit(_ARITH[(opname, _tychar(node.ty))], line=line)
            except KeyError:  # pragma: no cover
                raise CompileError(f"no opcode for {opname} on {node.ty}") from None

    def _assign(self, expr: ast.Assign, want_value: bool) -> None:
        target = expr.target
        line = expr.pos.line
        if isinstance(target, ast.VarRef) and target.binding[0] == "local":
            slot, ty = self._lookup(target.name)
            self._expr(expr.value)
            self._coerce(expr.value.ty, ty)
            if want_value:
                self.emit(op.DUP, line=line)
            self._store(slot, ty, line)
            return
        # resolve the (class, field, static?) triple for field targets
        if isinstance(target, ast.VarRef):
            fi = target.binding[1]
            cls, fname, is_static, fty = fi.declaring_class, fi.name, fi.is_static, fi.ty
            obj_pusher = None if is_static else (lambda: self.emit(op.ALOAD, 0, line=line))
        elif isinstance(target, ast.FieldAccess):
            fi = self.table.resolve_field(target.resolved_class, target.name)
            assert fi is not None
            cls, fname, is_static, fty = (
                target.resolved_class,
                target.name,
                target.is_static,
                fi.ty,
            )
            obj_pusher = None if is_static else (lambda: self._expr(target.target))
        elif isinstance(target, ast.ArrayIndex):
            assert isinstance(target.target.ty, ArrayType)
            elem_ty = target.target.ty.elem
            if want_value:
                tmp = self._alloc_temp()
                self._expr(expr.value)
                self._coerce(expr.value.ty, elem_ty)
                self._store(tmp, elem_ty, line)
                self._expr(target.target)
                self._expr(target.index)
                self._load(tmp, elem_ty, line)
                self.emit(op.XASTORE, _tychar(elem_ty), line=line)
                self._load(tmp, elem_ty, line)
            else:
                self._expr(target.target)
                self._expr(target.index)
                self._expr(expr.value)
                self._coerce(expr.value.ty, elem_ty)
                self.emit(op.XASTORE, _tychar(elem_ty), line=line)
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
            self.emit(op.CHECKCAST, name, line=expr.pos.line)


def compile_program(program: ast.Program, table: ClassTable) -> BProgram:
    """Compile an analyzed AST into a :class:`BProgram`.

    Static field initializers become a synthetic ``<clinit>`` method run at
    class-load time; the class containing a static ``main`` becomes the
    program entry point.
    """
    classes: Dict[str, BClass] = {}
    main_class: Optional[str] = None
    member = ("", "", None)  # class, field or method being compiled, its position
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
                sub = _MethodCompiler.__new__(_MethodCompiler)
                sub.table = table
                sub.bclass = bclass
                sub.method = clinit
                sub.slots = [{}]
                sub.next_slot = 0
                sub.break_labels = []
                sub.continue_labels = []
                for fd in static_inits:
                    member = (cd.name, fd.name, fd.pos)
                    sub._expr(fd.init)
                    sub._coerce(fd.init.ty, fd.ty)
                    clinit.emit(op.PUTSTATIC, cd.name, fd.name, line=fd.pos.line)
                clinit.emit(op.RETURN)
                bclass.methods["<clinit>"] = clinit
            for md in cd.methods:
                member = (cd.name, md.name, md.pos)
                mi = info.methods[md.name]
                mc = _MethodCompiler(table, bclass, mi)
                bclass.methods[md.name] = mc.compile(md, cd.fields)
                if md.name == "main" and md.is_static:
                    main_class = cd.name
            classes[cd.name] = bclass
    except RecursionError:
        raise CompileError(
            "{0} in {1}.{2} at {3}".format(NESTED_TOO_DEEPLY, *member)
        ) from None
    return BProgram(classes, table, main_class)
