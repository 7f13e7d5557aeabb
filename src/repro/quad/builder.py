"""Bytecode → quad lifting by abstract interpretation of the operand stack.

The scheme is the classic one (also used by Joeq): operand-stack slots become
canonical registers (stack slot *i* of a method with *L* locals is register
``R(L+i+1)``; local slot *s* is ``R(s+1)``), and each bytecode instruction
becomes at most one quad.  Constants are propagated into operand positions —
including through locals, via a small forward dataflow — which is why the
Figure 5 listing shows ``IFCMP_I IConst: 4, IConst: 2, LE, BB4`` for
``if (b > 2)`` after ``b = 4``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Set, Union

from repro.errors import CompileError
from repro.bytecode import opcodes as op
from repro.bytecode.model import BMethod, Instr, stack_effect
from repro.lang.symbols import ClassTable, DEPENDENT_OBJECT
from repro.lang.types import BOOLEAN, FLOAT, INT, LONG, VOID, Type
from repro.quad.quads import BasicBlock, Const, Quad, QuadMethod, Reg

_AbsVal = Union[Reg, Const]


def _tychar(ty: Type) -> str:
    if ty in (INT, BOOLEAN):
        return "I"
    if ty is LONG:
        return "J"
    if ty is FLOAT:
        return "F"
    if ty is VOID:
        return "V"
    return "A"


def _invoke_ret_char(table: ClassTable, ins: Instr) -> str:
    cls, name = ins.a, ins.b
    if cls == DEPENDENT_OBJECT and name == "create":
        return "A"
    mi = table.resolve_method(cls, name)
    if mi is None:
        raise CompileError(f"cannot resolve {cls}.{name} for quad building")
    if mi.is_ctor:
        return "V"
    return _tychar(mi.ret)


_QUAD_BASE = {
    "ADD": "ADD", "SUB": "SUB", "MUL": "MUL", "DIV": "DIV", "REM": "REM",
    "AND": "AND", "OR": "OR", "XOR": "XOR", "SHL": "SHL", "SHR": "SHR",
    "USHR": "USHR",
}


class _Builder:
    def __init__(self, bmethod: BMethod, table: ClassTable) -> None:
        self.bm = bmethod
        self.table = table
        self.flat = bmethod.flat()
        self.qm = QuadMethod(bmethod.class_name, bmethod.name)
        self.nlocals = max(
            bmethod.max_locals, (0 if bmethod.is_static else 1) + bmethod.nargs
        )

    # ---------------------------------------------------------------- layout
    def _find_leaders(self) -> List[int]:
        leaders: Set[int] = {0}
        for i, ins in enumerate(self.flat):
            if ins.op in op.BRANCHES:
                target = ins.b if ins.op in op.CMP_BRANCHES else ins.a
                leaders.add(target)
                leaders.add(i + 1)
            elif ins.op in op.RETURNS:
                leaders.add(i + 1)
        return sorted(x for x in leaders if x < len(self.flat))

    def build(self) -> QuadMethod:
        if len(self.flat) == 0:
            raise CompileError(f"{self.bm.qualified}: empty method")
        leaders = self._find_leaders()
        # block id assignment: ENTRY=0, EXIT=1, body blocks 2.. in code order
        bid_of_leader: Dict[int, int] = {
            leader: i + 2 for i, leader in enumerate(leaders)
        }
        block_end: Dict[int, int] = {}
        for i, leader in enumerate(leaders):
            block_end[leader] = leaders[i + 1] if i + 1 < len(leaders) else len(self.flat)

        def bid_at(index: int) -> int:
            pos = bisect_right(leaders, index) - 1
            return bid_of_leader[leaders[pos]]

        # --- successor computation on bytecode ranges
        succs: Dict[int, List[int]] = {}
        for leader in leaders:
            bid = bid_of_leader[leader]
            end = block_end[leader]
            last = self.flat[end - 1]
            out: List[int] = []
            if last.op == op.GOTO:
                out = [bid_at(last.a)]
            elif last.op in op.CMP_BRANCHES:
                out = [bid_at(last.b)]
                if end < len(self.flat):
                    out.append(bid_at(end))
            elif last.op in op.BOOL_BRANCHES:
                out = [bid_at(last.a)]
                if end < len(self.flat):
                    out.append(bid_at(end))
            elif last.op in op.RETURNS:
                out = [1]
            else:
                if end < len(self.flat):
                    out = [bid_at(end)]
                else:
                    out = [1]
            succs[bid] = out

        # --- entry stack depth per block (worklist)
        depth_in: Dict[int, int] = {bid_of_leader[0]: 0}
        max_depth = 0
        work = [0]
        seen = {0}
        while work:
            leader = work.pop()
            bid = bid_of_leader[leader]
            depth = depth_in[bid]
            for i in range(leader, block_end[leader]):
                pops, pushes = stack_effect(self.flat[i], self.table)
                depth -= pops
                if depth < 0:
                    raise CompileError(
                        f"{self.bm.qualified}: stack underflow at {i}"
                    )
                depth += pushes
                max_depth = max(max_depth, depth)
            for s in succs[bid]:
                if s == 1:
                    continue
                s_leader = leaders[s - 2]
                if s in depth_in:
                    if depth_in[s] != depth:
                        raise CompileError(
                            f"{self.bm.qualified}: inconsistent stack depth "
                            f"at BB{s}"
                        )
                else:
                    depth_in[s] = depth
                if s_leader not in seen:
                    seen.add(s_leader)
                    work.append(s_leader)

        self._stack_base = self.nlocals  # stack slot i -> reg index base+i+1
        self.qm.num_regs = self.nlocals + max_depth

        # --- local-constant dataflow (meet over preds; None map = unknown yet)
        preds: Dict[int, List[int]] = {b: [] for b in succs}
        preds[1] = []
        for b, outs in succs.items():
            for s in outs:
                preds.setdefault(s, []).append(b)
        entry_bid = bid_of_leader[0]
        const_in: Dict[int, Optional[Dict[int, Const]]] = {
            bid_of_leader[l]: None for l in leaders
        }
        const_in[entry_bid] = {}
        const_out: Dict[int, Dict[int, Const]] = {}
        changed = True
        while changed:
            changed = False
            for leader in leaders:
                bid = bid_of_leader[leader]
                if bid != entry_bid:
                    merged: Optional[Dict[int, Const]] = None
                    for p in preds.get(bid, []):
                        pout = const_out.get(p)
                        if pout is None:
                            continue
                        if merged is None:
                            merged = dict(pout)
                        else:
                            merged = {
                                k: v
                                for k, v in merged.items()
                                if pout.get(k) == v
                            }
                    if merged is None:
                        continue
                    if const_in[bid] != merged:
                        const_in[bid] = merged
                        changed = True
                cmap = dict(const_in[bid] or {})
                for i in range(leader, block_end[leader]):
                    ins = self.flat[i]
                    if ins.op in op.STORES:
                        # a store of a constant makes the local constant; any
                        # other store kills (approximation: we do not track
                        # the abstract stack here, so only LDC;STORE pairs
                        # count — enough for the Figure 5 pattern)
                        if i > 0 and self.flat[i - 1].op == op.LDC:
                            cmap[ins.a] = Const(
                                self.flat[i - 1].a, self.flat[i - 1].b
                            )
                        else:
                            cmap.pop(ins.a, None)
                if const_out.get(bid) != cmap:
                    const_out[bid] = cmap
                    changed = True
        self._const_in = {b: (m or {}) for b, m in const_in.items()}

        # --- create blocks
        entry = BasicBlock(0)
        exit_block = BasicBlock(1)
        self.qm.blocks[0] = entry
        self.qm.blocks[1] = exit_block
        for leader in leaders:
            self.qm.blocks[bid_of_leader[leader]] = BasicBlock(bid_of_leader[leader])

        edges = [(0, entry_bid)]
        for b, outs in succs.items():
            for s in outs:
                edges.append((b, s))
        for a, b in edges:
            if b not in self.qm.blocks:
                continue
            if b not in self.qm.blocks[a].succs:
                self.qm.blocks[a].succs.append(b)
            if a not in self.qm.blocks[b].preds:
                self.qm.blocks[b].preds.append(a)

        # --- translate each reachable block
        for leader in leaders:
            bid = bid_of_leader[leader]
            if bid not in depth_in:
                continue  # unreachable
            self._translate_block(
                bid, leader, block_end[leader], depth_in[bid], bid_at
            )

        # param registers (for codegen)
        self.qm.param_regs = [
            Reg(s + 1, "A") for s in range(0 if self.bm.is_static else 1)
        ] + [
            Reg((0 if self.bm.is_static else 1) + i + 1, _tychar(t))
            for i, t in enumerate(self.bm.param_types)
        ]
        return self.qm

    # ---------------------------------------------------------------- helpers
    def _local_reg(self, slot: int, ty: str) -> Reg:
        return Reg(slot + 1, ty)

    def _stack_reg(self, pos: int, ty: str) -> Reg:
        return Reg(self._stack_base + pos + 1, ty)

    # ---------------------------------------------------------------- translate
    def _translate_block(self, bid, start, end, entry_depth, bid_at) -> None:
        block = self.qm.blocks[bid]
        stack: List[_AbsVal] = [self._stack_reg(i, "A") for i in range(entry_depth)]
        cmap: Dict[int, Const] = dict(self._const_in.get(bid, {}))

        def emit(quad: Quad) -> None:
            block.quads.append(quad)

        def result_reg(ty: str) -> Reg:
            return self._stack_reg(len(stack), ty)

        for i in range(start, end):
            ins = self.flat[i]
            o = ins.op
            if o == op.LDC:
                stack.append(Const(ins.a, ins.b))
            elif o == op.ACONST_NULL:
                stack.append(Const(None, "N"))
            elif o in op.LOADS:
                slot = ins.a
                ch = {"I": "I", "L": "J", "F": "F", "A": "A"}[o[0]]
                known = cmap.get(slot)
                stack.append(known if known is not None else self._local_reg(slot, ch))
            elif o in op.STORES:
                slot = ins.a
                ch = {"I": "I", "L": "J", "F": "F", "A": "A"}[o[0]]
                value = stack.pop()
                # guard: materialize any live alias of this local first
                target = self._local_reg(slot, ch)
                for pos, v in enumerate(stack):
                    if isinstance(v, Reg) and v == target:
                        repl = self._stack_reg(pos, v.ty)
                        emit(Quad("MOVE", v.ty, repl, [v], line=ins.line))
                        stack[pos] = repl
                emit(Quad("MOVE", ch, target, [value], line=ins.line))
                if isinstance(value, Const):
                    cmap[slot] = value
                else:
                    cmap.pop(slot, None)
            elif o == op.DUP:
                stack.append(stack[-1])
            elif o == op.POP:
                stack.pop()
            elif o == op.SWAP:
                stack[-1], stack[-2] = stack[-2], stack[-1]
            elif o in op.BINOPS:
                b = stack.pop()
                a = stack.pop()
                ty = op.RESULT_TYPE[o]
                base = _QUAD_BASE[o[1:]]
                dst = result_reg(ty)
                emit(Quad(base, ty, dst, [a, b], line=ins.line))
                stack.append(dst)
            elif o in op.NEGOPS:
                a = stack.pop()
                ty = op.RESULT_TYPE[o]
                dst = result_reg(ty)
                emit(Quad("NEG", ty, dst, [a], line=ins.line))
                stack.append(dst)
            elif o in op.CONVERSIONS:
                a = stack.pop()
                ty = op.RESULT_TYPE[o]
                dst = result_reg(ty)
                emit(Quad(o, "V", dst, [a], line=ins.line))
                stack.append(dst)
            elif o in op.CMP_BRANCHES:
                b = stack.pop()
                a = stack.pop()
                ty = {"IF_ICMP": "I", "IF_LCMP": "J", "IF_FCMP": "F", "IF_ACMP": "A"}[o]
                emit(
                    Quad("IFCMP", ty, None, [a, b],
                         extra=(ins.a, bid_at(ins.b)), line=ins.line)
                )
            elif o in op.BOOL_BRANCHES:
                a = stack.pop()
                cond = "NE" if o == op.IFTRUE else "EQ"
                emit(
                    Quad("IFCMP", "I", None, [a, Const(0, "I")],
                         extra=(cond, bid_at(ins.a)), line=ins.line)
                )
            elif o == op.GOTO:
                emit(Quad("GOTO", "V", None, [], extra=(bid_at(ins.a),), line=ins.line))
            elif o == op.NEW:
                dst = result_reg("A")
                emit(Quad("NEW", "A", dst, [], extra=(ins.a,), line=ins.line))
                stack.append(dst)
            elif o == op.NEWARRAY:
                length = stack.pop()
                dst = result_reg("A")
                emit(Quad("NEWARRAY", "A", dst, [length], extra=(ins.a,), line=ins.line))
                stack.append(dst)
            elif o == op.ARRAYLENGTH:
                a = stack.pop()
                dst = result_reg("I")
                emit(Quad("ARRAYLENGTH", "I", dst, [a], line=ins.line))
                stack.append(dst)
            elif o == op.XALOAD:
                idx = stack.pop()
                arr = stack.pop()
                dst = result_reg(ins.a)
                emit(Quad("ALOAD", ins.a, dst, [arr, idx], line=ins.line))
                stack.append(dst)
            elif o == op.XASTORE:
                value = stack.pop()
                idx = stack.pop()
                arr = stack.pop()
                emit(Quad("ASTORE", ins.a, None, [arr, idx, value], line=ins.line))
            elif o == op.GETFIELD:
                obj = stack.pop()
                fi = self.table.resolve_field(ins.a, ins.b)
                ch = _tychar(fi.ty) if fi is not None else "A"
                dst = result_reg(ch)
                emit(Quad("GETFIELD", ch, dst, [obj], extra=(ins.a, ins.b), line=ins.line))
                stack.append(dst)
            elif o == op.PUTFIELD:
                value = stack.pop()
                obj = stack.pop()
                fi = self.table.resolve_field(ins.a, ins.b)
                ch = _tychar(fi.ty) if fi is not None else "A"
                emit(Quad("PUTFIELD", ch, None, [obj, value], extra=(ins.a, ins.b), line=ins.line))
            elif o == op.GETSTATIC:
                fi = self.table.resolve_field(ins.a, ins.b)
                ch = _tychar(fi.ty) if fi is not None else "A"
                dst = result_reg(ch)
                emit(Quad("GETSTATIC", ch, dst, [], extra=(ins.a, ins.b), line=ins.line))
                stack.append(dst)
            elif o == op.PUTSTATIC:
                value = stack.pop()
                fi = self.table.resolve_field(ins.a, ins.b)
                ch = _tychar(fi.ty) if fi is not None else "A"
                emit(Quad("PUTSTATIC", ch, None, [value], extra=(ins.a, ins.b), line=ins.line))
            elif o in op.INVOKES:
                nargs = ins.c
                args = stack[-nargs:] if nargs else []
                if nargs:
                    del stack[-nargs:]
                srcs: List[_AbsVal] = list(args)
                static_like = ins.op == op.INVOKESTATIC or (
                    ins.a == DEPENDENT_OBJECT and ins.b == "create"
                )
                if not static_like:
                    srcs.insert(0, stack.pop())
                ret = _invoke_ret_char(self.table, ins)
                dst = None
                if ret != "V":
                    dst = result_reg(ret)
                emit(Quad(ins.op, ret, dst, srcs, extra=(ins.a, ins.b), line=ins.line))
                if dst is not None:
                    stack.append(dst)
            elif o == op.CHECKCAST:
                a = stack.pop()
                dst = result_reg("A")
                emit(Quad("CHECKCAST", "A", dst, [a], extra=(ins.a,), line=ins.line))
                stack.append(dst)
            elif o == op.INSTANCEOF:
                a = stack.pop()
                dst = result_reg("I")
                emit(Quad("INSTANCEOF", "I", dst, [a], extra=(ins.a,), line=ins.line))
                stack.append(dst)
            elif o == op.RETURN:
                emit(Quad("RETURN", "V", None, [], line=ins.line))
            elif o in op.RETURNS:
                value = stack.pop()
                ch = {"I": "I", "L": "J", "F": "F", "A": "A"}[o[0]]
                emit(Quad("RETURN", ch, None, [value], line=ins.line))
            elif o == op.PACK:
                n = ins.a
                args = stack[-n:] if n else []
                if n:
                    del stack[-n:]
                dst = result_reg("A")
                emit(Quad("PACK", "A", dst, list(args), line=ins.line))
                stack.append(dst)
            else:  # pragma: no cover
                raise CompileError(f"quad builder: unknown opcode {o}")

        # materialize any values left on the stack into canonical registers;
        # the moves must precede the block's terminating branch (if any)
        moves: List[Quad] = []
        for pos, v in enumerate(stack):
            want_idx = self._stack_base + pos + 1
            if isinstance(v, Const):
                dst = self._stack_reg(pos, v.ty if v.ty in "IJF" else "A")
                moves.append(Quad("MOVE", dst.ty, dst, [v]))
            elif v.index != want_idx:
                dst = self._stack_reg(pos, v.ty)
                moves.append(Quad("MOVE", v.ty, dst, [v]))
        if moves:
            insert_at = len(block.quads)
            if block.quads and block.quads[-1].op in ("GOTO", "IFCMP"):
                insert_at -= 1
            block.quads[insert_at:insert_at] = moves


def build_quads(bmethod: BMethod, table: ClassTable) -> QuadMethod:
    """Lift ``bmethod`` to the quad IR."""
    return _Builder(bmethod, table).build()
