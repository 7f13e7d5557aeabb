"""Activation frames for the MJ interpreter."""

from __future__ import annotations

from typing import List, Optional

from repro.bytecode.model import BMethod, FlatCode


class Frame:
    """One activation: method, pc into the flat code, locals and operand
    stack.  ``on_return`` (if set) intercepts the return value instead of
    pushing it to a caller frame — used for service-initiated calls."""

    __slots__ = ("method", "flat", "pc", "locals", "stack", "on_return")

    def __init__(self, method: BMethod, flat: FlatCode,
                 locals: List[object]) -> None:
        self.method = method
        self.flat = flat
        self.pc = 0
        self.locals = locals  # receiver, arguments, ``None`` up to flat.nlocals
        self.stack: List[object] = []
        self.on_return = None

    def push(self, value) -> None:
        self.stack.append(value)

    def pop(self):
        return self.stack.pop()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Frame {self.method.qualified} pc={self.pc}>"
