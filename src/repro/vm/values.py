"""Runtime value representations.

MJ primitives map to Python values (``int``/``float``/``bool``-as-int);
strings are immutable Python ``str``; references are :class:`Ref` handles
into a node's :class:`~repro.vm.heap.Heap`.  :class:`DependentRef` is the
runtime handle to a *remote* object — the value-level half of the paper's
``DependentObject`` (Section 5): it records the hosting partition (node), the
object's unique identifier there, and its class.

32-bit / 64-bit integer semantics (wrap-around, logical shift) live here so
the interpreter, the constant folder and tests share one definition.
"""

from __future__ import annotations

import math
from typing import Optional

_I32_MASK = 0xFFFFFFFF
_I64_MASK = 0xFFFFFFFFFFFFFFFF


def i32(v: int) -> int:
    """Wrap a Python int to Java ``int`` (signed 32-bit) semantics."""
    v &= _I32_MASK
    return v - 0x100000000 if v >= 0x80000000 else v


def i64(v: int) -> int:
    """Wrap a Python int to Java ``long`` (signed 64-bit) semantics."""
    v &= _I64_MASK
    return v - 0x10000000000000000 if v >= 0x8000000000000000 else v


def idiv(a: int, b: int) -> int:
    """Java integer division (truncates toward zero)."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def irem(a: int, b: int) -> int:
    """Java integer remainder (sign of the dividend)."""
    return a - idiv(a, b) * b


def iushr(a: int, n: int, bits: int = 32) -> int:
    """Logical (unsigned) right shift of a signed value."""
    mask = _I32_MASK if bits == 32 else _I64_MASK
    n &= bits - 1
    res = (a & mask) >> n
    return i32(res) if bits == 32 else i64(res)


def _nonfinite(v: float, top: int) -> int:
    """Java's integer for NaN (0) and for an infinity (saturates)."""
    return 0 if v != v else top - 1 if v > 0 else -top


def f2i(v: float) -> int:
    """Java ``(int)`` of a float; a finite value truncates and wraps."""
    try:
        return i32(int(v))
    except (ValueError, OverflowError):
        return _nonfinite(v, 1 << 31)


def f2l(v: float) -> int:
    """Java ``(long)`` of a float; a finite value truncates and wraps."""
    try:
        return i64(int(v))
    except (ValueError, OverflowError):
        return _nonfinite(v, 1 << 63)


def frem(a: float, b: float) -> float:
    """Java float remainder for ``b != 0`` (sign of the dividend).  When
    the quotient is not finite: NaN for a non-finite dividend, else the
    exact ``fmod``; a finite dividend is its own remainder by ±inf."""
    try:
        q = int(a / b)
    except (ValueError, OverflowError):
        return math.fmod(a, b) if math.isfinite(a) else math.nan
    return a if math.isinf(b) else a - b * q


class Ref:
    """A local heap reference: an index into the owning node's heap."""

    __slots__ = ("oid",)

    def __init__(self, oid: int) -> None:
        self.oid = oid

    def __repr__(self) -> str:  # pragma: no cover
        return f"Ref({self.oid})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ref) and other.oid == self.oid

    def __hash__(self) -> int:
        return hash(("ref", self.oid))


class DependentRef:
    """A reference to an object living on another partition.

    Mirrors the paper's DependentObject payload: "its class type, the
    identifier of the partition (node) that hosts the object, and its unique
    identifier in that partition".
    """

    __slots__ = ("node", "oid", "class_name")

    def __init__(self, node: int, oid: int, class_name: str) -> None:
        self.node = node
        self.oid = oid
        self.class_name = class_name

    def __repr__(self) -> str:  # pragma: no cover
        return f"DependentRef(n{self.node}#{self.oid}:{self.class_name})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DependentRef)
            and other.node == self.node
            and other.oid == self.oid
        )

    def __hash__(self) -> int:
        return hash(("dref", self.node, self.oid))


def default_value(type_char: str):
    """Default value for a type descriptor char (field/array initialization)."""
    if type_char == "F":
        return 0.0
    if type_char in ("I", "J", "Z"):
        return 0
    return None


def type_char_of(value) -> str:
    """Runtime tag of a value (used by the streamed message format)."""
    if value is None:
        return "N"
    if isinstance(value, bool):
        return "Z"
    if isinstance(value, int):
        return "J" if not -0x80000000 <= value < 0x80000000 else "I"
    if isinstance(value, float):
        return "F"
    if isinstance(value, str):
        return "S"
    if isinstance(value, Ref):
        return "R"
    if isinstance(value, DependentRef):
        return "D"
    if isinstance(value, list):
        return "L"
    raise TypeError(f"not an MJ value: {value!r}")
