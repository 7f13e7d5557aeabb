"""Built-in (native) method implementations for the MJ VM.

Each native is ``fn(machine, receiver, args) -> value``.  Receivers are
``str`` for String methods, :class:`~repro.vm.values.Ref` for Vector /
LinkedList / Random, and ``None`` for statics.  ``DependentObject`` methods
are *not* here — they route through the machine's syscall handler so the
distributed runtime (or the local dispatcher) can implement them.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Tuple

from repro.errors import VMError
from repro.vm.values import DependentRef, Ref, i32, i64


def fmt_value(machine, value) -> str:
    """Java-ish textual form of a value (println / string concat)."""
    if value is None:
        return "null"
    if isinstance(value, float):
        if abs(value) < 1e15 and value == int(value):  # false for NaN / inf
            return f"{value:.1f}"
        return repr(value)
    if isinstance(value, str):
        return value
    if isinstance(value, Ref):
        entry = machine.heap.get(value)
        cls = getattr(entry, "class_name", None)
        if cls is None:
            return f"array@{value.oid}"
        return f"{cls}@{value.oid}"
    if isinstance(value, DependentRef):
        return f"{value.class_name}@n{value.node}#{value.oid}"
    if isinstance(value, list):
        return "[" + ", ".join(fmt_value(machine, v) for v in value) + "]"
    return str(value)


# --------------------------------------------------------------------------- String
def _str_length(m, recv, args):
    return len(recv)


def _str_char_at(m, recv, args):
    idx = args[0]
    if not 0 <= idx < len(recv):
        raise VMError(f"String.charAt({idx}) out of range")
    return ord(recv[idx])


def _str_substring(m, recv, args):
    begin, end = args
    if not 0 <= begin <= end <= len(recv):
        raise VMError(f"String.substring({begin},{end}) out of range")
    return recv[begin:end]


def _str_index_of(m, recv, args):
    return recv.find(args[0])


def _str_equals(m, recv, args):
    return 1 if isinstance(args[0], str) and args[0] == recv else 0


def _str_hash(m, recv, args):
    h = 0
    for ch in recv:
        h = i32(31 * h + ord(ch))
    return h


def _str_compare_to(m, recv, args):
    other = args[0]
    return -1 if recv < other else (1 if recv > other else 0)


# --------------------------------------------------------------------------- Object
def _obj_equals(m, recv, args):
    other = args[0]
    if isinstance(recv, str):
        return _str_equals(m, recv, args)
    return 1 if recv == other else 0


def _obj_hash(m, recv, args):
    if isinstance(recv, str):
        return _str_hash(m, recv, args)
    if isinstance(recv, Ref):
        return recv.oid
    if isinstance(recv, DependentRef):
        return i32(recv.node * 1000003 + recv.oid)
    return 0


# --------------------------------------------------------------------------- Vector / LinkedList
def _list_state(m, recv):
    obj = m.heap.object(recv)
    if obj.native_state is None:
        obj.native_state = []
    return obj.native_state


def _vec_init(m, recv, args):
    m.heap.object(recv).native_state = []
    return None


def _vec_add(m, recv, args):
    _list_state(m, recv).append(args[0])
    return None


def _vec_add_first(m, recv, args):
    _list_state(m, recv).insert(0, args[0])
    return None


def _vec_get(m, recv, args):
    state = _list_state(m, recv)
    idx = args[0]
    if not 0 <= idx < len(state):
        raise VMError(f"Vector.get({idx}) out of range (size {len(state)})")
    return state[idx]


def _vec_set(m, recv, args):
    state = _list_state(m, recv)
    idx = args[0]
    if not 0 <= idx < len(state):
        raise VMError(f"Vector.set({idx}) out of range (size {len(state)})")
    state[idx] = args[1]
    return None


def _vec_size(m, recv, args):
    return len(_list_state(m, recv))


def _vec_clear(m, recv, args):
    _list_state(m, recv).clear()
    return None


def _vec_contains(m, recv, args):
    return 1 if args[0] in _list_state(m, recv) else 0


def _vec_remove_last(m, recv, args):
    state = _list_state(m, recv)
    if not state:
        raise VMError("Vector.removeLast on empty vector")
    return state.pop()


# --------------------------------------------------------------------------- Math
def _math1(fn: Callable[[float], float]):
    return lambda m, recv, args: fn(float(args[0]))


def _math_pow(m, recv, args):
    return math.pow(float(args[0]), float(args[1]))


def _math_min(m, recv, args):
    return min(float(args[0]), float(args[1]))


def _math_max(m, recv, args):
    return max(float(args[0]), float(args[1]))


def _math_imin(m, recv, args):
    return min(args[0], args[1])


def _math_imax(m, recv, args):
    return max(args[0], args[1])


def _math_iabs(m, recv, args):
    return i32(abs(args[0]))


# --------------------------------------------------------------------------- Sys / Str
def _sys_println(m, recv, args):
    m.stdout.append(fmt_value(m, args[0]))
    return None


def _sys_print(m, recv, args):
    if m.stdout:
        m.stdout[-1] += fmt_value(m, args[0])
    else:
        m.stdout.append(fmt_value(m, args[0]))
    return None


def _sys_time(m, recv, args):
    # virtual milliseconds at the nominal 1 GHz clock; include the cycles
    # the in-flight fast-path block has completed but not yet surfaced, so
    # both engines observe the identical instant
    return i64(int((m.cycles + m.inflight_cycles) // 1_000_000))


def _str_concat(m, recv, args):
    return fmt_value(m, args[0]) + fmt_value(m, args[1])


def _str_value_of(m, recv, args):
    return fmt_value(m, args[0])


# --------------------------------------------------------------------------- Random (64-bit LCG, deterministic)
_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407


def _rnd_init(m, recv, args):
    m.heap.object(recv).native_state = i64(args[0] if args[0] else 88172645463325252)
    return None


def _rnd_step(m, recv) -> int:
    obj = m.heap.object(recv)
    state = i64(_LCG_A * (obj.native_state or 1) + _LCG_C)
    obj.native_state = state
    return state


def _rnd_next_int(m, recv, args):
    bound = args[0]
    if bound <= 0:
        raise VMError(f"Random.nextInt bound must be positive, got {bound}")
    return (_rnd_step(m, recv) >> 16) % bound


def _rnd_next_float(m, recv, args):
    return ((_rnd_step(m, recv) >> 11) & ((1 << 53) - 1)) / float(1 << 53)


def _rnd_next_long(m, recv, args):
    return _rnd_step(m, recv)


#: (class, method) -> native implementation
REGISTRY: Dict[Tuple[str, str], Callable] = {
    ("String", "length"): _str_length,
    ("String", "charAt"): _str_char_at,
    ("String", "substring"): _str_substring,
    ("String", "indexOf"): _str_index_of,
    ("String", "equals"): _str_equals,
    ("String", "hashCode"): _str_hash,
    ("String", "compareTo"): _str_compare_to,
    ("Object", "equals"): _obj_equals,
    ("Object", "hashCode"): _obj_hash,
    ("Vector", "<init>"): _vec_init,
    ("Vector", "add"): _vec_add,
    ("Vector", "get"): _vec_get,
    ("Vector", "set"): _vec_set,
    ("Vector", "size"): _vec_size,
    ("Vector", "clear"): _vec_clear,
    ("Vector", "contains"): _vec_contains,
    ("Vector", "removeLast"): _vec_remove_last,
    ("LinkedList", "<init>"): _vec_init,
    ("LinkedList", "add"): _vec_add,
    ("LinkedList", "addFirst"): _vec_add_first,
    ("LinkedList", "get"): _vec_get,
    ("LinkedList", "size"): _vec_size,
    ("Math", "sqrt"): _math1(math.sqrt),
    ("Math", "sin"): _math1(math.sin),
    ("Math", "cos"): _math1(math.cos),
    ("Math", "exp"): _math1(math.exp),
    ("Math", "log"): _math1(math.log),
    ("Math", "floor"): _math1(lambda x: float(math.floor(x))),
    ("Math", "abs"): _math1(abs),
    ("Math", "pow"): _math_pow,
    ("Math", "min"): _math_min,
    ("Math", "max"): _math_max,
    ("Math", "imin"): _math_imin,
    ("Math", "imax"): _math_imax,
    ("Math", "iabs"): _math_iabs,
    ("Sys", "println"): _sys_println,
    ("Sys", "print"): _sys_print,
    ("Sys", "time"): _sys_time,
    ("Str", "concat"): _str_concat,
    ("Str", "valueOf"): _str_value_of,
    ("Random", "<init>"): _rnd_init,
    ("Random", "nextInt"): _rnd_next_int,
    ("Random", "nextFloat"): _rnd_next_float,
    ("Random", "nextLong"): _rnd_next_long,
}


def find_native(class_name: str, method: str) -> Callable:
    fn = REGISTRY.get((class_name, method))
    if fn is None:
        fn = REGISTRY.get(("Object", method))
    if fn is None:
        raise VMError(f"no native implementation for {class_name}.{method}")
    return fn
