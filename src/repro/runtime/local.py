"""Local dispatcher: DependentObject semantics without a network.

When a rewritten (communication-generating) program runs on a single node —
the 1-partition plan, or unit tests — every ``DependentObject.create`` /
``.access`` resolves locally.  This dispatcher implements exactly that, so
rewritten bytecode is runnable anywhere; the distributed MessageExchange
service (:mod:`repro.runtime.services`) reuses the same local paths for
objects that happen to live on the accessing node.
"""

from __future__ import annotations

from repro.errors import VMError
from repro.lang.symbols import (
    ARRAY_GET,
    ARRAY_LEN,
    ARRAY_SET,
    FIELD_GET,
    FIELD_SET,
    INVOKE_METHOD_HASRETURN,
    INVOKE_METHOD_VOID,
)
from repro.lang.types import VOID
from repro.vm.values import Ref


def create_local(machine, class_name: str, ctor_args):
    """Allocate ``class_name`` on ``machine`` and run its constructor.
    Generator; returns the new :class:`Ref`."""
    ref = machine._allocate(class_name)
    ctor = machine.program.lookup_method(class_name, "<init>")
    if ctor is not None:
        yield from machine.call(ctor, ref, list(ctor_args))
    else:
        from repro.vm.natives import find_native

        find_native(class_name, "<init>")(machine, ref, list(ctor_args))
    return ref


def access_local(machine, recv, access_type: int, member: str, args):
    """Perform one dependence access on a *local* receiver.  Generator;
    returns the access result (None for void/set accesses)."""
    if access_type in (INVOKE_METHOD_HASRETURN, INVOKE_METHOD_VOID):
        if isinstance(recv, Ref):
            entry = machine.heap.get(recv)
            runtime_cls = getattr(entry, "class_name", "Object")
        elif isinstance(recv, str):
            runtime_cls = "String"
        else:
            raise VMError(f"dependence access on {recv!r}")
        method = machine.program.lookup_method(runtime_cls, member)
        if method is not None:
            result = yield from machine.call(method, recv, list(args))
        else:
            from repro.vm.natives import find_native

            result = find_native(runtime_cls, member)(machine, recv, list(args))
            mi = machine.table.resolve_method(runtime_cls, member)
            if mi is not None and mi.ret is VOID:
                result = None
        return result
    if access_type in (ARRAY_GET, ARRAY_SET, ARRAY_LEN):
        arr = machine.heap.array(recv)
        if access_type == ARRAY_LEN:
            return len(arr.data)
        idx = args[0]
        if not 0 <= idx < len(arr.data):
            raise VMError(f"remote array index {idx} out of bounds")
        if access_type == ARRAY_GET:
            return arr.data[idx]
        arr.data[idx] = args[1]
        return None
    obj = machine.heap.object(recv)
    if access_type == FIELD_GET:
        try:
            return obj.fields[member]
        except KeyError:
            raise VMError(f"no field {obj.class_name}.{member}") from None
    if access_type == FIELD_SET:
        if member not in obj.fields:
            raise VMError(f"no field {obj.class_name}.{member}")
        obj.fields[member] = args[0]
        return None
    raise VMError(f"unknown access type {access_type}")


def local_dispatcher(machine):
    """Build a syscall handler resolving everything on ``machine``."""

    def syscall(kind: str, recv, args):
        if kind == "create":
            ctor_args, _location, class_name = args
            result = yield from create_local(machine, class_name, ctor_args or [])
            return result
        if kind == "access":
            call_args, access_type, member = args
            if recv is None:
                raise VMError("dependence access on null")
            result = yield from access_local(
                machine, recv, access_type, member, call_args or []
            )
            return result
        raise VMError(f"unknown syscall {kind}")  # pragma: no cover

    return syscall
