"""Per-node heap: objects, arrays, allocation statistics.

The size model (16-byte object header + 8 bytes per field; 16-byte array
header + element width × length) feeds both the memory-allocation profiler
metric (Section 6 of the paper) and the memory constraint of the
multi-constraint partitioner (Section 3).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import VMError
from repro.lang.types import elem_width, parse_descriptor
from repro.vm.values import Ref, default_value

OBJECT_HEADER = 16
ARRAY_HEADER = 16
FIELD_SLOT = 8


class HeapObject:
    __slots__ = ("class_name", "fields", "native_state")

    def __init__(self, class_name: str, fields: Dict[str, object]) -> None:
        self.class_name = class_name
        self.fields = fields
        #: backing storage for built-in classes (Vector list, Random state...)
        self.native_state = None

    def size_bytes(self) -> int:
        return OBJECT_HEADER + FIELD_SLOT * len(self.fields)


class HeapArray:
    __slots__ = ("elem_desc", "data")

    def __init__(self, elem_desc: str, length: int) -> None:
        if length < 0:
            raise VMError(f"negative array size {length}")
        self.elem_desc = elem_desc
        ch = elem_desc if elem_desc in ("I", "J", "F", "Z") else "A"
        self.data: List[object] = [default_value(ch)] * length

    def size_bytes(self) -> int:
        try:
            width = elem_width(parse_descriptor(self.elem_desc))
        except ValueError:
            width = 8
        return ARRAY_HEADER + width * len(self.data)


class Heap:
    """An object store with allocation hooks (used by the memory profiler)."""

    def __init__(self) -> None:
        self._store: Dict[int, object] = {}
        self._next = 1
        self.allocated_objects = 0
        self.allocated_bytes = 0
        self.live_bytes = 0
        self.alloc_hook: Optional[Callable[[str, int], None]] = None

    def __len__(self) -> int:
        return len(self._store)

    def _insert(self, entry, kind: str, size: Optional[int] = None) -> Ref:
        oid = self._next
        self._next += 1
        self._store[oid] = entry
        if size is None:
            size = entry.size_bytes()
        self.allocated_objects += 1
        self.allocated_bytes += size
        self.live_bytes += size
        if self.alloc_hook is not None:
            self.alloc_hook(kind, size)
        return Ref(oid)

    def new_object(self, class_name: str, template: Dict[str, object]) -> Ref:
        """Allocate a ``class_name`` whose fields start as a copy of
        ``template`` (``LoadedProgram.templates``) — the one allocation path
        of objects: the handlers, ``create_local`` and compiled regions."""
        return self._insert(HeapObject(class_name, template.copy()), class_name,
                            OBJECT_HEADER + FIELD_SLOT * len(template))

    def new_array(self, elem_desc: str, length: int) -> Ref:
        return self._insert(HeapArray(elem_desc, length), elem_desc + "[]")

    def get(self, ref: Ref):
        if ref is None:
            raise VMError("null dereference")
        try:
            return self._store[ref.oid]
        except KeyError:
            raise VMError(f"dangling reference {ref!r}") from None

    def object(self, ref: Ref) -> HeapObject:
        entry = self.get(ref)
        if not isinstance(entry, HeapObject):
            raise VMError(f"{ref!r} is not an object")
        return entry

    def array(self, ref: Ref) -> HeapArray:
        entry = self.get(ref)
        if not isinstance(entry, HeapArray):
            raise VMError(f"{ref!r} is not an array")
        return entry

    def free(self, ref: Ref) -> None:
        entry = self._store.pop(ref.oid, None)
        if entry is not None:
            self.live_bytes -= entry.size_bytes()
