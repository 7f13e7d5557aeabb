"""Class loading: static initialization and field-layout resolution.

``load_program`` verifies every method (see :mod:`repro.bytecode.verifier`:
a malformed one is a ``VerifyError`` before anything runs), then runs every
``<clinit>`` (synthesized from static field initializers) on a bootstrap
machine, producing the template static state that each execution node
copies — mirroring the per-JVM statics of the paper's deployment.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

from repro.errors import VMError
from repro.bytecode.model import BMethod, BProgram
from repro.bytecode.verifier import verify_program
from repro.lang.types import BOOLEAN, FLOAT, INT, LONG
from repro.vm.values import default_value


def _field_char(ty) -> str:
    if ty in (INT, BOOLEAN):
        return "I"
    if ty is LONG:
        return "J"
    if ty is FLOAT:
        return "F"
    return "A"


class _Templates(dict):
    """Class name -> its instance fields, default-valued, inherited ones
    first: what :meth:`Heap.new_object` copies into a new object.  Built
    once per class on first use, read with one subscript."""

    def __init__(self, program: "LoadedProgram") -> None:
        super().__init__()
        # a proxy: a program and its templates in a reference cycle would
        # outlive their last use until the collector ran
        self._program = weakref.proxy(program)

    def __missing__(self, class_name: str) -> Dict[str, object]:
        names, chars = self._program.instance_field_layout(class_name)
        t = self[class_name] = {
            name: default_value(ch) for name, ch in zip(names, chars)}
        return t


class LoadedProgram:
    """A :class:`BProgram` plus resolved runtime metadata."""

    def __init__(self, bprogram: BProgram) -> None:
        self.bprogram = bprogram
        self.table = bprogram.table
        self.statics: Dict[Tuple[str, str], object] = {}
        self._layouts: Dict[str, Tuple[List[str], List[str]]] = {}
        self.templates = _Templates(self)
        # default-initialize all static fields up front
        for bclass in bprogram.classes.values():
            for fld in bclass.static_fields():
                self.statics[(bclass.name, fld.name)] = default_value(
                    _field_char(fld.ty)
                )

    def lookup_method(self, class_name: str, method: str) -> Optional[BMethod]:
        return self.bprogram.lookup_method(class_name, method)

    def instance_field_layout(self, class_name: str) -> Tuple[List[str], List[str]]:
        """All instance fields of ``class_name`` including inherited ones,
        as parallel (names, type_chars) lists."""
        cached = self._layouts.get(class_name)
        if cached is not None:
            return cached
        names: List[str] = []
        chars: List[str] = []
        chain = []
        cur: Optional[str] = class_name
        while cur is not None and cur in self.bprogram.classes:
            chain.append(self.bprogram.classes[cur])
            cur = chain[-1].superclass
        for bclass in reversed(chain):  # superclass fields first
            for fld in bclass.instance_fields():
                names.append(fld.name)
                chars.append(_field_char(fld.ty))
        layout = (names, chars)
        self._layouts[class_name] = layout
        return layout

    def main_method(self) -> BMethod:
        if self.bprogram.main_class is None:
            raise VMError("program has no static main method")
        main = self.bprogram.classes[self.bprogram.main_class].methods.get("main")
        if main is None:  # pragma: no cover - main_class implies presence
            raise VMError("main class lost its main method")
        return main

    def fresh_statics(self) -> Dict[Tuple[str, str], object]:
        return dict(self.statics)


def load_program(bprogram: BProgram) -> LoadedProgram:
    """Verify every method, resolve layouts and execute all ``<clinit>``
    initializers."""
    verify_program(bprogram)
    loaded = LoadedProgram(bprogram)
    from repro.vm.interpreter import Machine, run_sync

    boot = Machine(loaded)
    for name in sorted(bprogram.classes):
        clinit = bprogram.classes[name].methods.get("<clinit>")
        if clinit is not None:
            boot.call_bmethod(clinit, None, [])
            run_sync(boot)
    return loaded
