"""Symbol tables: classes, fields, methods, and the MJ built-in library.

The built-in library mirrors the slice of ``java.lang`` / ``java.util`` the
paper's examples rely on: ``Object``, ``String``, ``Vector`` (Figure 2 uses
``java.lang.Vector``), ``LinkedList`` (used by the communication rewriting in
Figure 8), ``Math``, ``Sys`` (``System.out`` stand-in), ``Random``
(deterministic LCG for workloads) and the runtime-support class
``DependentObject`` (Section 5 of the paper).

The table holds what later stages ask of a declaration — names, types,
flags, the superclass chain — and no AST: ``compile_program`` takes the
declarations from the tree its caller passes, so nothing compiled from a
program keeps that tree alive.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.errors import SemanticError
from repro.lang.types import (
    BOOLEAN,
    FLOAT,
    INT,
    LINKED_LIST,
    LONG,
    OBJECT,
    STRING,
    VECTOR,
    VOID,
    ArrayType,
    ClassType,
    Type,
)


class FieldInfo:
    __slots__ = ("name", "ty", "is_static", "declaring_class")

    def __init__(self, name, ty, is_static, declaring_class):
        self.name = name
        self.ty = ty
        self.is_static = is_static
        self.declaring_class = declaring_class

    def __repr__(self) -> str:  # pragma: no cover
        kind = "static " if self.is_static else ""
        return f"<field {kind}{self.declaring_class}.{self.name}: {self.ty}>"


class MethodInfo:
    __slots__ = (
        "name",
        "params",
        "ret",
        "is_static",
        "is_ctor",
        "is_native",
        "declaring_class",
    )

    def __init__(
        self,
        name: str,
        params: List[Tuple[str, Type]],
        ret: Type,
        is_static: bool,
        is_ctor: bool,
        declaring_class: str,
        is_native: bool = False,
    ):
        self.name = name
        self.params = params
        self.ret = ret
        self.is_static = is_static
        self.is_ctor = is_ctor
        self.is_native = is_native
        self.declaring_class = declaring_class

    @property
    def arity(self) -> int:
        return len(self.params)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<method {self.declaring_class}.{self.name}/{self.arity}>"


class ClassInfo:
    __slots__ = ("name", "superclass", "fields", "methods", "is_builtin")

    def __init__(
        self,
        name: str,
        superclass: Optional[str],
        is_builtin: bool = False,
    ):
        self.name = name
        self.superclass = superclass  # None only for Object
        self.fields: Dict[str, FieldInfo] = {}
        self.methods: Dict[str, MethodInfo] = {}
        self.is_builtin = is_builtin

    def __repr__(self) -> str:  # pragma: no cover
        return f"<class {self.name}>"


class ClassTable:
    """All classes of a program (user + built-in), with lookup helpers that
    walk the superclass chain."""

    def __init__(self) -> None:
        self.classes: Dict[str, ClassInfo] = {}
        #: class name -> the class and its ancestors, nearest first, as
        #: :meth:`chain` found them; dropped whenever a class is added
        self._chains: Dict[str, Tuple[ClassInfo, ...]] = {}
        #: class name -> names of the class and all its ancestors; filled on
        #: demand by :meth:`ancestors`, dropped whenever a class is added
        self._ancestors: Dict[str, FrozenSet[str]] = {}
        _install_builtins(self)

    # -- registration -------------------------------------------------------
    def add_class(self, info: ClassInfo) -> None:
        if info.name in self.classes:
            raise SemanticError(f"duplicate class {info.name}")
        self.classes[info.name] = info
        self._chains.clear()
        self._ancestors.clear()

    def get(self, name: str) -> ClassInfo:
        try:
            return self.classes[name]
        except KeyError:
            raise SemanticError(f"unknown class {name}") from None

    def has(self, name: str) -> bool:
        return name in self.classes

    # -- hierarchy ------------------------------------------------------------
    def supers(self, name: str):
        """Yield ``name`` and its ancestors, ending at Object."""
        cur: Optional[str] = name
        seen = set()
        while cur is not None:
            if cur in seen:
                raise SemanticError(f"inheritance cycle through {cur}")
            seen.add(cur)
            info = self.get(cur)
            yield info
            cur = info.superclass

    def chain(self, name: str) -> Tuple[ClassInfo, ...]:
        """``name`` and its ancestors, ending at Object (cached).  Only the
        hierarchy is cached: a member added to a class later is still
        found, but a chain broken anywhere raises, also above a member that
        a walk of :meth:`supers` would have found first."""
        found = self._chains.get(name)
        if found is None:
            found = self._chains[name] = tuple(self.supers(name))
        return found

    def ancestors(self, name: str) -> FrozenSet[str]:
        """Names of ``name`` and every class it inherits from."""
        found = self._ancestors.get(name)
        if found is None:
            found = frozenset(info.name for info in self.chain(name))
            self._ancestors[name] = found
        return found

    def is_subtype(self, sub: str, sup: str) -> bool:
        return sup == "Object" or sup in self.ancestors(sub)

    def subclasses(self, name: str) -> List[str]:
        """All classes X with X <: name (including name itself)."""
        return [c for c in self.classes if self.is_subtype(c, name)]

    # -- member lookup ----------------------------------------------------------
    def resolve_field(self, class_name: str, field: str) -> Optional[FieldInfo]:
        chain = self._chains.get(class_name) or self.chain(class_name)
        for info in chain:
            fi = info.fields.get(field)
            if fi is not None:
                return fi
        return None

    def resolve_method(self, class_name: str, method: str) -> Optional[MethodInfo]:
        chain = self._chains.get(class_name) or self.chain(class_name)
        for info in chain:
            mi = info.methods.get(method)
            if mi is not None:
                return mi
        return None

    def resolve_ctor(self, class_name: str) -> Optional[MethodInfo]:
        # Constructors are not inherited.
        return self.get(class_name).methods.get("<init>")

    def user_classes(self) -> List[ClassInfo]:
        return [c for c in self.classes.values() if not c.is_builtin]


# ---------------------------------------------------------------------------
# built-in library
# ---------------------------------------------------------------------------
def _native(
    cls: ClassInfo,
    name: str,
    params: List[Tuple[str, Type]],
    ret: Type,
    is_static: bool = False,
    is_ctor: bool = False,
) -> None:
    cls.methods[name] = MethodInfo(
        name, params, ret, is_static, is_ctor, cls.name, is_native=True
    )


#: name of the runtime proxy class injected by communication generation
DEPENDENT_OBJECT = "DependentObject"

#: access-type constants carried by rewritten bytecode (Figure 8 of the paper)
INVOKE_METHOD_HASRETURN = 1
INVOKE_METHOD_VOID = 2
FIELD_GET = 3
FIELD_SET = 4
#: extensions for remote arrays (references to arrays may cross partitions)
ARRAY_GET = 5
ARRAY_SET = 6
ARRAY_LEN = 7


def _install_builtins(table: ClassTable) -> None:
    obj = ClassInfo("Object", None, is_builtin=True)
    _native(obj, "equals", [("other", OBJECT)], BOOLEAN)
    _native(obj, "hashCode", [], INT)
    table.add_class(obj)

    string = ClassInfo("String", "Object", is_builtin=True)
    _native(string, "length", [], INT)
    _native(string, "charAt", [("index", INT)], INT)
    _native(string, "substring", [("begin", INT), ("end", INT)], STRING)
    _native(string, "indexOf", [("needle", STRING)], INT)
    _native(string, "equals", [("other", OBJECT)], BOOLEAN)
    _native(string, "hashCode", [], INT)
    _native(string, "compareTo", [("other", STRING)], INT)
    table.add_class(string)

    vector = ClassInfo("Vector", "Object", is_builtin=True)
    _native(vector, "<init>", [], VOID, is_ctor=True)
    _native(vector, "add", [("elem", OBJECT)], VOID)
    _native(vector, "get", [("index", INT)], OBJECT)
    _native(vector, "set", [("index", INT), ("elem", OBJECT)], VOID)
    _native(vector, "size", [], INT)
    _native(vector, "clear", [], VOID)
    _native(vector, "contains", [("elem", OBJECT)], BOOLEAN)
    _native(vector, "removeLast", [], OBJECT)
    table.add_class(vector)

    linked = ClassInfo("LinkedList", "Object", is_builtin=True)
    _native(linked, "<init>", [], VOID, is_ctor=True)
    _native(linked, "add", [("elem", OBJECT)], VOID)
    _native(linked, "addFirst", [("elem", OBJECT)], VOID)
    _native(linked, "get", [("index", INT)], OBJECT)
    _native(linked, "size", [], INT)
    table.add_class(linked)

    math = ClassInfo("Math", "Object", is_builtin=True)
    for name in ("sqrt", "sin", "cos", "exp", "log", "floor", "abs"):
        _native(math, name, [("x", FLOAT)], FLOAT, is_static=True)
    _native(math, "pow", [("x", FLOAT), ("y", FLOAT)], FLOAT, is_static=True)
    _native(math, "min", [("a", FLOAT), ("b", FLOAT)], FLOAT, is_static=True)
    _native(math, "max", [("a", FLOAT), ("b", FLOAT)], FLOAT, is_static=True)
    _native(math, "imin", [("a", INT), ("b", INT)], INT, is_static=True)
    _native(math, "imax", [("a", INT), ("b", INT)], INT, is_static=True)
    _native(math, "iabs", [("a", INT)], INT, is_static=True)
    table.add_class(math)

    sys = ClassInfo("Sys", "Object", is_builtin=True)
    _native(sys, "println", [("value", OBJECT)], VOID, is_static=True)
    _native(sys, "print", [("value", OBJECT)], VOID, is_static=True)
    _native(sys, "time", [], LONG, is_static=True)
    table.add_class(sys)

    # Compiler-internal string helpers ('+' concatenation).
    strutil = ClassInfo("Str", "Object", is_builtin=True)
    _native(strutil, "concat", [("a", OBJECT), ("b", OBJECT)], STRING, is_static=True)
    _native(strutil, "valueOf", [("a", OBJECT)], STRING, is_static=True)
    table.add_class(strutil)

    rng = ClassInfo("Random", "Object", is_builtin=True)
    _native(rng, "<init>", [("seed", LONG)], VOID, is_ctor=True)
    _native(rng, "nextInt", [("bound", INT)], INT)
    _native(rng, "nextFloat", [], FLOAT)
    _native(rng, "nextLong", [], LONG)
    table.add_class(rng)

    # Runtime support proxy for communication generation (paper Section 4.2/5).
    dep = ClassInfo(DEPENDENT_OBJECT, "Object", is_builtin=True)
    _native(
        dep,
        "<init>",
        [("location", INT), ("clsName", STRING), ("args", LINKED_LIST)],
        VOID,
        is_ctor=True,
    )
    _native(
        dep,
        "access",
        [("args", LINKED_LIST), ("accessType", INT), ("member", STRING)],
        OBJECT,
    )
    table.add_class(dep)


#: classes that are pure namespaces (cannot be instantiated / used as values)
STATIC_ONLY_BUILTINS = frozenset({"Math", "Sys", "Str"})

#: built-in classes considered part of the runtime, excluded from analysis
RUNTIME_CLASSES = frozenset(
    {"Object", "String", "Vector", "LinkedList", "Math", "Sys", "Str", "Random",
     DEPENDENT_OBJECT}
)
