"""The compiler emits the bytecode it always did: a digest of each program's
flat code — every instruction's opcode, operands and line, and every
method's ``max_locals`` — held as a literal for the ten bundled workloads at
``test`` size and for the 24-class generated program.

The digests were taken before the type checker and the code generator
switched from ``isinstance`` chains to one lookup per node, and before AST
positions became two ints; a change to how the compiler is written must
reproduce them, and only a change to what it emits may regenerate them.
Flat code resolves branches to indices, so the digests do not see label
names; ``test_labels_are_numbered_per_method`` covers those.
"""

import hashlib

import pytest

from helpers import compile_mj_raw, scaling_source

from repro.bytecode.model import Label
from repro.workloads import WORKLOADS

#: program -> the first 16 hex digits of :func:`flat_digest`
GOLDEN = {
    "bank": "a2c7b0a785c24fa8",
    "compress": "dafc11d398debce2",
    "create": "9f4d35cef5c7e1fd",
    "crypt": "d28df9d037b7f93f",
    "db": "d90440ad2c6e3bc1",
    "heapsort": "00585ded281b4a4a",
    "method": "2e4e29dbf336f5bc",
    "moldyn": "f8dd23d2595e2cb3",
    "search": "777086d3eead4d37",
    "service_bank": "47820e9650e8816a",
    "gen24": "d2dc6700f0ed2d8a",
}


def source_of(program):
    if program == "gen24":
        return scaling_source(24)
    return WORKLOADS[program].source("test")


def flat_digest(bprogram) -> str:
    digest = hashlib.sha256()
    for cname, bclass in bprogram.classes.items():
        for mname, method in bclass.methods.items():
            digest.update(repr((cname, mname, method.max_locals)).encode())
            for ins in method.flat():
                digest.update(repr((ins.op, ins.a, ins.b, ins.c, ins.line)).encode())
    return digest.hexdigest()[:16]


def test_every_bundled_workload_is_pinned():
    assert set(GOLDEN) == set(WORKLOADS) | {"gen24"}


@pytest.mark.parametrize("program", sorted(GOLDEN))
def test_flat_bytecode_matches_its_digest(program):
    bprogram, _ = compile_mj_raw(source_of(program))
    assert flat_digest(bprogram) == GOLDEN[program]


def symbolic(bprogram):
    """Every method's symbolic code, a label as its name."""
    def operand(value):
        return value.name if isinstance(value, Label) else value

    return [
        (cname, mname, [
            (ins.op, operand(ins.a), operand(ins.b), operand(ins.c), ins.line)
            for ins in method.code
        ])
        for cname, bclass in bprogram.classes.items()
        for mname, method in bclass.methods.items()
    ]


def test_labels_are_numbered_per_method():
    """The same source compiles to the same symbolic code, label names
    included, whatever the process compiled before it."""
    first = symbolic(compile_mj_raw(source_of("crypt"))[0])
    compile_mj_raw(source_of("heapsort"))
    again = symbolic(compile_mj_raw(source_of("crypt"))[0])
    assert again == first
    assert any(op == "LABEL" for _, _, code in first for op, *_ in code)
