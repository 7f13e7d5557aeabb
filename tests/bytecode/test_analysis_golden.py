"""The analyses and the planner compute what they always did: digests of the
class relation graph, the object set, the two-node plan and the rewritten
flat bytecode, held as literals for the ten bundled workloads at ``test``
size and for the 24-class generated program.

The digests were taken before loop levels and static CPU estimates were
cached on a method's flat form and superclass chains on the class table; a
change to how an analysis is written must reproduce them, and only a change
to what it computes may regenerate them.  Floats enter as ``repr``, so an
estimate that moves in its last bit shows.  Next to them,
``test_compiler_golden.py`` pins the compiler's own output.
"""

import hashlib

import pytest

from helpers import compile_mj_raw, two_node_plan_arguments
from test_compiler_golden import GOLDEN as COMPILED, flat_digest, source_of

from repro.analysis import build_crg, compute_object_set, rapid_type_analysis
from repro.distgen import build_plan, rewrite_program

#: program -> first 16 hex digits of (CRG, object set, plan, rewritten code)
GOLDEN = {
    "bank": ("98c530ce5af135aa", "c84f87e6140642d1",
            "b04bd51752227e39", "f647424fb514f283"),
    "compress": ("8fb2f60d6d1dbbe0", "0bc8b2a157cc215c",
                "ac3b49583d483ebf", "2048b80c1f1ae2a1"),
    "create": ("2c12fc91c4910fe6", "04f758ee2de8f799",
              "702d361462ac9ab2", "72bbcda1c57f0305"),
    "crypt": ("e3732adaa76a12ce", "d090122c3433f31f",
             "13be09702950c731", "f66448b868365425"),
    "db": ("5c5d21545fd1e5e2", "82723c8c511d60ac",
          "3e1e1259af723803", "66dca2d2fa552506"),
    "gen24": ("e04e76b532f27401", "da88876c38bbba07",
             "e4a5a312f3c1a852", "c46a60371e7d0152"),
    "heapsort": ("b55eb449b3153224", "cf0a4238ebabbed3",
                "51cfddf1662545ec", "f128ffcdbeac112c"),
    "method": ("5b2ee0ee3dedb175", "6dce0af2421015ee",
              "5e9110fd2b16ceae", "92d83bc901f9330b"),
    "moldyn": ("4da41a3b76e4349f", "a76bfb7e79f641f2",
              "c18baf9ea9fa9513", "310408e2896af9ec"),
    "search": ("8b1e752a0b63d7a4", "ace91d491703e357",
              "35a50bcca0c4490a", "ba925bf18c8797a9"),
    "service_bank": ("52a30e776894cd0a", "70c4e1ab42d33133",
                    "3d9ecf7ac78e3027", "7ade33f09f156f1a"),
}


def _digest(rows) -> str:
    digest = hashlib.sha256()
    for row in rows:
        digest.update(repr(row).encode())
    return digest.hexdigest()[:16]


def digests(source):
    program, _ = compile_mj_raw(source)
    cg = rapid_type_analysis(program)
    crg = _digest(sorted(
        (e.src, e.dst, e.kind, str(e.label), e.count, repr(e.volume))
        for e in build_crg(cg).edges()
    ))
    objects = _digest((o.uid, o.summary) for o in compute_object_set(cg))
    plan = build_plan(program, 2, **two_node_plan_arguments())
    planned = _digest((
        sorted(plan.class_home.items()), plan.parts, plan.order,
        repr(plan.est_cost), repr(plan.edgecut),
        sorted(plan.dependent_classes),
    ))
    rewritten, _ = rewrite_program(program, plan)
    return (crg, objects, planned, flat_digest(rewritten))


def test_every_compiled_program_is_pinned():
    assert set(GOLDEN) == set(COMPILED)


@pytest.mark.parametrize("program", sorted(GOLDEN))
def test_analyses_and_plan_match_their_digests(program):
    assert digests(source_of(program)) == GOLDEN[program]
