"""Retargetable code generation (paper §4.1).

Quads become operator trees (:mod:`repro.codegen.tree`, the ANTLR-built AST
of Figure 6), which a BURS engine (:mod:`repro.codegen.burs`, the JBurg
stand-in) labels bottom-up with dynamic programming and reduces top-down to
target instructions.  Two rule sets ship, matching the paper's Figure 7
targets: :mod:`repro.codegen.x86` and :mod:`repro.codegen.strongarm`.

The names below are resolved on first use (PEP 562): ``vm/jit.py`` imports
:mod:`repro.codegen.pytarget` on every run, and importing this package must
not drag the two native rule sets in with it.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "burs": ("BURS", "Rule"),
    "tree": ("TreeNode", "quad_to_tree", "method_to_trees", "render_tree"),
    "x86": ("X86Target",),
    "strongarm": ("StrongARMTarget",),
})
