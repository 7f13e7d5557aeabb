"""Lazy re-exports for a package ``__init__`` (PEP 562): ``from package import
Name`` keeps working, and the submodule that defines ``Name`` is imported the
first time somebody asks for it — not whenever a sibling is imported."""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], List[str]]:
    """``(__getattr__, __all__)`` for ``package``; ``exports`` maps each
    submodule to the names it contributes."""
    home = {name: sub for sub, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{home[name]}"), name)
        setattr(sys.modules[package], name, value)  # next lookup is a dict hit
        return value

    return __getattr__, sorted(home)
