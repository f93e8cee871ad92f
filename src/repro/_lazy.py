"""Lazy package exports (PEP 562): a package says where each public name
lives and pays for the defining module on first touch, not on import —
so a process loads what its role uses (DESIGN.md §6, "Import layering").
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Dict, Sequence


def lazy_exports(package: str, origins: Dict[str, Sequence[str]]):
    """``(__getattr__, __dir__, __all__)`` for ``package``; ``origins``
    maps each relative sub-module to the names it defines.  Any other
    public name is tried as a sub-module (``repro.core.framing``), as an
    eager ``__init__`` would have bound it.  Results are cached on the
    package; racing first touches meet in the import system's locks."""
    where = {name: mod for mod, names in origins.items() for name in names}

    def __getattr__(name: str):
        target = f"{package}.{where.get(name, name)}"
        missing = AttributeError(
            f"module {package!r} has no attribute {name!r}")
        if name.startswith("_"):
            raise missing
        try:
            module = import_module(target)
        except ModuleNotFoundError as exc:
            if exc.name != target:
                raise  # the sub-module exists; something *it* needs does not
            raise missing from None
        value = getattr(module, name) if name in where else module
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted({*vars(sys.modules[package]), *where})

    return __getattr__, __dir__, list(where)
