#!/usr/bin/env python
"""Generate docs/API.md from the package's public surface.

Walks every ``repro`` subpackage, collects what its ``__all__`` exports
(or its public top-level names), and emits a markdown reference with
signatures and docstring summaries.  Run from the repository root:

    python scripts/gen_api_docs.py [output-path]

The output is a function of the source alone: object addresses are
stripped, sets are rendered sorted, and an enum's constructor (whose
signature each Python release spells its own way) renders as
``(value)`` — ``tests/test_docs.py`` compares the checked-in copy with a
fresh generation.
"""

from __future__ import annotations

import enum
import importlib
import inspect
import re
import sys
from pathlib import Path

PACKAGES = [
    "repro",
    "repro.session",
    "repro.core",
    "repro.core.tracing",
    "repro.topology",
    "repro.simnet",
    "repro.runtime",
    "repro.deploy",
    "repro.daemon",
    "repro.control",
    "repro.launch",
    "repro.baselines",
    "repro.protosim",
    "repro.distem",
    "repro.bench",
]


def summary_of(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    first = doc.split("\n\n", 1)[0].replace("\n", " ").strip()
    return first


_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+")


def stable(text: str) -> str:
    """``text`` without the object addresses a ``repr`` carries."""
    return _ADDRESS.sub("", text)


def render(obj) -> str:
    """``repr(obj)``, with set members sorted and addresses stripped."""
    if isinstance(obj, (set, frozenset)):
        members = ", ".join(sorted(map(repr, obj)))
        return f"{type(obj).__name__}({{{members}}})"
    return stable(repr(obj))


def signature_of(obj) -> str:
    if inspect.isclass(obj) and issubclass(obj, enum.Enum):
        return "(value)"
    try:
        return stable(str(inspect.signature(obj)))
    except (TypeError, ValueError):
        return "(...)"


def public_names(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return list(names)


def describe_class(name: str, cls) -> list[str]:
    lines = [f"### class `{name}{signature_of(cls)}`", ""]
    doc = summary_of(cls)
    if doc:
        lines += [doc, ""]
    methods = []
    for mname, member in inspect.getmembers(cls):
        if mname.startswith("_"):
            continue
        if inspect.isfunction(member) and member.__qualname__.startswith(
            cls.__name__ + "."
        ):
            methods.append((mname, member))
    for mname, member in methods:
        msum = summary_of(member)
        lines.append(f"- `.{mname}{signature_of(member)}`"
                     + (f" — {msum}" if msum else ""))
    if methods:
        lines.append("")
    return lines


def describe_function(name: str, fn) -> list[str]:
    lines = [f"### `{name}{signature_of(fn)}`", ""]
    doc = summary_of(fn)
    if doc:
        lines += [doc, ""]
    return lines


def generate() -> str:
    out: list[str] = [
        "# API reference",
        "",
        "_Generated by `scripts/gen_api_docs.py`; regenerate after"
        " changing any public signature._",
        "",
    ]
    for pkg_name in PACKAGES:
        module = importlib.import_module(pkg_name)
        out += [f"## `{pkg_name}`", ""]
        pkg_doc = summary_of(module)
        if pkg_doc:
            out += [pkg_doc, ""]
        for name in public_names(module):
            obj = getattr(module, name, None)
            if obj is None:
                continue
            if inspect.ismodule(obj):
                continue
            if inspect.isclass(obj):
                out += describe_class(name, obj)
            elif callable(obj):
                out += describe_function(name, obj)
            else:
                out.append(f"### `{name}`")
                out.append("")
                out.append(f"Constant: `{render(obj)}`"
                           if not isinstance(obj, (dict, list, tuple))
                           or len(str(obj)) < 80
                           else "Constant.")
                out.append("")
    return "\n".join(out) + "\n"


def main() -> int:
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else (
        Path(__file__).resolve().parent.parent / "docs" / "API.md"
    )
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(generate())
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
