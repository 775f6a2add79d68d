"""Every top-level import of a package module is used by that module.

``__init__.py`` imports to re-export, and ``from __future__`` imports are
compiler directives, so both are left out.  A name counts as used when it
appears as a name anywhere in the module, a quoted annotation included.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lietorsion"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:        # a quoted annotation such as "IntLattice"
                used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                         if isinstance(n, ast.Name)}
            except SyntaxError:
                pass
    return [name for name in bound if name not in used]


def test_the_guard_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os, sys\n"
              "from math import gcd, prod as product\n"
              "def f(n: 'Fraction') -> int:\n    return gcd(n, len(sys.argv))\n")
    assert unused_imports(source) == ["os", "product"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == [], path.name
