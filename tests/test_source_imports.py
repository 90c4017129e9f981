"""No module of the package imports a name it never uses.

Deletions tend to leave imports behind.  `__init__.py` is skipped, since
its imports are the package's re-exports, and so are `from __future__`
imports, which switch on language features.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "twistkit"


def unused_imports(source: str) -> list:
    """The names bound by import statements in source and never read."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_unused_imports(path):
    assert unused_imports((SRC / path).read_text()) == []


def test_unused_imports_finds_a_leftover():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom math import comb, lcm as l\n"
              "def f(x: 'Fraction') -> int:\n    return comb(x, 2)\n")
    assert unused_imports(source) == ["os", "l"]
