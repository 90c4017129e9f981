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


def unread_private_names(sources: list) -> list:
    """The private top-level names (a leading underscore, not a dunder)
    defined in the sources and read in none of them."""
    trees = [ast.parse(source) for source in sources]
    defined = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [n.id for t in targets for n in ast.walk(t)
                            if isinstance(n, ast.Name)]
    read = set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return [name for name in defined if name.startswith("_")
            and not name.startswith("__") and name not in read]


def test_every_private_name_is_read():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unread_private_names(sources) == []


def test_unread_private_names_finds_a_leftover():
    sources = ["_A, _B = 1, 2\n__version__ = '1'\n"
               "def _used():\n    return _A\n"
               "def _left(): pass\nclass _Gone: pass\n",
               "from m import _used\nx: int = _used()\n_n: int = 0\n"]
    assert unread_private_names(sources) == ["_B", "_left", "_Gone", "_n"]
