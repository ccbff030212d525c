"""Every module of the package reads each name it imports: a stdlib ``ast``
pass in place of a linter. ``__init__.py`` is left out, since it imports
names only to export them."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "prefix_oracle"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names that ``source`` imports and never reads, sorted. ``import a.b``
    binds ``a``; ``from __future__`` imports bind nothing."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_a_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_pass_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport sys\n"
              "from math import pi, tau as turn\nimport numpy as np\n"
              "def f(x: np.ndarray) -> float:\n    return os.path.sep, turn\n")
    assert unused_imports(source) == ["pi", "sys"]


# Private names: the same pass over definitions. A name that starts with "_"
# (not a dunder) is defined at module level, as a function, class or
# constant, or as a method; some module of the package must read it, by
# name, as an attribute or through an import.
ALL_MODULES = sorted(PACKAGE.glob("*.py"))


def private_definitions(source: str) -> set:
    """The private module-level functions, classes and constants of
    ``source`` and the private methods of its classes."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            names.update(n.name for n in node.body if isinstance(n, ast.FunctionDef))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def names_read(source: str) -> set:
    """Every name ``source`` loads, bare or as an attribute, or imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def unread_private_names(sources: list) -> list:
    """The private names defined in ``sources`` that none of them reads, sorted."""
    defined = set().union(*map(private_definitions, sources))
    return sorted(defined - set().union(*map(names_read, sources)))


def test_the_package_reads_every_private_name_it_defines():
    assert unread_private_names([p.read_text() for p in ALL_MODULES]) == []


def test_the_pass_finds_an_unused_private_name():
    source = ("_LIMIT, _SPARE = 3, 4\n_typed: int = 1\n"
              "def _used():\n    return _LIMIT\n"
              "def _stranded():\n    return _used()\n"
              "class _Box:\n    def __init__(self):\n        self._slot = 0\n"
              "    def _read(self):\n        return self._slot\n"
              "    def _dead(self):\n        pass\n"
              "def public():\n    return _Box()._read()\n")
    other = "from .mod import _typed\n"
    assert unread_private_names([source, other]) == ["_SPARE", "_dead", "_stranded"]
