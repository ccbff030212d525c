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
