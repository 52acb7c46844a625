"""Source hygiene of the package: every imported name is read."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "p2stab"


def unused_imports(source: str):
    """The (line, name) of each name an import binds that the module never
    reads.  A name counts as read where it occurs as a bare name, the first
    part of a dotted one included.  Exempt: ``from __future__`` imports and
    lines marked ``# noqa: F401`` (deliberate re-exports)."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append((alias.lineno, name))
    return unused


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "from typing import (\n"
        "    List,\n"
        "    Optional,\n"
        "    Tuple,  # noqa: F401\n"
        ")\n"
        "def f(x: List[int]):\n"
        "    import json as j\n"
        "    return os.path.join(str(x))\n"
    )
    assert unused_imports(source) == [(2, "math"), (5, "Optional"), (9, "j")]


def imported_modules(source: str):
    """The top-level name of every module an import statement names,
    imports inside functions included."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_sympy(path):
    # the two symbolic criteria check their identities with the package's
    # own polynomial type: the package has no runtime dependency
    assert "sympy" not in imported_modules(path.read_text())


def test_the_check_sees_a_sympy_import():
    source = "import os\ndef f():\n    import sympy.core as c\n    from . import x\n"
    assert imported_modules(source) == {"os", "sympy"}
    assert imported_modules("from sympy import Symbol\n") == {"sympy"}
