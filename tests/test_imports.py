"""Source hygiene of the package: every imported name is read, and every
public name is used by the program or by README's library example."""

import ast
import re
from pathlib import Path

import pytest

import p2stab

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "p2stab"
README = PACKAGE.parent.parent / "README.md"


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


#: what `from p2stab import *` gives
PUBLIC_NAMES = {
    "__version__",
    "P2StabError", "InputError", "VerificationError", "IncompleteOracleError",
    "ChernCharacter", "HeartBasis", "A1", "A0", "A1P", "euler_chi", "mukai_pair",
    "twist", "bogomolov", "expected_dim", "dimvec", "chern_of_dimvec", "ch_o",
    "ch_cotangent",
    "CentralCharge", "z_geometric", "z_cha_form", "z_sigma_b", "t_matrix_inv",
    "verify_T_identity", "geom_conditions_abc", "theorem1_hypotheses",
    "QuiverRep", "rep_to_json", "rep_from_json", "check_relations", "simple",
    "direct_sum", "hom_space", "iso_test", "dualize", "reverse_theta",
    "tilt_B_to_Bprime", "tilt_Bprime_to_B", "theta_pair", "theta_transform",
    "submodule_dimvecs", "king_test", "jh_factors", "s_equiv", "random_rep",
    "KingVerdict", "SubmoduleSearch", "DestabilizedError",
    "PointConfig", "module_point", "bprime_module_points", "module_ideal_A1",
    "module_ideal_A0", "collinear_test", "wall_filtration_data", "composite_lines",
    "theta_b1", "theta_b0", "theta_family_r",
    "king_theta", "family_theta", "family_consistency", "numerical_walls",
    "chamber_membership", "walls_json", "hilbert_report", "wall_svg",
}


def test_star_import_gives_the_public_names():
    namespace = {}
    exec("from p2stab import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == len(p2stab.__all__) == 68


def names_read(tree, skip=()):
    """Every name ``tree`` reads, bare or as an attribute, outside the
    subtrees in ``skip``."""
    read = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if child in skip:
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                read.add(child.id)
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                read.add(child.attr)
            visit(child)

    visit(tree)
    return read


def unread_exports(package: Path, names, example: str):
    """The names of ``names`` that no module of ``package`` reads, other than
    ``__init__.py`` and the name's own definition, and that the source
    ``example`` does not read either.  A name ``__init__.py`` imports under
    an alias is looked up by its name in the module that defines it."""
    aliases = {alias.asname: alias.name
               for node in ast.walk(ast.parse((package / "__init__.py").read_text()))
               if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.asname}
    unread = set(names) - names_read(ast.parse(example))
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for name in sorted(unread):
            original = aliases.get(name, name)
            own = [node for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                   and node.name == original]
            if original in names_read(tree, own):
                unread.discard(name)
    return sorted(unread)


def library_example(readme: str) -> str:
    """The Python block under README's "Library use" heading."""
    return re.search(r"^## Library use\n.*?```python\n(.*?)```", readme, re.S | re.M).group(1)


def test_every_public_name_is_used():
    example = library_example(README.read_text(encoding="utf-8"))
    assert unread_exports(PACKAGE, p2stab.__all__, example) == []


def test_the_check_sees_an_unused_export(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "from .a import VERSION as __version__\n"
        "from .a import used, unused, recursive, shown, Kept, Lone\n"
    )
    (tmp_path / "a.py").write_text(
        "VERSION = '1'\n"
        "def used():\n"
        "    return VERSION\n"
        "def unused():\n"
        "    return 0\n"
        "def recursive(n):\n"
        "    return n and recursive(n - 1)\n"
        "def shown():\n"
        "    return 1\n"
        "class Kept:\n"
        "    pass\n"
        "class Lone:\n"
        "    def copy(self):\n"
        "        return Lone()\n"
    )
    (tmp_path / "b.py").write_text("from . import a\nfrom .a import Kept\nx = a.used(), Kept\n")
    readme = "# pkg\n\n## Library use\n\n```python\nfrom pkg import shown\nshown()\n```\n"
    names = ["__version__", "used", "unused", "recursive", "shown", "Kept", "Lone"]
    assert unread_exports(tmp_path, names, library_example(readme)) == ["Lone", "recursive", "unused"]
