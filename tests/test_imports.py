"""Source hygiene of the package: every imported name is read, every
public name is used by the program or by README's library example, and so
is every function and method."""

import ast
import collections
import re
import subprocess
import sys
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


def re_exports(source: str):
    """The names the imports of lines marked ``# noqa: F401`` bind."""
    lines = source.splitlines()
    return {alias.asname or alias.name
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom)
            for alias in node.names if "# noqa: F401" in lines[alias.lineno - 1]}


def test_the_check_sees_a_re_export():
    source = "from .a import (\n    b,  # noqa: F401\n    c,\n)\nfrom .d import e as f  # noqa: F401\n"
    assert re_exports(source) == {"b", "f"}


#: the package modules `modules.py` may import: the module algebra loads
#: without the search (`quiver`) and everything built on it
ALGEBRA_BASE = {"errors", "io_utils", "ktheory", "linalg"}


def package_imports(source: str):
    """The package modules an import statement names, relatively or as
    ``p2stab.x``, imports inside functions included."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update([node.module.split(".")[0]] if node.module
                         else (alias.name for alias in node.names))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("p2stab."):
            names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("p2stab."))
    return names


def test_the_module_algebra_imports_no_search():
    assert package_imports((PACKAGE / "modules.py").read_text()) <= ALGEBRA_BASE


def test_the_check_sees_a_package_import():
    source = ("from . import linalg, errors\nfrom .quiver import king_test\nimport os\n"
              "def f():\n    from .walls import x\n    import p2stab.cli\n"
              "from p2stab.geometry import y\nfrom os import path\n")
    assert package_imports(source) == {"linalg", "errors", "quiver", "walls", "cli", "geometry"}


def test_the_module_algebra_loads_without_the_search():
    # the package's __init__ imports every layer for `from p2stab import *`,
    # so a bare package stands in for it: what a fresh interpreter loads is
    # the import closure of modules.py alone
    code = (
        "import sys, types\n"
        f"package = types.ModuleType('p2stab'); package.__path__ = [{str(PACKAGE)!r}]\n"
        "sys.modules['p2stab'] = package\n"
        "import p2stab.modules\n"
        "print(*sorted(name for name in sys.modules if name.startswith('p2stab.')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded = set(out.stdout.split())
    assert not loaded & {f"p2stab.{name}" for name in ("quiver", "geometry", "walls", "acceptance",
                                                       "cli")}
    assert loaded == {"p2stab.modules"} | {f"p2stab.{name}" for name in ALGEBRA_BASE}


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


TRACER = PACKAGE.parent.parent / "bench" / "tracer.py"


def reads(tree):
    """Each bare name and attribute ``tree`` reads, once per read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def definitions(tree):
    """(qualified name, node) of each top-level function and of each method
    of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{sub.name}", sub


def tracer_targets(tracer_source: str):
    """The entries (module, function, label, keep spans) of the tracer's
    ``TARGETS`` table, read from its source, not imported."""
    for node in ast.parse(tracer_source).body:
        target = node.target if isinstance(node, ast.AnnAssign) else (
            node.targets[0] if isinstance(node, ast.Assign) else None)
        if getattr(target, "id", None) == "TARGETS":
            return list(ast.literal_eval(node.value))
    return []


def rebound_names(tracer_source: str):
    """The function names of the tracer's ``TARGETS`` table."""
    return [entry[1] for entry in tracer_targets(tracer_source)]


def test_quiver_re_exports_the_traced_algebra_itself():
    # the tracer looks each target up on its module and rebinds every name
    # that *is* that object, so the algebra functions it looks up on
    # `quiver` are re-exported as they are: a wrapper would hide their
    # callers in `modules` from the trace
    from p2stab import modules, quiver

    traced = {name for home, name, _, _ in tracer_targets(TRACER.read_text(encoding="utf-8"))
              if home == "quiver" and name in vars(modules)}
    assert traced == {"tilt_Bprime_to_B", "tilt_B_to_Bprime", "quotient_by", "iso_test"}
    assert re_exports((PACKAGE / "quiver.py").read_text()) == traced
    assert all(getattr(quiver, name) is getattr(modules, name) for name in traced)


def unread_functions(package: Path, example: str, rebound=()):
    """``module.function`` or ``module.Class.method`` of each top-level
    function and method of ``package`` whose name nothing reads outside its
    own definition: no module of the package, not the source ``example``,
    and not ``rebound``.  Dunder methods are exempt."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    count = collections.Counter(rebound)
    for tree in [*trees.values(), ast.parse(example)]:
        count.update(reads(tree))
    unread = []
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if count[node.name] == sum(name == node.name for name in reads(node)):
                unread.append(f"{module}.{qualname}")
    return sorted(unread)


def test_every_function_has_a_program_caller():
    example = library_example(README.read_text(encoding="utf-8"))
    rebound = rebound_names(TRACER.read_text(encoding="utf-8"))
    assert "reduce_vector" in rebound
    assert unread_functions(PACKAGE, example, rebound) == []


def test_the_check_sees_a_function_without_a_caller(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n"
        "    return 1\n"
        "def unused():\n"
        "    return used()\n"
        "def recursive(n):\n"
        "    return n and recursive(n - 1)\n"
        "def shown():\n"
        "    return 0\n"
        "def traced():\n"
        "    return 0\n"
        "class K:\n"
        "    def __init__(self):\n"
        "        self.x = self.read()\n"
        "    def read(self):\n"
        "        def inner():\n"
        "            return 0\n"
        "        return inner()\n"
        "    def lone(self):\n"
        "        return K()\n"
        "    @property\n"
        "    def prop(self):\n"
        "        return 2\n"
    )
    (tmp_path / "b.py").write_text("from .a import K\nk = K().prop\n")
    tracer = "TARGETS: tuple = (('a', 'traced', 'a.traced', True),)\n"
    assert rebound_names(tracer) == ["traced"]
    unread = unread_functions(tmp_path, "shown()\n", rebound_names(tracer))
    assert unread == ["a.K.lone", "a.recursive", "a.unused"]
