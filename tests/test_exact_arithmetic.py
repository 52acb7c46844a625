"""Source hygiene of the package: every decision is exact, so nothing calls
``float`` or ``math.sqrt`` outside two outputs that are not rational by
nature."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "p2stab"

#: (module, function) that may make such a call: the angle `charge.phase`
#: returns, and the unit directions of the SVG drawing
ALLOWED = {("charge.py", "phase"), ("walls.py", "_unit")}


def float_calls(source: str):
    """The (enclosing function, line) of each call to the builtin ``float``
    or to ``math.sqrt``, under any name an import gives it; the enclosing
    function of a module-level call is None."""
    tree = ast.parse(source)
    maths, sqrts = {"math"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            maths.update(a.asname for a in node.names if a.name == "math" and a.asname)
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            sqrts.update(a.asname or a.name for a in node.names if a.name == "sqrt")

    def is_float_call(f) -> bool:
        if isinstance(f, ast.Name):
            return f.id == "float" or f.id in sqrts
        return (isinstance(f, ast.Attribute) and f.attr == "sqrt"
                and isinstance(f.value, ast.Name) and f.value.id in maths)

    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and is_float_call(child.func):
                found.append((func, child.lineno))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else func)

    visit(tree, None)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_float_arithmetic(path):
    calls = float_calls(path.read_text())
    assert [(func, line) for func, line in calls if (path.name, func) not in ALLOWED] == []


def test_the_check_sees_a_float_call():
    source = (
        "import math\n"
        "import math as m\n"
        "from math import sqrt as root\n"
        "HALF = float('0.5')\n"
        "class C:\n"
        "    def phase(self, x):\n"
        "        return m.sqrt(x) + root(x)\n"
        "def f(x):\n"
        "    def g():\n"
        "        return math.sqrt(float(x))\n"
        "    return isinstance(x, float), math.isqrt(4), g\n"
    )
    assert float_calls(source) == [(None, 4), ("phase", 7), ("phase", 7), ("g", 10), ("g", 10)]
