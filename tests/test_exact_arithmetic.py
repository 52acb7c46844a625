"""Source hygiene of the package: every decision is exact, so nothing calls
``float`` or ``math.sqrt`` outside two outputs that are not rational by
nature, and a rational matrix becomes integers in one place only
(`linalg.int_form`)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "p2stab"

#: (module, function) that may make such a call: the angle `charge.phase`
#: returns, and the unit directions of the SVG drawing
ALLOWED = {("charge.py", "phase"), ("walls.py", "_unit")}


def calls_to(source: str, math_name: str, builtins=()):
    """The (enclosing function, call node) of each call to ``math.<math_name>``,
    under any name an import gives it, or to one of the named ``builtins``;
    the enclosing function of a module-level call is None."""
    tree = ast.parse(source)
    maths, direct = {"math"}, set(builtins)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            maths.update(a.asname for a in node.names if a.name == "math" and a.asname)
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            direct.update(a.asname or a.name for a in node.names if a.name == math_name)

    def is_wanted(f) -> bool:
        if isinstance(f, ast.Name):
            return f.id in direct
        return (isinstance(f, ast.Attribute) and f.attr == math_name
                and isinstance(f.value, ast.Name) and f.value.id in maths)

    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and is_wanted(child.func):
                found.append((func, child))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else func)

    visit(tree, None)
    return found


def float_calls(source: str):
    """The (enclosing function, line) of each call to the builtin ``float``
    or to ``math.sqrt``."""
    return [(func, call.lineno) for func, call in calls_to(source, "sqrt", ("float",))]


def denominator_lcms(source: str):
    """The (enclosing function, line) of each ``math.lcm`` call with an
    argument that reads ``.denominator``: a rational matrix turned into
    integers."""
    return [(func, call.lineno) for func, call in calls_to(source, "lcm")
            if any(isinstance(n, ast.Attribute) and n.attr == "denominator"
                   for arg in call.args for n in ast.walk(arg))]


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


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_denominators_are_cleared_in_int_form_only(path):
    calls = denominator_lcms(path.read_text())
    assert [(func, line) for func, line in calls if (path.name, func) != ("linalg.py", "int_form")] == []


def test_the_check_sees_a_denominator_lcm():
    source = (
        "import math as m\n"
        "from math import lcm\n"
        "def int_form(F, rows):\n"
        "    return m.lcm(*[x.denominator for row in rows for x in row])\n"
        "def side(Ns):\n"
        "    d = lcm(*(x.denominator for N in Ns for row in N for x in row))\n"
        "    return d, m.lcm(*[w[c] for w, c in Ns]), m.gcd(Ns[0].denominator)\n"
    )
    assert denominator_lcms(source) == [("int_form", 4), ("side", 6)]
