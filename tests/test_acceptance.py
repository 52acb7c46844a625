"""Acceptance battery: every advertised capability, one test per criterion.

The full battery runs once per session (it is the expensive part of the
suite); each test then asserts its own criterion so a regression points at
the exact capability that broke.
"""

from fractions import Fraction

import pytest

from p2stab import acceptance
from p2stab.charge import geom_conditions_abc

CRITERION_NAMES = {
    1: "dimvec-tables",
    2: "charge-forms-agree",
    3: "abc-symbolic",
    4: "T-matrix-identity",
    5: "king-weight-family",
    6: "family-coherence",
    7: "point-module-pipeline",
    8: "hilbert-configurations",
    9: "collinearity-wall",
    10: "duality",
    11: "tilt-composites",
    12: "submodule-oracle-calibration",
    13: "selftest-timing",
}


@pytest.fixture(scope="module")
def battery():
    results = acceptance.run_all("full")
    return {r.number: r for r in results}


def test_battery_shape(battery):
    assert sorted(battery) == list(range(1, 14))
    for number, r in battery.items():
        assert r.name == CRITERION_NAMES[number]
    lines = acceptance.format_results(list(battery.values()))
    assert len(lines) == 14
    assert lines[-1].endswith("/13 criteria passed")


@pytest.mark.parametrize("number", sorted(CRITERION_NAMES))
def test_criterion(battery, number):
    r = battery[number]
    assert r.passed, f"criterion {number} ({r.name}): {r.detail}"


# ---------------------------------------------------------------------------
# the exact polynomial type behind criteria 3 and 6


def test_poly_arithmetic_is_exact():
    x, y = acceptance._Poly.symbols("x", "y")
    assert (x + 1) * (x - 1) == x * x - 1
    assert (x - y) * (x + y) - x * x + y * y == 0  # cancels to zero
    assert 2 * x - 1 == -(1 - x * 2)  # numbers on either side
    assert Fraction(1, 2) * x + x == 3 * x * Fraction(1, 2)
    assert 1 - x != x - 1 and x != 0 and x != y
    p = 3 * x * x * y - x + Fraction(2, 3)
    assert (p.degree("x"), p.degree("y"), (p - p).degree("x")) == (2, 1, -1)
    assert p.subs("x", 2) == 12 * y - Fraction(4, 3)
    assert p.subs("x", 2).subs("y", Fraction(1, 9)) == 0
    assert repr(p) == "3*x**2*y - x + 2/3"
    assert repr(x - x) == "0" and repr(2 - x) == "-x + 2"


def test_criteria_3_and_6_fail_on_a_wrong_identity(monkeypatch):
    assert acceptance.criterion_3()[0] and acceptance.criterion_6()[0]

    def swapped(values):
        a, b, c = geom_conditions_abc(values)
        return (c, b, a)

    monkeypatch.setattr(acceptance, "geom_conditions_abc", swapped)
    passed, detail = acceptance.criterion_3()
    assert not passed and detail == "condition a is b, expected -b + 2"

    family = acceptance._theta_family

    def wrong(n, r, b):
        t0, t1, t2 = family(n, r, b)
        return (t0, t1, t2 + b * r - r)  # (1 - b) r: zero only at b = 1

    monkeypatch.setattr(acceptance, "_theta_family", wrong)
    assert acceptance.criterion_6() == (False, "symbolic annihilation identity fails")
