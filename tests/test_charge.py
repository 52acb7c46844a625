"""Central charges: the geometric family, the boundary family Z^b and the
explicit base-change matrix between them."""
import random
from fractions import Fraction

import pytest

from p2stab.errors import InputError
from p2stab.charge import (
    CentralCharge,
    geom_conditions_abc,
    pi_sigma_b,
    sqrt_rational,
    t_matrix_inv,
    theorem1_hypotheses,
    verify_T_identity,
    z_cha_form,
    z_geometric,
    z_sigma_b,
)
from p2stab.ktheory import A1, mukai_pair


def test_geometric_and_cha_forms_agree():
    rng = random.Random(7)
    for _ in range(500):
        r = rng.randint(1, 5) * rng.choice((1, -1))
        d = rng.randint(-6, 6)
        s = Fraction(rng.randint(-12, 12), 2)
        b = Fraction(rng.randint(-8, 8), rng.randint(1, 9))
        t2 = Fraction(rng.randint(1, 30), rng.randint(1, 7))
        assert z_geometric((r, d, s), b, t2) == z_cha_form((r, d, s), b, t2)


def test_geometric_matches_mukai_pairing_presentation():
    # Z(a) = <u, a> + i t <w, a> with u = (1, b, (b^2 - t^2)/2), w = (0, 1, b)
    rng = random.Random(11)
    for _ in range(300):
        a = (rng.randint(-4, 4), rng.randint(-6, 6), Fraction(rng.randint(-10, 10), 2))
        b = Fraction(rng.randint(-6, 6), rng.randint(1, 7))
        t2 = Fraction(rng.randint(1, 20), rng.randint(1, 5))
        u = (Fraction(1), b, (b * b - t2) / 2)
        w = (Fraction(0), Fraction(1), b)
        assert z_geometric(a, b, t2) == (mukai_pair(u, a), mukai_pair(w, a))


def test_ample_range_enforced():
    with pytest.raises(InputError, match="ample range"):
        z_geometric((1, 0, 0), Fraction(1, 2), Fraction(0))
    with pytest.raises(InputError, match="rank-zero"):
        z_cha_form((0, 1, 0), Fraction(1, 2), Fraction(1, 4))


def test_sigma_b_values_and_range():
    z = z_sigma_b(Fraction(1, 3))
    assert z.values == (
        (Fraction(-1, 3), 0),
        (Fraction(-2, 3), 0),
        (Fraction(2), 1),
    )
    # every value lies in the closed upper half plane, off the positive real axis
    assert all(im > 0 or (im == 0 and re < 0) for re, im in z.values)
    for bad in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 4)):
        with pytest.raises(InputError, match="sigma_b"):
            z_sigma_b(bad)


def test_sigma_b_skyscraper_value():
    for num in (1, 2, 5):
        b = Fraction(num, 7)
        z = z_sigma_b(b)
        assert z.eval((1, 2, 1)) == (1 - 2 * b, 1)


def test_pi_sigma_b_reproduces_the_charge():
    b = Fraction(2, 5)
    u, v = pi_sigma_b(b)
    z = z_sigma_b(b)
    for c, expected in zip(A1.signed_basis(), z.values):
        got = (mukai_pair(u, c.triple()), mukai_pair(v, c.triple()))
        assert got == expected


@pytest.mark.parametrize(
    "b,t",
    [
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(4, 5), Fraction(2, 5)),
        (Fraction(9, 10), Fraction(3, 10)),
        (Fraction(1, 5), Fraction(2, 5)),
        (Fraction(1, 10), Fraction(3, 10)),
    ],
)
def test_t_matrix_rational_points(b, t):
    (a00, a01), (a10, a11) = t_matrix_inv(b)
    assert (a10, a11) == (t, (2 * b - 1) * t)
    assert (a00, a01) == (b - Fraction(1, 2), 2 * b * b - 2 * b - Fraction(1, 2))


def test_t_matrix_irrational_point_rejected():
    with pytest.raises(InputError, match="not rational"):
        t_matrix_inv(Fraction(1, 3))  # t^2 = 2/9 is not a rational square


def test_verify_T_identity_frozen_at_half():
    rep = verify_T_identity(Fraction(1, 2))
    assert rep["ok"] and rep["matrix_ok"] and rep["ox_ok"]
    assert rep["t"] == Fraction(1, 2)
    assert rep["rhs"] == [
        [Fraction(1), Fraction(1, 2), Fraction(0)],
        [Fraction(0), Fraction(1, 2), Fraction(1, 4)],
    ]
    assert rep["ox_image"] == (Fraction(-1), Fraction(0))


def test_T_carries_sigma_b_to_the_geometric_charge():
    # T^{-1} carries each value of Z^b on the simples of A_1 exactly to the
    # geometric charge at the parabola point (b, sqrt(b - b^2))
    for b in (Fraction(1, 2), Fraction(4, 5), Fraction(9, 10)):
        (t00, t01), (t10, t11) = t_matrix_inv(b)
        moved = [(t00 * x + t01 * y, t10 * x + t11 * y) for x, y in z_sigma_b(b).values]
        t = sqrt_rational(b - b * b)
        target = [z_geometric(c, b, b - b * b) for c in A1.signed_basis()]
        assert moved == [(re, im_coeff * t) for re, im_coeff in target]


def test_geom_conditions_on_sigma_b():
    b = Fraction(3, 7)
    assert geom_conditions_abc(z_sigma_b(b)) == (2 - b, 1, b)
    a, m, c = geom_conditions_abc(z_sigma_b(b))
    assert a + c == 2 * m  # column linearity in the middle slot


def test_geom_conditions_degenerate_charge():
    flat = CentralCharge(((Fraction(1), 0), (Fraction(2), 0), (Fraction(3), 0)))
    assert geom_conditions_abc(flat) == (0, 0, 0)


def test_theorem1_worked_example():
    rep = theorem1_hypotheses((2, 1, 0), Fraction(9, 20), Fraction(99, 400))
    assert rep == {
        "epsilon": Fraction(1, 10),
        "re": Fraction(99, 200),
        "ok_range": True,
        "ok_t": True,
        "ok_re": True,
        "ok": True,
    }
    with pytest.raises(InputError, match="positive rank"):
        theorem1_hypotheses((0, 1, 0), Fraction(1, 2), Fraction(1, 4))


def test_theorem1_rejects_out_of_range_epsilon():
    # epsilon = 1 - 2b; at b = 1/10 it exceeds sqrt(t^2) = 3/10
    rep = theorem1_hypotheses((2, 1, 0), Fraction(1, 10), Fraction(9, 100))
    assert rep["epsilon"] == Fraction(4, 5)
    assert not rep["ok_range"] and not rep["ok"]


def test_geometric_values_at_an_irrational_t():
    # t^2 = 2/9 is not a rational square: z_geometric gives the values
    # exactly, with Im as its coefficient of t
    b, t2 = Fraction(1, 3), Fraction(2, 9)
    got = [z_geometric(c.triple(), b, t2) for c in A1.signed_basis()]
    assert got == [
        (Fraction(1, 18), Fraction(-1, 3)),
        (Fraction(1, 9), Fraction(-2, 3)),
        (Fraction(-23, 18), Fraction(5, 3)),
    ]
    with pytest.raises(InputError, match="ample range"):
        z_geometric((1, 0, 0), b, Fraction(-1, 4))


def test_central_charge_needs_three_values():
    with pytest.raises(InputError):
        CentralCharge(((1, 0), (0, 1)))  # only two values
