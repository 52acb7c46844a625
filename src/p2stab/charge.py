"""Central charges on the tilted heart of P^2 and the geometric family.

A central charge is stored by its three values on the simple generators of
the heart A_1, as (re, im) pairs of rationals.  Every value and every
decision here is exact; the one float is the angle ``phase`` returns off
the eight axis and diagonal directions.

The geometric family is

    Z_(b,t)(r, d, s) = -s + d b + (r/2)(t^2 - b^2)  +  i t (d - r b),

for the divisor pair (bH, tH) with t^2 > 0.  Functions below keep t^2
exact and carry the imaginary part as its coefficient of t, so the whole
family stays in rational arithmetic, at an irrational t too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

from .errors import InputError
from .ktheory import (
    A1,
    ClassLike,
    HeartBasis,
    as_triple,
    dimvec,
    slopes,
)
from .linalg import QQ, mat_inverse

Pair = Tuple


def sqrt_rational(x: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None."""
    x = QQ.convert(x)
    if x < 0:
        return None
    pn = math.isqrt(x.numerator)
    pd = math.isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


@dataclass(frozen=True)
class CentralCharge:
    """Values of an additive charge on the simple basis of a fixed heart:
    three (re, im) pairs of Fractions."""

    values: Tuple[Pair, Pair, Pair]
    heart: HeartBasis = A1

    def __post_init__(self):
        if not isinstance(self.values, (tuple, list)) or len(self.values) != 3:
            raise InputError("a central charge carries exactly three values")
        if not all(isinstance(z, (tuple, list)) and len(z) == 2 for z in self.values):
            raise InputError("each central charge value is a (re, im) pair")
        vals = tuple((QQ.convert(x), QQ.convert(y)) for x, y in self.values)
        object.__setattr__(self, "values", vals)

    def eval(self, v: Sequence) -> Pair:
        """Z on a dimension vector: sum of v_i * Z([F_i])."""
        re = im = Fraction(0)
        for c, (x, y) in zip(v, self.values):
            c = QQ.convert(c)
            re = re + c * x
            im = im + c * y
        return (re, im)

    def eval_class(self, a: ClassLike) -> Pair:
        """Z on a lattice class, routed through the heart's basis."""
        return self.eval(dimvec(a, self.heart))

    def is_stability_function(self) -> bool:
        """All three basis values in the closed upper half plane H-bar."""
        try:
            for z in self.values:
                _require_hbar(z)
        except InputError:
            return False
        return True


def _require_hbar(z: Pair) -> None:
    re, im = z
    if re == 0 and im == 0:
        raise InputError("zero charge")
    if im < 0 or (im == 0 and re > 0):
        raise InputError("not a stability-function value")


# ---------------------------------------------------------------------------
# the geometric family, exact in t^2


def z_geometric(a: ClassLike, b: Fraction, t2: Fraction) -> Tuple[Fraction, Fraction]:
    """(re, im_coeff) of Z_(bH, tH) on the class a, with Im = im_coeff * t.

    Requires t^2 > 0 (the ample range).  Exact: t never materializes.
    """
    b = QQ.convert(b)
    t2 = QQ.convert(t2)
    if t2 <= 0:
        raise InputError("not in the ample range")
    r, d, s = as_triple(a)
    re = -s + d * b + Fraction(r, 2) * (t2 - b * b)
    return (re, d - r * b)


def z_cha_form(a: ClassLike, b: Fraction, t2: Fraction) -> Tuple[Fraction, Fraction]:
    """Same charge with the real part grouped through the discriminant:

        Re = ( (d^2 - 2 r s) + r^2 t^2 - (d - r b)^2 ) / (2 r).

    Only defined for nonzero rank.
    """
    b = QQ.convert(b)
    t2 = QQ.convert(t2)
    if t2 <= 0:
        raise InputError("not in the ample range")
    r, d, s = as_triple(a)
    if r == 0:
        raise InputError("rank-zero class")
    eps = d - r * b
    re = ((d * d - 2 * r * s) + r * r * t2 - eps * eps) / (2 * r)
    return (re, eps)


def from_geometric(b: Fraction, t2: Fraction) -> CentralCharge:
    """Z_(bH,tH) packaged on the A_1 simple basis; t^2 must be the square of
    a rational.  At an irrational t, ``z_geometric`` gives the same values
    exactly, with Im as its coefficient of t."""
    t2 = QQ.convert(t2)
    basis = [c.triple() for c in A1.signed_basis()]
    coeffs = [z_geometric(c, b, t2) for c in basis]
    t = sqrt_rational(t2)
    if t is None:
        raise InputError("t^2 is not the square of a rational; z_geometric keeps t symbolic")
    return CentralCharge(tuple((re, ic * t) for re, ic in coeffs))


def z_sigma_b(b: Fraction) -> CentralCharge:
    """The boundary charge Z^b on A_1, defined for 0 < b < 1.

    Values on the simples: (-b, 0), (-1 + b, 0), (3 - 3b, 1).
    """
    b = QQ.convert(b)
    if not (0 < b < 1):
        raise InputError("sigma_b defined for 0<b<1")
    return CentralCharge(((-b, 0), (-1 + b, 0), (3 - 3 * b, 1)))


def pi_sigma_b(b: Fraction) -> Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]:
    """Mukai-vector presentation (u, v) of Z^b: Z^b(a) = <u,a> + i <v,a>.

    u = (2b-1, b+1/2, b), v = (-1, -1/2, 0).
    """
    b = QQ.convert(b)
    if not (0 < b < 1):
        raise InputError("sigma_b defined for 0<b<1")
    u = (2 * b - 1, b + Fraction(1, 2), b)
    v = (Fraction(-1), Fraction(-1, 2), Fraction(0))
    return (u, v)


# ---------------------------------------------------------------------------
# phases and the GL+ action


def phase(z: Pair) -> Tuple[Union[Fraction, float], Union[Fraction, float]]:
    """(phi, mu) for a value in H-bar: phi in (0, 1] with z = |z| e^{i pi phi},
    mu = -re/im the slope (+inf on the real axis).

    phi comes back as an exact Fraction on the eight axis/diagonal
    directions and as a float, the angle, otherwise.
    """
    re, im = (QQ.convert(x) for x in z)
    _require_hbar((re, im))
    if im == 0:
        return (Fraction(1), math.inf)
    mu = -re / im
    if re == 0:
        return (Fraction(1, 2), mu)
    if re == im:
        return (Fraction(1, 4), mu)
    if re == -im:
        return (Fraction(3, 4), mu)
    return (math.atan2(float(im), float(re)) / math.pi, mu)


GL2 = Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction]]


def gl_act(T: Sequence[Sequence], Z: CentralCharge) -> CentralCharge:
    """Act by g = (T, f) on the charge: values become T^{-1} (re, im)^T.

    T must lie in GL+(2, R): det T > 0.  Composition contravariant on the
    matrix side: gl_act(T2, gl_act(T1, Z)) == gl_act(T1 @ T2, Z).
    """
    (a, b), (c, d) = ((QQ.convert(row[0]), QQ.convert(row[1])) for row in T)
    det = a * d - b * c
    if det <= 0:
        raise InputError("not in GL+")
    # T^{-1} = (1/det) [[d, -b], [-c, a]]
    values = tuple(((d * re - b * im) / det, (-c * re + a * im) / det) for re, im in Z.values)
    return CentralCharge(values, Z.heart)


# ---------------------------------------------------------------------------
# the explicit matrix carrying sigma^b to the geometric point (b, sqrt(b-b^2))


def t_matrix_inv(b: Fraction) -> GL2:
    """T^{-1} = [[b - 1/2, 2b^2 - 2b - 1/2], [t, (2b - 1) t]] with
    t = sqrt(b - b^2); exact only when that square root is rational."""
    b = QQ.convert(b)
    if not (0 < b < 1):
        raise InputError("sigma_b defined for 0<b<1")
    t = sqrt_rational(b - b * b)
    if t is None:
        raise InputError("t = sqrt(b - b^2) is not rational at this b")
    return ((b - Fraction(1, 2), 2 * b * b - 2 * b - Fraction(1, 2)), (t, (2 * b - 1) * t))


def t_matrix(b: Fraction) -> GL2:
    """The matrix T itself (inverse of t_matrix_inv), exact."""
    inv = mat_inverse(QQ, [list(r) for r in t_matrix_inv(b)])
    assert inv is not None
    return ((inv[0][0], inv[0][1]), (inv[1][0], inv[1][1]))


def verify_T_identity(b: Fraction) -> dict:
    """Exact check that T^{-1} carries the Mukai rows (u; v) of Z^b to

        [[1, b, b^2 - b/2], [0, t, b t]]

    and sends the skyscraper value Z^b(O_x) = (1-2b, 1) to (-1, 0).
    Returns a report dict; raises nothing on mismatch (ok flags say it).
    """
    b = QQ.convert(b)
    (t00, t01), (t10, t11) = t_matrix_inv(b)
    t = sqrt_rational(b - b * b)
    u, v = pi_sigma_b(b)
    lhs = [
        [t00 * uu + t01 * vv for uu, vv in zip(u, v)],
        [t10 * uu + t11 * vv for uu, vv in zip(u, v)],
    ]
    rhs = [
        [Fraction(1), b, b * b - b / 2],
        [Fraction(0), t, b * t],
    ]
    matrix_ok = lhs == rhs
    ox = (1 - 2 * b, Fraction(1))
    ox_image = (t00 * ox[0] + t01 * ox[1], t10 * ox[0] + t11 * ox[1])
    ox_ok = ox_image == (Fraction(-1), Fraction(0))
    return {
        "b": b,
        "t": t,
        "lhs": lhs,
        "rhs": rhs,
        "matrix_ok": matrix_ok,
        "ox_image": ox_image,
        "ox_ok": ox_ok,
        "ok": matrix_ok and ox_ok,
    }


# ---------------------------------------------------------------------------
# positivity determinants for geometricity


def geom_conditions_abc(Z) -> Tuple:
    """The three 2x2 determinants controlling geometricity of a charge.

    With (x_i, y_i) = Z([F_i]) and (X, Y) = Z of the skyscraper vector
    (1, 2, 1):

        a = | x_2      X |      b = | x_1+x_2    X |     c = | 2x_1+x_2   X |
            | y_2      Y |          | y_1+y_2    Y |         | 2y_1+y_2   Y |

    Accepts a CentralCharge or a bare 3-sequence of (x, y) pairs; the
    arithmetic is generic, so symbolic entries work too.  For Z^b the triple
    is (2 - b, 1, b).  Always a + c = 2 b (column linearity).
    """
    vals = Z.values if isinstance(Z, CentralCharge) else tuple(Z)
    (x0, y0), (x1, y1), (x2, y2) = vals
    X = x0 + 2 * x1 + x2
    Y = y0 + 2 * y1 + y2
    det_a = x2 * Y - X * y2
    det_b = (x1 + x2) * Y - X * (y1 + y2)
    det_c = (2 * x1 + x2) * Y - X * (2 * y1 + y2)
    return (det_a, det_b, det_c)


def geom_conditions_hold(Z) -> bool:
    """True iff all three determinants are strictly positive."""
    return all(d > 0 for d in geom_conditions_abc(Z))


# ---------------------------------------------------------------------------
# hypothesis bundle of the main construction and the slope dictionary


def theorem1_hypotheses(a: ClassLike, b: Fraction, t2: Fraction) -> dict:
    """Exact check of the hypothesis bundle at a geometric point.

    For a class of positive rank and eps = d - r b the conditions are
    0 < eps <= min(t, 1/r), 0 < t <= 1 and Re Z_(b,t)(a) >= 0; comparisons
    against t are squared so everything stays rational.
    """
    r, d, s = as_triple(a)
    if r <= 0:
        raise InputError("positive rank required")
    b = QQ.convert(b)
    t2 = QQ.convert(t2)
    re, eps = z_geometric(a, b, t2)
    ok_range = eps > 0 and eps * eps <= t2 and eps <= Fraction(1, r)
    ok_t = 0 < t2 <= 1
    ok_re = re >= 0
    return {
        "epsilon": eps,
        "re": re,
        "ok_range": ok_range,
        "ok_t": ok_t,
        "ok_re": ok_re,
        "ok": ok_range and ok_t and ok_re,
    }


def slope_identity_check(a: ClassLike, b: Fraction, t2: Fraction) -> bool:
    """Dictionary between the charge slope and the Gieseker-type slopes:

        -Re Z / Im Z  =  ( nu_gamma(a) - (t^2 - b^2)/2 ) / ( t (mu(a) - b) )

    with gamma = b + 3/2.  Both sides carry a single factor 1/t, so the
    comparison is done exactly after cancelling it.  Rank zero is rejected,
    and d = r b sits on a wall of infinite slope.
    """
    r, d, s = as_triple(a)
    if r == 0:
        raise InputError("rank-zero class")
    b = QQ.convert(b)
    t2 = QQ.convert(t2)
    re, im_coeff = z_geometric(a, b, t2)
    if im_coeff == 0:
        raise InputError("wall of infinite slope")
    mu, nu = slopes(a, gamma=b + Fraction(3, 2))
    lhs_t = -re / im_coeff            # t * (-Re/Im)
    rhs_t = (nu - (t2 - b * b) / 2) / (mu - b)
    return lhs_t == rhs_t
