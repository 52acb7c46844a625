"""Point configurations in the projective plane and their quiver modules.

A length-n configuration of distinct points yields three modules:

* ``module_point(x)`` — the B-module of a single point, dims (1, 2, 1);
* ``module_ideal_A1(Z)`` — the B-module of the twisted ideal object in the
  tilted heart, dims (n, 2n+1, n), built by tilting an explicit B'-module
  of dims (n, n, n-1);
* ``module_ideal_A0(Z)`` — its analogue in the second heart presentation,
  dims (n, 2n, n-1): the direct sum of the point modules, its last vertex
  taken through the projection P that kills the unit section.

The unit section 1 = (1, ..., 1) takes the value 1 at every point; both
ideal-type modules are quotients by it, through the one P of `_kill_unit`.

The builders never rescale point representatives; all constructions are
independent of the chosen representatives up to isomorphism (tested, not
assumed).  `_frame` moves a configuration into the projective frame in
which a report searches it.
"""
from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InputError, VerificationError
from .io_utils import parse_fraction
from . import linalg
from .linalg import QQ, int_form, right_kernel
from .modules import (
    QuiverRep,
    _from_ints,
    direct_sum,
    hom_space,
    require_relations,
    simple,
    tilt_Bprime_to_B,
)
from .quiver import _affordable_primes, jh_factors

Theta = Tuple[Fraction, Fraction, Fraction]

Point = Tuple[Fraction, Fraction, Fraction]


def _cross(a: Point, b: Point) -> Point:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


@dataclass(frozen=True)
class PointConfig:
    """Finitely many pairwise-distinct points of P^2, with the coordinate
    representatives exactly as given."""

    points: Tuple[Point, ...]

    def __post_init__(self):
        pts = []
        for p in self.points:
            if len(p) != 3:
                raise InputError("points need three homogeneous coordinates")
            q = tuple(QQ.convert(c) for c in p)
            if all(c == 0 for c in q):
                raise InputError("the zero vector is not a projective point")
            pts.append(q)
        # two points coincide iff their normalized representatives agree:
        # pair each point with the first one it repeats, and name the least
        # such pair (i, j)
        first: Dict[str, int] = {}
        pairs = [(first.setdefault(_normalized_point(q), j), j) for j, q in enumerate(pts)]
        repeats = [(i, j) for i, j in pairs if i != j]
        if repeats:
            i, j = min(repeats)
            raise InputError(f"points {i} and {j} coincide (non-reduced subscheme unsupported)")
        object.__setattr__(self, "points", tuple(pts))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def matrix(self) -> List[List[Fraction]]:
        return [list(p) for p in self.points]

    @classmethod
    def from_json(cls, obj: dict) -> "PointConfig":
        try:
            raw = obj["points"]
        except (KeyError, TypeError) as exc:
            raise InputError("points JSON must have a 'points' array") from exc
        try:
            return cls(tuple(tuple(parse_fraction(str(c)) for c in p) for p in raw))
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad point coordinates: {exc}") from exc


def _as_config(points) -> PointConfig:
    if isinstance(points, PointConfig):
        return points
    return PointConfig(tuple(map(tuple, points)))


# ---------------------------------------------------------------------------
# one point


def module_point(x: Sequence) -> QuiverRep:
    """The B-module of a single point, dims (1, 2, 1).

    Vertex 1 carries the kernel of evaluation-at-x on linear forms, in its
    canonical (rref right-kernel) basis; the deltas express the Koszul
    contraction in that basis.  Independent of the representative of x up
    to isomorphism.
    """
    x = tuple(QQ.convert(c) for c in x)
    if len(x) != 3 or all(c == 0 for c in x):
        raise InputError("need a nonzero coordinate triple")
    W = right_kernel(QQ, [list(x)], ncols=3)  # two rows w1, w2
    gamma = [[[W[0][i]], [W[1][i]]] for i in range(3)]
    # w1, w2 are (1, 0), (0, 1) at the free columns f of [x]: v = v[f1] w1 + v[f2] w2
    free = [i for i in range(3) if i != next(k for k, c in enumerate(x) if c)]
    delta = []
    for j in range(3):
        v = [Fraction(0)] * 3
        v[(j + 1) % 3] = x[(j + 2) % 3]
        v[(j + 2) % 3] = -x[(j + 1) % 3]
        delta.append([[v[i] for i in free]])  # v . x = 0: v lies in the plane
    return require_relations(QuiverRep("B", QQ, (1, 2, 1), gamma, delta))


def _point_of(rep: QuiverRep) -> Optional[Point]:
    """The point x with rep isomorphic to module_point(x), for a (1, 2, 1)
    B-module over Q; None if rep is no point module.

    Write g_i in F^2 for the gamma columns, G = [g0 g1 g2], D for the 3 x 2
    matrix of delta rows.  The B relations make A = D G alternating.  If
    rank G = 2, ker G is the line [x], x the cross product of G's rows; A
    kills x, so A = lambda (y -> x cross y), and as G is onto, lambda fixes
    D, with lambda != 0 iff D != 0.  An isomorphism (f0, f1, f2) acts as
    G -> f1 G f0^-1, which keeps ker G, and scales lambda by f2/f0.
    Conversely, two such modules with one ker G have G' = h G for an h in
    GL_2, and (1, h, lambda'/lambda) is an isomorphism if lambda != 0.
    module_point(x') has ker G = [x'] and D != 0, so rep is isomorphic to
    it iff rank G = 2, [x] = [x'] and D != 0.  Read off the integer form
    (`QuiverRep.sides`): a side's positive scale moves neither [x] nor
    whether D is zero.
    """
    (G, _), (D, _) = rep.sides
    x = _cross(*([g[k][0] for g in G] for k in range(2)))
    return x if any(x) and any(c for d in D for c in d[0]) else None


def _primitive_point(p) -> Tuple[int, ...]:
    """A point's primitive integer representative, first nonzero coordinate
    positive."""
    v = int_form(QQ, [p])[0][0]
    return tuple(-x for x in v) if next(x for x in v if x) < 0 else tuple(v)


def _normalized_point(p) -> str:
    """`_primitive_point` as "[a:b:c]".  One with more digits than the
    interpreter turns into a string (`sys.get_int_max_str_digits`) is
    invalid input."""
    v = _primitive_point(p)
    try:
        return "[" + ":".join(str(x) for x in v) + "]"
    except ValueError as exc:  # the interpreter's digit limit
        limit = sys.get_int_max_str_digits()
        raise InputError(f"a point's primitive integer coordinates have more than {limit} digits") from exc


# ---------------------------------------------------------------------------
# the projective frame a report searches in


def _independent(vectors) -> bool:
    """Whether at most three vectors of Z^3 are linearly independent."""
    if len(vectors) == 3:
        return sum(map(operator.mul, vectors[0], _cross(*vectors[1:]))) != 0
    return any(_cross(*vectors) if len(vectors) == 2 else vectors[0])


def _frame(points) -> PointConfig:
    """The configuration moved by a g in GL3(Q) into a projective frame,
    each point its primitive integer representative with first nonzero
    coordinate positive, in input order.

    The first independent triple in input order goes to e0, e1, e2; with no
    such triple the first pair (the points are collinear) goes to e0, e1,
    and a single point to e0.  The map is the integer adjugate of the matrix
    whose columns are those points, completed by unit vectors.  Then the
    axes they span are scaled so that a unit point, one of the other points
    with every coordinate on those axes nonzero, goes to (1, 1, 1), or
    (1, 1, 0) on a line.  Up to four points the unit point is the first
    such point.  From five on it is the one whose frame keeps the points
    pairwise distinct mod the most primes a rational search of the
    (n, 2n+1, n) class may enumerate (`quiver._affordable_primes`: p = 2
    and 3 at n = 5), then whose frame
    has the least largest coordinate, then the first.  So a general triple
    becomes [e0, e1, e2] and a general quadruple [e0, e1, e2, (1, 1, 1)].

    The frame changes no submodule class.  Write x'_a = lambda_a g x_a and
    Lambda = diag(lambda_a).  The B'-module of the framed points
    (`bprime_module_points`) has gamma'_i = Lambda sum_j g_ij gamma_j and
    delta' = P gamma'.  Recombining a side's arrows by g keeps the span of
    their images and the meet of their preimages, so a triple of subspaces
    is a submodule of the module with arrows gamma iff it is one of the
    module with arrows sum_j g_ij gamma_j; and (Lambda^-2, Lambda^-1, 1) is
    an isomorphism from the module with Lambda = 1 to the one with Lambda,
    as diagonal matrices commute.  The tilt (`modules.tilt_Bprime_to_B`) is
    GL(V)-equivariant, and so is the point module (`module_point`), whose
    rescalings are absorbed the same way in the A0 module.  So the ideal
    modules of the framed points have the submodule classes of those of the
    points as given: classes, verdicts and witness classes need no mapping
    back, and the JH factors' support indices none either, as the order is
    kept.  The framed points are never written out, so their coordinates
    are held to no digit limit.
    """
    pts = [_primitive_point(x) for x in _as_config(points)]
    n = len(pts)
    basis: List[Tuple[int, ...]] = []
    for x in pts:
        if len(basis) < 3 and _independent(basis + [x]):
            basis.append(x)
    r = len(basis)
    cols = list(basis)
    for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        if len(cols) < 3 and _independent(cols + [e]):
            cols.append(e)
    # the adjugate's rows, cross products of the columns: adj A = det(A) A^-1
    adj = [_cross(cols[1], cols[2]), _cross(cols[2], cols[0]), _cross(cols[0], cols[1])]
    moved = [tuple(sum(map(operator.mul, row, x)) for row in adj) for x in pts]
    units = [y for x, y in zip(pts, moved) if x not in basis and all(y[:r])] or [(1, 1, 1)]

    def framed(u) -> List[Tuple[int, ...]]:
        # axis c < r scaled by the other axes' coordinates of u, so u goes
        # to their product on each
        scale = [math.prod(u[k] for k in range(r) if k != c) for c in range(r)] + [1] * (3 - r)
        return [_primitive_point(tuple(map(operator.mul, scale, y))) for y in moved]

    frames = [framed(u) for u in (units if n >= 5 else units[:1])]
    a1 = (n, 2 * n + 1, n)  # the ideal-A1 class
    primes = _affordable_primes(a1, QQ)

    def score(k):
        z = frames[k]
        distinct = sum(all(any(c % p for c in _cross(a, b)) for a, b in itertools.combinations(z, 2))
                       for p in primes)
        return (-distinct, max(abs(c) for v in z for c in v), k)

    best = frames[min(range(len(frames)), key=score)]
    # distinct and nonzero, as g is invertible: built without the checks
    out = object.__new__(PointConfig)
    object.__setattr__(out, "points", tuple(tuple(map(Fraction, z)) for z in best))
    return out


# ---------------------------------------------------------------------------
# n points, second heart presentation (B'-side input)


def _kill_unit(M) -> list:
    """P M, for the projection P : Q^n -> Q^{n-1}, c |-> (c_a - c_{n-1})_{a < n-1},
    whose kernel is the unit section: the rows of M but the last, each minus
    the last."""
    *rows, last = M
    return [[x - y for x, y in zip(row, last)] for row in rows]


def bprime_module_points(points) -> QuiverRep:
    """The B'-module of a configuration, dims (n, n, n-1): coordinatewise
    multiplication gamma_i = diag(x_i) at the first step, and multiplication
    followed by the quotient killing the unit section at the second,
    delta_j = P gamma_j (`_kill_unit`)."""
    cfg = _as_config(points)
    n = len(cfg)
    if n == 0:
        raise InputError("empty configuration")
    gamma = [[[x[i] if a == b else Fraction(0) for b in range(n)] for a, x in enumerate(cfg)]
             for i in range(3)]
    return require_relations(
        QuiverRep("Bprime", QQ, (n, n, n - 1), gamma, [_kill_unit(g) for g in gamma]))


def module_ideal_A1(points) -> QuiverRep:
    """The B-module of the ideal-type object in the first tilted heart,
    dims (n, 2n+1, n), obtained by tilting the B'-module of the points."""
    cfg = _as_config(points)
    n = len(cfg)
    rep, flag = tilt_Bprime_to_B(bprime_module_points(cfg))
    if flag is not None:
        raise VerificationError(f"point-module tilt left the generic locus: {flag}")
    if rep.dims != (n, 2 * n + 1, n):
        raise VerificationError(f"unexpected tilt dims {rep.dims}")  # pragma: no cover
    return rep


def module_ideal_A0(points) -> QuiverRep:
    """The B-module of the ideal-type object in the second heart
    presentation, dims (n, 2n, n-1): the direct sum of the point modules,
    its last vertex taken through the projection P that kills the unit
    section, as in `bprime_module_points` (every delta composed with P).
    One `direct_sum` of the n point modules, whose integer deltas P takes
    as they are: no field row is formed past the point modules'."""
    cfg = _as_config(points)
    n = len(cfg)
    if n == 0:
        raise InputError("empty configuration")
    (gammas, tg), (deltas, td) = direct_sum(*(module_point(x) for x in cfg)).sides
    return require_relations(
        _from_ints("B", QQ, (n, 2 * n, n - 1), (gammas, tg), ([_kill_unit(D) for D in deltas], td)))


# ---------------------------------------------------------------------------
# collinearity


def collinear_test(points, a0: Optional[QuiverRep]) -> bool:
    """Whether the configuration lies on a line.

    Decided by the rank of the coordinate matrix; for n >= 3 the module
    criterion dim Hom(C v_1, a0) != 0 is computed as well, on a0 =
    module_ideal_A0 of the points as the caller built it, and the two
    answers are required to agree.  At n <= 2 a0 is not read and may be
    None.
    """
    cfg = _as_config(points)
    n = len(cfg)
    if n <= 2:
        return True
    by_rank = linalg.rank(QQ, cfg.matrix()) <= 2
    by_hom = len(hom_space(simple("B", 1), a0)) > 0
    if by_rank != by_hom:
        raise VerificationError(
            "rank test and Hom test disagree on collinearity"
        )  # pragma: no cover
    return by_rank


# ---------------------------------------------------------------------------
# the weight families, whose endpoints are the boundary walls


def _theta_family(n, r, b) -> tuple:
    """The weight family on the class (n+1-r, 2n+1, n), linear in the
    parameter: (1-b)*(0, -n, 2n+1) + b*(-n, 0, n+1-r), in whatever ring n,
    r and b live in."""
    return (
        b * (-n),
        (1 - b) * (-n),
        (1 - b) * (2 * n + 1) + b * (n + 1 - r),
    )


def theta_family_r(n: int, r: int, b) -> Theta:
    """`_theta_family` at a rational parameter b."""
    return _theta_family(n, r, QQ.convert(b))


def theta_b1(n: int, b) -> Theta:
    """Weight family on the (n, 2n+1, n) class, the rank-1 case of
    theta_family_r: (1-b)*(0, -n, 2n+1) + b*(-n, 0, n).  b may leave
    (0, 1); b = 1 is the Hilbert-Chow wall."""
    return theta_family_r(n, 1, b)


def theta_b0(n: int, b) -> Theta:
    """Weight family on the (n, 2n, n-1) class:
    (1-b)*(1-n, 0, n) + b*(-2n, n, 0); b = 0 is the line-contraction wall."""
    b = QQ.convert(b)
    return (
        (1 - b) * (1 - n) - 2 * n * b,
        n * b,
        (1 - b) * n,
    )


# ---------------------------------------------------------------------------
# wall filtration data


def wall_filtration_data(points, rep: QuiverRep) -> dict:
    """The Hilbert-Chow wall of the configuration: the JH factors of rep =
    module_ideal_A1 of the points, as the caller built it, at the boundary
    weight theta_b1(n, 1), with each (1, 2, 1) factor matched to its
    support point (its index in ``points``, or None) by the point read off
    its arrows (`_point_of`)."""
    cfg = _as_config(points)
    factors = jh_factors(rep, theta_b1(len(cfg), 1))
    where = {_primitive_point(x): k for k, x in enumerate(cfg)}
    support: List[Optional[int]] = []
    for f in factors:
        if f.dims not in ((0, 1, 0), (1, 2, 1)):
            raise VerificationError(f"unexpected JH factor dims {f.dims}")
        if f.dims == (1, 2, 1):
            x = _point_of(f)
            support.append(None if x is None else where.get(_primitive_point(x)))
    return {
        "factor_dims": sorted(f.dims for f in factors),
        "support": support,
        "v1_simple_count": sum(f.dims == (0, 1, 0) for f in factors),
    }


# ---------------------------------------------------------------------------
# composite identity for the tilted point modules


def composite_lines(points) -> Tuple[bool, Optional[Tuple[int, int]]]:
    """Check delta_j gamma_i = diag_x(l_ij(x)) on module_ideal_A1, where
    l_ij is x_{j+2}, -x_{j+1} or 0 according to i - j mod 3.

    Returns (ok, first failing (i, j)).  Each composite is read off the
    integer form: the product of the two sides' integer matrices times
    their scales t_delta t_gamma.
    """
    cfg = _as_config(points)
    n = len(cfg)
    (gammas, tg), (deltas, td) = module_ideal_A1(cfg).sides
    pts = list(cfg)
    for i in range(3):
        for j in range(3):
            if i == (j + 1) % 3:
                diag = [x[(j + 2) % 3] for x in pts]
            elif i == (j + 2) % 3:
                diag = [-x[(j + 1) % 3] for x in pts]
            else:
                diag = [0] * n
            want = [[d if a == b else 0 for b in range(n)] for a, d in enumerate(diag)]
            product = linalg.int_mat_mul(deltas[j], gammas[i], n)
            if [[td * tg * x for x in row] for row in product] != want:
                return (False, (i, j))
    return (True, None)
