"""Point configurations in the projective plane and their quiver modules.

A length-n configuration of distinct points yields three modules:

* ``module_point(x)`` — the B-module of a single point, dims (1, 2, 1);
* ``module_ideal_A1(Z)`` — the B-module of the twisted ideal object in the
  tilted heart, dims (n, 2n+1, n), built by tilting an explicit B'-module
  of dims (n, n, n-1);
* ``module_ideal_A0(Z)`` — its analogue in the second heart presentation,
  dims (n, 2n, n-1), built from the point modules by a one-line quotient.

Point representatives are never rescaled; all constructions are
independent of the chosen representatives up to isomorphism (tested, not
assumed).
"""
from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InputError, VerificationError
from .io_utils import parse_fraction
from . import linalg
from .linalg import QQ, int_form, right_kernel
from .ktheory import A0, ChernCharacter, chern_of_dimvec
from .quiver import (
    QuiverRep,
    closure,
    direct_sum,
    hom_space,
    jh_factors,
    quotient_by,
    require_relations,
    simple,
    tilt_Bprime_to_B,
    triple_dims,
)

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

    def to_json(self) -> dict:
        return {"points": [[str(c) for c in p] for p in self.points]}

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
    it iff rank G = 2, [x] = [x'] and D != 0.
    """
    x = _cross(*([g[k][0] for g in rep.gamma] for k in range(2)))
    return x if any(x) and any(c for d in rep.delta for c in d[0]) else None


def _normalized_point(p) -> str:
    """A point's primitive integer representative, first nonzero coordinate
    positive, as "[a:b:c]".  One with more digits than the interpreter turns
    into a string (`sys.get_int_max_str_digits`) is invalid input."""
    v = int_form(QQ, [p])[0][0]
    lead = next((x for x in v if x != 0), 0)
    if lead < 0:
        v = [-x for x in v]
    try:
        return "[" + ":".join(str(x) for x in v) + "]"
    except ValueError as exc:  # the interpreter's digit limit
        limit = sys.get_int_max_str_digits()
        raise InputError(f"a point's primitive integer coordinates have more than {limit} digits") from exc


# ---------------------------------------------------------------------------
# n points, second heart presentation (B'-side input)


def bprime_module_points(points) -> QuiverRep:
    """The B'-module of a configuration, dims (n, n, n-1): coordinatewise
    multiplication diag(x_i) at the first step and multiplication followed
    by the quotient killing the all-ones section at the second."""
    cfg = _as_config(points)
    n = len(cfg)
    if n == 0:
        raise InputError("empty configuration")
    pts = list(cfg)
    gamma = [
        [[pts[a][i] if a == b else Fraction(0) for b in range(n)] for a in range(n)]
        for i in range(3)
    ]
    # P : Q^n -> Q^{n-1}, c |-> (c_a - c_{n-1})_{a < n-1}
    delta = []
    for j in range(3):
        M = []
        for a in range(n - 1):
            row = [Fraction(0)] * n
            row[a] = pts[a][j]
            row[n - 1] = -pts[n - 1][j]
            M.append(row)
        delta.append(M)
    return require_relations(QuiverRep("Bprime", QQ, (n, n, n - 1), gamma, delta))


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
    quotiented by the all-ones line at the last vertex (the section that
    evaluates to 1 at every point)."""
    cfg = _as_config(points)
    n = len(cfg)
    if n == 0:
        raise InputError("empty configuration")
    total = functools.reduce(direct_sum, (module_point(x) for x in cfg))
    if total.dims != (n, 2 * n, n):
        raise VerificationError("point modules summed to unexpected dims")  # pragma: no cover
    ones = [Fraction(1)] * n
    triple = closure(total, seeds2=[ones])
    if triple_dims(triple) != (0, 0, 1):
        raise VerificationError("all-ones line closed up unexpectedly")  # pragma: no cover
    quo = quotient_by(total, triple)
    # class bookkeeping: (0,0,1) + quotient dims must recover the sum dims
    if tuple(a + b for a, b in zip((0, 0, 1), quo.dims)) != total.dims:
        raise VerificationError("quotient dims do not account for the killed line")
    return quo


# ---------------------------------------------------------------------------
# collinearity


def collinear_test(points, _a0: Optional[QuiverRep] = None) -> bool:
    """Whether the configuration lies on a line.

    Decided by the rank of the coordinate matrix; for n >= 3 the module
    criterion dim Hom(C v_1, module_ideal_A0) != 0 is computed as well and
    the two answers are required to agree.  A caller that has built
    module_ideal_A0 of the points already passes it as ``_a0``.
    """
    cfg = _as_config(points)
    n = len(cfg)
    if n <= 2:
        return True
    by_rank = linalg.rank(QQ, cfg.matrix()) <= 2
    homs = hom_space(simple("B", 1), module_ideal_A0(cfg) if _a0 is None else _a0)
    by_hom = len(homs) > 0
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


WALLS = ("theta1_1", "theta0_0")


def wall_filtration_data(
    points, wall: str, seed: int = 0, _module: Optional[QuiverRep] = None
) -> dict:
    """What happens to the ideal-type module on a boundary wall.

    * ``theta1_1`` (Hilbert-Chow side): JH factors of module_ideal_A1 at
      the boundary weight, with each (1, 2, 1) factor matched to its
      support point by the point read off its arrows (`_point_of`).
    * ``theta0_0`` (line-contraction side; collinear configurations only):
      the C v_1 submodule of module_ideal_A0 and the quotient, whose class
      is checked to be that of a shifted line bundle on the common line.

    A caller that has built the wall's module of the points already
    (module_ideal_A1 or module_ideal_A0) passes it as ``_module``.
    """
    cfg = _as_config(points)
    n = len(cfg)
    if wall == "theta1_1":
        rep = module_ideal_A1(cfg) if _module is None else _module
        theta = theta_b1(n, 1)
        factors = jh_factors(rep, theta, seed=seed)
        where = {_normalized_point(x): k for k, x in enumerate(cfg)}
        support: List[Optional[int]] = []
        for f in factors:
            if f.dims not in ((0, 1, 0), (1, 2, 1)):
                raise VerificationError(f"unexpected JH factor dims {f.dims}")
            if f.dims == (1, 2, 1):
                x = _point_of(f)
                support.append(None if x is None else where.get(_normalized_point(x)))
        return {
            "wall": "theta1_1",
            "label": "Hilbert-Chow",
            "theta": theta,
            "factor_dims": sorted(f.dims for f in factors),
            "support": support,
            "v1_simple_count": sum(f.dims == (0, 1, 0) for f in factors),
        }
    if wall == "theta0_0":
        rep = module_ideal_A0(cfg) if _module is None else _module
        if not collinear_test(cfg, rep):
            raise InputError("requires collinear configuration")
        theta = theta_b0(n, 0)
        homs = hom_space(simple("B", 1), rep)
        if not homs:
            raise VerificationError("collinear configuration with no C v_1 map")
        u = [row[0] for row in homs[0][1]]  # image of the middle-vertex generator
        triple = closure(rep, seeds1=[u])
        if triple_dims(triple) != (0, 1, 0):
            raise VerificationError("C v_1 image not a vertex-simple submodule")
        quo = quotient_by(rep, triple)
        quo_ch = chern_of_dimvec(quo.dims, A0)
        expected = ChernCharacter(0, -1, Fraction(2 * n - 1, 2))
        if quo_ch != expected:
            raise VerificationError(
                f"quotient class {quo_ch} is not the shifted line-bundle class {expected}"
            )
        return {
            "wall": "theta0_0",
            "label": "zeta-contraction",
            "theta": theta,
            "sub_dims": (0, 1, 0),
            "quotient_dims": quo.dims,
            "quotient_class": quo_ch.triple(),
        }
    raise InputError(f"unknown wall {wall!r}; expected one of {WALLS}")


# ---------------------------------------------------------------------------
# composite identity for the tilted point modules


def composite_lines(points) -> Tuple[bool, Optional[Tuple[int, int]]]:
    """Check delta_j gamma_i = diag_x(l_ij(x)) on module_ideal_A1, where
    l_ij is x_{j+2}, -x_{j+1} or 0 according to i - j mod 3.

    Returns (ok, first failing (i, j)).
    """
    cfg = _as_config(points)
    n = len(cfg)
    rep = module_ideal_A1(cfg)
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
            if linalg.mat_mul(QQ, rep.delta_m(j), rep.gamma_m(i)) != want:
                return (False, (i, j))
    return (True, None)
