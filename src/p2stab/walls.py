"""Wall-and-chamber structure in the weight plane of a module class.

For a fixed dimension vector d the King weights with theta(d) = 0 form a
plane.  Proper nonzero subvectors d' <= d cut this plane into chambers
along the lines theta(d') = 0; we enumerate these *numerical* walls (no
attempt is made to decide which are realized by actual submodules — that
is what the module-level tests are for), locate the distinguished
one-parameter family of weights, and assemble the three-chamber picture
around the ideal-type modules: a large central chamber and one chamber
across each of the two boundary walls.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .charge import CentralCharge
from .errors import InputError, VerificationError
from .linalg import QQ, row_hnf_2xn, saturated_kernel_basis_3, solve_right
from .io_utils import json_meta, parse_json_int
from .modules import reverse_theta, theta_pair
from .quiver import king_test
from .geometry import (
    Theta,
    _as_config,
    _frame,
    _normalized_point,
    collinear_test,
    module_ideal_A0,
    module_ideal_A1,
    theta_b0,
    theta_b1,
    wall_filtration_data,
)

HEARTS = ("A1", "A0")


def module_dims(n: int, heart: str) -> Tuple[int, int, int]:
    """Dimension vector of the ideal-type module of n points in a heart."""
    if n < 1:
        raise InputError("need at least one point")
    if heart == "A1":
        return (n, 2 * n + 1, n)
    if heart == "A0":
        return (n, 2 * n, n - 1)
    raise InputError(f"unknown heart {heart!r}; expected one of {HEARTS}")


# ---------------------------------------------------------------------------
# weights from central charges, and the displayed families


def king_theta(values: Sequence[Tuple], dims: Sequence[int]) -> Theta:
    """The King weight induced by a central charge on a module class:

        theta_i = Re Z(F_i) * Im Z(m) - Re Z(m) * Im Z(F_i),

    where values lists Z on the three vertex simples (a `CentralCharge`, or
    the three pairs it is built from) and m is the class.  Vanishes on m by
    construction; requires Z(m) != 0.
    """
    z = values if isinstance(values, CentralCharge) else CentralCharge(values)
    if len(dims) != 3:
        raise InputError("need a three-entry class")
    re_m, im_m = z.eval(dims)
    if re_m == 0 and im_m == 0:
        raise InputError("zero charge on the module class")
    return tuple(x * im_m - re_m * y for x, y in z.values)  # type: ignore[return-value]


def family_theta(n: int, heart: str, b) -> Theta:
    if heart == "A1":
        return theta_b1(n, b)
    if heart == "A0":
        return theta_b0(n, b)
    raise InputError(f"unknown heart {heart!r}; expected one of {HEARTS}")


def family_consistency(n: int, b) -> dict:
    """The two families evaluate identically on shared object classes.

    Checked on the structure sheaf, its twist, and a point class, whose
    dimension vectors in the two hearts are (1,0,0)/(0,-1,0), (0,-1,0)/
    (0,0,1) and (1,2,1)/(1,2,1); the common values are -nb, n(1-b), 1-b.
    """
    b = QQ.convert(b)
    t1 = theta_b1(n, b)
    t0 = theta_b0(n, b)

    pairs = {
        "structure_sheaf": ((1, 0, 0), (0, -1, 0), -n * b),
        "twist": ((0, -1, 0), (0, 0, 1), n * (1 - b)),
        "point": ((1, 2, 1), (1, 2, 1), 1 - b),
    }
    out = {}
    ok = True
    for name, (v1, v0, want) in pairs.items():
        a = theta_pair(t1, v1)
        c = theta_pair(t0, v0)
        out[name] = {"A1": a, "A0": c, "expected": want, "ok": a == c == want}
        ok = ok and a == c == want
    out["ok"] = ok
    return out


# ---------------------------------------------------------------------------
# the perpendicular plane and numerical walls


@dataclass(frozen=True)
class PerpPlane:
    """The plane {theta : theta(d) = 0} with a canonical integer basis."""

    d: Tuple[int, int, int]
    basis: Tuple[Tuple[int, int, int], Tuple[int, int, int]]

    def coords_of(self, theta: Sequence) -> Tuple[Fraction, Fraction]:
        theta = tuple(map(QQ.convert, theta))
        if sum(x * y for x, y in zip(theta, self.d)) != 0:
            raise InputError("not in the perpendicular plane")
        cols = [[Fraction(self.basis[0][i]), Fraction(self.basis[1][i])] for i in range(3)]
        sol = solve_right(QQ, cols, list(theta))
        if sol is None:  # pragma: no cover - theta(d)=0 guarantees solvability
            raise VerificationError("saturated basis failed to span the plane")
        return (sol[0], sol[1])


def perp_plane(d: Sequence[int]) -> PerpPlane:
    d = tuple(map(parse_json_int, d))
    raw = saturated_kernel_basis_3(list(d))
    b1, b2 = row_hnf_2xn(raw)
    return PerpPlane(d, (tuple(b1), tuple(b2)))


@dataclass(frozen=True)
class WallLine:
    """A numerical wall: the line theta(d') = 0 inside the plane.

    normal_in_plane is the primitive, sign-normalized coefficient pair of
    the line in the plane basis; witness is the lexicographically smallest
    subvector cutting the line, witnesses all of them.
    """

    normal_in_plane: Tuple[int, int]
    witness: Tuple[int, int, int]
    witnesses: Tuple[Tuple[int, int, int], ...]


def _angle_key(pq: Tuple[int, int]):
    p, q = pq
    if p > 0:
        return (0, Fraction(q, p))
    return (1, Fraction(0))


def numerical_walls(d: Sequence[int]) -> List[WallLine]:
    """All lines theta(d') = 0 in the plane theta(d) = 0, for proper
    nonzero componentwise subvectors d' not proportional to d.

    Purely lattice-theoretic ("numerical"): no claim that a submodule with
    class d' exists for any given module.
    """
    d = tuple(map(parse_json_int, d))
    if any(x < 0 for x in d) or all(x == 0 for x in d):
        raise InputError("class must be a nonzero nonnegative vector")
    plane = perp_plane(d)
    b1, b2 = plane.basis
    buckets: Dict[Tuple[int, int], List[Tuple[int, int, int]]] = {}
    for a0 in range(d[0] + 1):
        for a1 in range(d[1] + 1):
            for a2 in range(d[2] + 1):
                # b1 and b2 span d's orthogonal plane, so u = v = 0 exactly
                # when dp is parallel to d (the zero vector and d among them)
                u = b1[0] * a0 + b1[1] * a1 + b1[2] * a2
                v = b2[0] * a0 + b2[1] * a1 + b2[2] * a2
                if u == 0 and v == 0:
                    continue
                dp = (a0, a1, a2)
                # the primitive pair (p, q) on the ray with p > 0, or p = 0 < q
                g = math.gcd(u, v) * (-1 if u < 0 or (u == 0 and v < 0) else 1)
                buckets.setdefault((u // g, v // g), []).append(dp)
    walls = [
        WallLine(pq, min(ws), tuple(sorted(ws)))
        for pq, ws in buckets.items()
    ]
    walls.sort(key=lambda w: _angle_key(w.normal_in_plane))
    return walls


# ---------------------------------------------------------------------------
# chambers


@dataclass(frozen=True)
class ChamberResult:
    chamber: str
    sigma: Fraction
    tau: Fraction
    blocking: Optional[WallLine] = None


def chamber_membership(theta: Sequence, n: int, heart: str = "A1") -> ChamberResult:
    """Locate a weight relative to the three-chamber picture of a heart.

    The weight is written as sigma * theta(0) + tau * theta(1) in the
    family's endpoint rays.  Both positive: the central chamber.  Beyond
    an endpoint: the outer chamber across that wall, provided no other
    enumerated wall line separates the weight from the endpoint ray.
    """
    d = module_dims(n, heart)
    plane = perp_plane(d)
    st = plane.coords_of(theta)
    if st == (0, 0):
        raise InputError("the zero weight bounds no chamber")
    c0 = plane.coords_of(family_theta(n, heart, 0))
    c1 = plane.coords_of(family_theta(n, heart, 1))
    det = c0[0] * c1[1] - c0[1] * c1[0]
    if det == 0:
        raise VerificationError("family endpoints are not independent")  # pragma: no cover
    sigma = (st[0] * c1[1] - st[1] * c1[0]) / det
    tau = (c0[0] * st[1] - c0[1] * st[0]) / det
    boundary_name = "theta1" if heart == "A1" else "theta0"

    if sigma > 0 and tau > 0:
        return ChamberResult("C_P2", sigma, tau)
    if sigma == 0:
        name = f"{boundary_name}_1" if tau > 0 else "outside"
        return ChamberResult(name, sigma, tau)
    if tau == 0:
        name = f"{boundary_name}_0" if sigma > 0 else "outside"
        return ChamberResult(name, sigma, tau)

    def first_blocking(c_ray):
        # a wall line lies strictly between the ray and the weight iff they
        # sit strictly on opposite sides of it
        for w in numerical_walls(d):
            p, q = w.normal_in_plane
            if (p * c_ray[0] + q * c_ray[1]) * (p * st[0] + q * st[1]) < 0:
                return w
        return None

    if sigma < 0 and tau > 0:  # beyond the b = 1 end
        blk = first_blocking(c1)
        if blk is None:
            return ChamberResult("C_plus", sigma, tau)
        return ChamberResult("outside", sigma, tau, blocking=blk)
    if sigma > 0 and tau < 0:  # beyond the b = 0 end
        blk = first_blocking(c0)
        if blk is None:
            return ChamberResult("C_minus", sigma, tau)
        return ChamberResult("outside", sigma, tau, blocking=blk)
    return ChamberResult("outside", sigma, tau)


CHAMBER_STRUCTURE = (
    {"name": "C_plus", "boundary": "theta1_1", "label": "Hilbert-Chow"},
    {"name": "C_P2", "boundary": None, "label": None},
    {"name": "C_minus", "boundary": "theta0_0", "label": "zeta-contraction"},
)

ADJACENCY = ("C_plus", "theta1_1 (Hilbert-Chow)", "C_P2", "theta0_0 (zeta-contraction)", "C_minus")


def _walls_entries(d: Sequence[int]) -> List[dict]:
    return [
        {
            "normal_in_plane": list(w.normal_in_plane),
            "witness": list(w.witness),
            "witnesses": [list(x) for x in w.witnesses],
            "status": "numerical",
        }
        for w in numerical_walls(d)
    ]


def walls_json(n: int, heart: str = "A1") -> dict:
    d = module_dims(n, heart)
    return {
        "meta": json_meta(),
        "heart": heart,
        "n": n,
        "class": list(d),
        "plane_basis": [list(b) for b in perp_plane(d).basis],
        "walls": _walls_entries(d),
        "chambers": [dict(c) for c in CHAMBER_STRUCTURE],
        "adjacency": list(ADJACENCY),
    }


# ---------------------------------------------------------------------------
# the Hilbert-scheme report


def hilbert_report(
    n: int,
    configs: Sequence,
    seed: int = 0,
    eps: Optional[Fraction] = None,
) -> dict:
    """Stability of the ideal-type modules of point configurations across
    the three chambers, with filtration data on both boundary walls.

    For each configuration: King verdicts at interior family parameters
    and on the Hilbert-Chow boundary; JH factors there, matched to support
    points; the line-side wall test (collinear configurations destabilize,
    others do not; skipped with a flag for n = 1); and the dual module
    tested across the Hilbert-Chow wall.  Wall tests are rerun at eps/10
    and must not change verdict.

    The modules are built from the points moved into a projective frame
    (`geometry._frame`), which has the same submodule classes and reduces
    well mod small primes; ``points`` and ``support`` are the points as
    given, and the frame keeps their order, so the JH factors' support
    indices refer to them.  ``evidence`` names the prime at which the framed
    module squeezed.

    The dual M* is tested on M's own search.  The submodules of M* are the
    annihilators of the quotients of M, so e is a submodule class of M*
    exactly when dim M - rev(e) is one of M (rev reverses a triple), with
    the same theta(e) = reverse_theta(theta)(dim M - rev(e)); M* is thus
    theta-(semi)stable exactly when M is reverse_theta(theta)-(semi)stable,
    and M's proved sets prove it.  A dual witness_dimvec names a class of M.
    """
    if n < 1:
        raise InputError("need at least one point")
    if eps is None:
        eps = Fraction(1, 100 * (n + 1))
    eps = QQ.convert(eps)
    if not 0 < eps < Fraction(1, 2):
        raise InputError("eps must be a small positive rational")

    d1 = module_dims(n, "A1")
    d0 = module_dims(n, "A0")

    def verdict_dict(v):
        return {
            "verdict": v.verdict,
            "certainty": v.certainty,
            "witness_dimvec": list(v.witness_dimvec) if v.witness_dimvec else None,
            "evidence": v.search.evidence if v.search is not None else None,
        }

    def one(raw) -> dict:
        cfg = _as_config(raw)
        if len(cfg) != n:
            raise InputError(f"configuration has {len(cfg)} points, expected {n}")
        framed = _frame(cfg)
        m1 = module_ideal_A1(framed)
        m0 = module_ideal_A0(framed) if n > 1 else None
        col = collinear_test(framed, m0)

        interior = []
        for b in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            v = king_test(m1, theta_b1(n, b), seed=seed)
            interior.append({"b": b, **verdict_dict(v)})
        hc = king_test(m1, theta_b1(n, 1), seed=seed)
        filt = wall_filtration_data(framed, "theta1_1", seed=seed, _module=m1)

        entry: dict = {
            "points": [[str(c) for c in p] for p in cfg],
            "support": sorted(_normalized_point(p) for p in cfg),
            "collinear": col,
            "interior": interior,
            "hc_boundary": verdict_dict(hc),
            "hc_filtration": {
                "factor_dims": [list(x) for x in filt["factor_dims"]],
                "support": filt["support"],
                "v1_simple_count": filt["v1_simple_count"],
            },
        }

        if n == 1:
            entry["zeta"] = {
                "skipped": True,
                "reason": "single point: the line-side wall is not part of the picture",
            }
        else:
            za = king_test(m0, theta_b0(n, -eps), seed=seed)
            zb = king_test(m0, theta_b0(n, -eps / 10), seed=seed)
            entry["zeta"] = {
                "skipped": False,
                "eps": eps,
                "at_minus_eps": verdict_dict(za),
                "at_minus_eps_over_10": verdict_dict(zb),
                "shrink_consistent": za.verdict == zb.verdict,
                "expected": "unstable" if col else "semistable",
            }

        da = king_test(m1, reverse_theta(theta_b1(n, 1 + eps)), seed=seed)
        db = king_test(m1, reverse_theta(theta_b1(n, 1 + eps / 10)), seed=seed)
        entry["dual_across_hc"] = {
            "eps": eps,
            "at_one_plus_eps": verdict_dict(da),
            "at_one_plus_eps_over_10": verdict_dict(db),
            "shrink_consistent": da.verdict == db.verdict,
        }
        return entry

    results = [one(raw) for raw in configs]

    groups: Dict[Tuple[str, ...], List[int]] = {}
    for k, entry in enumerate(results):
        groups.setdefault(tuple(entry["support"]), []).append(k)

    return {
        "meta": json_meta(seed),
        "n": n,
        "epsilon": eps,
        "class_A1": list(d1),
        "class_A0": list(d0),
        "plane_A1": [list(b) for b in perp_plane(d1).basis],
        "plane_A0": [list(b) for b in perp_plane(d0).basis],
        "walls_A1": _walls_entries(d1),
        "walls_A0": _walls_entries(d0),
        "chambers": [dict(c) for c in CHAMBER_STRUCTURE],
        "adjacency": list(ADJACENCY),
        "configurations": results,
        "s_equivalence_groups": sorted(groups.values()),
    }


# ---------------------------------------------------------------------------
# deterministic SVG rendering


def _fmt(x: float) -> str:
    return format(x, ".2f")


def _unit(st: Tuple[Fraction, Fraction]) -> Tuple[float, float]:
    x, y = float(st[0]), float(st[1])
    h = math.hypot(x, y)
    if h == 0:
        raise VerificationError("zero direction")  # pragma: no cover
    return (x / h, y / h)


def wall_svg(n: int, heart: str = "A1") -> str:
    """An 800x800 SVG of the weight plane: numerical walls as grey lines,
    the weight family as a polyline with its endpoint rays highlighted,
    and the three chambers labelled.  Deterministic byte-for-byte: fixed
    formatting, no timestamps, no randomness."""
    d = module_dims(n, heart)
    plane = perp_plane(d)
    walls = numerical_walls(d)
    cx = cy = 400.0
    R = 340.0

    def xy(direction, radius):
        ux, uy = direction
        return (cx + radius * ux, cy - radius * uy)

    parts: List[str] = []
    parts.append(
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" '
        'viewBox="0 0 800 800">'
    )
    parts.append('<rect width="800" height="800" fill="white"/>')
    parts.append(
        f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(R)}" '
        'fill="none" stroke="#cccccc" stroke-width="1"/>'
    )
    title = f"weight plane of class {list(d)} (heart {heart}, n={n})"
    parts.append(f'<text x="20" y="30" font-size="16" fill="#222222">{title}</text>')

    for w in walls:
        p, q = w.normal_in_plane
        u = _unit((Fraction(-q), Fraction(p)))
        x1, y1 = xy((-u[0], -u[1]), R)
        x2, y2 = xy(u, R)
        parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            'stroke="#bbbbbb" stroke-width="1"/>'
        )
        lx, ly = xy(u, R + 14)
        label = "[" + ",".join(str(c) for c in w.witness) + "]"
        parts.append(
            f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" font-size="9" fill="#888888" '
            f'text-anchor="middle">{label}</text>'
        )

    # the family arc, sampled uniformly in the parameter
    pts = []
    for i in range(33):
        b = Fraction(i, 32)
        u = _unit(plane.coords_of(family_theta(n, heart, b)))
        x, y = xy(u, 300.0)
        pts.append(f"{_fmt(x)},{_fmt(y)}")
    parts.append(
        '<polyline points="' + " ".join(pts) + '" fill="none" '
        'stroke="#3366cc" stroke-width="2"/>'
    )

    for b, color, name in (
        (Fraction(0), "#22aa55", "theta(0)"),
        (Fraction(1), "#cc3333", "theta(1)"),
    ):
        u = _unit(plane.coords_of(family_theta(n, heart, b)))
        x, y = xy(u, R)
        parts.append(
            f'<line x1="{_fmt(cx)}" y1="{_fmt(cy)}" x2="{_fmt(x)}" y2="{_fmt(y)}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        lx, ly = xy(u, R - 24)
        parts.append(
            f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" font-size="12" fill="{color}" '
            f'text-anchor="middle">{name}</text>'
        )

    for b, name in (
        (Fraction(1, 2), "C_P2"),
        (Fraction(9, 8), "C_plus"),
        (Fraction(-1, 8), "C_minus"),
    ):
        u = _unit(plane.coords_of(family_theta(n, heart, b)))
        lx, ly = xy(u, 180.0)
        parts.append(
            f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" font-size="14" fill="#333333" '
            f'text-anchor="middle">{name}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
