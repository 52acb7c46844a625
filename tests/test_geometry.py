"""Point configurations and the modules they generate."""

import collections
import functools
import hashlib
import itertools
import json
import random
import sys

import pytest
from fractions import Fraction

from p2stab import geometry, linalg
from p2stab.errors import InputError, VerificationError
from p2stab.geometry import (
    PointConfig,
    _frame,
    _normalized_point,
    _point_of,
    bprime_module_points,
    collinear_test,
    composite_lines,
    module_ideal_A0,
    module_ideal_A1,
    module_point,
    theta_b0,
    theta_b1,
    wall_filtration_data,
)
from p2stab.ktheory import A0, A1, ChernCharacter, chern_of_dimvec
from p2stab.linalg import QQ, mat_mul
from p2stab.modules import (
    QuiverRep,
    check_relations,
    direct_sum,
    iso_test,
    quotient_by,
    random_rep,
    rep_to_json,
    theta_pair,
)
from p2stab.quiver import jh_factors, king_test
from test_quiver import assert_canonical_sides

TRIANGLE = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
LINE3 = [(1, 0, 0), (0, 1, 0), (1, 1, 0)]
TWO = [(1, 0, 0), (0, 1, 1)]


# ---------------------------------------------------------------------------
# configurations


def test_point_config_validation():
    cfg = PointConfig(((Fraction(1), Fraction(0), Fraction(0)),))
    assert len(cfg) == 1
    with pytest.raises(InputError):
        PointConfig(((Fraction(0), Fraction(0), Fraction(0)),))
    with pytest.raises(InputError):
        PointConfig(
            (
                (Fraction(1), Fraction(2), Fraction(0)),
                (Fraction(2), Fraction(4), Fraction(0)),  # same projective point
            )
        )
    with pytest.raises(InputError):
        PointConfig(((Fraction(1), Fraction(0)),))


def ref_first_coincidence(points):
    """The first pair (i, j), in order, of points with a zero cross product,
    as the configuration check first compared them; None if there is none."""
    pts = [tuple(Fraction(c) for c in p) for p in points]
    for i, j in itertools.combinations(range(len(pts)), 2):
        if not any(geometry._cross(pts[i], pts[j])):
            return (i, j)
    return None


def coincidence_message(points):
    try:
        PointConfig(tuple(tuple(Fraction(c) for c in p) for p in points))
    except InputError as exc:
        return str(exc)
    return None


def test_coincident_points_are_named_by_the_first_pair():
    a, b = (1, 2, 3), (2, -1, 1)
    message = "points {} and {} coincide (non-reduced subscheme unsupported)"
    assert coincidence_message([a, b, b, a]) == message.format(0, 3)
    assert coincidence_message([a, b, (-4, 2, -2), (-2, -4, -6)]) == message.format(0, 3)
    # the pairwise rule on random small configurations with repeats
    rng = random.Random(3)
    base = [(1, 2, 3), (2, -1, 1), (0, 0, 1), (1, 1, 0), (-1, 0, 2), (0, 3, -1)]
    seen = collections.Counter()
    for _ in range(400):
        points = []
        for _ in range(rng.randint(1, 7)):
            scale = Fraction(rng.choice([-3, -1, 1, 2, 7]), rng.choice([1, 2, 5]))
            points.append(tuple(scale * c for c in rng.choice(base)))
        pair = ref_first_coincidence(points)
        seen[pair is None, pair is not None and pair[0] > 0] += 1
        assert coincidence_message(points) == (pair and message.format(*pair))
    # distinct configurations, and repeats first met both at point 0 and later
    assert seen[True, False] and seen[False, False] and seen[False, True]


def test_point_config_json():
    cfg = PointConfig.from_json({"points": [["1", "1/2", "0"], ["0", "0", "3"]]})
    assert cfg.points[0] == (Fraction(1), Fraction(1, 2), Fraction(0))
    assert cfg == PointConfig(((1, Fraction(1, 2), 0), (0, 0, 3)))
    with pytest.raises(InputError):
        PointConfig.from_json({"pts": []})
    with pytest.raises(InputError):
        PointConfig.from_json({"points": [["1", "1/0", "0"]]})
    if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000:
        # str() itself refuses an integer coordinate past the digit limit
        with pytest.raises(InputError):
            PointConfig.from_json({"points": [[10 ** 5000, 1, 1]]})
        # each coordinate is within the limit, the primitive integer
        # representative (10^8598 : 1 : 10^4299) is not
        big = 10 ** (sys.get_int_max_str_digits() - 1)
        with pytest.raises(InputError, match="primitive integer coordinates"):
            PointConfig(((big, Fraction(1, big), 1),))


def test_collinearity():
    quad = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    for points, collinear in ((LINE3, True), (TRIANGLE, False), (quad, False)):
        assert collinear_test(points, module_ideal_A0(points)) is collinear
    # up to two points the module is not read
    assert collinear_test(TWO, None)  # two points always span a line
    assert collinear_test([(1, 2, 3)], None)
    # the Hom cross-check reads the module it is given
    with pytest.raises(VerificationError, match="disagree"):
        collinear_test(TRIANGLE, module_ideal_A0(LINE3))


# ---------------------------------------------------------------------------
# point modules


def test_frame_shapes():
    # a general triple goes to e0, e1, e2 and a general quadruple adds
    # (1, 1, 1); a collinear triple goes to e0, e1, (1, 1, 0); the first
    # independent triple is taken in input order, and the order is kept
    def framed(points):
        return [tuple(map(int, x)) for x in _frame(points)]

    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    general = [(1, 2, 3), (2, -1, Fraction(1, 2)), (3, 1, -2), (1, 1, 1)]
    for k in range(1, 4):
        assert framed(general[:k]) == e[:k]
    assert framed(general) == framed(general[::-1]) == e + [(1, 1, 1)]
    line = [(1, 2, 3), (2, -1, 1), (3, 1, 4)]
    assert framed(line) == e[:2] + [(1, 1, 0)]
    assert framed(line + [(0, 0, 1)]) == e[:2] + [(1, 1, 0), e[2]]
    # from five points on, the unit point whose frame keeps the points
    # distinct mod 2 and 3: here the fifth, not the first (1, 1, 1)
    five = [(1, 2, 3), (2, -1, 1), (3, 1, -2), (1, 1, 1), (1, -1, 2)]
    assert framed(five) == e + [(91, 1, -14), (1, 1, 1)]
    # the framed points are never written out: no digit limit holds them
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if 0 < limit < 5000:
        big = 10 ** (limit // 4)
        points = [(big, 1, 2), (1, big + 1, 3), (2, 5, big + 7), (1, 1, 1), (3, big - 1, 2 * big)]
        assert max(abs(c) for x in _frame(points) for c in x) > 10 ** limit


def test_module_point_golden_coordinates():
    rep = module_point([1, 0, 0])
    assert rep.dims == (1, 2, 1)
    assert rep.gamma == (((0,), (0,)), ((1,), (0,)), ((0,), (1,)))
    assert rep.delta == (((0, 0),), ((0, 1),), ((-1, 0),))
    assert check_relations(rep) == (True, None)


def test_module_point_rejects_zero():
    with pytest.raises(InputError):
        module_point([0, 0, 0])
    with pytest.raises(InputError):
        module_point([1, 0])


def test_module_point_respects_scaling():
    assert iso_test(module_point([3, -1, 2]), module_point([-6, 2, -4])).isomorphic


def _random_point(rng):
    while True:
        x = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
        if any(x):
            return x


def _twisted(rep, rng):
    """rep moved along a random isomorphism: a nonzero scalar at vertices 0
    and 2 and an invertible 2 x 2 matrix h at vertex 1."""
    while True:
        h = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
        det = h[0][0] * h[1][1] - h[0][1] * h[1][0]
        if det:
            break
    h_inv = [[h[1][1] / det, -h[0][1] / det], [-h[1][0] / det, h[0][0] / det]]
    a, c = (Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)) for _ in range(2))
    gamma = [[[e / a for e in row] for row in mat_mul(QQ, h, rep.gamma_m(i))] for i in range(3)]
    delta = [[[c * e for e in row] for row in mat_mul(QQ, rep.delta_m(j), h_inv)] for j in range(3)]
    return QuiverRep("B", QQ, (1, 2, 1), gamma, delta)


def _with(rep, gamma=None, delta=None):
    return QuiverRep("B", QQ, (1, 2, 1), gamma or rep.gamma, delta or rep.delta)


def _agrees_with_iso_test(f, x):
    """_point_of(f) names x's point exactly when f is isomorphic to
    module_point(x), as iso_test decides."""
    y = _point_of(f)
    read = y is not None and _normalized_point(y) == _normalized_point(x)
    return read == iso_test(f, module_point(x)).isomorphic


def test_point_of_agrees_with_iso_test():
    rng = random.Random(20)
    zero_delta = tuple(((Fraction(0), Fraction(0)),) for _ in range(3))
    cases = []
    for _ in range(40):
        f = random_rep("B", QQ, (1, 2, 1), rng)
        y = _point_of(f)
        cases += [(f, _random_point(rng))] + ([(f, y)] if y is not None else [])
    for _ in range(15):
        x, other = _random_point(rng), _random_point(rng)
        pm = module_point(x)
        # gamma of rank 1 with image [(1, 2)]; the relations make delta kill it
        rank_one = [[[g[0][0]], [2 * g[0][0]]] for g in pm.gamma]
        t = [Fraction(rng.choice([-2, -1, 1, 2])) for _ in range(3)]
        cases += [
            (_with(pm, delta=zero_delta), x),
            (_with(pm, gamma=rank_one, delta=[[[2 * c, -c]] for c in t]), x),
            (_twisted(pm, rng), x),
            (_twisted(pm, rng), other),
            (_twisted(module_point(other), rng), x),
        ]
    assert sum(_point_of(f) is None for f, _ in cases) >= 30
    assert sum(iso_test(f, module_point(x)).isomorphic for f, x in cases) >= 30
    for f, x in cases:
        assert check_relations(f) == (True, None)
        assert _agrees_with_iso_test(f, x), (f, x)


def test_point_of_reads_the_point_back():
    rng = random.Random(21)
    for x in [[1, 0, 0], [0, 0, 5], [3, -1, 2]] + [_random_point(rng) for _ in range(30)]:
        y = _point_of(module_point(x))
        assert y is not None and any(y) and not any(geometry._cross(x, y))


# ---------------------------------------------------------------------------
# ideal-type modules


@pytest.mark.parametrize("pts", [TWO, TRIANGLE, LINE3])
def test_ideal_module_dims_and_classes(pts):
    n = len(pts)
    a1 = module_ideal_A1(pts)
    a0 = module_ideal_A0(pts)
    bp = bprime_module_points(pts)
    assert a1.dims == (n, 2 * n + 1, n)
    assert a0.dims == (n, 2 * n, n - 1)
    assert bp.dims == (n, n, n - 1)
    for rep in (a1, a0, bp):
        assert check_relations(rep) == (True, None)
    # both presentations carry minus the class of the twisted ideal sheaf
    want = -ChernCharacter(1, 1, Fraction(1, 2) - n)
    assert chern_of_dimvec(a1.dims, A1) == want
    assert chern_of_dimvec(a0.dims, A0) == want


def test_single_point_ideal_dims():
    assert module_ideal_A1([(2, 3, 5)]).dims == (1, 3, 1)
    assert module_ideal_A0([(2, 3, 5)]).dims == (1, 2, 0)


#: one configuration per n = 1..4, the n = 2 one with rational coordinates
_PINNED_CONFIGS = {
    1: [(1, 2, 3)],
    2: [(Fraction(1, 2), 2, 3), (2, Fraction(-1, 3), 1)],
    3: [(1, 2, 3), (2, -1, 1), (3, 1, -2)],
    4: [(1, 2, 3), (2, -1, 1), (3, 1, -2), (1, 1, 1)],
}

#: SHA-256 of the sorted-key JSON list of `rep_to_json` of each kind of
#: module of those configurations: the point modules in order, the B'-module,
#: both ideal-type modules, and the JH factors of module_ideal_A1 at the
#: Hilbert-Chow weight theta_b1(n, 1), in peel order
_MODULE_DIGESTS = {
    (1, "module_point"): "62000ee24d2478f0403a3f07533e768bf85577e4c7a881d7218b3b9ecc207e50",
    (1, "bprime_module_points"): "9bb881a19b961591350dd9e082d37b6773391061cdc02990c24310607df9c364",
    (1, "module_ideal_A1"): "fefad814e2e3c23003df9f5de40f0c1468bad7096b4f3f0d1f55a9c6100bfbfb",
    (1, "module_ideal_A0"): "1b75a8c627db88d760f24bfc8838835873e2313b64e47afeb9bc89fc3db5b59c",
    (1, "jh_factors"): "0c143ddb37531de37d09a9de69bc726126be870f599c51e740ebf1d65acaaa92",
    (2, "module_point"): "7129f8eee26a0ddccc43bd621bfe875f977eede53902807c65132ad2ae84f2a9",
    (2, "bprime_module_points"): "5aa4e7ba8b25841deb35018275232b7494736b54dbab3935501d0c119936b75b",
    (2, "module_ideal_A1"): "1299c20ae948843e38144a6582ae2d564fcc545ac55e6df38205a9c9bfc86e5e",
    (2, "module_ideal_A0"): "5794e409a1292b0f5b68d5b54718d8b1ce8033de41826ea8f5193c7d50c88ebb",
    (2, "jh_factors"): "0bc87cd9c4939e05701b3009a3c83b3c20b847abb78d5bf38f463bf6fb3970a3",
    (3, "module_point"): "5d841ad524356fc049eb674547edd1ade340ebf779c688694bf69e256986c2b5",
    (3, "bprime_module_points"): "9c28cd01195387aa7670027b51c33d12362d6846e3de96efc95d172979effc2f",
    (3, "module_ideal_A1"): "9f451e737f2a46b3caba4284f53f20cb584163eead18c619cca4367ffdbf2a2d",
    (3, "module_ideal_A0"): "85fea2c854b0d6a62dbf5be497bbb520770f80a2a9732646a899e945fa5214be",
    (3, "jh_factors"): "6d89a700a711378a1152593483ec6484b373d817d1fd64fb91ff6b5dec3f8721",
    (4, "module_point"): "b1a05c99d85ca23ff1d53e737f19b630ecceb713d2e9e56c995919f09055d06d",
    (4, "bprime_module_points"): "65b65fb9195ec8541abda0f8640ae2e0f6a7569a30698c7a2e6f4f54cbbdd476",
    (4, "module_ideal_A1"): "cb31c322edccad60012a24e1d5656583a863e5b896c996663523395a35c0b214",
    (4, "module_ideal_A0"): "0589631f71939c05a5682421a93268ae06052cd607eff3e3b5230b46e97cb539",
    (4, "jh_factors"): "7c8e79c1b751f4811935d014b01f8aefd0315e959c74381488a08dfc049ad9c9",
}


def _digest(reps) -> str:
    text = json.dumps([rep_to_json(rep) for rep in reps], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("n", sorted(_PINNED_CONFIGS))
def test_module_constructions_are_pinned(n):
    cfg = _PINNED_CONFIGS[n]
    a1 = module_ideal_A1(cfg)
    a0 = module_ideal_A0(cfg)
    factors = jh_factors(a1, theta_b1(n, 1))
    built = {
        "module_point": [module_point(x) for x in cfg],
        "bprime_module_points": [bprime_module_points(cfg)],
        "module_ideal_A1": [a1],
        "module_ideal_A0": [a0],
        "jh_factors": factors,
    }
    for kind, reps in built.items():
        assert _digest(reps) == _MODULE_DIGESTS[n, kind], kind
    # every construction holds its canonical integer form alone (the tilt
    # and the splits the one they build from, the others the one their
    # constructor formed), the one formed afresh from the rational arrows
    for reps in built.values():
        for rep in reps:
            assert_canonical_sides(rep)


def ref_module_ideal_A0(points):
    """`module_ideal_A0` as first built: the direct sum of the point
    modules, quotiented by the all-ones line at the last vertex."""
    cfg = geometry._as_config(points)
    total = functools.reduce(direct_sum, (module_point(x) for x in cfg))
    return quotient_by(total, ((), (), ([Fraction(1)] * len(cfg),)))


#: the digests of the n = 2, 3, 4 ideal-A0 modules of `_PINNED_CONFIGS` as
#: the quotient built them, its vertex-2 coordinates (c_a - c_0)
_QUOTIENT_A0_DIGESTS = {
    2: "0fef0b24297182e1e03e22225e3d2139397b0b5d1c87b0755f834e47f12539fc",
    3: "19fac781b5f8a9e1667915cc0d8f4d3914814b0130b08990aded0d8041a3f453",
    4: "fd7e3dcccc7d6d7b150d7a9ef27baeff9f04d52a732675c0e979703c32c1020e",
}


def _random_config(rng, n, collinear):
    """n distinct points with small integer coordinates, on a line through
    two random points if ``collinear``."""
    while True:
        if collinear:
            p, q = ([rng.randint(-3, 3) for _ in range(3)] for _ in range(2))
            pts = [tuple(a * x + b * y for x, y in zip(p, q))
                   for a, b in ((rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n))]
        else:
            pts = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(n)]
        try:
            return PointConfig(pts)
        except InputError:  # a zero vector or two points that coincide
            continue


def test_the_A0_module_is_the_quotient_of_the_point_modules_sum():
    # the reference is the construction the old pins were taken from
    for n, want in _QUOTIENT_A0_DIGESTS.items():
        assert _digest([ref_module_ideal_A0(_PINNED_CONFIGS[n])]) == want
    rng = random.Random(11)
    for n in range(1, 6):
        for collinear in (False, True) if n >= 3 else (False,):
            for _ in range(3):
                cfg = _random_config(rng, n, collinear)
                a0, ref = module_ideal_A0(cfg), ref_module_ideal_A0(cfg)
                res = iso_test(a0, ref)
                assert (res.isomorphic, res.certainty) == (True, "exact"), cfg
                assert collinear_test(cfg, a0) == collinear_test(cfg, ref)


def test_composite_lines_identity():
    assert composite_lines(TRIANGLE) == (True, None)
    assert composite_lines([(1, 2, 3), (0, 1, 4)]) == (True, None)


def ref_composite_lines(points):
    """`composite_lines` as first written: entry by entry."""
    cfg = geometry._as_config(points)
    n = len(cfg)
    rep = geometry.module_ideal_A1(cfg)
    pts = list(cfg)
    for i in range(3):
        for j in range(3):
            comp = mat_mul(QQ, rep.delta_m(j), rep.gamma_m(i))
            for a in range(n):
                for b in range(n):
                    if i % 3 == (j + 1) % 3:
                        want = pts[a][(j + 2) % 3] if a == b else Fraction(0)
                    elif i % 3 == (j + 2) % 3:
                        want = -pts[a][(j + 1) % 3] if a == b else Fraction(0)
                    else:
                        want = Fraction(0)
                    if comp[a][b] != want:
                        return (False, (i, j))
    return (True, None)


def _shifted(rep, rng):
    """rep with one random arrow entry shifted by a random nonzero value."""
    arrows = [[[list(row) for row in A] for A in side] for side in (rep.gamma, rep.delta)]
    s, k = rng.randrange(2), rng.randrange(3)
    row = rng.choice(arrows[s][k])
    row[rng.randrange(len(row))] += Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3))
    return QuiverRep(rep.algebra, rep.field, rep.dims, *arrows)


def test_composite_lines_reports_the_first_failing_pair(monkeypatch):
    # one comparison per (i, j) finds the pair the entry-by-entry loop
    # finds first, on modules broken in one arrow entry
    rng = random.Random(3)
    seen = set()
    for pts in (TRIANGLE, TWO, LINE3, [(1, 2, 3), (0, 1, 4)]):
        rep = module_ideal_A1(pts)
        for _ in range(12):
            monkeypatch.setattr(geometry, "module_ideal_A1", lambda cfg, r=_shifted(rep, rng): r)
            got = composite_lines(pts)
            assert got == ref_composite_lines(pts)
            seen.add(got)
    assert len(seen - {(True, None)}) >= 6  # first failures at many pairs
    # gamma_1 doubled: delta_0 gamma_1 is diag(2 x_2), not diag(x_2), while
    # the pairs (0, j) before it still hold
    rep = module_ideal_A1(TRIANGLE)
    gamma = [rep.gamma[0], [[2 * x for x in row] for row in rep.gamma[1]], rep.gamma[2]]
    broken = QuiverRep("B", QQ, rep.dims, gamma, rep.delta)
    monkeypatch.setattr(geometry, "module_ideal_A1", lambda cfg: broken)
    assert composite_lines(TRIANGLE) == (False, (1, 0))


def test_composite_lines_reads_no_field_arrow(monkeypatch):
    # each composite is one integer product of the two sides times their
    # scales: with the field arrows and the rational product refused, every
    # answer is the entry-by-entry reference's, broken modules included
    rng = random.Random(5)
    cases = [(pts, rep) for pts in (TRIANGLE, TWO, LINE3, [(1, 2, 3), (0, 1, 4)])
             for rep in [module_ideal_A1(pts)] + [_shifted(module_ideal_A1(pts), rng)
                                                  for _ in range(6)]]
    want = []
    for pts, rep in cases:
        monkeypatch.setattr(geometry, "module_ideal_A1", lambda cfg, r=rep: r)
        want.append(ref_composite_lines(pts))
    assert (True, None) in want and len(set(want)) > 4

    def refuse(*args):
        raise AssertionError("a field arrow or a rational product read")

    monkeypatch.setattr(QuiverRep, "gamma_m", refuse)
    monkeypatch.setattr(QuiverRep, "delta_m", refuse)
    monkeypatch.setattr(linalg, "mat_mul", refuse)
    got = []
    for pts, rep in cases:
        monkeypatch.setattr(geometry, "module_ideal_A1", lambda cfg, r=rep: r)
        got.append(composite_lines(pts))
    assert got == want


# ---------------------------------------------------------------------------
# boundary walls


def test_boundary_thetas_kill_the_module_class():
    for n in (1, 2, 3, 4):
        assert theta_pair(theta_b1(n, 1), (n, 2 * n + 1, n)) == 0
        assert theta_pair(theta_b0(n, 0), (n, 2 * n, n - 1)) == 0
    assert theta_b1(2, 1) == (-2, 0, 2)
    assert theta_b0(3, 0) == (-2, 0, 3)


def test_hilbert_chow_wall_filtration():
    data = wall_filtration_data(TRIANGLE, module_ideal_A1(TRIANGLE))
    assert set(data) == {"factor_dims", "support", "v1_simple_count"}
    assert data["factor_dims"] == [(0, 1, 0), (1, 2, 1), (1, 2, 1), (1, 2, 1)]
    assert sorted(data["support"]) == [0, 1, 2]
    assert data["v1_simple_count"] == 1

    two = wall_filtration_data(TWO, module_ideal_A1(TWO))
    assert two["factor_dims"] == [(0, 1, 0), (1, 2, 1), (1, 2, 1)]
    assert sorted(two["support"]) == [0, 1]


def test_line_contraction_wall_filtration():
    # just past the line-contraction wall the vertex simple C v_1
    # destabilizes the A0 module of collinear points, and the quotient by
    # its exact witness has the class of a shifted line bundle on the line
    for points, quotient_dims in ((LINE3, (3, 5, 2)), (TWO, (2, 3, 1))):
        n = len(points)
        m0 = module_ideal_A0(points)
        v = king_test(m0, theta_b0(n, Fraction(-1, 100)))
        assert (v.verdict, v.certainty, v.witness_dimvec) == ("unstable", "exact", (0, 1, 0))
        quo = quotient_by(m0, v.witness)
        assert quo.dims == quotient_dims
        assert chern_of_dimvec(quo.dims, A0) == ChernCharacter(0, -1, Fraction(2 * n - 1, 2))


@pytest.mark.parametrize("points,wall", [
    (LINE3, "theta0_0"), (TWO, "theta0_0"), (TRIANGLE, "theta1_1"), (TWO, "theta1_1"),
])
def test_wall_filtration_builds_its_module_once(monkeypatch, points, wall):
    # each wall's helper reads the module its caller built and builds none:
    # collinear_test the A0 module on the line-contraction side,
    # wall_filtration_data the A1 module on the Hilbert-Chow side
    built = {name: getattr(geometry, name)(points) for name in ("module_ideal_A0", "module_ideal_A1")}
    for name in built:
        monkeypatch.setattr(geometry, name, lambda pts: pytest.fail("a module was built again"))
    if wall == "theta0_0":
        assert collinear_test(points, built["module_ideal_A0"])
    else:
        data = wall_filtration_data(points, built["module_ideal_A1"])
        assert sorted(data["support"]) == list(range(len(points)))


def test_line_contraction_wall_needs_collinear_points():
    # off a line no C v_1 maps into the A0 module, so past the wall the
    # vertex simple does not destabilize it
    m0 = module_ideal_A0(TRIANGLE)
    assert not collinear_test(TRIANGLE, m0)
    assert king_test(m0, theta_b0(3, Fraction(-1, 100))).semistable
