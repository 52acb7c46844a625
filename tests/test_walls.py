"""Weight families, numerical walls, chamber location, and the reports."""

import collections
import hashlib
import random
import sys

import pytest
from fractions import Fraction

from p2stab import geometry, ktheory, modules, quiver, walls
from p2stab.charge import (
    CentralCharge,
    sqrt_rational,
    z_geometric,
    z_sigma_b,
)
from p2stab.errors import InputError
from p2stab.geometry import _frame, module_ideal_A1, theta_family_r
from p2stab.io_utils import dumps_json
from p2stab.linalg import QQ, saturated_kernel_basis_3
from p2stab.ktheory import ChernCharacter
from p2stab.modules import dualize, theta_pair
from p2stab.quiver import king_test
from p2stab.walls import (
    ADJACENCY,
    CHAMBER_STRUCTURE,
    chamber_membership,
    family_consistency,
    family_theta,
    hilbert_report,
    king_theta,
    module_dims,
    numerical_walls,
    perp_plane,
    theta_b0,
    theta_b1,
    wall_svg,
    walls_json,
)


def test_module_dims():
    assert module_dims(3, "A1") == (3, 7, 3)
    assert module_dims(3, "A0") == (3, 6, 2)
    with pytest.raises(InputError):
        module_dims(0, "A1")
    with pytest.raises(InputError):
        module_dims(2, "A2")


# ---------------------------------------------------------------------------
# weight families


def test_king_theta_matches_displayed_families():
    for n in (1, 2, 4):
        for r in (1, 2, 3):
            mclass = (n + 1 - r, 2 * n + 1, n)
            for b in (Fraction(1, 5), Fraction(1, 2), Fraction(7, 10)):
                got = king_theta(z_sigma_b(b), mclass)
                assert got == theta_family_r(n, r, b)
                assert theta_pair(got, mclass) == 0


def test_king_theta_point_module_weight():
    b = Fraction(2, 7)
    assert king_theta(z_sigma_b(b), (1, 2, 1)) == (-b, b - 1, 2 - b)


def test_king_theta_rejects_flat_charge():
    # Z vanishes on the class: (1, 2, 1) against (1, 0), (-1, 0), (1, 0)
    with pytest.raises(InputError):
        king_theta([(Fraction(1), 0), (Fraction(-1), 0), (Fraction(1), 0)], (1, 2, 1))
    with pytest.raises(InputError):
        king_theta([(1, 0), (0, 1)], (1, 2, 1))


def test_family_endpoints_are_the_boundary_weights():
    for n in (1, 2, 3, 5):
        assert theta_b1(n, 1) == (-n, 0, n)  # Hilbert-Chow wall
        assert theta_b0(n, 0) == (1 - n, 0, n)  # line-contraction wall


def test_family_is_linear_interpolation():
    for n in (1, 3):
        t0, t1 = theta_b1(n, 0), theta_b1(n, 1)
        for b in (Fraction(1, 3), Fraction(9, 8), Fraction(-1, 4)):
            want = tuple((1 - b) * p + b * q for p, q in zip(t0, t1))
            assert theta_b1(n, b) == want
    assert theta_b1(2, Fraction(1, 2)) == (-1, -1, Fraction(7, 2))


def test_family_consistency_report():
    out = family_consistency(3, Fraction(1, 3))
    assert out["ok"]
    assert out["point"]["expected"] == Fraction(2, 3)
    assert out["structure_sheaf"]["A1"] == out["structure_sheaf"]["A0"] == -1
    assert family_consistency(1, Fraction(7, 8))["ok"]


def test_family_theta_dispatch():
    assert family_theta(2, "A0", Fraction(1, 2)) == theta_b0(2, Fraction(1, 2))
    with pytest.raises(InputError):
        family_theta(2, "nope", 0)


_POINT = geometry.module_point((1, 2, 3))


def _point_verdict(x):
    v = king_test(_POINT, (-1, -1, x))
    return v.verdict, v.certainty, v.theta


#: entry points that take a rational argument, each as a function of it,
#: with a value q where it answers
_EXACT_ENTRIES = {
    "module_ideal_A1 point": (lambda x: module_ideal_A1([(x, 2, 3), (2, -1, 1)]), 1),
    "theta_family_r": (lambda x: theta_family_r(2, 2, x), Fraction(1, 2)),
    "theta_b1": (lambda x: theta_b1(2, x), Fraction(1, 2)),
    "theta_b0": (lambda x: theta_b0(2, x), 1),
    "king_test": (_point_verdict, 3),
    "jh_factors": (lambda x: [f.dims for f in quiver.jh_factors(_POINT, (-1, x, 3))], -1),
    "hilbert_report eps": (lambda x: hilbert_report(1, [[(1, 2, 3)]], eps=x)["epsilon"], Fraction(1, 10)),
    "family_consistency": (lambda x: family_consistency(3, x), Fraction(3, 10)),
    "PerpPlane.coords_of": (lambda x: perp_plane((2, 5, 2)).coords_of((x, 0, Fraction(-1, 2))), Fraction(1, 2)),
    "chamber_membership": (lambda x: chamber_membership((x, 0, Fraction(-1, 2)), 2, "A1"),
                           Fraction(1, 2)),
    "theta_pair": (lambda x: theta_pair((x, 0, 1), (1, 1, 1)), Fraction(1, 2)),
    "reverse_theta": (lambda x: modules.reverse_theta((x, 0, 1)), Fraction(1, 2)),
    "theta_transform": (lambda x: modules.theta_transform((x, 0, 1)), Fraction(1, 2)),
    "king_theta": (lambda x: king_theta([(x, 0), (-1, 0), (3, 1)], (1, 2, 1)), Fraction(-1, 3)),
    "king_theta dims": (lambda x: king_theta(z_sigma_b(Fraction(1, 3)), (x, 2, 1)), 1),
    "CentralCharge": (lambda x: CentralCharge(((x, 0), (-1, 0), (3, 1))), Fraction(-1, 2)),
    "z_sigma_b": (z_sigma_b, Fraction(1, 3)),
    "z_geometric": (lambda x: z_geometric((2, 1, 0), x, Fraction(99, 400)), Fraction(9, 20)),
    "sqrt_rational": (sqrt_rational, Fraction(9, 4)),
    "ChernCharacter": (lambda x: ChernCharacter(x, 1, 0), 2),
    "twist": (lambda x: ktheory.twist((1, 0, 0), x), 1),
}


@pytest.mark.parametrize("name", sorted(_EXACT_ENTRIES))
def test_exact_entry_points_refuse_floats(name):
    # as QQ.convert does: ints, strings and Fractions are the same rational,
    # a float is refused rather than read as its binary expansion
    f, q = _EXACT_ENTRIES[name]
    want = f(Fraction(q))
    for x in [str(q)] + ([int(q)] if q == int(q) else []):
        assert f(x) == want
    with pytest.raises(InputError):
        f(float(q))


#: charge values that are not three (re, im) pairs; `king_theta` reads its
#: values through `CentralCharge`, so both refuse them the same way
_MALFORMED_VALUES = {
    "a triple among the pairs": ((1, 0, 0), (0, 1), (0, 1)),
    "numbers, not pairs": (1, 2, 3),
    "a string pair": ("10", (0, 1), (0, 1)),
    "a number": 7,
}


@pytest.mark.parametrize("entry", [CentralCharge, lambda v: king_theta(v, (1, 2, 1))],
                         ids=["CentralCharge", "king_theta"])
@pytest.mark.parametrize("name", sorted(_MALFORMED_VALUES))
def test_malformed_charge_values_are_invalid_input(entry, name):
    with pytest.raises(InputError):
        entry(_MALFORMED_VALUES[name])


# ---------------------------------------------------------------------------
# the perpendicular plane and its walls


@pytest.mark.parametrize("entry", [Fraction(3, 2), 1.5, 1.9, True], ids=repr)
@pytest.mark.parametrize("call", [
    lambda x: theta_pair((1, 0, 0), (x, 0, 0)),
    lambda x: ktheory.chern_of_dimvec((x, 0, 0), ktheory.A1),
    lambda x: perp_plane((x, 2, 1)),
    lambda x: numerical_walls((x, 2, 1)),
    lambda x: modules.random_rep("B", QQ, (x, 1, 1), random.Random(0)),
    lambda x: modules.simple("B", x),
    lambda x: saturated_kernel_basis_3((x, 2, 1)),
], ids=["theta_pair", "chern_of_dimvec", "perp_plane", "numerical_walls", "random_rep",
        "simple", "saturated_kernel_basis_3"])
def test_a_class_entry_that_is_no_integer_is_invalid_input(call, entry):
    # each entry was truncated by int(): 3/2 and 1.5 read as 1, 1.9 as 1,
    # and True as the vertex or the entry 1
    with pytest.raises(InputError):
        call(entry)


@pytest.mark.parametrize("dims", [(1, 2), (1, 2, 1, 0)], ids=repr)
def test_theta_pair_refuses_a_class_of_the_wrong_length(dims):
    # zip read (1, 2) as the class (1, 2, 0) and (1, 2, 1, 0) as (1, 2, 1)
    with pytest.raises(InputError):
        theta_pair((1, 0, 0), dims)


def test_perp_plane_round_trip():
    plane = perp_plane((2, 5, 2))
    assert plane.basis == ((1, 0, -1), (0, 2, -5))
    for b in plane.basis:
        assert theta_pair(b, (2, 5, 2)) == 0
    s, t = Fraction(3, 2), Fraction(-1, 3)
    theta = tuple(s * p + t * q for p, q in zip(*plane.basis))
    assert plane.coords_of(theta) == (s, t)
    with pytest.raises(InputError):
        plane.coords_of((1, 0, 0))


def test_numerical_walls_small_goldens():
    assert numerical_walls((1, 0, 0)) == []
    w = numerical_walls((1, 1, 0))
    assert len(w) == 1  # both unit subvectors cut the same line in the plane
    assert w[0].witnesses == ((0, 1, 0), (1, 0, 0))
    assert [x.normal_in_plane for x in numerical_walls((1, 3, 1))] == [
        (1, 0),
        (1, 1),
        (1, 2),
        (1, 3),
        (0, 1),
    ]
    with pytest.raises(InputError):
        numerical_walls((0, 0, 0))
    with pytest.raises(InputError):
        numerical_walls((1, -1, 0))


def test_numerical_walls_structure():
    d = (2, 5, 2)
    walls = numerical_walls(d)
    assert len(walls) == 13
    plane = perp_plane(d)
    assert [e["status"] for e in walls_json(2, "A1")["walls"]] == ["numerical"] * len(walls)
    for w in walls:
        assert w.witness == w.witnesses[0] == min(w.witnesses)
        for dp in w.witnesses:
            assert all(0 <= x <= y for x, y in zip(dp, d))
            # the witness really lies on the wall line, in plane coordinates
            u = theta_pair(plane.basis[0], dp)
            v = theta_pair(plane.basis[1], dp)
            p, q = w.normal_in_plane
            assert p * v - q * u == 0 or (p * u + q * v != 0)
    # lines are pairwise distinct
    assert len({w.normal_in_plane for w in walls}) == len(walls)


# ---------------------------------------------------------------------------
# chambers


def test_chamber_family_coordinates():
    for b in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        r = chamber_membership(theta_b1(2, b), 2, "A1")
        assert r.chamber == "C_P2"
        assert (r.sigma, r.tau) == (1 - b, b)


def test_chamber_boundaries_and_outer_chambers():
    assert chamber_membership(theta_b1(2, 1), 2, "A1").chamber == "theta1_1"
    assert chamber_membership(theta_b1(2, 0), 2, "A1").chamber == "theta1_0"
    assert chamber_membership(theta_b0(3, 0), 3, "A0").chamber == "theta0_0"
    assert chamber_membership(theta_b0(3, 1), 3, "A0").chamber == "theta0_1"

    plus = chamber_membership((-202, 2, 197), 2, "A1")
    assert plus.chamber == "C_plus" and plus.blocking is None
    assert (plus.sigma, plus.tau) == (-1, 101)
    minus = chamber_membership((2, -202, 503), 2, "A1")
    assert minus.chamber == "C_minus"
    assert (minus.sigma, minus.tau) == (101, -1)


def test_chamber_blocked_and_errors():
    blocked = chamber_membership((-8, 2, 3), 2, "A1")
    assert blocked.chamber == "outside"
    assert blocked.blocking is not None and blocked.blocking.witness == (1, 0, 2)
    # opposite cone: beyond both endpoints at once
    anti = chamber_membership([-x for x in theta_b1(2, Fraction(1, 2))], 2, "A1")
    assert anti.chamber == "outside" and anti.blocking is None
    with pytest.raises(InputError):
        chamber_membership((0, 0, 0), 2, "A1")
    with pytest.raises(InputError):
        chamber_membership((1, 1, 1), 2, "A1")  # not perpendicular to (2,5,2)


def ref_blocking(theta, n, heart, walls):
    """The first wall line strictly inside the cone spanned by the endpoint
    ray and the weight, found by solving the 2x2 cone system for both
    directions of the line; None where the weight is beyond no endpoint."""
    d = module_dims(n, heart)
    plane = perp_plane(d)
    st = plane.coords_of(theta)
    c0 = plane.coords_of(family_theta(n, heart, 0))
    c1 = plane.coords_of(family_theta(n, heart, 1))
    det = c0[0] * c1[1] - c0[1] * c1[0]
    sigma = (st[0] * c1[1] - st[1] * c1[0]) / det
    tau = (c0[0] * st[1] - c0[1] * st[0]) / det
    if sigma < 0 < tau:
        ray = c1
    elif tau < 0 < sigma:
        ray = c0
    else:
        return None

    def inside_open_cone(ca, cb, w):
        det = ca[0] * cb[1] - ca[1] * cb[0]
        alpha = (w[0] * cb[1] - w[1] * cb[0]) / det
        beta = (ca[0] * w[1] - ca[1] * w[0]) / det
        return alpha > 0 and beta > 0

    for w in walls:
        p, q = w.normal_in_plane
        if any(inside_open_cone(ray, st, (Fraction(x), Fraction(y))) for x, y in ((-q, p), (q, -p))):
            return w
    return None


@pytest.mark.parametrize("heart", ["A1", "A0"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_chamber_sign_rule_matches_the_cone_rule(n, heart):
    rng = random.Random(10 * n + len(heart))
    d = module_dims(n, heart)
    b0, b1 = perp_plane(d).basis
    walls = numerical_walls(d)

    def weight(s, t):
        return tuple(s * x + t * y for x, y in zip(b0, b1))

    weights = [weight(rng.randint(-30, 30), rng.randint(-30, 30)) for _ in range(150)]
    for w in walls:  # both directions of every wall line, and next to it
        p, q = w.normal_in_plane
        weights += [weight(-q, p), weight(q, -p), weight(-q + rng.choice((-1, 1)), p)]
    blocked = 0
    for theta in weights:
        if theta == (0, 0, 0):
            continue
        got = chamber_membership(theta, n, heart)
        want = ref_blocking(theta, n, heart, walls)
        assert got.blocking == want
        blocked += want is not None
    # the one wall at (n, heart) = (1, A0) blocks no outer weight
    assert blocked or (n, heart) == (1, "A0")


# ---------------------------------------------------------------------------
# reports


def test_walls_json_schema():
    out = walls_json(2, "A1")
    assert out["meta"] == {"seed": 0, "tool": "p2stab", "version": "0.1.0"}
    assert out["class"] == [2, 5, 2]
    assert out["plane_basis"] == [[1, 0, -1], [0, 2, -5]]
    assert len(out["walls"]) == 13
    for w in out["walls"]:
        assert set(w) == {"normal_in_plane", "witness", "witnesses", "status"}
    assert [c["name"] for c in out["chambers"]] == ["C_plus", "C_P2", "C_minus"]
    assert out["adjacency"] == list(ADJACENCY)
    dumps_json(out)  # must serialize cleanly


def test_dumps_json_writes_fractions_and_nothing_else_json_lacks():
    assert dumps_json({"b": Fraction(-3, 4)}) == '{\n  "b": "-3/4"\n}\n'
    # no payload holds a set; one fails like any value JSON has no form for
    for value in ({1, 2}, frozenset(), object()):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            dumps_json({"b": value})


_WALLS_JSON_DIGESTS = {
    (1, "A1"): "3d0957b18546c80127cc745e3b181127d48decac12a5ed92a56dd0e8696b3d1e",
    (2, "A1"): "159c55b4f4d80fa399b4bde8bc90e0f13ed2f8aebec56ac5040ef27ddf390f95",
    (3, "A1"): "d8071b4823cf263dd514a50fa27b0bade8a9cea99e92d3c281e62961bd8029f4",
    (4, "A1"): "1570ee1387141d5af288b24848197b7d868c09b33da931818f954c88acca071a",
    (5, "A1"): "483f13edb57ef591531224e7dae4d04e22c9e89679f3f85b5857efffc7e6ae2d",
    (1, "A0"): "277c3a85c22bfacc380e0e59a16d54597326b7d6d93a18f339b01a1842abfea4",
    (2, "A0"): "5f6fcdc3c3b6268cfc64232c43438bee38bb44fca7c96329a6e277987a1d4553",
    (3, "A0"): "79a252a9bda9cff1c728f45366b65d15db8156278724cdae171845c37d6cf9f8",
    (4, "A0"): "a75b46543eb40deb3d5b8411431067648ea487bbca4cf673c33fb2186aaeb89e",
    (5, "A0"): "d8881f4f0e8e486cf2a6c7d20fd55cbc8007183af2bd3556b0ae2f40def8ef95",
}


@pytest.mark.parametrize("n,heart", sorted(_WALLS_JSON_DIGESTS))
def test_walls_json_bytes_are_pinned(n, heart):
    # `walls enumerate` writes these bytes; the README promises them
    text = dumps_json(walls_json(n, heart))
    assert hashlib.sha256(text.encode()).hexdigest() == _WALLS_JSON_DIGESTS[n, heart]


def test_chamber_structure_constants():
    assert CHAMBER_STRUCTURE[0]["boundary"] == "theta1_1"
    assert CHAMBER_STRUCTURE[2]["label"] == "zeta-contraction"
    assert ADJACENCY[1] == "theta1_1 (Hilbert-Chow)"


_WALL_SVG_DIGESTS = {
    (1, "A0"): "8360a0a19450a485f264e59395607550a17fcb740a257cee1402d25ab8679041",
    (2, "A1"): "52899fcc48cf34f738f23975383da148e01d3f7361f172a2e561cd2dbd3a035e",
    (3, "A1"): "a2e816459cd016c4644d344982ad41a115261530d7fb9438700d398b5686f061",
}


@pytest.mark.parametrize("n,heart", sorted(_WALL_SVG_DIGESTS))
def test_wall_svg_bytes_are_pinned(n, heart):
    # `walls svg` writes these bytes
    text = wall_svg(n, heart)
    assert hashlib.sha256(text.encode()).hexdigest() == _WALL_SVG_DIGESTS[n, heart]


def test_wall_svg_deterministic():
    svg = wall_svg(2, "A1")
    assert svg.startswith("<svg ") and svg.endswith("\n")
    assert svg == wall_svg(2, "A1")
    for label in ("C_plus", "C_P2", "C_minus"):
        assert label in svg
    assert wall_svg(1, "A0") != svg


def test_hilbert_report_single_point():
    rep = hilbert_report(1, [[(1, 2, 3)]])
    assert rep["n"] == 1 and rep["class_A1"] == [1, 3, 1]
    (entry,) = rep["configurations"]
    assert entry["zeta"]["skipped"] is True
    assert entry["hc_filtration"]["factor_dims"] == [[0, 1, 0], [1, 2, 1]]
    assert all(item["verdict"] == "stable" for item in entry["interior"])
    assert entry["dual_across_hc"]["shrink_consistent"]


def test_hilbert_report_groups_and_determinism():
    configs = [
        [(1, 0, 0), (0, 1, 0)],
        [(0, 1, 0), (1, 0, 0)],  # same support, listed in another order
        [(1, 0, 0), (0, 0, 1)],
    ]
    rep = hilbert_report(2, configs)
    assert rep["s_equivalence_groups"] == [[0, 1], [2]]
    ser = dumps_json(rep)
    assert dumps_json(hilbert_report(2, configs)) == ser
    for entry in rep["configurations"]:
        assert entry["zeta"]["at_minus_eps"]["verdict"] == entry["zeta"]["expected"]
        assert entry["zeta"]["shrink_consistent"]


_PINNED_REPORTS = [
    (2, [(1, 2, 3), (2, -1, 1)],
     "27eee3a25641c375fe36c54fa82d8cb27d0baf551962cf504fda194d07979789"),
    (3, [(1, 2, 3), (2, -1, 1), (3, 1, -2)],
     "54550afd7ad0b7775c85b2e34ee5a8da6e1105f726d25621050abd595bb97e23"),
    (3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)],
     "b88c0c5074ee332dd3360d931208971cdd97c8e78cbf74263adae6f0fecbe2f4"),
    (4, [(1, 2, 3), (2, -1, 1), (3, 1, -2), (1, 1, 1)],
     "5cd227ffbb0becf25f1990273888ef71d68b21ce4e8d41a9b8efe587d9a27068"),
    (1, [(1, 2, 3)],
     "22ba2cd115d180b87a333283eefb51133cd4b6e8379f23f98da357ac2ba11f47"),
]


@pytest.mark.parametrize("n,config,digest", _PINNED_REPORTS)
def test_hilbert_report_bytes_are_pinned(n, config, digest):
    # a refactor must leave the report bytes as they are; a change that
    # means to alter them updates these digests and says why
    text = dumps_json(hilbert_report(n, [config]))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("n,config,digest", [r for r in _PINNED_REPORTS if r[0] in (2, 3)])
def test_hilbert_report_needs_no_iso_test(monkeypatch, n, config, digest):
    # the support matching reads each factor's point off its arrows
    def refuse(*args, **kwargs):
        raise AssertionError("iso_test called on the report path")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "p2stab" and hasattr(module, "iso_test"):
            monkeypatch.setattr(module, "iso_test", refuse)
    text = dumps_json(hilbert_report(n, [config]))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


_GENERAL = [(1, 2, 3), (2, -1, 1), (3, 1, -2), (1, 1, 1)]


@pytest.mark.parametrize("n,config,digest", _PINNED_REPORTS)
def test_a_report_reads_no_field_arrow(monkeypatch, n, config, digest):
    # a report builds, searches, splits and matches its modules on their
    # integer forms: with the field arrows refused, its bytes are the same
    def refuse(*args):
        raise AssertionError("a field arrow read on the report path")

    monkeypatch.setattr(modules.QuiverRep, "gamma_m", refuse)
    monkeypatch.setattr(modules.QuiverRep, "delta_m", refuse)
    quiver._submodule_dimvecs_impl.cache_clear()
    text = dumps_json(hilbert_report(n, [config]))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("eps", [None, Fraction(2, 5)])
@pytest.mark.parametrize("config", [
    _GENERAL[:1], _GENERAL[:2], _GENERAL[:3], [(1, 0, 0), (0, 1, 0), (1, 1, 0)], _GENERAL,
])
def test_dual_verdicts_match_the_dualized_module(config, eps):
    # the report reads the dual's verdicts off M at reverse_theta(theta);
    # searching the dual of the module it searched, that of the framed
    # points, is the reference
    n = len(config)
    rep = hilbert_report(n, [config], eps=eps)
    got = rep["configurations"][0]["dual_across_hc"]
    e = rep["epsilon"]
    dual = dualize(module_ideal_A1(_frame(config)))
    for key, b in (("at_one_plus_eps", 1 + e), ("at_one_plus_eps_over_10", 1 + e / 10)):
        v = king_test(dual, theta_b1(n, b))
        assert got[key] == {
            "verdict": v.verdict,
            "certainty": v.certainty,
            "witness_dimvec": list(v.witness_dimvec) if v.witness_dimvec else None,
            "evidence": v.search.evidence,
        }


@pytest.mark.parametrize("config,searches", [
    (_GENERAL[:1], 1), (_GENERAL[:2], 3), (_GENERAL[:3], 4), (_GENERAL, 5),
])
def test_a_report_searches_each_module_once(monkeypatch, config, searches):
    # the dual verdicts share M's search, so no second lattice is settled,
    # and the last (0, 1, 0) Jordan-Hoelder factor is not searched at all;
    # the ideal modules are built once, M with one tilt; a module built from
    # field rows has its arrows made integers once, by its constructor
    # (`modules._field_matrix`, one call per arrow), and none that a tilt, a
    # split, a direct sum or a simple built from an integer form
    # (`modules._from_ints`) has field rows made integers at all (counts: the
    # same on every machine)
    n = len(config)
    calls = collections.Counter()
    for name in ("module_ideal_A1", "module_ideal_A0", "tilt_Bprime_to_B"):
        real = getattr(geometry, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for module in (geometry, walls):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    # every module converted or built, kept alive so that no two share an id
    converted, built, matrices = [], [], []
    real_init, real_from_ints = modules.QuiverRep.__init__, modules._from_ints
    real_field_matrix = modules._field_matrix

    def init(rep, *args):
        real_init(rep, *args)
        converted.append(rep)

    def from_ints(*args):
        built.append(real_from_ints(*args))
        return built[-1]

    def field_matrix(*args):
        matrices.append(args)
        return real_field_matrix(*args)

    monkeypatch.setattr(modules.QuiverRep, "__init__", init)
    monkeypatch.setattr(modules, "_from_ints", from_ints)
    monkeypatch.setattr(modules, "_field_matrix", field_matrix)
    quiver._submodule_dimvecs_impl.cache_clear()
    hilbert_report(n, [config])
    assert quiver._submodule_dimvecs_impl.cache_info().misses == searches
    assert [calls[k] for k in ("module_ideal_A1", "tilt_Bprime_to_B", "module_ideal_A0")] == [
        1, 1, int(n > 1)]
    ids = collections.Counter(map(id, converted))
    assert built and not ids.keys() & set(map(id, built))
    assert set(ids.values()) == {1} and len(matrices) == 6 * len(converted)
    # field rows enter only with the points: the rational B'-module and,
    # where A0 is built, each point module, each in its constructor; the
    # direct sum of the point modules, the A0 module and the simple C v_1
    # of the collinearity test are built from integer forms.  So from two
    # points on a report makes 6 (n + 1) `_field_matrix` calls
    assert [rep.field for rep in converted] == [QQ] * len(converted)
    assert sorted(rep.dims for rep in converted) == [(1, 2, 1)] * n * (n > 1) + [(n, n, n - 1)]
    assert len(matrices) == 6 * (1 + n * (n > 1))


def test_hilbert_report_input_checks():
    with pytest.raises(InputError):
        hilbert_report(0, [])
    with pytest.raises(InputError):
        hilbert_report(2, [[(1, 0, 0)]])  # wrong point count
    with pytest.raises(InputError):
        hilbert_report(1, [[(1, 2, 3)]], eps=Fraction(2, 3))


_FIVE = _GENERAL + [(1, -1, 2)]


def test_the_five_point_report_is_pinned_and_exact():
    # in the frame whose points stay distinct mod 2 and mod 3, every
    # verdict of this report squeezes; as written, 1 of its 8 did
    rep = hilbert_report(5, [_FIVE])
    text = dumps_json(rep)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "853b0c1635eecd9848cc50d21a82cbfa0b8cfe0d27e7b24cb2c41be3715180b0")
    verdicts = _verdicts(rep["configurations"][0])
    assert len(verdicts) == 8 and all(v["certainty"] == "exact" for v in verdicts.values())


def _verdicts(entry) -> dict:
    """Every verdict of a report entry, by where it sits."""
    out = {("interior", k): v for k, v in enumerate(entry["interior"])}
    out["hc_boundary"] = entry["hc_boundary"]
    for side in ("zeta", "dual_across_hc"):
        out.update({(side, k): v for k, v in entry[side].items() if isinstance(v, dict)})
    return out


def _moved(rng, config):
    """The configuration shuffled, with every point rescaled, and moved by a
    g in GL3(Z) with entries in [-2, 2]; each with its permutation, the
    input index of each moved point."""
    n = len(config)
    perm = rng.sample(range(n), n)
    while True:
        g = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        if sum(g[0][i] * geometry._cross(g[1], g[2])[i] for i in range(3)):
            break
    scales = [Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2, 7])) for _ in config]
    return [
        ([config[k] for k in perm], perm),
        ([tuple(s * c for c in x) for s, x in zip(scales, config)], list(range(n))),
        ([tuple(sum(a * c for a, c in zip(row, x)) for row in g) for x in config], list(range(n))),
    ]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_exact_verdicts_are_invariant_under_projective_moves(n):
    # a verdict depends on the configuration's PGL3 orbit alone, and the
    # report searches each configuration in a frame of its own choosing:
    # every verdict exact on both sides of a move agrees, and the JH
    # factors' support indices follow the points
    rng = random.Random(f"frame-invariance/{n}")
    config = []
    while len(config) < n:
        x = tuple(rng.randint(-3, 3) for _ in range(3))
        if any(x) and all(any(geometry._cross(x, y)) for y in config):
            config.append(x)
    entry = hilbert_report(n, [config])["configurations"][0]
    base = _verdicts(entry)
    compared = 0
    for moved, perm in _moved(rng, config):
        other = hilbert_report(n, [moved])["configurations"][0]
        assert other["collinear"] == entry["collinear"]
        for key, v in _verdicts(other).items():
            if v["certainty"] == base[key]["certainty"] == "exact":
                assert v["verdict"] == base[key]["verdict"], key
                compared += 1
        assert sorted(perm[k] for k in other["hc_filtration"]["support"]) == sorted(
            entry["hc_filtration"]["support"])
    assert compared >= 3 * len(base) // 2
