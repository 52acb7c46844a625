"""The package's acceptance battery.

Thirteen numbered criteria, each an independent end-to-end check of one
advertised capability, shared between the pytest suite and the ``p2stab
selftest`` command.  Every criterion function returns (passed, detail);
the runner times them and formats one PASS/FAIL line per criterion.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Tuple

from .linalg import QQ, PrimeField, saturated_kernel_basis_3
from .ktheory import A0, A1, A1P, ChernCharacter, dimvec, mukai_pair
from .charge import (
    geom_conditions_abc,
    verify_T_identity,
    z_cha_form,
    z_geometric,
    z_sigma_b,
)
from . import quiver
from .modules import (
    check_relations,
    dualize,
    iso_test,
    random_rep,
    reverse_theta,
    theta_pair,
    theta_transform,
    tilt_B_to_Bprime,
    tilt_Bprime_to_B,
)
from .quiver import king_test, s_equiv, submodule_dimvecs
from . import geometry
from .geometry import (
    PointConfig,
    _theta_family,
    bprime_module_points,
    collinear_test,
    composite_lines,
    module_ideal_A0,
    module_ideal_A1,
    module_point,
    theta_b0,
    theta_b1,
    theta_family_r,
)
from .walls import family_consistency, king_theta

Frac = Fraction


# ---------------------------------------------------------------------------
# criterion 1: dimension-vector tables


def criterion_1() -> Tuple[bool, str]:
    """Module dimension vectors of the twist family, all ranks and lengths,
    against the closed-form tables; the whole batch under 1 ms per entry."""
    cases = []
    for r in (1, 2, 3):
        for n in range(1, 6):
            a = ChernCharacter(r, 1, Frac(1, 2) - n)
            cases.append((a, A1, (-(n + 1 - r), -(2 * n + 1), -n)))
            if r == 1:
                cases.append((a, A0, (-n, -2 * n, -(n - 1))))
                cases.append((a, A1P, (-n, -n, -(n - 1))))
    results = [tuple(dimvec(a, h)) for a, h, _ in cases]  # also warms caches
    for (a, h, want), got in zip(cases, results):
        if got != want:
            return (False, f"dimvec({a.triple()}, {h.label()}) = {got}, expected {want}")
    # best of three passes: the budget is about the closed form being O(1),
    # not about interpreter cold-start or scheduler noise
    elapsed = None
    for _ in range(3):
        t0 = time.perf_counter()
        for a, h, _ in cases:
            dimvec(a, h)
        t = time.perf_counter() - t0
        elapsed = t if elapsed is None else min(elapsed, t)
    if elapsed >= 0.001 * len(cases):
        return (False, f"{len(cases)} table entries took {elapsed:.4f}s (budget 1 ms each)")
    return (True, f"{len(cases)} entries exact in {elapsed * 1000:.2f} ms")


# ---------------------------------------------------------------------------
# criterion 2: the two closed forms of the charge agree, and match the
# pairing-with-exponential presentation


def criterion_2() -> Tuple[bool, str]:
    rng = random.Random(2)
    n_samples = 10_000
    for k in range(n_samples):
        r = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
        d = rng.randint(-6, 6)
        s = Frac(rng.randint(-12, 12), 2)
        a = (Frac(r), Frac(d), s)
        b = Frac(rng.randint(-8, 8), rng.randint(1, 8))
        t2 = Frac(rng.randint(1, 8), rng.randint(1, 8))
        can = z_geometric(a, b, t2)
        cha = z_cha_form(a, b, t2)
        if can != cha:
            return (False, f"sample {k}: canonical {can} != rank-form {cha} at b={b}, t2={t2}")
        u = (Frac(1), b, (b * b - t2) / 2)
        w = (Frac(0), Frac(1), b)
        pairing = (mukai_pair(u, a), mukai_pair(w, a))
        if can != pairing:
            return (False, f"sample {k}: pairing form {pairing} != {can}")
    return (True, f"{n_samples} random classes: both closed forms and the pairing form agree exactly")


# ---------------------------------------------------------------------------
# criterion 3: the three positivity conditions, symbolically


class _Poly:
    """A polynomial with rational coefficients in the variables ``names``,
    held as a dict from exponent tuples to nonzero ``Fraction`` coefficients.

    It is the exact ring arithmetic the two symbolic criteria need: ``+``,
    ``-`` and ``*`` with numbers on either side, ``==`` as equality after
    cancellation, the degree in one variable and the substitution of a
    number for one variable.
    """

    __slots__ = ("names", "terms")

    def __init__(self, names: Tuple[str, ...], terms: dict):
        self.names = names
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def symbols(cls, *names: str) -> Tuple["_Poly", ...]:
        """The variables themselves, one polynomial per name."""
        units = [tuple(int(i == j) for j in range(len(names))) for i in range(len(names))]
        return tuple(cls(names, {e: Frac(1)}) for e in units)

    def _lift(self, other) -> "_Poly":
        """``other`` as a polynomial in the same variables; a number is a
        constant."""
        if isinstance(other, _Poly):
            if other.names != self.names:
                raise ValueError(f"variables {other.names} are not {self.names}")
            return other
        return _Poly(self.names, {(0,) * len(self.names): Frac(other)})

    def __add__(self, other) -> "_Poly":
        terms = dict(self.terms)
        for e, c in self._lift(other).terms.items():
            terms[e] = terms.get(e, 0) + c
        return _Poly(self.names, terms)

    __radd__ = __add__

    def __neg__(self) -> "_Poly":
        return _Poly(self.names, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "_Poly":
        return self + -self._lift(other)

    def __rsub__(self, other) -> "_Poly":
        return -self + other

    def __mul__(self, other) -> "_Poly":
        other, terms = self._lift(other), {}
        for e, c in self.terms.items():
            for f, d in other.terms.items():
                g = tuple(x + y for x, y in zip(e, f))
                terms[g] = terms.get(g, 0) + c * d
        return _Poly(self.names, terms)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return not (self - other).terms

    def degree(self, name: str) -> int:
        """The highest power of ``name`` that occurs; -1 for zero."""
        i = self.names.index(name)
        return max((e[i] for e in self.terms), default=-1)

    def subs(self, name: str, value) -> "_Poly":
        """The polynomial with the number ``value`` put for ``name``."""
        i = self.names.index(name)
        terms: dict = {}
        for e, c in self.terms.items():
            f = e[:i] + (0,) + e[i + 1 :]
            terms[f] = terms.get(f, 0) + c * Frac(value) ** e[i]
        return _Poly(self.names, terms)

    def __repr__(self) -> str:
        def term(e, c) -> str:
            mono = "*".join(v if k == 1 else f"{v}**{k}" for v, k in zip(self.names, e) if k)
            if not mono:
                return str(c)
            return mono if c == 1 else "-" + mono if c == -1 else f"{c}*{mono}"

        text = " + ".join(term(e, c) for e, c in sorted(self.terms.items(), reverse=True))
        return text.replace("+ -", "- ") or "0"


def criterion_3() -> Tuple[bool, str]:
    (b,) = _Poly.symbols("b")
    values = ((-b, 0), (-1 + b, 0), (3 - 3 * b, 1))
    a_e, b_e, c_e = geom_conditions_abc(values)
    want = (2 - b, 1, b)
    for got, expect, name in zip((a_e, b_e, c_e), want, "abc"):
        if got != expect:
            return (False, f"condition {name} is {got}, expected {expect}")
    if a_e + c_e != 2 * b_e:
        return (False, "linearity identity a + c = 2b fails")
    # positivity on 0 < b < 1 via endpoint values and degree <= 1
    for expr, name, at0, at1 in ((a_e, "a", 2, 1), (b_e, "b", 1, 1), (c_e, "c", 0, 1)):
        if expr.degree("b") > 1:
            return (False, f"condition {name} is not linear in b")
        if expr.subs("b", 0) != at0 or expr.subs("b", 1) != at1:
            return (False, f"condition {name} endpoints are not ({at0}, {at1})")
    return (True, "conditions are (2-b, 1, b) symbolically; linear and positive on 0 < b < 1")


# ---------------------------------------------------------------------------
# criterion 4: the base-change matrix identity


def criterion_4() -> Tuple[bool, str]:
    for b in (Frac(1, 2), Frac(4, 5), Frac(9, 10)):
        rep = verify_T_identity(b)
        if not rep["ok"]:
            return (False, f"identity fails at b={b}: {rep}")
        if rep["ox_image"] != (Frac(-1), Frac(0)):
            return (False, f"point charge maps to {rep['ox_image']} at b={b}, expected (-1, 0)")
    frozen = verify_T_identity(Frac(1, 2))
    expect_rhs = [
        [Frac(1), Frac(1, 2), Frac(0)],
        [Frac(0), Frac(1, 2), Frac(1, 4)],
    ]
    if [list(r) for r in frozen["rhs"]] != expect_rhs:
        return (False, f"frozen right-hand side mismatch at b=1/2: {frozen['rhs']}")
    return (True, "full 2x3 identity and point-charge image exact at b = 1/2, 4/5, 9/10")


# ---------------------------------------------------------------------------
# criterion 5: the King weight of the charge is the displayed family


def criterion_5() -> Tuple[bool, str]:
    checked = 0
    for n in range(1, 6):
        for r in (1, 2, 3):
            mclass = (n + 1 - r, 2 * n + 1, n)
            for k in range(1, 21):
                b = Frac(k, 21)
                got = king_theta(z_sigma_b(b), mclass)
                want = theta_family_r(n, r, b)
                if got != want:
                    return (False, f"n={n}, r={r}, b={b}: {got} != {want}")
                if theta_pair(got, mclass) != 0:
                    return (False, f"family does not annihilate the class at n={n}, r={r}, b={b}")
                checked += 1
    return (True, f"{checked} samples: induced weight equals the displayed family exactly")


# ---------------------------------------------------------------------------
# criterion 6: coherence of the two families, and the weight transport


def criterion_6() -> Tuple[bool, str]:
    for n in range(1, 7):
        for k in range(1, 51):
            out = family_consistency(n, Frac(k, 51))
            if not out["ok"]:
                return (False, f"family consistency fails at n={n}, b={k}/51: {out}")

    bs, ns, rs = _Poly.symbols("b", "n", "r")
    mclass = (ns + 1 - rs, 2 * ns + 1, ns)
    if sum(f * m for f, m in zip(_theta_family(ns, rs, bs), mclass)) != 0:
        return (False, "symbolic annihilation identity fails")

    for n in range(1, 7):
        if theta_transform(theta_b1(n, 1)) != (Frac(-n), Frac(n), Frac(0)):
            return (False, f"boundary weight transport wrong at n={n}")
    cols = ((1, 0, 0), (0, 3, 1), (0, -1, 0))
    rng = random.Random(6)
    for _ in range(50):
        theta = tuple(Frac(rng.randint(-9, 9)) for _ in range(3))
        vprime = tuple(rng.randint(-5, 5) for _ in range(3))
        mapped = tuple(sum(vprime[i] * cols[i][j] for i in range(3)) for j in range(3))
        lhs = theta_pair(theta_transform(theta), vprime)
        rhs = theta_pair(theta, mapped)
        if lhs != rhs:
            return (False, f"transported weight disagrees with transported class at {theta}, {vprime}")
    return (True, "families agree on shared classes; annihilation symbolic; transport matches base change")


# ---------------------------------------------------------------------------
# criterion 7: the point-module pipeline


def criterion_7() -> Tuple[bool, str]:
    t0 = time.perf_counter()
    rep = module_point((Frac(1), Frac(0), Frac(0)))
    ok, bad = check_relations(rep)
    if not ok:
        return (False, f"point module violates relations at {bad}")
    search = submodule_dimvecs(rep)
    want = frozenset({(0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 2, 1), (1, 2, 1)})
    if search.upper != want:
        return (False, f"submodule classes {sorted(search.upper)}, expected {sorted(want)}")
    if not search.complete:
        return (False, f"point-module search not certified complete ({search.evidence})")
    for k in range(1, 11):
        b = Frac(k, 11)
        theta = king_theta(z_sigma_b(b), (1, 2, 1))
        if theta != (-b, b - 1, 2 - b):
            return (False, f"unexpected weight {theta} at b={b}")
        v = king_test(rep, theta, search=search)
        if v.verdict != "stable" or v.certainty != "exact":
            return (False, f"point module not certified stable at b={b}: {v.verdict} ({v.certainty})")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        return (False, f"pipeline took {elapsed:.2f}s (budget 1 s)")
    return (True, f"relations, exact submodule classes, stability at 10 parameters in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 8: configurations, their filtrations and S-equivalence


def _random_configs(n: int, count: int, rng: random.Random) -> List[PointConfig]:
    """count configs of n points; [0] and [1] share support (rescaled and
    permuted representatives), the rest have fresh random support."""

    def fresh() -> PointConfig:
        while True:
            pts = []
            while len(pts) < n:
                cand = tuple(Frac(rng.randint(-3, 3)) for _ in range(3))
                if all(c == 0 for c in cand):
                    continue
                try:
                    PointConfig(tuple(pts) + (cand,))
                except Exception:
                    continue
                pts.append(cand)
            return PointConfig(tuple(pts))

    base = fresh()
    scales = [Frac(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n)]
    twisted = [tuple(s * c for c in p) for s, p in zip(scales, base.points)]
    twin = PointConfig(tuple(reversed(twisted)))
    out = [base, twin]
    while len(out) < count:
        cfg = fresh()
        if sorted(map(geometry._normalized_point, cfg)) != sorted(map(geometry._normalized_point, base)):
            out.append(cfg)
    return out


def criterion_8() -> Tuple[bool, str]:
    t0 = time.perf_counter()
    rng = random.Random(8)
    notes = []
    for n in (2, 3, 4):
        configs = _random_configs(n, 5, rng)
        factor_want = sorted([(0, 1, 0)] + [(1, 2, 1)] * n)
        for idx, cfg in enumerate(configs):
            m1 = module_ideal_A1(cfg)
            if m1.dims != (n, 2 * n + 1, n):
                return (False, f"n={n} config {idx}: dims {m1.dims}")
            for b in (Frac(1, 4), Frac(1, 2), Frac(3, 4)):
                v = king_test(m1, theta_b1(n, b))
                if not v.semistable:
                    return (False, f"n={n} config {idx}: interior b={b} gave {v.verdict}")
                if v.certainty == "exact" and v.verdict != "stable":
                    return (False, f"n={n} config {idx}: certified only {v.verdict} at b={b}")
            bound = king_test(m1, theta_b1(n, 1))
            if not bound.semistable:
                return (False, f"n={n} config {idx}: boundary gave {bound.verdict}")
            wall = geometry.wall_filtration_data(cfg, "theta1_1")
            if wall["factor_dims"] != factor_want:
                return (False, f"n={n} config {idx}: JH dims {wall['factor_dims']}")
            if None in wall["support"]:
                return (False, f"n={n} config {idx}: a point factor matches no support point")
            if sorted(wall["support"]) != list(range(n)):
                return (False, f"n={n} config {idx}: support {set(wall['support'])} incomplete")
        theta = theta_b1(n, 1)
        m_a, m_b, m_c = (module_ideal_A1(configs[i]) for i in (0, 1, 2))
        if not s_equiv(m_a, m_b, theta):
            return (False, f"n={n}: equal-support twins not S-equivalent")
        if s_equiv(m_a, m_c, theta):
            return (False, f"n={n}: different supports came out S-equivalent")
        notes.append(f"n={n}: 5 configs")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        return (False, f"took {elapsed:.1f}s (budget 60 s)")
    return (True, "; ".join(notes) + f"; filtrations, support matching and S-equivalence in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 9: the collinearity wall


def criterion_9() -> Tuple[bool, str]:
    collinear = (
        PointConfig(((1, 0, 0), (0, 1, 0), (1, 1, 0))),
        PointConfig(((1, 1, 1), (1, 2, 3), (1, 3, 5))),
    )
    general = (
        PointConfig(((1, 0, 0), (0, 1, 0), (0, 0, 1))),
        PointConfig(((1, 1, 1), (1, 2, 4), (1, 3, 5))),
    )
    n = 3
    for eps in (Frac(1, 400), Frac(1, 4000)):
        theta = theta_b0(n, -eps)
        for cfg in collinear:
            if not collinear_test(cfg):
                return (False, f"collinear config read as general: {cfg.points}")
            v = king_test(module_ideal_A0(cfg), theta)
            if v.verdict != "unstable" or v.certainty != "exact":
                return (False, f"collinear config not certifiably destabilized at eps={eps}: {v.verdict}")
            if v.witness_dimvec != (0, 1, 0):
                return (False, f"destabilizing class {v.witness_dimvec}, expected (0, 1, 0)")
        for cfg in general:
            if collinear_test(cfg):
                return (False, f"general config read as collinear: {cfg.points}")
            v = king_test(module_ideal_A0(cfg), theta)
            if not v.semistable:
                return (False, f"general config destabilized at eps={eps}: {v.verdict}")
            if not v.search.complete:
                return (False, f"general-config search not complete ({v.search.evidence})")
    return (True, "collinear triples destabilized by the vertex simple, general ones certified semistable, at both eps")


# ---------------------------------------------------------------------------
# criterion 10: duality


def criterion_10() -> Tuple[bool, str]:
    rng = random.Random(10)
    for n in (1, 2, 3):
        eps = Frac(1, 100 * (n + 1))
        cfgs = _random_configs(n, 2, rng)
        for cfg in cfgs:
            dual = dualize(module_ideal_A1(cfg))
            v = king_test(dual, theta_b1(n, 1 + eps))
            if not v.semistable:
                return (False, f"n={n}: dual module unstable across the boundary: {v.verdict}")

    fields = [PrimeField(2), PrimeField(3), QQ]
    compared = 0
    for k in range(100):
        F = fields[k % 3]
        while True:
            dims = tuple(rng.randint(0, 3) for _ in range(3))
            if 0 < sum(dims) <= 6:
                break
        algebra = "B" if k % 2 == 0 else "Bprime"
        rep = random_rep(algebra, F, dims, rng)
        basis = saturated_kernel_basis_3(list(dims))
        theta = (0, 0, 0)
        while all(x == 0 for x in theta):
            c1, c2 = rng.randint(-2, 2), rng.randint(-2, 2)
            theta = tuple(Frac(c1 * a + c2 * b) for a, b in zip(*basis))
        v = king_test(rep, theta)
        w = king_test(dualize(rep), reverse_theta(theta))
        if v.certainty == "exact" and w.certainty == "exact":
            compared += 1
            if v.verdict != w.verdict:
                return (
                    False,
                    f"sample {k} ({F!r}, dims {dims}): {v.verdict} vs dual {w.verdict} at {theta}",
                )
    if compared < 90:
        return (False, f"only {compared} of 100 samples had exact verdicts on both sides")
    return (True, f"duals semistable across the boundary; verdict invariance on {compared} random modules")


# ---------------------------------------------------------------------------
# criterion 11: composite arrows and the tilt round trip


def criterion_11() -> Tuple[bool, str]:
    rng = random.Random(11)
    count = 0
    for n in (1, 2, 3, 4):
        for _ in range(5):
            cfg = _random_configs(n, 1, rng)[0]
            ok, bad = composite_lines(cfg)
            if not ok:
                return (False, f"composite at arrows {bad} not the expected diagonal for {cfg.points}")
            bp = bprime_module_points(cfg)
            back, flag = tilt_Bprime_to_B(bp)
            if flag is not None:
                return (False, f"tilt of a point module flagged: {flag}")
            there = tilt_B_to_Bprime(back)
            res = iso_test(there, bp)
            if not res.isomorphic:
                return (False, f"tilt round trip not an isomorphism for {cfg.points}")
            count += 1
    return (True, f"{count} configurations: composites diagonal, tilt round trip isomorphic")


# ---------------------------------------------------------------------------
# criterion 12: calibration of the generated layer against enumeration


def criterion_12() -> Tuple[bool, str]:
    # (p, least dim, largest dim, largest total dim): GF(2) with dims <= 4,
    # where Layer 1 seeds every vector and cannot miss, then GF(3), GF(5) and
    # GF(7) with dims 1..5, where it can; all within the Layer-2 cost bound
    draws = [(2, 0, 4, 6)] * 200 + [(p, 1, 5, 15) for _ in range(14) for p in (3, 5, 7)]
    rng = random.Random(12)
    tally = {p: [0, 0, 0] for p in (2, 3, 5, 7)}  # modules, classes, missed
    for k, (p, lo, hi, most) in enumerate(draws):
        field = PrimeField(p)
        while True:
            dims = tuple(rng.randint(lo, hi) for _ in range(3))
            if 0 < sum(dims) <= most and quiver._affordable_primes(dims, field):
                break
        algebra = "B" if k % 2 == 0 else "Bprime"
        rep = random_rep(algebra, field, dims, rng)
        # the whole pool, with no enumerated set to stop it early, so that
        # every candidate's classes are checked against the enumeration
        witnessed = quiver._layer1(rep, 0).keys()
        exact = quiver._layer2_dimvecs(rep)
        if not witnessed <= exact:
            return (False, f"sample {k}: layer 1 produced a non-submodule class")
        counts = tally[p]
        counts[0] += 1
        counts[1] += len(exact)
        counts[2] += len(exact - witnessed)
    for p, (_, total, miss) in tally.items():
        if miss >= 0.05 * total:
            return (False, f"generated layer missed {miss}/{total} classes over GF({p})")
    notes = [f"GF({p}): {m} modules, missed {miss}/{total}" for p, (m, total, miss) in tally.items()]
    return (True, "layer 1 sound; " + "; ".join(notes))


# ---------------------------------------------------------------------------
# registry and runner


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


CRITERIA: List[Tuple[int, str, Callable[[], Tuple[bool, str]]]] = [
    (1, "dimvec-tables", criterion_1),
    (2, "charge-forms-agree", criterion_2),
    (3, "abc-symbolic", criterion_3),
    (4, "T-matrix-identity", criterion_4),
    (5, "king-weight-family", criterion_5),
    (6, "family-coherence", criterion_6),
    (7, "point-module-pipeline", criterion_7),
    (8, "hilbert-configurations", criterion_8),
    (9, "collinearity-wall", criterion_9),
    (10, "duality", criterion_10),
    (11, "tilt-composites", criterion_11),
    (12, "submodule-oracle-calibration", criterion_12),
]

QUICK_NUMBERS = (1, 3, 4, 5, 6, 7)


def _run_one(number: int, name: str, fn: Callable[[], Tuple[bool, str]]) -> CriterionResult:
    t0 = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # honest red: a crash is a failure, not a skip
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CriterionResult(number, name, passed, detail, time.perf_counter() - t0)


def run_quick_pass() -> Tuple[bool, float]:
    """A fresh quick pass with cold submodule caches; returns (ok, seconds)."""
    quiver._submodule_dimvecs_impl.cache_clear()
    t0 = time.perf_counter()
    ok = True
    for number, name, fn in CRITERIA:
        if number in QUICK_NUMBERS:
            ok = ok and _run_one(number, name, fn).passed
    return ok, time.perf_counter() - t0


def run_all(level: str = "full") -> List[CriterionResult]:
    """Run the battery; level "quick" runs the fast subset, "full" runs
    criteria 1-12 and then criterion 13, which times a fresh quick pass
    (< 30 s) and the full pass just made (< 300 s)."""
    if level not in ("quick", "full"):
        raise ValueError(f"unknown level {level!r}")
    selected = [c for c in CRITERIA if level == "full" or c[0] in QUICK_NUMBERS]
    results = [_run_one(*c) for c in selected]
    if level == "full":
        t0 = time.perf_counter()
        quick_ok, quick_secs = run_quick_pass()
        full_secs = sum(r.seconds for r in results)
        passed = quick_ok and quick_secs < 30.0 and full_secs < 300.0
        detail = (
            f"fresh quick pass {'ok' if quick_ok else 'FAILED'} in {quick_secs:.1f}s (budget 30 s); "
            f"criteria 1-12 in {full_secs:.1f}s (budget 300 s)"
        )
        results.append(
            CriterionResult(13, "selftest-timing", passed, detail, time.perf_counter() - t0)
        )
    return results


def format_results(results: List[CriterionResult]) -> List[str]:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  criterion {r.number:>2} {r.name}: {r.detail} [{r.seconds:.2f}s]")
    n_pass = sum(1 for r in results if r.passed)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return lines
