"""Representations of the Beilinson quiver of P^2 and its quadric cousin.

The quiver has three vertices v0 <- v1 <- v2 with three arrows gamma_i from
v1 to v0 and three arrows delta_j from v2 to v1.  We work throughout with
*right* modules presented by pullback data: a representation N assigns
spaces N0, N1, N2 and matrices

    gamma*_i : N0 -> N1   (n1 x n0),     delta*_j : N1 -> N2   (n2 x n1).

Two relation ideals occur:

    B  (symmetric):       delta*_j gamma*_i + delta*_i gamma*_j = 0  (i <= j),
    B' (antisymmetric):   delta*_j gamma*_i - delta*_i gamma*_j = 0  (i < j).

Modules over B are the quiver side of the tilted heart A_1, modules over B'
of the heart A'_1; the two tilt functors below move between them.  This is
the module algebra: the modules, their JSON, relations, submodules and
quotients, Hom and isomorphy, duality, the tilts and the weights.  It
imports no search; King stability, the submodule search and Jordan-Hoelder
filtrations are `quiver`'s.
"""
from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from .errors import InputError, VerificationError
from .io_utils import format_fraction, parse_json_int
from .ktheory import as_triple
from . import linalg
from .linalg import QQ, field_from_json, right_kernel, transpose

ALGEBRAS = ("B", "Bprime")

#: the relations of each algebra, named by their arrow pair (i, j) and in
#: that order, as signed terms (c, j, i), each c delta_j gamma_i: delta_j
#: gamma_i + sign delta_i gamma_j for i < j, sign 1 over B and -1 over B'.
#: For "B" a diagonal pair (i, i) is delta_i gamma_i = 0 itself, not the
#: i = j case of the symmetric relations, which is twice it and vanishes
#: mod 2 whatever the arrows are
_RELATIONS = {
    algebra: {(i, j): ((1, j, i),) if i == j else ((1, j, i), (sign, i, j)) for i, j in pairs}
    for algebra, sign, pairs in (
        ("B", 1, itertools.combinations_with_replacement(range(3), 2)),
        ("Bprime", -1, itertools.combinations(range(3), 2)),
    )
}

DimVec = Tuple[int, int, int]
#: a subspace triple (U0, U1, U2): integer rows spanning each space, reduced
#: mod p over GF(p); `linalg.int_rows_to_field` of a canonical basis gives
#: the field's rref
SubTriple = Tuple[tuple, tuple, tuple]


#: one side of a module's integer form: three integer matrices N, tuples of
#: row tuples, and the rational scale t with each arrow t N
Side = Tuple[tuple, Fraction]


@dataclass(frozen=True, init=False)
class QuiverRep:
    """A finite-dimensional right module, stored as its integer form.

    ``sides`` holds one pair (Ns, t) for the three gammas (n1 x n0) and one
    for the three deltas (n2 x n1): integer matrices N, tuples of row
    tuples, and one scale t with each arrow t N.  The pair is canonical
    (`_side_form`): over Q the N have no common factor and t > 0, or they
    are zero and t = 0; over GF(p) their entries lie in [0, p) and t = 1.
    So two modules are equal, and hash alike, exactly when their arrows
    are, and the field arrows ``gamma`` and ``delta`` are read back from
    the pairs (`linalg.field_form`).  The constructor converts field
    entries once, where points or JSON come in; the module algebra builds
    modules straight from integer forms (`_from_ints`), and field rows leave
    only through `rep_to_json` and ``gamma``/``delta``.  Immutable, and
    nothing is added to it once built.
    """

    algebra: str
    field: object
    dims: DimVec
    sides: Tuple[Side, Side]

    def __init__(self, algebra: str, field, dims: Sequence[int], gamma, delta):
        if algebra not in ALGEBRAS:
            raise InputError(f"unknown algebra {algebra!r}")
        if not (isinstance(dims, Sequence) and len(dims) == 3
                and all(isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in dims)):
            raise InputError(f"dims must be three non-negative integers, not {dims!r}")
        n0, n1, n2 = dims
        if len(gamma) != 3 or len(delta) != 3:
            raise InputError("three gamma and three delta arrows required")
        sides = tuple(_side_form(field, [_field_matrix(field, A, nt, ns) for A in side])
                      for side, nt, ns in ((gamma, n1, n0), (delta, n2, n1)))
        vars(self).update(algebra=algebra, field=field, dims=(n0, n1, n2), sides=sides)

    # -- the field arrows, read off the integer form ------------------------

    def gamma_m(self, i: int):
        (Ns, t), _ = self.sides
        return linalg.field_form(self.field, Ns[i], t)

    def delta_m(self, j: int):
        _, (Ns, t) = self.sides
        return linalg.field_form(self.field, Ns[j], t)

    @property
    def gamma(self) -> tuple:
        return tuple(tuple(map(tuple, self.gamma_m(i))) for i in range(3))

    @property
    def delta(self) -> tuple:
        return tuple(tuple(map(tuple, self.delta_m(j))) for j in range(3))

    def total_dim(self) -> int:
        return sum(self.dims)

    def __repr__(self) -> str:
        return f"QuiverRep({self.algebra}, {self.field!r}, dims={self.dims})"


def rep_to_json(rep: QuiverRep) -> dict:
    def flat(M):
        return [format_fraction(x) for row in M for x in row]

    return {
        "algebra": rep.algebra,
        "field": rep.field.to_json(),
        "dims": list(rep.dims),
        "gamma": [flat(M) for M in rep.gamma],
        "delta": [flat(M) for M in rep.delta],
    }


#: the largest dimension a module file may give a vertex.  The modules the
#: program builds from at most `cli.MAX_N` points fit, the largest being
#: ideal-A1's (30, 61, 30).  A stated dimension costs work and memory that
#: the file's bytes do not bound: a vertex of dimension N beside one of
#: dimension 0 has no entries but N empty rows, and `module jh` on the
#: zero-arrow module of dims (0, 0, 64) already takes about a second on a
#: 2-core VM
MAX_DIM = 64


def rep_from_json(obj: dict) -> QuiverRep:
    """Parse the module JSON format; a missing key, a malformed entry or a
    dimension above `MAX_DIM` is invalid input."""

    def unflat(flat, nrows, ncols):
        if len(flat) != nrows * ncols:
            raise InputError("dimension mismatch")
        return [flat[r * ncols : (r + 1) * ncols] for r in range(nrows)]

    try:
        field = field_from_json(obj["field"])
        dims = tuple(parse_json_int(x) for x in obj["dims"])
        n0, n1, n2 = dims
        if max(dims) > MAX_DIM:
            raise InputError(f"module dimension {max(dims)} is above the bound {MAX_DIM}")
        gamma = [unflat(m, n1, n0) for m in obj["gamma"]]
        delta = [unflat(m, n2, n1) for m in obj["delta"]]
        return QuiverRep(obj["algebra"], field, dims, gamma, delta)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed module JSON: {exc!r}") from exc


# ---------------------------------------------------------------------------
# relations


def _field_matrix(F, M, nrows: int, ncols: int) -> list:
    """The entries of an nrows x ncols matrix in the field; any other shape
    is invalid input."""
    if len(M) != nrows or any(len(row) != ncols for row in M):
        raise InputError("dimension mismatch")
    return [list(map(F.convert, row)) for row in M]


def _side_form(F, Ns, t=1) -> Side:
    """The canonical integer form (`QuiverRep`) of a side whose arrows are
    t N_k, for matrices N_k over the field or the integers and a positive
    rational t: the `linalg.int_form` of the N_k stacked, cut back into
    three matrices of tuples, and t times its scale (0 on a zero side; 1
    over GF(p), where every scale is 1 and so is every t the module
    algebra passes, its pivot entries being 1)."""
    ints, s = linalg.int_form(F, [row for N in Ns for row in N])
    n = len(Ns[0])
    return tuple(tuple(map(tuple, ints[k * n : (k + 1) * n])) for k in range(3)), t * s


def _int_arrows(rep: QuiverRep) -> Tuple[tuple, tuple]:
    """The gammas and the deltas of the integer form (`QuiverRep.sides`);
    each is its arrow times a positive rational, which keeps every image,
    kernel and span the searches use."""
    (gammas, _), (deltas, _) = rep.sides
    return gammas, deltas


def check_relations(rep: QuiverRep) -> Tuple[bool, Optional[Tuple[int, int]]]:
    """(True, None) if all relations hold, else (False, first bad (i, j)).

    A relation (`_RELATIONS`) is bilinear in the gammas and the deltas, so
    it vanishes iff it does on the integer form, where all gammas are scaled
    by one positive rational and all deltas by another (`_int_arrows`):
    then it is a signed sum of integer products, checked for zero (mod p
    over GF(p))."""
    gammas, deltas = _int_arrows(rep)
    n0, p = rep.dims[0], rep.field.p
    for pair, terms in _RELATIONS[rep.algebra].items():
        products = [[c * x for row in linalg.int_mat_mul(deltas[j], gammas[i], n0) for x in row]
                    for c, j, i in terms]
        values = map(sum, zip(*products))
        if any(values if p is None else (x % p for x in values)):
            return (False, pair)
    return (True, None)


def require_relations(rep: QuiverRep) -> QuiverRep:
    ok, bad = check_relations(rep)
    if not ok:
        raise VerificationError(f"relations violated at arrow pair {bad}")
    return rep


# ---------------------------------------------------------------------------
# building blocks


def simple(algebra: str, vertex: int, field=QQ) -> QuiverRep:
    """The vertex simple C v_i (all arrows zero), built from its zero
    integer form (`_from_ints`)."""
    vertex = parse_json_int(vertex)
    if algebra not in ALGEBRAS or vertex not in (0, 1, 2):
        raise InputError(f"no simple module at vertex {vertex} over {algebra!r}")
    dims = tuple(int(v == vertex) for v in range(3))
    zero = [([[[0] * dims[s]] * dims[s + 1]] * 3, 1) for s in (0, 1)]
    return _from_ints(algebra, field, dims, *zero)


def direct_sum(*reps: QuiverRep) -> QuiverRep:
    """The direct sum of one or more modules, from their integer forms: each
    side the block diagonal of the summands' matrices N_r, brought to one
    scale g by the integers k_r with t_r = g k_r (the `linalg.int_form` of
    the scales t_r; over GF(p) every t_r, k_r and g is 1), so that the sum's
    arrows are g times the blocks k_r N_r (`_from_ints`)."""
    if not reps:
        raise InputError("a direct sum needs a summand")
    algebra, field = reps[0].algebra, reps[0].field
    if any(r.algebra != algebra or r.field != field for r in reps):
        raise InputError("summands live over different algebras or fields")
    dims = tuple(map(sum, zip(*(r.dims for r in reps))))
    sides = []
    for s in (0, 1):
        (ks,), g = linalg.int_form(QQ, [[r.sides[s][1] for r in reps]])
        starts = list(itertools.accumulate((r.dims[s] for r in reps), initial=0))
        sides.append(([[[0] * a + [k * x for x in row] + [0] * (dims[s] - a - r.dims[s])
                        for r, k, a in zip(reps, ks, starts) for row in r.sides[s][0][i]]
                       for i in range(3)], g))
    return _from_ints(algebra, field, dims, *sides)


# ---------------------------------------------------------------------------
# subspace triples


def _unit(n: int, c: int) -> List[int]:
    return [int(k == c) for k in range(n)]


def _image(rows, arrows) -> List[List[int]]:
    """Integer rows spanning the sum of the images of span(rows) under the
    arrows: A u for each arrow A and each row u, one dot product per row
    of A."""
    return [[sum(map(operator.mul, a, u)) for a in A] for A in arrows for u in rows]


def _arrow_images(rep: QuiverRep, spans) -> Tuple[List[List[int]], List[List[int]]]:
    """The images of U0's canonical basis under the gammas and of U1's under
    the deltas (`_image`: arrow by arrow, then row by row)."""
    gammas, deltas = _int_arrows(rep)
    return _image(spans[0][0], gammas), _image(spans[1][0], deltas)


def _invariant(F, spans, images) -> bool:
    """Whether the arrows map U0 into U1 and U1 into U2, given the canonical
    spans and their `_arrow_images`: every image reduces to zero against
    its target."""
    return not any(
        any(r) for (W, piv), rows in zip(spans[1:], images)
        for r in linalg.int_residues(F, W, piv, rows)
    )


def quotient_by(rep: QuiverRep, triple: SubTriple) -> QuiverRep:
    """The quotient module, in the complement-coordinate basis: at each
    vertex the surviving coordinates are the non-pivot columns of the
    subspace's rref basis ("drop the pivot coordinates after reducing")."""
    return _split(rep, triple)[1]


def _from_ints(algebra: str, F, dims: DimVec, gammas, deltas) -> QuiverRep:
    """The module whose gammas, and whose deltas, are given as one pair
    (Ns, t): integer matrices N times the positive rational t.  Each pair is
    normalized to the canonical one (`_side_form`) and stored as it is, with
    no field matrix formed and no input check: the module algebra that
    calls this builds well-shaped matrices."""
    rep = object.__new__(QuiverRep)
    vars(rep).update(algebra=algebra, field=F, dims=dims,
                     sides=(_side_form(F, *gammas), _side_form(F, *deltas)))
    return rep


def _split(rep: QuiverRep, triple: SubTriple) -> Tuple[QuiverRep, QuiverRep]:
    """The submodule carried by a subspace triple and the quotient by it, from
    one canonical integer span per vertex and one invariance check; a triple
    that is not invariant is invalid input.

    Every arrow A of a side is t G, G its integer matrix and t the side's
    scale (`QuiverRep.sides`).  The submodule's basis is the rref rows of the
    spans, u_b = U_b / q_b (U_b canonical, q_b its pivot entry); A u_b lies
    in the target span, so its coordinates are its entries at the target's
    pivots, t (G U_b)[c] / q_b.  The quotient keeps the non-pivot coordinates at
    each vertex; its arrow sends a kept source coordinate c to t G e_c
    reduced against the target span (`linalg.int_residues`, which scales by
    L), at the target's kept coordinates.  Both modules are built from
    these integer forms (`_from_ints`), with no field matrix in between."""
    F = rep.field
    spans = [linalg.int_span(F, U, n) for U, n in zip(triple, rep.dims)]
    images = _arrow_images(rep, spans)
    if not _invariant(F, spans, images):
        raise InputError("not a submodule")
    comps = [[c for c in range(n) if c not in piv] for (_, piv), n in zip(spans, rep.dims)]
    sub, quo = [], []
    for s, (Ns, t) in enumerate(rep.sides):
        U, W, piv = spans[s][0], spans[s + 1][0], spans[s + 1][1]
        q = [next(x for x in u if x) for u in U]
        Lq = math.lcm(*q)
        L = math.lcm(*[w[c] for w, c in zip(W, piv)])
        sub.append(([], t / Lq))
        quo.append(([], t / L))
        for k, G in enumerate(Ns):
            rows = images[s][k * len(U) : (k + 1) * len(U)]
            sub[s][0].append([[u[c] * (Lq // qb) for u, qb in zip(rows, q)] for c in piv])
            res = linalg.int_residues(F, W, piv, [[g[c] for g in G] for c in comps[s]])
            quo[s][0].append([[r[c] for r in res] for c in comps[s + 1]])
    return (
        _from_ints(rep.algebra, F, tuple(len(R) for R, _ in spans), *sub),
        _from_ints(rep.algebra, F, tuple(map(len, comps)), *quo),
    )


# ---------------------------------------------------------------------------
# hom spaces and isomorphy


def _linear_system(shapes, equations) -> Tuple[List[list], Callable[[Sequence], List[list]]]:
    """The rows of a homogeneous linear system sum c L X_k R = 0 in unknown
    matrices X_k of the given ``shapes`` (rows, columns), laid out row-major
    one after another, and ``unpack``, which cuts a solution vector back
    into the matrices.  Each equation is ((m, n), terms), the m x n matrix
    sum of its terms (c, L, k, R), exactly one of L and R the identity
    (None); it gives one row per entry (p, q), in which c L X_k has
    coefficient c L[p][x] at X_k[x][q] and c X_k R has c R[x][q] at
    X_k[p][x]."""
    starts = list(itertools.accumulate((r * c for r, c in shapes), initial=0))
    rows: List[list] = []
    for (m, n), terms in equations:
        for p, q in itertools.product(range(m), range(n)):
            row = [0] * starts[-1]
            for c, L, k, R in terms:
                width = shapes[k][1]
                if R is None:
                    for x, y in enumerate(L[p]):
                        row[starts[k] + x * width + q] += c * y
                else:
                    for x in range(width):
                        row[starts[k] + p * width + x] += c * R[x][q]
            rows.append(row)

    def unpack(vec):
        return [[vec[start + r * c : start + (r + 1) * c] for r in range(nrows)]
                for start, (nrows, c) in zip(starts, shapes)]

    return rows, unpack


#: the largest unknowns x max(unknowns, equations) `hom_space` accepts: its
#: linear system has unknowns x equations entries and the basis of its
#: kernel up to unknowns^2, and `iso_test` combines that basis in work of
#: the same size.  The zero-arrow module of dims (24, 24, 24), 1,728
#: unknowns in 3,456 equations, fits; so does ideal-A1 of up to 16 points.
#: On a 2-core VM `module iso` takes 15 s on the former, and 23 s on the
#: zero-arrow (0, 49, 0), whose 2,401 unknowns meet no equation
_HOM_BOUND = 6_000_000


def hom_space(a: QuiverRep, b: QuiverRep) -> List[Tuple]:
    """Basis of Hom(a, b): triples (f0, f1, f2) with f1 gamma^a = gamma^b f0
    and f2 delta^a = delta^b f1, the kernel of the Euler complex's first
    map d0: f_t M^a - M^b f_s for each arrow M from vertex s to t = s + 1.
    A system above `_HOM_BOUND` is invalid input, refused before any row
    is built."""
    if a.algebra != b.algebra or a.field != b.field:
        raise InputError("modules live over different algebras or fields")
    equations = []
    for s, ((Ns_a, t_a), (Ns_b, t_b)) in enumerate(zip(a.sides, b.sides)):
        # t_a, t_b = g k_a, g k_b: the equations over g have the same kernel
        (k_a, k_b), = linalg.int_form(QQ, [[t_a, t_b]])[0]
        equations += [((b.dims[s + 1], a.dims[s]), [(k_a, None, s + 1, N_a), (-k_b, N_b, s, None)])
                      for N_a, N_b in zip(Ns_a, Ns_b)]
    nvars = sum(map(operator.mul, a.dims, b.dims))
    neqs = sum(m * n for (m, n), _ in equations)
    if nvars * max(nvars, neqs) > _HOM_BOUND:
        raise InputError(
            f"Hom of modules of dims {a.dims} and {b.dims} has {nvars} unknowns in "
            f"{neqs} equations, above the bound of {_HOM_BOUND} on unknowns x "
            "max(unknowns, equations)"
        )
    rows, unpack = _linear_system(list(zip(b.dims, a.dims)), equations)
    return [tuple(unpack(v)) for v in right_kernel(a.field, rows, ncols=nvars)]


@dataclass(frozen=True)
class IsoResult:
    isomorphic: bool
    certainty: str  # "exact" | "probabilistic"
    failure_bound: Optional[float]
    witness: Optional[Tuple] = None

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.isomorphic


#: the most coefficient vectors `iso_test` tries to decide exactly
_ISO_EXACT_BOUND = 4096
#: the random combinations `iso_test` tries past that bound
_ISO_SAMPLES = 20


def iso_test(a: QuiverRep, b: QuiverRep, seed: int = 0) -> IsoResult:
    """Isomorphy via an invertible intertwiner.

    With h_1, ..., h_h a basis of Hom(a, b) and deg = dim a, the combination
    sum c_k h_k is invertible iff P(c) = det f0 det f1 det f2 != 0, and P
    has degree deg.  Let S = {0, ..., min(deg, p - 1)} (p = infinity over
    Q).  If p <= deg + 1, S^h is all of F_p^h; otherwise a nonzero P, of
    degree deg < |S|, cannot vanish on all of S^h.  So trying every c in
    S^h decides isomorphy exactly, and it is done whenever |S|^h is at most
    `_ISO_EXACT_BOUND`.  Past the bound random combinations are tried: a
    found invertible one is a proof, failure to find one is only
    probabilistic, with the Schwartz-Zippel failure bound reported (never
    silent).
    """
    if a.dims != b.dims or a.field != b.field or a.algebra != b.algebra:
        return IsoResult(False, "exact", None)
    deg = a.total_dim()
    if deg == 0:
        return IsoResult(True, "exact", None, ((), (), ()))
    F = a.field
    homs = hom_space(a, b)
    if not homs:
        return IsoResult(False, "exact", None)
    size = deg + 1 if F.p is None else min(deg + 1, F.p)  # |S|
    exact = size ** len(homs) <= _ISO_EXACT_BOUND
    if exact:  # all of S^h but its first vector, zero
        tries = itertools.islice(itertools.product(range(size), repeat=len(homs)), 1, None)
    else:
        rng = random.Random(seed)
        tries = ([rng.randrange(F.p or 1 << 31) for _ in homs] for _ in range(_ISO_SAMPLES))
    for coeffs in tries:
        fs = tuple(
            [[F.convert(sum(c * h[v][r][q] for c, h in zip(coeffs, homs))) for q in range(n)]
             for r in range(n)]
            for v, n in enumerate(a.dims)
        )
        if all(linalg.rank(F, M) == n for M, n in zip(fs, a.dims)):
            return IsoResult(True, "exact", None, fs)
    if exact:
        return IsoResult(False, "exact", None)
    return IsoResult(False, "probabilistic", min(1.0, deg / (F.p or 1 << 31)) ** _ISO_SAMPLES)


# ---------------------------------------------------------------------------
# duality


def dualize(rep: QuiverRep) -> QuiverRep:
    """The linear dual with reversed grading: vertex i of N* carries the
    dual of vertex 2 - i of N; arrows act by transposes, no sign twists.

    gamma*_i on N* is (delta*_i of N)^T and delta*_j on N* is
    (gamma*_j of N)^T; both relation ideals are preserved.  On the integer
    form: the transposed matrices, the two scales swapped.
    """
    n0, n1, n2 = rep.dims
    (gammas, tg), (deltas, td) = rep.sides
    return _from_ints(rep.algebra, rep.field, (n2, n1, n0),
                      ([transpose(D, ncols=n1) for D in deltas], td),
                      ([transpose(G, ncols=n0) for G in gammas], tg))


def reverse_theta(theta: Sequence) -> Tuple[Fraction, Fraction, Fraction]:
    """The weight matching duality: (t0, t1, t2) -> (-t2, -t1, -t0)."""
    t0, t1, t2 = as_triple(theta)
    return (-t2, -t1, -t0)


# ---------------------------------------------------------------------------
# tilting between B and B'


def tilt_B_to_Bprime(rep: QuiverRep) -> QuiverRep:
    """Carry a B-module N to the B'-module M with M0 = N0, M1 = N2 and
    M2 = coker(delta_V), where delta_V : N1 -> N2^3 stacks the deltas.

    Requires delta_V injective; otherwise the object leaves the target
    module category.
    """
    if rep.algebra != "B":
        raise InputError("tilt_B_to_Bprime expects a B-module")
    F = rep.field
    n0, n1, n2 = rep.dims
    # image of delta_V inside F^{3 n2}, as a row space: the columns of the
    # stacked deltas
    (gammas, tg), (deltas, td) = rep.sides
    img, img_piv = linalg.int_rref(F, [[row[b] for A in deltas for row in A] for b in range(n1)])
    if len(img) < n1:
        raise InputError("object leaves mod-B' (theta1 >= 0 regime)")
    comp = [c for c in range(3 * n2) if c not in img_piv]
    L = math.lcm(*[w[c] for w, c in zip(img, img_piv)])
    # gamma_i is delta_{i+1} gamma_{i+2}
    gamma_M = [linalg.int_mat_mul(deltas[(i + 1) % 3], gammas[(i + 2) % 3], n0) for i in range(3)]
    # delta_j sends the c-th basis vector of M1 = N2 to the class of the
    # unit vector e_{j n2 + c} in the cokernel
    delta_M = []
    for j in range(3):
        res = linalg.int_residues(F, img, img_piv, [_unit(3 * n2, j * n2 + c) for c in range(n2)])
        delta_M.append([[r[k] for r in res] for k in comp])
    return require_relations(  # tg td is the scale of every product
        _from_ints("Bprime", F, (n0, n2, len(comp)), (gamma_M, tg * td), (delta_M, Fraction(1, L))))


def tilt_Bprime_to_B(rep: QuiverRep) -> Tuple[QuiverRep, Optional[str]]:
    """Carry a B'-module M to the B-module N with N0 = M0, N2 = M1 and
    N1 = ker(delta^V), where delta^V : M1 (x) V -> M2 sums the deltas.

    Always defined; returns (N, flag) where flag warns when delta^V is not
    surjective (the construction then sits outside the generic locus).

    N1 has the basis k_b of ker D, D = [delta_0 delta_1 delta_2], read off
    one elimination of D (`linalg.int_rref_kernel`): k_b is 1 at the b-th
    free column f_b of D's rref and 0 at the others, so the coordinates of
    any w in ker D are its entries at the free columns.  gamma_i sends e_a
    to the w in F^{3 m1} with block i+2 the column a of gamma_{i+1}, block
    i+1 minus that of gamma_{i+2} and block i zero; D w is then the
    B'-relation of the pair {i+1, i+2} at e_a, so every such w lies in ker D
    (has coordinates) iff the relations hold.
    """
    if rep.algebra != "Bprime":
        raise InputError("tilt_Bprime_to_B expects a B'-module")
    F = rep.field
    m0, m1, m2 = rep.dims
    (gammas, t), (deltas, _) = rep.sides
    D = [[x for A in deltas for x in A[r]] for r in range(m2)]
    R, piv = linalg.int_rref(F, D)
    K = linalg.int_rref_kernel(F, R, piv, 3 * m1)
    free = [f for f in range(3 * m1) if f not in piv]
    n1 = len(free)
    flag = None
    if len(R) < m2:
        flag = "non-generic (dim N1 > 3*dim M1 - dim M2)"
    if not check_relations(rep)[0]:
        raise VerificationError("tilt image escaped the kernel; relations must be broken")

    # the w of gamma_i at f, for every a, on the integer gammas
    def coordinate(i, f):
        j, r = divmod(f, m1)
        if j == (i + 2) % 3:
            return list(gammas[(i + 1) % 3][r])
        if j == (i + 1) % 3:
            return [-x for x in gammas[(i + 2) % 3][r]]
        return [0] * m0

    gamma_N = [[coordinate(i, f) for f in free] for i in range(3)]
    # k_b as a field vector is K_b / K_b[f_b]; with L the lcm of those
    # entries, delta_j is its integer block times L / K_b[f_b], over L
    L = math.lcm(*[k[f] for k, f in zip(K, free)])
    delta_N = [[[k[j * m1 + r] * (L // k[f]) for k, f in zip(K, free)] for r in range(m1)]
               for j in range(3)]
    rep = _from_ints("B", F, (m0, n1, m1), (gamma_N, t), (delta_N, Fraction(1, L)))
    return require_relations(rep), flag


# ---------------------------------------------------------------------------
# stability weights


def theta_pair(theta: Sequence, dims: Sequence) -> Fraction:
    return sum(map(operator.mul, as_triple(theta), as_triple([parse_json_int(d) for d in dims])))


def theta_transform(theta: Sequence) -> Tuple[Fraction, Fraction, Fraction]:
    """Rewrite an A_1-side weight in the A'_1 dimension-vector coordinates:
    (t0, t1, t2) -> (t0, 3 t1 + t2, -t1).

    This is precomposition with the base change that expresses the A'_1
    simples in the A_1 basis, so evaluation against dimension vectors is
    unchanged objectwise.
    """
    t0, t1, t2 = as_triple(theta)
    return (t0, 3 * t1 + t2, -t1)


# ---------------------------------------------------------------------------
# random relation-satisfying modules (for tests and calibration)


def random_rep(algebra: str, field, dims: Sequence[int], rng: random.Random) -> QuiverRep:
    """A random module: random gammas, then deltas sampled from the kernel
    of the relation system (which is linear in delta once gamma is fixed)."""
    n0, n1, n2 = map(parse_json_int, dims)

    def rand_entry():
        return rng.randrange(field.p) if field.p else rng.randint(-3, 3)

    gamma = [[[rand_entry() for _ in range(n0)] for _ in range(n1)] for _ in range(3)]
    # delta_j is the unknown X_j; each relation's terms c delta_j gamma_i vanish
    equations = [((n2, n0), [(c, None, j, gamma[i]) for c, j, i in terms])
                 for terms in _RELATIONS[algebra].values()]
    rows, unpack = _linear_system([(n2, n1)] * 3, equations)
    nvars = 3 * n2 * n1
    basis = right_kernel(field, rows, ncols=nvars)
    coeffs = [rand_entry() for _ in basis]
    delta = unpack([sum(c * v[k] for c, v in zip(coeffs, basis)) for k in range(nvars)])
    return require_relations(QuiverRep(algebra, field, (n0, n1, n2), gamma, delta))
