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
of the heart A'_1; the two tilt functors below move between them.  King
stability, submodule enumeration with proved lower and upper sets, and
Jordan-Hoelder filtrations live here as well.
"""
from __future__ import annotations

import collections
import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import InputError, VerificationError
from .io_utils import format_fraction, parse_json_int
from . import linalg
from .linalg import (
    QQ,
    PrimeField,
    field_from_json,
    galois_number,
    iter_subspaces,
    right_kernel,
    transpose,
    zeros,
)

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


def _freeze_matrix(F, M, nrows: int, ncols: int):
    if len(M) != nrows:
        raise InputError("dimension mismatch")
    out = []
    for row in M:
        if len(row) != ncols:
            raise InputError("dimension mismatch")
        out.append(tuple(map(F.convert, row)))
    return tuple(out)


@dataclass(frozen=True)
class QuiverRep:
    """A finite-dimensional right module, given by its pullback matrices.

    Immutable, so its hash and its integer form (`_int_sides`) are each
    computed at most once, when first asked for, and kept on it: the search
    memo hashes a module on every lookup, and every relation check and
    search step reads that form.
    """

    algebra: str
    field: object
    dims: DimVec
    gamma: Tuple  # three (n1 x n0) matrices
    delta: Tuple  # three (n2 x n1) matrices

    def __post_init__(self):
        if self.algebra not in ALGEBRAS:
            raise InputError(f"unknown algebra {self.algebra!r}")
        n0, n1, n2 = self.dims
        if min(n0, n1, n2) < 0:
            raise InputError("negative dimension")
        object.__setattr__(self, "dims", (int(n0), int(n1), int(n2)))
        if len(self.gamma) != 3 or len(self.delta) != 3:
            raise InputError("three gamma and three delta arrows required")
        object.__setattr__(
            self,
            "gamma",
            tuple(_freeze_matrix(self.field, g, n1, n0) for g in self.gamma),
        )
        object.__setattr__(
            self,
            "delta",
            tuple(_freeze_matrix(self.field, d, n2, n1) for d in self.delta),
        )
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_int_form", None)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(
                self, "_hash", hash((self.algebra, self.field, self.dims, self.gamma, self.delta))
            )
        return self._hash

    # -- small conveniences -------------------------------------------------

    def gamma_m(self, i: int):
        return [list(r) for r in self.gamma[i]]

    def delta_m(self, j: int):
        return [list(r) for r in self.delta[j]]

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
        if any(isinstance(s, bool) for s in flat):
            raise InputError("an arrow entry is a boolean, not a number")
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


def _side_form(F, Ns, t=1) -> Tuple[tuple, Fraction]:
    """The integer form of a side whose arrows are t N_k, for matrices N_k
    over the field and a positive rational t: the `linalg.int_form` of the
    N_k stacked, cut back into three matrices of tuples, and t times its
    scale (0 on a zero side; 1 over GF(p), where every scale is 1)."""
    ints, s = linalg.int_form(F, [row for N in Ns for row in N])
    n = len(Ns[0])
    return tuple(tuple(map(tuple, ints[k * n : (k + 1) * n])) for k in range(len(Ns))), t * s


def _int_sides(rep: QuiverRep) -> Tuple[tuple, tuple]:
    """The module's integer form: for the gammas and for the deltas a pair
    (Ns, t), three integer matrices of tuples and one rational scale t with
    each arrow t N (`_side_form`).  Over Q the side scaled to integers with
    no common factor; over GF(p) the arrows as stored, t = 1.  Formed once
    per module and kept on it; a module the module algebra builds keeps the
    one it was built from (`_from_ints`)."""
    if rep._int_form is None:
        form = tuple(_side_form(rep.field, side) for side in (rep.gamma, rep.delta))
        object.__setattr__(rep, "_int_form", form)
    return rep._int_form


def _int_arrows(rep: QuiverRep) -> Tuple[tuple, tuple]:
    """The gammas and the deltas of the integer form (`_int_sides`); each
    is its arrow times a positive rational, which keeps every image, kernel
    and span the searches use."""
    (gammas, _), (deltas, _) = _int_sides(rep)
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
    """The vertex simple C v_i (all arrows zero)."""
    if vertex not in (0, 1, 2):
        raise InputError("vertex must be 0, 1 or 2")
    dims = tuple(1 if v == vertex else 0 for v in range(3))
    n0, n1, n2 = dims
    gamma = [zeros(field, n1, n0) for _ in range(3)]
    delta = [zeros(field, n2, n1) for _ in range(3)]
    return QuiverRep(algebra, field, dims, gamma, delta)


def direct_sum(a: QuiverRep, b: QuiverRep) -> QuiverRep:
    if a.algebra != b.algebra or a.field != b.field:
        raise InputError("summands live over different algebras or fields")

    z = a.field.convert(0)

    def block(M, N, cM, cN):
        return [list(r) + [z] * cN for r in M] + [[z] * cM + list(r) for r in N]

    dims = tuple(x + y for x, y in zip(a.dims, b.dims))
    gamma = [block(a.gamma[i], b.gamma[i], a.dims[0], b.dims[0]) for i in range(3)]
    delta = [block(a.delta[j], b.delta[j], a.dims[1], b.dims[1]) for j in range(3)]
    return QuiverRep(a.algebra, a.field, dims, gamma, delta)


# ---------------------------------------------------------------------------
# subspace triples


def closure(rep: QuiverRep, seeds0=(), seeds1=(), seeds2=()) -> SubTriple:
    """Smallest submodule containing the given field vectors, as the
    canonical integer basis (`linalg.int_rref`) of each space (one pass
    suffices because the quiver is a two-step path)."""
    F = rep.field
    n0, n1, n2 = rep.dims
    gammas, deltas = _int_arrows(rep)
    U0 = linalg.int_span(F, seeds0, n0)[0]
    U1 = linalg.int_rref(F, linalg.int_span(F, seeds1, n1)[0] + _image(U0, gammas))[0]
    U2 = linalg.int_rref(F, linalg.int_span(F, seeds2, n2)[0] + _image(U1, deltas))[0]
    return (U0, U1, U2)


def triple_dims(triple: SubTriple) -> DimVec:
    return tuple(len(u) for u in triple)  # type: ignore[return-value]


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
    (Ns, t): the integer matrices N times the positive rational t.  It keeps
    each pair, in its integer form (`_side_form`), as its `_int_sides`, so
    no relation check or search converts its arrows again."""
    form = (_side_form(F, *gammas), _side_form(F, *deltas))
    rep = QuiverRep(algebra, F, dims, *([linalg.field_form(F, N, t) for N in Ns] for Ns, t in form))
    object.__setattr__(rep, "_int_form", form)
    return rep


def _split(rep: QuiverRep, triple: SubTriple) -> Tuple[QuiverRep, QuiverRep]:
    """The submodule carried by a subspace triple and the quotient by it, from
    one canonical integer span per vertex and one invariance check; a triple
    that is not invariant is invalid input.

    Every arrow A of a side is t G, G its integer matrix and t the side's
    scale (`_int_sides`).  The submodule's basis is the rref rows of the
    spans, u_b = U_b / q_b (U_b canonical, q_b its pivot entry); A u_b lies
    in the target span, so its coordinates are its entries at the target's
    pivots, t (G U_b)[c] / q_b.  The quotient keeps the non-pivot coordinates at
    each vertex; its arrow sends a kept source coordinate c to t G e_c
    reduced against the target span (`linalg.int_residues`, which scales by
    L), at the target's kept coordinates."""
    F = rep.field
    spans = [linalg.int_span(F, U, n) for U, n in zip(triple, rep.dims)]
    images = _arrow_images(rep, spans)
    if not _invariant(F, spans, images):
        raise InputError("not a submodule")
    comps = [[c for c in range(n) if c not in piv] for (_, piv), n in zip(spans, rep.dims)]
    sub, quo = [], []
    for s, (Ns, t) in enumerate(_int_sides(rep)):
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
    equations = [
        ((b.dims[s + 1], a.dims[s]), [(1, None, s + 1, M_a), (-1, M_b, s, None)])
        for s, side_a, side_b in ((0, a.gamma, b.gamma), (1, a.delta, b.delta))
        for M_a, M_b in zip(side_a, side_b)
    ]
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
    (gamma*_j of N)^T; both relation ideals are preserved.
    """
    n0, n1, n2 = rep.dims
    dims = (n2, n1, n0)
    gamma = [transpose(rep.delta_m(i), ncols=n1) for i in range(3)]
    delta = [transpose(rep.gamma_m(j), ncols=n0) for j in range(3)]
    return QuiverRep(rep.algebra, rep.field, dims, gamma, delta)


def reverse_theta(theta: Sequence) -> Tuple[Fraction, Fraction, Fraction]:
    """The weight matching duality: (t0, t1, t2) -> (-t2, -t1, -t0)."""
    t0, t1, t2 = map(QQ.convert, theta)
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
    (gammas, tg), (deltas, td) = _int_sides(rep)
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
    (gammas, t), (deltas, _) = _int_sides(rep)
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
    return sum((QQ.convert(t) * int(d) for t, d in zip(theta, dims)), Fraction(0))


def theta_transform(theta: Sequence) -> Tuple[Fraction, Fraction, Fraction]:
    """Rewrite an A_1-side weight in the A'_1 dimension-vector coordinates:
    (t0, t1, t2) -> (t0, 3 t1 + t2, -t1).

    This is precomposition with the base change that expresses the A'_1
    simples in the A_1 basis, so evaluation against dimension vectors is
    unchanged objectwise.
    """
    t0, t1, t2 = map(QQ.convert, theta)
    return (t0, 3 * t1 + t2, -t1)


# ---------------------------------------------------------------------------
# the layered submodule oracle


@dataclass(frozen=True)
class SubmoduleSearch:
    """Result of the two-layer submodule dimension-vector search.

    The true set T of submodule classes is bounded by two proved sets,
    ``lower <= T <= upper``.  Layer 1 closes a pool of generated submodules
    (kernels, images, cyclic and random closures) under sums and
    intersections; its classes carry explicit witnesses over the base field,
    each the search's own integer bases of a submodule triple (`SubTriple`),
    and form ``lower``.  Layer 2 is an exhaustive enumeration over a finite
    field.  Since (U0, U1, U2) is a submodule iff gamma(U0) <= U1 <=
    delta^-1(U2), it settles the pairs (U0, U2) of outer subspaces in one
    pass over the lattice of F^{n2}, each subspace visiting at most
    (p^{n2} - 1)/(p - 1) covers, or enumerates the middle subspaces U1 when
    F^{n1} has at most as many subspaces as F^{n0} and F^{n2} together.  It
    runs only when that count of subspaces (`_layer2_cost`) is within
    `_LAYER2_COST_BOUND`.  On the module's own
    prime field the enumerated set is exact and is both ``lower`` and
    ``upper``.  A rational module is reduced mod several primes; a saturated
    reduction only gains submodules, so ``upper`` is the box of all
    d <= dims cut down by the mod-p sets of the primes in ``layers``, tried
    in turn up to the first that squeezes.  Layer 1 takes the enumerated
    sets as bounds on the schedule `_layer1` describes, so each is
    enumerated once and reused after Layer 1, and ``witnesses`` is still the
    one of the whole Layer-1 pool.  ``evidence`` names what was enumerated;
    a verdict's certainty is read off ``lower`` and ``upper`` alone
    (`king_test`).
    """

    dims: DimVec
    lower: frozenset
    upper: frozenset
    witnesses: Dict[DimVec, SubTriple]
    evidence: str
    layers: Tuple[str, ...]

    @property
    def complete(self) -> bool:
        """True when the submodule classes are known exactly."""
        return self.lower == self.upper


def _unit(n: int, c: int) -> List[int]:
    return [int(k == c) for k in range(n)]


def _image(rows, arrows) -> List[List[int]]:
    """Integer rows spanning the sum of the images of span(rows) under the
    arrows: A u for each arrow A and each row u, one dot product per row
    of A."""
    return [[sum(map(operator.mul, a, u)) for a in A] for A in arrows for u in rows]


def _preimage(F, arrows, rows, n_src: int, n_tgt: int) -> List[List[int]]:
    """`linalg.int_right_kernel` basis of {x in F^n_src : A x in W for every
    arrow A}, W the span of the canonical (`linalg.int_rref`) basis ``rows``
    in F^n_tgt.  A x lies in W iff every functional w vanishing on W kills
    it, so the preimage is the kernel of the rows w . A."""
    pivots = [next(c for c, x in enumerate(row) if x) for row in rows]
    ann = linalg.int_rref_kernel(F, rows, pivots, n_tgt)
    constraints = [row for A in arrows for row in linalg.int_mat_mul(ann, A, n_src)]
    return linalg.int_right_kernel(F, constraints, n_src)


def _box(dims: DimVec) -> frozenset:
    """Every d <= dims: the bound on the submodule classes that needs no proof."""
    return frozenset(itertools.product(*(range(n + 1) for n in dims)))


def _u1_candidates(rep: QuiverRep, seed: int, cap: int, pair_budget: int) -> Iterator[tuple]:
    """Candidate middle-vertex subspaces, as canonical integer row tuples
    (`linalg.int_rref`: over Q the rref scaled to primitive rows with
    positive pivots, one to one with the rref itself), each yielded once, in
    pool order, as it enters the pool.

    Sources: arrow images and kernels, cyclic spans of coordinate (and, over
    a small prime field, all) vectors, delta-preimages of a pool of
    end-vertex targets, seeded random spans, then sums and intersections of
    earlier candidates under a work budget.  The pool is built lazily: a
    consumer that stops pulling leaves the rest of it unbuilt, and the
    candidates it did pull are the first ones of the whole pool.  A full
    pool pulls no further source.
    """
    F = rep.field
    n0, n1, n2 = rep.dims
    gammas, deltas = _int_arrows(rep)
    pool: Dict[tuple, None] = {}

    def canon(rows) -> tuple:
        return tuple(tuple(r) for r in linalg.int_rref(F, rows)[0])

    def fresh(keys) -> Iterator[tuple]:
        """Admit the canonical ``keys`` in turn, yielding each one that is new
        to the pool; pull no further key once the pool holds ``cap``."""
        keys = iter(keys)
        while len(pool) < cap:
            key = next(keys, None)
            if key is None:
                return
            size = len(pool)
            pool.setdefault(key, None)  # one hash of the rows, not two
            if len(pool) > size:
                yield key

    def sources() -> Iterator[list]:
        """The rows spanning each candidate before the closure, in pool order;
        it reads the pool only once every earlier source has been offered."""
        units0 = [_unit(n0, c) for c in range(n0)]
        units1 = [_unit(n1, c) for c in range(n1)]
        units2 = [_unit(n2, c) for c in range(n2)]
        yield []
        yield units1
        # arrow images and kernels
        for g in gammas:
            yield _image(units0, [g])
        yield _image(units0, gammas)
        yield _preimage(F, deltas, [], n1, n2)
        for d in deltas:
            yield _preimage(F, [d], [], n1, n2)
        # cyclic spans of coordinate vectors; over a small prime field every
        # vector is affordable, and then every cyclic subspace is seeded here
        yield from (_image([u], gammas) for u in units0)
        yield from ([u] for u in units1)
        for n, span in ((n0, lambda v: _image([v], gammas)), (n1, lambda v: [v])):
            if isinstance(F, PrimeField) and n and F.p ** n <= 512:
                vectors = itertools.product(F.elements(), repeat=n)
                yield from map(span, itertools.islice(vectors, 1, None))  # past the zero vector
        # delta-preimages of the distinct targets at the end vertex: at most
        # 2 + 3 + 14 + 40 of them
        targets = [[], units2, *(_image(units1, [d]) for d in deltas)]
        masks = range(1, 2**n2 - 1) if n2 <= 4 else ()
        targets += ([u for k, u in enumerate(units2) if mask >> k & 1] for mask in masks)
        targets += (_image(u1c, deltas) for u1c in list(pool)[:40])
        for w in dict.fromkeys(map(canon, targets)):
            yield _preimage(F, deltas, w, n1, n2)
        # seeded random cyclic spans
        rng = random.Random(seed)

        def rand_vec(n):
            if isinstance(F, PrimeField):
                return [rng.randrange(F.p) for _ in range(n)]
            return [rng.randint(-3, 3) for _ in range(n)]

        for _ in range(8):
            if n0:
                yield _image([rand_vec(n0)], gammas)
            if n1:
                yield [rand_vec(n1)]

    yield from fresh(map(canon, sources()))
    # close under sums and intersections with a work budget
    ops = 0
    atoms = list(pool)
    for a, b in itertools.combinations(atoms, 2):
        if ops >= pair_budget or len(pool) >= cap:
            break
        total = canon(a + b)
        # the sum settles the meet when it is direct or equals a summand
        if len(total) == len(a) + len(b):
            meet = ()
        elif total in (a, b):
            meet = b if total == a else a
        else:  # the meet comes canonical already
            meet = tuple(map(tuple, linalg.int_intersect(F, a, b, n1)))
        yield from fresh((total, meet))
        ops += 2
    # two rounds of sums: each candidate the last phase added with the pool
    # as the round starts
    frontier = list(pool)[len(atoms):]
    for _ in range(2):
        snapshot = list(pool)
        for a, b in itertools.product(frontier, snapshot):
            if ops >= pair_budget or len(pool) >= cap:
                break
            yield from fresh([canon(a + b)])
            ops += 1
        frontier = list(pool)[len(snapshot):]


def _rectangle(rep: QuiverRep, u1) -> Tuple[list, list, list]:
    """The rectangle of classes the middle subspace U1 certifies.

    A triple (U0, U1, U2) is a submodule exactly when U0 lies inside
    U0max(U1) = gamma^-1(U1) = {x : gamma_i(x) in U1 for all i} and U2
    contains delta(U1); every intermediate dimension at the outer vertices
    is realizable.  For the canonical integer basis ``u1`` this returns
    (U0max, D, growth): a kernel basis of U0max, the canonical basis D of
    delta(U1), and the unit vectors that complete D, in turn, to F^{n2}.
    """
    F = rep.field
    n0, n1, n2 = rep.dims
    gammas, deltas = _int_arrows(rep)
    # the completion of delta(U1) by e_0, e_1, ... in turn takes e_k iff
    # delta(U1) has the same rank on the coordinates >= k as on those > k,
    # i.e. iff k is no pivot once the columns are reversed
    rev, rev_piv = linalg.int_rref(F, [row[::-1] for row in _image(u1, deltas)])
    growth = [_unit(n2, k) for k in range(n2) if n2 - 1 - k not in rev_piv]
    return _preimage(F, gammas, u1, n0, n1), [row[::-1] for row in rev], growth


def _layer1(
    rep: QuiverRep,
    seed: int,
    cap: int = 250,
    pair_budget: int = 4000,
    bounds: Iterable[Tuple[int, Callable[[], frozenset]]] = (),
):
    """Witnessed dimvec search driven by candidate middle subspaces.

    Each candidate U1 certifies a full rectangle of dimension vectors
    (`_rectangle`), with explicit witnesses.  Sound for any candidate pool;
    complete whenever the pool covers the middle subspaces that matter.  The
    search runs on integer rows (`_u1_candidates`), and a witness is the
    rectangle's own integer bases, as row tuples: the first a rows of the
    U0max basis, the canonical basis of U1, and the basis of delta(U1) with
    its first c - dim delta(U1) completing unit vectors.

    ``bounds`` lets the search stop early without changing its result.  It
    is a sequence of pairs (cost, bound): ``bound()`` returns a proved set
    containing every submodule class, and is called at most once, when the
    search takes it.  The bound schedule: the search takes the first bound
    before it pulls a candidate (with none, its bound is the box of all
    d <= dims).  It forms no rectangle for a candidate U1 when every class
    of its bound with middle dimension dim U1 is witnessed, and pulls no
    further candidate once every class of its bound is.  It takes the next
    bound, cutting its own down to the intersection, once it has formed as
    many rectangles since the last bound as that next pair's cost and its
    bound is still not filled: an early bound then costs at most the work
    already spent, and a bound it never needs is never formed.  Any class a
    skipped candidate could add lies in every bound and is witnessed
    already, so the witnesses, their values and their order are those of
    the whole pool, whichever bounds are taken.
    """
    n2 = rep.dims[2]
    witnesses: Dict[DimVec, SubTriple] = {}
    bounds = iter(bounds)
    first = next(bounds, None)
    # the classes of the bound not yet witnessed, and their middle dimensions
    unwitnessed = set(first[1]() if first else _box(rep.dims))
    open_middle = collections.Counter(dv[1] for dv in unwitnessed)
    nxt, taken = next(bounds, None), 0  # the next bound, rectangles since the last
    for u1c in _u1_candidates(rep, seed, cap, pair_budget):
        if open_middle[len(u1c)]:
            u0max, D, growth = (tuple(map(tuple, R)) for R in _rectangle(rep, u1c))
            for a in range(len(u0max) + 1):
                for c in range(len(D), n2 + 1):
                    dv = (a, len(u1c), c)
                    if dv in witnesses:
                        continue
                    witnesses[dv] = (u0max[:a], u1c, D + growth[: c - len(D)])
                    if dv in unwitnessed:
                        unwitnessed.remove(dv)
                        open_middle[dv[1]] -= 1
            taken += 1
            if nxt is not None and taken >= nxt[0] and unwitnessed:
                unwitnessed &= nxt[1]()
                open_middle = collections.Counter(dv[1] for dv in unwitnessed)
                nxt, taken = next(bounds, None), 0
        if not unwitnessed:
            break
    return witnesses


def _layer2_dimvecs(rep: QuiverRep) -> frozenset:
    """Exact dimvec set over the rep's own finite field.

    A triple (U0, U1, U2) is a submodule iff gamma(U0) <= U1 <= delta^-1(U2),
    where gamma(U0) = sum_i gamma_i(U0) and delta^-1(U2) is the intersection
    of the delta_j^-1(U2).  So a pair (U0, U2) of outer subspaces extends to a
    submodule iff S = gamma(U0) lies in P = delta^-1(U2), i.e. iff
    delta(S) <= U2, and then U1 can be S, P or anything in between: every
    dim U1 from dim S to dim P occurs.  Settling the outer pairs thus gives
    the exact set (`_layer2_by_pairs`): one pass over the subspaces of
    F^{n2}, each visiting at most (p^{n2} - 1)/(p - 1) covers without
    elimination, and one over those of F^{n0}, each with one lookup.  So
    when F^{n1} has no more subspaces than the two outer vertices together
    (n1 small against n0 and n2), the middle vertex is enumerated instead
    (`_layer2_by_middle`); both give the same set.  The count of subspaces
    of the path taken is `_layer2_cost`, which the search holds to
    `_LAYER2_COST_BOUND` before it calls this.
    """
    p = rep.field.p
    if _layer2_cost(rep.dims, p) < galois_number(rep.dims[1], p):
        return _layer2_by_pairs(rep)
    return _layer2_by_middle(rep)


def _layer2_cost(dims: DimVec, p: int) -> int:
    """The subspaces `_layer2_dimvecs` visits over GF(p), not counting
    covers: those of the middle vertex, or those of the two outer vertices,
    whichever is fewer."""
    n0, n1, n2 = dims
    return min(galois_number(n1, p), galois_number(n0, p) + galois_number(n2, p))


def _covers(p: int, rows, piv, n: int) -> Iterator[tuple]:
    """The covers W + <v> of W = span(rows) in GF(p)^n in rref, one v per line
    of F^n/W, zero on W's pivots with leading 1 at c: W with c cleared, plus v."""
    free = [c for c in range(n) if c not in piv]
    for j, c in enumerate(free):
        above = sum(q < c for q in piv)
        for vals in itertools.product(range(p), repeat=len(free) - j - 1):
            entries = dict(zip(free[j:], (1,) + vals))
            v = [entries.get(k, 0) for k in range(n)]
            rest = [tuple((x - row[c] * y) % p for x, y in zip(row, v)) for row in rows]
            yield tuple(rest[:above]) + (tuple(v),) + tuple(rest[above:])


def _layer2_by_pairs(rep: QuiverRep) -> frozenset:
    """`_layer2_dimvecs` over the pairs (U0, U2).  One pass over the subspaces
    W of F^{n2}, largest first, sets best[W][k] to the largest dim
    delta^-1(U2) over U2 >= W of dim k: dim delta^-1(W) at k = dim W, else
    the best of W's covers.  Each U0 then adds every dim U1 from
    dim gamma(U0) to best[delta(gamma(U0))][dim U2]."""
    F = rep.field
    n0, n1, n2 = rep.dims
    gammas, deltas = _int_arrows(rep)
    best: Dict[tuple, List[int]] = {}
    for rows, piv in reversed(list(iter_subspaces(F, n2))):
        b = [0] * (n2 + 1)
        for cover in _covers(F.p, rows, piv, n2):
            b = list(map(max, b, best[cover]))
        b[len(rows)] = len(_preimage(F, deltas, rows, n1, n2))
        best[tuple(map(tuple, rows))] = b
    out = set()
    for rows, _ in iter_subspaces(F, n0):
        S = linalg.int_rref(F, _image(rows, gammas))[0]
        D = linalg.int_rref(F, _image(S, deltas))[0]
        b = best[tuple(map(tuple, D))]
        out.update((len(rows), u1, u2) for u2 in range(len(D), n2 + 1)
                   for u1 in range(len(S), b[u2] + 1))
    return frozenset(out)


def _layer2_by_middle(rep: QuiverRep) -> frozenset:
    """`_layer2_dimvecs` by enumerating the middle vertex: for each U1, every
    U0 <= U0max(U1) and every U2 >= delta(U1) completes it (`_rectangle`)."""
    n2 = rep.dims[2]
    out = set()
    for u1, _ in iter_subspaces(rep.field, rep.dims[1]):
        u0max, D = _rectangle(rep, u1)[:2]
        out.update((u0, len(u1), u2) for u0 in range(len(u0max) + 1)
                   for u2 in range(len(D), n2 + 1))
    return frozenset(out)


#: primes tried for rational modules, smallest first
_LAYER2_PRIMES = (2, 3, 5, 7)
#: the most subspaces one Layer-2 enumeration may visit (`_layer2_cost`);
#: every prime above fits at n <= 4 points, p = 2 and 3 fit at n = 5
_LAYER2_COST_BOUND = 10_000
_OVER_BOUND = "layer1-only (Layer 2 over its cost bound)"


def _reduce_rep_mod_p(rep: QuiverRep, p: int) -> QuiverRep:
    """Reduce a rational module mod p after rescaling each arrow to a
    primitive integer matrix (its `linalg.int_form`; submodule lattices
    ignore arrow scaling).  Each arrow on its own, not its side: an arrow
    that the side's scale leaves divisible by p would vanish mod p."""
    sides = ([linalg.int_form(QQ, N)[0] for N in Ns] for Ns in _int_arrows(rep))
    return QuiverRep(rep.algebra, PrimeField(p), rep.dims, *sides)


def submodule_dimvecs(rep: QuiverRep, seed: int = 0) -> SubmoduleSearch:
    """Two-layer search for the set of submodule dimension vectors.

    Layer 1 (always): generated closures + sums/intersections, explicit
    witnesses, sound but possibly incomplete over Q.  Layer 2: exhaustive
    subspace enumeration, run over GF(p) only when its count of subspaces
    (`_layer2_cost`) is within `_LAYER2_COST_BOUND`.  On the module's own
    prime field it is exact; a rational module is reduced mod the primes of
    `_LAYER2_PRIMES` in turn, up to the first one over the bound, each
    reduction narrowing the proved upper set.  Layer 1 takes the
    enumerations as its bounds, on the schedule `_layer1` describes; the
    steps after Layer 1 reuse them, so no prime is enumerated twice, and the
    result is the one of the whole Layer-1 pool.  The evidence names the
    outcome: ``exhaustive(F_p)`` over the module's own field,
    ``squeeze(p=…)`` when one mod-p set equals the witnessed set,
    ``squeeze(intersection mod …)`` when their intersection does,
    ``cross-prime(…)`` when the mod-p sets agree but exceed it, and
    ``layer1-only (…)`` otherwise; ``layer1-only (Layer 2 over its cost
    bound)`` when no enumeration fits the bound.
    """
    return _submodule_dimvecs_impl(rep, int(seed))


@lru_cache(maxsize=256)
def _submodule_dimvecs_impl(rep: QuiverRep, seed: int) -> SubmoduleSearch:
    def affordable(p: int) -> bool:
        return _layer2_cost(rep.dims, p) <= _LAYER2_COST_BOUND

    own = isinstance(rep.field, PrimeField)
    primes = list(itertools.takewhile(affordable, (rep.field.p,) if own else _LAYER2_PRIMES))

    sets: Dict[int, frozenset] = {}  # each mod-p set, enumerated once

    def enumerate_mod(p: int) -> frozenset:
        if p not in sets:
            sets[p] = _layer2_dimvecs(rep if own else _reduce_rep_mod_p(rep, p))
        return sets[p]

    # every enumeration bounds every class; Layer 1 takes them as bounds at
    # the cost of the subspaces each visits (`_layer1`)
    witnesses = _layer1(
        rep, seed, bounds=[(_layer2_cost(rep.dims, p), partial(enumerate_mod, p)) for p in primes]
    )
    lower = frozenset(witnesses)
    upper = _box(rep.dims)
    layers = ["layer1"]
    # each enumeration cuts upper; one over the module's own field is exact,
    # so it is lower as well; the first set equal to lower settles the search
    for p in primes:
        full_p = enumerate_mod(p)
        layers.append(f"layer2(F_{p})" if own else f"layer2(mod {p})")
        upper &= full_p
        if own:
            lower = full_p
        if full_p == lower:
            evidence = f"exhaustive(F_{p})" if own else f"squeeze(p={p})"
            break
    else:  # no enumeration within the bound, or reductions above lower
        ps = ",".join(map(str, primes))
        if not primes:
            evidence = _OVER_BOUND
        elif upper == lower:
            evidence = f"squeeze(intersection mod {ps})"
        elif len(primes) == 1:
            evidence = "layer1-only (mod-p excess unresolved)"
        elif all(sets[p] == upper for p in primes):
            evidence = f"cross-prime({ps})"
        else:
            evidence = "layer1-only (cross-prime disagreement)"
    # each set enumerated, whether Layer 1 took it as a bound or the loop
    # above read it, must hold every witnessed class
    for p, full_p in sets.items():
        if not witnesses.keys() <= full_p:
            raise VerificationError(
                "layer 1 produced a non-submodule dimvec" if own
                else f"saturated reduction mod {p} lost a certified submodule"
            )
    return SubmoduleSearch(rep.dims, lower, upper, witnesses, evidence, tuple(layers))


# ---------------------------------------------------------------------------
# King stability


@dataclass(frozen=True)
class KingVerdict:
    verdict: str            # "stable" | "semistable" | "unstable" | "theta-nonvanishing"
    certainty: str          # "exact" | "probabilistic"
    witness_dimvec: Optional[DimVec]
    witness: Optional[SubTriple]
    theta: Tuple
    search: Optional[SubmoduleSearch]

    @property
    def semistable(self) -> bool:
        return self.verdict in ("stable", "semistable")


def _int_weight(theta: Sequence) -> Tuple[int, ...]:
    """theta scaled by a positive rational to a primitive integer vector;
    every pairing keeps its sign, so King verdicts do not change."""
    return tuple(linalg.int_form(QQ, [theta])[0][0])


def _int_pair(weight: Sequence[int], dv: Sequence[int]) -> int:
    return weight[0] * dv[0] + weight[1] * dv[1] + weight[2] * dv[2]


def _verdict_of(weight: Tuple[int, ...], dims: DimVec, classes) -> str:
    """The King verdict if ``classes`` were all the submodule classes, for
    the integer weight (`_int_weight`) of theta.

    Monotone in the set (stable < semistable < unstable), so the verdicts
    of a proved lower and upper set bound the true one from both sides.
    Requires theta(dims) = 0.
    """
    values = [_int_pair(weight, dv) for dv in classes if dv not in ((0, 0, 0), dims)]
    if any(x < 0 for x in values):
        return "unstable"
    return "semistable" if 0 in values else "stable"


def king_test(
    rep: QuiverRep,
    theta: Sequence,
    seed: int = 0,
    search: Optional[SubmoduleSearch] = None,
) -> KingVerdict:
    """King (semi)stability of rep for the weight theta.

    Requires theta(dims) = 0 (else verdict "theta-nonvanishing").  The rep
    is unstable iff some submodule has theta < 0, and strictly semistable
    iff otherwise some proper nonzero submodule has theta = 0.  The verdict
    is the one of the search's proved lower set; it is "exact" when the
    proved upper set gives the same verdict, and "probabilistic" otherwise
    — never silent.  An unstable verdict names the least witnessed
    destabilizing class, or else the least destabilizing class; a witnessed
    one comes with the search's witness, integer rows (`SubTriple`).
    """
    theta = tuple(map(QQ.convert, theta))
    weight = _int_weight(theta)
    if _int_pair(weight, rep.dims) != 0:
        return KingVerdict("theta-nonvanishing", "exact", None, None, theta, None)
    if search is None:
        search = submodule_dimvecs(rep, seed=seed)
    verdict = _verdict_of(weight, rep.dims, search.lower)
    exact = verdict == _verdict_of(weight, rep.dims, search.upper)
    certainty = "exact" if exact else "probabilistic"
    if verdict != "unstable":
        return KingVerdict(verdict, certainty, None, None, theta, search)
    dv = min(
        (dv for dv in search.lower if _int_pair(weight, dv) < 0),
        key=lambda dv: (dv not in search.witnesses, sum(dv), dv),
    )
    return KingVerdict("unstable", certainty, dv, search.witnesses.get(dv), theta, search)


class DestabilizedError(VerificationError):
    """Raised by jh_factors on an unstable module; carries the witness."""

    def __init__(self, verdict: KingVerdict):
        self.verdict = verdict
        super().__init__(
            f"module is not semistable: destabilizing dimvec {verdict.witness_dimvec}"
        )


def jh_factors(rep: QuiverRep, theta: Sequence, seed: int = 0) -> List[QuiverRep]:
    """Jordan-Hoelder factors of a theta-semistable module.

    Peels a minimal-dimension theta = 0 proper submodule (automatically
    stable) and recurses on the quotient; the concatenated factor dims add
    up to dims(rep).  Raises DestabilizedError with the witness if the
    module is not semistable.
    """
    theta = tuple(map(QQ.convert, theta))
    weight = _int_weight(theta)
    first = king_test(rep, theta, seed=seed)
    if first.verdict == "theta-nonvanishing":
        raise InputError("theta does not vanish on the module class")
    if first.verdict == "unstable":
        raise DestabilizedError(first)

    factors: List[QuiverRep] = []
    current = rep
    zero = (0, 0, 0)
    while True:
        if current.total_dim() == 0:
            break
        search = submodule_dimvecs(current, seed=seed)
        candidates = [
            dv
            for dv in search.witnesses
            if dv not in (zero, current.dims) and _int_pair(weight, dv) == 0
        ]
        if not candidates:
            factors.append(current)
            break
        dv = min(candidates, key=lambda d: (sum(d), d))
        sub, current = _split(current, search.witnesses[dv])  # one check per peel
        factors.append(sub)

    total = tuple(sum(f.dims[v] for f in factors) for v in range(3))
    if total != rep.dims:
        raise VerificationError("JH factor dims do not add up")  # pragma: no cover
    return factors


def s_equiv(
    a: QuiverRep,
    b: QuiverRep,
    theta: Sequence,
    seed: int = 0,
) -> bool:
    """S-equivalence: equality of JH factor multisets up to isomorphism."""
    fa = jh_factors(a, theta, seed=seed)
    fb = jh_factors(b, theta, seed=seed)
    if sorted(f.dims for f in fa) != sorted(f.dims for f in fb):
        return False
    unmatched = list(fb)
    for f in fa:
        hit = None
        for g in unmatched:
            if g.dims == f.dims and iso_test(f, g, seed=seed).isomorphic:
                hit = g
                break
        if hit is None:
            return False
        unmatched.remove(hit)
    return True


# ---------------------------------------------------------------------------
# random relation-satisfying modules (for tests and calibration)


def random_rep(algebra: str, field, dims: Sequence[int], rng: random.Random) -> QuiverRep:
    """A random module: random gammas, then deltas sampled from the kernel
    of the relation system (which is linear in delta once gamma is fixed)."""
    n0, n1, n2 = (int(x) for x in dims)

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
