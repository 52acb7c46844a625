"""Dense exact linear algebra over Q and over small prime fields.

Every matrix computation in the package funnels through this module.
Matrices are plain lists of row lists; entries are ``fractions.Fraction``
over the rationals or python ints in [0, p) over a prime field.  The field
object is passed explicitly; it does no arithmetic, it only converts a
number into the field (``convert``) and names the prime (``p``, None over
Q).

Each subspace kernel is written once, on integer rows: elimination
(``int_rref``), span (``int_span``), reduction against a basis
(``int_residues``), kernels, meets and products (``int_right_kernel``,
``int_intersect``, ``int_mat_mul``).  Over Q a subspace is its rref scaled
row by row to primitive integers with a positive pivot (``_rref_z``,
fraction-free Gauss-Jordan), which is one to one with the rref; over GF(p)
the same loops run on plain ints with ``% p`` inline and it is the rref.
The submodule search calls these kernels directly.

Field rows and integer rows meet in one pair of functions, the only
conversion between the two in the package: ``int_form`` writes a matrix as
a scale t times integer rows (over Q with no common factor, over GF(p) the
rows mod p with t = 1), and ``field_form`` takes t and the integer rows
back.  Every field-row function (``rref``, ``row_space``,
``reduce_vector``, ``in_row_space``, ``right_kernel``, ``mat_mul``,
``mat_vec``) is an adapter: it takes its input's integer form, calls a
kernel and gives the result back in ``field_form``; the arrows of a quiver
module and the integer weights of King's test are integer forms too.

The results are the exact values the textbook loops give, entry for entry:
a reduced row echelon form is unique.  The matrices are tiny (a few dozen
rows at most), so the kernels stay dense and pure python.
"""
from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import InputError
from .io_utils import parse_fraction, parse_json_int

Row = List
Matrix = List[Row]


class RationalField:
    """The rational field; elements are ``Fraction``."""

    p: Optional[int] = None

    def __repr__(self) -> str:
        return "QQ"

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("QQ")

    def convert(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, str):
            return parse_fraction(x)
        if isinstance(x, float):
            raise InputError("refusing to coerce a float into exact arithmetic")
        return Fraction(x)

    def to_json(self) -> dict:
        return {"kind": "rational"}


#: Miller-Rabin witnesses that decide primality exactly below 2^64
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 2^64."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field F_p for a prime p < 2^64; elements are ints in [0, p)."""

    def __init__(self, p: int):
        if p >= 2**64:
            raise InputError(f"p must be below 2^64, got {p}")
        if not is_prime(p):
            raise InputError(f"p must be prime, got {p}")
        self.p = p

    def __repr__(self) -> str:
        return f"GF({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("GF", self.p))

    def convert(self, x) -> int:
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.p}")
            return x.numerator * pow(x.denominator, self.p - 2, self.p) % self.p
        if isinstance(x, str):
            return self.convert(parse_fraction(x))
        if isinstance(x, float):
            raise InputError("refusing to coerce a float into exact arithmetic")
        return int(x) % self.p

    def elements(self) -> range:
        return range(self.p)

    def to_json(self) -> dict:
        return {"kind": "prime", "p": self.p}


QQ = RationalField()


def field_from_json(obj: dict):
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind == "rational":
        return QQ
    if kind == "prime":
        return PrimeField(parse_json_int(obj["p"]))
    raise InputError(f"unknown field description {obj!r}")


# ---------------------------------------------------------------------------
# basic matrix plumbing


def zeros(F, nrows: int, ncols: int) -> Matrix:
    z = F.convert(0)
    return [[z] * ncols for _ in range(nrows)]


def identity(F, n: int) -> Matrix:
    M = zeros(F, n, n)
    for i in range(n):
        M[i][i] = F.convert(1)
    return M


def transpose(A: Matrix, ncols: Optional[int] = None) -> Matrix:
    if not A:
        return [[] for _ in range(ncols or 0)]
    return [list(col) for col in zip(*A)]


# ---------------------------------------------------------------------------
# the integer form of field rows: the one conversion between the two

_ZERO = Fraction(0)


def int_form(F, rows: Sequence[Sequence]) -> Tuple[List[List[int]], Fraction]:
    """(ints, t) with rows == t ints.  Over Q the rows times the lcm d of
    their denominators, divided by the gcd g of those integers, so ints has
    no common factor and t = g / d is positive (0 for the zero matrix).
    Over GF(p) the rows mod p, and t = 1."""
    if F.p is not None:
        return [[x % F.p for x in row] for row in rows], Fraction(1)
    d = math.lcm(*[x.denominator for row in rows for x in row])
    ints = [[x.numerator * (d // x.denominator) for x in row] for row in rows]
    g = math.gcd(*[x for row in ints for x in row])
    if g > 1:
        ints = [[x // g for x in row] for row in ints]
    return ints, Fraction(g, d)


def field_form(F, ints: Sequence[Sequence[int]], t: Fraction) -> Matrix:
    """The field rows t ints, back from `int_form`: over GF(p), where t is
    1, the ints mod p."""
    if F.p is not None:
        return [[x % F.p for x in row] for row in ints]
    a, b = t.numerator, t.denominator
    return [[Fraction(x * a, b) if x else _ZERO for x in row] for row in ints]


# ---------------------------------------------------------------------------
# products


def mat_mul(F, A: Matrix, B: Matrix, ncols: Optional[int] = None) -> Matrix:
    """A @ B for B with ``ncols`` columns, read off B when B has rows: a B
    with no rows cannot show its width, and then the product is zero.  A
    0-row A gives the empty matrix.  One `int_mat_mul` of the integer forms
    (`int_form`) of A and B, times the product of their scales."""
    if A and len(A[0]) != len(B):
        cb = len(B[0]) if B else 0
        raise InputError(
            f"dimension mismatch in product: {len(A)}x{len(A[0])} by {len(B)}x{cb}"
        )
    (IA, ta), (IB, tb) = int_form(F, A), int_form(F, B)
    return field_form(F, int_mat_mul(IA, IB, ncols or 0), ta * tb)


def mat_vec(F, A: Matrix, v: Sequence) -> Row:
    """A @ v, one entry per row of A."""
    return [row[0] for row in mat_mul(F, A, [[x] for x in v], 1)]


# ---------------------------------------------------------------------------
# elimination


def rref(F, A: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form; returns (R, pivot column indices).

    Zero rows are dropped from R, so R doubles as a canonical basis of the
    row space.
    """
    return row_space(F, A, len(A[0]) if A else 0)


def _rref_z(A: Sequence[Sequence[int]]) -> Tuple[List[List[int]], List[int]]:
    """Fraction-free Gauss-Jordan on integer rows; returns (R, pivots) with
    R the rational rref scaled row by row to primitive integers with a
    positive pivot, so R is one to one with the rref and just as canonical."""
    M = []
    for ints in A:
        g = math.gcd(*ints)
        M.append([x // g for x in ints] if g > 1 else ints)
    nrows = len(M)
    ncols = len(M[0]) if M else 0
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        for piv in range(r, nrows):
            if M[piv][c]:
                break
        else:
            continue
        M[r], M[piv] = M[piv], M[r]
        prow = M[r]
        a = prow[c]
        for i in range(nrows):
            b = M[i][c]
            if b and i != r:
                g = math.gcd(a, b)
                ag, bg = a // g, b // g
                new = [ag * x - bg * y for x, y in zip(M[i], prow)]
                g = math.gcd(*new)
                M[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [
        list(row) if row[c] > 0 else [-x for x in row] for row, c in zip(M, pivots)
    ], pivots


def _rref_p(A: Matrix, p: int) -> Tuple[Matrix, List[int]]:
    """Gauss-Jordan over GF(p) on ints reduced mod p."""
    M = [[x % p for x in row] for row in A]
    nrows = len(M)
    ncols = len(M[0]) if M else 0
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        for piv in range(r, nrows):
            if M[piv][c]:
                break
        else:
            continue
        M[r], M[piv] = M[piv], M[r]
        prow = M[r]
        inv = pow(prow[c], p - 2, p)
        if inv != 1:
            prow = M[r] = [x * inv % p for x in prow]
        for i in range(nrows):
            f = M[i][c]
            if f and i != r:
                M[i] = [(x - f * y) % p for x, y in zip(M[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return M[:r], pivots


def rank(F, A: Matrix) -> int:
    return len(rref(F, A)[0])


def reduce_vector(F, R: Matrix, pivots: Sequence[int], v: Sequence) -> Row:
    """Residual of v after eliminating the pivot coordinates against the
    rref rows R; the residual is zero iff v lies in the row space.  It is
    `int_residues` of the integer forms (`int_form`) of R and v, times the
    scale t of v over L, the lcm of the integer pivots."""
    W = int_form(F, R)[0]
    ints, t = int_form(F, [v])
    L = math.lcm(*[w[c] for w, c in zip(W, pivots)])
    return field_form(F, int_residues(F, W, pivots, ints), t / L)[0]


def in_row_space(F, R: Matrix, pivots: Sequence[int], v: Sequence) -> bool:
    return not any(reduce_vector(F, R, pivots, v))


def row_space(F, vectors: Iterable[Sequence], ncols: int) -> Tuple[Matrix, List[int]]:
    """Canonical (rref) basis of the span of the given vectors."""
    R, pivots = int_span(F, vectors, ncols)
    return int_rows_to_field(F, R), pivots


def right_kernel(F, A: Matrix, ncols: Optional[int] = None) -> Matrix:
    """Basis of {x : A x = 0}, one vector per row, in the standard
    free-column parametrization of the rref (deterministic): the
    `int_right_kernel` vectors of the integer form (`int_form`) of A, each
    divided by its free entry, its last nonzero one (1 over GF(p))."""
    if ncols is None:
        ncols = len(A[0]) if A else 0
    K = int_right_kernel(F, int_form(F, A)[0], ncols)
    return [field_form(F, [v], Fraction(1, next(x for x in reversed(v) if x)))[0] for v in K]


def solve_right(F, A: Matrix, b: Sequence) -> Optional[Row]:
    """One solution x of A x = b, or None if inconsistent."""
    nrows = len(A)
    ncols = len(A[0]) if A else 0
    if len(b) != nrows:
        raise InputError("dimension mismatch in solve_right")
    if ncols == 0:
        return None if any(map(F.convert, b)) else []
    aug = [list(row) + [bv] for row, bv in zip(A, b)]
    R, pivots = rref(F, aug)
    x = [F.convert(0)] * ncols
    for row, c in zip(R, pivots):
        if c == ncols:
            return None
        x[c] = row[ncols]
    return x


def mat_inverse(F, A: Matrix) -> Optional[Matrix]:
    n = len(A)
    if n == 0:
        return []
    if len(A[0]) != n:
        raise InputError("inverse of a non-square matrix")
    aug = [list(row) + list(e) for row, e in zip(A, identity(F, n))]
    R, pivots = rref(F, aug)
    if pivots[:n] != list(range(n)) or len(pivots) != n:
        return None
    return [row[n:] for row in R]


# ---------------------------------------------------------------------------
# subspaces on integer rows (the submodule search and the field-row adapters)
#
# Over Q a subspace is carried as `_rref_z` gives it: its rref scaled row by
# row to primitive integers with a positive pivot.  Over GF(p) rows are ints
# already and a subspace is its rref.  Scaling the rows of a basis one by
# one, or a matrix as a whole (`int_form`), changes no span that these
# kernels compute.


def int_mat_mul(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]], ncols: int) -> List[List[int]]:
    """A @ B over the integers, unreduced (the kernels below reduce mod p),
    for B with ``ncols`` columns: a B with no rows has no row to show its
    width, and then the product is zero."""
    cols = list(zip(*B)) or [()] * ncols
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in A]


def int_rref(F, A: Sequence[Sequence[int]]) -> Tuple[List[List[int]], List[int]]:
    """Canonical basis of the span of integer rows, with its pivots."""
    if F.p is None:
        return _rref_z(A)
    return _rref_p(A, F.p)


def int_span(F, rows: Iterable[Sequence], n: int) -> Tuple[List[List[int]], List[int]]:
    """Canonical integer basis (`int_rref`) of the span of field rows in
    F^n, with its pivots; a row of another length is invalid input."""
    rows = [list(r) for r in rows]
    if any(len(r) != n for r in rows):
        raise InputError("dimension mismatch")
    return int_rref(F, int_form(F, rows)[0] if F.p is None else rows)  # `_rref_p` reduces mod p


def int_residues(F, W: Sequence[Sequence[int]], piv: Sequence[int], rows) -> List[List[int]]:
    """Each integer row v reduced against the canonical basis W with pivots
    ``piv``: L v - sum_k v[c_k] (L / W_k[c_k]) W_k, L the lcm of W's pivot
    entries (1 over GF(p), where the result is reduced mod p).  W is
    reduced, so this vanishes at the pivots; it is L times the field's
    residue of v, and zero iff v lies in span W."""
    L = math.lcm(*[w[c] for w, c in zip(W, piv)])
    terms = [(c, L // w[c], w) for w, c in zip(W, piv)]
    out = []
    for v in rows:
        r = [L * x for x in v] if L > 1 else list(v)
        for c, m, w in terms:
            f = v[c] * m
            if f:
                r = [x - f * y for x, y in zip(r, w)]
        out.append(r if F.p is None else [x % F.p for x in r])
    return out


def int_right_kernel(F, A: Sequence[Sequence[int]], ncols: int) -> List[List[int]]:
    """Integer basis of {x : A x = 0}, one vector per free column of the
    rref: over GF(p) the `right_kernel`, over Q its vectors scaled to
    primitive integers with a positive free entry."""
    return int_rref_kernel(F, *int_rref(F, A), ncols)


def int_rref_kernel(F, R: Sequence[Sequence[int]], pivots: Sequence[int], ncols: int) -> List[List[int]]:
    """`int_right_kernel` of a canonical (`int_rref`) basis R with its pivots,
    read off R without eliminating it again: one vector per free column f,
    with v[f] = 1 and v[c] = -row[f] / row[c] at each pivot c, over Q
    times the lcm of those row[c]."""
    p = F.p
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        lcm = math.lcm(*[row[c] for row, c in zip(R, pivots) if row[f]])
        v = [0] * ncols
        v[f] = lcm
        for row, c in zip(R, pivots):
            if row[f]:
                v[c] = -row[f] * (lcm // row[c])
        g = math.gcd(*v)  # 1 over GF(p), where every pivot is 1
        if g > 1:
            v = [x // g for x in v]
        basis.append(v if p is None else [x % p for x in v])
    return basis


def int_intersect(F, A: Sequence[Sequence[int]], B: Sequence[Sequence[int]], ncols: int) -> List[List[int]]:
    """Canonical (`int_rref`) basis of the meet of the row spaces of A and B."""
    if not A or not B:
        return []
    # a^T A = -b^T B  <=>  (a, b) in ker [A^T | B^T]; the a^T A span the meet
    stacked = [ra + rb for ra, rb in zip(transpose(A, ncols), transpose(B, ncols))]
    combos = int_right_kernel(F, stacked, len(stacked[0]) if stacked else 0)
    return int_rref(F, int_mat_mul([c[: len(A)] for c in combos], A, ncols))[0]


def int_rows_to_field(F, R: Sequence[Sequence[int]]) -> Matrix:
    """The field's rref of a canonical integer basis: each row divided by
    its pivot (`field_form`), which is 1 over GF(p)."""
    return [field_form(F, [row], Fraction(1, next(x for x in row if x)))[0] for row in R]


# ---------------------------------------------------------------------------
# integer utilities (wall planes)


def _exgcd(a: int, b: int) -> Tuple[int, int, int]:
    """g, x, y with a x + b y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def saturated_kernel_basis_3(d: Sequence[int]) -> List[List[int]]:
    """Basis of the saturated lattice {v in Z^3 : v . d = 0} for d != 0.

    Found by building a unimodular U with U d = (g, 0, 0)^T; the last two
    rows of U are the basis.  Deterministic.
    """
    d = [int(x) for x in d]
    if all(x == 0 for x in d):
        raise InputError("kernel of the zero vector is everything")
    U = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    vals = list(d)

    def combine(i, j):
        # zero out vals[j] against vals[i]
        g, x, y = _exgcd(vals[i], vals[j])
        if g == 0:
            return
        a, b = vals[i] // g, vals[j] // g
        row_i = [x * U[i][k] + y * U[j][k] for k in range(3)]
        row_j = [-b * U[i][k] + a * U[j][k] for k in range(3)]
        U[i], U[j] = row_i, row_j
        vals[i], vals[j] = g, 0

    combine(0, 1)
    combine(0, 2)
    assert vals[1] == 0 and vals[2] == 0
    return [U[1], U[2]]


def row_hnf_2xn(rows: List[List[int]]) -> List[List[int]]:
    """Row Hermite normal form of a rank-2 integer matrix with 2 rows.

    Pivots positive, entries above pivots reduced into [0, pivot).  Used to
    canonicalize wall-plane bases; deterministic.
    """
    a, b = [list(r) for r in rows]
    n = len(a)
    # first pivot column
    c0 = next(i for i in range(n) if a[i] != 0 or b[i] != 0)
    if a[c0] == 0:
        a, b = b, a
    g, x, y = _exgcd(a[c0], b[c0])
    na = [x * a[i] + y * b[i] for i in range(n)]
    nb = [(-b[c0] // g) * a[i] + (a[c0] // g) * b[i] for i in range(n)]
    a, b = na, nb
    c1 = next(i for i in range(n) if b[i] != 0)
    if b[c1] < 0:
        b = [-t for t in b]
    # reduce a above b's pivot
    q = a[c1] // b[c1]
    a = [s - q * t for s, t in zip(a, b)]
    if a[c0] < 0:
        a = [-t for t in a]
    return [a, b]


# ---------------------------------------------------------------------------
# subspace enumeration over a small prime field


def gaussian_binomial(n: int, k: int, q: int) -> int:
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def galois_number(n: int, q: int) -> int:
    """Number of subspaces of F_q^n (all dimensions)."""
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))


def iter_subspaces(F: PrimeField, n: int) -> Iterator[Tuple[Matrix, Tuple[int, ...]]]:
    """All subspaces of F^n, one canonical rref basis each.

    Yields (rows, pivots).  Enumeration order: by dimension, then pivot
    pattern, then free entries — fully deterministic.
    """
    p = F.p
    yield [], ()
    for k in range(1, n + 1):
        for pivots in itertools.combinations(range(n), k):
            free_pos = [
                (i, j)
                for i in range(k)
                for j in range(pivots[i] + 1, n)
                if j not in pivots
            ]
            for assignment in itertools.product(range(p), repeat=len(free_pos)):
                rows = zeros(F, k, n)
                for i in range(k):
                    rows[i][pivots[i]] = 1
                for (i, j), val in zip(free_pos, assignment):
                    rows[i][j] = val
                yield rows, pivots
