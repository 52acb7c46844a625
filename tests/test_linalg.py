"""Exact linear algebra over QQ and prime fields.

Everything here is small and exact, so most checks are direct identities;
hypothesis drives the solver/kernel round trips where random matrices are
actually informative.
"""
import math
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2stab import linalg
from p2stab.errors import InputError
from p2stab.geometry import PointConfig
from p2stab.ktheory import ChernCharacter, as_triple
from p2stab.modules import QuiverRep
from p2stab.linalg import (
    QQ,
    PrimeField,
    field_form,
    field_from_json,
    galois_number,
    int_form,
    is_prime,
    iter_subspaces,
    mat_mul,
    mat_vec,
    rank,
    right_kernel,
    row_hnf_2xn,
    row_space,
    rref,
    saturated_kernel_basis_3,
    solve_right,
    transpose,
)

F2 = PrimeField(2)
F5 = PrimeField(5)

entries = st.integers(min_value=-6, max_value=6)


def qq_matrix(nrows, ncols):
    return st.lists(
        st.lists(entries.map(Fraction), min_size=ncols, max_size=ncols),
        min_size=nrows,
        max_size=nrows,
    )


def test_prime_field_arithmetic():
    assert F5.convert(Fraction(1, 3)) == 2
    with pytest.raises(ZeroDivisionError):
        F5.convert(Fraction(1, 5))  # denominator divisible by p
    # a float is refused, as over Q, rather than truncated
    for F in (F5, QQ):
        with pytest.raises(InputError):
            F.convert(2.5)


@pytest.mark.parametrize("flag", [True, False], ids=repr)
@pytest.mark.parametrize("build", [
    QQ.convert,
    F5.convert,
    lambda x: ChernCharacter(1, x, 0),
    lambda x: PointConfig(((x, 0, 1), (0, 1, 0))),
    lambda x: as_triple((1, x, 0)),
    lambda x: QuiverRep("B", QQ, (1, 1, 0), [[[x]], [[0]], [[0]]], [[], [], []]),
    lambda x: QuiverRep("B", F5, (1, 1, 0), [[[x]], [[0]], [[0]]], [[], [], []]),
], ids=["QQ", "GF(5)", "ChernCharacter", "PointConfig", "as_triple", "QuiverRep QQ",
        "QuiverRep GF(5)"])
def test_a_boolean_is_refused_not_read_as_an_integer(build, flag):
    # True and False are ints to Python; read as 1 and 0 they made
    # ChernCharacter(1, False, True) the class (1, 0, 1)
    with pytest.raises(InputError):
        build(flag)


def test_prime_field_requires_prime():
    with pytest.raises(InputError):
        PrimeField(6)
    with pytest.raises(InputError):
        PrimeField(10**18 + 1)  # = 101 * 9901 * 999999000001
    with pytest.raises(InputError):
        PrimeField(2**64 + 13)  # prime, but beyond the exact primality range


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))

    assert all(is_prime(n) == trial(n) for n in range(-3, 20000))
    # strong pseudoprimes to the first few prime bases, up to 2^62
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747,
              3474749660383, 341550071728321, 3825123056546413051):
        assert not is_prime(n)
    assert is_prime(2**61 - 1) and is_prime(2**64 - 59)


def test_prime_field_large_p_is_prompt():
    t0 = time.perf_counter()
    big = field_from_json({"kind": "prime", "p": 1000000000000000003})
    assert big.p == 1000000000000000003
    assert time.perf_counter() - t0 < 1.0


def test_field_json_round_trip():
    assert field_from_json(QQ.to_json()) == QQ
    assert field_from_json(F5.to_json()) == F5
    with pytest.raises(InputError):
        field_from_json({"kind": "octonion"})


def test_rref_drops_zero_rows_and_reports_pivots():
    A = [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)]]
    R, piv = rref(QQ, A)
    assert R == [[Fraction(1), Fraction(2)]]
    assert piv == [0]


def test_rref_is_idempotent_small():
    A = [
        [Fraction(0), Fraction(1), Fraction(3)],
        [Fraction(1), Fraction(0), Fraction(-1)],
        [Fraction(1), Fraction(1), Fraction(2)],
    ]
    R, piv = rref(QQ, A)
    R2, piv2 = rref(QQ, R)
    assert (R, piv) == (R2, piv2)


@settings(max_examples=60, deadline=None)
@given(qq_matrix(3, 4))
def test_right_kernel_annihilates(A):
    K = right_kernel(QQ, A, ncols=4)
    for v in K:
        assert all(x == 0 for x in mat_vec(QQ, A, v))
    # rank-nullity on the 4 columns
    assert rank(QQ, A) + len(K) == 4


@settings(max_examples=60, deadline=None)
@given(qq_matrix(3, 3), st.lists(entries.map(Fraction), min_size=3, max_size=3))
def test_solve_right_round_trip(A, x):
    b = mat_vec(QQ, A, x)
    sol = solve_right(QQ, A, b)
    assert sol is not None
    assert mat_vec(QQ, A, sol) == b


def test_solve_right_reports_inconsistency():
    A = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]]
    assert solve_right(QQ, A, [Fraction(1), Fraction(2)]) is None


def test_mat_mul_zero_row_matrix_is_tolerated():
    # a 0-row matrix carries no width, so the product is the empty matrix
    assert mat_mul(QQ, [], [[Fraction(1)], [Fraction(2)]]) == []
    assert mat_vec(QQ, [], [Fraction(1), Fraction(2)]) == []


def test_mat_vec_of_zero_column_matrix_is_zero():
    # rows but no columns: the empty vector maps to zero, one entry per row
    assert mat_vec(F2, [[], []], []) == [0, 0]
    assert mat_vec(QQ, [[], [], []], []) == [Fraction(0)] * 3
    with pytest.raises(InputError):
        mat_vec(QQ, [[Fraction(1)]], [])


def test_mat_mul_takes_the_width_of_a_zero_row_factor_from_the_caller():
    # an n x 0 by 0 x m product is the n x m zero matrix, in the field's type
    for F in (QQ, F2, F5):
        same(mat_mul(F, [[], []], [], 3), [[F.convert(0)] * 3 for _ in range(2)])
    assert mat_mul(F5, [[], []], []) == [[], []]  # no width given: width 0
    assert mat_mul(F5, [[1, 2]], [[1], [1]], 7) == [[3]]  # read off B's rows


def test_mat_mul_rejects_genuine_mismatch():
    with pytest.raises(InputError):
        mat_mul(QQ, [[Fraction(1)]], [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]])


def test_transpose_empty_needs_hint():
    assert transpose([], ncols=3) == [[], [], []]
    assert transpose([[Fraction(1), Fraction(2)]]) == [[Fraction(1)], [Fraction(2)]]


def int_rows(F, A):
    """A as integer rows: over Q each row in its own integer form."""
    return [int_form(F, [row])[0][0] for row in A] if F.p is None else A


def field_meet(F, A, B, ncols):
    """`int_intersect` of the rows of A and B, as the field's rref rows."""
    return linalg.int_rows_to_field(F, linalg.int_intersect(F, int_rows(F, A), int_rows(F, B), ncols))


@settings(max_examples=40, deadline=None)
@given(qq_matrix(2, 4), qq_matrix(2, 4))
def test_intersection_inside_both_summands(A, B):
    inter = field_meet(QQ, A, B, 4)
    RA, pA = row_space(QQ, A, 4)
    RB, pB = row_space(QQ, B, 4)
    for v in inter:
        assert in_row_space(QQ, RA, pA, v)
        assert in_row_space(QQ, RB, pB, v)
    total = row_space(QQ, A + B, 4)[0]
    # dim(A) + dim(B) = dim(A+B) + dim(A cap B)
    assert len(RA) + len(RB) == len(total) + len(inter)


def test_int_form_is_primitive_and_field_form_inverts_it():
    A = [[Fraction(1, 2), Fraction(3, 4)], [Fraction(0), Fraction(5, 2)]]
    assert int_form(QQ, A) == ([[2, 3], [0, 10]], Fraction(1, 4))
    # one row: the primitive vector on its ray, sign untouched
    assert int_form(QQ, [[Fraction(4, 6), Fraction(-2, 3)]]) == ([[1, -1]], Fraction(2, 3))
    assert int_form(QQ, [[Fraction(-4, 6), Fraction(0)]]) == ([[-1, 0]], Fraction(2, 3))
    # integer entries, a common factor, the zero matrix and no rows at all
    assert int_form(QQ, [[6, -4], [0, 2]]) == ([[3, -2], [0, 1]], Fraction(2))
    assert int_form(QQ, [[0, 0], [0, 0]]) == ([[0, 0], [0, 0]], Fraction(0))
    assert int_form(QQ, []) == ([], Fraction(0))
    # over GF(p) the rows mod p, scale 1
    F7 = PrimeField(7)
    assert int_form(F7, [[8, -1], [14, 3]]) == ([[1, 6], [0, 3]], Fraction(1))
    for F, M in ((QQ, A), (QQ, [[Fraction(-9, 14), 0, Fraction(3, 4)]]), (QQ, [[0]]),
                 (F7, [[1, 6], [0, 3]])):
        ints, t = int_form(F, M)
        assert type(t) is Fraction and all(type(x) is int for row in ints for x in row)
        assert field_form(F, ints, t) == M
    # field_form reduces mod p, so an unreduced product comes back in the field
    assert field_form(F7, [[15, -1]], Fraction(1)) == [[1, 6]]


def test_saturated_kernel_basis_golden():
    # perpendicular lattice of (1, 2, 1), used for the weight plane
    basis = saturated_kernel_basis_3([1, 2, 1])
    assert len(basis) == 2
    for v in basis:
        assert v[0] * 1 + v[1] * 2 + v[2] * 1 == 0
    # saturation: the 2x2 minors of the basis matrix are coprime
    from math import gcd

    m = basis
    minors = [
        m[0][0] * m[1][1] - m[0][1] * m[1][0],
        m[0][0] * m[1][2] - m[0][2] * m[1][0],
        m[0][1] * m[1][2] - m[0][2] * m[1][1],
    ]
    assert gcd(gcd(abs(minors[0]), abs(minors[1])), abs(minors[2])) == 1


def test_saturated_kernel_of_zero_vector():
    with pytest.raises(InputError):
        saturated_kernel_basis_3([0, 0, 0])


def test_row_hnf_is_canonical_up_to_row_ops():
    a = row_hnf_2xn([[2, 0, -2], [0, 3, 3]])
    b = row_hnf_2xn([[2, 3, 1], [0, 3, 3]])  # row0 + row1, row1
    assert a == b  # same lattice, same normal form


def gaussian_binomial(n, k, q):
    """The k-subspaces of F_q^n: prod_{i<k} (q^(n-i) - 1) / (q^(i+1) - 1)."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def test_gaussian_binomials_and_galois_numbers():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(4, 2, 3) == 130
    # number of subspaces of F_q^n, frozen small values
    assert galois_number(2, 2) == 5
    assert galois_number(3, 2) == 16
    assert galois_number(5, 2) == 374
    assert galois_number(6, 3) == 56632
    # the recurrence against the sum of the Gaussian binomials
    for q in (2, 3, 5, 7):
        for n in range(11):
            assert galois_number(n, q) == sum(gaussian_binomial(n, k, q) for k in range(n + 1))


@pytest.mark.parametrize("n,expected", [(0, 1), (1, 2), (2, 5), (3, 16)])
def test_iter_subspaces_counts(n, expected):
    seen = list(iter_subspaces(F2, n))
    assert len(seen) == expected
    # all distinct as row spaces and each in rref with matching pivots
    keys = set()
    for rows, piv in seen:
        R, p = row_space(F2, [list(r) for r in rows], n)
        assert [list(r) for r in rows] == R
        assert tuple(p) == tuple(piv)
        keys.add(tuple(tuple(r) for r in rows))
    assert len(keys) == expected


def test_iter_subspaces_f5_line_count():
    # lines in F_5^2: (25 - 1) / 4 = 6
    lines = [rows for rows, _ in iter_subspaces(F5, 2) if len(rows) == 1]
    assert len(lines) == 6


# ---------------------------------------------------------------------------
# the per-field kernels against the generic elimination they replaced, which
# does the field's arithmetic on every entry (each result through F.convert),
# and the matrix helpers the other test files build modules with


def zeros(F, nrows, ncols):
    return [[F.convert(0)] * ncols for _ in range(nrows)]


def identity(F, n):
    M = zeros(F, n, n)
    for i in range(n):
        M[i][i] = F.convert(1)
    return M


def mat_inverse(F, A):
    """The inverse of the square matrix A, None when A is singular: the
    right half of the rref of [A | I]."""
    n = len(A)
    R, pivots = ref_rref(F, [list(row) + e for row, e in zip(A, identity(F, n))])
    return [row[n:] for row in R] if pivots[:n] == list(range(n)) else None


def in_row_space(F, R, pivots, v):
    """Whether v lies in the span of the rref rows R."""
    return not any(F.convert(x) for x in ref_reduce_vector(F, R, pivots, v))


def ref_rref(F, A):
    M = [list(row) for row in A]
    nrows, ncols = len(M), len(M[0]) if M else 0
    pivots, r = [], 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if F.convert(M[i][c]) != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = F.convert(Fraction(1) / M[r][c])
        M[r] = [F.convert(inv * x) for x in M[r]]
        for i in range(nrows):
            if i != r and F.convert(M[i][c]) != 0:
                f = M[i][c]
                M[i] = [F.convert(x - f * y) for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return M[:r], pivots


def ref_mat_mul(F, A, B):
    if not A:
        return []
    out = [[F.convert(0)] * (len(B[0]) if B else 0) for _ in A]
    for Ai, oi in zip(A, out):
        for a, Bk in zip(Ai, B):
            if F.convert(a) != 0:
                for j, b in enumerate(Bk):
                    oi[j] = F.convert(oi[j] + a * b)
    return out


def ref_mat_vec(F, A, v):
    if not v and A and not A[0]:
        return [F.convert(0)] * len(A)
    return [row[0] for row in ref_mat_mul(F, A, [[x] for x in v])]


def ref_right_kernel(F, A, ncols):
    if not A or ncols == 0:
        return identity(F, ncols)
    R, pivots = ref_rref(F, A)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [F.convert(0)] * ncols
        v[f] = F.convert(1)
        for row, c in zip(R, pivots):
            v[c] = F.convert(-row[f])
        basis.append(v)
    return basis


def ref_intersect_row_spaces(F, A, B, ncols):
    if not A or not B:
        return []
    At, Bt = transpose(A, ncols), transpose(B, ncols)
    stacked = [ra + [F.convert(-x) for x in rb] for ra, rb in zip(At, Bt)]
    vecs = []
    for c in ref_right_kernel(F, stacked, len(stacked[0]) if stacked else 0):
        vecs.append([ref_dot(F, c[: len(A)], [row[j] for row in A]) for j in range(ncols)])
    return ref_rref(F, vecs)[0]


def ref_dot(F, u, v):
    acc = F.convert(0)
    for a, b in zip(u, v):
        acc = F.convert(acc + a * b)
    return acc


KERNEL_FIELDS = [QQ, F2, PrimeField(3), F5, PrimeField(7), PrimeField(2**61 - 1)]


def field_entries(F):
    if F.p is None:  # mixed signs and denominators
        return st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    return st.one_of(st.integers(0, min(F.p - 1, 6)), st.integers(0, F.p - 1))


@st.composite
def field_matrices(draw, F, nrows=None, ncols=None):
    """Zero, full-rank and rank-deficient matrices, zero rows included; a
    rank-deficient one is a product C @ B with C, B of inner size k."""
    nrows = draw(st.integers(0, 4)) if nrows is None else nrows
    ncols = draw(st.integers(0, 5)) if ncols is None else ncols
    x = field_entries(F)
    if draw(st.booleans()):
        k = draw(st.integers(0, 2))
        C = draw(st.lists(st.lists(x, min_size=k, max_size=k), min_size=nrows, max_size=nrows))
        B = draw(st.lists(st.lists(x, min_size=ncols, max_size=ncols), min_size=k, max_size=k))
        return ref_mat_mul(F, C, B) if k else [[F.convert(0)] * ncols for _ in range(nrows)]
    return draw(st.lists(st.lists(x, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))


def same(a, b):
    """Equal entry for entry and type for type."""
    assert a == b
    assert [[type(x) for x in row] for row in a] == [[type(x) for x in row] for row in b]


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(KERNEL_FIELDS))
def test_rref_and_right_kernel_match_the_generic_elimination(data, F):
    A = data.draw(field_matrices(F))
    ncols = len(A[0]) if A else data.draw(st.integers(0, 3))
    R, piv = rref(F, A)
    Rr, pr = ref_rref(F, A)
    same(R, Rr)
    assert piv == pr
    same(right_kernel(F, A, ncols=ncols), ref_right_kernel(F, A, ncols))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(KERNEL_FIELDS), st.integers(0, 4), st.integers(0, 4))
def test_mat_mul_and_mat_vec_match_the_generic_products(data, F, inner, ncols):
    A = data.draw(field_matrices(F, ncols=inner))
    B = data.draw(field_matrices(F, nrows=inner, ncols=ncols))
    same(mat_mul(F, A, B), ref_mat_mul(F, A, B))
    v = data.draw(st.lists(field_entries(F), min_size=inner, max_size=inner))
    same([mat_vec(F, A, v)], [ref_mat_vec(F, A, v)])


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(KERNEL_FIELDS), st.integers(0, 4), st.integers(0, 4))
def test_mat_mul_is_one_integer_product(data, F, inner, ncols):
    # zero-row and zero-width factors included; over Q the entries carry
    # denominators on both sides, so each product is divided by both
    A = data.draw(field_matrices(F, ncols=inner))
    B = data.draw(field_matrices(F, nrows=inner, ncols=ncols))
    with mock.patch.object(linalg, "int_mat_mul", wraps=linalg.int_mat_mul) as spy:
        got = mat_mul(F, A, B)
    assert spy.call_count == 1
    same(got, ref_mat_mul(F, A, B))


def test_field_objects_only_convert():
    arithmetic = ("zero", "one", "add", "sub", "mul", "neg", "inv", "is_zero", "kind")
    for F in (QQ, F5):
        assert not [name for name in arithmetic if hasattr(F, name)]
    assert not hasattr(QQ, "elements") and list(F5.elements()) == [0, 1, 2, 3, 4]


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(KERNEL_FIELDS), st.integers(0, 4))
def test_intersect_row_spaces_matches_the_generic_construction(data, F, ncols):
    A = data.draw(field_matrices(F, ncols=ncols))
    B = data.draw(field_matrices(F, ncols=ncols))
    same(field_meet(F, A, B, ncols), ref_intersect_row_spaces(F, A, B, ncols))


def ref_reduce_vector(F, R, pivots, v):
    w = list(v)
    for row, c in zip(R, pivots):
        f = w[c]
        if F.convert(f) != 0:
            w = [F.convert(x - f * y) for x, y in zip(w, row)]
    return w


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(KERNEL_FIELDS), st.integers(0, 5))
def test_reduce_vector_matches_the_generic_reduction(data, F, ncols):
    R, piv = rref(F, data.draw(field_matrices(F, ncols=ncols)))
    v = data.draw(st.one_of(
        st.lists(field_entries(F), min_size=ncols, max_size=ncols),
        st.lists(st.just(F.convert(0)), min_size=ncols, max_size=ncols),
        st.sampled_from(R or [[F.convert(0)] * ncols]),
    ))
    w = linalg.reduce_vector(F, R, piv, v)
    same([w], [ref_reduce_vector(F, R, piv, v)])


# ---------------------------------------------------------------------------
# the integer-row subspace kernels against the field kernels, converted back


def scaled_ints(F, A, k):
    """A as integer rows, row i scaled by a nonzero integer chosen by k (only
    spans matter to the integer kernels); over GF(p) the rows as they are."""
    if F.p is not None:
        return [list(row) for row in A]
    return [[x * (-1) ** (i + k) * (1 + (i + k) % 3) for x in int_form(F, [row])[0][0]]
            for i, row in enumerate(A)]


def positive_multiple(u, v):
    """u is a positive rational multiple of v."""
    f = next(c for c, x in enumerate(v) if x)
    return u[f] * v[f] > 0 and all(Fraction(x) / u[f] == y / v[f] for x, y in zip(u, v))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(KERNEL_FIELDS), st.integers(0, 5))
def test_integer_rref_and_kernel_match_the_field_kernels(data, F, k):
    A = data.draw(field_matrices(F))
    ncols = len(A[0]) if A else data.draw(st.integers(0, 3))
    ints = scaled_ints(F, A, k)
    R, piv = linalg.int_rref(F, ints)
    Rf, pf = rref(F, A)
    assert piv == pf
    same(linalg.int_rows_to_field(F, R), Rf)
    if F.p is None:
        assert (R, piv) == linalg._rref_z(ints)
        for row, c in zip(R, piv):
            assert all(type(x) is int for x in row)
            assert row[c] > 0 and math.gcd(*row) == 1
    K, Kf = linalg.int_right_kernel(F, ints, ncols), right_kernel(F, A, ncols=ncols)
    assert len(K) == len(Kf)
    if F.p is None:
        for u, v in zip(K, Kf):
            assert all(type(x) is int for x in u) and math.gcd(*u) == 1
            assert positive_multiple(u, v)
    else:
        same(K, Kf)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(KERNEL_FIELDS), st.integers(0, 4), st.integers(0, 5))
def test_integer_meet_and_product_match_the_field_kernels(data, F, ncols, k):
    A = data.draw(field_matrices(F, ncols=ncols))
    B = data.draw(field_matrices(F, ncols=ncols))
    Ai, Bi = scaled_ints(F, A, k), scaled_ints(F, B, k + 1)
    meet = linalg.int_intersect(F, Ai, Bi, ncols)
    assert meet == linalg.int_rref(F, meet)[0]
    same(linalg.int_rows_to_field(F, meet), ref_intersect_row_spaces(F, A, B, ncols))
    # the rows of A scaled one by one, the arrow C as a whole
    width = data.draw(st.integers(0, 5))
    C = data.draw(field_matrices(F, nrows=ncols, ncols=width))
    Ci = int_form(F, C)[0]
    prod = linalg.int_mat_mul(Ai, Ci, width)
    assert len(prod) == len(A) and all(len(row) == width for row in prod)  # inner size 0 too
    assert rref(F, [[F.convert(x) for x in row] for row in prod])[0] == rref(F, mat_mul(F, A, C))[0]


def ratio(u, v):
    """The rational r with u = r v, read at the first nonzero entry of v (1
    for a zero v)."""
    f = next((c for c, x in enumerate(v) if x), None)
    return Fraction(1) if f is None else Fraction(u[f]) / v[f]


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(KERNEL_FIELDS), st.integers(0, 5))
def test_int_span_matches_the_generic_elimination(data, F, k):
    A = data.draw(field_matrices(F))
    ncols = len(A[0]) if A else data.draw(st.integers(0, 3))
    R, piv = linalg.int_span(F, scaled_ints(F, A, k), ncols)
    Rr, pr = ref_rref(F, A)
    assert piv == pr
    same(linalg.int_rows_to_field(F, R), Rr)
    # the rows as given and scaled row by row span one canonical basis
    assert (R, piv) == linalg.int_span(F, A, ncols)
    for row, c in zip(R, piv):
        assert all(type(x) is int for x in row)
        assert (row[c] == 1) if F.p is not None else (row[c] > 0 and math.gcd(*row) == 1)
    with pytest.raises(InputError):
        linalg.int_span(F, A + [[F.convert(0)] * (ncols + 1)], ncols)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(KERNEL_FIELDS), st.integers(0, 5), st.integers(0, 5))
def test_int_residues_match_the_generic_reduction(data, F, ncols, k):
    A = data.draw(field_matrices(F, ncols=ncols))
    W, piv = linalg.int_rref(F, scaled_ints(F, A, k))
    R = ref_rref(F, A)[0]
    vs = data.draw(st.lists(st.one_of(
        st.lists(field_entries(F), min_size=ncols, max_size=ncols),
        st.sampled_from(A or [[F.convert(0)] * ncols]),
    ), max_size=3))
    ints = scaled_ints(F, vs, k + 1)
    L = math.lcm(*[w[c] for w, c in zip(W, piv)])
    got = linalg.int_residues(F, W, piv, ints)
    assert len(got) == len(vs)
    for r, v, vi in zip(got, vs, ints):
        want = ref_reduce_vector(F, R, piv, v)
        if F.p is not None:
            same([r], [want])
            continue
        # L times the residue of the integer row, which is a multiple of v
        assert all(type(x) is int for x in r)
        assert [Fraction(x) for x in r] == [L * ratio(vi, v) * y for y in want]
        assert any(r) == any(want)
