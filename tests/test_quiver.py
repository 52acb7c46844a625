"""Quiver module layer: construction, hom/iso, duality, tilting, stability."""

import collections
import itertools
import operator
import random
import sys

import pytest
from fractions import Fraction
from hypothesis import example, given, settings
from hypothesis import strategies as st

from p2stab.errors import InputError, VerificationError
from p2stab.geometry import (
    bprime_module_points,
    module_ideal_A0,
    module_ideal_A1,
    module_point,
    theta_b0,
)
from p2stab import linalg, quiver
from p2stab.linalg import PrimeField, QQ, galois_number, mat_inverse, mat_mul
from p2stab.quiver import (
    DestabilizedError,
    QuiverRep,
    SubmoduleSearch,
    check_relations,
    closure,
    direct_sum,
    dualize,
    hom_space,
    iso_test,
    jh_factors,
    king_test,
    quotient_by,
    random_rep,
    rep_from_json,
    rep_to_json,
    require_relations,
    reverse_theta,
    s_equiv,
    simple,
    submodule_dimvecs,
    theta_pair,
    theta_transform,
    tilt_B_to_Bprime,
    tilt_Bprime_to_B,
    triple_dims,
)
from test_linalg import ref_intersect_row_spaces

F2 = PrimeField(2)
F5 = PrimeField(5)
F7 = PrimeField(7)

O_X = module_point([1, 0, 0])
O_Y = module_point([0, 1, 0])
O_Z = module_point([1, 1, 1])

# weights on the skyscraper dims (1, 2, 1): stable / semistable / unstable
TH_STABLE = (-3, 1, 1)
TH_SEMI = (-2, 1, 0)
TH_UNSTABLE = (1, 0, -1)


# ---------------------------------------------------------------------------
# construction and validation


def test_simple_modules():
    for v in range(3):
        s = simple("B", v)
        assert s.dims == tuple(1 if w == v else 0 for w in range(3))
        assert check_relations(s) == (True, None)
    with pytest.raises(InputError):
        simple("B", 3)


def test_constructor_rejects_shape_mismatch():
    gamma = [[[Fraction(0)]], [[Fraction(0)]], [[Fraction(0)]]]
    delta = [[[Fraction(0)]], [[Fraction(0)]], [[Fraction(0)]]]
    with pytest.raises(InputError):
        QuiverRep("B", QQ, (1, 2, 1), gamma, delta)  # gammas should be 2x1


def test_require_relations_catches_corruption():
    rep = module_point([1, 2, 3])
    bad_delta = [[list(r) for r in rep.delta_m(j)] for j in range(3)]
    bad_delta[0][0][0] += 1
    broken = QuiverRep(rep.algebra, rep.field, rep.dims, rep.gamma, bad_delta)
    ok, pair = check_relations(broken)
    assert not ok and pair is not None
    with pytest.raises(VerificationError):
        require_relations(broken)


@pytest.mark.parametrize("field", [QQ, F5])
@pytest.mark.parametrize("dims", [(1, 2, 1), (2, 3, 2), (0, 2, 1)])
def test_random_rep_satisfies_relations(field, dims):
    rng = random.Random(11)
    for _ in range(5):
        rep = random_rep("B", field, dims, rng)
        assert rep.dims == dims
        assert check_relations(rep) == (True, None)


def test_diagonal_relations_hold_over_gf2():
    # delta_i gamma_i = 0 is the diagonal pair (i, i) of the symmetric B
    # relations; doubled, as delta_i gamma_i + delta_i gamma_i, it would
    # vanish mod 2 whatever the arrows are
    one, zero = ((1,),), ((0,),)
    for field in (QQ, F2, F5):
        bad = QuiverRep("B", field, (1, 1, 1), [one, zero, zero], [one, zero, zero])
        assert check_relations(bad) == (False, (0, 0))
    rng = random.Random(2)
    for dims in [(1, 2, 1), (2, 3, 2), (1, 1, 1), (2, 2, 2)] * 5:
        rep = random_rep("B", F2, dims, rng)
        for i in range(3):
            assert not any(map(any, mat_mul(F2, rep.delta_m(i), rep.gamma_m(i))))


@pytest.mark.parametrize("field", [QQ, F7])
def test_json_round_trip(field):
    rng = random.Random(3)
    rep = random_rep("B", field, (2, 3, 1), rng)
    blob = rep_to_json(rep)
    back = rep_from_json(blob)
    assert rep_to_json(back) == blob
    assert back.dims == rep.dims and back.algebra == rep.algebra
    assert iso_test(rep, back).isomorphic


def test_rep_from_json_rejects_garbage():
    with pytest.raises(InputError):
        rep_from_json({"algebra": "B", "dims": [1, "x", 1]})


def test_equal_modules_built_apart_are_one_memo_key():
    # the hash is kept on the module; equal modules built separately still
    # compare and hash equal, and the hash is that of the fields
    pts = [(1, 2, 3), (2, -1, 1)]
    a, b = module_ideal_A1(pts), module_ideal_A1(pts)
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(a) == hash((a.algebra, a.field, a.dims, a.gamma, a.delta))
    assert module_ideal_A0(pts) != a
    assert len({a, b, module_ideal_A0(pts), module_ideal_A0(pts)}) == 2


def ref_int_sides(rep):
    """The integer form of `quiver._int_sides`, formed afresh from the
    arrows: over Q each side's stacked rows in their `linalg.int_form` and
    its scale read off one nonzero entry (0 on a zero side); over GF(p) the
    arrows as stored, scale 1."""
    form = []
    for side in (rep.gamma, rep.delta):
        if rep.field.p is not None:
            form.append((side, Fraction(1)))
            continue
        n = len(side[0])
        rows = linalg.int_form(QQ, [list(r) for A in side for r in A])[0]
        Ns = tuple(tuple(map(tuple, rows[k * n : (k + 1) * n])) for k in range(3))
        entries = [(a, x) for A, N in zip(side, Ns) for ra, rn in zip(A, N)
                   for a, x in zip(ra, rn) if x]
        form.append((Ns, Fraction(entries[0][0]) / entries[0][1] if entries else Fraction(0)))
    return tuple(form)


def ref_primitive_arrows(rep):
    """Each arrow of a rational module scaled on its own to a primitive
    integer matrix."""
    return [[linalg.int_form(QQ, A)[0] for A in side] for side in (rep.gamma, rep.delta)]


def assert_scales_arrows(rep):
    """t N equals the arrow, entry by entry, for every arrow of each side of
    the integer form, and t is a Fraction."""
    F = rep.field
    for (Ns, t), side in zip(quiver._int_sides(rep), (rep.gamma, rep.delta)):
        assert len(Ns) == len(side) == 3 and type(t) is Fraction
        for N, A in zip(Ns, side):
            assert [[F.convert(t * x) for x in row] for row in N] == [list(r) for r in A]


def assert_kept_int_form(rep):
    """A module the module algebra built (a tilt, a split, `random_rep`, a
    construction) keeps an integer form, equal to the one formed afresh
    from its arrows, whose scales give back every arrow."""
    assert rep._int_form is not None
    assert rep._int_form == ref_int_sides(rep)
    assert_scales_arrows(rep)


@pytest.mark.parametrize("field", [QQ, F2, PrimeField(3), F5, F7], ids=repr)
def test_int_sides_are_formed_once_and_immutable(field):
    rng = random.Random(field.p or 0)
    shapes = ((1, 2, 1), (2, 3, 2), (0, 2, 1), (2, 0, 0))
    reps = [random_rep("B", field, dims, rng) for dims in shapes]
    reps += [random_rep("Bprime", field, (2, 2, 1), rng)]
    for rep in reps:
        assert_kept_int_form(rep)  # its relation check formed it
    if field.p is None:
        pts = [(1, 2, 3), (2, -1, 1)]
        reps += [module_ideal_A1(pts), module_ideal_A0(pts), bprime_module_points(pts)]
        reps += [module_point(x) for x in pts]
        # rational arrows that are not integral, so the scaling shows
        reps += [QuiverRep("B", QQ, (1, 1, 0), [((Fraction(2, 3),),), ((Fraction(-4, 9),),),
                                                  ((0,),)], [()] * 3)]
    for rep in reps:
        form = quiver._int_sides(rep)
        assert quiver._int_sides(rep) is form
        assert form == ref_int_sides(rep)
        assert_scales_arrows(rep)
        assert quiver._int_arrows(rep) == (form[0][0], form[1][0])
        assert all(isinstance(A, tuple) and all(isinstance(r, tuple) for r in A)
                   for Ns, _ in form for A in Ns)
        with pytest.raises(TypeError):
            form[0][0][0] = None
        if field.p is not None:
            continue
        for p in (2, 3, 5, 7):
            want = QuiverRep(rep.algebra, PrimeField(p), rep.dims, *ref_primitive_arrows(rep))
            got = quiver._reduce_rep_mod_p(rep, p)
            assert got == want and hash(got) == hash(want)
            assert quiver._int_sides(got) == ref_int_sides(want)


def test_a_side_over_several_denominators_takes_one_scale():
    # the gammas 1/2, 2/3 and 0 share the scale 1/6; a side of no entries
    # is zero, scale 0
    rep = QuiverRep("B", QQ, (1, 1, 0), [[[Fraction(1, 2)]], [[Fraction(2, 3)]], [[0]]],
                    [[]] * 3)
    assert quiver._int_sides(rep) == (((((3,),), ((4,),), ((0,),)), Fraction(1, 6)),
                                      (((), (), ()), Fraction(0)))
    assert_scales_arrows(rep)
    # mod 2 the side's 4 vanishes; each arrow made primitive on its own keeps
    # the second gamma
    assert quiver._reduce_rep_mod_p(rep, 2).gamma == (((1,),), ((1,),), ((0,),))
    # a side over 5/4 and -15/8: the gcd 5 of its integers moves into t
    rep = QuiverRep("B", QQ, (1, 2, 0), [[[Fraction(5, 4)], [0]], [[0], [Fraction(-15, 8)]],
                                         [[0], [0]]], [[]] * 3)
    assert quiver._int_sides(rep)[0] == ((((2,), (0,)), ((0,), (-3,)), ((0,), (0,))),
                                         Fraction(5, 8))
    assert_scales_arrows(rep)


# ---------------------------------------------------------------------------
# submodule mechanics


def test_closure_gives_invariant_triple():
    triple = closure(O_X, seeds2=[[Fraction(1)]])
    assert triple_dims(triple) == (0, 0, 1)
    assert ref_is_invariant(O_X, triple)
    # a vertex-0 seed drags its arrow images along
    full = closure(O_X, seeds0=[[Fraction(1)]])
    assert triple_dims(full) == (1, 2, 1)


def test_sub_from_and_quotient_complement():
    triple = closure(O_X, seeds1=[[Fraction(1), Fraction(0)]])
    sub, quo = quiver._split(O_X, triple)
    assert check_relations(sub) == (True, None)
    assert check_relations(quo) == (True, None)
    assert tuple(s + q for s, q in zip(sub.dims, quo.dims)) == O_X.dims
    with pytest.raises(InputError):
        quiver._split(O_X, ([[Fraction(1)]], [], []))  # not arrow-invariant
    with pytest.raises(InputError):
        quotient_by(O_X, ([[Fraction(1)]], [], []))


# the four constructions on per-vector Fraction rows, as they were before they
# moved onto the search's integer operators: the reference for the new code


def ref_pivots_of_rref(F, R):
    piv = []
    for row in R:
        for c, x in enumerate(row):
            if F.convert(x) != 0:
                piv.append(c)
                break
    return piv


def ref_closure(rep, seeds0=(), seeds1=(), seeds2=()):
    F = rep.field
    n0, n1, n2 = rep.dims
    U0 = ref_canon(F, [list(v) for v in seeds0], n0)
    at1 = [list(v) for v in seeds1]
    for u in U0:
        for i in range(3):
            at1.append(linalg.mat_vec(F, rep.gamma_m(i), list(u)))
    U1 = ref_canon(F, at1, n1)
    at2 = [list(v) for v in seeds2]
    for u in U1:
        for j in range(3):
            at2.append(linalg.mat_vec(F, rep.delta_m(j), list(u)))
    U2 = ref_canon(F, at2, n2)
    return (U0, U1, U2)


def ref_is_invariant(rep, triple):
    F = rep.field
    U0, U1, U2 = triple
    R1, p1 = linalg.row_space(F, [list(r) for r in U1], rep.dims[1])
    R2, p2 = linalg.row_space(F, [list(r) for r in U2], rep.dims[2])
    for u in U0:
        for i in range(3):
            v = linalg.mat_vec(F, rep.gamma_m(i), list(u))
            if not linalg.in_row_space(F, R1, p1, v):
                return False
    for u in U1:
        for j in range(3):
            v = linalg.mat_vec(F, rep.delta_m(j), list(u))
            if not linalg.in_row_space(F, R2, p2, v):
                return False
    return True


def ref_sub_from(rep, triple):
    if not ref_is_invariant(rep, triple):
        raise InputError("not a submodule")
    F = rep.field
    canon = tuple(
        ref_canon(F, [list(r) for r in U], rep.dims[v]) for v, U in enumerate(triple)
    )
    U0, U1, U2 = canon
    piv = [ref_pivots_of_rref(F, U) for U in canon]

    def induced(M, src, tgt, tgt_piv):
        cols = []
        for u in src:
            v = linalg.mat_vec(F, M, list(u))
            cols.append([v[p] for p in tgt_piv])
        return linalg.transpose(cols, ncols=len(src)) if cols else [[] for _ in range(len(tgt))]

    gamma = [induced(rep.gamma_m(i), U0, U1, piv[1]) for i in range(3)]
    delta = [induced(rep.delta_m(j), U1, U2, piv[2]) for j in range(3)]
    return QuiverRep(rep.algebra, F, triple_dims(canon), gamma, delta)


def ref_quotient_by(rep, triple):
    F = rep.field
    if not ref_is_invariant(rep, triple):
        raise InputError("not a submodule")
    data = []
    for v, U in enumerate(triple):
        R, piv = linalg.row_space(F, [list(r) for r in U], rep.dims[v])
        comp = [c for c in range(rep.dims[v]) if c not in piv]
        data.append((R, piv, comp))

    def project(vertex, vec):
        R, piv, comp = data[vertex]
        w = linalg.reduce_vector(F, R, piv, vec)
        return [w[c] for c in comp]

    def induced(M, src_vertex, tgt_vertex):
        _, _, comp_src = data[src_vertex]
        cols = []
        for c in comp_src:
            e = [F.convert(0)] * rep.dims[src_vertex]
            e[c] = F.convert(1)
            cols.append(project(tgt_vertex, linalg.mat_vec(F, M, e)))
        tgt_dim = len(data[tgt_vertex][2])
        return linalg.transpose(cols, ncols=len(comp_src)) if cols else [
            [] for _ in range(tgt_dim)
        ]

    gamma = [induced(rep.gamma_m(i), 0, 1) for i in range(3)]
    delta = [induced(rep.delta_m(j), 1, 2) for j in range(3)]
    return QuiverRep(rep.algebra, F, tuple(len(d[2]) for d in data), gamma, delta)


def typed(x):
    """x with the type of every entry beside it, for nested tuples/lists."""
    if isinstance(x, (tuple, list)):
        return tuple(typed(y) for y in x)
    return (x, type(x))


def typed_rep(rep):
    return (rep.algebra, rep.field, rep.dims, typed(rep.gamma), typed(rep.delta))


def split_sub(rep, triple):
    """The submodule half of `quiver._split`."""
    return quiver._split(rep, triple)[0]


def outcome(fn, *args, **kwargs):
    """What a call gives: its value with entry types, or the InputError."""
    try:
        out = fn(*args, **kwargs)
    except InputError:
        return InputError
    return typed_rep(out) if isinstance(out, QuiverRep) else typed(out)


def field_rrefs(F, triple, dims):
    """The field's rref (`linalg.row_space`) of each span of a triple, as
    the reference code gives its triples."""
    return tuple(ref_canon(F, [list(r) for r in U], n) for U, n in zip(triple, dims))


def assert_integer_rows(F, triple):
    """Every entry of the triple is an int, reduced mod p over GF(p)."""
    entries = [x for U in triple for row in U for x in row]
    assert all(type(x) is int for x in entries)
    assert F.p is None or all(0 <= x < F.p for x in entries)


def random_rows(field, rng, n, k):
    if field.p is None:
        return [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(k)]
    return [[rng.randrange(field.p) for _ in range(n)] for _ in range(k)]


@pytest.mark.parametrize("field", [QQ, F2, PrimeField(3), F5, F7], ids=repr)
def test_image_applies_the_arrows_as_stored(field):
    # A u for each arrow A (n_tgt x n_src, as stored) and each row u, arrow
    # by arrow and then row by row, against the field product
    rng = random.Random(field.p or 0)

    def entry():
        return rng.randint(-4, 4) if field.p is None else rng.randrange(field.p)

    for n_src, n_tgt in ((3, 4), (4, 2), (1, 1), (2, 0), (0, 3), (0, 0)):
        arrows = [[[entry() for _ in range(n_src)] for _ in range(n_tgt)] for _ in range(3)]
        rows = [[entry() for _ in range(n_src)] for _ in range(rng.randint(1, 3))]
        got = quiver._image(rows, arrows)
        want = [
            linalg.mat_vec(field, [[field.convert(x) for x in r] for r in A],
                           [field.convert(x) for x in u])
            for A in arrows for u in rows
        ]
        assert [[field.convert(x) for x in r] for r in got] == want
        assert all(len(r) == n_tgt for r in got)


@pytest.mark.parametrize("field", [QQ, F2, PrimeField(3), F5], ids=repr)
def test_constructions_match_the_per_vector_code(field):
    rng = random.Random(field.p or 0)
    kinds = collections.Counter()
    for k in range(40):
        dims = tuple(rng.randint(0, 3) for _ in range(3))
        algebra = "B" if k % 2 else "Bprime"
        rep = rational_rep(algebra, dims, rng) if field.p is None else random_rep(
            algebra, field, dims, rng)
        triples = list(quiver._layer1(rep, k).values())  # witnesses
        triples.append(((), (), ()))
        triples.append(tuple(tuple(linalg.identity(field, n)) for n in dims))
        for _ in range(4):  # mostly not invariant
            triples.append(tuple(random_rows(field, rng, n, rng.randint(0, n)) for n in dims))
        for triple in triples:
            invariant = ref_is_invariant(rep, triple)
            kinds[invariant] += 1
            for new, ref in ((split_sub, ref_sub_from), (quotient_by, ref_quotient_by)):
                got = outcome(new, rep, triple)
                assert got == outcome(ref, rep, triple)
                assert (got is InputError) == (not invariant)
            if invariant:
                for part in quiver._split(rep, triple):
                    assert_kept_int_form(part)
        seeds = [random_rows(field, rng, n, rng.randint(0, 2)) for n in dims]
        got = closure(rep, *seeds)
        assert field_rrefs(field, got, dims) == ref_closure(rep, *seeds)
        assert_integer_rows(field, got)
        assert all(linalg.int_rref(field, U)[0] == U for U in got)  # canonical
        # a row of the wrong length is invalid input, for both
        v = rng.randrange(3)
        bad = [list(U) for U in triples[-1]]
        bad[v] = bad[v] + [[field.convert(1)] * (dims[v] + 1)]
        for fn in (split_sub, quotient_by, ref_sub_from, ref_quotient_by):
            assert outcome(fn, rep, tuple(bad)) is InputError
        seeds[v] = seeds[v] + [[field.convert(1)] * (dims[v] + 1)]
        assert outcome(closure, rep, *seeds) is InputError
        assert outcome(ref_closure, rep, *seeds) is InputError
    assert kinds[True] and kinds[False]


def test_skyscraper_submodule_dimvecs_exact():
    res = submodule_dimvecs(O_X)
    assert res.complete
    assert res.upper == frozenset(
        {(0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 2, 1), (1, 2, 1)}
    )
    assert res.witnesses.keys() <= res.upper
    for dv, wit in res.witnesses.items():
        assert triple_dims(wit) == dv
        assert ref_is_invariant(O_X, wit)


def test_search_is_deterministic():
    a = submodule_dimvecs(O_Z, seed=5)
    b = submodule_dimvecs(O_Z, seed=5)
    assert (a.lower, a.upper, a.evidence) == (b.lower, b.upper, b.evidence)


@pytest.mark.parametrize("dims", [(1, 2, 1), (2, 2, 1), (1, 3, 2)])
def test_layer1_sound_on_prime_field_reps(dims):
    rng = random.Random(7)
    for _ in range(4):
        rep = random_rep("B", F2, dims, rng)
        res = submodule_dimvecs(rep)
        assert res.complete  # exhaustive on the module's own field
        assert res.witnesses.keys() <= res.upper
        for dv, wit in res.witnesses.items():
            assert ref_is_invariant(rep, wit) and triple_dims(wit) == dv


# ---------------------------------------------------------------------------
# Layer 1 on integer rows against the search on Fraction rows it replaced


def ref_canon(F, vectors, ncols):
    return tuple(tuple(r) for r in linalg.row_space(F, vectors, ncols)[0])


def ref_u1_candidates(rep, seed, cap, pair_budget):
    F = rep.field
    n0, n1, n2 = rep.dims
    pool = {}

    def add(rows):
        canon = ref_canon(F, [list(r) for r in rows], n1)
        if len(pool) >= cap:
            return canon, False
        size = len(pool)
        pool.setdefault(canon, None)
        return canon, len(pool) > size

    def basis_vectors(n):
        for c in range(n):
            e = [F.convert(0)] * n
            e[c] = F.convert(1)
            yield e

    def gamma_span(x):
        return [linalg.mat_vec(F, rep.gamma_m(i), list(x)) for i in range(3)]

    add([])
    add(linalg.identity(F, n1))
    gamma_cols = [linalg.transpose(rep.gamma_m(i), ncols=n0) for i in range(3)]
    for i in range(3):
        add(gamma_cols[i])
    add([row for cols in gamma_cols for row in cols])
    stacked_delta = [row for j in range(3) for row in rep.delta_m(j)]
    add(linalg.right_kernel(F, stacked_delta, ncols=n1))
    for j in range(3):
        add(linalg.right_kernel(F, rep.delta_m(j), ncols=n1))
    for e in basis_vectors(n0):
        add(gamma_span(e))
    for e in basis_vectors(n1):
        add([e])
    if isinstance(F, PrimeField):
        if n0 and F.p ** n0 <= 512:
            for coeffs in itertools.product(F.elements(), repeat=n0):
                if any(c != 0 for c in coeffs):
                    add(gamma_span(list(coeffs)))
        if n1 and F.p ** n1 <= 512:
            for coeffs in itertools.product(F.elements(), repeat=n1):
                if any(c != 0 for c in coeffs):
                    add([list(coeffs)])

    targets = {}

    def add_target(rows):
        if len(targets) < 64:
            targets.setdefault(ref_canon(F, [list(r) for r in rows], n2), None)

    add_target([])
    add_target(linalg.identity(F, n2))
    for j in range(3):
        add_target(linalg.transpose(rep.delta_m(j), ncols=n1))
    if n2 <= 4:
        ebasis = list(basis_vectors(n2))
        for mask in range(1, 2**n2 - 1):
            add_target([ebasis[k] for k in range(n2) if (mask >> k) & 1])
    for u1c in list(pool)[:40]:
        imgs = [linalg.mat_vec(F, rep.delta_m(j), list(u)) for u in u1c for j in range(3)]
        add_target(linalg.row_space(F, imgs, n2)[0])
    deltas_t = [linalg.transpose(rep.delta_m(j), ncols=n1) for j in range(3)]

    def delta_preimage(wrows):
        ann = linalg.right_kernel(F, [list(r) for r in wrows], ncols=n2)
        constraints = [linalg.mat_vec(F, deltas_t[j], list(w)) for w in ann for j in range(3)]
        return linalg.right_kernel(F, constraints, ncols=n1)

    for w in list(targets):
        add(delta_preimage(w))
    rng = random.Random(seed)

    def rand_vec(n):
        if isinstance(F, PrimeField):
            return [rng.randrange(F.p) for _ in range(n)]
        return [Fraction(rng.randint(-3, 3)) for _ in range(n)]

    for _ in range(8):
        if n0:
            add(gamma_span(rand_vec(n0)))
        if n1:
            add([rand_vec(n1)])
    ops = 0
    atoms = list(pool)
    for a, b in itertools.combinations(atoms, 2):
        if ops >= pair_budget or len(pool) >= cap:
            break
        add([list(r) for r in a] + [list(r) for r in b])
        add(ref_intersect_row_spaces(F, [list(r) for r in a], [list(r) for r in b], n1))
        ops += 2
    seen = set(atoms)
    frontier = [t for t in pool if t not in seen]
    rounds = 0
    while frontier and ops < pair_budget and len(pool) < cap and rounds < 2:
        snapshot = list(pool)
        new = []
        for a in frontier:
            if ops >= pair_budget or len(pool) >= cap:
                break
            for b in snapshot:
                if ops >= pair_budget or len(pool) >= cap:
                    break
                canon, fresh = add([list(r) for r in a] + [list(r) for r in b])
                ops += 1
                if fresh:
                    new.append(canon)
        frontier = new
        rounds += 1
    return list(pool)


def ref_layer1(rep, seed, cap=250, pair_budget=4000):
    F = rep.field
    n0, n1, n2 = rep.dims
    gammas = [rep.gamma_m(i) for i in range(3)]
    deltas_t = [linalg.transpose(rep.delta_m(j), ncols=n1) for j in range(3)]
    witnesses = {}
    for u1c in ref_u1_candidates(rep, seed, cap, pair_budget):
        u1 = [list(r) for r in u1c]
        imgs = [row for dt in deltas_t for row in mat_mul(F, u1, dt)]
        D, dpiv = linalg.row_space(F, imgs, n2)
        d2 = len(D)
        growth = []
        grow_rows, grow_piv = [list(r) for r in D], list(dpiv)
        for k in range(n2):
            e = [F.convert(0)] * n2
            e[k] = F.convert(1)
            red = linalg.reduce_vector(F, grow_rows, grow_piv, list(e))
            if any(F.convert(x) != 0 for x in red):
                growth.append(e)
                grow_rows, grow_piv = linalg.row_space(F, grow_rows + [e], n2)
        ann = linalg.right_kernel(F, u1, ncols=n1)
        constraints = [row for g in gammas for row in mat_mul(F, ann, g)]
        u0max = linalg.right_kernel(F, constraints, ncols=n0)
        for a in range(len(u0max) + 1):
            for c in range(d2, n2 + 1):
                dv = (a, len(u1c), c)
                if dv in witnesses:
                    continue
                u0rows = ref_canon(F, [list(u0max[i]) for i in range(a)], n0)
                u2rows = ref_canon(
                    F, [list(r) for r in D] + [list(g) for g in growth[: c - d2]], n2
                )
                witnesses[dv] = (u0rows, u1c, u2rows)
    return witnesses


def base_change(rep, rand_matrix):
    """rep in a random basis at every vertex (an isomorphic module);
    ``rand_matrix(n)`` draws an n x n matrix."""
    F = rep.field

    def rand_basis(n):
        while True:
            P = rand_matrix(n)
            Pinv = mat_inverse(F, P)
            if Pinv is not None:
                return P, Pinv

    P = [rand_basis(n) for n in rep.dims]

    def change(M, src, tgt):
        if not M or not M[0]:
            return M
        return mat_mul(F, mat_mul(F, P[tgt][0], M), P[src][1])

    return QuiverRep(
        rep.algebra, F, rep.dims,
        [change(rep.gamma_m(i), 0, 1) for i in range(3)],
        [change(rep.delta_m(j), 1, 2) for j in range(3)],
    )


def rational_rep(algebra, dims, rng):
    """A random rational module with mixed signs and denominators: a
    `random_rep` over QQ in a random rational basis at every vertex."""
    return base_change(
        random_rep(algebra, QQ, dims, rng),
        lambda n: [[Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n)]
                   for _ in range(n)],
    )


@settings(max_examples=100, deadline=None)
@given(
    field=st.sampled_from([QQ, PrimeField(3), F5]),
    dims=st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
    algebra=st.sampled_from(["B", "Bprime"]),
    seed=st.integers(0, 2**16),
    budgets=st.sampled_from([(250, 4000), (40, 60), (12, 400)]),
)
@example(field=QQ, dims=(3, 4, 2), algebra="B", seed=0, budgets=(250, 4000))
@example(field=QQ, dims=(2, 3, 2), algebra="Bprime", seed=1, budgets=(250, 4000))
@example(field=QQ, dims=(0, 3, 0), algebra="B", seed=2, budgets=(250, 4000))
@example(field=F5, dims=(2, 0, 3), algebra="Bprime", seed=3, budgets=(250, 4000))
@example(field=PrimeField(3), dims=(0, 0, 0), algebra="B", seed=4, budgets=(250, 4000))
def test_layer1_matches_the_fraction_row_search(field, dims, algebra, seed, budgets):
    rng = random.Random(seed)
    if field.p is None:
        rep = rational_rep(algebra, dims, rng)
    else:
        rep = random_rep(algebra, field, dims, rng)
    assert_layer1_matches_the_fraction_row_search(rep, seed, *budgets)


def assert_layer1_matches_the_fraction_row_search(rep, seed, cap, pair_budget):
    """The pool, and the witnesses drawn from it, match the Fraction-row
    search's: the same candidates in the same order, and witnesses of the
    same classes in the same order, each an integer triple spanning the
    spaces of the reference's witness."""
    field = rep.field
    pool = quiver._u1_candidates(rep, seed, cap, pair_budget)
    assert [
        tuple(tuple(r) for r in linalg.int_rows_to_field(field, u1)) for u1 in pool
    ] == ref_u1_candidates(rep, seed, cap, pair_budget)
    got = quiver._layer1(rep, seed, cap=cap, pair_budget=pair_budget)
    want = ref_layer1(rep, seed, cap=cap, pair_budget=pair_budget)
    assert list(got) == list(want)
    for dv, triple in got.items():
        assert field_rrefs(field, triple, rep.dims) == want[dv]
        assert_integer_rows(field, triple)


def test_layer1_conversions_do_not_grow_with_the_pair_budget(monkeypatch):
    # the closure and the per-candidate loop work on integer rows, so a
    # larger pair budget adds eliminations but no Fraction-to-int conversions:
    # the module's integer form was formed when it was built, so Layer 1
    # converts nothing (counts, not timings: the same on every machine)
    rep = module_ideal_A1([(1, 2, 3), (2, -1, 1), (3, 1, -2)])
    assert rep.dims == (3, 7, 3) and rep.field == QQ
    calls = {}
    for name in ("int_form", "_rref_z"):
        real = getattr(linalg, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(linalg, name, counting)
    seen = {}
    for pair_budget in (400, 4000):
        calls.update(int_form=0, _rref_z=0)
        quiver._layer1(rep, 0, pair_budget=pair_budget)
        seen[pair_budget] = dict(calls)
    assert seen[400]["int_form"] == seen[4000]["int_form"] == 0
    assert seen[400]["_rref_z"] < seen[4000]["_rref_z"]


# ---------------------------------------------------------------------------
# the search with Layer 1 stopped by the first enumeration, against the
# search that runs the whole Layer-1 pool first


def ref_search(rep, seed):
    """`submodule_dimvecs` as it was before Layer 1 could stop early: the
    whole pool, then the enumerations in turn."""
    witnesses = quiver._layer1(rep, seed)
    lower = frozenset(witnesses)
    upper = frozenset(itertools.product(*(range(n + 1) for n in rep.dims)))
    layers = ["layer1"]

    def affordable(p):
        return quiver._layer2_cost(rep.dims, p) <= quiver._LAYER2_COST_BOUND

    if rep.field.p is not None:
        p = rep.field.p
        if not affordable(p):
            return lower, upper, witnesses, OVER_BOUND, tuple(layers)
        full = quiver._layer2_dimvecs(rep)
        assert lower <= full
        return full, full, witnesses, f"exhaustive(F_{p})", (*layers, f"layer2(F_{p})")
    unsqueezed = []
    for p in itertools.takewhile(affordable, quiver._LAYER2_PRIMES):
        full_p = quiver._layer2_dimvecs(quiver._reduce_rep_mod_p(rep, p))
        layers.append(f"layer2(mod {p})")
        assert lower <= full_p
        upper &= full_p
        if full_p == lower:
            return lower, upper, witnesses, f"squeeze(p={p})", tuple(layers)
        unsqueezed.append((p, full_p))
    ps = ",".join(str(p) for p, _ in unsqueezed)
    if not unsqueezed:
        evidence = OVER_BOUND
    elif upper == lower:
        evidence = f"squeeze(intersection mod {ps})"
    elif len(unsqueezed) == 1:
        evidence = "layer1-only (mod-p excess unresolved)"
    elif all(s == upper for _, s in unsqueezed):
        evidence = f"cross-prime({ps})"
    else:
        evidence = "layer1-only (cross-prime disagreement)"
    return lower, upper, witnesses, evidence, tuple(layers)


def assert_matches_whole_pool(rep, seed):
    got = submodule_dimvecs(rep, seed=seed)
    lower, upper, witnesses, evidence, layers = ref_search(rep, seed)
    assert (got.lower, got.upper, got.evidence, got.layers) == (lower, upper, evidence, layers)
    assert list(got.witnesses.items()) == list(witnesses.items())
    return got


@settings(max_examples=80, deadline=None)
@given(
    field=st.sampled_from([QQ, F2, PrimeField(3), F5, F7]),
    dims=st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
    algebra=st.sampled_from(["B", "Bprime"]),
    seed=st.integers(0, 2**16),
)
@example(field=QQ, dims=(2, 4, 2), algebra="B", seed=0)
@example(field=QQ, dims=(0, 4, 0), algebra="Bprime", seed=1)
@example(field=F7, dims=(4, 4, 4), algebra="B", seed=2)
@example(field=F2, dims=(0, 0, 0), algebra="Bprime", seed=3)
def test_search_matches_the_whole_pool(field, dims, algebra, seed):
    rng = random.Random(seed)
    if field.p is None:
        rep = rational_rep(algebra, dims, rng)
    else:
        rep = random_rep(algebra, field, dims, rng)
    assert_matches_whole_pool(rep, seed)


#: the A0 module of a triple that is not collinear, so stable in truth at
#: theta_b0(3, -1/400); the class (0, 1, 0) exists mod 2, 3 and 5, not mod 7
CROSS_PRIME_A0 = module_ideal_A0([(1, 2, 3), (2, -1, 1), (3, 1, -2)])


#: 2-point modules of the benchmark's reports that squeeze mod 3: their
#: mod-2 sets hold classes that no Layer-1 candidate witnesses
MOD3_A1 = module_ideal_A1([(2, 1, 2), (1, -2, -1)])
MOD3_A0 = module_ideal_A0([(-3, 1, 1), (1, 3, 1)])

#: rational modules of the benchmark's reports: the 2-point A1 module and
#: the collinear triple's A1 module squeeze mod 2, the first prime, the
#: other triple's A0 module only mod 7, and the last two mod 3
_REPORT_MODULES = [
    module_ideal_A1([(1, 2, 3), (2, -1, 1)]),
    module_ideal_A1([(1, 0, 0), (0, 1, 0), (1, 1, 0)]),
    CROSS_PRIME_A0,
    pytest.param(MOD3_A1, id="(2, 5, 2) mod 3"),
    pytest.param(MOD3_A0, id="(2, 4, 1) mod 3"),
]


@pytest.mark.parametrize("budgets", [(250, 4000), (40, 60)], ids=str)
@pytest.mark.parametrize("p", [None, 3], ids=["own field", "reduced mod 3"])
@pytest.mark.parametrize("rep", _REPORT_MODULES, ids=lambda r: str(r.dims))
def test_layer1_matches_the_fraction_row_search_on_report_modules(rep, p, budgets):
    # middle dimensions 4 to 7, past the random inputs above; mod 3 every
    # vector of the first vertex, and of a middle space of dimension 4 or 5,
    # is a source
    if p is not None:
        rep = quiver._reduce_rep_mod_p(rep, p)
    assert_layer1_matches_the_fraction_row_search(rep, 0, *budgets)


def test_a_full_pool_pulls_no_further_source(monkeypatch):
    # counts, not timings: once the pool holds `cap` candidates, no later
    # source is formed, the delta-preimages of the end-vertex targets among them
    rep = _REPORT_MODULES[0]
    calls = []
    real = quiver._preimage
    monkeypatch.setattr(quiver, "_preimage", lambda *args: calls.append(1) or real(*args))
    pool = quiver._u1_candidates(rep, 0, 6, 4000)
    assert len(list(itertools.islice(pool, 6))) == 6
    formed = len(calls)
    assert list(pool) == [] and len(calls) == formed


#: the rational report modules of the triple (1,2,3),(2,-1,1),(3,1,-2) and
#: of its first two points
_WITNESSED_MODULES = [
    _REPORT_MODULES[0],
    module_ideal_A1([(1, 2, 3), (2, -1, 1), (3, 1, -2)]),
    CROSS_PRIME_A0,
]


@pytest.mark.parametrize("rep", _WITNESSED_MODULES, ids=lambda r: str(r.dims))
def test_witnesses_are_independent_integer_rows_of_a_submodule(rep):
    # a witness is the search's own integer bases, kept without an
    # elimination: each row set must still be a basis of its space
    F = rep.field
    search = submodule_dimvecs(rep)
    assert search.witnesses
    for dv, triple in search.witnesses.items():
        assert ref_is_invariant(rep, triple)
        assert all(len(linalg.int_rref(F, U)[0]) == len(U) for U in triple)
        assert triple_dims(triple) == dv


def test_layer1_eliminates_nothing_for_a_witnessed_class(monkeypatch):
    # counts, not timings: every elimination of one Layer-1 run is made
    # building the pool or a candidate's rectangle; storing a witness
    # eliminates nothing and forms no field row
    rep = _WITNESSED_MODULES[1]
    assert rep.dims == (3, 7, 3) and rep.field == QQ
    own = {quiver._u1_candidates.__code__, quiver._rectangle.__code__}
    calls = collections.Counter()
    real = linalg.int_rref

    def counting(*args):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in own:
            frame = frame.f_back
        calls["inside" if frame is not None else "outside"] += 1
        return real(*args)

    to_field = linalg.int_rows_to_field
    monkeypatch.setattr(linalg, "int_rref", counting)
    monkeypatch.setattr(linalg, "int_rows_to_field",
                        lambda *args: calls.update(["to field"]) or to_field(*args))
    witnesses = quiver._layer1(rep, 0)
    assert len(witnesses) > 1 and calls["inside"]
    assert calls["outside"] == calls["to field"] == 0


@pytest.mark.parametrize("rep", _REPORT_MODULES, ids=lambda r: str(r.dims))
def test_search_matches_the_whole_pool_on_report_modules(rep, cold_search):
    assert_matches_whole_pool(rep, 0)


def test_search_squeezed_at_the_first_prime_stops_layer1_early(monkeypatch, cold_search):
    # counts, not timings: the same on every machine
    rep = _REPORT_MODULES[0]
    assert rep.dims == (2, 5, 2) and rep.field == QQ
    calls = []
    real = linalg._rref_z
    monkeypatch.setattr(linalg, "_rref_z", lambda A: calls.append(1) or real(A))
    search = submodule_dimvecs(rep)
    stopped = len(calls)
    calls.clear()
    whole = quiver._layer1(rep, 0)
    assert search.evidence == "squeeze(p=2)" and search.witnesses == whole
    assert stopped < len(calls)


def count_candidates(monkeypatch) -> list:
    """The candidates `_u1_candidates` yields from now on, in order."""
    pulled = []
    real = quiver._u1_candidates

    def counting(*args):
        for u1c in real(*args):
            pulled.append(u1c)
            yield u1c

    monkeypatch.setattr(quiver, "_u1_candidates", counting)
    return pulled


@pytest.mark.parametrize("rep,most", [(MOD3_A1, 20), (MOD3_A0, 19)],
                         ids=["(2, 5, 2)", "(2, 4, 1)"])
def test_layer1_takes_the_next_prime_once_it_has_spent_its_cost(monkeypatch, cold_search,
                                                                rep, most):
    # counts, not timings: mod 2 alone never stops Layer 1 on these modules,
    # mod 3 does once Layer 1 has spent that enumeration's cost
    assert rep.field == QQ and rep.dims in {(2, 5, 2), (2, 4, 1)}
    pulled = count_candidates(monkeypatch)
    search = submodule_dimvecs(rep)
    assert search.evidence == "squeeze(p=3)"
    assert len(pulled) <= most
    pulled.clear()
    quiver._layer1(rep, 0, bounds=[(0, lambda: quiver._layer2_dimvecs(
        quiver._reduce_rep_mod_p(rep, 2)))])
    assert len(pulled) == 250  # bounded by mod 2 alone: the whole pool


@pytest.mark.parametrize("points,pulls,evidence", [
    ([(1, 2, 3), (2, -1, 1)], 20, "squeeze(p=2)"),
    ([(1, 2, 3), (2, -1, 1), (3, 1, -2)], 86, "squeeze(p=3)"),
], ids=["2 points", "3 points"])
def test_layer1_pulls_no_candidate_once_its_bound_is_filled(monkeypatch, cold_search,
                                                           points, pulls, evidence):
    # exact counts, not bounds: Layer 1 stops pulling at the candidate whose
    # rectangle fills its bound, and never asks the pool for one more
    pulled = count_candidates(monkeypatch)
    search = submodule_dimvecs(module_ideal_A1(points))
    assert (len(pulled), search.evidence) == (pulls, evidence)


@pytest.mark.parametrize("rep", _REPORT_MODULES, ids=lambda r: str(r.dims))
def test_search_enumerates_each_prime_at_most_once(monkeypatch, cold_search, rep):
    reached = []
    real = quiver._layer2_dimvecs
    monkeypatch.setattr(quiver, "_layer2_dimvecs", lambda r: reached.append(r.field.p) or real(r))
    search = submodule_dimvecs(rep)
    assert len(reached) == len(set(reached))
    # the loop after Layer 1 reads every prime it names
    assert {int(layer[len("layer2(mod "):-1]) for layer in search.layers[1:]} <= set(reached)
    if rep is _REPORT_MODULES[0]:
        # its first bound fills before mod 3 is worth enumerating
        assert reached == [2] and search.evidence == "squeeze(p=2)"


def test_layer1_takes_its_bounds_lazily_and_intersects_them(monkeypatch, cold_search):
    rep = _REPORT_MODULES[0]
    mod2 = quiver._layer2_dimvecs(quiver._reduce_rep_mod_p(rep, 2))
    box = frozenset(itertools.product(*(range(n + 1) for n in rep.dims)))
    junk = sorted(box - mod2)[:2]  # classes of no submodule
    pulled = count_candidates(monkeypatch)
    whole = quiver._layer1(rep, 0)
    pulled.clear()
    assert quiver._layer1(rep, 0, bounds=[(0, lambda: mod2)]) == whole
    alone = len(pulled)
    pulled.clear()

    def refuse():
        raise AssertionError("a bound Layer 1 did not need was formed")

    # neither of the first two bounds can be filled, their intersection can;
    # it fills after the same candidates as mod 2 alone, before a bound due
    # after 100 more rectangles
    got = quiver._layer1(rep, 0, bounds=[(0, lambda: mod2 | {junk[0]}),
                                         (5, lambda: mod2 | {junk[1]}),
                                         (100, refuse)])
    assert got == whole and set(got) == mod2
    assert len(pulled) == alone < 250


# ---------------------------------------------------------------------------
# Layer 2: outer-pair enumeration against middle-vertex enumeration

#: (p, dims) with dims in 0..4 whose two enumerations both stay small
_LAYER2_SHAPES = [
    (p, dims)
    for p in (2, 3, 5)
    for dims in itertools.product(range(5), repeat=3)
    if galois_number(dims[1], p) <= 2000
    and galois_number(dims[0], p) * galois_number(dims[2], p) <= 2000
]


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from(_LAYER2_SHAPES),
    algebra=st.sampled_from(["B", "Bprime"]),
    seed=st.integers(0, 2**16),
)
@example(shape=(2, (4, 1, 4)), algebra="B", seed=0)
@example(shape=(3, (3, 0, 3)), algebra="Bprime", seed=1)
@example(shape=(5, (2, 1, 3)), algebra="B", seed=2)
@example(shape=(5, (0, 3, 0)), algebra="Bprime", seed=3)
@example(shape=(3, (0, 0, 0)), algebra="B", seed=4)
def test_layer2_pairs_match_middle(shape, algebra, seed):
    p, dims = shape
    rep = random_rep(algebra, PrimeField(p), dims, random.Random(seed))
    assert quiver._layer2_by_pairs(rep) == quiver._layer2_by_middle(rep)


def test_layer2_pairs_match_middle_on_calibration_corpus():
    # the corpus of acceptance criterion 12
    rng = random.Random(12)
    for k in range(200):
        while True:
            dims = tuple(rng.randint(0, 4) for _ in range(3))
            if 0 < sum(dims) <= 6:
                break
        rep = random_rep("B" if k % 2 == 0 else "Bprime", F2, dims, rng)
        expected = quiver._layer2_by_middle(rep)
        assert quiver._layer2_by_pairs(rep) == expected
        assert quiver._layer2_dimvecs(rep) == expected


def invariant_triple_classes(rep):
    """The submodule classes by brute force: the dims of every triple of
    subspaces that the per-vector `ref_is_invariant` accepts."""
    spaces = [[rows for rows, _ in linalg.iter_subspaces(rep.field, n)] for n in rep.dims]
    return frozenset(
        triple_dims(t) for t in itertools.product(*spaces) if ref_is_invariant(rep, t)
    )


@pytest.mark.parametrize("p,shapes", [
    (2, list(itertools.product(range(4), repeat=3))),
    # at most 1,568 triples each
    (3, [(2, 2, 2), (2, 3, 2), (3, 1, 3), (1, 3, 2), (2, 2, 3)]),
    # 1,024 triples each; cover entries 3 and 4 occur only from p = 5
    (5, [(1, 2, 3), (2, 1, 3)]),
])
@pytest.mark.parametrize("algebra", ["B", "Bprime"])
def test_layer2_matches_the_invariant_triples(p, shapes, algebra):
    # both paths share `_image` and `_preimage`, so they are checked against
    # an enumeration that uses neither
    for k, dims in enumerate(shapes):
        rep = random_rep(algebra, PrimeField(p), dims, random.Random(k))
        want = invariant_triple_classes(rep)
        assert quiver._layer2_by_pairs(rep) == want, dims
        assert quiver._layer2_by_middle(rep) == want, dims


def test_layer2_degenerate_shapes_take_the_middle_path(monkeypatch):
    # (4,0,4) and (5,1,5) over GF(5) have 1 and 2 middle subspaces against
    # about 10^6 and 10^13 outer pairs
    def refuse(rep):
        raise AssertionError("outer pairs enumerated for a degenerate shape")

    monkeypatch.setattr(quiver, "_layer2_by_pairs", refuse)
    flat = random_rep("B", F5, (4, 0, 4), random.Random(0))
    assert quiver._layer2_dimvecs(flat) == frozenset(
        (a, 0, c) for a in range(5) for c in range(5)
    )
    rep = random_rep("B", F5, (5, 1, 5), random.Random(1))
    # U1 = 0 takes U0 in ker(gamma) and any U2; U1 = F takes any U0 and
    # U2 containing delta(F)
    k0 = 5 - linalg.rank(F5, [row for i in range(3) for row in rep.gamma_m(i)])
    d2 = linalg.rank(F5, [[rep.delta[j][r][0] for r in range(5)] for j in range(3)])
    expected = {(a, 0, c) for a in range(k0 + 1) for c in range(6)}
    expected |= {(a, 1, c) for a in range(6) for c in range(d2, 6)}
    assert quiver._layer2_dimvecs(rep) == frozenset(expected)


@pytest.mark.parametrize("p,dims,path,other", [
    # 1,120 middle subspaces against 64 + 64 outer ones (and 4,096 pairs)
    (5, (3, 4, 3), "_layer2_by_pairs", "_layer2_by_middle"),
    # 28 middle subspaces against 212 + 212 outer ones
    (3, (4, 3, 4), "_layer2_by_middle", "_layer2_by_pairs"),
])
def test_layer2_fork_weighs_middle_against_both_outer_vertices(monkeypatch, p, dims, path, other):
    rep = random_rep("B", PrimeField(p), dims, random.Random(0))
    expected = getattr(quiver, path)(rep)

    def refuse(rep):
        raise AssertionError(f"{other} taken for {dims} over GF({p})")

    monkeypatch.setattr(quiver, other, refuse)
    assert quiver._layer2_dimvecs(rep) == expected


# ---------------------------------------------------------------------------
# hom spaces and isomorphy


def test_hom_dimensions():
    assert len(hom_space(simple("B", 0), simple("B", 0))) == 1
    assert len(hom_space(simple("B", 0), simple("B", 1))) == 0
    assert len(hom_space(O_X, O_X)) == 1
    assert len(hom_space(O_X, O_Y)) == 0


def test_hom_bound_is_checked_before_any_row(monkeypatch):
    class Built(Exception):
        pass

    def build(shapes, equations):
        raise Built

    monkeypatch.setattr(quiver, "_linear_system", build)
    # unknowns x max(unknowns, equations): 1728 x 3456; the dims of ideal-A1
    # of 16 points, 1601 x 3168; 1875 x 3750; 12288 x 24576; and a system
    # with no equations whose kernel basis alone is 4096 x 4096
    for dims, refused in (((24, 24, 24), False), ((16, 33, 16), False), ((25, 25, 25), True),
                          ((64, 64, 64), True), ((0, 64, 0), True)):
        n0, n1, n2 = dims
        rep = QuiverRep("B", QQ, dims, [linalg.zeros(QQ, n1, n0)] * 3,
                        [linalg.zeros(QQ, n2, n1)] * 3)
        for fn in (hom_space, iso_test):
            with pytest.raises(InputError if refused else Built):
                fn(rep, rep)


def test_iso_invariant_under_base_change():
    rep = module_point([2, -1, 3])
    P = [
        [[Fraction(2)]],
        [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]],
        [[Fraction(-3)]],
    ]
    Pinv = [mat_inverse(QQ, M) for M in P]
    gamma = [mat_mul(QQ, mat_mul(QQ, P[1], rep.gamma_m(i)), Pinv[0]) for i in range(3)]
    delta = [mat_mul(QQ, mat_mul(QQ, P[2], rep.delta_m(j)), Pinv[1]) for j in range(3)]
    other = require_relations(QuiverRep("B", QQ, rep.dims, gamma, delta))
    res = iso_test(rep, other)
    assert res.isomorphic and res.certainty == "exact"


def test_point_modules_distinguished():
    res = iso_test(O_X, O_Y)
    assert not res.isomorphic
    assert res.certainty == "exact"  # Hom is zero, no coin flips involved
    assert not iso_test(O_X, simple("B", 1)).isomorphic  # dims differ


def test_point_module_representative_independence():
    assert iso_test(module_point([1, 2, 3]), module_point([2, 4, 6])).isomorphic


def ref_isomorphic(a, b):
    """Isomorphy over GF(p) by trying every combination in all of F_p^h."""
    F = a.field
    homs = hom_space(a, b)
    for coeffs in itertools.product(F.elements(), repeat=len(homs)):
        fs = [
            [[sum(c * h[v][r][q] for c, h in zip(coeffs, homs)) % F.p for q in range(n)]
             for r in range(n)]
            for v, n in enumerate(a.dims)
        ]
        if all(linalg.rank(F, M) == n for M, n in zip(fs, a.dims)):
            return True
    return False


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_iso_rule_matches_full_enumeration(p):
    # over GF(2) and GF(3) S is mostly all of F_p; over GF(5) and GF(7) the
    # small modules here have S = {0, ..., deg} strictly inside F_p
    F = PrimeField(p)
    rng = random.Random(p)
    seen = collections.Counter()
    for k in range(60):
        dims = tuple(rng.randint(0, 2) for _ in range(3))
        algebra = "B" if k % 2 else "Bprime"
        a = random_rep(algebra, F, dims, rng)
        if k % 3 == 0:
            b = base_change(a, lambda n: random_rows(F, rng, n, n))
        elif k % 3 == 1:
            b = random_rep(algebra, F, dims, rng)
        else:  # zero arrows: large Hom spaces
            b = QuiverRep(algebra, F, dims, [linalg.zeros(F, dims[1], dims[0])] * 3,
                          [linalg.zeros(F, dims[2], dims[1])] * 3)
        h, deg = len(hom_space(a, b)), sum(dims)
        if p**h > 3000:
            continue
        res = iso_test(a, b)
        want = ref_isomorphic(a, b)
        assert res.isomorphic == want, (dims, k)
        if min(deg + 1, p) ** h <= 4096:
            assert res.certainty == "exact"
        seen[want, deg + 1 < p] += 1
    assert seen[True, p > 3] and seen[False, p > 3]


# `hom_space`, `iso_test`, `direct_sum` and `random_rep` as first written,
# with per-entry field arithmetic (each sum or product through `F.convert`),
# kept as references
# for the versions on the field's own numbers: results, witnesses and random
# streams must agree.


def ref_direct_sum(a, b):
    if a.algebra != b.algebra or a.field != b.field:
        raise InputError("summands live over different algebras or fields")
    F = a.field

    def block(M, N, rM, cM, rN, cN):
        out = linalg.zeros(F, rM + rN, cM + cN)
        for i in range(rM):
            for j in range(cM):
                out[i][j] = M[i][j]
        for i in range(rN):
            for j in range(cN):
                out[rM + i][cM + j] = N[i][j]
        return out

    dims = tuple(x + y for x, y in zip(a.dims, b.dims))
    gamma = [
        block(a.gamma[i], b.gamma[i], a.dims[1], a.dims[0], b.dims[1], b.dims[0])
        for i in range(3)
    ]
    delta = [
        block(a.delta[j], b.delta[j], a.dims[2], a.dims[1], b.dims[2], b.dims[1])
        for j in range(3)
    ]
    return QuiverRep(a.algebra, F, dims, gamma, delta)


def ref_hom_space(a, b):
    if a.algebra != b.algebra or a.field != b.field:
        raise InputError("modules live over different algebras or fields")
    F = a.field
    a0, a1, a2 = a.dims
    b0, b1, b2 = b.dims
    nvars = b0 * a0 + b1 * a1 + b2 * a2
    off1 = b0 * a0
    off2 = off1 + b1 * a1
    rows = []

    def add_equations(src_mats, tgt_mats, src_dims, var_off_src, var_off_tgt):
        (sa, ta) = src_dims
        for M_a, M_b in zip(src_mats, tgt_mats):
            tb = len(M_b)
            for p in range(tb):
                for q in range(sa):
                    row = [F.convert(0)] * nvars
                    for m in range(ta):
                        row[var_off_tgt + p * ta + m] = F.convert(
                            row[var_off_tgt + p * ta + m] + M_a[m][q]
                        )
                    for m in range(len(M_b[p])):
                        idx = var_off_src + m * sa + q
                        row[idx] = F.convert(row[idx] - M_b[p][m])
                    rows.append(row)

    add_equations([a.gamma_m(i) for i in range(3)], [b.gamma_m(i) for i in range(3)],
                  (a0, a1), 0, off1)
    add_equations([a.delta_m(j) for j in range(3)], [b.delta_m(j) for j in range(3)],
                  (a1, a2), off1, off2)
    basis = linalg.right_kernel(F, rows, ncols=nvars)

    def unflatten(vec):
        f0 = [vec[p * a0 : (p + 1) * a0] for p in range(b0)]
        f1 = [vec[off1 + p * a1 : off1 + (p + 1) * a1] for p in range(b1)]
        f2 = [vec[off2 + p * a2 : off2 + (p + 1) * a2] for p in range(b2)]
        return (f0, f1, f2)

    return [unflatten(v) for v in basis]


def ref_iso_test(a, b, seed=0):
    if a.dims != b.dims or a.field != b.field or a.algebra != b.algebra:
        return quiver.IsoResult(False, "exact", None)
    if a.total_dim() == 0:
        return quiver.IsoResult(True, "exact", None, ((), (), ()))
    F = a.field
    homs = ref_hom_space(a, b)
    if not homs:
        return quiver.IsoResult(False, "exact", None)

    def combo(coeffs):
        fs = []
        for v in range(3):
            n = a.dims[v]
            M = linalg.zeros(F, n, n)
            for c, h in zip(coeffs, homs):
                if F.convert(c) == 0:
                    continue
                for p in range(n):
                    for q in range(n):
                        M[p][q] = F.convert(M[p][q] + c * h[v][p][q])
            fs.append(M)
        return fs

    def invertible(fs):
        return all(linalg.rank(F, M) == a.dims[v] for v, M in enumerate(fs))

    deg = a.total_dim()
    S = [F.convert(c) for c in range(deg + 1 if F.p is None else min(deg + 1, F.p))]
    if len(S) ** len(homs) <= quiver._ISO_EXACT_BOUND:
        for coeffs in itertools.product(S, repeat=len(homs)):
            if all(F.convert(c) == 0 for c in coeffs):
                continue
            fs = combo(coeffs)
            if invertible(fs):
                return quiver.IsoResult(True, "exact", None, tuple(fs))
        return quiver.IsoResult(False, "exact", None)

    rng = random.Random(seed)
    if isinstance(F, PrimeField):
        sample = lambda: F.convert(rng.randrange(F.p))
        per = min(1.0, deg / F.p)
    else:
        span = 1 << 31
        sample = lambda: Fraction(rng.randrange(span))
        per = deg / (1 << 31)
    for _ in range(quiver._ISO_SAMPLES):
        fs = combo([sample() for _ in homs])
        if invertible(fs):
            return quiver.IsoResult(True, "exact", None, tuple(fs))
    return quiver.IsoResult(False, "probabilistic", min(1.0, per ** quiver._ISO_SAMPLES) if per > 0 else 0.0)


#: the relation pairs of each algebra, stated apart from `quiver._RELATIONS`
#: so that the references check it: for "B" a diagonal pair (i, i) is
#: delta_i gamma_i = 0 on its own
REF_REL_PAIRS = {
    "B": [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)],
    "Bprime": [(0, 1), (0, 2), (1, 2)],
}


def ref_random_rep(algebra, field, dims, rng):
    n0, n1, n2 = (int(x) for x in dims)

    def rand_entry():
        if isinstance(field, PrimeField):
            return rng.randrange(field.p)
        return Fraction(rng.randint(-3, 3))

    gamma = [[[rand_entry() for _ in range(n0)] for _ in range(n1)] for _ in range(3)]
    nvars = 3 * n2 * n1
    rows = []
    for (i, j) in REF_REL_PAIRS[algebra]:
        sign = field.convert(1) if algebra == "B" else field.convert(-1)
        for p in range(n2):
            for q0 in range(n0):
                row = [field.convert(0)] * nvars
                for q in range(n1):
                    idx = j * n2 * n1 + p * n1 + q
                    row[idx] = field.convert(row[idx] + field.convert(gamma[i][q][q0]))
                    if i != j:
                        idx = i * n2 * n1 + p * n1 + q
                        row[idx] = field.convert(
                            row[idx] + sign * field.convert(gamma[j][q][q0])
                        )
                rows.append(row)
    basis = linalg.right_kernel(field, rows, ncols=nvars) if nvars else []
    flat = [field.convert(0)] * nvars
    for vec in basis:
        c = rand_entry()
        flat = [field.convert(x + c * y) for x, y in zip(flat, vec)]
    delta = [
        [[flat[j * n2 * n1 + p * n1 + q] for q in range(n1)] for p in range(n2)]
        for j in range(3)
    ]
    return require_relations(QuiverRep(algebra, field, (n0, n1, n2), gamma, delta))


FIELD_LOOP_FIELDS = [QQ, F2, PrimeField(3), F5, PrimeField(101)]


def zero_arrows(algebra, F, dims):
    n0, n1, n2 = dims
    return QuiverRep(algebra, F, dims, [linalg.zeros(F, n1, n0)] * 3,
                     [linalg.zeros(F, n2, n1)] * 3)


def in_random_basis(rep, rng):
    """An isomorphic copy of rep; over Q with denominators in its arrows."""
    F = rep.field
    if F.p is None:
        return base_change(rep, lambda n: [[Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                                            for _ in range(n)] for _ in range(n)])
    return base_change(rep, lambda n: random_rows(F, rng, n, n))


@pytest.mark.parametrize("field", FIELD_LOOP_FIELDS, ids=repr)
def test_random_rep_direct_sum_and_hom_match_the_field_loops(field):
    rng = random.Random(field.p or 0)
    shapes = [(0, 0, 0), (0, 2, 1), (2, 0, 1), (1, 2, 0), (2, 3, 0), (0, 3, 2)]
    shapes += [tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(34)]
    reps = {"B": [], "Bprime": []}
    for k, dims in enumerate(shapes):
        algebra = "B" if k % 2 else "Bprime"
        seed = rng.randrange(1 << 30)
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        got = random_rep(algebra, field, dims, got_rng)
        want = ref_random_rep(algebra, field, dims, want_rng)
        assert rep_to_json(got) == rep_to_json(want) and typed_rep(got) == typed_rep(want)
        assert got_rng.getstate() == want_rng.getstate()
        reps[algebra] += [got, in_random_basis(got, rng), zero_arrows(algebra, field, dims)]
    homs = collections.Counter()
    for mods in reps.values():
        for a, b in zip(mods, mods[1:] + mods[:1]):
            ab = direct_sum(a, b)
            assert rep_to_json(ab) == rep_to_json(ref_direct_sum(a, b))
            assert typed_rep(ab) == typed_rep(ref_direct_sum(a, b))
            for x, y in ((a, b), (b, a), (a, a), (ab, a), (b, ab)):
                got = hom_space(x, y)
                assert typed(got) == typed(ref_hom_space(x, y))
                homs[min(len(got), 3)] += 1
    assert all(homs[h] for h in range(4))  # zero, one, two and larger Hom spaces


def iso_cases(field, rng):
    """Pairs of modules for `iso_test`: isomorphic copies, random modules of
    the same dims, and zero-arrow modules, whose large Hom spaces take the
    sampled path at dims (3, 3, 3)."""
    for k in range(16):
        algebra = "B" if k % 2 else "Bprime"
        dims = tuple(rng.randint(0, 2) for _ in range(3)) if k < 12 else (3, 3, 3)
        a = random_rep(algebra, field, dims, rng)
        z = zero_arrows(algebra, field, dims)
        yield a, in_random_basis(a, rng)
        yield a, random_rep(algebra, field, dims, rng)
        yield z, a
        yield z, z
    # modules of different dims or over another algebra are never isomorphic
    yield simple("B", 0, field), simple("B", 1, field)
    yield simple("B", 0, field), simple("Bprime", 0, field)


@pytest.mark.parametrize("field", FIELD_LOOP_FIELDS, ids=repr)
def test_iso_test_matches_the_field_loops(field):
    rng = random.Random(field.p or 1)
    paths = collections.Counter()
    for k, (a, b) in enumerate(iso_cases(field, rng)):
        got, want = iso_test(a, b, seed=k), ref_iso_test(a, b, seed=k)
        assert got == want and typed(got.witness) == typed(want.witness)
        h = len(hom_space(a, b)) if a.dims == b.dims and a.algebra == b.algebra else 0
        size = min(sum(a.dims) + 1, field.p or sum(a.dims) + 1)
        paths["sampled" if size ** h > quiver._ISO_EXACT_BOUND else "exact",
              got.isomorphic] += 1
    # both verdicts on both paths; a zero-arrow module against one with
    # arrows has a large Hom space with no invertible member
    assert all(paths[path, iso] for path in ("exact", "sampled") for iso in (True, False))


def euler_complex(M, N):
    """The maps d0 and d1 of the Euler complex of (M, N), as field matrices
    from `quiver._linear_system` and `quiver._RELATIONS`: d0 sends (f_v) to
    f_t M_a - N_a f_s for each arrow a from s to t, and d1 sends (g_a) to
    sum c (N_delta_j g_gamma_i + g_delta_j M_gamma_i) over each relation's
    terms (c, j, i).  The unknowns g_a of d1 are laid out as the equations
    of d0 are, so d1 d0 is a matrix product."""
    F = M.field
    arrows = [(0, a, b) for a, b in zip(M.gamma, N.gamma)]
    arrows += [(1, a, b) for a, b in zip(M.delta, N.delta)]
    d0 = quiver._linear_system(
        list(zip(N.dims, M.dims)),
        [((N.dims[s + 1], M.dims[s]), [(1, None, s + 1, Ma), (-1, Na, s, None)])
         for s, Ma, Na in arrows],
    )[0]
    d1 = quiver._linear_system(
        [(N.dims[s + 1], M.dims[s]) for s, _, _ in arrows],
        [((N.dims[2], M.dims[0]),
          [t for c, j, i in terms for t in ((c, N.delta[j], i, None), (c, None, 3 + j, M.gamma[i]))])
         for terms in quiver._RELATIONS[M.algebra].values()],
    )[0]
    return [[[F.convert(x) for x in row] for row in d] for d in (d0, d1)]


def ext_dims(M, N):
    """(dim Hom, dim Ext^1, dim Ext^2) of (M, N), read off the Euler complex."""
    F = M.field
    d0, d1 = euler_complex(M, N)
    r0, r1 = linalg.rank(F, d0), linalg.rank(F, d1)
    return sum(map(operator.mul, M.dims, N.dims)) - r0, len(d0) - r1 - r0, len(d1) - r1


@pytest.mark.parametrize("field", [F2, PrimeField(3), QQ], ids=repr)
def test_the_linear_system_builder_expresses_the_euler_complex(field):
    rng = random.Random(field.p or 0)
    for k in range(24):
        algebra = "B" if k % 2 else "Bprime"
        M, N = (random_rep(algebra, field, [rng.randint(0, 3) for _ in range(3)], rng)
                for _ in range(2))
        for a, b in ((M, N), (N, M), (M, M)):
            d0, d1 = euler_complex(a, b)
            assert all(field.convert(sum(map(operator.mul, row, col))) == 0
                       for row in d1 for col in zip(*d0))
            nvars = sum(map(operator.mul, a.dims, b.dims))
            assert nvars - linalg.rank(field, d0) == len(hom_space(a, b))


def test_euler_complex_of_ideal_and_point_modules():
    # Hom, Ext^1 and Ext^2 of an ideal of n points with itself are 1, the
    # 2n of the tangent space to the Hilbert scheme, and 0; of a point 1, 2, 1
    points = [(1, 2, 3), (2, -1, 1), (3, 1, -2), (1, 1, 1)]
    for n in range(1, 5):
        ideal = module_ideal_A1(points[:n])
        assert ext_dims(ideal, ideal) == (1, 2 * n, 0)
    point = module_point((1, 2, 3))
    assert ext_dims(point, point) == (1, 2, 1)


# ---------------------------------------------------------------------------
# duality


def test_dualize_reverses_dims_and_keeps_relations():
    rep = module_ideal_A1([(1, 0, 0), (0, 1, 0)])
    dual = dualize(rep)
    assert dual.dims == rep.dims[::-1]
    assert check_relations(dual) == (True, None)
    double = dualize(dual)
    assert double.dims == rep.dims
    assert iso_test(rep, double).isomorphic


def test_reverse_theta_golden():
    assert reverse_theta((1, 2, 3)) == (-3, -2, -1)
    assert reverse_theta(reverse_theta((5, -1, 7))) == (5, -1, 7)


@pytest.mark.parametrize(
    "dims,theta",
    [((1, 2, 1), TH_STABLE), ((1, 2, 1), TH_UNSTABLE), ((2, 3, 1), (1, 1, -5))],
)
def test_dual_verdict_invariance(dims, theta):
    rng = random.Random(23)
    for _ in range(6):
        rep = random_rep("B", QQ, dims, rng)
        lhs = king_test(rep, theta)
        rhs = king_test(dualize(rep), reverse_theta(theta))
        assert lhs.verdict == rhs.verdict


# ---------------------------------------------------------------------------
# tilting


def test_skyscraper_tilt_round_trip():
    mid = tilt_B_to_Bprime(O_X)
    assert mid.algebra == "Bprime" and mid.dims == (1, 1, 1)
    back, flag = tilt_Bprime_to_B(mid)
    assert flag is None
    assert back.dims == (1, 2, 1)
    assert iso_test(back, O_X).isomorphic
    with pytest.raises(InputError):
        tilt_B_to_Bprime(mid)  # wrong source algebra
    with pytest.raises(InputError):
        tilt_Bprime_to_B(O_X)


def test_a_zero_middle_vertex_tilts_and_tilts_back():
    # the B-module (1, 0, 1) has no arrows; its tilt has gamma zero and the
    # deltas onto the whole of F^3
    rep = QuiverRep("B", QQ, (1, 0, 1), [[]] * 3, [[[]]] * 3)
    assert tilt_B_to_Bprime(rep).dims == (1, 1, 3)
    rng = random.Random(5)
    for field in (QQ, PrimeField(3)):
        for dims in [(1, 0, 1), (2, 0, 1), (1, 0, 2), (2, 0, 2)]:
            rep = random_rep("B", field, dims, rng)
            mid = tilt_B_to_Bprime(rep)
            assert mid.dims == (dims[0], dims[2], 3 * dims[2])
            back, flag = tilt_Bprime_to_B(mid)
            assert flag is None
            got = iso_test(back, rep)
            assert got.isomorphic and got.certainty == "exact"


# The relation check and the two tilts as they were computed on field
# matrices (products, one `solve_right` per column, a rank), the references
# for the integer versions.


def ref_check_relations(rep):
    F = rep.field
    for (i, j) in REF_REL_PAIRS[rep.algebra]:
        a = mat_mul(F, rep.delta_m(j), rep.gamma_m(i))
        if i == j:  # the diagonal pair: delta_i gamma_i = 0 on its own
            values = [x for ra in a for x in ra]
        else:
            b = mat_mul(F, rep.delta_m(i), rep.gamma_m(j))
            op = operator.add if rep.algebra == "B" else operator.sub
            values = [F.convert(op(x, y)) for ra, rb in zip(a, b) for x, y in zip(ra, rb)]
        if not all(F.convert(x) == 0 for x in values):
            return (False, (i, j))
    return (True, None)


def ref_project(F, R, piv, comp, W):
    if piv:
        W = [[F.convert(x - y) for x, y in zip(w, r)]
             for w, r in zip(W, mat_mul(F, [[w[c] for c in piv] for w in W], R))]
    return [[w[c] for c in comp] for w in W]


def ref_tilt_B_to_Bprime(rep):
    if rep.algebra != "B":
        raise InputError("tilt_B_to_Bprime expects a B-module")
    F = rep.field
    n0, n1, n2 = rep.dims
    stacked = [row for j in range(3) for row in rep.delta[j]]
    img_rows, img_piv = linalg.rref(F, linalg.transpose(stacked, ncols=n1))
    if len(img_rows) < n1:
        raise InputError("object leaves mod-B' (theta1 >= 0 regime)")
    comp = [c for c in range(3 * n2) if c not in img_piv]
    units = linalg.identity(F, 3 * n2)
    # over a zero middle vertex the product is zero, with no factor to show its width
    gamma_M = [mat_mul(F, rep.delta_m((i + 1) % 3), rep.gamma_m((i + 2) % 3)) if n1
               else linalg.zeros(F, n2, n0) for i in range(3)]
    delta_M = [
        linalg.transpose(ref_project(F, img_rows, img_piv, comp, units[j * n2:(j + 1) * n2]),
                         ncols=len(comp))
        for j in range(3)
    ]
    return require_relations(QuiverRep("Bprime", F, (n0, n2, len(comp)), gamma_M, delta_M))


def ref_tilt_Bprime_to_B(rep):
    if rep.algebra != "Bprime":
        raise InputError("tilt_Bprime_to_B expects a B'-module")
    F = rep.field
    m0, m1, m2 = rep.dims
    D = [[rep.delta[j][r][c] for j in range(3) for c in range(m1)] for r in range(m2)]
    K = linalg.right_kernel(F, D, ncols=3 * m1)
    n1 = len(K)
    flag = "non-generic (dim N1 > 3*dim M1 - dim M2)" if linalg.rank(F, D) < m2 else None
    Kt = linalg.transpose(K, ncols=3 * m1)
    gamma_N = []
    for i in range(3):
        cols = []
        gi1, gi2 = rep.gamma_m((i + 1) % 3), rep.gamma_m((i + 2) % 3)
        for a in range(m0):
            w = [F.convert(0)] * (3 * m1)
            for r in range(m1):
                w[((i + 2) % 3) * m1 + r] = gi1[r][a]
                w[((i + 1) % 3) * m1 + r] = F.convert(-gi2[r][a])
            c = linalg.solve_right(F, Kt, w)
            if c is None:
                raise VerificationError("tilt image escaped the kernel; relations must be broken")
            cols.append(c)
        gamma_N.append(linalg.transpose(cols, ncols=m0) if cols else [[] for _ in range(n1)])
    delta_N = [[[K[b][j * m1 + r] for b in range(n1)] for r in range(m1)] for j in range(3)]
    return require_relations(QuiverRep("B", F, (m0, n1, m1), gamma_N, delta_N)), flag


def moved(rep, rng):
    """rep with a random delta entry, and half the time a gamma entry too,
    shifted by a random nonzero value, which mostly breaks a relation."""
    F = rep.field
    arrows = [[[list(row) for row in A] for A in side] for side in (rep.gamma, rep.delta)]
    for s in (1, 0) if rng.random() < 0.5 else (1,):
        cells = [(k, r, c) for k in range(3) for r, row in enumerate(arrows[s][k])
                 for c in range(len(row))]
        if cells:
            k, r, c = rng.choice(cells)
            shift = (Fraction(rng.choice((-1, 1)), rng.randint(1, 3)) if F.p is None
                     else rng.randrange(1, F.p))
            arrows[s][k][r][c] = F.convert(arrows[s][k][r][c] + F.convert(shift))
    return QuiverRep(rep.algebra, F, rep.dims, *arrows)


def relation_samples(field, algebra, rng, count):
    """Random modules, zero dimensions included, each with a broken copy;
    over Q in random rational bases."""
    shapes = [(0, 0, 0), (0, 2, 1), (2, 0, 1), (1, 2, 0), (2, 3, 0), (0, 3, 2)]
    shapes += [tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(count - len(shapes))]
    for dims in shapes:
        rep = (rational_rep(algebra, dims, rng) if field.p is None
               else random_rep(algebra, field, dims, rng))
        yield rep
        yield moved(rep, rng)


@pytest.mark.parametrize("field", [QQ, F2, PrimeField(3), F5, F7], ids=repr)
def test_check_relations_matches_the_field_products(field):
    rng = random.Random(field.p or 0)
    first_bad = collections.Counter()
    for algebra in ("B", "Bprime"):
        for rep in relation_samples(field, algebra, rng, 30):
            got = check_relations(rep)
            assert got == ref_check_relations(rep)
            first_bad[algebra, got[1]] += 1
    # sound modules, and broken ones failing first at several pairs
    assert first_bad["B", None] and first_bad["Bprime", None] and len(first_bad) > 4


def tilt_outcome(fn, rep):
    """A tilt's module with entry types and its flag, or its error."""
    try:
        out = fn(rep)
    except (InputError, VerificationError) as exc:
        return type(exc), str(exc)
    out, flag = out if isinstance(out, tuple) else (out, None)
    return typed_rep(out), flag


@pytest.mark.parametrize("field", [QQ, F2, PrimeField(3), F5, F7], ids=repr)
def test_tilts_match_the_per_column_solves(field):
    # tilt_Bprime_to_B reads every solution off one elimination of the
    # stacked deltas; the reference solves each column on its own
    rng = random.Random(field.p or 0)
    kinds = collections.Counter()
    for algebra, new, ref in (("Bprime", tilt_Bprime_to_B, ref_tilt_Bprime_to_B),
                              ("B", tilt_B_to_Bprime, ref_tilt_B_to_Bprime)):
        for rep in relation_samples(field, algebra, rng, 24):
            got = tilt_outcome(new, rep)
            assert got == tilt_outcome(ref, rep)
            kinds[algebra, got[0] if isinstance(got[0], type) else got[1]] += 1
            if not isinstance(got[0], type):
                out = new(rep)
                assert_kept_int_form(out[0] if isinstance(out, tuple) else out)
    assert kinds["Bprime", None] and kinds["Bprime", VerificationError]
    assert kinds["B", None] and kinds["B", InputError]


def test_theta_transform_golden():
    assert theta_transform((1, 2, 3)) == (1, 9, -2)
    assert theta_transform((-4, 0, 4)) == (-4, 4, 0)


@pytest.mark.parametrize("theta", [(1, 2, 3), (-3, 1, 1), (0, 5, -2)])
def test_theta_transform_matches_tilt_pairing(theta):
    for rep in (O_X, module_ideal_A1([(1, 0, 0), (0, 1, 0)])):
        mid = tilt_B_to_Bprime(rep)
        assert theta_pair(theta_transform(theta), mid.dims) == theta_pair(
            theta, rep.dims
        )


# ---------------------------------------------------------------------------
# stability


def test_king_verdicts_on_skyscraper():
    assert king_test(O_X, TH_STABLE).verdict == "stable"
    assert king_test(O_X, TH_SEMI).verdict == "semistable"
    bad = king_test(O_X, TH_UNSTABLE)
    assert bad.verdict == "unstable" and bad.certainty == "exact"
    assert bad.witness_dimvec == (0, 0, 1)
    assert theta_pair(TH_UNSTABLE, bad.witness_dimvec) < 0
    assert king_test(O_X, (1, 1, 1)).verdict == "theta-nonvanishing"


def ref_king(rep, theta, search):
    """The verdict, certainty and witness class of `king_test`, scored with
    `theta_pair` on Fraction weights."""

    def verdict_of(classes):
        values = [theta_pair(theta, dv) for dv in classes if dv not in ((0, 0, 0), rep.dims)]
        if any(x < 0 for x in values):
            return "unstable"
        return "semistable" if 0 in values else "stable"

    verdict = verdict_of(search.lower)
    certainty = "exact" if verdict == verdict_of(search.upper) else "probabilistic"
    dv = None
    if verdict == "unstable":
        dv = min(
            (d for d in search.lower if theta_pair(theta, d) < 0),
            key=lambda d: (d not in search.witnesses, sum(d), d),
        )
    return verdict, certainty, dv


def test_king_test_on_the_integer_weight_matches_fraction_scoring():
    rng = random.Random(5)
    reps = [O_X, module_ideal_A1([(1, 2, 3), (2, -1, 1)]), module_ideal_A0([(1, 0, 0), (0, 1, 0)])]
    reps += [random_rep("B", QQ, (1, 2, 1), rng), random_rep("Bprime", F5, (2, 2, 1), rng)]
    for rep in reps:
        search = submodule_dimvecs(rep)
        # the classes of ``upper`` beyond ``lower`` make some verdicts inexact
        wide = SubmoduleSearch(rep.dims, search.lower, search.upper | {(0, 1, 0), (1, 1, 1)},
                               search.witnesses, "hand-built", ("layer1",))
        for _ in range(40):
            t0, t1 = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2))
            t2 = -(t0 * rep.dims[0] + t1 * rep.dims[1]) / rep.dims[2]
            for s in (search, wide):
                v = king_test(rep, (t0, t1, t2), search=s)
                assert (v.verdict, v.certainty, v.witness_dimvec) == ref_king(rep, (t0, t1, t2), s)
                assert v.theta == (t0, t1, t2) and all(type(t) is Fraction for t in v.theta)


# the submodule classes of the point module O_X, all witnessed by layer 1
O_X_CLASSES = frozenset({(0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 2, 1), (1, 2, 1)})


@pytest.mark.parametrize(
    "theta,lower,upper,want",
    [
        # lower == upper: every verdict exact
        (TH_STABLE, O_X_CLASSES, O_X_CLASSES, ("stable", "exact", None)),
        (TH_UNSTABLE, O_X_CLASSES, O_X_CLASSES, ("unstable", "exact", (0, 0, 1))),
        # a theta = 0 middle class only in upper leaves stability unproved
        ((-2, 0, 2), O_X_CLASSES, O_X_CLASSES | {(0, 1, 0)}, ("stable", "probabilistic", None)),
        # a theta < 0 class only in upper: neither verdict is proved
        (TH_STABLE, O_X_CLASSES, O_X_CLASSES | {(1, 1, 1)}, ("stable", "probabilistic", None)),
        # a witnessed theta < 0 class proves instability whatever upper holds
        (TH_UNSTABLE, O_X_CLASSES, O_X_CLASSES | {(0, 1, 0)}, ("unstable", "exact", (0, 0, 1))),
        # both sets semistable: exact although the sets differ
        (TH_SEMI, O_X_CLASSES, O_X_CLASSES | {(0, 1, 0)}, ("semistable", "exact", None)),
    ],
)
def test_king_certainty_from_lower_and_upper(theta, lower, upper, want):
    witnesses = {dv: w for dv, w in submodule_dimvecs(O_X).witnesses.items() if dv in lower}
    search = SubmoduleSearch(O_X.dims, lower, upper, witnesses, "hand-built", ("layer1",))
    v = king_test(O_X, theta, search=search)
    assert (v.verdict, v.certainty, v.witness_dimvec) == want
    assert v.witness == (witnesses[want[2]] if want[2] else None)
    assert search.complete == (lower == upper)


@pytest.fixture
def cold_search():
    """An empty search memo before and after a test that patches the search."""
    quiver._submodule_dimvecs_impl.cache_clear()
    yield
    quiver._submodule_dimvecs_impl.cache_clear()


def test_cross_prime_agreement_is_not_a_certificate(monkeypatch, cold_search):
    # with the primes 2 and 3 alone the two mod-p sets agree, above lower
    theta = theta_b0(3, Fraction(-1, 400))
    monkeypatch.setattr(quiver, "_LAYER2_PRIMES", (2, 3))
    v = king_test(CROSS_PRIME_A0, theta)
    assert v.search.evidence == "cross-prime(2,3)"
    assert (0, 1, 0) in v.search.upper - v.search.lower
    assert (v.verdict, v.certainty) == ("stable", "probabilistic")
    assert v.witness_dimvec is None
    # the default primes go on to 7, whose set is the witnessed one
    monkeypatch.undo()
    quiver._submodule_dimvecs_impl.cache_clear()
    v = king_test(CROSS_PRIME_A0, theta)
    assert (v.verdict, v.certainty, v.search.evidence) == ("stable", "exact", "squeeze(p=7)")


def test_layer2_cost_is_the_path_taken_and_fits_every_prime_to_n4():
    # (3,7,3) mod 3: 28 + 28 outer subspaces against 2,052,656 middle ones
    assert quiver._layer2_cost((3, 7, 3), 3) == 2 * galois_number(3, 3) == 56
    assert quiver._layer2_cost((4, 3, 4), 3) == galois_number(3, 3) == 28
    bound = quiver._LAYER2_COST_BOUND
    assert all(quiver._layer2_cost((4, 9, 4), p) <= bound for p in quiver._LAYER2_PRIMES)
    assert [p for p in quiver._LAYER2_PRIMES if quiver._layer2_cost((5, 11, 5), p) <= bound] == [2, 3]


OVER_BOUND = "layer1-only (Layer 2 over its cost bound)"


def test_fork_and_gate_read_the_layer2_cost(monkeypatch, cold_search):
    # the fork: a cost equal to the middle count takes the middle path even
    # where the outer pairs are fewer
    rep = random_rep("B", F5, (3, 4, 3), random.Random(0))
    expected = quiver._layer2_by_pairs(rep)

    def refuse(rep):
        raise AssertionError("outer pairs enumerated although the cost names the middle")

    with monkeypatch.context() as m:
        m.setattr(quiver, "_layer2_cost", lambda dims, p: galois_number(dims[1], p))
        m.setattr(quiver, "_layer2_by_pairs", refuse)
        assert quiver._layer2_dimvecs(rep) == expected

    # the gate: the primes are tried in order up to the first one over the
    # bound, and no later one is tried even if it would fit
    reached = []
    real = quiver._layer2_dimvecs

    def counting(rep):
        reached.append(rep.field.p)
        return real(rep)

    monkeypatch.setattr(quiver, "_layer2_dimvecs", counting)
    bound = quiver._LAYER2_COST_BOUND
    costs = {5: bound + 1}
    monkeypatch.setattr(quiver, "_layer2_cost", lambda dims, p: costs.get(p, 1))
    search = submodule_dimvecs(CROSS_PRIME_A0)
    assert reached == [2, 3] and search.evidence == "cross-prime(2,3)"

    # over the bound everywhere: one label, no enumeration, the whole box
    reached.clear()
    quiver._submodule_dimvecs_impl.cache_clear()
    costs.update({2: bound + 1, 3: bound + 1})
    for r in (CROSS_PRIME_A0, quiver._reduce_rep_mod_p(CROSS_PRIME_A0, 5)):
        search = submodule_dimvecs(r)
        assert (search.evidence, search.layers) == (OVER_BOUND, ("layer1",))
        assert search.upper == frozenset(itertools.product(*(range(n + 1) for n in r.dims)))
    assert reached == []

    # the real cost: a (5,5,5) module over GF(7) has 285,704 subspaces at
    # each vertex
    monkeypatch.undo()
    monkeypatch.setattr(quiver, "_layer2_dimvecs", counting)
    search = submodule_dimvecs(random_rep("B", F7, (5, 5, 5), random.Random(0)))
    assert search.evidence == OVER_BOUND and reached == []


@pytest.mark.parametrize(
    "kept,want",
    [
        # no theta < 0 class witnessed: the least one, from the enumeration
        ({(0, 0, 0), (1, 2, 1)}, (0, 0, 1)),
        # a witnessed one is preferred to a smaller unwitnessed one
        ({(0, 0, 0), (0, 2, 1), (1, 2, 1)}, (0, 2, 1)),
    ],
)
def test_exhaustive_enumeration_proves_unwitnessed_instability(monkeypatch, cold_search, kept, want):
    rep = quiver._reduce_rep_mod_p(O_X, 5)
    real = quiver._layer1
    monkeypatch.setattr(
        quiver, "_layer1",
        lambda r, seed, *args, **kwargs: {
            dv: w for dv, w in real(r, seed, *args, **kwargs).items() if dv in kept
        },
    )
    v = king_test(rep, TH_UNSTABLE)
    assert v.search.evidence == "exhaustive(F_5)"
    assert v.search.lower == v.search.upper == O_X_CLASSES
    assert (v.verdict, v.certainty, v.witness_dimvec) == ("unstable", "exact", want)
    assert (v.witness is None) == (want not in kept)


def test_jh_factors_of_direct_sum():
    pair = direct_sum(O_X, O_Y)
    factors = jh_factors(pair, TH_STABLE)
    assert sorted(f.dims for f in factors) == [(1, 2, 1), (1, 2, 1)]
    for f in factors:
        assert iso_test(f, O_X).isomorphic or iso_test(f, O_Y).isomorphic


def test_jh_factors_checks_each_peel_once(monkeypatch):
    calls = []
    real = quiver._invariant

    def counting(F, spans, images):
        calls.append(tuple(len(R) for R, _ in spans))
        return real(F, spans, images)

    monkeypatch.setattr(quiver, "_invariant", counting)
    factors = jh_factors(direct_sum(O_X, O_Y), TH_STABLE)
    assert len(factors) == 2 and calls == [factors[0].dims]


def test_jh_factors_raises_on_unstable_input():
    with pytest.raises(DestabilizedError) as info:
        jh_factors(O_X, TH_UNSTABLE)
    assert info.value.verdict.witness_dimvec == (0, 0, 1)


def test_s_equivalence():
    assert s_equiv(direct_sum(O_X, O_Y), direct_sum(O_Y, O_X), TH_STABLE)
    assert not s_equiv(direct_sum(O_X, O_Y), direct_sum(O_X, O_Z), TH_STABLE)
