"""Character lattice: pairings, twists and heart coordinates."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2stab.errors import InputError
from p2stab.ktheory import (
    A0,
    A1,
    A1P,
    ChernCharacter,
    HeartBasis,
    bogomolov,
    ch_cotangent,
    ch_o,
    chern_of_dimvec,
    dimvec,
    euler_chi,
    expected_dim,
    mukai_pair,
    twist,
)

half_ints = st.integers(min_value=-12, max_value=12).map(lambda n: Fraction(n, 2))
classes = st.builds(
    ChernCharacter,
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-5, max_value=5),
    half_ints,
)


def test_chern_character_validates_half_integer():
    ChernCharacter(1, 2, Fraction(3, 2))  # fine
    with pytest.raises(InputError, match="half-integer"):
        ChernCharacter(1, 2, Fraction(1, 3))


def test_frozen_pairings():
    o = ch_o(0)
    assert euler_chi(o, o) == 1
    assert euler_chi((1, 0, 0), (1, 1, Fraction(1, 2))) == 3
    assert euler_chi((1, 1, Fraction(1, 2)), (1, 0, 0)) == 0
    assert mukai_pair(ChernCharacter(0, 0, 1), o) == -1


def test_known_characters():
    assert ch_cotangent(0).triple() == (2, -3, Fraction(3, 2))
    assert ch_cotangent(2).triple() == (2, 1, Fraction(-1, 2))
    assert ch_o(2).triple() == (1, 2, Fraction(2))


@settings(max_examples=80, deadline=None)
@given(classes, classes)
def test_mukai_pair_symmetric(a, b):
    assert mukai_pair(a, b) == mukai_pair(b, a)


@settings(max_examples=80, deadline=None)
@given(classes, st.integers(min_value=-4, max_value=4), st.integers(min_value=-4, max_value=4))
def test_twist_composes(a, j, k):
    assert twist(twist(a, j), k) == twist(a, j + k)
    assert twist(a, 0) == a


@settings(max_examples=80, deadline=None)
@given(classes, st.integers(min_value=-3, max_value=3))
def test_twist_preserves_pairings(a, k):
    b = ChernCharacter(2, -1, Fraction(1, 2))
    assert mukai_pair(twist(a, k), twist(b, k)) == mukai_pair(a, b)
    assert euler_chi(twist(a, k), twist(b, k)) == euler_chi(a, b)


def test_bogomolov_and_expected_dim():
    assert bogomolov((1, 0, 0)) == 0
    assert bogomolov(ChernCharacter(0, 1, Fraction(-1, 2))) == 1
    # ideal sheaf of n points: ch = (1, 0, -n), expected dim 2n
    for n in range(1, 6):
        assert expected_dim((1, 0, Fraction(-n))) == 2 * n
    assert expected_dim((1, 0, 0)) == 0


# -- hearts ----------------------------------------------------------------


def test_heart_parsing_and_labels():
    assert HeartBasis.parse("A1") == A1
    assert HeartBasis.parse("A0") == A0
    assert HeartBasis.parse("A1p") == A1P
    assert HeartBasis.parse("A-2") == HeartBasis("A", -2)
    assert HeartBasis.parse("A3p") == HeartBasis("Ap", 3)
    assert A1.label() == "A1" and A1P.label() == "A1p"
    # the whole label, in ASCII digits: no trailing newline, no other digits
    for label in ("B2", "Ak:-2", "Ak:3p", "A1\n", "A\u0661"):
        with pytest.raises(InputError):
            HeartBasis.parse(label)


def test_golden_dimvec():
    assert dimvec(ChernCharacter(1, 1, Fraction(-3, 2)), A1) == (-2, -5, -2)


def test_skyscraper_dimvec_in_every_heart():
    for k in range(-3, 4):
        assert dimvec(ChernCharacter(0, 0, 1), HeartBasis("A", k)) == (1, 2, 1)


def test_ideal_type_dimvec_tables():
    # ch = (r, 1, 1/2 - n) against the three standard hearts
    for n in range(1, 6):
        for r in (1, 2, 3):
            a = ChernCharacter(r, 1, Fraction(1, 2) - n)
            assert dimvec(a, A1) == (-(n + 1 - r), -(2 * n + 1), -n)
        a1 = ChernCharacter(1, 1, Fraction(1, 2) - n)
        assert dimvec(a1, A0) == (-n, -2 * n, -(n - 1))
        assert dimvec(a1, A1P) == (-n, -n, -(n - 1))


def test_dimvec_requires_lattice_membership():
    with pytest.raises(InputError, match="not in heart lattice"):
        dimvec((Fraction(1, 2), 0, 0), A1)


@settings(max_examples=80, deadline=None)
@given(
    st.tuples(
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=-6, max_value=6),
    ),
    st.sampled_from(["A1", "A0", "A-1", "A2p", "A0p"]),
)
def test_dimvec_round_trip(v, label):
    heart = HeartBasis.parse(label)
    a = chern_of_dimvec(v, heart)
    assert dimvec(a, heart) == v


def test_shift_functor_coordinates():
    # images of O and O(1) under the two adjacent-heart coordinate maps
    assert dimvec(ch_o(0), A1) == (1, 0, 0)
    assert dimvec(ch_o(1), A1) == (0, -1, 0)
    assert dimvec(ch_o(0), A0) == (0, -1, 0)
    assert dimvec(ch_o(1), A0) == (0, 0, 1)
    assert dimvec(-ch_cotangent(2), A1) == (0, 3, 1)


def test_character_algebra():
    a = ChernCharacter(1, 2, Fraction(1, 2))
    b = ChernCharacter(0, 1, Fraction(3, 2))
    assert (a + b).triple() == (1, 3, 2)
    assert (a - b).triple() == (1, 1, -1)
    assert (-a).triple() == (-1, -2, Fraction(-1, 2))
    assert (3 * b).triple() == (0, 3, Fraction(9, 2))
