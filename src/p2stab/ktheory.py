"""The numerical Grothendieck lattice of the projective plane.

A class is a triple (r, d, s): rank, degree of c1 against the hyperplane
class, and ch_2.  On P^2 the lattice is Z + Z.H + (1/2).Z.H^2, so r and d
are integers and s is a half-integer.  The canonical class is -3H
throughout; the Picard rank is one, so a single integer d carries c1.

Besides the pairing/twist arithmetic this module knows the tilted hearts

    A_k  = <O(k-1)[2], O(k)[1], O(k+1)>,
    A'_k = <O(k-1)[2], Omega^1(k+1)[1], O(k)>,

and converts between lattice classes and dimension vectors with respect to
the signed class basis of a heart (a shift by [2] fixes a class, a shift by
[1] negates it).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple, Union

from .errors import InputError
from .io_utils import parse_json_int
from .linalg import QQ, solve_right

Triple = Tuple[Fraction, Fraction, Fraction]


@dataclass(frozen=True)
class ChernCharacter:
    """A numerical class (r, d, s) with r, d integers and s a half-integer."""

    r: int
    d: int
    s: Fraction

    def __post_init__(self):
        r, d, s = (QQ.convert(x) for x in (self.r, self.d, self.s))
        if r.denominator != 1 or d.denominator != 1:
            raise InputError("rank and degree must be integers")
        object.__setattr__(self, "r", int(r))
        object.__setattr__(self, "d", int(d))
        object.__setattr__(self, "s", s)
        if self.s.denominator not in (1, 2):
            raise InputError(
                f"ch2 must be a half-integer, got {self.s}"
            )

    def triple(self) -> Triple:
        return (Fraction(self.r), Fraction(self.d), self.s)

    def __add__(self, other: "ChernCharacter") -> "ChernCharacter":
        return ChernCharacter(self.r + other.r, self.d + other.d, self.s + other.s)

    def __sub__(self, other: "ChernCharacter") -> "ChernCharacter":
        return ChernCharacter(self.r - other.r, self.d - other.d, self.s - other.s)

    def __neg__(self) -> "ChernCharacter":
        return ChernCharacter(-self.r, -self.d, -self.s)

    def __mul__(self, k: int) -> "ChernCharacter":
        return ChernCharacter(self.r * k, self.d * k, self.s * k)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return f"({self.r},{self.d},{self.s})"


ClassLike = Union[ChernCharacter, Sequence]


def as_triple(a: ClassLike) -> Triple:
    """Coerce a ChernCharacter or any rational 3-sequence to a triple.

    Plain triples are allowed to have arbitrary rational entries; only the
    ChernCharacter type enforces the lattice conditions.
    """
    if isinstance(a, ChernCharacter):
        return a.triple()
    t = tuple(QQ.convert(x) for x in a)
    if len(t) != 3:
        raise InputError(f"expected a class triple, got {a!r}")
    return t  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# pairings and numerical invariants


def mukai_pair(a: ClassLike, b: ClassLike) -> Fraction:
    """Symmetric Mukai-type pairing  <a, b> = d_a d_b - r_a s_b - r_b s_a."""
    ra, da, sa = as_triple(a)
    rb, db, sb = as_triple(b)
    return da * db - ra * sb - rb * sa


def euler_chi(a: ClassLike, b: ClassLike) -> Fraction:
    """Euler pairing chi(a, b) on P^2 (Riemann-Roch, canonical class -3H).

    chi = r_a r_b + (3/2)(r_a d_b - r_b d_a) - <a, b>.  Integral whenever
    both classes come from actual objects; the lattice itself contains
    half-integral points where chi is a proper rational.
    """
    ra, da, sa = as_triple(a)
    rb, db, sb = as_triple(b)
    return ra * rb + Fraction(3, 2) * (ra * db - rb * da) - mukai_pair(a, b)


def twist(a: ClassLike, k: int) -> ChernCharacter:
    """Class of a(k), i.e. tensoring by O(k): (r, d + rk, s + dk + rk^2/2)."""
    r, d, s = as_triple(a)
    k = QQ.convert(k)
    return ChernCharacter(r, d + r * k, s + d * k + r * k * k / 2)


def bogomolov(a: ClassLike) -> Fraction:
    """Discriminant d^2 - 2 r s (nonnegative on semistable sheaf classes)."""
    r, d, s = as_triple(a)
    return d * d - 2 * r * s


def expected_dim(a: ClassLike) -> Fraction:
    """Expected dimension of the moduli of sheaves in the class:
    d^2 - r^2 + 1 - 2 r s  =  1 - chi(a, a)."""
    r, d, s = as_triple(a)
    return d * d - r * r + 1 - 2 * r * s


# ---------------------------------------------------------------------------
# distinguished classes


def ch_o(k: int = 0) -> ChernCharacter:
    """ch O(k) = (1, k, k^2/2)."""
    return ChernCharacter(1, k, Fraction(k * k, 2))


def ch_cotangent(k: int = 0) -> ChernCharacter:
    """ch Omega^1(k); Omega^1 itself is (2, -3, 3/2)."""
    return twist(ChernCharacter(2, -3, Fraction(3, 2)), k)


# ---------------------------------------------------------------------------
# hearts and dimension vectors

_HEART_RE = re.compile(r"A(-?[0-9]+)(p?)")


@dataclass(frozen=True)
class HeartBasis:
    """A tilted heart A_k or A'_k with its signed class basis.

    kind "A":  <O(k-1)[2], O(k)[1], O(k+1)>
    kind "Ap": <O(k-1)[2], Omega^1(k+1)[1], O(k)>
    """

    kind: str
    k: int

    def __post_init__(self):
        if self.kind not in ("A", "Ap"):
            raise InputError(f"unknown heart kind {self.kind!r}")

    @classmethod
    def parse(cls, label: str) -> "HeartBasis":
        m = _HEART_RE.fullmatch(label)
        try:
            return cls("Ap" if m.group(2) else "A", int(m.group(1)))
        except (AttributeError, ValueError) as exc:  # no match, or past the digit limit
            raise InputError(f"cannot parse heart label {label[:40]!r}") from exc

    def label(self) -> str:
        return f"A{self.k}" + ("p" if self.kind == "Ap" else "")

    def signed_basis(self) -> Tuple[ChernCharacter, ChernCharacter, ChernCharacter]:
        """Classes of the three simple generators, with shift signs applied."""
        if self.kind == "A":
            return (ch_o(self.k - 1), -ch_o(self.k), ch_o(self.k + 1))
        return (ch_o(self.k - 1), -ch_cotangent(self.k + 1), ch_o(self.k))


A1 = HeartBasis("A", 1)
A0 = HeartBasis("A", 0)
A1P = HeartBasis("Ap", 1)

DimVector = Tuple[int, int, int]


def dimvec(a: ClassLike, heart: HeartBasis) -> DimVector:
    """Coordinates of a class in the heart's signed basis.

    Solves a_0 c_0 + a_1 c_1 + a_2 c_2 = a exactly; errors if the solution
    is not integral ("class not in heart lattice").  For A_k this is the
    unique (a_0, a_1, a_2) with

        a_0 ch O(k-1) - a_1 ch O(k) + a_2 ch O(k+1) = a.
    """
    target = as_triple(a)
    basis = [c.triple() for c in heart.signed_basis()]
    cols = [[basis[j][i] for j in range(3)] for i in range(3)]
    sol = solve_right(QQ, cols, list(target))
    if sol is None:
        raise InputError("heart basis is degenerate")  # pragma: no cover
    if any(x.denominator != 1 for x in sol):
        raise InputError("class not in heart lattice")
    return (int(sol[0]), int(sol[1]), int(sol[2]))


def chern_of_dimvec(v: Sequence[int], heart: HeartBasis) -> ChernCharacter:
    """Inverse of dimvec: a_0 c_0 + a_1 c_1 + a_2 c_2 in the signed basis."""
    a0, a1, a2 = map(parse_json_int, v)
    c0, c1, c2 = heart.signed_basis()
    return a0 * c0 + a1 * c1 + a2 * c2
