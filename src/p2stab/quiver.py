"""King stability of the quiver modules of `modules`: the submodule search
with proved lower and upper sets, King verdicts, Jordan-Hoelder filtrations
and S-equivalence.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import InputError, VerificationError
from .ktheory import as_triple
from . import linalg
from .linalg import QQ, PrimeField, galois_number, iter_subspaces
from .modules import DimVec, QuiverRep, SubTriple, _image, _int_arrows, _split, _unit
# re-exported as they are: `bench/tracer.py` looks these up here and rebinds
# every name that is the same object
from .modules import (
    iso_test,  # noqa: F401
    quotient_by,  # noqa: F401
    tilt_B_to_Bprime,  # noqa: F401
    tilt_Bprime_to_B,  # noqa: F401
)


# ---------------------------------------------------------------------------
# the layered submodule oracle


@dataclass(frozen=True)
class SubmoduleSearch:
    """Result of the two-layer submodule dimension-vector search.

    The true set T of submodule classes is bounded by two proved sets,
    ``lower <= T <= upper``.  Layer 1 closes a pool of generated middle
    subspaces U1 (the gamma-spans of coordinate subspaces of the first
    vertex, cyclic and random spans and the delta-preimages of the
    delta-images of the first candidates, each built from all three arrows
    of a side) under sums and intersections.  Since (U0, U1, U2) is a
    submodule iff gamma(U0) <= U1 <= delta^-1(U2), each U1 witnesses, for
    every outer pair (U0, U2) of its rectangle (`_rectangle`), every middle
    dimension from dim gamma(U0) to dim delta^-1(U2) (`_layer1`); its
    classes carry explicit witnesses over the base field, each built from
    the search's own integer bases of a submodule triple (`SubTriple`), and
    form ``lower``.  Layer 2 is an exhaustive enumeration over a finite
    field.  By the same criterion it settles the pairs (U0, U2) of outer subspaces
    in one pass over the lattice of F^{n2}, each subspace visiting at most
    (p^{n2} - 1)/(p - 1) covers, or enumerates the middle subspaces U1 when
    F^{n1} has at most as many subspaces as F^{n0} and F^{n2} together.
    Over GF(2) the outer pairs are settled on packed words, each vector one
    int and each cover found by the mask of its elements (`_layer2_packed`).
    Every path reads a field and integer arrows, a rational module's
    reduction being its `_primitive_arrows` mod p, so no module is built per
    prime.  It runs only when that count of subspaces
    (`_layer2_cost`) is within `_LAYER2_COST_BOUND`.  On the module's own
    prime field the enumerated set is exact and is both ``lower`` and
    ``upper``.  A rational module is
    reduced mod several primes; a saturated reduction only gains
    submodules, so ``upper`` is the box of all d <= dims cut down by the
    mod-p sets of the primes in ``layers``, tried in turn up to the first
    that squeezes.  Layer 1 takes the enumerated sets as bounds on the
    schedule `_layer1` describes (the next prime is taken once the
    rectangles that witnessed nothing new have cost as much as its
    enumeration), so each is enumerated once and reused after Layer 1, and
    ``witnesses`` is still the one of the whole Layer-1 pool.
    ``evidence`` names what was enumerated; a verdict's certainty is read
    off ``lower`` and ``upper`` alone (`king_test`).
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


def _pivot(row) -> int:
    """The first nonzero column of a row."""
    return next(c for c, x in enumerate(row) if x)


def _preimage(F, arrows, rows, n_src: int, n_tgt: int) -> List[List[int]]:
    """The canonical basis of {x in F^n_src : A x in W for every arrow A},
    W the span of the canonical (`linalg.int_rref`) basis ``rows`` in
    F^n_tgt: A x lies in W iff every functional vanishing on W kills it."""
    ann = linalg.int_rref_kernel(F, rows, list(map(_pivot, rows)), n_tgt)
    return _preimage_of_annihilator(F, arrows, ann, n_src)


def _preimage_of_annihilator(F, arrows, ann, n_src: int) -> List[List[int]]:
    """The canonical basis (`linalg.int_rref`) of {x in F^n_src : w A x = 0
    for every arrow A and every functional w of ``ann``}, for one
    elimination.  The kernel of the constraints w A with their columns
    reversed, read off their rref (`linalg.int_rref_kernel`), is reduced for
    the reversed column order: each vector ends at its own free column, at
    which every other vector is zero, with a positive entry.  The same
    vectors reversed back, last first, thus start at distinct columns that
    the others clear: they are the canonical basis."""
    constraints = [row[::-1] for A in arrows for row in linalg.int_mat_mul(ann, A, n_src)]
    return [v[::-1] for v in reversed(linalg.int_right_kernel(F, constraints, n_src))]


def _box(dims: DimVec) -> frozenset:
    """Every d <= dims: the bound on the submodule classes that needs no proof."""
    return frozenset(itertools.product(*(range(n + 1) for n in dims)))


#: the most candidates `_u1_candidates` admits to its pool
_POOL_CAP = 250
#: the most sums and meets the pool's closure forms
_PAIR_BUDGET = 4000


def _u1_candidates(rep: QuiverRep, seed: int) -> Iterator[tuple]:
    """Candidate middle-vertex subspaces, as canonical integer row tuples
    (`linalg.int_rref`: over Q the rref scaled to primitive rows with
    positive pivots, one to one with the rref itself), each yielded once, in
    pool order, as it enters the pool.

    Every source uses the three arrows of a side together, as a submodule
    does: the gamma-spans of the coordinate subspaces of the first vertex
    (all of them when n0 <= 4, on the A0 module the sub-sums of the point
    modules, else the cyclic ones), cyclic spans of coordinate vectors and,
    over a small prime field, of every vector, delta-preimages of delta(U1)
    for the first candidates U1, seeded random spans, then the sums and
    intersections of pairs of these and one round of sums with the pool,
    under a work budget (`_PAIR_BUDGET`, the pool held to `_POOL_CAP`).
    The first two candidates' rectangles form, as
    interval spans of `_layer1`, ker delta and the delta-preimages of the
    coordinate subspaces <e_0, ..., e_{c-1}> of the end vertex (U1 = 0) and
    gamma(F^{n0}) (U1 = F^{n1}), so none of these is a source; nor are the
    preimages of the other coordinate subspaces, which witnessed no class
    on any measured workload.  A single arrow's image, kernel or preimage
    is no source: on the A1 module of a collinear quadruple such candidates
    filled the capped pool before the sum of two sources that witnesses
    four of its classes.  The pool is built lazily: a consumer that stops
    pulling leaves the rest of it unbuilt, and the candidates it did pull
    are the first ones of the whole pool.  A full pool pulls no further
    source.
    """
    F = rep.field
    n0, n1, n2 = rep.dims
    gammas, deltas = _int_arrows(rep)
    pool: Dict[tuple, None] = {}

    def canon(rows) -> tuple:
        return tuple(tuple(r) for r in linalg.int_rref(F, rows)[0])

    def fresh(keys) -> Iterator[tuple]:
        """Admit the canonical ``keys`` in turn, yielding each one that is new
        to the pool; pull no further key once the pool is full."""
        keys = iter(keys)
        while len(pool) < _POOL_CAP:
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
        yield []
        yield units1
        # the spans gamma(U0) of the coordinate subspaces U0, smallest first:
        # every one when n0 <= 4 (on the A0 module the sub-sums of the point
        # modules), else the cyclic ones; then the coordinate vectors of the
        # middle vertex.  Over a small prime field every vector is
        # affordable, and then every cyclic subspace is seeded here
        for k in range(1, (n0 if n0 <= 4 else 1) + 1):
            yield from (_image(us, gammas) for us in itertools.combinations(units0, k))
        yield from ([u] for u in units1)
        for n, span in ((n0, lambda v: _image([v], gammas)), (n1, lambda v: [v])):
            if isinstance(F, PrimeField) and n and F.p ** n <= 512:
                vectors = itertools.product(F.elements(), repeat=n)
                yield from map(span, itertools.islice(vectors, 1, None))  # past the zero vector
        # delta-preimages of the distinct targets delta(U1) of the first 40
        # candidates past the zero and whole spaces: at most 38 of them
        targets = (_image(u1c, deltas) for u1c in list(pool)[2:40])
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
        if ops >= _PAIR_BUDGET or len(pool) >= _POOL_CAP:
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
    # one round of sums: each candidate the pairs added with the pool as the
    # round starts
    snapshot = list(pool)
    for a, b in itertools.product(snapshot[len(atoms):], snapshot):
        if ops >= _PAIR_BUDGET or len(pool) >= _POOL_CAP:
            break
        yield from fresh([canon(a + b)])
        ops += 1


def _image_span(F, arrows, rows) -> Tuple[List[List[int]], List[int]]:
    """The canonical basis (`linalg.int_rref`) of the image of span(rows)
    under the arrows, with its pivots: one elimination."""
    return linalg.int_rref(F, _image(rows, arrows))


def _rectangle(F, dims: DimVec, gammas, deltas, u1) -> Tuple[list, list, list, list]:
    """The classes the middle subspace U1 certifies, as rows to build
    their witnesses from.

    A triple (U0, U1, U2) is a submodule exactly when U0 lies inside
    U0max(U1) = gamma^-1(U1) = {x : gamma_i(x) in U1 for all i} and U2
    contains delta(U1); every intermediate dimension at the outer vertices
    is realizable.  For the canonical integer basis ``u1`` this returns
    (U0max, D, growth, ann): the canonical basis of U0max, a basis D of
    delta(U1) reduced for the reversed column order, the unit vectors that
    complete D, in turn, to F^{n2}, and one functional per growth vector,
    vanishing on D and on the other growth vectors, so that ann[m:] spans
    the annihilator of D + growth[:m] (`_preimage_of_annihilator` of it is
    delta^-1 of that space).  The module is given by its field, its dims
    and its integer arrows, as in `_layer2_dimvecs`.
    """
    n0, n1, n2 = dims
    # the completion of delta(U1) by e_0, e_1, ... in turn takes e_k iff
    # delta(U1) has the same rank on the coordinates >= k as on those > k,
    # i.e. iff k is no pivot once the columns are reversed; the kernel of
    # the reversed rref has one vector per such free column, zero at the
    # others, last k first
    rev, rev_piv = linalg.int_rref(F, [row[::-1] for row in _image(u1, deltas)])
    growth = [_unit(n2, k) for k in range(n2) if n2 - 1 - k not in rev_piv]
    ann = [w[::-1] for w in reversed(linalg.int_rref_kernel(F, rev, rev_piv, n2))]
    return _preimage(F, gammas, u1, n0, n1), [row[::-1] for row in rev], growth, ann


#: the rent `_layer1` pays for a rectangle that witnesses no new class, in
#: subspaces of the next enumeration (`_layer2_cost`).  Set on 3-point
#: reports of the points as written: a lower price left more eliminations,
#: a higher one made 2-point reports enumerate primes that no squeeze
#: reads.  On the framed reports no price from 2 to 8 moves the 2- and
#: 3-point workloads, and a higher one saves eliminations on the 4-point
#: batch; the unframed modules it was set on have not been measured again,
#: so it stays until they are (counts in BENCH_45.json)
_IDLE_RECTANGLE_PRICE = 4


def _layer1(rep: QuiverRep, seed: int, bounds: Iterable[Tuple[int, Callable[[], frozenset]]] = ()):
    """Witnessed dimvec search driven by candidate middle subspaces.

    Each candidate U1 certifies every class of its rectangle's outer pairs
    (`_rectangle`).  A triple is a submodule iff gamma(U0) <= U1' <=
    delta^-1(U2), so for each prefix U0_a of the U0max basis and each
    U2_c = D + growth[: c - dim D] every class (a, k, c) with
    dim gamma(U0_a) <= k <= dim delta^-1(U2_c) is witnessed: k = dim U1 by
    U1 itself.  A subspace's pivots lie among those of any space that holds
    it, so no witness needs an elimination past the spans S_a =
    gamma(U0_a) and P_c = delta^-1(U2_c) (`_image_span`,
    `_preimage_of_annihilator`, kept for the rest of the search by U0_a and
    by U2_c; S_0 = 0 and P_{n2} = F^{n1} need none): below U1 the middle
    rows are S_a's canonical basis and then the rows of U1's whose pivots
    are not S_a's, above U1 they are U1's and then the rows of P_c's whose
    pivots are not U1's.  Every rectangle forms S_a for every a and P_c for
    every c.  Each witness is a triple of integer row tuples:
    the first a rows of the U0max basis, those middle rows, and D with its
    first c - dim D completing unit vectors.  The classes are filled a by a
    for k <= dim U1, then c by c from n2 down for k > dim U1, each at its
    first witness.

    Sound for any candidate pool; complete whenever the pool covers the
    middle subspaces that matter.  The pool (`_u1_candidates`) holds at most
    `_POOL_CAP` candidates, each built from all three arrows of a side, and
    its closure stops once it has formed `_PAIR_BUDGET` sums and meets.

    ``bounds`` lets the search stop early without changing its result.  It
    is a sequence of pairs (cost, bound): ``bound()`` returns a proved set
    containing every submodule class, and is called at most once, when the
    search takes it.  The search takes the first bound before it pulls a
    candidate (with none, its bound is the box of all d <= dims), and pulls
    no further candidate once every class of its bound is witnessed.  A
    rectangle that witnesses a new class is progress; one that witnesses
    none is rent, paid at `_IDLE_RECTANGLE_PRICE` subspaces of enumeration.
    The search takes the next bound, cutting its own down to the
    intersection, once the rent paid since the last bound reaches that next
    pair's cost and its bound is still not filled (a ski rental,
    Karlin-Manasse-Rudolph-Sleator 1988): an early bound then costs about
    the work already wasted, and a bound it never needs is never formed.
    Every span fills its whole interval,
    witnessed classes aside, and any class a candidate left unpulled could
    witness is a submodule class, so it lies in the bound and is witnessed
    already: the witnesses, their values and their order are those of the
    whole pool, whichever bounds are taken.
    """
    F = rep.field
    n1, n2 = rep.dims[1:]
    gammas, deltas = _int_arrows(rep)
    units = tuple(tuple(_unit(n1, j)) for j in range(n1))
    witnesses: Dict[DimVec, SubTriple] = {}
    bounds = iter(bounds)
    first = next(bounds, None)

    # the classes of the bound not yet witnessed
    unwitnessed = set(first[1]() if first else _box(rep.dims))
    # the spans S_a and P_c formed so far, with their pivots, by U0_a and by
    # U2_c: candidates that share U0max or delta(U1) share them; S_0 = 0 is
    # seeded and P_{n2} = F^{n1} is ``units``, so neither costs an elimination
    images: Dict[tuple, Tuple[tuple, set]] = {(): ((), set())}
    preimages: Dict[tuple, Tuple[tuple, list]] = {}

    def witness(dv: DimVec, u0, u1, u2) -> None:
        if dv not in witnesses:
            witnesses[dv] = (u0, u1, u2)
            unwitnessed.discard(dv)

    nxt, rent = next(bounds, None), 0  # the next bound, rent paid since the last
    for u1c in _u1_candidates(rep, seed):
        u0max, D, growth, ann = (tuple(map(tuple, R))
                                 for R in _rectangle(F, rep.dims, gammas, deltas, u1c))
        dim1, outer = len(u1c), range(len(D), n2 + 1)
        u2 = {c: D + growth[: c - len(D)] for c in outer}
        known = len(witnesses)
        piv1 = list(map(_pivot, u1c))
        for a in range(len(u0max) + 1):
            if u0max[:a] not in images:
                rows, piv = _image_span(F, gammas, u0max[:a])
                images[u0max[:a]] = tuple(map(tuple, rows)), set(piv)
            S, spiv = images[u0max[:a]]
            below = S + tuple(r for r, q in zip(u1c, piv1) if q not in spiv)
            for c in outer:
                for k in range(len(S), dim1 + 1):
                    witness((a, k, c), u0max[:a], u1c if k == dim1 else below[:k], u2[c])
        P, ppiv, in1 = units, range(n1), set(piv1)  # P_{n2} = F^{n1}
        for c in reversed(outer):
            if c < n2:
                if u2[c] not in preimages:
                    rows = _preimage_of_annihilator(F, deltas, ann[c - len(D):], n1)
                    preimages[u2[c]] = tuple(map(tuple, rows)), list(map(_pivot, rows))
                P, ppiv = preimages[u2[c]]
            above = u1c + tuple(r for r, q in zip(P, ppiv) if q not in in1)
            for a in range(len(u0max) + 1):
                for k in range(dim1 + 1, len(P) + 1):
                    witness((a, k, c), u0max[:a], above[:k], u2[c])
        if len(witnesses) == known:  # a rectangle that witnessed no new class
            rent += _IDLE_RECTANGLE_PRICE
        if nxt is not None and rent >= nxt[0] and unwitnessed:
            unwitnessed &= nxt[1]()
            nxt, rent = next(bounds, None), 0
        if not unwitnessed:
            break
    return witnesses


def _layer2_dimvecs(rep: QuiverRep, p: Optional[int] = None) -> frozenset:
    """Exact dimvec set over a prime field: the rep's own, or for a rational
    rep GF(p), over its reduction mod p.  The field and the integer arrows
    are picked once: a module over its own field gives its `_int_arrows`, a
    rational one its `_primitive_arrows` reduced mod p, and every path reads
    them with no module built per prime.

    A triple (U0, U1, U2) is a submodule iff gamma(U0) <= U1 <= delta^-1(U2),
    where gamma(U0) = sum_i gamma_i(U0) and delta^-1(U2) is the intersection
    of the delta_j^-1(U2).  So a pair (U0, U2) of outer subspaces extends to a
    submodule iff S = gamma(U0) lies in P = delta^-1(U2), i.e. iff
    delta(S) <= U2, and then U1 can be S, P or anything in between: every
    dim U1 from dim S to dim P occurs.  Settling the outer pairs thus gives
    the exact set (`_layer2_by_pairs`): one pass over the subspaces of
    F^{n2}, each visiting at most (p^{n2} - 1)/(p - 1) covers without
    elimination, and one over those of F^{n0}, each with one lookup.  Over
    GF(2) the outer pairs are settled on packed words (`_layer2_packed`).
    When F^{n1} has no more subspaces than the two outer vertices together
    (n1 small against n0 and n2), the middle vertex is enumerated instead
    (`_layer2_by_middle`); every path gives the same set.  The count of subspaces of the path taken is `_layer2_cost`, which
    the search holds to `_LAYER2_COST_BOUND` before it calls this.
    """
    F = rep.field if rep.field.p else PrimeField(p)
    gammas, deltas = _int_arrows(rep) if rep.field.p else (
        [linalg.int_form(F, N)[0] for N in Ns] for Ns in _primitive_arrows(rep))
    if _layer2_cost(rep.dims, F.p) >= galois_number(rep.dims[1], F.p):
        return _layer2_by_middle(F, rep.dims, gammas, deltas)
    if F.p == 2:
        return _layer2_packed(rep.dims, gammas, deltas)
    return _layer2_by_pairs(F, rep.dims, gammas, deltas)


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


def _layer2_by_pairs(F, dims: DimVec, gammas, deltas) -> frozenset:
    """`_layer2_dimvecs` over the pairs (U0, U2).  One pass over the subspaces
    W of F^{n2}, largest first, sets best[W][k] to the largest dim
    delta^-1(U2) over U2 >= W of dim k: dim delta^-1(W) at k = dim W, else
    the best of W's covers.  Each U0 then adds every dim U1 from
    dim gamma(U0) to best[delta(gamma(U0))][dim U2]."""
    n0, n1, n2 = dims
    best: Dict[tuple, List[int]] = {}
    for rows, piv in reversed(list(iter_subspaces(F, n2))):
        b = [0] * (n2 + 1)
        for cover in _covers(F.p, rows, piv, n2):
            b = list(map(max, b, best[cover]))
        b[len(rows)] = len(_preimage(F, deltas, rows, n1, n2))
        best[tuple(map(tuple, rows))] = b
    out = set()
    for rows, _ in iter_subspaces(F, n0):
        S = _image_span(F, gammas, rows)[0]
        D = _image_span(F, deltas, S)[0]
        b = best[tuple(map(tuple, D))]
        out.update((len(rows), u1, u2) for u2 in range(len(D), n2 + 1)
                   for u1 in range(len(S), b[u2] + 1))
    return frozenset(out)


def _layer2_by_middle(F, dims: DimVec, gammas, deltas) -> frozenset:
    """`_layer2_dimvecs` by enumerating the middle vertex: for each U1, every
    U0 <= U0max(U1) and every U2 >= delta(U1) completes it (`_rectangle`)."""
    out = set()
    for u1, _ in iter_subspaces(F, dims[1]):
        u0max, D = _rectangle(F, dims, gammas, deltas, u1)[:2]
        out.update((u0, len(u1), u2) for u0 in range(len(u0max) + 1)
                   for u2 in range(len(D), dims[2] + 1))
    return frozenset(out)


def _packed_side(arrows, n_tgt: int, n_src: int) -> List[int]:
    """The three arrows of a side mod 2 as one word per source coordinate:
    bit j n_tgt + r of word k is entry (r, k) of arrow j.  The XOR of the
    words of the bits of x (`_apply`) thus holds A_0 x, A_1 x and A_2 x,
    n_tgt bits each."""
    return [sum((A[r][k] & 1) << (j * n_tgt + r) for j, A in enumerate(arrows)
                for r in range(n_tgt))
            for k in range(n_src)]


def _apply(words: List[int], x: int) -> int:
    """The packed images of the GF(2) vector x: the XOR of its bits' words."""
    out = 0
    for word in words:
        if x & 1:
            out ^= word
        x >>= 1
    return out


def _thirds(word: int, n: int) -> Tuple[int, int, int]:
    """The three n-bit vectors of a packed word (`_packed_side`)."""
    low = (1 << n) - 1
    return word & low, word >> n & low, word >> 2 * n


def _xor_insert(basis: Dict[int, int], v: int) -> None:
    """Add v to the XOR basis ``basis`` (one vector per leading bit, keyed by
    its bit length): clear v's leading bits against it, keep what is left."""
    while v:
        top = v.bit_length()
        if top not in basis:
            basis[top] = v
            return
        v ^= basis[top]


def _gf2_lattice(n: int, root, grow) -> Iterator[tuple]:
    """Every subspace of GF(2)^n once, depth first, as (rows, state): rows its
    fully reduced basis (leading bits increasing, each row zero at the other
    rows' leading bits), state ``root`` for the zero space and
    grow(state of rows[:-1], rows[-1]) else.  A row added past the last
    leading bit t is 1 << u | f for some u > t and f any set of bits below u
    that lead no row; the rows before it are zero at u, so each basis comes
    once."""

    def visit(rows, state, free):
        yield rows, state
        low = rows[-1].bit_length() if rows else 0
        for top in range(low, n):
            below = free + [1 << b for b in range(low, top)]
            tails = [0]
            for bit in below:
                tails += [t | bit for t in tails]
            for tail in tails:
                row = 1 << top | tail
                yield from visit(rows + (row,), grow(state, row), below)

    return visit((), root, [])


def _span_with(span: Tuple[int, list], v: int) -> Tuple[int, list]:
    """The span of a GF(2) subspace and v, a subspace given as (mask,
    elements): bit e of the mask is set iff the vector e lies in it."""
    mask, elements = span
    if mask >> v & 1:
        return span
    new = [e ^ v for e in elements]
    return mask | sum(1 << e for e in new), elements + new


def _layer2_packed(dims: DimVec, gammas, deltas) -> frozenset:
    """`_layer2_by_pairs` over GF(2) on packed words, for integer arrows read
    mod 2.  A vector of GF(2)^n is an int, a side its words
    (`_packed_side`), and a subspace W of F^{n2} is keyed by the mask of its
    elements, so each cover W + <v>, v running over the nonzero vectors on
    the bits that lead no row of W, is found by one lookup, with no
    elimination.  dim delta^-1(W) is n1 less the rank of the n1 packed
    triples (delta_0 e_k, delta_1 e_k, delta_2 e_k) mod W.  Each U0 grows
    from the one without its last row: its image S = gamma(U0) as an XOR
    basis, its image delta(S) as a mask."""
    n0, n1, n2 = dims
    gamma_words = _packed_side(gammas, n1, n0)
    delta_words = _packed_side(deltas, n2, n1)
    best: Dict[int, List[int]] = {}
    spaces = sorted(_gf2_lattice(n2, (1, [0]), _span_with), key=lambda s: -len(s[0]))
    for rows, (mask, elements) in spaces:  # largest first
        leads = [r.bit_length() - 1 for r in rows]
        offsets = [0]
        for bit in range(n2):
            if bit not in leads:
                offsets += [v | 1 << bit for v in offsets]
        b = [0] * (n2 + 1)
        for v in offsets[1:]:
            b = list(map(max, b, best[mask | sum(1 << (e ^ v) for e in elements)]))
        reducers = [(1 << (lead + s), r << s)
                    for r, lead in zip(rows, leads) for s in (0, n2, 2 * n2)]
        basis: Dict[int, int] = {}
        for word in delta_words:
            for bit, r in reducers:
                if word & bit:
                    word ^= r
            _xor_insert(basis, word)
        b[len(rows)] = n1 - len(basis)
        best[mask] = b

    def grow(state, row):
        basis, image = state
        basis = dict(basis)
        for s in _thirds(_apply(gamma_words, row), n1):
            if s:
                _xor_insert(basis, s)
                for t in _thirds(_apply(delta_words, s), n2):
                    image = _span_with(image, t)
        return basis, image

    keys = {(len(rows), len(basis), image[0], len(image[1]))
            for rows, (basis, image) in _gf2_lattice(n0, ({}, (1, [0])), grow)}
    out = set()
    for a, s, mask, size in keys:
        b = best[mask]
        out.update((a, u1, u2) for u2 in range(size.bit_length() - 1, n2 + 1)
                   for u1 in range(s, b[u2] + 1))
    return frozenset(out)


#: primes tried for rational modules, smallest first
_LAYER2_PRIMES = (2, 3, 5, 7)
#: the most subspaces one Layer-2 enumeration may visit (`_layer2_cost`);
#: every prime above fits at n <= 4 points, p = 2 and 3 fit at n = 5
_LAYER2_COST_BOUND = 10_000
_OVER_BOUND = "layer1-only (Layer 2 over its cost bound)"


def _affordable_primes(dims: DimVec, field) -> Tuple[int, ...]:
    """The primes a search of a module of ``dims`` over ``field`` may
    enumerate: over GF(p) the field's own prime, over Q those of
    `_LAYER2_PRIMES`, up to the first whose enumeration (`_layer2_cost`,
    which grows with p) is over `_LAYER2_COST_BOUND`."""
    primes = _LAYER2_PRIMES if field.p is None else (field.p,)
    return tuple(itertools.takewhile(
        lambda p: _layer2_cost(dims, p) <= _LAYER2_COST_BOUND, primes))


def _primitive_arrows(rep: QuiverRep) -> Tuple[list, list]:
    """The gammas and the deltas of a rational module's integer form, each
    arrow rescaled on its own to a primitive integer matrix (its
    `linalg.int_form`; submodule lattices ignore arrow scaling), which
    `_layer2_dimvecs` reads mod p as the module's reduction.  Each arrow on
    its own, not its side: an arrow that the side's scale leaves divisible
    by p would vanish mod p."""
    return tuple([linalg.int_form(QQ, N)[0] for N in Ns] for Ns in _int_arrows(rep))


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
    own = isinstance(rep.field, PrimeField)
    primes = _affordable_primes(rep.dims, rep.field)

    sets: Dict[int, frozenset] = {}  # each mod-p set, enumerated once

    def enumerate_mod(p: int) -> frozenset:
        if p not in sets:
            sets[p] = _layer2_dimvecs(rep, p)
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
    theta = as_triple(theta)
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
    up to dims(rep).  A quotient whose box of classes has no proper nonzero
    class with theta = 0 (the last (0, 1, 0) factor of a Hilbert-Chow
    filtration among them) has nothing to peel, so it is the last factor
    without a search.  Raises DestabilizedError with the witness if the
    module is not semistable.
    """
    theta = as_triple(theta)
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
        proper = _box(current.dims) - {zero, current.dims}
        if not any(_int_pair(weight, dv) == 0 for dv in proper):
            factors.append(current)
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
