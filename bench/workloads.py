"""Inputs of the `hilbert report` workloads.

Every configuration is built from small integer coordinates (|x| <= 3), the
way the acceptance battery draws its random configurations, and none is kept
or dropped according to how the program behaves on it.

The cost of one report depends on the coordinates as written: which prime
first squeezes the submodule search changes with the order of the
coordinates and of the points, and moves an n=2 report between about 2 s
and 15 s. With the one to six reports a run can afford, a fresh draw per
seed would make a run's figures measure the draw more than the program. So
each workload draws its ops once, from a generator keyed by the workload's
name, and a run repeats them in rounds. `--seed` picks the sign of every
point's representative, a different sign vector in every round. A sign
changes the input and output bytes but not the reductions mod p, and not
the work, so every round and every seed costs the same, and a run's figures
do not depend on how many rounds fit in its time.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

Point = Tuple[int, int, int]
Config = Tuple[Tuple[Fraction, Fraction, Fraction], ...]

#: the non-collinear triple whose zeta verdicts the program gets wrong
#: (`unstable`, probabilistic, cross-prime(2,3)); kept as the first report-n3 op
CROSS_PRIME_TRIPLE: Tuple[Point, ...] = ((1, 2, 3), (2, -1, 1), (3, 1, -2))


@dataclass(frozen=True)
class Op:
    """One `p2stab hilbert report` call: n points per configuration."""

    n: int
    configs: Tuple[Config, ...]
    batch: bool

    def payload(self) -> dict:
        rows = [[[str(c) for c in p] for p in cfg] for cfg in self.configs]
        return {"configs": rows} if self.batch else {"points": rows[0]}


def cross(a: Sequence, b: Sequence) -> Tuple:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _fresh_point(rng: random.Random, taken: Sequence[Point]) -> Point:
    while True:
        p = tuple(rng.randint(-3, 3) for _ in range(3))
        if any(p) and all(any(cross(p, q)) for q in taken):
            return p  # type: ignore[return-value]


def _fresh(rng: random.Random, n: int) -> List[Point]:
    pts: List[Point] = []
    while len(pts) < n:
        pts.append(_fresh_point(rng, pts))
    return pts


def _mod2_coincident_pair(rng: random.Random) -> List[Point]:
    """Two distinct points whose reductions mod 2 are the same point (or
    vanish): the pairs that push the n=2 squeeze past p=2."""
    a = _fresh_point(rng, [])
    while True:
        b = _fresh_point(rng, [a])
        if all(c % 2 == 0 for c in cross(a, b)):
            return [a, b]


def _collinear(rng: random.Random, n: int) -> List[Point]:
    """n distinct points on the line through two fresh ones."""
    while True:
        a, b = _fresh(rng, 2)
        line: List[Point] = [a, b]
        for s in range(-3, 4):
            for t in range(-3, 4):
                p = tuple(s * x + t * y for x, y in zip(a, b))
                if max(map(abs, p)) <= 3 and any(p) and all(any(cross(p, q)) for q in line):
                    line.append(p)  # type: ignore[arg-type]
        if len(line) >= n:
            return line[:2] + rng.sample(line[2:], n - 2)


def _twin(rng: random.Random, pts: Sequence[Point]) -> List[Tuple[Fraction, ...]]:
    """Same support: every point rescaled, then the order reversed."""
    scales = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in pts]
    return list(reversed([tuple(s * c for c in p) for s, p in zip(scales, pts)]))


def _report_n2(rng: random.Random) -> List[List[List]]:
    # the fourth pair coincides mod 2
    return [[_mod2_coincident_pair(rng) if k == 3 else _fresh(rng, 2)] for k in range(6)]


def _report_n3(rng: random.Random) -> List[List[List]]:
    # a quarter collinear: the cross-prime triple, a line, two fresh triples
    line = _collinear(rng, 3)
    return [[list(CROSS_PRIME_TRIPLE)], [line], [_fresh(rng, 3)], [_fresh(rng, 3)]]


def _report_n4_batch(rng: random.Random) -> List[List[List]]:
    a = _fresh(rng, 4)
    return [[a, _twin(rng, a), _fresh(rng, 4), _collinear(rng, 4)]]


#: name -> (points per configuration, the ops of one round, batch?, how many
#: ops of the first round a traced run covers: for report-n3 the cross-prime
#: and collinear triples, as the whole round would run for over two minutes
#: untraced plus traced). `report-n4-batch` is not in BENCHMARK.json (see
#: README.md) but can be run by hand.
WORKLOADS = {
    "report-n2": (2, _report_n2, False, 6),
    "report-n3": (3, _report_n3, False, 2),
    "report-n4-batch": (4, _report_n4_batch, True, 1),
}

#: rounds a run may make; n=2 ops have four sign vectors, so four distinct inputs
MAX_ROUNDS = 4


def _signed(configs, vector: int) -> Tuple[Config, ...]:
    """Bit k of the vector flips the sign of the k-th point of the op."""
    out, k = [], 0
    for cfg in configs:
        pts = []
        for p in cfg:
            sign = -1 if vector >> k & 1 else 1
            pts.append(tuple(sign * Fraction(c) for c in p))
            k += 1
        out.append(tuple(pts))
    return tuple(out)


def make_rounds(workload: str, seed: int) -> List[List[Op]]:
    """The ops of a workload, round by round; the same seed gives the same
    ops, and no two ops of a run share an input."""
    n, draw, batch, _ = WORKLOADS[workload]
    base = draw(random.Random(f"p2stab-bench/{workload}"))
    rng = random.Random(f"p2stab-bench/{workload}/{seed}")
    vectors = [rng.sample(range(2 ** (n * len(configs))), MAX_ROUNDS) for configs in base]
    return [
        [Op(n, _signed(configs, vs[r]), batch) for configs, vs in zip(base, vectors)]
        for r in range(MAX_ROUNDS)
    ]
