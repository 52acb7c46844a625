"""Ground truth for `p2stab hilbert report`, and the score of a report.

The truth is derived here from the input points, not taken from the
program:

* collinearity comes from the rank of the coordinate matrix;
* the interior weights b = 1/4, 1/2, 3/4 give `stable`;
* the Hilbert-Chow boundary b = 1 gives `semistable`;
* the zeta weights at -eps and -eps/10 give `unstable` exactly when the
  configuration is collinear, and `stable` or `semistable` otherwise;
* the dual at 1+eps and 1+eps/10 gives `stable` or `semistable`.

A report is *failed* when it breaks what the program certifies: a bad exit
code or unreadable output, a wrong collinearity or zeta expectation, an
`exact` verdict outside the truth, an exact `unstable` whose witness is not
a destabilising subvector, two exact verdicts of a shrink pair that
disagree, a Hilbert-Chow filtration other than (0,1,0) + n x (1,2,1) with
support a permutation of the points and one vertex simple, or S-equivalence
groups other than the grouping by normalised support. A verdict outside the
truth that is labelled `probabilistic` is *wrong*, and is counted, but does
not fail the report: the program did not claim it.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

INTERIOR_B = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
STABLE = frozenset({"stable"})
SEMISTABLE = frozenset({"semistable"})
UNSTABLE = frozenset({"unstable"})
NOT_UNSTABLE = frozenset({"stable", "semistable"})


@dataclass
class Score:
    """Verdict counts of one report, and the reasons it failed (if any)."""

    verdicts: int = 0
    exact: int = 0
    wrong: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.failures)


# ---------------------------------------------------------------------------
# truth from the points alone


def primitive_point(p: Sequence) -> Tuple[int, int, int]:
    """The integer representative with coprime entries and a positive
    leading entry."""
    q = [Fraction(c) for c in p]
    den = math.lcm(*(c.denominator for c in q))
    ints = [int(c * den) for c in q]
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    if next(c for c in ints if c != 0) < 0:
        ints = [-c for c in ints]
    return tuple(ints)  # type: ignore[return-value]


def support_key(config: Sequence) -> Tuple[Tuple[int, int, int], ...]:
    return tuple(sorted(primitive_point(p) for p in config))


def is_collinear(config: Sequence) -> bool:
    """Rank of the coordinate matrix at most 2 (always so for n <= 2)."""
    pts = [[Fraction(c) for c in p] for p in config]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            for k in range(j + 1, len(pts)):
                a, b, c = pts[i], pts[j], pts[k]
                det = (
                    a[0] * (b[1] * c[2] - b[2] * c[1])
                    - a[1] * (b[0] * c[2] - b[2] * c[0])
                    + a[2] * (b[0] * c[1] - b[1] * c[0])
                )
                if det != 0:
                    return False
    return True


def theta_b1(n: int, b: Fraction) -> Tuple[Fraction, Fraction, Fraction]:
    """Weight family on the class (n, 2n+1, n)."""
    return (-b * n, -(1 - b) * n, (1 - b) * (2 * n + 1) + b * n)


def theta_b0(n: int, b: Fraction) -> Tuple[Fraction, Fraction, Fraction]:
    """Weight family on the class (n, 2n, n-1)."""
    return ((1 - b) * (1 - n) - 2 * n * b, n * b, (1 - b) * n)


def expected_groups(configs: Sequence) -> List[List[int]]:
    groups: Dict[tuple, List[int]] = {}
    for k, cfg in enumerate(configs):
        groups.setdefault(support_key(cfg), []).append(k)
    return sorted(groups.values())


# ---------------------------------------------------------------------------
# scoring


class _Malformed(Exception):
    pass


def _get(obj, *keys):
    for k in keys:
        try:
            obj = obj[k]
        except (KeyError, IndexError, TypeError) as exc:
            raise _Malformed(f"missing {'.'.join(map(str, keys))}") from exc
    return obj


def _frac(x, what: str) -> Fraction:
    try:
        return Fraction(str(x))
    except (ValueError, ZeroDivisionError) as exc:
        raise _Malformed(f"{what} is not a rational: {x!r}") from exc


def _check_verdict(score: Score, where: str, v: dict, truth: frozenset,
                   dims: Sequence[int], theta: Sequence[Fraction]) -> Optional[str]:
    """Count one verdict; return it when it is exact, else None."""
    verdict, certainty = _get(v, "verdict"), _get(v, "certainty")
    if certainty not in ("exact", "probabilistic"):
        raise _Malformed(f"{where}: certainty {certainty!r}")
    score.verdicts += 1
    inside = verdict in truth
    if not inside:
        score.wrong += 1
    if certainty != "exact":
        return None
    score.exact += 1
    if not inside:
        score.failures.append(f"{where}: exact {verdict!r}, truth {sorted(truth)}")
    if verdict == "unstable":
        w = v.get("witness_dimvec")
        ok = (
            isinstance(w, list) and len(w) == 3 and all(isinstance(x, int) for x in w)
            and all(0 <= x <= d for x, d in zip(w, dims))
            and sum(t * x for t, x in zip(theta, w)) < 0
        )
        if not ok:
            score.failures.append(f"{where}: exact unstable with witness {w!r}")
    return verdict


def _check_pair(score: Score, where: str, a: Optional[str], b: Optional[str]) -> None:
    if a is not None and b is not None and a != b:
        score.failures.append(f"{where}: exact shrink pair disagrees ({a} vs {b})")


def _check_config(score: Score, k: int, n: int, cfg: Sequence, entry: dict) -> None:
    where = f"config {k}"
    col = is_collinear(cfg)
    if _get(entry, "collinear") is not col:
        score.failures.append(f"{where}: collinear={entry['collinear']}, rank test says {col}")
    dims_a1 = (n, 2 * n + 1, n)
    dims_a0 = (n, 2 * n, n - 1)

    interior = _get(entry, "interior")
    if [_frac(_get(v, "b"), "b") for v in interior] != list(INTERIOR_B):
        raise _Malformed(f"{where}: interior parameters {[v.get('b') for v in interior]}")
    for b, v in zip(INTERIOR_B, interior):
        _check_verdict(score, f"{where} interior b={b}", v, STABLE, dims_a1, theta_b1(n, b))
    _check_verdict(score, f"{where} hc", _get(entry, "hc_boundary"), SEMISTABLE,
                   dims_a1, theta_b1(n, Fraction(1)))

    filt = _get(entry, "hc_filtration")
    want = sorted([[0, 1, 0]] + [[1, 2, 1]] * n)
    if sorted(_get(filt, "factor_dims")) != want:
        score.failures.append(f"{where}: HC factors {filt['factor_dims']}")
    support = _get(filt, "support")
    if not all(isinstance(s, int) for s in support) or sorted(support) != list(range(n)):
        score.failures.append(f"{where}: HC support {support}")
    if _get(filt, "v1_simple_count") != 1:
        score.failures.append(f"{where}: v1_simple_count {filt['v1_simple_count']}")

    zeta = _get(entry, "zeta")
    if _get(zeta, "skipped"):
        raise _Malformed(f"{where}: zeta skipped for n={n}")
    expected = "unstable" if col else "semistable"
    if _get(zeta, "expected") != expected:
        score.failures.append(f"{where}: zeta expected {zeta['expected']!r}, rank test says {expected!r}")
    eps = _frac(_get(zeta, "eps"), "zeta eps")
    truth = UNSTABLE if col else NOT_UNSTABLE
    za = _check_verdict(score, f"{where} zeta -eps", _get(zeta, "at_minus_eps"), truth,
                        dims_a0, theta_b0(n, -eps))
    zb = _check_verdict(score, f"{where} zeta -eps/10", _get(zeta, "at_minus_eps_over_10"),
                        truth, dims_a0, theta_b0(n, -eps / 10))
    _check_pair(score, f"{where} zeta", za, zb)

    dual = _get(entry, "dual_across_hc")
    eps = _frac(_get(dual, "eps"), "dual eps")
    da = _check_verdict(score, f"{where} dual 1+eps", _get(dual, "at_one_plus_eps"),
                        NOT_UNSTABLE, dims_a1, theta_b1(n, 1 + eps))
    db = _check_verdict(score, f"{where} dual 1+eps/10", _get(dual, "at_one_plus_eps_over_10"),
                        NOT_UNSTABLE, dims_a1, theta_b1(n, 1 + eps / 10))
    _check_pair(score, f"{where} dual", da, db)


def score_report(n: int, configs: Sequence, report: dict) -> Score:
    """Score a parsed report of `configs` (each a list of n points)."""
    score = Score()
    try:
        entries = _get(report, "configurations")
        if len(entries) != len(configs):
            raise _Malformed(f"{len(entries)} configurations reported for {len(configs)} given")
        for k, (cfg, entry) in enumerate(zip(configs, entries)):
            _check_config(score, k, n, cfg, entry)
        groups = _get(report, "s_equivalence_groups")
        if groups != expected_groups(configs):
            score.failures.append(
                f"s_equivalence_groups {groups}, support says {expected_groups(configs)}"
            )
    except (_Malformed, TypeError, ValueError, AttributeError) as exc:
        score.failures.append(f"malformed report: {exc!r}")
    return score


def score_output(n: int, configs: Sequence, exit_code: Optional[int], out: Optional[bytes]) -> Score:
    """Score one op from its exit code and the bytes of its --out file."""
    if exit_code != 0:
        return Score(failures=[f"exit code {exit_code}"])
    try:
        report = json.loads(out) if out is not None else None
    except ValueError as exc:
        return Score(failures=[f"unparseable output: {exc}"])
    if not isinstance(report, dict):
        return Score(failures=["no report written"])
    return score_report(n, configs, report)
