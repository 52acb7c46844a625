"""Tests of the benchmark's oracle, tracer and workloads on hand-made data."""
import json
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

DATA = Path(__file__).resolve().parent / "data"
GENERAL = [(1, 0, 0), (0, 1, 0)]
LINE3 = [(1, 0, 0), (0, 1, 0), (1, 1, 0)]
TRIANGLE = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def verdict(v, certainty="exact", witness=None):
    return {"verdict": v, "certainty": certainty, "witness_dimvec": witness,
            "evidence": "squeeze(p=2)"}


def config_entry(n, collinear):
    zeta = verdict("unstable", witness=[0, 1, 0]) if collinear else verdict("stable")
    return {
        "collinear": collinear,
        "interior": [{"b": b, **verdict("stable")} for b in ("1/4", "1/2", "3/4")],
        "hc_boundary": verdict("semistable"),
        "hc_filtration": {"factor_dims": [[1, 2, 1]] * n + [[0, 1, 0]],
                          "support": list(range(n))[::-1], "v1_simple_count": 1},
        "zeta": {"skipped": False, "eps": "1/400",
                 "expected": "unstable" if collinear else "semistable",
                 "at_minus_eps": zeta, "at_minus_eps_over_10": dict(zeta)},
        "dual_across_hc": {"eps": "1/400", "at_one_plus_eps": verdict("stable"),
                           "at_one_plus_eps_over_10": verdict("stable")},
    }


def report(n, configs):
    return {
        "configurations": [config_entry(n, oracle.is_collinear(c)) for c in configs],
        "s_equivalence_groups": oracle.expected_groups(configs),
    }


def score(n, configs, rep):
    return oracle.score_output(n, configs, 0, json.dumps(rep).encode())


# ---------------------------------------------------------------------------
# oracle


def test_truth_from_points():
    assert oracle.is_collinear(GENERAL)
    assert oracle.is_collinear(LINE3)
    assert not oracle.is_collinear(TRIANGLE)
    assert oracle.primitive_point((Fraction(-2, 3), 0, Fraction(4, 3))) == (1, 0, -2)
    twin = [(0, 5, 0), (-2, 0, 0)]
    assert oracle.expected_groups([GENERAL, TRIANGLE[1:], twin]) == [[0, 2], [1]]


@pytest.mark.parametrize("n,configs", [(2, [GENERAL]), (3, [LINE3, TRIANGLE])])
def test_correct_exact_report_passes(n, configs):
    s = score(n, configs, report(n, configs))
    assert (s.failures, s.wrong, s.exact, s.verdicts) == ([], 0, 8 * len(configs), 8 * len(configs))


def test_cross_prime_output_is_wrong_not_failed():
    rep = json.loads((DATA / "cross_prime_n3.json").read_text())
    configs = [workloads.CROSS_PRIME_TRIPLE]
    s = oracle.score_report(3, configs, rep)
    assert (s.failed, s.wrong, s.exact, s.verdicts) == (False, 2, 0, 8)
    # the same verdict, claimed exact, is a contradiction of the truth
    rep["configurations"][0]["zeta"]["at_minus_eps"]["certainty"] = "exact"
    s = oracle.score_report(3, configs, rep)
    assert s.failed and s.wrong == 2


def broken(mutate, n=3, configs=(LINE3, TRIANGLE)):
    rep = report(n, list(configs))
    mutate(rep)
    return score(n, list(configs), rep)


@pytest.mark.parametrize("mutate", [
    lambda r: r["configurations"][1].update(collinear=True),
    lambda r: r["configurations"][1]["zeta"].update(expected="unstable"),
    lambda r: r["configurations"][0]["interior"][1].update(verdict="semistable"),
    lambda r: r["configurations"][1]["hc_boundary"].update(verdict="stable"),
    lambda r: r["configurations"][1]["dual_across_hc"]["at_one_plus_eps"].update(
        verdict="unstable", witness_dimvec=[0, 1, 0]),
    # witness not below the dimension vector, or not destabilising
    lambda r: r["configurations"][0]["zeta"]["at_minus_eps"].update(witness_dimvec=[0, 9, 0]),
    lambda r: r["configurations"][0]["zeta"]["at_minus_eps"].update(witness_dimvec=[0, 0, 1]),
    lambda r: r["configurations"][0]["zeta"]["at_minus_eps"].update(witness_dimvec=None),
    # exact shrink pair that disagrees
    lambda r: r["configurations"][1]["dual_across_hc"]["at_one_plus_eps_over_10"].update(
        verdict="semistable"),
    lambda r: r["configurations"][0]["hc_filtration"].update(factor_dims=[[1, 2, 1]] * 3),
    lambda r: r["configurations"][0]["hc_filtration"].update(support=[0, 0, 1]),
    lambda r: r["configurations"][0]["hc_filtration"].update(support=[0, None, 2]),
    lambda r: r["configurations"][0]["hc_filtration"].update(v1_simple_count=2),
    lambda r: r.update(s_equivalence_groups=[[0, 1]]),
    lambda r: r["configurations"].pop(),
    lambda r: r["configurations"][0].pop("zeta"),
    lambda r: r["configurations"][0]["interior"][0].update(certainty="certain"),
    lambda r: r.update(configurations={"0": None}),
    lambda r: r["configurations"][0].update(dual_across_hc=[]),
])
def test_broken_certified_claims_fail(mutate):
    assert broken(mutate).failed


def test_probabilistic_wrong_verdict_counts_but_does_not_fail():
    def mutate(r):
        r["configurations"][1]["zeta"]["at_minus_eps"].update(
            verdict="unstable", certainty="probabilistic", witness_dimvec=[0, 1, 0])
    s = broken(mutate)
    assert (s.failed, s.wrong, s.exact) == (False, 1, 15)


def test_exit_code_and_unreadable_output_fail():
    assert oracle.score_output(2, [GENERAL], 3, b"{}").failed
    assert oracle.score_output(2, [GENERAL], 0, b"{not json").failed
    assert oracle.score_output(2, [GENERAL], 0, None).failed


# ---------------------------------------------------------------------------
# tracer


@pytest.fixture
def fake_program(monkeypatch):
    """A two-module package where one module imports the other's function
    by name, as quiver does with linalg.rref."""
    pkg = types.ModuleType("fakeprog")
    linalg = types.ModuleType("fakeprog.linalg")
    quiver = types.ModuleType("fakeprog.quiver")

    def rref(x):
        return x + 1

    def _layer1(x):
        return quiver.rref(x) + quiver.rref(x)

    linalg.rref = rref
    quiver.rref = rref
    quiver._layer1 = _layer1
    for m in (pkg, linalg, quiver):
        monkeypatch.setitem(sys.modules, m.__name__, m)
    return linalg, quiver


def test_tracer_rebinds_imported_names_and_restores(fake_program):
    linalg, quiver = fake_program
    original = linalg.rref
    t = tracer.Tracer(package="fakeprog")
    t.install(targets=(("linalg", "rref", "linalg.rref", False),
                       ("quiver", "_layer1", "quiver.layer1", True),
                       ("quiver", "_layer2_dimvecs", "quiver.layer2", True)))
    assert quiver.rref is linalg.rref is not original
    assert quiver._layer1(1) == 4
    t.uninstall()
    assert quiver.rref is linalg.rref is original

    assert t.totals["linalg.rref"][0] == 2
    calls, total, self_s = t.totals["quiver.layer1"]
    assert calls == 1 and 0 <= self_s <= total
    assert len(t.spans) == 1 and t.self_times(0)["quiver.layer1"] == pytest.approx(total)
    m = t.metrics(None, None)
    assert m["quiver.layer1.calls"] == 1 and m["linalg.rref.calls"] == 2
    # renamed or deleted names are reported as not measured
    assert "quiver.layer2" in t.missing
    assert m["quiver.layer2.s"] is None and m["quiver.layer2.us_per_subspace"] is None
    assert m["quiver.search.calls"] is None and m["quiver.layer2.runs"] is None


def test_layer2_accounting_from_search_results():
    assert tracer.galois_number(2, 2) == 5  # 0, three lines, the plane
    assert tracer.certified_primes("squeeze(p=3)") == {3}
    assert tracer.certified_primes("squeeze(intersection mod 2,3)") == {2, 3}
    assert tracer.certified_primes("exhaustive(F_5)") == {5}
    assert tracer.certified_primes("cross-prime(2,3)") == frozenset()
    assert tracer.certified_primes("layer1-only (mod-p excess unresolved)") == frozenset()


# ---------------------------------------------------------------------------
# workloads


def test_workloads_are_seeded_and_differ_only_in_signs():
    for name in workloads.WORKLOADS:
        a, b = workloads.make_rounds(name, 1), workloads.make_rounds(name, 2)
        assert a == workloads.make_rounds(name, 1) and a != b
        inputs = [op.payload() for ops in a for op in ops]
        assert len({json.dumps(x) for x in inputs}) == len(inputs)
        for ops in a[1:] + b:
            for x, y in zip(a[0], ops):
                for cx, cy in zip(x.configs, y.configs):
                    assert all(p == q or p == tuple(-c for c in q) for p, q in zip(cx, cy))


def test_workload_composition():
    n3 = workloads.make_rounds("report-n3", 7)[0]
    assert oracle.support_key(n3[0].configs[0]) == oracle.support_key(workloads.CROSS_PRIME_TRIPLE)
    assert [oracle.is_collinear(op.configs[0]) for op in n3] == [False, True, False, False]
    n2 = workloads.make_rounds("report-n2", 7)[0]
    assert all(c % 2 == 0 for c in workloads.cross(*n2[3].configs[0]))
    (batch,) = workloads.make_rounds("report-n4-batch", 7)[0]
    assert batch.batch and len(batch.configs) == 4
    assert [0, 1] in oracle.expected_groups(batch.configs)
    assert oracle.is_collinear(batch.configs[3])
    assert max(abs(c) for cfg in batch.configs[::2] for p in cfg for c in p) <= 3
