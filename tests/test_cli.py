"""End-to-end CLI behaviour, run in-process through main(argv)."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2stab import cli, modules
from p2stab.errors import InputError
from p2stab.geometry import PointConfig, module_point
from p2stab.io_utils import dumps_json, format_fraction, load_json, parse_fraction
from p2stab.linalg import QQ, PrimeField
from p2stab.modules import random_rep


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_points(path, pts):
    path.write_text(json.dumps({"points": [[str(c) for c in p] for p in pts]}))
    return str(path)


def write_rep(path, rep):
    path.write_text(json.dumps(modules.rep_to_json(rep)))
    return str(path)


# ---------------------------------------------------------------------------
# one-line arithmetic commands


def test_chern_commands(capsys):
    code, out, _ = run(capsys, "chern", "dimvec", "--ch=1,1,-3/2", "--heart", "A1")
    assert (code, out) == (0, "[-2,-5,-2]\n")
    code, out, _ = run(capsys, "chern", "euler", "--a=1,0,0", "--b=1,1,1/2")
    assert (code, out) == (0, "3\n")
    code, out, _ = run(capsys, "chern", "twist", "--ch=1,0,0", "--k", "-1")
    assert (code, out) == (0, "[1,-1,1/2]\n")
    code, out, _ = run(capsys, "chern", "bogomolov", "--ch=2,1,0")
    assert (code, out) == (0, "1\n")
    code, out, _ = run(capsys, "chern", "expected-dim", "--ch=1,0,-2")
    assert (code, out) == (0, "4\n")


def test_charge_commands(capsys):
    code, out, _ = run(capsys, "charge", "eval", "--ch=2,1,0", "--b=9/20", "--t2=99/400")
    assert (code, out) == (0, "re=99/200 im_coeff=1/10\n")
    code, out, _ = run(capsys, "charge", "sigma-b", "--b=1/2")
    assert (code, out) == (0, "[-1/2,0]; [-1/2,0]; [3/2,1]\n")
    code, out, _ = run(capsys, "charge", "abc", "--b=1/2")
    assert (code, out) == (0, "[3/2,1,1/2]\n")
    code, out, _ = run(capsys, "charge", "verify-T", "--b=1/2")
    assert (code, out) == (0, "OK (exact)\n")
    code, out, _ = run(capsys, "charge", "hypotheses", "--ch=2,1,0", "--b=9/20", "--t2=99/400")
    assert code == 0 and out.strip().endswith("all=ok")


def test_charge_scan_csv(capsys):
    code, out, _ = run(capsys, "charge", "scan", "--steps", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "b,t2,epsilon,reZ,imZ_coeff,abc_a,abc_b,abc_c,hypotheses_ok"
    assert len(lines) == 4
    assert lines[1].startswith("1/10,9/100,")
    assert lines[2].startswith("1/2,1/4,")


#: SHA-256 of `charge scan`'s CSV for some options, the same on stdout and
#: in the --out file
_SCAN_DIGESTS = {
    (): ("811fe7f35f7edcddf27883e3448199dad2af04a05b80fc97294d79a0781ee111", 17),
    ("--ch=1,0,-1", "--b-start=0", "--b-end=1", "--steps=5", "--t2=1/3"):
        ("1b116c9333e0a5cb805db8559d591f088933515479e957d46797ddb1c8782e31", 5),
}


@pytest.mark.parametrize("options", sorted(_SCAN_DIGESTS), ids=lambda o: " ".join(o) or "defaults")
def test_charge_scan_bytes_are_pinned(capsys, tmp_path, options):
    digest, rows = _SCAN_DIGESTS[options]
    code, out, _ = run(capsys, "charge", "scan", *options)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest
    target = tmp_path / "scan.csv"
    code, out, _ = run(capsys, "charge", "scan", *options, "--out", str(target))
    assert (code, out) == (0, f"wrote {target} ({rows} rows)\n")
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


def test_charge_scan_replaces_its_file_atomically(capsys, tmp_path, monkeypatch):
    # the new CSV goes to a temporary file first: if it cannot take the old
    # one's place, the old file is left whole and no temporary file stays
    target = tmp_path / "scan.csv"
    target.write_text("old\n")

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    code, out, err = run(capsys, "charge", "scan", "--out", str(target))
    assert code == 2 and err.startswith("error:") and len(err.splitlines()) == 1
    assert "wrote" not in out
    assert target.read_text() == "old\n" and list(tmp_path.iterdir()) == [target]


def test_walls_commands(capsys, tmp_path):
    code, out, _ = run(capsys, "walls", "theta-family", "--n", "3", "--b", "1")
    assert (code, out) == (0, "[-3,0,3]\n")

    code, out, _ = run(capsys, "walls", "chamber", "--n", "2", "--theta=-1,-1,7/2")
    assert (code, out) == (0, "C_P2  sigma=1/2 tau=1/2\n")

    target = tmp_path / "walls.json"
    code, out, _ = run(capsys, "walls", "enumerate", "--n", "2", "--out", str(target))
    assert code == 0 and f"wrote {target}" in out
    blob = load_json(str(target))
    assert len(blob["walls"]) == 13 and blob["class"] == [2, 5, 2]

    pic = tmp_path / "plane.svg"
    code, out, _ = run(capsys, "walls", "svg", "--n", "2", "--out", str(pic))
    assert code == 0
    assert pic.read_text().startswith("<svg ")


# ---------------------------------------------------------------------------
# module pipeline through files


def test_module_pipeline(capsys, tmp_path):
    pts = write_points(tmp_path / "pts.json", [(1, 0, 0), (0, 1, 0)])
    rep_file = tmp_path / "rep.json"
    code, out, _ = run(
        capsys, "module", "from-points", "--points", pts,
        "--construction", "ideal-A1", "--out", str(rep_file),
    )
    assert code == 0 and f"wrote {rep_file}" in out

    code, out, _ = run(capsys, "module", "check", "--in", str(rep_file))
    assert code == 0
    assert "relations OK" in out and "dims=(2, 5, 2)" in out

    jh_file = tmp_path / "jh.json"
    code, out, _ = run(
        capsys, "module", "jh", "--in", str(rep_file),
        "--theta=-2,0,2", "--exact", "--out", str(jh_file),
    )
    assert code == 0
    blob = load_json(str(jh_file))
    assert sorted(tuple(d) for d in blob["factor_dims"]) == [(0, 1, 0), (1, 2, 1), (1, 2, 1)]


def test_module_dual_and_tilt(capsys, tmp_path):
    pts = write_points(tmp_path / "pt.json", [(1, 2, 3)])
    rep_file = tmp_path / "point.json"
    run(capsys, "module", "from-points", "--points", pts,
        "--construction", "point", "--out", str(rep_file))

    dual_file = tmp_path / "dual.json"
    code, _, _ = run(capsys, "module", "dual", "--in", str(rep_file), "--out", str(dual_file))
    assert code == 0
    assert load_json(str(dual_file))["dims"] == [1, 2, 1]

    mid_file = tmp_path / "tilted.json"
    code, _, _ = run(capsys, "module", "tilt", "--in", str(rep_file), "--out", str(mid_file))
    assert code == 0
    mid = load_json(str(mid_file))
    assert mid["algebra"] == "Bprime" and mid["dims"] == [1, 1, 1]

    back_file = tmp_path / "back.json"
    code, _, _ = run(capsys, "module", "tilt", "--in", str(mid_file), "--out", str(back_file))
    assert code == 0
    assert load_json(str(back_file))["dims"] == [1, 2, 1]

    code, out, _ = run(capsys, "module", "hom", "--a", str(rep_file), "--b", str(rep_file))
    assert (code, out) == (0, "1\n")

    code, out, _ = run(capsys, "module", "iso", "--a", str(rep_file), "--b", str(back_file), "--exact")
    assert (code, out) == (0, "isomorphic (exact)\n")


#: SHA-256 of the files `module jh --out` and `module tilt --out` write for
#: the points (1,2,3), (2,-1,1), (3,1,-2): the factors of their ideal-A1
#: module at theta = (-3, 0, 3), the tilt of their B' module (the ideal-A1
#: module again) and the tilt of the ideal-A1 module.  A refactor of the
#: module algebra must leave these bytes as they are
_MODULE_OUT_DIGESTS = {
    ("jh", "ideal-A1", "--theta=-3,0,3"): "0a20e2ed10ccbd97fc511851a1513ab21b2ed931c57262428f63516b69eccbb4",
    ("tilt", "bprime"): "07d9843fcf5c6afc9cd9eeda38a9dd9e929cec641ba2e05bdcfde12d9c391bd8",
    ("tilt", "ideal-A1"): "508adf1ae693aac3ce134c9db9a5bf90937357b431b0276f4734303863216fff",
}


@pytest.mark.parametrize("argv", sorted(_MODULE_OUT_DIGESTS), ids=" ".join)
def test_module_jh_and_tilt_bytes_are_pinned(capsys, tmp_path, argv):
    command, construction, *rest = argv
    pts = write_points(tmp_path / "pts.json", [(1, 2, 3), (2, -1, 1), (3, 1, -2)])
    rep_file, out_file = tmp_path / "rep.json", tmp_path / "out.json"
    run(capsys, "module", "from-points", "--points", pts,
        "--construction", construction, "--out", str(rep_file))
    code, out, _ = run(capsys, "module", command, "--in", str(rep_file), *rest, "--out", str(out_file))
    assert (code, out) == (0, f"wrote {out_file}\n")
    digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
    assert digest == _MODULE_OUT_DIGESTS[argv]


def test_module_tilt_with_a_zero_middle_vertex(capsys, tmp_path):
    rep_file = tmp_path / "101.json"
    rep_file.write_text(json.dumps({"algebra": "B", "field": {"kind": "rational"},
                                    "dims": [1, 0, 1], "gamma": [[], [], []], "delta": [[], [], []]}))
    out_file = tmp_path / "tilted.json"
    code, _, _ = run(capsys, "module", "tilt", "--in", str(rep_file), "--out", str(out_file))
    assert code == 0 and load_json(str(out_file))["dims"] == [1, 1, 3]


def test_module_check_reports_violations(capsys, tmp_path):
    rep = module_point([1, 0, 0])
    bad_delta = [[list(r) for r in rep.delta_m(j)] for j in range(3)]
    bad_delta[1][0][0] = 7
    broken = modules.QuiverRep(rep.algebra, rep.field, rep.dims, rep.gamma, bad_delta)
    assert not modules.check_relations(broken)[0]
    bad_file = write_rep(tmp_path / "bad.json", broken)
    code, _, err = run(capsys, "module", "check", "--in", bad_file)
    assert code == 3
    assert "relations violated" in err


def delta0_gamma0(field):
    """The B-"module" of dims (1, 1, 1) with gamma_0 = delta_0 = [[1]] and
    every other arrow zero: delta_0 gamma_0 = 1 breaks delta_0 gamma_0 = 0."""
    one, zero = ((1,),), ((0,),)
    return modules.QuiverRep("B", field, (1, 1, 1), [one, zero, zero], [one, zero, zero])


def test_module_check_refuses_delta_i_gamma_i_over_gf2(capsys, tmp_path):
    # the diagonal pair of delta_j gamma_i + delta_i gamma_j is 2 delta_i
    # gamma_i, which vanishes mod 2: the check must test delta_i gamma_i
    path = write_rep(tmp_path / "gf2.json", delta0_gamma0(PrimeField(2)))
    code, out, err = run(capsys, "module", "check", "--in", path)
    assert (code, out, err) == (3, "", "relations violated at arrow pair (0, 0)\n")


@pytest.mark.parametrize("argv", [
    ["jh", "--in", "{f}", "--theta=-1,0,1"],
    ["dual", "--in", "{f}"],
    ["tilt", "--in", "{f}"],
    ["hom", "--a", "{f}", "--b", "{f}"],
    ["iso", "--a", "{f}", "--b", "{f}"],
], ids=lambda argv: argv[0])
def test_module_commands_check_relations_first(capsys, tmp_path, argv):
    path = write_rep(tmp_path / "bad.json", delta0_gamma0(QQ))
    code, out, err = run(capsys, "module", *(a.format(f=path) for a in argv))
    assert (code, out) == (3, "")
    assert err == "verification failed: relations violated at arrow pair (0, 0)\n"


def test_module_iso_exact_can_refuse(capsys, tmp_path):
    # Hom is one-dimensional (h = 1) but nowhere invertible; deg = 2, so the
    # 3^1 combinations over {0, 1, 2} decide it exactly.
    zero_g = [((0,),)] * 3
    a = modules.QuiverRep("B", QQ, (1, 1, 0), zero_g, [()] * 3)
    b = modules.QuiverRep("B", QQ, (1, 1, 0), [((1,),), ((0,),), ((0,),)], [()] * 3)
    fa, fb = write_rep(tmp_path / "a.json", a), write_rep(tmp_path / "b.json", b)
    for flags in ([], ["--exact"]):
        code, out, _ = run(capsys, "module", "iso", "--a", fa, "--b", fb, *flags)
        assert (code, out) == (0, "not isomorphic (exact)\n")
    # zero arrows against gamma_0 = I at dims (3, 3, 0): Hom is the free
    # f1 (h = 9, deg = 6) and 7^9 > 4096, so the search samples and the
    # negative verdict stays probabilistic: --exact must bail out
    eye = tuple(tuple(int(r == c) for c in range(3)) for r in range(3))
    zero = ((0,) * 3,) * 3
    a = modules.QuiverRep("B", QQ, (3, 3, 0), [zero] * 3, [()] * 3)
    b = modules.QuiverRep("B", QQ, (3, 3, 0), [eye, zero, zero], [()] * 3)
    assert len(modules.hom_space(a, b)) == 9
    fa, fb = write_rep(tmp_path / "a3.json", a), write_rep(tmp_path / "b3.json", b)
    code, out, _ = run(capsys, "module", "iso", "--a", fa, "--b", fb)
    assert code == 0 and out.startswith("not isomorphic (probabilistic")
    code, _, err = run(capsys, "module", "iso", "--a", fa, "--b", fb, "--exact")
    assert code == 4
    assert err.startswith("incomplete:")


# ---------------------------------------------------------------------------
# hilbert report and selftest


def test_hilbert_report_command(capsys, tmp_path):
    src = tmp_path / "configs.json"
    src.write_text(json.dumps({"configs": [[["1", "0", "0"]], {"points": [["0", "1", "5"]]}]}))
    out_file = tmp_path / "report.json"
    svg_file = tmp_path / "plane.svg"
    code, out, _ = run(
        capsys, "hilbert", "report", "--n", "1", "--points", str(src),
        "--out", str(out_file), "--svg", str(svg_file),
    )
    assert code == 0
    assert f"wrote {out_file}" in out and f"wrote {svg_file}" in out
    report = load_json(str(out_file))
    assert len(report["configurations"]) == 2
    assert report["configurations"][0]["zeta"]["skipped"] is True
    assert svg_file.read_text().startswith("<svg ")

    # single-configuration shorthand on stdout
    single = tmp_path / "single.json"
    write_points(single, [(1, 1, 1)])
    code, out, _ = run(capsys, "hilbert", "report", "--n", "1", "--points", str(single))
    assert code == 0
    assert json.loads(out)["n"] == 1

    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"something": []}))
    code, _, err = run(capsys, "hilbert", "report", "--n", "1", "--points", str(bare))
    assert code == 2 and err.startswith("error:")


def test_selftest_quick(capsys):
    code, out, _ = run(capsys, "selftest", "--level", "quick")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "6/6 criteria passed"
    assert all(line.startswith("PASS") for line in lines[:-1])


# ---------------------------------------------------------------------------
# failure modes


def test_bad_input_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "chern", "euler", "--a=1,0", "--b=1,0,0")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "walls", "chamber", "--n", "2", "--theta=1,1,1")
    assert code == 2 and "perpendicular" in err
    code, _, err = run(capsys, "charge", "sigma-b", "--b=2")
    assert code == 2 and "sigma_b" in err
    # unreadable JSON input files: malformed, missing, not UTF-8
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"points": [["1", "0", "0"]')
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    missing = str(tmp_path / "missing.json")
    out_file = str(tmp_path / "report.json")
    for path in (str(malformed), str(binary), missing):
        code, _, err = run(capsys, "hilbert", "report", "--n", "2",
                           "--points", path, "--out", out_file)
        assert code == 2 and err.startswith("error:")
        code, _, err = run(capsys, "module", "check", "--in", path)
        assert code == 2 and err.startswith("error:")
    # module files with a key missing or an entry that is not a rational
    good = modules.rep_to_json(module_point([1, 0, 0]))
    broken = [{k: v for k, v in good.items() if k != key}
              for key in ("gamma", "delta", "algebra")]
    broken.append({**good, "gamma": [["1/0"] + m[1:] for m in good["gamma"]]})
    # a field size or a dimension that is a boolean or not an integer
    broken += [{**good, "field": {"kind": "prime", "p": p}} for p in (2.9, True)]
    broken += [{**good, "dims": [d, 2, 1]} for d in (1.7, True)]
    # an arrow entry that is a boolean, not a number
    flagged = {"algebra": "B", "field": {"kind": "rational"}, "dims": [1, 1, 0],
               "gamma": [[True], [0], [0]], "delta": [[], [], []]}
    broken += [flagged, {**good, "delta": [[False] + m[1:] for m in good["delta"]]}]
    for k, blob in enumerate(broken):
        path = tmp_path / f"broken{k}.json"
        path.write_text(json.dumps(blob))
        code, _, err = run(capsys, "module", "check", "--in", str(path))
        assert code == 2 and err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
    flagged_file = tmp_path / "flagged.json"
    flagged_file.write_text(json.dumps(flagged))
    code, _, err = run(capsys, "module", "dual", "--in", str(flagged_file),
                       "--out", str(tmp_path / "flagged_dual.json"))
    assert code == 2 and err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "flagged_dual.json").exists()
    # point counts below zero or above the documented maximum
    for argv in (["walls", "enumerate", f"--n={cli.MAX_N + 1}"],
                 ["hilbert", "report", "--n=400", "--points", missing],
                 ["walls", "theta-family", "--n", "-2", "--b", "1/2"]):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error:") and "--n" in err
    # a scan longer than the documented maximum
    code, _, err = run(capsys, "charge", "scan", f"--steps={cli.MAX_STEPS + 1}",
                       "--out", str(tmp_path / "scan.csv"))
    assert code == 2 and err.startswith("error:") and "--steps" in err
    assert not (tmp_path / "scan.csv").exists()


def test_module_json_numbers_are_read_as_written(capsys, tmp_path):
    # integral values and integer strings are accepted (the rejected ones
    # are in test_bad_input_exits_2)
    empty = {"algebra": "B", "field": {"kind": "rational"}, "dims": [1, 0, 0],
             "gamma": [[], [], []], "delta": [[], [], []]}
    for k, blob in enumerate([{**empty, "field": {"kind": "prime", "p": "7"}},
                              {**empty, "dims": ["1", 0, 0]},
                              {**empty, "dims": [1.0, 0, 0]}]):
        path = tmp_path / f"good{k}.json"
        path.write_text(json.dumps(blob))
        code, _, _ = run(capsys, "module", "check", "--in", str(path))
        assert code == 0
    # the number 0.1 is 1/10, not its binary value
    tenth = tmp_path / "tenth.json"
    tenth.write_text('{"algebra": "B", "field": {"kind": "rational"}, "dims": [1, 1, 0],'
                     ' "gamma": [[0.1], [0], [0]], "delta": [[], [], []]}')
    dual_file = tmp_path / "tenth-dual.json"
    code, _, _ = run(capsys, "module", "dual", "--in", str(tenth), "--out", str(dual_file))
    assert code == 0
    assert load_json(str(dual_file))["delta"] == [["1/10"], ["0"], ["0"]]


def empty_module_file(path, dims):
    path.write_text(json.dumps({"algebra": "B", "field": {"kind": "rational"}, "dims": dims,
                                "gamma": [[], [], []], "delta": [[], [], []]}))
    return str(path)


@pytest.mark.parametrize("argv", [["check"], ["jh", "--theta=0,0,0"]], ids=lambda a: a[0])
def test_module_dimension_is_bounded(capsys, tmp_path, argv):
    # a dimension beside a zero one takes no entries in the file: 10^9 would
    # cost hours and hundreds of GB if it were built
    path = empty_module_file(tmp_path / "huge.json", [0, 0, 10**9])
    start = time.perf_counter()
    code, out, err = run(capsys, "module", *argv, "--in", path)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: module dimension 1000000000 is above the bound {modules.MAX_DIM}\n"


def test_module_dimension_bound_admits_the_modules_the_program_builds(capsys, tmp_path):
    path = empty_module_file(tmp_path / "at-bound.json", [0, 0, modules.MAX_DIM])
    code, _, _ = run(capsys, "module", "check", "--in", path)
    assert code == 0
    pts = [(k, k * k, 1) for k in range(cli.MAX_N)]  # on a conic, none collinear in threes
    out = tmp_path / "a1.json"
    code, _, _ = run(capsys, "module", "from-points", "--points",
                     write_points(tmp_path / "pts.json", pts), "--out", str(out))
    assert code == 0 and load_json(str(out))["dims"] == [30, 61, 30]
    code, _, _ = run(capsys, "module", "check", "--in", str(out))
    assert code == 0
    # a point more is refused before any module is built
    pts.append((cli.MAX_N, cli.MAX_N**2, 1))
    out = tmp_path / "refused.json"
    code, _, err = run(capsys, "module", "from-points", "--points",
                       write_points(tmp_path / "more.json", pts), "--out", str(out))
    assert (code, err) == (2, "error: a module is built from at most 30 points, not 31\n")
    assert not out.exists()


_MISSING_DIR_OUTPUTS = [
    ["hilbert", "report", "--n", "1", "--points", "{points}", "--out", "{missing}"],
    ["hilbert", "report", "--n", "1", "--points", "{points}", "--svg", "{missing}"],
    ["walls", "enumerate", "--n", "2", "--out", "{missing}"],
    ["walls", "svg", "--n", "2", "--out", "{missing}"],
    ["module", "jh", "--in", "{rep}", "--theta=-1,0,1", "--out", "{missing}"],
    ["module", "dual", "--in", "{rep}", "--out", "{missing}"],
    ["charge", "scan", "--steps", "3", "--out", "{missing}"],
]
_NOT_A_CONFIGS_LIST = [{"configs": 5}, {"configs": None}, {"configs": "[]"}, 5, "configs"]


@pytest.mark.parametrize("argv,blob,message", (
    [(argv, None, "cannot write") for argv in _MISSING_DIR_OUTPUTS]
    + [(["hilbert", "report", "--n", "1", "--points", "{blob}"], blob, "configs")
       for blob in _NOT_A_CONFIGS_LIST]
    # only an in-process main(argv) can pass a NUL byte; a shell cannot
    + [([{"{missing}": "{nul}"}.get(a, a) for a in argv], None, "null byte")
       for argv in _MISSING_DIR_OUTPUTS
       + [["module", "from-points", "--points", "{points}", "--out", "{missing}"]]]
))
def test_hostile_files_exit_2(capsys, tmp_path, argv, blob, message):
    blob_file = tmp_path / "blob.json"
    blob_file.write_text(json.dumps(blob))
    files = {
        "{points}": write_points(tmp_path / "pts.json", [(1, 2, 3)]),
        "{rep}": write_rep(tmp_path / "rep.json", module_point([1, 2, 3])),
        "{missing}": str(tmp_path / "no-such-dir" / "out"),
        "{nul}": str(tmp_path / "out\0.json"),
        "{blob}": str(blob_file),
    }
    code, out, err = run(capsys, *(files.get(a, a) for a in argv))
    assert code == 2 and err.startswith("error:") and message in err
    assert len(err.strip().splitlines()) == 1 and "wrote" not in out


@pytest.mark.parametrize("argv", [
    ["charge", "abc", "--b=--"],
    ["chern", "euler", "--a=--", "--b=1,0,0"],
    ["walls", "enumerate", "--n=--"],
    ["module", "check", "--in=--"],
    ["charge", "scan", "--steps=--"],
    ["walls", "svg", "--n", "2", "--out=--"],
    ["hilbert", "report", "--n", "2", "--points=--"],
], ids=" ".join)
def test_a_double_dash_value_exits_2(capsys, tmp_path, monkeypatch, argv):
    # argparse reads `--opt=--` as an empty list before Python 3.13 and as
    # "--" from 3.13 on; either way it is refused, and no file "--" is written
    monkeypatch.chdir(tmp_path)
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # 3.13 converts "--" with an int option's type
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert list(tmp_path.iterdir()) == []


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["chern", "frobnicate"])
    assert info.value.code == 2
    capsys.readouterr()


_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not 0 < _INT_DIGITS < 5000, reason="no integer-string limit below 5000 digits")
@pytest.mark.parametrize("argv,blob", [
    (["hilbert", "report", "--n", "1", "--points"], '{"points": [[%s, 2, 3]]}'),
    (["module", "check", "--in"], '{"algebra": "B", "field": {"kind": "rational"}, "dims": [1, 1, 0],'
                                  ' "gamma": [[%s], [0], [0]], "delta": [[], [], []]}'),
])
def test_overlong_json_number_exits_2(capsys, tmp_path, argv, blob):
    # json.load turns a number past the interpreter's digit limit into a
    # plain ValueError, which is invalid input like any other bad JSON
    path = tmp_path / "long.json"
    path.write_text(blob % ("1" * 5000))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and err.startswith("error: cannot read JSON") and out == ""
    assert len(err.strip().splitlines()) == 1


_EXPONENT_MODULE = ('{"algebra": "B", "field": {"kind": "rational"}, "dims": [1, 1, 0],'
                    ' "gamma": [["%s"], [0], [0]], "delta": [[], [], []]}')


@pytest.mark.skipif(not 0 < _INT_DIGITS < 5000, reason="no integer-string limit below 5000 digits")
@pytest.mark.parametrize("argv,blob", [
    (["hilbert", "report", "--n", "2", "--out", "{out}", "--points"],
     '{"points": [[1e100000000, 1, 1], [1, 2, 3]]}'),
    (["walls", "theta-family", "--n", "2", "--b", "1e100000000"], None),
    (["module", "check", "--in"], _EXPONENT_MODULE % "1e100000000"),
    # 10^5000 has more digits than an integer may be written with
    (["module", "check", "--in"], _EXPONENT_MODULE % "1e5000"),
    (["module", "dual", "--in"], _EXPONENT_MODULE % "1e5000"),
    # a long decimal without an exponent is refused in time linear in its length
    (["hilbert", "report", "--n", "2", "--out", "{out}", "--points"],
     '{"points": [[%s.5, 1, 1], [1, 2, 3]]}' % ("1" * 200000)),
    (["walls", "theta-family", "--n", "2", "--b", "1" * 200000 + ".5"], None),
    (["module", "check", "--in"], _EXPONENT_MODULE % ("1" * 200000 + ".5")),
    # each coordinate is within the limit, the point's primitive integer
    # representative (10^8598 : 1 : 10^4299) is not
    (["hilbert", "report", "--n", "2", "--out", "{out}", "--points"],
     '{"points": [["1e%d", "1e-%d", "1"], [1, 2, 3]]}' % ((_INT_DIGITS - 1,) * 2)),
    (["module", "from-points", "--points"], '{"points": [["1e%d", "1e-%d", "1"]]}' % ((_INT_DIGITS - 1,) * 2)),
])
def test_a_rational_past_the_digit_limit_exits_2_at_once(capsys, tmp_path, argv, blob):
    # Fraction("1e100000000") alone builds 10^100000000, for seconds
    if blob is not None:
        path = tmp_path / "exp.json"
        path.write_text(blob)
        argv = argv + [str(path)]
    argv = [str(tmp_path / "out.json") if a == "{out}" else a for a in argv]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 5.0
    assert code == 2 and out == "" and err.startswith("error:") and "digits" in err
    assert len(err.strip().splitlines()) == 1 and "set_int_max_str_digits" not in err
    assert not (tmp_path / "out.json").exists()


# the point module of (1:2:3) with every arrow scaled by 10^4000: its
# tilt's gammas are products of two arrows, 10^8000 and more
_SCALED_POINT_MODULE = json.dumps({
    "algebra": "B", "field": {"kind": "rational"}, "dims": [1, 2, 1],
    "gamma": [["-2e4000", "-3e4000"], ["1e4000", "0"], ["0", "1e4000"]],
    "delta": [["3e4000", "-2e4000"], ["0", "1e4000"], ["-1e4000", "0"]],
})


@pytest.mark.skipif(not 0 < _INT_DIGITS < 5000, reason="no integer-string limit below 5000 digits")
@pytest.mark.parametrize("argv,blob", [
    (["chern", "euler", "--a=1e4000,0,0", "--b=1e4000,0,0"], None),
    (["chern", "bogomolov", "--ch=0,1e3000,0"], None),
    (["charge", "eval", "--ch=1e4000,0,0", "--b=1e1000", "--t2=1"], None),
    (["charge", "scan", "--ch=1e4000,0,0", "--b-start=1e1000", "--b-end=2e1000", "--t2=1",
      "--steps", "2", "--out", "{out}"], None),
    (["walls", "theta-family", "--n", "30", "--b", f"9e{_INT_DIGITS - 1}"], None),
    (["module", "tilt", "--out", "{out}", "--in"], _SCALED_POINT_MODULE),
], ids=["chern-euler", "chern-bogomolov", "charge-eval", "charge-scan", "walls-theta-family",
        "module-tilt"])
def test_a_result_past_the_digit_limit_exits_2(capsys, tmp_path, argv, blob):
    # every input is within the limit; the result computed from it is not,
    # and cannot be written
    if blob is not None:
        path = tmp_path / "in.json"
        path.write_text(blob)
        argv = argv + [str(path)]
    argv = [str(tmp_path / "out.json") if a == "{out}" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and len(err.strip().splitlines()) == 1
    assert err.startswith(f"error: a result has more than {_INT_DIGITS} digits")
    assert not (tmp_path / "out.json").exists()


@pytest.mark.skipif(not 0 < _INT_DIGITS, reason="no integer-string limit")
def test_format_fraction_writes_every_number_within_the_limit():
    assert format_fraction(10 ** (_INT_DIGITS - 1)) == "1" + "0" * (_INT_DIGITS - 1)
    assert format_fraction(Fraction(-1, 10 ** (_INT_DIGITS - 1))) == "-1/1" + "0" * (_INT_DIGITS - 1)
    for x in (10 ** _INT_DIGITS, Fraction(1, 10 ** _INT_DIGITS)):
        with pytest.raises(InputError):
            format_fraction(x)
    # a module's JSON and a payload's rationals are written the same way
    with pytest.raises(InputError):
        modules.rep_to_json(modules.QuiverRep("B", QQ, (1, 1, 0), [[[10 ** _INT_DIGITS]]] * 3, [[]] * 3))
    with pytest.raises(InputError):
        dumps_json({"x": Fraction(1, 10 ** _INT_DIGITS)})


def test_rationals_are_read_as_before():
    cases = {"3": Fraction(3), "-2/7": Fraction(-2, 7), "0.1": Fraction(1, 10),
             "1e3": Fraction(1000), "1E-2": Fraction(1, 100), " 5 ": Fraction(5)}
    F11 = PrimeField(11)
    for s, want in cases.items():
        assert parse_fraction(s) == want
        assert QQ.convert(s) == want and F11.convert(s) == F11.convert(want)
        assert PointConfig.from_json({"points": [[s, 1, 1]]}).points[0][0] == want
    if 0 < _INT_DIGITS:  # the largest exponents within the limit, either way
        assert parse_fraction(f"1e{_INT_DIGITS - 1}") == 10 ** (_INT_DIGITS - 1)
        assert parse_fraction(f"1e-{_INT_DIGITS - 1}") == Fraction(1, 10 ** (_INT_DIGITS - 1))
        for s in (f"1e{_INT_DIGITS}", f"1e-{_INT_DIGITS}", f"0.5e-{_INT_DIGITS}"):
            with pytest.raises(InputError):
                parse_fraction(s)


def zero_module_file(path, dims):
    n0, n1, n2 = dims
    path.write_text(json.dumps({"algebra": "B", "field": {"kind": "rational"}, "dims": dims,
                                "gamma": [["0"] * (n0 * n1)] * 3,
                                "delta": [["0"] * (n1 * n2)] * 3}))
    return str(path)


@pytest.mark.parametrize("command", ["hom", "iso"])
def test_module_hom_and_iso_refuse_a_system_above_the_bound(capsys, tmp_path, command):
    # 12,288 unknowns in 24,576 equations: more than two minutes unbounded
    path = zero_module_file(tmp_path / "z64.json", [64, 64, 64])
    start = time.perf_counter()
    code, out, err = run(capsys, "module", command, "--a", path, "--b", path)
    assert time.perf_counter() - start < 5.0
    assert (code, out) == (2, "") and err.startswith("error: Hom of modules")
    assert len(err.strip().splitlines()) == 1


# ---------------------------------------------------------------------------
# main builds only the parsers of the command it runs; what argparse prints
# and the exit code must be those of the whole tree (`_parser()`)


def _subcommands(parser):
    """The subcommand parsers of an argparse parser, by name."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _exiting_argvs():
    tree = cli._parser()
    argvs = [[], ["--help"], ["frobnicate"], ["chern", "frobnicate"], ["-h", "hilbert", "report"],
             ["hilbert", "--help", "report"], ["selftest", "--level", "full", "extra"],
             ["chern", "bogomolov", "--ch", "1,0,0", "extra"],
             ["hilbert", "report", "--n", "2", "--points", "p.json", "extra", "--out", "o.json"],
             ["hilbert", "report", "--n", "two", "--points", "p.json"],
             ["walls", "enumerate", "--he", "A1"], ["module", "jh", "--in"]]
    for group, group_parser in _subcommands(tree).items():
        argvs.append([group, "--help"])
        leaves = _subcommands(group_parser) or {"": group_parser}
        if leaves.keys() != {""}:
            argvs.append([group])
        for leaf, leaf_parser in leaves.items():
            path = [group, leaf] if leaf else [group]
            argvs += [path + ["--help"], path + ["--bogus"]]
            if any(a.required for a in leaf_parser._actions):
                argvs.append(path)  # a required option is missing
    return argvs


@pytest.mark.parametrize("argv", _exiting_argvs(), ids=lambda argv: " ".join(argv) or "no-args")
def test_usage_output_is_the_whole_trees(argv):
    def outcome(parse):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as info:
                parse(list(argv))
        return info.value.code, out.getvalue(), err.getvalue()

    assert outcome(cli.main) == outcome(cli._parser().parse_args)


def test_a_command_builds_only_its_own_parsers(monkeypatch, capsys):
    built = []
    real = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run(capsys, "chern", "bogomolov", "--ch", "1,0,0")[0] == 0
    assert built == ["p2stab", "p2stab chern", "p2stab chern bogomolov"]
    built.clear()
    assert run(capsys, "selftest", "--level", "quick")[0] == 0
    assert built == ["p2stab", "p2stab selftest"]
    built.clear()
    cli._parser()
    whole = len(built)
    built.clear()
    with pytest.raises(SystemExit):
        cli.main(["chern"])  # a bare group: the whole tree tells what is missing
    capsys.readouterr()
    assert len(built) == whole > 20


# ---------------------------------------------------------------------------
# fuzzing the command line: every outcome is a documented exit code


_NUMBER_TEXT = st.one_of(
    st.integers(-3, 3).map(str),
    st.sampled_from(["1/2", "-2/3", "1/0", "0.5", "x", "", "1e400", "nan"]),
)
_TRIPLE_TEXT = st.one_of(
    st.sampled_from(["0,0,0", "1,-2,3", "-1,0,1"]),  # 0,0,0 vanishes on every class
    st.lists(_NUMBER_TEXT, min_size=2, max_size=4).map(",".join),
)


@st.composite
def module_blobs(draw):
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(3)]))
    dims = draw(st.tuples(*[st.integers(0, 2)] * 3))
    algebra = draw(st.sampled_from(["B", "Bprime"]))
    rep = random_rep(algebra, field, dims, random.Random(draw(st.integers(0, 99))))
    blob = modules.rep_to_json(rep)
    damage = draw(st.sampled_from(["none", "none", "drop", "entry", "dims", "field", "junk"]))
    if damage == "drop":
        del blob[draw(st.sampled_from(sorted(blob)))]
    elif damage == "entry" and any(blob["gamma"]):
        first = next(m for m in blob["gamma"] if m)
        first[0] = draw(_NUMBER_TEXT)
    elif damage == "dims":
        blob["dims"] = draw(st.lists(st.integers(-1, 3), min_size=2, max_size=4))
    elif damage == "field":
        blob["field"] = draw(st.sampled_from([{"kind": "prime", "p": 4}, {"kind": "prime"},
                                              {"kind": "prime", "p": -7}, {}, "QQ"]))
    elif damage == "junk":
        return draw(st.sampled_from([[], "module", 3, None, {"gamma": 1}]))
    return blob


@st.composite
def point_blobs(draw):
    coords = st.one_of(
        st.lists(st.integers(-3, 3).map(str), min_size=3, max_size=3),
        st.lists(_NUMBER_TEXT, min_size=2, max_size=4),
    )
    pts = draw(st.lists(coords, min_size=0, max_size=3))
    shape = draw(st.sampled_from(["points", "points", "configs", "junk"]))
    if shape == "points":
        return {"points": pts}
    if shape == "configs":
        return {"configs": [pts, {"points": pts}]}
    return draw(st.sampled_from([{}, [], {"points": 1}, {"configs": [1]}, "pts"]))


@st.composite
def argv_lists(draw, mod_a, mod_b, pts, out):
    t = draw(_TRIPLE_TEXT)
    n = draw(st.sampled_from(["-2", "0", "1", "31", "x"]))
    commands = [
        ["chern", "euler", f"--a={t}", f"--b={draw(_TRIPLE_TEXT)}"],
        ["chern", "dimvec", f"--ch={t}", "--heart", draw(st.sampled_from(["A1", "A0", "Z"]))],
        ["charge", "eval", f"--ch={t}", f"--b={draw(_NUMBER_TEXT)}"],
        ["charge", "sigma-b", f"--b={draw(_NUMBER_TEXT)}"],
        ["module", "check", "--in", mod_a],
        ["module", "jh", "--in", mod_a, f"--theta={t}"]
        + draw(st.sampled_from([[], ["--exact"]])),
        ["module", "dual", "--in", mod_a, "--out", out],
        ["module", "tilt", "--in", mod_a],
        ["module", "hom", "--a", mod_a, "--b", mod_b],
        ["module", "iso", "--a", mod_a, "--b", mod_b] + draw(st.sampled_from([[], ["--exact"]])),
        ["module", "from-points", "--points", pts, "--construction",
         draw(st.sampled_from(["point", "ideal-A1", "ideal-A0", "bprime"]))],
        ["walls", "chamber", f"--n={n}", f"--theta={t}"],
        ["walls", "theta-family", f"--n={n}", f"--b={draw(_NUMBER_TEXT)}"],
        ["hilbert", "report", f"--n={draw(st.sampled_from(['-1', '0', '1', '31']))}",
         "--points", pts, "--out", out],
        draw(st.lists(st.sampled_from(["module", "jh", "--n", "-1", "--in", "walls", "x"]),
                      max_size=4)),
    ]
    return draw(st.sampled_from(commands))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_cli_fuzz_exits_with_a_documented_code(data):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, blobs in (("a", module_blobs()), ("b", module_blobs()), ("p", point_blobs())):
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(data.draw(blobs), fh)
        argv = data.draw(argv_lists(paths["a"], paths["b"], paths["p"],
                                    os.path.join(tmp, "out.json")))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the flags
                code = exc.code
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
