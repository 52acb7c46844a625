"""Command-line interface.

Subcommand groups mirror the library layout: ``chern`` for lattice
arithmetic, ``charge`` for central charges, ``module`` for quiver modules
(JSON in/out), ``walls`` for the weight-plane pictures, ``hilbert`` for
the configuration report, and ``selftest`` to run the acceptance battery.

Exit codes: 0 success, 2 invalid input, 3 verification failure, 4 when
``--exact`` demands a certificate the search cannot provide.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import sys
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import IncompleteOracleError, InputError, VerificationError
from . import io_utils
from .io_utils import (
    dump_json,
    format_fraction,
    format_vector,
    json_meta,
    load_json,
    parse_fraction,
    parse_triple,
)
from . import ktheory
from .ktheory import ChernCharacter, HeartBasis
from . import charge as charge_mod
from . import modules
from . import quiver
from . import geometry
from . import walls as walls_mod
from . import acceptance


#: the largest point count `--n` and `module from-points` accept: the walls
#: of the n-point class take about a second to enumerate at n = 30 and some
#: eight times longer at each doubling of n
MAX_N = 30

#: the most rows `charge scan --steps` accepts: a scan takes about 0.2 ms a
#: step and holds every row in memory until the CSV is written
MAX_STEPS = 10_000


def _read_json(path: str):
    """Load a JSON input file; a missing, unreadable or malformed file is
    invalid input (exit 2), not a crash."""
    try:
        return load_json(path)
    except (OSError, ValueError) as exc:  # ValueError: bad bytes, syntax, digit count
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


@contextlib.contextmanager
def _writing(path: str):
    """Around an output write: a path that cannot be written (a missing
    directory, a directory, no permission, a NUL byte) is invalid input
    (exit 2), not a crash."""
    try:
        yield
    except (OSError, ValueError) as exc:  # ValueError: an embedded null byte
        raise InputError(f"cannot write {path}: {exc}") from exc


def _chern_arg(s: str) -> ChernCharacter:
    t = parse_triple(s)
    return ChernCharacter(t[0], t[1], t[2])


def _emit(args, payload) -> None:
    out = getattr(args, "out", None)
    with _writing(out):
        text = dump_json(out, payload)
    if out is None:
        sys.stdout.write(text)
    else:
        print(f"wrote {args.out}")


# ---------------------------------------------------------------------------
# chern


def cmd_chern_euler(args) -> int:
    print(format_fraction(ktheory.euler_chi(parse_triple(args.a), parse_triple(args.b))))
    return 0


def cmd_chern_mukai(args) -> int:
    print(format_fraction(ktheory.mukai_pair(parse_triple(args.a), parse_triple(args.b))))
    return 0


def cmd_chern_twist(args) -> int:
    print(format_vector(ktheory.twist(_chern_arg(args.ch), args.k).triple()))
    return 0


def cmd_chern_dimvec(args) -> int:
    print(format_vector(ktheory.dimvec(_chern_arg(args.ch), HeartBasis.parse(args.heart))))
    return 0


def cmd_chern_bogomolov(args) -> int:
    print(format_fraction(ktheory.bogomolov(_chern_arg(args.ch))))
    return 0


def cmd_chern_expected_dim(args) -> int:
    print(format_fraction(ktheory.expected_dim(_chern_arg(args.ch))))
    return 0


# ---------------------------------------------------------------------------
# charge


def cmd_charge_eval(args) -> int:
    a = parse_triple(args.ch)
    b = parse_fraction(args.b)
    t2 = parse_fraction(args.t2) if args.t2 else b * (1 - b)
    if args.form == "cha":
        re, im = charge_mod.z_cha_form(a, b, t2)
    else:
        re, im = charge_mod.z_geometric(a, b, t2)
    print(f"re={format_fraction(re)} im_coeff={format_fraction(im)}")
    return 0


def cmd_charge_sigma_b(args) -> int:
    z = charge_mod.z_sigma_b(parse_fraction(args.b))
    print("; ".join(format_vector(v) for v in z.values))
    return 0


def cmd_charge_abc(args) -> int:
    z = charge_mod.z_sigma_b(parse_fraction(args.b))
    print(format_vector(charge_mod.geom_conditions_abc(z)))
    return 0


def cmd_charge_hypotheses(args) -> int:
    a = parse_triple(args.ch)
    b = parse_fraction(args.b)
    t2 = parse_fraction(args.t2) if args.t2 else b * (1 - b)
    rep = charge_mod.theorem1_hypotheses(a, b, t2)
    print(
        f"epsilon={format_fraction(rep['epsilon'])} re={format_fraction(rep['re'])} "
        f"range={'ok' if rep['ok_range'] else 'violated'} "
        f"t={'ok' if rep['ok_t'] else 'violated'} "
        f"re_sign={'ok' if rep['ok_re'] else 'violated'} "
        f"all={'ok' if rep['ok'] else 'violated'}"
    )
    return 0


def cmd_charge_verify_t(args) -> int:
    rep = charge_mod.verify_T_identity(parse_fraction(args.b))
    if rep["ok"]:
        print("OK (exact)")
        return 0
    print(
        f"FAILED: matrix_ok={rep['matrix_ok']} ox_ok={rep['ok']} at b={rep['b']}",
        file=sys.stderr,
    )
    return 3


def cmd_charge_scan(args) -> int:
    a = parse_triple(args.ch)
    b0 = parse_fraction(args.b_start)
    b1 = parse_fraction(args.b_end)
    steps = args.steps
    if steps < 2 or not b0 < b1:
        raise InputError("need b-start < b-end and at least 2 steps")
    if steps > MAX_STEPS:
        raise InputError(f"--steps must be at most {MAX_STEPS}")
    fixed_t2 = parse_fraction(args.t2) if args.t2 else None
    basis = [c.triple() for c in ktheory.A1.signed_basis()]
    text = io.StringIO()
    w = csv.writer(text, lineterminator="\n")
    w.writerow(["b", "t2", "epsilon", "reZ", "imZ_coeff", "abc_a", "abc_b", "abc_c", "hypotheses_ok"])
    for i in range(steps):
        b = b0 + (b1 - b0) * Fraction(i, steps - 1)
        t2 = b * (1 - b) if fixed_t2 is None else fixed_t2
        re, im = charge_mod.z_geometric(a, b, t2)
        abc = charge_mod.geom_conditions_abc(tuple(charge_mod.z_geometric(c, b, t2) for c in basis))
        hyp = charge_mod.theorem1_hypotheses(a, b, t2)
        w.writerow([format_fraction(x) for x in (b, t2, hyp["epsilon"], re, im, *abc)]
                   + ["true" if hyp["ok"] else "false"])
    if args.out:
        with _writing(args.out):
            io_utils.write_text_atomic(args.out, text.getvalue())
        print(f"wrote {args.out} ({steps} rows)")
    else:
        sys.stdout.write(text.getvalue())
    return 0


# ---------------------------------------------------------------------------
# module


def _load_rep(path: str) -> modules.QuiverRep:
    """The module of a JSON file, its relations checked (exit 3 if broken)."""
    return modules.require_relations(modules.rep_from_json(_read_json(path)))


def cmd_module_check(args) -> int:
    rep = modules.rep_from_json(_read_json(args.infile))
    ok, bad = modules.check_relations(rep)
    if ok:
        print(f"relations OK  algebra={rep.algebra} dims={rep.dims}")
        return 0
    print(f"relations violated at arrow pair {bad}", file=sys.stderr)
    return 3


def cmd_module_jh(args) -> int:
    rep = _load_rep(args.infile)
    theta = parse_triple(args.theta)
    factors = quiver.jh_factors(rep, theta, seed=args.seed)
    if args.exact:
        for f in factors:
            v = quiver.king_test(f, theta, seed=args.seed)
            if (v.verdict, v.certainty) != ("stable", "exact"):
                raise IncompleteOracleError(
                    f"factor of dims {f.dims}: {v.verdict} ({v.certainty}), "
                    f"search evidence '{v.search.evidence}'"
                )
    payload = {
        "meta": json_meta(args.seed),
        "theta": [format_fraction(x) for x in theta],
        "factor_dims": [list(f.dims) for f in factors],
        "factors": [modules.rep_to_json(f) for f in factors],
    }
    _emit(args, payload)
    return 0


def cmd_module_dual(args) -> int:
    rep = _load_rep(args.infile)
    _emit(args, modules.rep_to_json(modules.dualize(rep)))
    return 0


def cmd_module_tilt(args) -> int:
    rep = _load_rep(args.infile)
    if rep.algebra == "B":
        out = modules.tilt_B_to_Bprime(rep)
        flag = None
    else:
        out, flag = modules.tilt_Bprime_to_B(rep)
    payload = modules.rep_to_json(out)
    if flag:
        payload["flag"] = flag
    _emit(args, payload)
    return 0


def cmd_module_hom(args) -> int:
    a = _load_rep(args.a)
    b = _load_rep(args.b)
    print(len(modules.hom_space(a, b)))
    return 0


def cmd_module_iso(args) -> int:
    a = _load_rep(args.a)
    b = _load_rep(args.b)
    res = modules.iso_test(a, b, seed=args.seed)
    if args.exact and res.certainty != "exact":
        raise IncompleteOracleError(
            f"only a probabilistic verdict (failure bound {res.failure_bound})"
        )
    if res.isomorphic:
        print(f"isomorphic ({res.certainty})")
    elif res.certainty == "exact":
        print("not isomorphic (exact)")
    else:
        print(f"not isomorphic (probabilistic, failure bound <= {res.failure_bound:.3e})")
    return 0


def cmd_module_from_points(args) -> int:
    cfg = geometry.PointConfig.from_json(_read_json(args.points))
    if len(cfg) > MAX_N:
        # every module built from at most MAX_N points is within modules.MAX_DIM, so
        # every module command reads it; ideal-A1 of 32 points is not
        raise InputError(f"a module is built from at most {MAX_N} points, not {len(cfg)}")
    kind = args.construction
    if kind == "point":
        if len(cfg) != 1:
            raise InputError("construction 'point' needs exactly one point")
        rep = geometry.module_point(cfg.points[0])
    elif kind == "ideal-A1":
        rep = geometry.module_ideal_A1(cfg)
    elif kind == "ideal-A0":
        rep = geometry.module_ideal_A0(cfg)
    else:
        rep = geometry.bprime_module_points(cfg)
    _emit(args, modules.rep_to_json(rep))
    return 0


# ---------------------------------------------------------------------------
# walls


def cmd_walls_enumerate(args) -> int:
    _emit(args, walls_mod.walls_json(args.n, args.heart))
    return 0


def cmd_walls_theta_family(args) -> int:
    theta = walls_mod.family_theta(args.n, args.heart, parse_fraction(args.b))
    print(format_vector(theta))
    return 0


def cmd_walls_chamber(args) -> int:
    res = walls_mod.chamber_membership(parse_triple(args.theta), args.n, args.heart)
    line = f"{res.chamber}  sigma={format_fraction(res.sigma)} tau={format_fraction(res.tau)}"
    if res.blocking is not None:
        line += f"  blocked_by={format_vector(res.blocking.witness)}"
    print(line)
    return 0


def cmd_walls_svg(args) -> int:
    text = walls_mod.wall_svg(args.n, args.heart)
    with _writing(args.out):
        io_utils.write_text_atomic(args.out, text)
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# hilbert


def cmd_hilbert_report(args) -> int:
    obj = _read_json(args.points)
    if not isinstance(obj, dict):
        raise InputError("points file needs a 'configs' list or a 'points' array")
    if "configs" in obj:
        if not isinstance(obj["configs"], list):
            raise InputError("the points file's 'configs' must be a list")
        configs = [
            geometry.PointConfig.from_json(c if isinstance(c, dict) else {"points": c})
            for c in obj["configs"]
        ]
    elif "points" in obj:
        configs = [geometry.PointConfig.from_json(obj)]
    else:
        raise InputError("points file needs a 'configs' list or a 'points' array")
    eps = parse_fraction(args.eps) if args.eps else None
    report = walls_mod.hilbert_report(args.n, configs, seed=args.seed, eps=eps)
    if args.svg:
        with _writing(args.svg):
            io_utils.write_text_atomic(args.svg, walls_mod.wall_svg(args.n, "A1"))
    _emit(args, report)
    if args.svg:
        print(f"wrote {args.svg}")
    return 0


# ---------------------------------------------------------------------------
# selftest


def cmd_selftest(args) -> int:
    results = acceptance.run_all(args.level)
    for line in acceptance.format_results(results):
        print(line)
    return 0 if all(r.passed for r in results) else 3


# ---------------------------------------------------------------------------
# parser


class _Command(NamedTuple):
    """A leaf of the command tree: its help line, its handler, and its
    options as (flag, `add_argument` keywords) pairs."""

    help: str
    func: Callable[[argparse.Namespace], int]
    args: Tuple[Tuple[str, dict], ...]


def _arg(flag: str, **kwargs) -> Tuple[str, dict]:
    return flag, kwargs


#: every command, in the order help lists them: per group its help line and
#: its commands, or, for a group that is a command itself, that command
COMMANDS: Dict[str, Union[_Command, Tuple[str, Dict[str, _Command]]]] = {
    "chern": ("lattice arithmetic on character triples", {
        "euler": _Command("Euler pairing of two classes", cmd_chern_euler, (
            _arg("--a", required=True, metavar="r,d,s"),
            _arg("--b", required=True, metavar="r,d,s"),
        )),
        "mukai": _Command("symmetrized pairing of two classes", cmd_chern_mukai, (
            _arg("--a", required=True, metavar="r,d,s"),
            _arg("--b", required=True, metavar="r,d,s"),
        )),
        "twist": _Command("tensor by the k-th power of the polarization", cmd_chern_twist, (
            _arg("--ch", required=True, metavar="r,d,s"),
            _arg("--k", required=True, type=int),
        )),
        "dimvec": _Command("dimension vector of a class in a heart", cmd_chern_dimvec, (
            _arg("--ch", required=True, metavar="r,d,s"),
            _arg("--heart", default="A1"),
        )),
        "bogomolov": _Command("discriminant of a class", cmd_chern_bogomolov, (
            _arg("--ch", required=True, metavar="r,d,s"),
        )),
        "expected-dim": _Command("expected moduli dimension of a class", cmd_chern_expected_dim, (
            _arg("--ch", required=True, metavar="r,d,s"),
        )),
    }),
    "charge": ("central charges and their conditions", {
        "eval": _Command("evaluate the charge of a class", cmd_charge_eval, (
            _arg("--ch", required=True, metavar="r,d,s"),
            _arg("--b", required=True),
            _arg("--t2", default=None, help="defaults to b(1-b)"),
            _arg("--form", choices=("geometric", "cha"), default="geometric"),
        )),
        "sigma-b": _Command(
            "the three simple-object values of the b-family charge", cmd_charge_sigma_b,
            (_arg("--b", required=True),),
        ),
        "abc": _Command("the three positivity conditions at a parameter", cmd_charge_abc, (
            _arg("--b", required=True),
        )),
        "hypotheses": _Command(
            "check the main stability hypotheses for a class", cmd_charge_hypotheses, (
                _arg("--ch", required=True, metavar="r,d,s"),
                _arg("--b", required=True),
                _arg("--t2", default=None),
            ),
        ),
        "verify-T": _Command("verify the base-change matrix identity at b", cmd_charge_verify_t, (
            _arg("--b", required=True),
        )),
        "scan": _Command("CSV scan of charge data over a parameter range", cmd_charge_scan, (
            _arg("--ch", default="2,1,0", metavar="r,d,s"),
            _arg("--b-start", default="1/10"),
            _arg("--b-end", default="9/10"),
            _arg("--steps", type=int, default=17),
            _arg("--t2", default=None, help="fixed t2; defaults to b(1-b) pointwise"),
            _arg("--out", default=None),
        )),
    }),
    "module": ("quiver modules (JSON in and out)", {
        "check": _Command("validate shapes and relations", cmd_module_check, (
            _arg("--in", dest="infile", required=True),
        )),
        "jh": _Command("Jordan-Hoelder factors at a weight", cmd_module_jh, (
            _arg("--in", dest="infile", required=True),
            _arg("--theta", required=True, metavar="t0,t1,t2"),
            _arg("--seed", type=int, default=0),
            _arg("--exact", action="store_true", help="demand certified stable factors"),
            _arg("--out", default=None),
        )),
        "dual": _Command("the linear dual with reversed grading", cmd_module_dual, (
            _arg("--in", dest="infile", required=True),
            _arg("--out", default=None),
        )),
        "tilt": _Command("tilt between the two relation algebras", cmd_module_tilt, (
            _arg("--in", dest="infile", required=True),
            _arg("--out", default=None),
        )),
        "hom": _Command("dimension of the intertwiner space", cmd_module_hom, (
            _arg("--a", required=True),
            _arg("--b", required=True),
        )),
        "iso": _Command("isomorphy test", cmd_module_iso, (
            _arg("--a", required=True),
            _arg("--b", required=True),
            _arg("--seed", type=int, default=0),
            _arg("--exact", action="store_true"),
        )),
        "from-points": _Command(
            "build a module from a point configuration", cmd_module_from_points, (
                _arg("--points", required=True, help="JSON file with a 'points' array"),
                _arg("--construction", choices=("point", "ideal-A1", "ideal-A0", "bprime"),
                     default="ideal-A1"),
                _arg("--out", default=None),
            ),
        ),
    }),
    "walls": ("weight-plane walls and chambers", {
        "enumerate": _Command("numerical walls for the ideal-type class", cmd_walls_enumerate, (
            _arg("--n", type=int, required=True),
            _arg("--heart", default="A1", choices=walls_mod.HEARTS),
            _arg("--out", default=None),
        )),
        "theta-family": _Command("the weight family at a parameter", cmd_walls_theta_family, (
            _arg("--n", type=int, required=True),
            _arg("--b", required=True),
            _arg("--heart", default="A1", choices=walls_mod.HEARTS),
        )),
        "chamber": _Command("locate a weight in the chamber picture", cmd_walls_chamber, (
            _arg("--n", type=int, required=True),
            _arg("--heart", default="A1", choices=walls_mod.HEARTS),
            _arg("--theta", required=True, metavar="t0,t1,t2"),
        )),
        "svg": _Command("render the weight plane", cmd_walls_svg, (
            _arg("--n", type=int, required=True),
            _arg("--heart", default="A1", choices=walls_mod.HEARTS),
            _arg("--out", required=True),
        )),
    }),
    "hilbert": ("configuration stability report", {
        "report": _Command(
            "full three-chamber report for configurations", cmd_hilbert_report, (
                _arg("--n", type=int, required=True),
                _arg("--points", required=True, help="JSON with 'configs' or 'points'"),
                _arg("--eps", default=None),
                _arg("--seed", type=int, default=0),
                _arg("--out", default=None),
                _arg("--svg", default=None),
            ),
        ),
    }),
    "selftest": _Command("run the acceptance battery", cmd_selftest, (
        _arg("--level", choices=("quick", "full"), default="quick"),
    )),
}


def _subparsers(parser: argparse.ArgumentParser, dest: str, names, whole: bool):
    """The subcommand action of ``parser``.  In a parser built for one
    command (`_parser`) it holds that command alone, and its metavar names
    every command, as the whole tree's usage does."""
    if whole:
        return parser.add_subparsers(dest=dest, required=True)
    return parser.add_subparsers(dest=dest, required=True, metavar="{%s}" % ",".join(names))


def _add_command(sub, name: str, command: _Command) -> None:
    x = sub.add_parser(name, help=command.help)
    for flag, kwargs in command.args:
        x.add_argument(flag, **kwargs)
    x.set_defaults(func=command.func)


def _parser(path: Tuple[str, ...] = ()) -> argparse.ArgumentParser:
    """The parser of every command, or, for a ``path`` (group,) or
    (group, command) from `_command_path`, the chain top -> group -> command
    that parses that command's argv alike, help, usage errors and exit
    codes included."""
    p = argparse.ArgumentParser(prog="p2stab", description=__doc__)
    sub = _subparsers(p, "group", COMMANDS, not path)
    for group, entry in COMMANDS.items():
        if path and group != path[0]:
            continue
        if isinstance(entry, _Command):
            _add_command(sub, group, entry)
            continue
        help_line, commands = entry
        cs = _subparsers(sub.add_parser(group, help=help_line), "cmd", commands, not path)
        for name, command in commands.items():
            if not path or name == path[1]:
                _add_command(cs, name, command)
    return p


def _command_path(argv: Sequence[str]) -> Tuple[str, ...]:
    """The command that ``argv`` opens with, as (group,) or (group, command),
    or () when it names none (help, a typo, a bare group)."""
    entry = COMMANDS.get(argv[0]) if argv else None
    if isinstance(entry, _Command):
        return (argv[0],)
    if entry is not None and len(argv) > 1 and argv[1] in entry[1]:
        return (argv[0], argv[1])
    return ()


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parser(_command_path(argv)).parse_args(argv)
    try:
        # `--opt=--`: before Python 3.13 argparse stores an empty list and
        # never calls the option's type; 3.13 stores the string "--"
        if any(isinstance(v, list) or v == "--" for v in vars(args).values()):
            raise InputError("'--' is not an option value")
        if not 0 <= getattr(args, "n", 0) <= MAX_N:
            raise InputError(f"--n must be between 0 and {MAX_N}")
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IncompleteOracleError as exc:
        print(f"incomplete: {exc}", file=sys.stderr)
        return 4
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
