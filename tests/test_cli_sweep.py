"""The exit-code contract under hostile option values, swept
deterministically: every option value of every ``$ p2stab …`` line of the
README tour, and of one valid call of each command the tour does not run,
is replaced by each token of a fixed list, and each case runs
through ``cli.main`` in process.  A case may exit 0, 2, 3 or 4 and nothing
else; no exception but ``SystemExit`` leaves ``main``, no traceback is
written, and a nonzero exit writes exactly one ``error:``,
``incomplete:`` or ``verification failed:`` line.  Standard library only."""

import contextlib
import io
import shlex
import signal
import sys
from pathlib import Path

import pytest

from p2stab import cli
from test_readme import shell_sessions

#: what replaces a value: empty and blank, the option terminator, rationals
#: that are no numbers, overflowing floats, a number one digit past the
#: interpreter's default limit, digits that are not ASCII, the wrong number
#: of components, a NUL byte, and words where numbers belong
TOKENS = (
    "", " ", "--", "-", "1/0", "0/0", "nan", "inf", "-inf", "1e309", "-1e309",
    "1e-309", "1" * 4301, "٣", "²", "1,2", "1,2,3,4", ",,", "1,,2,3",
    "0", "-1", "31", "x", "\0", "a\0b", "1_0", "0x10", "True", "1e4300",
)

#: seconds a case may run before it counts as a hang
ALARM_S = 8

#: the lines of a nonzero exit that say why it ended
ENDINGS = ("error:", "incomplete:", "verification failed:")


class Hang(Exception):
    pass


def _tour():
    """The tour's ``p2stab`` argvs in order, and the ``echo`` lines' files."""
    argvs, files = [], {}
    for command, _ in shell_sessions():
        argv = shlex.split(command)
        if argv[0] == "echo":
            files[argv[3]] = argv[1] + "\n"
        elif argv[1:4] != ["selftest", "--level", "full"]:
            argvs.append(argv[1:])
    return argvs, files


def mutations(argv):
    """``argv`` with one option value replaced by each token, written as
    ``--opt=TOKEN``, in order; a value with commas also has each of its
    components replaced alone."""
    for k, arg in enumerate(argv):
        if not arg.startswith("--"):
            continue
        if "=" in arg:
            flag, value = arg.split("=", 1)
            rest = argv[k + 1:]
        elif k + 1 < len(argv) and not argv[k + 1].startswith("--"):
            flag, value = arg, argv[k + 1]
            rest = argv[k + 2:]
        else:
            continue  # a flag without a value
        parts = value.split(",")
        values = list(TOKENS)
        if len(parts) > 1:
            values += [",".join(parts[:c] + [t] + parts[c + 1:])
                       for c in range(len(parts)) for t in TOKENS]
        for v in values:
            yield argv[:k] + [f"{flag}={v}"] + rest


def clear_memos():
    """Empty every functools cache of the program, as in a fresh process."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "p2stab" or name.startswith("p2stab.")):
            for value in vars(module).values():
                if hasattr(value, "cache_info") and hasattr(value, "cache_clear"):
                    value.cache_clear()


def _on_alarm(signum, frame):
    raise Hang()


def run_case(argv):
    """What is wrong with one run of ``argv``, or None: an exit code off the
    contract, an escaped exception, a traceback, a hang, or a nonzero exit
    without exactly one line that ends it."""
    clear_memos()
    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, ALARM_S)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors and help
                code = exc.code
    except Hang:
        return f"no exit within {ALARM_S} s"
    except Exception as exc:  # the contract says no exception escapes
        return f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    text = err.getvalue()
    if code not in (0, 2, 3, 4):
        return f"exit {code!r}"
    if "Traceback" in text:
        return "a traceback"
    endings = [line for line in text.splitlines() if any(e in line for e in ENDINGS)]
    if code and len(endings) != 1:
        return f"exit {code} with {len(endings)} ending lines"
    return None


TOUR, TOUR_FILES = _tour()

#: one valid call of each command the tour does not run, after the tour, on
#: the module file it writes
EXTRA = [
    ["chern", "mukai", "--a=1,0,0", "--b=1,1,1/2"],
    ["chern", "twist", "--ch=1,0,0", "--k", "2"],
    ["chern", "bogomolov", "--ch=2,1,0"],
    ["charge", "sigma-b", "--b=1/2"],
    ["charge", "hypotheses", "--ch=1,0,-2", "--b=1/2"],
    ["module", "dual", "--in", "rep.json", "--out", "dual.json"],
    ["module", "tilt", "--in", "rep.json", "--out", "tilted.json"],
    ["module", "hom", "--a", "rep.json", "--b", "rep.json"],
    ["module", "iso", "--a", "rep.json", "--b", "rep.json"],
    ["selftest", "--level", "quick"],
]

#: every argv the sweep mutates
CORPUS = TOUR + EXTRA


@pytest.fixture(scope="module")
def tour_dir(tmp_path_factory):
    """A directory holding every file the tour writes or reads."""
    where = tmp_path_factory.mktemp("tour")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(where)
        for name, text in TOUR_FILES.items():
            Path(name).write_text(text)
        for argv in CORPUS:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
    return where


def test_the_sweep_mutates_every_option_value():
    argv = ["chern", "euler", "--a=1,0,0", "--b", "1,1,1/2", "--exact", "--out", "x"]
    cases = list(mutations(argv))
    per_value = len(TOKENS) * 4  # the whole value, and each of three components
    assert len(cases) == 2 * per_value + len(TOKENS)
    assert cases[0] == ["chern", "euler", "--a=", "--b", "1,1,1/2", "--exact", "--out", "x"]
    assert ["chern", "euler", "--a=1,0,0", "--b=1,--,1/2", "--exact", "--out", "x"] in cases
    assert cases[-1] == argv[:-2] + [f"--out={TOKENS[-1]}"]
    assert len(TOUR) >= 12 and all(argv[0] != "selftest" for argv in TOUR)


def test_the_corpus_calls_every_command():
    called = {tuple(argv[:2]) for argv in CORPUS} | {(argv[0],) for argv in CORPUS}
    for group, entry in cli.COMMANDS.items():
        names = [(group,)] if isinstance(entry, cli._Command) else [
            (group, name) for name in entry[1]]
        assert set(names) <= called, group


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no interval timer")
def test_the_case_runner_sees_a_broken_contract(monkeypatch):
    euler = ["chern", "euler", "--a=1,0,0", "--b=1,0,0"]
    assert run_case(euler) is None
    assert run_case(["chern", "euler", "--a=1,0,0", "--b=1,0"]) is None  # one error line
    assert run_case(["chern", "euler", "--a=1,0,0"]) is None  # argparse's usage error

    def crash(args):
        raise ZeroDivisionError("boom")

    def two_lines(args):
        print("error: one\nerror: two", file=sys.stderr)
        return 2

    def spin(args):
        while True:
            pass

    monkeypatch.setattr(sys.modules[__name__], "ALARM_S", 0.05)
    for func, wrong in ((crash, "ZeroDivisionError: boom"), (lambda args: 1, "exit 1"),
                        (two_lines, "exit 2 with 2 ending lines"),
                        (spin, "no exit within 0.05 s")):
        monkeypatch.setitem(cli.COMMANDS["chern"][1], "euler",
                            cli.COMMANDS["chern"][1]["euler"]._replace(func=func))
        assert run_case(euler) == wrong


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no interval timer")
@pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
def test_hostile_option_values_keep_the_exit_code_contract(monkeypatch, tour_dir, argv):
    monkeypatch.chdir(tour_dir)
    kept = {p: p.read_bytes() for p in tour_dir.iterdir()}
    failures = []
    for case in mutations(argv):
        wrong = run_case(case)
        if wrong:
            failures.append((case, wrong))
        for path, data in kept.items():  # a case may write over a tour file
            if path.read_bytes() != data:
                path.write_bytes(data)
    assert failures == []
