"""The README's examples, run as written: every ``$ p2stab …`` line of its
``sh`` blocks through ``cli.main`` in a fresh directory, its stdout against
the lines printed below it, and the "Library use" block against its
``# …`` comments."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from p2stab import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def blocks(language: str):
    """The bodies of the README's fenced blocks in ``language``, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)


def shell_sessions():
    """(command, expected stdout lines) for each ``$ `` line of the ``sh``
    blocks; the lines up to the next ``$ `` line or the end of the block are
    its output."""
    sessions = []
    for body in blocks("sh"):
        current = None  # lines before a block's first prompt are no output
        for line in body.splitlines():
            if line.startswith("$ "):
                current = (line[2:], [])
                sessions.append(current)
            elif current is not None:
                current[1].append(line)
    return sessions


def test_the_tour_is_read_as_a_list_of_commands():
    sessions = shell_sessions()
    commands = [c for c, _ in sessions]
    assert commands[0] == "p2stab chern euler --a=1,0,0 --b=1,1,1/2"
    assert sum(c.startswith("echo ") for c in commands) == 2
    assert dict(sessions)["p2stab chern euler --a=1,0,0 --b=1,1,1/2"] == ["3"]
    # the install block's lines carry no prompt, so none of them runs
    assert not any("pip" in c or "selftest" in c for c in commands)


def test_the_readme_tour_prints_what_it_shows(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    for command, expected in shell_sessions():
        argv = shlex.split(command)
        if argv[0] == "echo":
            text, redirect, target = argv[1:]
            assert redirect == ">", command
            Path(target).write_text(text + "\n")
            assert expected == [], command
            continue
        assert argv[0] == "p2stab", command
        code = cli.main(argv[1:])
        out = capsys.readouterr().out
        assert (code, out.splitlines()) == (0, expected), command


def test_the_library_example_prints_its_comments():
    (body,) = [b for b in blocks("python") if "from p2stab import" in b]
    expected = [line[2:] for line in body.splitlines() if line.startswith("# ")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(body, "README.md", "exec"), {})
    assert expected and out.getvalue().splitlines() == expected
