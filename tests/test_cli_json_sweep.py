"""The exit-code contract under malformed JSON input files, swept
deterministically: each input file of a fixed set (a points file, a
``configs`` file and module files over Q and GF(p)) is mutated by dropping
a key, swapping a value for one of another JSON type, duplicating or
deleting a list entry, or cutting the text short, and each mutation runs
through ``cli.main`` in process with the commands that read that file.
Every case must keep the contract `test_cli_sweep.run_case` checks: exit
0, 2, 3 or 4, and a nonzero exit with exactly one ``error:``,
``incomplete:`` or ``verification failed:`` line.  Standard library only."""

import copy
import json
import random
import signal
from pathlib import Path

import pytest

from p2stab import cli, modules
from p2stab.geometry import module_point
from p2stab.linalg import PrimeField
from p2stab.modules import random_rep
from test_cli_sweep import run_case

#: what a value is swapped for: one value of each JSON type
SWAPS = (None, True, 0, -1, 1.5, "x", [], {})

_POINTS = [["1", "2", "3"], ["2", "-1", "1"]]

#: (name, document, the argvs that read it), ``{}`` standing for the file's
#: path
INPUTS = (
    ("points", {"points": _POINTS},
     (["hilbert", "report", "--n", "2", "--points", "{}"],
      ["module", "from-points", "--points", "{}"])),
    ("configs", {"configs": [{"points": _POINTS}, [["1", "0", "0"], ["0", "1", "1"]]]},
     (["hilbert", "report", "--n", "2", "--points", "{}"],)),
    ("module over Q", modules.rep_to_json(module_point((1, 2, 3))),
     (["module", "jh", "--in", "{}", "--theta=-3,1,1"],)),
    ("module over GF(3)",
     modules.rep_to_json(random_rep("Bprime", PrimeField(3), (1, 2, 1), random.Random(0))),
     (["module", "jh", "--in", "{}", "--theta=-3,1,1"],)),
)


def _nodes(node, path=()):
    """(path, value) of every value of a JSON document, the root first."""
    yield path, node
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _nodes(child, path + (key,))
    elif isinstance(node, list):
        for k, child in enumerate(node):
            yield from _nodes(child, path + (k,))


def _edit(doc, path, edit):
    """A deep copy of ``doc`` with edit(parent, key) applied at ``path``."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    edit(parent, path[-1])
    return doc


def mutations(doc):
    """The texts of the mutated documents, in order: each key dropped, each
    value swapped for each of `SWAPS` of another type, each list entry
    duplicated and deleted, then every proper prefix of the text."""
    for path, node in _nodes(doc):
        if isinstance(node, dict):
            for key in node:
                yield json.dumps(_edit(doc, path + (key,), lambda p, k: p.pop(k)))
        for swap in SWAPS:
            if type(swap) is not type(node):
                if path:
                    yield json.dumps(_edit(doc, path, lambda p, k: p.__setitem__(k, swap)))
                else:
                    yield json.dumps(swap)
        if isinstance(node, list):
            for k in range(len(node)):
                yield json.dumps(_edit(doc, path + (k,), lambda p, k: p.insert(k, p[k])))
                yield json.dumps(_edit(doc, path + (k,), lambda p, k: p.pop(k)))
    text = json.dumps(doc)
    yield from (text[:k] for k in range(len(text)))


def sweep(doc, argvs, path):
    """The (argv, text, what is wrong) of each mutation of ``doc``, written
    to ``path``, that breaks the contract under one of ``argvs``."""
    failures = []
    for text in mutations(doc):
        path.write_text(text)
        for argv in argvs:
            case = [str(path) if a == "{}" else a for a in argv]
            wrong = run_case(case)
            if wrong:
                failures.append((case, text, wrong))
    return failures


def test_the_mutations_cover_every_kind():
    doc = {"a": [1, "2"]}
    texts = list(mutations(doc))
    assert '{}' in texts  # "a" dropped
    assert '{"a": null}' in texts and '{"a": [1, {}]}' in texts and "[]" in texts
    assert '{"a": [1, 1, "2"]}' in texts and '{"a": ["2"]}' in texts
    text = json.dumps(doc)
    assert texts[-len(text):] == [text[:k] for k in range(len(text))]
    # no swap for a value of the same type, and no mutation left unchanged
    assert '{"a": [0, "2"]}' not in texts and text not in texts
    assert doc == {"a": [1, "2"]}


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no interval timer")
def test_the_sweep_sees_a_broken_contract(monkeypatch, tmp_path):
    # a module parser that lets a dropped key escape as KeyError, and a
    # reader that lets a cut text escape as JSONDecodeError
    _, doc, argvs = INPUTS[2]
    assert sweep(doc, argvs, tmp_path / "in.json") == []
    monkeypatch.setattr(modules, "rep_from_json", lambda obj: obj["dims"] and obj)
    wrong = {w.split(":")[0] for _, _, w in sweep(doc, argvs, tmp_path / "in.json")}
    assert "KeyError" in wrong
    monkeypatch.undo()
    monkeypatch.setattr(cli, "_read_json", lambda path: json.loads(Path(path).read_text()))
    wrong = {w.split(":")[0] for _, _, w in sweep(doc, argvs, tmp_path / "in.json")}
    assert "JSONDecodeError" in wrong


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no interval timer")
@pytest.mark.parametrize("name,doc,argvs", INPUTS, ids=[i[0] for i in INPUTS])
def test_malformed_json_keeps_the_exit_code_contract(tmp_path, name, doc, argvs):
    assert sweep(doc, argvs, tmp_path / "in.json") == []
