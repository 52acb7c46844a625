"""Serialization helpers shared by the CLI and the report writers.

All file output is deterministic: JSON with sorted keys, LF line endings,
rationals rendered as "p/q" strings, atomic replace-on-write, and no
timestamps anywhere.
"""
from __future__ import annotations

import json
import os
import re
import sys
import tempfile
from fractions import Fraction
from typing import List, Optional, Sequence

from .errors import InputError

VERSION = "0.1.0"
TOOL = "p2stab"


#: a decimal as ``Fraction`` reads it: the digits before and after the
#: point, and the exponent.  Only the point opens the second group, so no
#: digit can go to either group and a failed match is linear in the input.
_DECIMAL_FORM = re.compile(r"\s*[-+]?([\d_]*)(?:\.([\d_]*))?(?:[eE]([-+]?[\d_]+))?\s*")


def parse_fraction(s: str) -> Fraction:
    """The rational a string writes, as ``Fraction`` reads it ("3", "-2/7",
    "0.1", "1e3").  Every rational that comes from outside the program is
    read here.  ``Fraction`` builds 10^e in full, so an exponent, a
    numerator or a denominator with more digits than the interpreter turns
    into or out of a string (`sys.get_int_max_str_digits`, 4,300 digits by
    default; 0 or an interpreter without it is no limit) is refused first,
    as invalid input."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    shown = repr(s) if len(s) <= 40 else f"{s[:20]!r}... ({len(s)} characters)"
    try:
        m = _DECIMAL_FORM.fullmatch(s)
        if m and limit:
            whole, frac, exp = (t.replace("_", "") for t in m.groups(""))
            shift = int(exp or "0") - len(frac)  # int() refuses an exponent past the limit
            if max(len((whole + frac).lstrip("0")) + shift, 1 - shift) > limit:
                raise InputError(f"{shown} has more than {limit} digits")
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational number: {shown}") from exc


def parse_json_int(x) -> int:
    """An integer field of a JSON input: an integer, a number with an
    integral value or an integer string; a boolean or a non-integral
    value is invalid input."""
    if isinstance(x, str):
        try:
            return int(x)
        except ValueError as exc:
            raise InputError(f"not an integer: {x!r}") from exc
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)) or x.denominator != 1:
        raise InputError(f"not an integer: {x}")
    return int(x)


def parse_triple(s: str) -> List[Fraction]:
    parts = [p for p in s.replace(" ", "").split(",") if p != ""]
    if len(parts) != 3:
        raise InputError(f"expected three comma-separated rationals, got {s!r}")
    return [parse_fraction(p) for p in parts]


def format_fraction(x) -> str:
    """A result's number as the program writes it: "p/q", or "p" for an
    integer.  Every number the program computes is written here.  A result
    whose numerator or denominator has more digits than the interpreter
    turns into a string (`sys.get_int_max_str_digits`) cannot be written,
    so the input that gave it is refused, as invalid input."""
    x = Fraction(x)
    try:
        return str(x)
    except ValueError as exc:  # the interpreter's digit limit
        limit = sys.get_int_max_str_digits()
        raise InputError(f"a result has more than {limit} digits, the most that can be written") from exc


def format_vector(v: Sequence) -> str:
    """Compact bracketed form used on stdout: [a,b,c] with no spaces."""
    return "[" + ",".join(format_fraction(x) for x in v) + "]"


def _json_default(obj):
    """What the encoder writes for a value JSON has no form for: a Fraction
    as its "p/q" string; anything else is an error."""
    if isinstance(obj, Fraction):
        return format_fraction(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def json_meta() -> dict:
    """Every JSON output's ``meta``; ``seed`` is the fixed seed of the
    submodule search's random spans (`quiver._u1_candidates`)."""
    return {"seed": 0, "tool": TOOL, "version": VERSION}


def dumps_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False, default=_json_default) + "\n"


def dump_json(path: Optional[str], obj) -> str:
    """Serialize; if path is given, write atomically (temp file + rename)."""
    text = dumps_json(obj)
    if path is not None:
        write_text_atomic(path, text)
    return text


def write_text_atomic(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_json(path: str) -> dict:
    """Parse a JSON file, reading each number exactly as written: ``0.1``
    is the rational 1/10, not the nearest binary float (`parse_fraction`)."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_float=parse_fraction)
