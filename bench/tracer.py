"""Per-layer trace of `p2stab`, recorded from outside the program.

The tracer rebinds module-level functions of the layer modules to timing
wrappers. A function is rebound under every name it has in every `p2stab`
module namespace, because modules import each other's functions by name
(`quiver` holds its own `rref` and `mat_vec`). Each call is a span with a
duration and a self time, the duration less the time of the traced calls
inside it. Spans of the coarse layers are kept in memory, one record each;
the elimination kernel is called millions of times per report, so only its
totals are kept.

Layer-2 work is counted from the public `SubmoduleSearch` results that
`submodule_dimvecs` returns, not from the enumeration's internals. A name
that a later version of the program renames or deletes leaves its metrics
"not measured" (None) instead of stopping the run.
"""
from __future__ import annotations

import re
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: (module, function, label, keep spans): the traced boundaries. One label may
#: cover several functions.
TARGETS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("walls", "hilbert_report", "walls.hilbert_report", True),
    ("geometry", "module_ideal_A1", "geometry.construct", True),
    ("geometry", "module_ideal_A0", "geometry.construct", True),
    ("geometry", "wall_filtration_data", "geometry.wall_filtration_data", True),
    ("quiver", "tilt_Bprime_to_B", "quiver.tilt", True),
    ("quiver", "tilt_B_to_Bprime", "quiver.tilt", True),
    ("quiver", "king_test", "quiver.king", True),
    ("quiver", "jh_factors", "quiver.jh", True),
    ("quiver", "quotient_by", "quiver.quotient_by", True),
    ("quiver", "iso_test", "quiver.iso", True),
    ("quiver", "submodule_dimvecs", "quiver.search", True),
    ("quiver", "_layer1", "quiver.layer1", True),
    ("quiver", "_layer2_dimvecs", "quiver.layer2", True),
    ("io_utils", "dump_json", "io_utils.dump_json", True),
    ("linalg", "rref", "linalg.rref", False),
    ("linalg", "mat_mul", "linalg.mat_mul", False),
    ("linalg", "mat_vec", "linalg.mat_vec", False),
    ("linalg", "reduce_vector", "linalg.reduce_vector", False),
    ("linalg", "right_kernel", "linalg.right_kernel", False),
)

EVIDENCE_KINDS = ("squeeze", "exhaustive", "cross-prime", "layer1-only")

_LAYER2 = re.compile(r"layer2\((?:mod |F_)(\d+)\)")
_PRIMES = re.compile(r"\d+")


def program_modules(package: str = "p2stab") -> list:
    """The loaded modules of the package, itself included."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def galois_number(n: int, q: int) -> int:
    """Number of subspaces of F_q^n, all dimensions."""
    total = 0
    for k in range(n + 1):
        num = den = 1
        for i in range(k):
            num *= q ** (n - i) - 1
            den *= q ** (i + 1) - 1
        total += num // den
    return total


def certified_primes(evidence: str) -> frozenset:
    """The primes whose enumeration a certificate rests on: the squeezing
    prime(s) and the field of an exhaustive search. Cross-prime agreement is
    not a proof (the mod-p set only bounds the true set from above), and a
    layer1-only search has no certificate."""
    if evidence.startswith(("squeeze", "exhaustive")):
        return frozenset(int(p) for p in _PRIMES.findall(evidence))
    return frozenset()


@dataclass
class Span:
    op: int
    label: str
    start: float
    end: float
    parent: Optional[int]


class Tracer:
    """Install with `install()`, run ops with `op` set, then `uninstall()`."""

    def __init__(self, package: str = "p2stab"):
        self.package = package
        self.op = 0
        self.spans: List[Span] = []
        self.totals: Dict[str, List[float]] = {}  # label -> [calls, total_s, self_s]
        self.missing: set = set()
        self.peels = 0
        self.report_bytes = 0
        self.searches: List = []
        self._seen: set = set()
        self._stack: List[list] = []  # [label, start, child_s, span index]
        self._patches: List[Tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        modules = program_modules(self.package)
        hooks = {
            "quiver.search": self._on_search,
            "quiver.quotient_by": self._on_quotient,
            "io_utils.dump_json": self._on_dump,
        }
        for modname, attr, label, keep in targets:
            self.totals.setdefault(label, [0, 0.0, 0.0])
            home = sys.modules.get(f"{self.package}.{modname}")
            original = getattr(home, attr, None) if home is not None else None
            if not callable(original):
                self.missing.add(label)
                continue
            wrapper = self._wrap(label, original, keep, hooks.get(label))
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)
                        self._patches.append((m, name, original))

    def uninstall(self) -> None:
        for m, name, original in reversed(self._patches):
            setattr(m, name, original)
        self._patches.clear()

    def _wrap(self, label: str, fn, keep: bool, hook):
        stack, totals, spans = self._stack, self.totals[label], self.spans
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [label, clock(), 0.0, None]
            if keep:
                frame[3] = len(spans)
                spans.append(Span(tracer.op, label, frame[1], frame[1],
                                  parent[3] if parent is not None else None))
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if keep:
                    spans[frame[3]].end = end
            if hook is not None:
                hook(result, parent)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _on_search(self, result, parent) -> None:
        if id(result) not in self._seen:
            self._seen.add(id(result))
            self.searches.append(result)  # holding it keeps the id unique

    def _on_quotient(self, result, parent) -> None:
        if parent is not None and parent[0] == "quiver.jh":
            self.peels += 1

    def _on_dump(self, result, parent) -> None:
        if isinstance(result, str):
            self.report_bytes += len(result.encode("utf-8"))

    def self_times(self, op: int) -> Dict[str, float]:
        """Self time per label of one op's kept spans: each span's duration
        less the durations of its kept children."""
        out: Dict[str, float] = {}
        index = [k for k, s in enumerate(self.spans) if s.op == op]
        child = dict.fromkeys(index, 0.0)
        for k in index:
            s = self.spans[k]
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        for k in index:
            s = self.spans[k]
            out[s.label] = out.get(s.label, 0.0) + (s.end - s.start) - child[k]
        return out

    # -- results ----------------------------------------------------------

    def metrics(self, memo_calls: Optional[int], memo_hits: Optional[int]) -> Dict[str, Optional[float]]:
        """Per-layer metrics over everything traced so far."""

        def stat(label: str, k: int) -> Optional[float]:
            if label in self.missing or label not in self.totals:
                return None
            return self.totals[label][k]

        out: Dict[str, Optional[float]] = {}
        searched = stat("quiver.search", 0) is not None
        runs = useful = subspaces = 0
        kinds = dict.fromkeys(EVIDENCE_KINDS, 0)
        for s in self.searches:
            certified = certified_primes(s.evidence)
            for layer in s.layers:
                m = _LAYER2.fullmatch(layer)
                if m:
                    p = int(m.group(1))
                    runs += 1
                    useful += p in certified
                    subspaces += galois_number(s.dims[1], p)
            for kind in EVIDENCE_KINDS:
                if s.evidence.startswith(kind):
                    kinds[kind] += 1
        layer2_s = stat("quiver.layer2", 1)
        out["quiver.layer2.s"] = layer2_s
        out["quiver.layer2.runs"] = runs if searched else None
        out["quiver.layer2.subspaces"] = subspaces if searched else None
        out["quiver.layer2.us_per_subspace"] = (
            layer2_s / subspaces * 1e6 if layer2_s is not None and subspaces else None
        )
        out["quiver.layer2.useful_ratio"] = useful / runs if searched and runs else None
        out["quiver.layer1.s"] = stat("quiver.layer1", 1)
        out["quiver.layer1.calls"] = stat("quiver.layer1", 0)
        for fn in ("rref", "mat_mul", "reduce_vector"):
            out[f"linalg.{fn}.calls"] = stat(f"linalg.{fn}", 0)
            out[f"linalg.{fn}.self_s"] = stat(f"linalg.{fn}", 2)
        out["linalg.right_kernel.calls"] = stat("linalg.right_kernel", 0)
        out["linalg.mat_vec.calls"] = stat("linalg.mat_vec", 0)
        out["quiver.search.calls"] = memo_calls
        out["quiver.search.memo_hits"] = memo_hits
        for kind, count in kinds.items():
            out[f"quiver.evidence.{kind}"] = count if searched else None
        out["quiver.king.calls"] = stat("quiver.king", 0)
        out["quiver.king.self_s"] = stat("quiver.king", 2)
        out["quiver.jh.peels"] = None if stat("quiver.quotient_by", 0) is None else self.peels
        out["quiver.jh.self_s"] = stat("quiver.jh", 2)
        out["quiver.iso.calls"] = stat("quiver.iso", 0)
        out["quiver.iso.s"] = stat("quiver.iso", 1)
        out["geometry.wall_filtration_data.self_s"] = stat("geometry.wall_filtration_data", 2)
        out["walls.hilbert_report.self_s"] = stat("walls.hilbert_report", 2)
        out["geometry.construct.s"] = stat("geometry.construct", 1)
        out["quiver.tilt.s"] = stat("quiver.tilt", 1)
        out["io_utils.dump_json.s"] = stat("io_utils.dump_json", 1)
        out["io_utils.report_bytes"] = (
            None if stat("io_utils.dump_json", 0) is None else self.report_bytes
        )
        return out
