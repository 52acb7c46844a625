"""Benchmark of `p2stab hilbert report`.

    python3 bench/run.py --workload report-n3 --seed 1 --seconds 20 --trace 0

Runs one workload (see workloads.py) from the root of a source checkout as a
closed loop: one op in flight, in this one process and thread. An op is what
a user runs, `p2stab hilbert report --n N --points IN --out OUT`, called in
process through `p2stab.cli.main` with the search memo emptied first, as in
a fresh CLI process. Every op's output is scored by oracle.py.

The ops come in rounds that cost the same (workloads.py). With `--trace 0`,
rounds are started until `--seconds` have passed and the end-to-end metrics
of BENCHMARK.json are reported; as every round has the same ops up to
signs, the figures do not depend on how many rounds fit. With `--trace 1`,
a fixed number of the first round's ops (workloads.py) runs twice,
untraced and then traced (tracer.py), and the
per-layer metrics are reported with `trace.overhead_s`, the traced less the
untraced time of the same ops.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The lines before it give every op, and the SHA-256 of all op
output bytes in order; runs of the same code at the same seed that
complete the same ops print the same digest.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import oracle
import workloads
from tracer import Tracer, program_modules

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PINNED_ENV = {"PYTHONHASHSEED": "0"}
UNSET_ENV = ("P2STAB_THREADS",)
SETUP_PROBES = 5


def pin_environment(argv: List[str]) -> None:
    """Re-execute this script with a fixed hash seed and no thread setting."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()) and not any(
        k in os.environ for k in UNSET_ENV
    ):
        return
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env.update(PINNED_ENV)
    os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)


def import_program():
    """Import `p2stab` from this checkout's src/, and nowhere else."""
    if not (SRC / "p2stab" / "__init__.py").is_file():
        raise SystemExit(f"error: no p2stab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import p2stab.cli

    where = Path(p2stab.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"error: p2stab resolved to {where}, not to {SRC}")
    return p2stab.cli


def clear_memos() -> None:
    """Empty every functools cache of the program, as in a fresh process."""
    for m in program_modules():
        for value in vars(m).values():
            if hasattr(value, "cache_info") and hasattr(value, "cache_clear"):
                value.cache_clear()


def memo_counts() -> Optional[tuple]:
    """(calls, hits) of the search memo since it was last emptied."""
    quiver = sys.modules.get("p2stab.quiver")
    infos = [v.cache_info() for v in vars(quiver).values() if hasattr(v, "cache_info")]
    if not infos:
        return None
    hits = sum(i.hits for i in infos)
    return hits + sum(i.misses for i in infos), hits


def cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


@dataclass
class OpResult:
    index: int
    configs: int
    wall_s: float
    cpu_s: float
    exit_code: Optional[int]
    output: bytes
    score: object

    def line(self, tag: str = "op") -> str:
        s = self.score
        return (
            f"{tag} {self.index} configs={self.configs} wall_s={self.wall_s:.4f} "
            f"cpu_s={self.cpu_s:.4f} exit={self.exit_code} "
            f"sha256={hashlib.sha256(self.output).hexdigest()} verdicts={s.verdicts} "
            f"exact={s.exact} wrong={s.wrong} failed={'; '.join(s.failures) or '-'}"
        )


def run_op(cli, op, index: int, workdir: Path) -> OpResult:
    src, dst = workdir / f"in-{index}.json", workdir / f"out-{index}.json"
    src.write_text(json.dumps(op.payload()), encoding="utf-8")
    argv = ["hilbert", "report", "--n", str(op.n), "--points", str(src), "--out", str(dst)]
    clear_memos()
    crash = None
    sink = io.StringIO()
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # the loop keeps going; the op is scored as failed
        code, crash = None, traceback.format_exc()
    t1, cpu1 = time.perf_counter(), cpu_seconds()
    if crash:
        print(crash, file=sys.stderr)
    output = dst.read_bytes() if dst.exists() else None
    for f in (src, dst):
        f.unlink(missing_ok=True)
    score = oracle.score_output(op.n, op.configs, code, output)
    return OpResult(index, len(op.configs), t1 - t0, cpu1 - cpu0, code, output or b"", score)


def digest(results: List[OpResult]) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(r.output)
    return h.hexdigest()


def time_setup(args) -> float:
    """Median wall time of a fresh interpreter that imports the program and
    makes this run's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up failed: {proc.stderr.decode(errors='replace')}")
    return statistics.median(times)


def end_to_end(results: List[OpResult], setup_s: float) -> Dict[str, float]:
    verdicts = sum(r.score.verdicts for r in results)
    return {
        "setup_s": setup_s,
        "op_s.p50": statistics.median(r.wall_s for r in results),
        "configs_per_s": sum(r.configs for r in results) / sum(r.wall_s for r in results),
        "op_cpu_s.p50": statistics.median(r.cpu_s for r in results),
        "exact_share": sum(r.score.exact for r in results) / verdicts if verdicts else 0.0,
        "correct_verdict_share":
            sum(r.score.verdicts - r.score.wrong for r in results) / verdicts if verdicts else 0.0,
        "ok_share": sum(not r.score.failed for r in results) / len(results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    pin_environment(argv)

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cli = import_program()
    rounds = workloads.make_rounds(args.workload, args.seed)
    if args.setup_probe:  # set-up ends with the input files' contents made
        for ops in rounds:
            for op in ops:
                json.dumps(op.payload())
        return 0

    setup_s = time_setup(args) if not args.trace else None
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as tmp:
        workdir = Path(tmp)
        if args.trace:
            traced = workloads.WORKLOADS[args.workload][3]
            results, values = traced_run(cli, rounds[0][:traced], workdir)
            wanted = spec["per_layer"]
        else:
            results = []
            start = time.perf_counter()
            for ops in rounds:
                if results and time.perf_counter() - start >= args.seconds:
                    break
                for op in ops:
                    results.append(run_op(cli, op, len(results), workdir))
                    print(results[-1].line(), flush=True)
            values = end_to_end(results, setup_s)
            wanted = spec["end_to_end"]

    print(f"output_sha256 ops={len(results)} {digest(results)}")
    failed = sum(r.score.failed for r in results)
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted}
    unmeasured = [name for name, m in metrics.items() if m["value"] is None]
    if unmeasured:
        print("not measured: " + " ".join(unmeasured))
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


def traced_run(cli, ops, workdir: Path):
    """Run `ops` untraced, then traced; return all results and the
    per-layer metrics of the traced pass."""
    plain = []
    for k, op in enumerate(ops):
        plain.append(run_op(cli, op, k, workdir))
        print(plain[-1].line("untraced"), flush=True)
    tracer = Tracer()
    tracer.install()
    traced, calls, hits = [], 0, 0
    try:
        for k, op in enumerate(ops):
            tracer.op = k
            traced.append(run_op(cli, op, k, workdir))
            counts = memo_counts()
            if counts is None:
                calls = hits = None
            elif calls is not None:
                calls, hits = calls + counts[0], hits + counts[1]
    finally:
        tracer.uninstall()
    for p, t in zip(plain, traced):
        if t.output != p.output:
            t.score.failures.append("tracing changed the output bytes")
        print(t.line("traced"), flush=True)
        layers = sorted(tracer.self_times(t.index).items(), key=lambda kv: -kv[1])
        print(f"layers {t.index} self_s " + " ".join(f"{k}={v:.4f}" for k, v in layers))
    values = tracer.metrics(calls, hits)
    values["trace.overhead_s"] = sum(t.wall_s for t in traced) - sum(p.wall_s for p in plain)
    return plain + traced, values


if __name__ == "__main__":
    sys.exit(main())
