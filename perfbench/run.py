"""Benchmark of the duffing-qubit CLI: seeded sweeps run in one process.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload beta-sweep --seed 1 --seconds 20 --trace 0

The workload's invocations (see ``workloads.py``) form one pass.  They are
run through ``duffing_qubit.cli.main(argv)`` in a closed loop with one
client: the next call starts when the previous one returns.  A first pass
warms up and has every output checked (``checks.py``); the pass is then
repeated until ``--seconds`` have gone by, and every repeat must print
byte-identical output.

``--trace 0`` reports the end-to-end metrics: set-up time of a fresh
interpreter, rows per second, per-call latency, peak memory and the share
of calls that were correct.  ``--trace 1`` alternates untraced passes with
passes traced by ``tracing.py`` and reports per-layer metrics.  The last
line of standard output is one JSON object; a fuller record, with the
machine and versions, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKDIR = "perfbench/.work"  # relative to ROOT, so argv is the same in every checkout

sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 7
# the child times the import between two speed calibrations; it imports
# nothing else first, so that nothing the CLI needs is already loaded
SETUP_SNIPPET = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import speed\n"
    "def ref():\n"
    "    return sorted(speed.python_work() for _ in range(9))[4]\n"
    "ref()\n"
    "before = ref()\n"
    "t = time.perf_counter()\n"
    "import duffing_qubit.cli as cli\n"
    "cli.build_parser()\n"
    "elapsed = time.perf_counter() - t\n"
    "print(repr(elapsed), repr(0.5 * (before + ref())))\n"
)
MAX_PROBLEMS = 20


def measure_setup() -> tuple[float, float]:
    """Median over fresh interpreters of importing the CLI and building its parser.

    Returns (speed-scaled seconds, raw seconds).  One extra start first
    leaves compiled bytecode behind, as an installed package would have it.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    scaled, raw = [], []
    for k in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(BENCH)], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, ref = (float(x) for x in done.stdout.split()[-2:])
        if k:
            raw.append(elapsed)
            scaled.append(elapsed * speed.PY_REF_S / ref)
    return statistics.median(scaled), statistics.median(raw)


def import_cli():
    sys.path.insert(0, str(SRC))
    import duffing_qubit.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "duffing_qubit":
        raise ImportError(f"duffing_qubit imported from {cli.__file__}, not {SRC}")
    return cli


class Runner:
    """Runs passes of one workload and keeps what the metrics need."""

    def __init__(self, cli, workload: workloads.Workload):
        self.cli = cli
        self.calls = workload.calls
        self.digests: list[str] = []   # per call, from the checked first pass
        self.bad: set[int] = set()     # calls whose first-pass check failed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.bytes_out = 0

    def _invoke(self, argv: tuple[str, ...]):
        """Run one call; returns (code, seconds, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(list(argv))
            except Exception as exc:  # a traceback is a failure to report, not to stop on
                code = f"raised {type(exc).__name__}: {exc}"
            except SystemExit as exc:
                code = f"SystemExit({exc.code})"
            elapsed = time.perf_counter() - t0
        return code, elapsed, out.getvalue(), err.getvalue()

    def run_pass(self, first: bool = False, tracer: tracing.Tracer | None = None):
        """One pass; returns per-call (scaled seconds, raw seconds, output rows).

        The reference work runs between calls; a call's time is scaled by the
        mean of the reference times just before and just after it.
        """
        times, raw, rows = [], [], []
        self.bytes_out = 0
        before = speed.reference_work()
        for k, call in enumerate(self.calls):
            if tracer is not None:
                tracer.current_call = k
            code, elapsed, out, err = self._invoke(call.argv)
            after = speed.reference_work()
            scale = speed.REF_S / (0.5 * (before + after))
            before = after
            digest = hashlib.blake2b(f"{code!r}\0{out}".encode()).hexdigest()
            self.bytes_out += len(out.encode())
            if first:
                self.digests.append(digest)
                found = checks.check(call, code, out, err)
                if found:
                    self.bad.add(k)
                    self.problems += [f"{' '.join(call.argv)}: {p}" for p in found]
            ok = k not in self.bad and digest == self.digests[k]
            if not ok and not first and k not in self.bad:
                self.problems.append(f"{' '.join(call.argv)}: output differs from first pass")
            self.attempted += 1
            self.failed += not ok
            times.append(elapsed * scale)
            raw.append(elapsed)
            rows.append(checks.rows_out(call, code) if ok else 0)
        return times, raw, rows


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (q in 1..99) by statistics.quantiles' exclusive method."""
    return statistics.quantiles(values, n=100)[q - 1]


def measure(runner: Runner, seconds: float) -> dict:
    """Untraced passes for ``seconds``; end-to-end metrics from scaled times."""
    deadline = time.perf_counter() + seconds
    rates, raw_rates, samples = [], [], []
    while True:
        times, raw, rows = runner.run_pass()
        rates.append(sum(rows) / sum(times))
        raw_rates.append(sum(rows) / sum(raw))
        samples += times
        if time.perf_counter() >= deadline:
            break
    return {
        "points_per_s": statistics.median(rates),
        "call_ms_p50": 1e3 * statistics.median(samples),
        "call_ms_p90": 1e3 * percentile(samples, 90),
        "passes": len(rates),
        "raw_points_per_s": statistics.median(raw_rates),
        "call_samples": len(samples),
    }


def measure_traced(runner: Runner, workload: workloads.Workload, seconds: float,
                   spans_path: Path) -> dict:
    """Untraced and traced passes in turn for ``seconds``; per-layer metrics."""
    tracer = tracing.Tracer()
    regimes = [c.info.get("regime", "") for c in workload.calls]
    deadline = time.perf_counter() + seconds
    plain, traced, per_pass = [], [], []
    while True:
        times, _, _ = runner.run_pass()
        plain.append(sum(times))
        tracer.clear()
        undo = tracing.install(tracer)
        try:
            times, _, rows = runner.run_pass(tracer=tracer)
        finally:
            tracing.uninstall(undo)
        traced.append(sum(times))
        found = tracing.layer_metrics(tracer, np.array(rows, dtype=float), regimes)
        found["cli.bytes_out"] = runner.bytes_out
        per_pass.append(found)
        if time.perf_counter() >= deadline:
            break
    tracer.save(spans_path)
    out = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    out["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    out["passes"] = len(per_pass)
    return out


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "seed": seed,
        "git_commit": _git_commit(),
    }


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git directly; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


UNITS = {
    "setup_s": "s",
    "points_per_s": "rows/s",
    "call_ms_p50": "ms",
    "call_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "duffing_qubit" / "cli.py").is_file():
        print(f"error: no duffing_qubit sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    workload = workloads.generate(args.workload, args.seed, WORKDIR)
    for path, content in workload.files.items():
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(content, encoding="utf-8")

    setup_s, raw_setup_s = measure_setup() if args.trace == 0 else (None, None)
    runner = Runner(import_cli(), workload)
    runner.run_pass(first=True)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        found = measure_traced(runner, workload, args.seconds, RESULTS / f"{args.workload}.spans.npz")
        metrics = {k: v for k, v in found.items() if k != "passes"}
        units = tracing.UNITS
        notes = {"passes": found["passes"], "calls_per_pass": len(workload.calls)}
    else:
        found = measure(runner, args.seconds)
        metrics = {
            "setup_s": setup_s,
            "points_per_s": found["points_per_s"],
            "call_ms_p50": found["call_ms_p50"],
            "call_ms_p90": found["call_ms_p90"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": 1.0 - runner.failed / runner.attempted,
        }
        units = UNITS
        notes = {"passes": found["passes"], "call_samples": found["call_samples"],
                 "calls_per_pass": len(workload.calls), "setup_runs": SETUP_RUNS,
                 "raw_setup_s": raw_setup_s, "raw_points_per_s": found["raw_points_per_s"]}

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = dict(result, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  fail_ratio=runner.failed / runner.attempted, notes=notes,
                  problems=runner.problems[:MAX_PROBLEMS], environment=environment(args.seed))
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    for line in runner.problems[:MAX_PROBLEMS]:
        print(f"problem: {line}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in notes.items()))
    print(f"fail_ratio {runner.failed / runner.attempted} ratio "
          f"({runner.failed} of {runner.attempted} calls)")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
