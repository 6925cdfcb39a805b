"""The workload process: runs one workload's experiment through
``divergeflow.cli.main`` again and again for a fixed time, checks every run
and prints one JSON object as its last line.

    PYTHONPATH=src python3 perfbench/worker.py --workload verify --seed 0 \\
        --seconds 25 --trace 0 --out-root .bench_out/verify

With ``--trace 0`` every run is timed with tracing off.  With ``--trace 1``
untraced runs fill the first half of the time and one traced run follows,
with a span on every cross-module call (see ``spans.py``); its reports must
match the untraced ones byte for byte.  Runs take the workload's variants
in turn (see ``workloads.py``).  ``run.py`` starts this process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads

# Timed runs of a session at least, so that wall_s is a median.
MIN_RUNS = 2


@dataclass
class Run:
    wall_s: float
    problems: list[str]
    reports: list[bytes]
    bytes_written: int
    variant: int = 0
    traced: bool = False


def _experiment(calls, main, run_dir):
    """Time every call of one experiment, each into a fresh output
    directory.  A call that raises gets the exception text as its exit
    status, so it fails the checks instead of stopping the benchmark."""
    shutil.rmtree(run_dir, ignore_errors=True)
    outs = [run_dir / f"call{i}" for i in range(len(calls))]
    gc.collect()
    codes = []
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        for call, out in zip(calls, outs):
            try:
                codes.append(main([*call.argv, "--out", str(out)]))
            except Exception as exc:
                codes.append(f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - start
    return wall, codes, outs


def measured_run(calls, main, run_dir, reference):
    """One timed experiment plus its checks.  ``reference`` holds the
    report bytes of an earlier run with the same seed, or None."""
    wall, codes, outs = _experiment(calls, main, run_dir)
    problems, reports, written = [], [], 0
    for call, code, out in zip(calls, codes, outs):
        problems += workloads.check_call(call, out, code)
        report = out / "report.txt"
        reports.append(report.read_bytes() if report.is_file() else b"")
        written += sum(p.stat().st_size for p in out.glob("*") if p.is_file())
    if reference is not None and reports != reference:
        problems.append("report.txt differs from the first run with the same seed")
    shutil.rmtree(run_dir, ignore_errors=True)
    return Run(wall, problems, reports, written)


def timed_runs(variants, main, run_dir, seconds, min_runs=MIN_RUNS, rerun=True):
    """Untraced runs, taking the variants in turn, until the next would end
    after ``seconds``.  Each run's reports must match those of the first run
    of its variant.  With ``rerun``, when no variant ran twice, the first
    one runs once more so that every session checks a rerun."""
    runs, first = [], {}

    def run(k):
        result = measured_run(variants[k], main, run_dir, first.get(k))
        result.variant = k
        first.setdefault(k, result.reports)
        runs.append(result)
        return result

    start = time.perf_counter()
    while True:
        last = run(len(runs) % len(variants))
        if len(runs) >= min_runs and time.perf_counter() - start + last.wall_s > seconds:
            break
    if rerun and len(runs) <= len(variants):
        run(0)
    return runs


def traced_session(variants, main, run_dir, seconds, spans_path):
    """Untraced runs for half the time, then one traced run of the first
    variant.  Returns the runs and the per-layer metrics of the traced one;
    its overhead is taken against the untraced runs of the same variant."""
    runs = timed_runs(variants, main, run_dir, seconds / 2, min_runs=1, rerun=False)
    tracer = spans.Tracer()
    with tracer.patched(spans.divergeflow_targets()):
        traced = measured_run(variants[0], tracer.wrap("cli.main", main), run_dir, runs[0].reports)
    traced.traced = True
    baseline = statistics.median(r.wall_s for r in runs if r.variant == 0)
    metrics, problems = spans.layer_metrics(tracer, traced.wall_s, baseline, traced.bytes_written)
    traced.problems += problems
    tracer.write(spans_path)
    return runs + [traced], metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-root", required=True)
    args = parser.parse_args(argv)

    import numpy
    from divergeflow import cli

    out_root = Path(args.out_root)
    variants = workloads.variants(args.workload, Path.cwd(), args.seed, out_root / "inputs")
    run_dir = out_root / "run"
    metrics = {}
    if args.trace:
        runs, metrics = traced_session(variants, cli.main, run_dir, args.seconds, out_root / "spans.json")
    else:
        runs = timed_runs(variants, cli.main, run_dir, args.seconds)
    result = {
        "runs": [
            {"wall_s": r.wall_s, "problems": r.problems, "traced": r.traced}
            for r in runs
        ],
        "layer_metrics": metrics,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": numpy.__version__,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
