"""Benchmark of divergeflow's four CLI experiments, end to end and layer by
layer.

    python3 perfbench/run.py --workload verify --seed 0 --seconds 25 --trace 0

Run it from a checkout that holds ``src/divergeflow`` and ``configs/``.  The
workloads are ``verify``, ``converge``, ``props`` and ``flux_map`` (see
``workloads.py``).  One workload process runs at a time, with every
numerical library pinned to one thread.

``--trace 0`` reports the end-to-end metrics: ``wall_s``, the median seconds
of one experiment through ``cli.main`` with all outputs written;
``setup_s``, the median of several fresh-process set-ups (import, config
load, spec build); and ``peak_rss_mb`` of the workload process.  ``--trace
1`` reports the per-layer metrics of one traced run (see ``spans.py``) and
its overhead against untraced runs.  Every run is checked: exit status,
report verdict, output row counts, and byte-identical reports across runs
of one seed.  A run that fails a check counts in ``failed`` and its time is
left out of ``wall_s``.

The last line of standard output is the result object; the line before it
holds the details (percentiles, sample counts, failures, machine and
environment), also written to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import percentiles
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Fresh-process set-ups per run, half before and half after the workload
# process so that they sample more of the machine's state; setup_s is their
# median.
SETUP_REPEATS = 8
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 170
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for name in PINNED_THREADS:
        env[name] = "1"
    return env


def _probe(env, config, command):
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), config, command],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, check=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    return float(out.stdout.strip().splitlines()[-1])


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """HEAD of the checkout read from ``.git`` directly; None outside a git
    repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    """SHA-256 over the program's sources and configs, naming the code
    measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "configs").glob("*.yaml"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _environment(env, seed, numpy_version):
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "threads": {name: env[name] for name in PINNED_THREADS},
    }


def _missing_sources():
    needed = ["src/divergeflow/cli.py"] + [config for config, _ in workloads.SOURCES.values()]
    return [path for path in needed if not (ROOT / path).is_file()]


def main(argv=None):
    parser = argparse.ArgumentParser(description="divergeflow end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    missing = _missing_sources()
    if missing:
        print(f"perfbench: not a divergeflow checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    env = _child_env()
    config, command = workloads.SOURCES[args.workload]
    out_root = ROOT / ".bench_out" / args.workload
    # an untimed first probe writes the bytecode caches the timed ones read
    _probe(env, config, command)
    probes = 0 if args.trace else SETUP_REPEATS // 2
    setups = [_probe(env, config, command) for _ in range(probes)]

    worker = subprocess.run(
        [
            sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out-root", str(out_root),
        ],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if worker.returncode != 0:
        print(f"perfbench: workload process exited with status {worker.returncode}", file=sys.stderr)
        return 1
    data = json.loads(worker.stdout.strip().splitlines()[-1])
    setups += [_probe(env, config, command) for _ in range(probes)]

    runs = data["runs"]
    failed = [r for r in runs if r["problems"]]
    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in data["layer_metrics"].items()}
    else:
        # a failed run is never fast: with no passing run, wall_s is the
        # whole time spent
        passing = [r["wall_s"] for r in runs if not r["problems"] and not r["traced"]]
        wall = statistics.median(passing) if passing else sum(r["wall_s"] for r in runs)
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": data["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
    result = {"correct": not failed, "attempted": len(runs), "failed": len(failed), "metrics": metrics}

    details = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "wall_s": percentiles.summary([r["wall_s"] for r in runs if not r["problems"] and not r["traced"]]),
        "run_walls_s": [r["wall_s"] for r in runs],
        "setup_s": percentiles.summary(setups),
        "failed_ops": len(failed) / len(runs),
        "problems": sorted({p for r in failed for p in r["problems"]}),
        "environment": _environment(env, args.seed, data["numpy"]),
    }
    results_dir = ROOT / ".bench_out" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"details": details, "result": result}
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
