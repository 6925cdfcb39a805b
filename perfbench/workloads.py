"""The benchmark's four workloads.

Each workload is the input of one CLI experiment, run through
``divergeflow.cli.main``.  An experiment is a list of calls; every call is
one CLI invocation with the output rows its spec implies, so a run can be
checked after it is timed.  A workload has one or more variants of its
experiment, which successive runs take in turn.

* ``verify``   -- ``riemann-verify`` on ``configs/diverge_verify.yaml``.
* ``converge`` -- ``converge`` on ``configs/convergence.yaml``.
* ``props``    -- ``props`` on ``configs/props.yaml`` with seeds derived from
  the benchmark seed, one per run, so a run's median spans several draws.
* ``flux_map`` -- ``flux-map`` once per junction rule over a full
  (D0, S1, S2) cube generated from ``configs/flux_map.yaml``.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("verify", "converge", "props", "flux_map")

# Config file and CLI subcommand of each workload; the set-up probe loads and
# builds the same pair.
SOURCES = {
    "verify": ("configs/diverge_verify.yaml", "riemann-verify"),
    "converge": ("configs/convergence.yaml", "converge"),
    "props": ("configs/props.yaml", "props"),
    "flux_map": ("configs/flux_map.yaml", "flux-map"),
}

# props variants: derived seed = benchmark seed * PROPS_SEED_STRIDE + i,
# for i below PROPS_VARIANTS (more than a 60-second run can reach).
PROPS_SEED_STRIDE = 1000
PROPS_VARIANTS = 16

# Points per axis of the flux-map cube: 25^3 points for each of five rules.
FLUX_MAP_CUBE = 25
# The seed pulls each axis's upper end down by up to this share of its range,
# so different seeds sample different points with the same count.
FLUX_MAP_JITTER = 0.05

# Rule parameters of the flux-map workload: the oracle fixtures of the
# property battery in ``harness.property_suite``.
FLUX_MAP_RULES = {
    "daganzo_fifo": {"xi": [0.7, 0.3]},
    "lebacque": {"xi": [0.7, 0.3]},
    "supply_proportional": {},
    "priority_based": {"alpha": [0.6, 0.4]},
    "partial_evacuation": {"xi": [0.3, 0.2], "alpha": [0.55, 0.45]},
}


@dataclass
class Call:
    """One CLI invocation: its arguments without ``--out`` and the data rows
    (header excluded) of every CSV file it must write."""

    argv: list[str]
    expected_rows: dict[str, int] = field(default_factory=dict)


def snapshot_count(steps, every):
    """Recorded snapshots of a run: step 0, every ``every`` steps, and the
    final step."""
    return 1 + steps // every + (1 if steps % every else 0)


def _load(root, relpath):
    import yaml

    with open(root / relpath, encoding="utf-8") as fh:
        return yaml.safe_load(fh)


def flux_map_docs(base, capacity_upstream, seed, cube=FLUX_MAP_CUBE):
    """One flux-map config per rule: ``demand_upstream`` becomes a sweep over
    [0, C0], both supply axes keep their configured range, and every axis
    gets ``cube`` points.  The seed jitters the three upper ends."""
    rng = random.Random(seed)
    fsec = base["flux_map"]

    def axis(start, stop):
        top = start + (stop - start) * (1.0 - FLUX_MAP_JITTER * rng.random())
        return {"start": float(start), "stop": top, "count": cube}

    sweep = {
        "demand_upstream": axis(0.0, capacity_upstream),
        "supply_1": axis(fsec["supply_1"]["start"], fsec["supply_1"]["stop"]),
        "supply_2": axis(fsec["supply_2"]["start"], fsec["supply_2"]["stop"]),
    }
    docs = {}
    for rule, params in FLUX_MAP_RULES.items():
        doc = copy.deepcopy(base)
        doc["model"] = {"kind": rule, **copy.deepcopy(params)}
        doc["flux_map"] = copy.deepcopy(sweep)
        docs[rule] = doc
    return docs


def _verify_calls(root):
    relpath, command = SOURCES["verify"]
    sim = _load(root, relpath)["simulation"]
    cells, steps = sim["cells_per_link"], sim["time_steps"]
    snaps = snapshot_count(steps, sim.get("snapshot_every", 50))
    rows = {"fields.csv": snaps * 3 * cells, "junction.csv": steps}
    return [Call([command, "--config", str(root / relpath)], rows)]


def _converge_calls(root):
    relpath, command = SOURCES["converge"]
    doc = _load(root, relpath)
    sim = doc["simulation"]
    every = sim.get("snapshot_every", 50)
    rows = {}
    for cells in doc["convergence"]["resolutions"]:
        # the harness rescales the step count with the grid, dt/dx fixed
        steps = int(round(sim["time_steps"] * cells / sim["cells_per_link"]))
        rows[f"epsilon_M{cells}.csv"] = snapshot_count(steps, every)
    return [Call([command, "--config", str(root / relpath)], rows)]


def props_seeds(seed):
    """The CLI seeds of the props variants of one benchmark seed."""
    return [seed * PROPS_SEED_STRIDE + i for i in range(PROPS_VARIANTS)]


def _props_variants(root, seed):
    relpath, command = SOURCES["props"]
    return [[Call([command, "--config", str(root / relpath), "--seed", str(s)], {})] for s in props_seeds(seed)]


def _flux_map_calls(root, seed, inputs_dir):
    import yaml
    from divergeflow.config import build_spec
    from divergeflow.harness import ExperimentKind

    relpath, command = SOURCES["flux_map"]
    base = _load(root, relpath)
    capacity = build_spec(base, ExperimentKind.FLUX_MAP).sim.diagrams[0].capacity
    inputs_dir.mkdir(parents=True, exist_ok=True)
    calls = []
    for rule, doc in flux_map_docs(base, capacity, seed).items():
        path = inputs_dir / f"flux_map_{rule}.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=True), encoding="utf-8")
        points = doc["flux_map"]["demand_upstream"]["count"] ** 3
        calls.append(Call([command, "--config", str(path)], {"flux_map.csv": points}))
    return calls


def variants(workload, root, seed, inputs_dir):
    """The variants of ``workload``'s experiment, each a list of calls;
    generated inputs are written under ``inputs_dir``.  Only ``props`` and
    ``flux_map`` depend on the seed: it derives the CLI seeds of ``props``
    and shapes the generated cube of ``flux_map``."""
    root = Path(root)
    if workload == "verify":
        return [_verify_calls(root)]
    if workload == "converge":
        return [_converge_calls(root)]
    if workload == "props":
        return _props_variants(root, seed)
    if workload == "flux_map":
        return [_flux_map_calls(root, seed, Path(inputs_dir))]
    raise ValueError(f"unknown workload {workload!r}")


def check_call(call, out_dir, code):
    """Problems with one finished call: a non-zero exit status, a report
    verdict other than PASS, or a CSV file set or row count other than the
    spec implies.  An empty list means the call is correct."""
    problems = []
    if code != 0:
        problems.append(f"{call.argv[0]}: exit status {code}")
    report = out_dir / "report.txt"
    if not report.is_file():
        return problems + [f"{call.argv[0]}: no report.txt"]
    lines = report.read_text(encoding="utf-8").splitlines()
    if not lines or lines[-1] != "verdict: PASS":
        problems.append(f"{call.argv[0]}: verdict {lines[-1] if lines else 'missing'!r}")
    written = sorted(p.name for p in out_dir.glob("*.csv"))
    if written != sorted(call.expected_rows):
        problems.append(f"{call.argv[0]}: wrote {written}, expected {sorted(call.expected_rows)}")
    for name, rows in call.expected_rows.items():
        path = out_dir / name
        if path.is_file():
            with open(path, "rb") as fh:
                got = sum(1 for _ in fh) - 1
            if got != rows:
                problems.append(f"{call.argv[0]}: {name} has {got} rows, expected {rows}")
    return problems
