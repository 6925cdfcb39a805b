"""Command-line entry point.

    divergeflow riemann-verify --config cfg.yaml --out results/
    divergeflow converge       --config cfg.yaml --out results/
    divergeflow flux-map       --config cfg.yaml --out results/
    divergeflow props          --config cfg.yaml --out results/ --seed 7

Exit status: 0 when every check passes, 1 on a verification failure, 2 on a
usage or configuration error.  Each run writes `report.txt` plus the
experiment's data files (see README for the column layouts); all numbers use
12 significant digits and reruns with the same config are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, build_spec, load_config
from .harness import (
    ExperimentKind,
    convergence_study,
    flux_map,
    property_suite,
    riemann_verify,
)

_FMT = "%.12g"


def _write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(_FMT % v if isinstance(v, float) else str(v) for v in row) + "\n"
            )


def _write_fields(out_dir, traj):
    rows = []
    for k, step in enumerate(traj.snapshot_steps):
        for link in range(3):
            for cell in range(traj.config.cells_per_link):
                prop = _FMT % traj.proportions[k, 0, cell] if link == 0 else ""
                rows.append((int(step), link, cell, float(traj.densities[k, link, cell]), prop))
    _write_rows(out_dir / "fields.csv", ("step", "link", "cell", "density", "proportion"), rows)


def _write_junction(out_dir, traj):
    j = traj.junction
    rows = [
        (
            int(j.steps[k]),
            float(j.q0[k]),
            float(j.q1[k]),
            float(j.q2[k]),
            float(j.demand_upstream[k]),
            float(j.supply_down1[k]),
            float(j.supply_down2[k]),
            float(j.proportion1[k]),
        )
        for k in range(len(j.steps))
    ]
    _write_rows(
        out_dir / "junction.csv",
        ("step", "q0", "q1", "q2", "demand_upstream", "supply_down1", "supply_down2", "proportion1"),
        rows,
    )


def _run(kind, args):
    doc = load_config(args.config)
    spec = build_spec(doc, kind, seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if kind is ExperimentKind.RIEMANN_VERIFY:
        report, artifacts = riemann_verify(spec)
        _write_fields(out_dir, artifacts["trajectory"])
        _write_junction(out_dir, artifacts["trajectory"])
    elif kind is ExperimentKind.CONVERGENCE:
        report, artifacts = convergence_study(spec)
        for cells, (steps, eps) in artifacts["series"].items():
            rows = [(int(s), float(e)) for s, e in zip(steps, eps)]
            _write_rows(out_dir / f"epsilon_M{cells}.csv", ("step", "epsilon"), rows)
    elif kind is ExperimentKind.FLUX_MAP:
        report, artifacts = flux_map(spec)
        rows = [
            tuple(float(v) for v in row[:6]) + (row[6],) for row in artifacts["rows"]
        ]
        _write_rows(
            out_dir / "flux_map.csv",
            ("demand_upstream", "supply_1", "supply_2", "q0", "q1", "q2", "region"),
            rows,
        )
    else:
        report, _ = property_suite(spec)

    (out_dir / "report.txt").write_text(report.render(), encoding="utf-8")
    sys.stdout.write(report.render())
    return 0 if report.passed else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="divergeflow",
        description="Diverge-junction Riemann solvers and cell-transmission experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in ExperimentKind:
        p = sub.add_parser(kind.value, help=f"run the {kind.value} experiment")
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
        p.set_defaults(kind=kind)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code) if exc.code else 0
    try:
        return _run(args.kind, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
