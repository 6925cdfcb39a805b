"""Command-line entry point.

    divergeflow riemann-verify --config cfg.yaml --out results/
    divergeflow converge       --config cfg.yaml --out results/
    divergeflow flux-map       --config cfg.yaml --out results/
    divergeflow props          --config cfg.yaml --out results/ --seed 7

Exit status: 0 when every check passes, 1 on a verification failure or a run
that a numerical guard stops, 2 on a usage or configuration error.  Each run
writes `report.txt` plus the experiment's data files (see README for the
column layouts); all numbers use 12 significant digits and reruns with the
same config are byte-identical.
Every data file is a table of columns (a dict from CSV header to an
equal-length array) written by `_write_table` a block of rows at a time.
It formats each distinct value of a block's column once and gathers the
text into the rows, or formats field by field where more than half of the
values are distinct; the bytes are those of formatting every field alone.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, build_spec, load_config
from .ctm import NumericalStabilityError
from .harness import (
    ExperimentKind,
    convergence_study,
    flux_map,
    property_suite,
    riemann_verify,
)
from .waves import WaveConsistencyError

_FMT = "%.12g"
# Rows formatted per write: bounds the text held in memory at any length.
_BLOCK_ROWS = 4096
# A block of a column with more distinct values than this share of its rows
# is formatted field by field: there the sort that finds them costs more
# than it saves.
_DISTINCT_SHARE = 0.5


def _block_fields(column):
    """(%-format, Python values) of a block of a column: floats at 12
    significant digits and NaN as an empty field, the rest as str.  Each
    distinct value (a float by its bit pattern, so -0.0 stays -0) is
    formatted once and gathered into its rows, unless more than half are
    distinct."""
    floats = column.dtype.kind == "f"
    distinct, inverse = np.unique(column.view(f"i{column.itemsize}") if floats else column, return_inverse=True)
    per_field = len(distinct) > _DISTINCT_SHARE * len(column)
    if per_field and not (floats and np.isnan(column).any()):
        return _FMT if floats else "%s", column.tolist()
    values = (column if per_field else distinct.view(column.dtype)).tolist()
    text = ["" if v != v else _FMT % v for v in values] if floats else [str(v) for v in values]
    return "%s", text if per_field else np.array(text, dtype=object)[inverse].tolist()


def _write_table(path, table):
    """Write `table`, a dict from CSV header to an equal-length array, as
    CSV, formatting and writing a block of rows at a time."""
    columns = list(table.values())
    width = len(columns)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(table) + "\n")
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            formats, values = zip(*(_block_fields(column[start:start + _BLOCK_ROWS]) for column in columns))
            rows = len(values[0])
            fields = [None] * (width * rows)
            for j, block in enumerate(values):
                fields[j::width] = block
            fh.write((",".join(formats) + "\n") * rows % tuple(fields))


def _fields_table(traj):
    """fields.csv: one row per snapshot, link and cell; the proportion is
    the upstream link's commodity-1 share, empty on the downstream links."""
    k, link, cell = np.indices(traj.densities.shape).reshape(3, -1)
    proportion = np.full(traj.densities.shape, np.nan)
    proportion[:, 0] = traj.proportions[:, 0]
    columns = (traj.snapshot_steps[k], link, cell, traj.densities.ravel(), proportion.ravel())
    return dict(zip(("step", "link", "cell", "density", "proportion"), columns))


def _run(kind, args):
    doc = load_config(args.config)
    spec = build_spec(doc, kind, seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if kind is ExperimentKind.RIEMANN_VERIFY:
        report, artifacts = riemann_verify(spec)
        traj = artifacts["trajectory"]
        tables = {"fields.csv": _fields_table(traj), "junction.csv": vars(traj.junction)}
    elif kind is ExperimentKind.CONVERGENCE:
        report, artifacts = convergence_study(spec)
        tables = {
            f"epsilon_M{cells}.csv": {"step": steps, "epsilon": eps}
            for cells, (steps, eps) in artifacts["series"].items()
        }
    elif kind is ExperimentKind.FLUX_MAP:
        report, artifacts = flux_map(spec)
        tables = {"flux_map.csv": artifacts["table"]}
    else:
        report, _ = property_suite(spec)
        tables = {}

    for name, table in tables.items():
        _write_table(out_dir / name, table)
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
    except (NumericalStabilityError, WaveConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
