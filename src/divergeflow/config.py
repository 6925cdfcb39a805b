"""YAML run-configuration loading.

The schema (all sections except `model` and `diagrams` are optional; see
README for a complete annotated example):

    model:        {kind: ..., xi: [a, b], alpha: [a, b]}
    diagrams:     list of three {kind: ..., free_flow_speed?, jam_density?}
    simulation:   grid, horizon, initial data, boundaries, snapshot cadence
    verify:       {tolerance: ...}
    convergence:  {resolutions: [...]}
    flux_map:     {demand_upstream: ..., supply_1: ..., supply_2: ...}
    properties:   {samples: ..., wave_samples: ..., oracle_grid: ...}

The configuration hash recorded in reports is the SHA-256 of the parsed
document re-serialized canonically, so formatting and comments do not affect
it.
"""

from __future__ import annotations

import hashlib
import json

import yaml

from .ctm import BoundaryCondition, BoundaryKind, BoundarySpec, SimConfig
from .fundamental_diagram import (
    DiagramKind,
    FundamentalDiagram,
    del_castillo_mainline,
    del_castillo_ramp,
)
from .harness import ExperimentKind, ExperimentSpec, SweepSpec
from .riemann import DivergeModel, DivergeModelKind

__all__ = ["ConfigError", "load_config", "build_spec", "config_hash"]

_DIAGRAM_DEFAULTS = {
    DiagramKind.DEL_CASTILLO_MAINLINE: (1.0, 2.0),
    DiagramKind.DEL_CASTILLO_RAMP: (0.5, 1.0),
    DiagramKind.TRIANGULAR: (1.0, 1.0),
    DiagramKind.GREENSHIELDS: (1.0, 1.0),
}


class ConfigError(ValueError):
    """The configuration file is missing or malformed."""


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a mapping")
    return doc


def config_hash(doc):
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _build_model(section):
    if not isinstance(section, dict) or "kind" not in section:
        raise ConfigError("model section needs a kind")
    try:
        kind = DivergeModelKind(section["kind"])
    except ValueError as exc:
        raise ConfigError(f"unknown model kind {section['kind']!r}") from exc
    xi = tuple(section["xi"]) if "xi" in section else None
    alpha = tuple(section["alpha"]) if "alpha" in section else None
    try:
        return DivergeModel(kind, xi=xi, alpha=alpha)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_diagram(section):
    if not isinstance(section, dict) or "kind" not in section:
        raise ConfigError("each diagram needs a kind")
    try:
        kind = DiagramKind(section["kind"])
    except ValueError as exc:
        raise ConfigError(f"unknown diagram kind {section['kind']!r}") from exc
    defaults = _DIAGRAM_DEFAULTS[kind]
    v_f = float(section.get("free_flow_speed", defaults[0]))
    rho_j = float(section.get("jam_density", defaults[1]))
    return FundamentalDiagram(kind, v_f, rho_j)


def _build_boundary(section):
    if section is None:
        return BoundaryCondition.neumann()
    try:
        kind = BoundaryKind(section["kind"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad boundary condition {section!r}") from exc
    if kind is BoundaryKind.NEUMANN:
        return BoundaryCondition.neumann()
    if kind is BoundaryKind.CONSTANT:
        if "value" not in section:
            raise ConfigError(f"constant boundary condition needs a value: {section!r}")
        return BoundaryCondition.constant(section["value"])
    return BoundaryCondition.sinusoid(
        section.get("offset", 0.0), section.get("amplitude", 0.0), section.get("period", 60.0)
    )


def _build_sim(doc, model, diagrams):
    section = doc.get("simulation")
    if section is None:
        return None
    bsec = section.get("boundaries", {})
    down = bsec.get("downstream_supplies", [None, None])
    if len(down) != 2:
        raise ConfigError("downstream_supplies needs exactly two entries")
    boundaries = BoundarySpec(
        upstream_demand=_build_boundary(bsec.get("upstream_demand")),
        downstream_supplies=(_build_boundary(down[0]), _build_boundary(down[1])),
    )
    try:
        return SimConfig(
            model=model,
            diagrams=diagrams,
            cells_per_link=int(section["cells_per_link"]),
            time_steps=int(section["time_steps"]),
            link_length=float(section.get("link_length", 10.0)),
            horizon=float(section.get("horizon", 360.0)),
            initial_densities=tuple(section.get("initial_densities", (0.0, 0.0, 0.0))),
            initial_proportions=section.get("initial_proportions"),
            inflow_proportions=section.get("inflow_proportions"),
            boundaries=boundaries,
            snapshot_every=int(section.get("snapshot_every", 50)),
        )
    except KeyError as exc:
        raise ConfigError(f"simulation section is missing {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_axis(value, name):
    if isinstance(value, dict):
        try:
            return (float(value["start"]), float(value["stop"]), int(value["count"]))
        except KeyError as exc:
            raise ConfigError(f"{name} axis needs start/stop/count, missing {exc}") from exc
    v = float(value)
    return (v, v, 1)


def build_spec(doc, kind, seed=0):
    """Assemble the ExperimentSpec a CLI subcommand needs from a parsed
    config document."""
    model = _build_model(doc.get("model"))
    dsec = doc.get("diagrams")
    if dsec is None:
        diagrams = (del_castillo_mainline(), del_castillo_mainline(), del_castillo_ramp())
    else:
        if len(dsec) != 3:
            raise ConfigError("diagrams must list exactly three entries")
        diagrams = tuple(_build_diagram(d) for d in dsec)
    sim = _build_sim(doc, model, diagrams)

    sweep = None
    if kind is ExperimentKind.FLUX_MAP:
        fsec = doc.get("flux_map")
        if fsec is None:
            raise ConfigError("flux-map needs a flux_map section")
        names = ("demand_upstream", "supply_1", "supply_2")
        missing = [name for name in names if name not in fsec]
        if missing:
            raise ConfigError(f"flux_map section is missing {', '.join(missing)}")
        sweep = SweepSpec(*(_build_axis(fsec[name], name) for name in names))
        if sim is None:
            # flux maps evaluate closed forms only; the placeholder grid is
            # never stepped
            sim = SimConfig(
                model=model, diagrams=diagrams, cells_per_link=1, time_steps=1,
                link_length=1.0, horizon=1e-9,
            )

    vsec = doc.get("verify", {})
    csec = doc.get("convergence", {})
    psec = doc.get("properties", {})
    try:
        return ExperimentSpec(
            kind=kind,
            sim=sim,
            sweep=sweep,
            resolutions=tuple(int(m) for m in csec.get("resolutions", (40, 80, 160))),
            tolerance=float(vsec.get("tolerance", 5e-3)),
            samples=int(psec.get("samples", 10000)),
            wave_samples=int(psec.get("wave_samples", 2000)),
            oracle_grid=int(psec.get("oracle_grid", 7)),
            seed=seed,
            config_hash=config_hash(doc),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
