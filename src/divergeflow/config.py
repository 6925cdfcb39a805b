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

Every mapping is checked for keys the loader does not read where it is
read, so a misspelt key is a ConfigError rather than a silent default.

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


# The keys each mapping may hold; a boundary's depend on its kind.
_TOP_KEYS = ("model", "diagrams", "simulation", "verify", "convergence", "flux_map", "properties")
_SIM_KEYS = (
    "cells_per_link", "time_steps", "link_length", "horizon", "initial_densities",
    "initial_proportions", "inflow_proportions", "boundaries", "snapshot_every",
)
_AXES = ("demand_upstream", "supply_1", "supply_2")
_BOUNDARY_KEYS = {
    BoundaryKind.NEUMANN: ("kind",),
    BoundaryKind.CONSTANT: ("kind", "value"),
    BoundaryKind.TIME_VARYING: ("kind", "offset", "amplitude", "period"),
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


def _known(mapping, name, keys):
    """mapping, after checking that it holds only keys the loader reads."""
    for key in mapping:
        if key not in keys:
            raise ConfigError(f"{name}: unknown key {key!r} (expected {', '.join(keys)})")
    return mapping


def _section(parent, key, kind, default=None, keys=()):
    """parent[key], or default when it is absent or null, checked to be a
    mapping (kind dict) with no key outside `keys` or a list (kind list)
    before anything reads it."""
    section = parent.get(key)
    if section is None:
        return default
    if not isinstance(section, (list, tuple) if kind is list else dict):
        raise ConfigError(f"{key} must be a {'list' if kind is list else 'mapping'}, got {section!r}")
    return section if kind is list else _known(section, key, keys)


def _build_model(section):
    if not isinstance(section, dict) or "kind" not in section:
        raise ConfigError("model section needs a kind")
    _known(section, "model", ("kind", "xi", "alpha"))
    try:
        kind = DivergeModelKind(section["kind"])
    except ValueError as exc:
        raise ConfigError(f"unknown model kind {section['kind']!r}") from exc
    try:
        return DivergeModel(kind, xi=section.get("xi"), alpha=section.get("alpha"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_diagram(section, name):
    if not isinstance(section, dict) or "kind" not in section:
        raise ConfigError("each diagram needs a kind")
    _known(section, name, ("kind", "free_flow_speed", "jam_density"))
    try:
        kind = DiagramKind(section["kind"])
    except ValueError as exc:
        raise ConfigError(f"unknown diagram kind {section['kind']!r}") from exc
    defaults = _DIAGRAM_DEFAULTS[kind]
    try:
        v_f = float(section.get("free_flow_speed", defaults[0]))
        rho_j = float(section.get("jam_density", defaults[1]))
        return FundamentalDiagram(kind, v_f, rho_j)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{kind.value} diagram: {exc}") from exc


def _build_boundary(section, name):
    """The boundary condition `name` (such as upstream_demand) from its
    config mapping; Neumann when it is absent."""
    if section is None:
        return BoundaryCondition.neumann()
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: a boundary condition must be a mapping, got {section!r}")
    try:
        kind = BoundaryKind(section["kind"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{name}: bad boundary condition {section!r}") from exc
    _known(section, name, _BOUNDARY_KEYS[kind])
    if kind is BoundaryKind.NEUMANN:
        return BoundaryCondition.neumann()
    if kind is BoundaryKind.CONSTANT and "value" not in section:
        raise ConfigError(f"{name}: constant boundary condition needs a value: {section!r}")
    try:
        if kind is BoundaryKind.CONSTANT:
            return BoundaryCondition.constant(section["value"])
        return BoundaryCondition.sinusoid(
            section.get("offset", 0.0), section.get("amplitude", 0.0), section.get("period", 60.0)
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: bad boundary condition {section!r}: {exc}") from exc


def _build_sim(doc, model, diagrams):
    section = _section(doc, "simulation", dict, keys=_SIM_KEYS)
    if section is None:
        return None
    bsec = _section(section, "boundaries", dict, {}, ("upstream_demand", "downstream_supplies"))
    down = _section(bsec, "downstream_supplies", list, [None, None])
    if len(down) != 2:
        raise ConfigError("downstream_supplies needs exactly two entries")
    boundaries = BoundarySpec(
        upstream_demand=_build_boundary(bsec.get("upstream_demand"), "upstream_demand"),
        downstream_supplies=tuple(
            _build_boundary(bc, f"downstream_supplies[{i}]") for i, bc in enumerate(down)
        ),
    )
    try:
        return SimConfig(
            model=model,
            diagrams=diagrams,
            cells_per_link=section["cells_per_link"],
            time_steps=section["time_steps"],
            link_length=float(section.get("link_length", 10.0)),
            horizon=float(section.get("horizon", 360.0)),
            initial_densities=tuple(_section(section, "initial_densities", list, (0.0, 0.0, 0.0))),
            initial_proportions=section.get("initial_proportions"),
            inflow_proportions=section.get("inflow_proportions"),
            boundaries=boundaries,
            snapshot_every=section.get("snapshot_every", 50),
        )
    except KeyError as exc:
        raise ConfigError(f"simulation section is missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _build_axis(value, name):
    if isinstance(value, dict):
        _known(value, name, ("start", "stop", "count"))
    try:
        if isinstance(value, dict):
            return (float(value["start"]), float(value["stop"]), value["count"])
        v = float(value)
    except KeyError as exc:
        raise ConfigError(f"{name} axis needs start/stop/count, missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} axis: {exc}") from exc
    return (v, v, 1)


def build_spec(doc, kind, seed=0):
    """Assemble the ExperimentSpec a CLI subcommand needs from a parsed
    config document."""
    _known(doc, "top level", _TOP_KEYS)
    model = _build_model(doc.get("model"))
    dsec = _section(doc, "diagrams", list)
    if dsec is None:
        diagrams = (del_castillo_mainline(), del_castillo_mainline(), del_castillo_ramp())
    else:
        if len(dsec) != 3:
            raise ConfigError("diagrams must list exactly three entries")
        diagrams = tuple(_build_diagram(d, f"diagrams[{i}]") for i, d in enumerate(dsec))
    sim = _build_sim(doc, model, diagrams)

    sweep_axes = None
    if kind is ExperimentKind.FLUX_MAP:
        fsec = _section(doc, "flux_map", dict, keys=_AXES)
        if fsec is None:
            raise ConfigError("flux-map needs a flux_map section")
        missing = [name for name in _AXES if name not in fsec]
        if missing:
            raise ConfigError(f"flux_map section is missing {', '.join(missing)}")
        sweep_axes = [_build_axis(fsec[name], name) for name in _AXES]
    if sim is None and kind in (ExperimentKind.FLUX_MAP, ExperimentKind.PROPERTY_SUITE):
        # flux maps and the property battery evaluate closed forms only on
        # the config's diagrams; the placeholder grid is never stepped
        sim = SimConfig(
            model=model, diagrams=diagrams, cells_per_link=1, time_steps=1,
            link_length=1.0, horizon=1e-9,
        )

    vsec = _section(doc, "verify", dict, {}, ("tolerance",))
    csec = _section(doc, "convergence", dict, {}, ("resolutions",))
    psec = _section(doc, "properties", dict, {}, ("samples", "wave_samples", "oracle_grid"))
    try:
        return ExperimentSpec(
            kind=kind,
            sim=sim,
            sweep=SweepSpec(*sweep_axes) if sweep_axes else None,
            resolutions=tuple(_section(csec, "resolutions", list, (40, 80, 160))),
            tolerance=float(vsec.get("tolerance", 5e-3)),
            samples=psec.get("samples", 10000),
            wave_samples=psec.get("wave_samples", 2000),
            oracle_grid=psec.get("oracle_grid", 7),
            seed=seed,
            config_hash=config_hash(doc),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
