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
read, so a misspelt key is a ConfigError rather than a silent default; a key
left out or null takes the default its type or diagram factory declares.
_number reads every number field: a string such as 5e-3 (as PyYAML reads it)
is a number, a boolean an error.  Every other rule (integer counts, three
diagrams, two downstream supplies, ranges) is checked by the receiving type.

The configuration hash recorded in reports is the SHA-256 of the parsed
document re-serialized canonically, so formatting and comments do not affect
it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, fields, replace

import yaml

from .ctm import BoundaryCondition, BoundaryKind, BoundarySpec, SimConfig
from .fundamental_diagram import DiagramKind, del_castillo_mainline, del_castillo_ramp, greenshields, triangular
from .harness import ExperimentKind, ExperimentSpec, SweepSpec
from .riemann import DivergeModel, DivergeModelKind

__all__ = ["ConfigError", "load_config", "build_spec", "config_hash"]

# Each diagram kind's factory, under the kind's value (the factory's name).
_FACTORIES = {f.__name__: f for f in (del_castillo_mainline, del_castillo_ramp, triangular, greenshields)}
# The keys each mapping may hold; a boundary's depend on its kind.
_TOP_KEYS = ("model", "diagrams", "simulation", "verify", "convergence", "flux_map", "properties")
_SIM_FIELDS = [f for f in fields(SimConfig) if f.init and f.name not in ("model", "diagrams")]
_SIM_KEYS = tuple(f.name for f in _SIM_FIELDS)
_SIM_REQUIRED = [f.name for f in _SIM_FIELDS if f.default is MISSING and f.default_factory is MISSING]
_AXES = ("demand_upstream", "supply_1", "supply_2")
_BOUNDARY_KEYS = {
    BoundaryKind.NEUMANN: ("kind",),
    BoundaryKind.CONSTANT: ("kind", "value"),
    BoundaryKind.TIME_VARYING: ("kind", "offset", "amplitude", "period"),
}
# The fields _numbers reads with _number wherever they appear: floats, and
# lists of numbers (nested for per-cell data).
_FLOAT_KEYS = ("free_flow_speed", "jam_density", "link_length", "horizon", "tolerance", "value", "offset",
               "amplitude", "period", "start", "stop")
_LIST_KEYS = ("xi", "alpha", "initial_densities", "initial_proportions", "inflow_proportions")


class ConfigError(ValueError):
    """The configuration file is missing or malformed."""


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # libyaml's loader where PyYAML was built with it: same documents,
            # a fraction of the pure-Python parse time
            doc = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
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
    """mapping without its null entries, after checking that it holds only
    keys the loader reads."""
    for key in mapping:
        if key not in keys:
            raise ConfigError(f"{name}: unknown key {key!r} (expected {', '.join(keys)})")
    return {key: value for key, value in mapping.items() if value is not None}


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


def _number(value, where, nested=False):
    """value as a float; where names the mapping and the key in errors.  A
    number string such as 5e-3 is a number, a boolean is not.  With nested,
    a list (at any depth) reads as a tuple of such numbers."""
    if nested and isinstance(value, (list, tuple)):
        return tuple(_number(v, where, nested) for v in value)
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{where} must be {'numbers' if nested else 'a number'}, got {value!r}")


def _numbers(mapping, where):
    """The entries of mapping but its kind, the number fields read by _number."""
    return {key: _number(value, f"{where}: {key}", key in _LIST_KEYS) if key in _FLOAT_KEYS + _LIST_KEYS
            else value for key, value in mapping.items() if key != "kind"}


def _build_model(section):
    if not isinstance(section, dict) or section.get("kind") is None:
        raise ConfigError("model section needs a kind")
    section = _known(section, "model", ("kind", "xi", "alpha"))
    try:
        kind = DivergeModelKind(section["kind"])
    except ValueError as exc:
        raise ConfigError(f"unknown model kind {section['kind']!r}") from exc
    try:
        return DivergeModel(kind, **_numbers(section, "model"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_diagram(section, name):
    if not isinstance(section, dict) or section.get("kind") is None:
        raise ConfigError("each diagram needs a kind")
    section = _known(section, name, ("kind", "free_flow_speed", "jam_density"))
    try:
        kind = DiagramKind(section["kind"])
    except ValueError as exc:
        raise ConfigError(f"unknown diagram kind {section['kind']!r}") from exc
    params = _numbers(section, f"{kind.value} diagram")
    try:
        diagram = _FACTORIES[kind.value]()
        # replace re-runs the diagram's checks and recomputes its capacity
        return replace(diagram, **params) if params else diagram
    except ValueError as exc:
        raise ConfigError(f"{kind.value} diagram: {exc}") from exc


def _build_boundary(section, name):
    """The boundary condition `name` (such as upstream_demand) from its
    config mapping; Neumann when it is absent."""
    if section is None:
        return BoundaryCondition.neumann()
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: a boundary condition must be a mapping, got {section!r}")
    where = f"{name}: bad boundary condition {section!r}"
    try:
        kind = BoundaryKind(section["kind"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(where) from exc
    params = _numbers(_known(section, name, _BOUNDARY_KEYS[kind]), where)
    if kind is BoundaryKind.CONSTANT and "value" not in params:
        raise ConfigError(f"{name}: constant boundary condition needs a value: {section!r}")
    try:
        return BoundaryCondition(kind, **params)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _build_sim(doc, model, diagrams):
    section = _section(doc, "simulation", dict, keys=_SIM_KEYS)
    if section is None:
        return None
    missing = [key for key in _SIM_REQUIRED if key not in section]
    if missing:
        raise ConfigError(f"simulation section is missing {', '.join(missing)}")
    _section(section, "initial_densities", list)  # a list, though _number would read a scalar
    bsec = _section(section, "boundaries", dict, {}, ("upstream_demand", "downstream_supplies"))
    up = _build_boundary(bsec.get("upstream_demand"), "upstream_demand")
    down = _section(bsec, "downstream_supplies", list, [None, None])
    down = [_build_boundary(bc, f"downstream_supplies[{i}]") for i, bc in enumerate(down)]
    try:
        boundaries = BoundarySpec(up, down)
        return SimConfig(model, diagrams, **dict(_numbers(section, "simulation"), boundaries=boundaries))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _build_axis(value, name):
    if not isinstance(value, dict):
        v = _number(value, f"flux_map: {name}")
        return (v, v, 1)
    axis = _numbers(_known(value, name, ("start", "stop", "count")), f"{name} axis")
    try:
        return (axis["start"], axis["stop"], axis["count"])
    except KeyError as exc:
        raise ConfigError(f"{name} axis needs start/stop/count, missing {exc}") from exc


def build_spec(doc, kind, seed=0):
    """Assemble the ExperimentSpec a CLI subcommand needs from a parsed
    config document."""
    _known(doc, "top level", _TOP_KEYS)
    model = _build_model(doc.get("model"))
    dsec = _section(doc, "diagrams", list)
    if dsec is None:
        diagrams = (del_castillo_mainline(), del_castillo_mainline(), del_castillo_ramp())
    else:
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

    verify = _numbers(_section(doc, "verify", dict, {}, ("tolerance",)), "verify")
    csec = _section(doc, "convergence", dict, {}, ("resolutions",))
    convergence = {"resolutions": tuple(_section(csec, "resolutions", list))} if csec else {}
    properties = _section(doc, "properties", dict, {}, ("samples", "wave_samples", "oracle_grid"))
    try:
        if sim is None and kind in (ExperimentKind.FLUX_MAP, ExperimentKind.PROPERTY_SUITE):
            # flux maps and the property battery evaluate closed forms only
            # on the config's diagrams; the placeholder grid is never stepped,
            # and its one step has CFL number 1 whatever the diagrams' speeds
            # (SimConfig rejects a list without three diagrams)
            horizon = 1.0 / max(fd.max_wave_speed for fd in diagrams) if diagrams else 1.0
            sim = SimConfig(model, diagrams, cells_per_link=1, time_steps=1, link_length=1.0, horizon=horizon)
        return ExperimentSpec(
            kind, sim, SweepSpec(*sweep_axes) if sweep_axes else None, seed=seed, config_hash=config_hash(doc),
            **verify, **convergence, **properties,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
