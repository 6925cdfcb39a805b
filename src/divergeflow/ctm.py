"""Godunov (cell transmission) simulator for the three-link diverge network.

Each link is split into M cells of size dx = L / M and advanced over N steps
of size dt = T / N with the conservative update

    rho[m] += (dt / dx) * (q[m - 1/2] - q[m + 1/2]).

Interface fluxes between cells are min(demand of the left cell, supply of the
right cell).  The junction interface evaluates the diverge rule on the last
upstream cell's demand, the first downstream cells' supplies, and the last
upstream cell's commodity proportions; the upstream out-flux is the sum of
the two downstream in-fluxes.  Boundary ghost cells copy the adjacent cell's
demand or supply (Neumann), hold a constant flux, or follow the sinusoid
a + b * sin(pi * t / c), clamped to [0, capacity].

Commodity proportions on the upstream link advect with the flow:

    xi[m] <- (rho_old[m] * xi[m]
              + (dt/dx) * (q_in * xi[m-1] - commodity out-flux)) / rho_new[m]

where the commodity out-flux is xi[m] * q_out inside the link and the
commodity's own junction flux at the last cell.  Empty cells keep their
previous proportion.

One step kernel advances a batch of B scenarios.  Its state is a (B, 3, M)
density array and a (B, C, M) proportion array, C the tracked-commodity
count, stepped through one (B, 3, M + 1) face array.  The members share the
grid, the diagrams, the boundaries and C, and may differ in model, initial
data and inflow mix.  Links that share a diagram share one evaluation of its
flux law, and each boundary is evaluated once per step for the whole batch;
only the junction rule runs once per member.  run_batch(configs) gives one
Trajectory per member, each bitwise the trajectory of that config alone, and
run(config) is run_batch([config])[0]; a trajectory's last snapshot is the
state after step N.  The step records the junction row (q0, q1, q2, D0, S1,
S2, x1) followed by the boundary in-flux and out-flux.  Densities are
validated when the SimConfig is built, not in the step; the density guard and
a clip keep them in [0, jam_density], and the guard and the conservation
check name the member that fails.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .fundamental_diagram import FundamentalDiagram, _demand_supply_from_flow
from .riemann import _FIFO_KINDS, DivergeModel, DivergeModelKind, junction_fluxes

__all__ = [
    "BoundaryKind",
    "BoundaryCondition",
    "BoundarySpec",
    "SimConfig",
    "JunctionTrace",
    "Trajectory",
    "NumericalStabilityError",
    "run",
    "run_batch",
    "solution_difference",
]

# A cell may leave [0, jam_density] by at most this much before the step is
# declared unstable; smaller excursions are clipped as float noise.
DENSITY_GUARD = 1e-9
# Cells emptier than this keep their previous commodity proportion.
EMPTY_CELL_TOL = 1e-12


class NumericalStabilityError(RuntimeError):
    """A density left [0, jam_density] beyond the float-noise guard."""


class BoundaryKind(enum.Enum):
    NEUMANN = "neumann"
    CONSTANT = "constant"
    TIME_VARYING = "time_varying"


@dataclass(frozen=True)
class BoundaryCondition:
    """Ghost-cell demand (upstream end) or supply (downstream ends).

    TIME_VARYING evaluates offset + amplitude * sin(pi * t / period) and
    clamps to [0, capacity].  Every parameter must be finite and the period
    positive.
    """

    kind: BoundaryKind
    value: float = 0.0
    offset: float = 0.0
    amplitude: float = 0.0
    period: float = 60.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.value, self.offset, self.amplitude, self.period)):
            raise ValueError(f"boundary parameters must be finite, got {self}")
        if not self.period > 0.0:
            raise ValueError(f"sinusoid period must be positive, got {self.period}")

    @classmethod
    def neumann(cls):
        return cls(BoundaryKind.NEUMANN)

    @classmethod
    def constant(cls, value):
        return cls(BoundaryKind.CONSTANT, value=float(value))

    @classmethod
    def sinusoid(cls, offset, amplitude, period):
        return cls(
            BoundaryKind.TIME_VARYING,
            offset=float(offset),
            amplitude=float(amplitude),
            period=float(period),
        )

    def evaluate(self, time, capacity, neumann_value):
        if self.kind is BoundaryKind.NEUMANN:
            return neumann_value
        if self.kind is BoundaryKind.CONSTANT:
            v = self.value
        else:
            v = self.offset + self.amplitude * math.sin(math.pi * time / self.period)
        return min(max(v, 0.0), capacity)


@dataclass(frozen=True)
class BoundarySpec:
    upstream_demand: BoundaryCondition = field(default_factory=BoundaryCondition.neumann)
    downstream_supplies: tuple[BoundaryCondition, BoundaryCondition] = (
        BoundaryCondition.neumann(),
        BoundaryCondition.neumann(),
    )


def _is_integer(value):
    """Is value a Python or numpy integer?  A bool is not, though Python
    makes it an int."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _require_count(name, value):
    """Raise ValueError unless value is an integer of at least 1; a float
    such as 20.9 or a bool is rejected, not truncated."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


def _as_cell_array(value, cells):
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(cells, float(arr))
    if arr.shape != (cells,):
        raise ValueError(f"expected scalar or array of {cells} cells, got shape {arr.shape}")
    return arr.copy()


@dataclass
class SimConfig:
    """Discretization, physics, and boundary data for one simulation.

    initial_densities holds one scalar or per-cell array for each of the three
    links (upstream, downstream 1, downstream 2).  initial_proportions is the
    commodity-1 proportion on the upstream link (scalar or per-cell), or a
    pair of proportions when the model is PARTIAL_EVACUATION (both routed
    commodities are tracked).  inflow_proportions is the commodity mix of
    traffic entering the upstream boundary, a scalar or a commodity pair (a
    pair when two commodities are tracked); it defaults to the initial mix of
    the first upstream cell.  inflow_mix and jam_column are derived from them.
    """

    model: DivergeModel
    diagrams: tuple[FundamentalDiagram, FundamentalDiagram, FundamentalDiagram]
    cells_per_link: int
    time_steps: int
    link_length: float = 10.0
    horizon: float = 360.0
    initial_densities: tuple = (0.0, 0.0, 0.0)
    initial_proportions: object = None
    inflow_proportions: object = None
    boundaries: BoundarySpec = field(default_factory=BoundarySpec)
    snapshot_every: int = 50
    inflow_mix: np.ndarray = field(init=False, repr=False, compare=False)
    jam_column: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.diagrams = tuple(self.diagrams)
        if len(self.diagrams) != 3:
            raise ValueError("exactly three fundamental diagrams are required")
        if len(self.initial_densities) != 3:
            raise ValueError(
                f"initial_densities needs one entry per link (three), got {len(self.initial_densities)}"
            )
        for name in ("cells_per_link", "time_steps", "snapshot_every"):
            _require_count(name, getattr(self, name))
        if not (self.link_length > 0.0 and self.horizon > 0.0):
            raise ValueError("link_length and horizon must be positive")
        vmax = max(fd.max_wave_speed for fd in self.diagrams)
        if vmax * self.dt / self.dx > 1.0 + 1e-12:
            raise ValueError(
                f"CFL violated: max|Q'| * dt/dx = {vmax * self.dt / self.dx:.6f} > 1"
            )
        bc = self.boundaries.upstream_demand
        if bc.kind is BoundaryKind.CONSTANT and not (
            0.0 <= bc.value <= self.diagrams[0].capacity
        ):
            raise ValueError("constant boundary demand outside [0, capacity]")
        for i, bc in enumerate(self.boundaries.downstream_supplies):
            if bc.kind is BoundaryKind.CONSTANT and not (
                0.0 <= bc.value <= self.diagrams[1 + i].capacity
            ):
                raise ValueError("constant boundary supply outside [0, capacity]")
        self.jam_column = np.array([[fd.jam_density] for fd in self.diagrams])
        densities, props = self._initial_arrays()
        if not (densities.min() >= 0.0 and np.all(densities <= self.jam_column)):
            raise ValueError("initial density outside [0, jam_density]")
        self.inflow_mix = inflow = self._inflow_mix(props)
        if not (props.min() >= 0.0 and props.sum(axis=0).max() <= 1.0 + 1e-12
                and inflow.min() >= 0.0 and inflow.sum() <= 1.0 + 1e-12):
            raise ValueError("proportions must lie in [0, 1] with sum at most 1")

    @property
    def dt(self):
        return self.horizon / self.time_steps

    @property
    def dx(self):
        return self.link_length / self.cells_per_link

    @property
    def tracked_commodities(self):
        return 2 if self.model.kind is DivergeModelKind.PARTIAL_EVACUATION else 1

    def _default_proportions(self):
        if self.model.xi is not None:
            return self.model.xi if self.tracked_commodities == 2 else self.model.xi[0]
        return 1.0

    def _initial_arrays(self):
        m = self.cells_per_link
        densities = np.stack([_as_cell_array(rho, m) for rho in self.initial_densities])
        raw = self.initial_proportions
        if raw is None:
            raw = self._default_proportions()
        if self.tracked_commodities == 2:
            if not isinstance(raw, (tuple, list, np.ndarray)) or len(raw) != 2:
                raise ValueError(f"two tracked commodities need a pair of proportions, got {raw!r}")
            props = np.stack([_as_cell_array(raw[0], m), _as_cell_array(raw[1], m)])
        else:
            if isinstance(raw, (tuple, list)) and len(raw) == 2:
                raw = raw[0]  # commodity 2 is the complement
            props = _as_cell_array(raw, m)[None, :]
        return densities, props

    def _inflow_mix(self, props):
        raw = self.inflow_proportions
        if raw is None:
            return props[:, 0].copy()
        mix = np.array(raw, dtype=float)
        if mix.shape == (2,):
            return mix[: self.tracked_commodities]
        if mix.shape == () and self.tracked_commodities == 1:
            return mix[None]
        need = "a pair" if self.tracked_commodities == 2 else "a scalar or a pair"
        raise ValueError(f"inflow_proportions must be {need} of commodity proportions, got {raw!r}")


def _proportion_update(rho_old, rho_new, xi_old, xi_upstream, q_in, q_out, dt_over_dx, commodity_outflux):
    """One conservative update of the commodity proportions of the cells,
    as arrays.

    commodity_outflux is xi_old * q_out where the commodity advects with the
    total flow, and the diverge rule's own commodity flux at the junction
    cell.  Cells with rho_new below EMPTY_CELL_TOL keep xi_old, as does any
    cell whose inflow mix and outflow split leave the mix unchanged (this
    keeps uniform proportions bitwise constant).  The result is clipped to
    [0, 1].
    """
    unchanged = (xi_upstream == xi_old) & (commodity_outflux == xi_old * q_out)
    empty = rho_new < EMPTY_CELL_TOL
    safe_rho = np.where(empty, 1.0, rho_new)
    mixed = (rho_old * xi_old + dt_over_dx * (q_in * xi_upstream - commodity_outflux)) / safe_rho
    return np.where(unchanged | empty, xi_old, np.minimum(np.maximum(mixed, 0.0), 1.0))


# Fields every member of a batch shares; run_batch checks them first.
_SHARED_FIELDS = (
    "cells_per_link", "time_steps", "dt", "dx", "diagrams", "boundaries", "snapshot_every", "tracked_commodities",
)


def _diagram_groups(diagrams):
    """(diagram, links) for each distinct diagram, links a slice where they
    are adjacent, so that links sharing a diagram share one evaluation."""
    links = {}
    for i, fd in enumerate(diagrams):
        links.setdefault(fd, []).append(i)
    return [
        (fd, slice(ix[0], ix[-1] + 1) if ix[-1] - ix[0] == len(ix) - 1 else ix)
        for fd, ix in links.items()
    ]


class _Ensemble:
    """The step kernel of a batch of B configs and the constants it reads.

    The state is a (B, 3, M) density array and a (B, C, M) proportion
    array, C the tracked-commodity count.  Members share the grid, the
    diagrams, the boundaries and C; they may differ in model, initial data
    and inflow mix.
    """

    def __init__(self, configs):
        if not configs:
            raise ValueError("a batch needs at least one config")
        first = configs[0]
        for name in _SHARED_FIELDS:
            for member, cfg in enumerate(configs[1:], start=1):
                if getattr(cfg, name) != getattr(first, name):
                    raise ValueError(f"batch members must share {name}; member {member} differs from member 0")
        self.models = [cfg.model for cfg in configs]
        self.face_shape = (len(configs), 3, first.cells_per_link + 1)
        self.groups = _diagram_groups(first.diagrams)
        self.critical = np.array([[fd.critical_density] for fd in first.diagrams])
        self.capacity = np.array([[fd.capacity] for fd in first.diagrams])
        self.jam = first.jam_column
        self.jam_guard = first.jam_column + DENSITY_GUARD
        self.boundaries = first.boundaries
        self.dt = first.dt
        self.ratio = first.dt / first.dx
        self.inflow_mix = np.stack([cfg.inflow_mix for cfg in configs])
        self.evacuating = first.tracked_commodities == 2
        self.fifo = np.array([[m.kind in _FIFO_KINDS] for m in self.models])

    def advance(self, rho, x, k, record):
        """The state after step k from (rho, x); each member's row of record
        (B, 9) gets (q0, q1, q2, D0, S1, S2, x1, inflow, outflow)."""
        time = k * self.dt
        flow = np.empty_like(rho)
        for fd, links in self.groups:
            flow[:, links] = fd._flow(rho[:, links])
        demand, supply = _demand_supply_from_flow(rho, flow, self.critical, self.capacity)

        # the junction rule, once per member, on (D0, S1, S2) and the last
        # upstream cell's mix; the row is record's (q0, q1, q2, D0, S1, S2, x1)
        d0, last = demand[:, 0, -1], x[:, :, -1]
        record[:, :7] = [
            (*junction_fluxes(model, d, (a, b), xi if self.evacuating else (xi[0], 1.0 - xi[0])), d, a, b, xi[0])
            for model, d, a, b, xi in zip(self.models, d0.tolist(), supply[:, 1, 0].tolist(),
                                          supply[:, 2, 0].tolist(), last.tolist())
        ]
        q = record[:, :3]

        faces = np.empty(self.face_shape)
        np.minimum(demand[:, :, :-1], supply[:, :, 1:], out=faces[:, :, 1:-1])
        ghost = self.boundaries.upstream_demand.evaluate(time, self.capacity[0, 0], demand[:, 0, 0])
        faces[:, 0, 0] = np.minimum(ghost, supply[:, 0, 0])
        faces[:, 0, -1] = q[:, 0]
        faces[:, 1:, 0] = q[:, 1:]
        for i, bc in enumerate(self.boundaries.downstream_supplies, start=1):
            ghost = bc.evaluate(time, self.capacity[i, 0], supply[:, i, -1])
            faces[:, i, -1] = np.minimum(demand[:, i, -1], ghost)

        rho_new = rho + self.ratio * (faces[:, :, :-1] - faces[:, :, 1:])
        outside = (rho_new < -DENSITY_GUARD) | (rho_new > self.jam_guard)
        if outside.any():
            member, link = np.argwhere(outside.any(axis=2))[0]
            raise NumericalStabilityError(
                f"density left [0, {self.jam[link, 0]}] in member {member}"
                f" on link {link} at step {k}"
            )
        np.minimum(np.maximum(rho_new, 0.0, out=rho_new), self.jam, out=rho_new)

        q_in, q_out = faces[:, :1, :-1], faces[:, :1, 1:]
        x_up = np.empty_like(x)
        x_up[:, :, 0] = self.inflow_mix
        x_up[:, :, 1:] = x[:, :, :-1]
        commodity_out = x * q_out
        if self.evacuating:
            # routed vehicles claim their share of the link flux first
            commodity_out[:, :, -1] = np.minimum(last * d0[:, None], q[:, 1:])
        else:
            # all flow entering link 1 is routed commodity 1; without routes
            # the one commodity rides along
            commodity_out[:, :, -1] = np.where(self.fifo, q[:, 1:2], last * q[:, :1])
        x_new = _proportion_update(rho[:, :1], rho_new[:, :1], x, x_up, q_in, q_out, self.ratio, commodity_out)

        record[:, 7] = faces[:, 0, 0]
        record[:, 8] = faces[:, 1, -1] + faces[:, 2, -1]
        return rho_new, x_new


@dataclass
class JunctionTrace:
    """Per-step junction data: fluxes, the interior demand/supplies they were
    computed from, and the commodity-1 proportion in the last upstream cell.
    The field names are junction.csv's header."""

    step: np.ndarray
    q0: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    demand_upstream: np.ndarray
    supply_down1: np.ndarray
    supply_down2: np.ndarray
    proportion1: np.ndarray


@dataclass
class Trajectory:
    """Recorded output of a simulation run; the last snapshot is the state
    after the final step."""

    config: SimConfig
    snapshot_steps: np.ndarray
    densities: np.ndarray  # (snapshots, 3, cells)
    proportions: np.ndarray  # (snapshots, tracked, cells)
    junction: JunctionTrace
    inflow_total: float
    outflow_total: float
    initial_vehicles: float
    final_vehicles: float

    def conservation_drift(self):
        """Relative disagreement between the vehicle-count change and the
        time-integrated net boundary flux."""
        change = self.final_vehicles - self.initial_vehicles
        net = self.inflow_total - self.outflow_total
        return abs(change - net) / max(self.initial_vehicles, 1.0)


def _vehicles(densities, dx):
    """Vehicles on the three links of a (3, cells) density array: the
    per-link sums added in link order, times dx."""
    return float(sum(link.sum() for link in densities) * dx)


def run_batch(configs):
    """Run configs that share a grid, diagrams and boundaries as one batch,
    stepping their (B, 3, M) state together; returns one Trajectory each,
    bitwise the trajectory the config gives alone.

    Full fields are stored every snapshot_every steps (plus the initial and
    final step); junction quantities are stored every step.  Raises
    ValueError, naming the field, when the members differ in what they must
    share, and NumericalStabilityError, naming the member, when a density
    leaves its range or a member's vehicle count drifts more than 1e-8 from
    its boundary fluxes.
    """
    configs = list(configs)
    kernel = _Ensemble(configs)
    first = configs[0]
    n = first.time_steps
    rho, x = map(np.stack, zip(*(cfg._initial_arrays() for cfg in configs)))

    snapshot_steps = list(range(0, n + 1, first.snapshot_every))
    if snapshot_steps[-1] != n:
        snapshot_steps.append(n)
    densities = np.empty((len(snapshot_steps),) + rho.shape)
    proportions = np.empty((len(snapshot_steps),) + x.shape)
    densities[0], proportions[0] = rho, x
    record = np.empty((n, len(configs), 9))
    snap = 1
    for k in range(n):
        rho, x = kernel.advance(rho, x, k, record[k])
        if k + 1 == snapshot_steps[snap]:
            densities[snap], proportions[snap] = rho, x
            snap += 1
    # boundary totals summed step by step from zero, as the steps ran
    totals = np.add.accumulate(
        np.concatenate([np.zeros((1, len(configs), 2)), record[:, :, 7:] * first.dt]), axis=0
    )[-1]

    trajectories = []
    for member, cfg in enumerate(configs):
        trajectory = Trajectory(
            config=cfg,
            snapshot_steps=np.array(snapshot_steps),
            densities=densities[:, member],
            proportions=proportions[:, member],
            junction=JunctionTrace(np.arange(n), *record[:, member, :7].T),
            inflow_total=float(totals[member, 0]),
            outflow_total=float(totals[member, 1]),
            initial_vehicles=_vehicles(densities[0, member], cfg.dx),
            final_vehicles=_vehicles(densities[-1, member], cfg.dx),
        )
        drift = trajectory.conservation_drift()
        if not drift <= 1e-8:  # NaN drift fails too
            raise NumericalStabilityError(
                f"member {member}: vehicle count drifted {drift:.3e} relative to the boundary fluxes"
            )
        trajectories.append(trajectory)
    return trajectories


def run(config):
    """Run the full horizon of one config: run_batch on a batch of one."""
    return run_batch([config])[0]


def solution_difference(traj_a, traj_b, dx):
    """L1 density distance sum_links sum_cells |rho_a - rho_b| * dx at every
    recorded snapshot.  The trajectories must share the grid and snapshot
    schedule."""
    if traj_a.densities.shape != traj_b.densities.shape:
        raise ValueError("trajectories use different grids")
    if not np.array_equal(traj_a.snapshot_steps, traj_b.snapshot_steps):
        raise ValueError("trajectories recorded different snapshot steps")
    for traj in (traj_a, traj_b):
        if abs(traj.config.dx - dx) > 1e-12:
            raise ValueError(f"dx {dx} does not match trajectory dx {traj.config.dx}")
    diff = np.abs(traj_a.densities - traj_b.densities)
    return diff.sum(axis=(1, 2)) * dx
