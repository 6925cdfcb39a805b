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

The state holds the three links as one (3, M) density array, and step
advances them together through one (3, M + 1) face array.  It returns
(new_state, record): the junction row (q0, q1, q2, D0, S1, S2, x1) followed
by the boundary in-flux and out-flux.  Densities are validated when the
SimConfig is built, not in the step; the density guard and a clip keep them
in [0, jam_density].
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .fundamental_diagram import FundamentalDiagram
from .riemann import DivergeModel, DivergeModelKind, junction_fluxes

__all__ = [
    "BoundaryKind",
    "BoundaryCondition",
    "BoundarySpec",
    "SimConfig",
    "SimState",
    "JunctionTrace",
    "Trajectory",
    "NumericalStabilityError",
    "proportion_update",
    "step",
    "run",
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
        if self.cells_per_link < 1 or self.time_steps < 1:
            raise ValueError("cells_per_link and time_steps must be positive")
        if not (self.link_length > 0.0 and self.horizon > 0.0):
            raise ValueError("link_length and horizon must be positive")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be positive")
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

    def initial_state(self):
        """The state at step 0; its data were validated at construction."""
        densities, props = self._initial_arrays()
        return SimState(densities, props, 0)

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


@dataclass
class SimState:
    """Cell densities of the three links as one (3, cells) array, plus the
    tracked commodity proportions on link 0."""

    densities: np.ndarray  # shape (3, cells)
    proportions: np.ndarray  # shape (tracked_commodities, cells)
    step_index: int

    def vehicles(self, dx):
        return float(sum(arr.sum() for arr in self.densities) * dx)


def proportion_update(
    rho_old,
    rho_new,
    xi_old,
    xi_upstream,
    q_in,
    q_out,
    dt_over_dx,
    commodity_outflux=None,
):
    """One conservative update of a commodity proportion in a cell.

    commodity_outflux defaults to xi_old * q_out (the commodity advects with
    the total flow); the junction cell passes the diverge rule's own commodity
    flux instead.  Cells with rho_new below EMPTY_CELL_TOL keep xi_old, as
    does any cell whose inflow mix and outflow split leave the mix unchanged
    (this keeps uniform proportions bitwise constant).  The result is clipped
    to [0, 1].
    """
    rho_old = np.asarray(rho_old, dtype=float)
    rho_new = np.asarray(rho_new, dtype=float)
    xi_old = np.asarray(xi_old, dtype=float)
    xi_upstream = np.asarray(xi_upstream, dtype=float)
    q_in = np.asarray(q_in, dtype=float)
    q_out = np.asarray(q_out, dtype=float)
    if commodity_outflux is None:
        commodity_outflux = xi_old * q_out
    commodity_outflux = np.asarray(commodity_outflux, dtype=float)
    unchanged = (xi_upstream == xi_old) & (commodity_outflux == xi_old * q_out)
    empty = rho_new < EMPTY_CELL_TOL
    safe_rho = np.where(empty, 1.0, rho_new)
    mixed = (rho_old * xi_old + dt_over_dx * (q_in * xi_upstream - commodity_outflux)) / safe_rho
    out = np.where(unchanged | empty, xi_old, np.clip(mixed, 0.0, 1.0))
    return float(out) if out.ndim == 0 else out


def step(state, config):
    """Advance all three links by one time step; returns (new_state, record)
    with record = (q0, q1, q2, D0, S1, S2, x1, inflow, outflow)."""
    fds = config.diagrams
    ratio = config.dt / config.dx
    time = state.step_index * config.dt
    rho, x = state.densities, state.proportions

    ds = np.array([fd._demand_supply(r) for fd, r in zip(fds, rho)])  # (3, 2, M)
    demand, supply = ds[:, 0], ds[:, 1]

    last = x[:, -1]
    turning = (last[0], 1.0 - last[0]) if config.tracked_commodities == 1 else tuple(last)
    q_junction = tuple(
        float(q) for q in junction_fluxes(config.model, demand[0, -1], (supply[1, 0], supply[2, 0]), turning)
    )

    faces = np.empty((3, config.cells_per_link + 1))
    faces[:, 1:-1] = np.minimum(demand[:, :-1], supply[:, 1:])
    ghost_demand = config.boundaries.upstream_demand.evaluate(
        time, fds[0].capacity, neumann_value=demand[0, 0]
    )
    faces[0, 0] = min(ghost_demand, supply[0, 0])
    faces[0, -1], faces[1, 0], faces[2, 0] = q_junction
    for i, bc in enumerate(config.boundaries.downstream_supplies, start=1):
        ghost_supply = bc.evaluate(time, fds[i].capacity, neumann_value=supply[i, -1])
        faces[i, -1] = min(demand[i, -1], ghost_supply)

    rho_new = rho + ratio * (faces[:, :-1] - faces[:, 1:])
    outside = (rho_new < -DENSITY_GUARD) | (rho_new > config.jam_column + DENSITY_GUARD)
    if outside.any():
        link = int(outside.any(axis=1).argmax())
        raise NumericalStabilityError(
            f"density left [0, {fds[link].jam_density}] on link {link} at step {state.step_index}"
        )
    rho_new = np.clip(rho_new, 0.0, config.jam_column)

    q_in, q_out = faces[0, :-1], faces[0, 1:]
    x_up = np.empty_like(x)
    x_up[:, 0] = config.inflow_mix
    x_up[:, 1:] = x[:, :-1]
    commodity_out = x * q_out
    kind = config.model.kind
    if kind in (DivergeModelKind.DAGANZO_FIFO, DivergeModelKind.LEBACQUE):
        commodity_out[0, -1] = q_junction[1]  # all flow entering link 1 is routed commodity 1
    elif kind is DivergeModelKind.PARTIAL_EVACUATION:
        # routed vehicles claim their share of the link flux first
        commodity_out[:, -1] = np.minimum(last * demand[0, -1], q_junction[1:])
    else:
        commodity_out[0, -1] = last[0] * q_junction[0]  # no routes: one commodity rides along
    x_new = proportion_update(
        rho[0], rho_new[0], x, x_up, q_in, q_out, ratio, commodity_outflux=commodity_out
    )

    record = q_junction + (
        float(demand[0, -1]),
        float(supply[1, 0]),
        float(supply[2, 0]),
        float(last[0]),
        float(faces[0, 0]),
        float(faces[1, -1] + faces[2, -1]),
    )
    return SimState(rho_new, x_new, state.step_index + 1), record


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
    """Recorded output of a simulation run."""

    config: SimConfig
    snapshot_steps: np.ndarray
    densities: np.ndarray  # (snapshots, 3, cells)
    proportions: np.ndarray  # (snapshots, tracked, cells)
    junction: JunctionTrace
    inflow_total: float
    outflow_total: float
    initial_vehicles: float
    final_vehicles: float
    final_state: SimState

    def conservation_drift(self):
        """Relative disagreement between the vehicle-count change and the
        time-integrated net boundary flux."""
        change = self.final_vehicles - self.initial_vehicles
        net = self.inflow_total - self.outflow_total
        return abs(change - net) / max(self.initial_vehicles, 1.0)


def run(config):
    """Run the full horizon and record snapshots plus the junction trace.

    Full fields are stored every config.snapshot_every steps (plus the initial
    and final step); junction quantities are stored every step.
    """
    state = config.initial_state()
    n = config.time_steps
    dt = config.dt

    snapshots = [state]
    junction = np.empty((n, 7))
    inflow_total = 0.0
    outflow_total = 0.0
    initial_vehicles = state.vehicles(config.dx)

    for k in range(n):
        state, record = step(state, config)
        junction[k] = record[:7]
        inflow_total += record[7] * dt
        outflow_total += record[8] * dt
        if state.step_index % config.snapshot_every == 0 or state.step_index == n:
            snapshots.append(state)

    trajectory = Trajectory(
        config=config,
        snapshot_steps=np.array([s.step_index for s in snapshots]),
        densities=np.stack([s.densities for s in snapshots]),
        proportions=np.stack([s.proportions for s in snapshots]),
        junction=JunctionTrace(np.arange(n), *junction.T),
        inflow_total=inflow_total,
        outflow_total=outflow_total,
        initial_vehicles=initial_vehicles,
        final_vehicles=state.vehicles(config.dx),
        final_state=state,
    )
    drift = trajectory.conservation_drift()
    if not drift <= 1e-8:  # NaN drift fails too
        raise NumericalStabilityError(
            f"vehicle count drifted {drift:.3e} relative to the boundary fluxes"
        )
    return trajectory


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
