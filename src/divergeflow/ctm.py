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

    initial_densities holds one scalar or per-cell array per link (upstream,
    downstream 1, downstream 2).  initial_proportions is the commodity-1
    proportion on the upstream link (scalar or per-cell), or a pair of
    proportions when the model is PARTIAL_EVACUATION (both routed commodities
    are tracked).  inflow_proportions is the commodity mix of traffic entering
    the upstream boundary; it defaults to the model's turning proportions.
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

    def __post_init__(self):
        self.diagrams = tuple(self.diagrams)
        if len(self.diagrams) != 3:
            raise ValueError("exactly three fundamental diagrams are required")
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
        densities, props = self._initial_arrays()
        for fd, arr in zip(self.diagrams, densities):
            if not (arr.min() >= 0.0 and arr.max() <= fd.jam_density):
                raise ValueError("initial density outside [0, jam_density]")
        inflow = self._inflow_mix()
        if not (props.min() >= 0.0 and props.sum(axis=0).max() <= 1.0 + 1e-12
                and min(inflow) >= 0.0 and sum(inflow) <= 1.0 + 1e-12):
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
        densities = tuple(_as_cell_array(rho, m) for _, rho in zip(self.diagrams, self.initial_densities))
        raw = self.initial_proportions
        if raw is None:
            raw = self._default_proportions()
        if self.tracked_commodities == 2:
            raw = tuple(raw)
            if len(raw) != 2:
                raise ValueError("two tracked commodities need a pair of proportions")
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

    def _inflow_mix(self):
        raw = self.inflow_proportions
        if raw is None:
            raw = self.initial_proportions
        if raw is None:
            raw = self._default_proportions()
        if self.tracked_commodities == 2:
            return (float(raw[0]), float(raw[1]))
        if isinstance(raw, (tuple, list)) and len(raw) == 2:
            raw = raw[0]
        arr = np.asarray(raw, dtype=float)
        return (float(arr.flat[0]),)


@dataclass
class SimState:
    """Cell densities per link plus tracked commodity proportions on link 0."""

    densities: tuple[np.ndarray, np.ndarray, np.ndarray]
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


def _junction_commodity_outflux(model, state, demand_last, q_junction):
    """Per-tracked-commodity flux leaving the last upstream cell through the
    junction."""
    kind = model.kind
    q0j, q1j, q2j = q_junction
    if kind in (DivergeModelKind.DAGANZO_FIFO, DivergeModelKind.LEBACQUE):
        return (q1j,)  # all flow entering link 1 is routed commodity 1
    if kind is DivergeModelKind.PARTIAL_EVACUATION:
        x1 = state.proportions[0, -1]
        x2 = state.proportions[1, -1]
        # routed vehicles claim their share of the link flux first
        return (min(x1 * demand_last, q1j), min(x2 * demand_last, q2j))
    # no predefined routes: a single commodity rides along with the flow
    return (state.proportions[0, -1] * q0j,)


def _advance(state, config):
    fds = config.diagrams
    ratio = config.dt / config.dx
    time = state.step_index * config.dt
    cells = config.cells_per_link

    demands, supplies = zip(*(fd.demand_supply(rho) for fd, rho in zip(fds, state.densities)))

    if config.tracked_commodities == 1:
        x1_last = state.proportions[0, -1]
        junction_props = (x1_last, 1.0 - x1_last)
    else:
        junction_props = (state.proportions[0, -1], state.proportions[1, -1])
    q_junction = junction_fluxes(
        config.model, demands[0][-1], (supplies[1][0], supplies[2][0]), junction_props
    )
    q_junction = tuple(float(q) for q in q_junction)

    faces = []
    ghost_demand = config.boundaries.upstream_demand.evaluate(
        time, fds[0].capacity, neumann_value=demands[0][0]
    )
    f0 = np.empty(cells + 1)
    f0[0] = min(ghost_demand, supplies[0][0])
    f0[1:cells] = np.minimum(demands[0][:-1], supplies[0][1:])
    f0[cells] = q_junction[0]
    faces.append(f0)
    for i in (1, 2):
        bc = config.boundaries.downstream_supplies[i - 1]
        ghost_supply = bc.evaluate(time, fds[i].capacity, neumann_value=supplies[i][-1])
        fi = np.empty(cells + 1)
        fi[0] = q_junction[i]
        fi[1:cells] = np.minimum(demands[i][:-1], supplies[i][1:])
        fi[cells] = min(demands[i][-1], ghost_supply)
        faces.append(fi)

    new_densities = []
    for i, fd in enumerate(fds):
        rho_new = state.densities[i] + ratio * (faces[i][:-1] - faces[i][1:])
        if np.any(rho_new < -DENSITY_GUARD) or np.any(rho_new > fd.jam_density + DENSITY_GUARD):
            raise NumericalStabilityError(
                f"density left [0, {fd.jam_density}] on link {i} at step {state.step_index}"
            )
        new_densities.append(np.clip(rho_new, 0.0, fd.jam_density))

    inflow_mix = config._inflow_mix()
    commodity_out_last = _junction_commodity_outflux(
        config.model, state, demands[0][-1], q_junction
    )
    new_props = np.empty_like(state.proportions)
    q_in = faces[0][:-1]
    q_out = faces[0][1:]
    for c in range(config.tracked_commodities):
        xi = state.proportions[c]
        xi_up = np.empty(cells)
        xi_up[0] = inflow_mix[c]
        xi_up[1:] = xi[:-1]
        com_out = xi * q_out
        com_out[-1] = commodity_out_last[c]
        new_props[c] = proportion_update(
            state.densities[0], new_densities[0], xi, xi_up, q_in, q_out, ratio,
            commodity_outflux=com_out,
        )

    new_state = SimState(tuple(new_densities), new_props, state.step_index + 1)
    diagnostics = {
        "q_junction": q_junction,
        "demand_last": float(demands[0][-1]),
        "supply_first": (float(supplies[1][0]), float(supplies[2][0])),
        "proportion_last": float(state.proportions[0, -1]),
        "inflow": float(f0[0]),
        "outflow": float(faces[1][-1] + faces[2][-1]),
    }
    return new_state, diagnostics


def step(state, config):
    """Advance the simulation by one time step and return the new state."""
    return _advance(state, config)[0]


@dataclass
class JunctionTrace:
    """Per-step junction data: fluxes, the interior demand/supplies they were
    computed from, and the commodity-1 proportion in the last upstream cell."""

    steps: np.ndarray
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
    dx = config.dx
    dt = config.dt

    snap_steps = [0]
    snap_rho = [np.stack(state.densities)]
    snap_props = [state.proportions.copy()]
    jq = np.empty((3, n))
    jd = np.empty(n)
    js1 = np.empty(n)
    js2 = np.empty(n)
    jp = np.empty(n)
    inflow_total = 0.0
    outflow_total = 0.0
    initial_vehicles = state.vehicles(dx)

    for k in range(n):
        state, diag = _advance(state, config)
        jq[:, k] = diag["q_junction"]
        jd[k] = diag["demand_last"]
        js1[k], js2[k] = diag["supply_first"]
        jp[k] = diag["proportion_last"]
        inflow_total += diag["inflow"] * dt
        outflow_total += diag["outflow"] * dt
        if state.step_index % config.snapshot_every == 0 or state.step_index == n:
            snap_steps.append(state.step_index)
            snap_rho.append(np.stack(state.densities))
            snap_props.append(state.proportions.copy())

    trace = JunctionTrace(
        steps=np.arange(n),
        q0=jq[0],
        q1=jq[1],
        q2=jq[2],
        demand_upstream=jd,
        supply_down1=js1,
        supply_down2=js2,
        proportion1=jp,
    )
    trajectory = Trajectory(
        config=config,
        snapshot_steps=np.asarray(snap_steps),
        densities=np.stack(snap_rho),
        proportions=np.stack(snap_props),
        junction=trace,
        inflow_total=inflow_total,
        outflow_total=outflow_total,
        initial_vehicles=initial_vehicles,
        final_vehicles=state.vehicles(dx),
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
