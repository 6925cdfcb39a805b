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

One step kernel advances a batch of B scenarios.  Its state is one (B, 3, M)
density array and one (B, C, M) proportion array, C the tracked-commodity
count, which each step updates in place through one (B, 3, M + 1) face
array.  The members share the grid, the diagrams, the boundaries and C, and
may differ in model, initial data and inflow mix.  Links whose diagrams
share a flux-law family share one evaluation of it per step, written into
work arrays and read through views that are built once per run; every
constant or sinusoid boundary is evaluated for all N steps before the loop.
Only the junction rule runs once per member.  run_batch(configs) gives one
Trajectory per member, each bitwise the trajectory of that config alone, and
run(config) is run_batch([config])[0]; a trajectory's last snapshot is the
state after step N.  The step records the junction row (q0, q1, q2, D0, S1,
S2, x1) followed by the boundary in-flux and out-flux.  A frozen SimConfig
builds and checks its initial state once, which the kernel stacks; in the
step the density guard and a clip keep densities in [0, jam_density], and the
guard and the conservation check name the member that fails.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .fundamental_diagram import _FLOW_LAWS, FundamentalDiagram
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

    def evaluate(self, time, capacity):
        """The ghost value of a CONSTANT or TIME_VARYING boundary at time."""
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
    if arr.shape not in ((), (cells,)):
        raise ValueError(f"expected scalar or array of {cells} cells, got shape {arr.shape}")
    return np.full(cells, arr)


def _proportions(raw, name, commodities, cells=None):
    """The (commodities, cells) array that raw gives the proportion field
    name: one tracked commodity takes one entry and two a pair (a tuple, list
    or array) of entries, each a scalar or, given cells, one value per cell.
    Without cells it reads one column of scalars, the inflow mix."""
    entries = (raw,) if commodities == 1 else raw
    try:
        if (isinstance(entries, (tuple, list, np.ndarray)) and len(entries) == commodities
                and (cells or all(np.ndim(v) == 0 for v in entries))):
            return np.stack([_as_cell_array(v, cells or 1) for v in entries])
    except (TypeError, ValueError):
        pass
    entry = "a scalar or one value per cell" if cells else "a scalar"
    need = f"{entry} for one tracked commodity" if commodities == 1 else f"a pair, each {entry}"
    raise ValueError(f"{name} must be {need}, got {raw!r}")


@dataclass(frozen=True)
class SimConfig:
    """Discretization, physics, and boundary data for one simulation; frozen,
    it builds and checks the initial state the CTM steps once.

    initial_densities holds one scalar or per-cell array for each of the three
    links (upstream, downstream 1, downstream 2).  initial_proportions (default
    the model's xi, 1.0 without one) and inflow_proportions (default the first
    upstream cell's) are the mix of the C tracked commodities on the upstream
    link and in its inflow: C is 2 for PARTIAL_EVACUATION, which takes a pair
    of entries, else 1, which takes one entry.  An initial entry is a scalar or
    one value per cell, an inflow entry a scalar.  The read-only initial_state
    holds the (3, M) densities, initial_mix the (C, M + 1) proportions with
    the inflow mix as column 0.
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
    initial_state: np.ndarray = field(init=False, repr=False, compare=False)
    initial_mix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "diagrams", tuple(self.diagrams))
        if len(self.diagrams) != 3:
            raise ValueError("exactly three fundamental diagrams are required")
        if len(self.initial_densities) != 3:
            raise ValueError(
                f"initial_densities needs one entry per link (three), got {len(self.initial_densities)}"
            )
        for name in ("cells_per_link", "time_steps", "snapshot_every"):
            _require_count(name, getattr(self, name))
        if not (0.0 < self.link_length < math.inf and 0.0 < self.horizon < math.inf):
            raise ValueError("link_length and horizon must be positive and finite")
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
        m, c = self.cells_per_link, self.tracked_commodities
        state = np.stack([_as_cell_array(rho, m) for rho in self.initial_densities])
        jam = np.broadcast_to([[fd.jam_density] for fd in self.diagrams], state.shape)
        if not (state.min() >= 0.0 and np.all(state <= jam)):
            raise ValueError("initial density outside [0, jam_density]")
        with np.errstate(over="ignore"):
            if not math.isfinite(_vehicles(jam, self.dx)):
                raise ValueError(f"link_length {self.link_length!r} is too large: a jam-full network's "
                                 "vehicle count overflows")
        raw = self.initial_proportions
        if raw is None:
            raw = self.model.xi if c == 2 else (self.model.xi or (1.0,))[0]
        x = _proportions(raw, "initial_proportions", c, m)
        raw = self.inflow_proportions
        mix = np.concatenate([x[:, :1] if raw is None else _proportions(raw, "inflow_proportions", c), x], axis=1)
        if not (mix.min() >= 0.0 and mix.sum(axis=0).max() <= 1.0 + 1e-12):
            raise ValueError("proportions must lie in [0, 1] with sum at most 1")
        for name, value in (("initial_state", state), ("initial_mix", mix)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def dt(self):
        return self.horizon / self.time_steps

    @property
    def dx(self):
        return self.link_length / self.cells_per_link

    @property
    def tracked_commodities(self):
        return 2 if self.model.kind is DivergeModelKind.PARTIAL_EVACUATION else 1


def _proportion_work(xi_shape, rho_shape):
    """The scratch arrays of _proportion_update for proportions of xi_shape
    and densities of rho_shape."""
    return (
        np.empty(xi_shape), np.empty(xi_shape, bool), np.empty(xi_shape, bool),
        np.empty(rho_shape, bool), np.empty(rho_shape),
    )


def _proportion_update(rho_new, x, x_up, q_in, q_out, dt_over_dx, commodity_outflux, mass, work):
    """One conservative update of the cells' commodity proportions x, in
    place, from mass = rho_old * x, which it overwrites; x_up may be x's
    buffer shifted by one cell, as it is read before x is written.  work is
    the scratch of _proportion_work.

    commodity_outflux is x * q_out where the commodity advects with the
    total flow, and the diverge rule's own commodity flux at the junction
    cell.  Only cells with rho_new at least EMPTY_CELL_TOL whose inflow mix
    or outflow split changes their mix are written (this keeps uniform
    proportions bitwise constant), clipped to [0, 1].
    """
    flux, change, split, full, safe_rho = work
    np.not_equal(x_up, x, out=change)
    np.not_equal(commodity_outflux, np.multiply(x, q_out, out=flux), out=split)
    np.logical_or(change, split, out=change)
    np.logical_and(change, np.greater_equal(rho_new, EMPTY_CELL_TOL, out=full), out=change)
    # an empty cell keeps its mix, so its divisor only has to be positive
    np.maximum(rho_new, EMPTY_CELL_TOL, out=safe_rho)
    np.multiply(q_in, x_up, out=flux)
    np.subtract(flux, commodity_outflux, out=flux)
    np.multiply(dt_over_dx, flux, out=flux)
    np.add(mass, flux, out=mass)
    np.divide(mass, safe_rho, out=mass)
    np.minimum(np.maximum(mass, 0.0, out=mass), 1.0, out=mass)
    np.copyto(x, mass, where=change)
    return x


# Fields every member of a batch shares; run_batch checks them first.
_SHARED_FIELDS = (
    "cells_per_link", "time_steps", "dt", "dx", "diagrams", "boundaries", "snapshot_every", "tracked_commodities",
)


def _law_passes(diagrams):
    """(law, links) for each flux-law family among the diagrams, links the
    slice from its first link to its last, widest first.  A family whose
    links lie apart also evaluates the link between them, on that link's own
    parameters; the narrower pass after it overwrites that link."""
    links = {}
    for i, fd in enumerate(diagrams):
        links.setdefault(_FLOW_LAWS[fd.kind], []).append(i)
    return sorted(((law, slice(ix[0], ix[-1] + 1)) for law, ix in links.items()), key=lambda p: p[1].start - p[1].stop)


class _Ensemble:
    """The step kernel of a batch of B configs: its state, its work arrays
    and the views the step reads, all built once, so that a step allocates
    no array of cells outside the flux-law evaluation.

    The state is a (B, 3, M) density array rho and a (B, C, M) proportion
    array x, C the tracked-commodity count, stacked from the configs'
    initial_state and initial_mix; each step updates both in place, and
    writing into them sets the state.  x is a view of the stacked mixes, whose
    inflow-mix column 0 makes each cell's upstream mix x_up a view too.  The
    diagram constants are held per cell, as numpy is fastest on operands of
    one shape.  Members share the grid, the diagrams, the boundaries and C;
    they may differ in model, initial data and inflow mix.
    """

    def __init__(self, configs):
        if not configs:
            raise ValueError("a batch needs at least one config")
        first = configs[0]
        for name in _SHARED_FIELDS:
            for member, cfg in enumerate(configs[1:], start=1):
                if getattr(cfg, name) != getattr(first, name):
                    raise ValueError(f"batch members must share {name}; member {member} differs from member 0")
        diagrams, m = first.diagrams, first.cells_per_link
        rho = np.stack([cfg.initial_state for cfg in configs])
        mixes = np.stack([cfg.initial_mix for cfg in configs])

        def per_cell(name):
            return np.broadcast_to(np.array([[getattr(fd, name)] for fd in diagrams]), rho.shape).copy()

        self.models = [cfg.model for cfg in configs]
        self.evacuating = first.tracked_commodities == 2
        self.fifo = np.array([[model.kind in _FIFO_KINDS] for model in self.models])
        self.ratio = first.dt / first.dx
        self.critical, self.capacity, self.jam = map(per_cell, ("critical_density", "capacity", "jam_density"))
        self.jam_guard = [fd.jam_density + DENSITY_GUARD for fd in diagrams]
        # every non-Neumann ghost value of the run, evaluated as a step would
        bcs = (first.boundaries.upstream_demand, *first.boundaries.downstream_supplies)
        self.ghosts = [
            None if bc.kind is BoundaryKind.NEUMANN
            else np.array([bc.evaluate(k * first.dt, fd.capacity) for k in range(first.time_steps)])
            for bc, fd in zip(bcs, diagrams)
        ]

        # the state and its views: the upstream link's densities, each
        # cell's upstream mix and the junction cell's mix
        self.rho, self.rho_up = rho, rho[:, :1]
        x = mixes[:, :, 1:]
        self.x, self.x_up, self.last = x, mixes[:, :, :-1], mixes[:, :, -1]

        self.demand = demand = np.empty_like(rho)
        self.supply = supply = np.empty_like(rho)
        self.masks = np.empty(rho.shape, bool), np.empty(rho.shape, bool)
        faces = np.empty(rho.shape[:2] + (m + 1,))
        self.net = np.empty_like(rho)
        self.commodity_out = commodity_out = np.empty_like(x)
        self.mass = np.empty_like(x)
        self.work = _proportion_work(x.shape, rho[:, :1].shape)
        self.row = row = np.empty((len(configs), 9))
        v_f = per_cell("free_flow_speed")
        law_work = np.empty_like(rho)
        self.passes = [
            (law, rho[:, links], v_f[:, links], self.jam[:, links], demand[:, links], law_work[:, links])
            for law, links in _law_passes(diagrams)
        ]
        # (demand, supply, face) of the interior faces, the upstream end and
        # the two downstream ends
        self.interior = demand[:, :, :-1], supply[:, :, 1:], faces[:, :, 1:-1]
        self.inlet = demand[:, 0, 0], supply[:, 0, 0], faces[:, 0, 0]
        self.outlets = [(demand[:, i, -1], supply[:, i, -1], faces[:, i, -1]) for i in (1, 2)]
        # the junction's inputs (D0, S1, S2), its faces on the upstream and
        # the downstream links with the row's fluxes they take, and the row's
        # q0, q1, (q1, q2) and D0 columns
        self.junction_inputs = demand[:, 0, -1], supply[:, 1, 0], supply[:, 2, 0]
        self.junction_faces = (faces[:, 0, -1], row[:, 0]), (faces[:, 1:, 0], row[:, 1:3])
        self.q0, self.q1, self.q12, self.d0 = row[:, :1], row[:, 1:2], row[:, 1:3], row[:, 3:4]
        # each cell's in-face and out-face, those of the upstream link, and the
        # commodity out-flux of the junction cell
        self.cell_faces = faces[:, :, :-1], faces[:, :, 1:]
        self.upstream_faces = faces[:, :1, :-1], faces[:, :1, 1:]
        self.junction_out = commodity_out[:, :, -1]

    def advance(self, k):
        """Step k from the current state, which becomes the state after it;
        returns each member's row (B, 9) of (q0, q1, q2, D0, S1, S2, x1,
        inflow, outflow), a buffer that the next step overwrites."""
        rho, x, last = self.rho, self.x, self.last
        demand, supply, row = self.demand, self.supply, self.row
        for law, rho_links, v_f, rho_jam, flow, work in self.passes:
            law(rho_links, v_f, rho_jam, out=flow, work=work)
        over, under = self.masks
        np.copyto(supply, demand)
        np.putmask(demand, np.greater(rho, self.critical, out=over), self.capacity)
        np.putmask(supply, np.less(rho, self.critical, out=under), self.capacity)

        # the junction rule, once per member, on (D0, S1, S2) and the last
        # upstream cell's mix; the row is record's (q0, q1, q2, D0, S1, S2, x1)
        d0, s1, s2 = self.junction_inputs
        row[:, :7] = [
            (*junction_fluxes(model, d, (a, b), (x1, 1.0 - x1)), d, a, b, x1)
            for model, d, a, b, x1 in zip(self.models, d0.tolist(), s1.tolist(), s2.tolist(), last[:, 0].tolist())
        ]

        demand_left, supply_right, interior = self.interior
        np.minimum(demand_left, supply_right, out=interior)
        (d, s, inflow), ghost = self.inlet, self.ghosts[0]
        np.minimum(d if ghost is None else ghost[k], s, out=inflow)
        for (d, s, face), ghost in zip(self.outlets, self.ghosts[1:]):
            np.minimum(d, s if ghost is None else ghost[k], out=face)
        for face, q in self.junction_faces:
            np.copyto(face, q)

        net, mass = self.net, self.mass
        np.subtract(*self.cell_faces, out=net)
        np.multiply(self.rho_up, x, out=mass)  # the proportion update's input
        np.add(rho, np.multiply(self.ratio, net, out=net), out=rho)
        link_max = rho.max(axis=(0, 2)).tolist()
        if not (rho.min() >= -DENSITY_GUARD and all(map(float.__le__, link_max, self.jam_guard))):
            outside = ~((rho >= -DENSITY_GUARD) & (rho <= self.jam + DENSITY_GUARD))
            member, link = np.argwhere(outside.any(axis=2))[0]
            raise NumericalStabilityError(
                f"density left [0, {self.jam[0, link, 0]}] in member {member}"
                f" on link {link} at step {k}"
            )
        np.minimum(np.maximum(rho, 0.0, out=rho), self.jam, out=rho)

        q_in, q_out = self.upstream_faces
        commodity_out, junction = self.commodity_out, self.junction_out
        np.multiply(x, q_out, out=commodity_out)
        if self.evacuating:
            # routed vehicles claim their share of the link flux first
            np.minimum(np.multiply(last, self.d0, out=junction), self.q12, out=junction)
        else:
            # all flow entering link 1 is routed commodity 1; without routes
            # the one commodity rides along
            np.copyto(np.multiply(last, self.q0, out=junction), self.q1, where=self.fifo)
        _proportion_update(self.rho_up, x, self.x_up, q_in, q_out, self.ratio, commodity_out, mass, self.work)

        row[:, 7] = inflow
        np.add(self.outlets[0][2], self.outlets[1][2], out=row[:, 8])
        return row


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

    snapshot_steps = list(range(0, n + 1, first.snapshot_every))
    if snapshot_steps[-1] != n:
        snapshot_steps.append(n)
    densities = np.empty((len(snapshot_steps),) + kernel.rho.shape)
    proportions = np.empty((len(snapshot_steps),) + kernel.x.shape)
    densities[0], proportions[0] = kernel.rho, kernel.x
    record = np.empty((n, len(configs), 9))
    snap = 1
    for k in range(n):
        record[k] = kernel.advance(k)
        if k + 1 == snapshot_steps[snap]:
            densities[snap], proportions[snap] = kernel.rho, kernel.x
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


def solution_difference(traj_a, traj_b):
    """L1 density distance sum_links sum_cells |rho_a - rho_b| * dx at every
    recorded snapshot, dx the cell size of traj_a's config.  The trajectories
    must share the grid and snapshot schedule."""
    if traj_a.densities.shape != traj_b.densities.shape or traj_a.config.dx != traj_b.config.dx:
        raise ValueError("trajectories use different grids")
    if not np.array_equal(traj_a.snapshot_steps, traj_b.snapshot_steps):
        raise ValueError("trajectories recorded different snapshot steps")
    diff = np.abs(traj_a.densities - traj_b.densities)
    return diff.sum(axis=(1, 2)) * traj_a.config.dx
