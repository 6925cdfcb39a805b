"""Godunov (cell transmission) simulator for the three-link diverge network.

Each link is split into M cells of size dx = L / M and advanced over N steps
of size dt = T / N with the conservative update

    rho[m] += (dt / dx) * (q[m - 1/2] - q[m + 1/2]).

Interface fluxes between cells are min(demand of the left cell, supply of the
right cell).  The junction interface evaluates the diverge rule on the last
upstream cell's demand, the first downstream cells' supplies, and the last
upstream cell's commodity proportions; the upstream out-flux is the rule's
q0, which is the sum of the two downstream in-fluxes for every rule but
DAGANZO_FIFO (its in-fluxes x1 q0 and x2 q0 may sum to an ulp off q0).
Boundary ghost cells copy the adjacent cell's demand or supply (Neumann),
hold a constant flux, or follow the sinusoid a + b * sin(pi * t / c),
clamped to [0, capacity].

Commodity proportions on the upstream link advect with the flow:

    xi[m] <- (rho_old[m] * xi[m]
              + (dt/dx) * (q_in * xi[m-1] - commodity out-flux)) / rho_new[m]

where the commodity out-flux is xi[m] * q_out inside the link and the
commodity's own junction flux at the last cell.  Empty cells keep their
previous proportion.

One step kernel advances a batch of B scenarios in lockstep, laid end to
end on one position axis of P positions with a ghost before each member
(LeVeque 2002, ch. 7): a (3, P) density state and the upstream link's (C, P)
proportion state, C the tracked-commodity count, which each step updates in
place.  The members share the diagrams, the boundaries and C, and may differ
in grid, horizon, model, initial data and inflow mix.  Links whose diagrams
share a flux-law family share one evaluation of it per step, written into
work arrays and read through views that are built once per kernel; every
constant or sinusoid boundary is evaluated for all of a member's steps once
per batch, before the loop.  Only the junction rule runs once per member.
Members that have taken their N steps leave: the others' state moves into a
kernel laid out on them alone, which takes the batch's boundary series, so
a step costs only the members still going.  run_batch(configs) gives one
Trajectory per member, each bitwise the trajectory of that config alone, and
run(config) is run_batch([config])[0]; a trajectory's last snapshot is the
state after its step N.  The step records the junction row (q0, q1, q2, D0,
S1, S2, x1) followed by the boundary in-flux and out-flux.  A frozen
SimConfig builds and checks its initial state once, which the kernel lays
out; in the step the density guard and a clip keep densities in [0,
jam_density], and the guard and the conservation check name the member that
fails.
"""

from __future__ import annotations

import bisect
import enum
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .fundamental_diagram import _FLOW_LAWS, FundamentalDiagram, _exponential_flow, _operand
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
# The clip's and the proportion update's scalar operands, built once.
_ZERO, _ONE, _EMPTY_CELL = map(_operand, (0.0, 1.0, EMPTY_CELL_TOL))


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
    """Ghost conditions in link order: the upstream demand and exactly two
    downstream supplies (any sequence, stored as a tuple)."""

    upstream_demand: BoundaryCondition = field(default_factory=BoundaryCondition.neumann)
    downstream_supplies: tuple[BoundaryCondition, BoundaryCondition] = (
        BoundaryCondition.neumann(),
        BoundaryCondition.neumann(),
    )

    def __post_init__(self):
        object.__setattr__(self, "downstream_supplies", tuple(self.downstream_supplies))
        if len(self.downstream_supplies) != 2:
            raise ValueError("downstream_supplies needs exactly two entries")


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


def _physical_memory():
    """Bytes of physical memory of the machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _run_bytes(cfg):
    """The float64 bytes of a run of cfg: its initial state and mix, its
    snapshots and its junction record."""
    m, n, c = cfg.cells_per_link, cfg.time_steps, cfg.tracked_commodities
    return 8 * (3 * m + c * (m + 1) + (-(-n // cfg.snapshot_every) + 1) * (3 + c) * m + 9 * n)


def _as_cell_array(value, cells, name):
    arr = np.asarray(value, dtype=float)
    if arr.shape not in ((), (cells,)):
        raise ValueError(f"{name} must be a scalar or an array of {cells} cells, got shape {arr.shape}")
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
            return np.stack([_as_cell_array(v, cells or 1, name) for v in entries])
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
    the inflow mix as column 0.  A config whose run would hold more float64
    bytes than the machine's physical memory is rejected before any is built.
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
            raise ValueError("diagrams must list exactly three entries")
        if len(self.initial_densities) != 3:
            raise ValueError(
                f"initial_densities needs one entry per link (three), got {len(self.initial_densities)}"
            )
        for name in ("cells_per_link", "time_steps", "snapshot_every"):
            _require_count(name, getattr(self, name))
        if not (0.0 < self.link_length < math.inf and 0.0 < self.horizon < math.inf):
            raise ValueError("link_length and horizon must be positive and finite")
        for step, length, count in (("dx", "link_length", "cells_per_link"), ("dt", "horizon", "time_steps")):
            if getattr(self, step) == 0.0:
                raise ValueError(f"{step} = {length} / {count} = {getattr(self, length)!r} / "
                                 f"{getattr(self, count)} rounds to 0")
        vmax = max(fd.max_wave_speed for fd in self.diagrams)
        if vmax * self.dt / self.dx > 1.0 + 1e-12:
            raise ValueError(
                f"CFL violated: max|Q'| * dt/dx = {vmax * self.dt / self.dx:.6f} > 1"
            )
        bcs = (self.boundaries.upstream_demand, *self.boundaries.downstream_supplies)
        for link, (bc, fd) in enumerate(zip(bcs, self.diagrams)):
            if bc.kind is BoundaryKind.CONSTANT and not 0.0 <= bc.value <= fd.capacity:
                raise ValueError(f"constant boundary {'supply' if link else 'demand'} outside [0, capacity]")
        m, n, c = self.cells_per_link, self.time_steps, self.tracked_commodities
        need, memory = _run_bytes(self), _physical_memory()
        if need > memory:
            raise ValueError(f"a run with M={m} cells per link and N={n} steps needs {need / 2**30:.3g} GiB, "
                             f"more than the machine's {memory / 2**30:.3g} GiB of memory")
        state = np.stack([
            _as_cell_array(rho, m, f"initial_densities[{i}]") for i, rho in enumerate(self.initial_densities)
        ])
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
    np.logical_and(change, np.greater_equal(rho_new, _EMPTY_CELL, out=full), out=change)
    # an empty cell keeps its mix, so its divisor only has to be positive
    np.maximum(rho_new, _EMPTY_CELL, out=safe_rho)
    np.multiply(q_in, x_up, out=flux)
    np.subtract(flux, commodity_outflux, out=flux)
    np.multiply(dt_over_dx, flux, out=flux)
    np.add(mass, flux, out=mass)
    np.divide(mass, safe_rho, out=mass)
    np.minimum(np.maximum(mass, _ZERO, out=mass), _ONE, out=mass)
    np.copyto(x, mass, where=change)
    return x


# Fields every member of a batch shares; run_batch checks them first.
_SHARED_FIELDS = ("diagrams", "boundaries", "snapshot_every", "tracked_commodities")
# Where a step's boundary faces (inflow, outflow 1, outflow 2) split into the
# record's inflow and outflow columns.
_INFLOW_OUTFLOWS = np.array([0, 1])
# The diagram kinds whose law floors the density (the exponential laws, at
# rho_jam / 1000); the kernel builds their floor once.
_FLOORED_KINDS = frozenset(kind for kind, law in _FLOW_LAWS.items() if law is _exponential_flow)


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
    """The step kernel of a batch of configs: its state, its work arrays and
    the views and index arrays the step reads, all built once, so that a
    step allocates no array of cells outside the flux-law evaluation.

    It lays out the members order names (by default all of configs), in
    ascending time_steps; order[b] is the input index of the b-th, so a
    kernel laid out on some of a batch's members numbers them as the batch
    does.  They lie end to end on one position axis of P positions: each
    takes a ghost position and then its M cells, and one trailing ghost
    closes the axis.  The state is a (3, P) density array rho, one row per
    link, and the upstream link's (C, P) proportion array mix, C the
    tracked-commodity count, whose ghost before a member holds that member's
    inflow mix, so that each cell's upstream mix x_up is a view.  Each step
    updates both in place, and writing into them sets the state.  The
    diagram constants and dt/dx are held per position, as numpy is fastest
    on operands of one shape; a ghost's dt/dx is 0, so its density stays 0,
    below EMPTY_CELL_TOL, and the proportion update never writes its mix.
    The ghost before a member holds its inflow demand on the upstream link,
    the ghost after it its outflow supply on each downstream link.  Every
    per-member read and write is a take or put at flat indices built once.
    The constant and sinusoid ghost values are evaluated here unless given
    as boundary, a kernel's (series, columns) for the same configs.  Members
    share the diagrams, the boundaries and C; they may differ in grid,
    horizon, model, initial data and inflow mix.
    """

    def __init__(self, configs, order=None, boundary=None):
        if not configs:
            raise ValueError("a batch needs at least one config")
        first = configs[0]
        for name in _SHARED_FIELDS:
            for member, cfg in enumerate(configs[1:], start=1):
                if getattr(cfg, name) != getattr(first, name):
                    raise ValueError(f"batch members must share {name}; member {member} differs from member 0")
        self.order = sorted(range(len(configs)), key=lambda b: configs[b].time_steps) if order is None else order
        members = [configs[b] for b in self.order]
        diagrams, c = first.diagrams, first.tracked_commodities
        # each member's ghost position, then the trailing ghost; spans are
        # the members' cells, the same on every link
        ghosts = np.cumsum([0] + [cfg.cells_per_link + 1 for cfg in members]).tolist()
        self.spans = [(g + 1, nxt) for g, nxt in zip(ghosts, ghosts[1:])]
        p = ghosts[-1] + 1
        n = 3 * p

        self.rho, self.mix = rho, mix = np.zeros((3, p)), np.zeros((c, p))
        ratio = np.zeros((3, p))
        for cfg, g, (s, e) in zip(members, ghosts, self.spans):
            rho[:, s:e], mix[:, g:e], ratio[:, s:e] = cfg.initial_state, cfg.initial_mix, cfg.dt / cfg.dx

        def per_position(name):
            return np.repeat([[getattr(fd, name)] for fd in diagrams], p, axis=1)

        self.models = [cfg.model for cfg in members]
        self.evacuating = c == 2
        self.fifo = np.array([[model.kind in _FIFO_KINDS] for model in self.models])
        self.critical, self.capacity, self.jam = map(per_position, ("critical_density", "capacity", "jam_density"))
        self.jam_guard = [fd.jam_density + DENSITY_GUARD for fd in diagrams]

        # every non-Neumann ghost value of the batch's run, evaluated as a
        # step would, one column per link and distinct (N, dt) of configs;
        # a step copies row k into the slots that follow the demand and
        # supply in one buffer
        bcs = (first.boundaries.upstream_demand, *first.boundaries.downstream_supplies)
        neumann = [bc.kind is BoundaryKind.NEUMANN for bc in bcs]
        if boundary is None:
            columns = {}
            for cfg in configs:
                for i in range(3):
                    if not neumann[i]:
                        columns.setdefault((cfg.time_steps, cfg.dt, i), len(columns))
            series = np.zeros((max(cfg.time_steps for cfg in configs), len(columns))) if columns else None
            for (steps, dt, i), column in columns.items():
                series[:steps, column] = [bcs[i].evaluate(k * dt, diagrams[i].capacity) for k in range(steps)]
            boundary = series, columns
        self.boundary = self.series, columns = boundary
        self.flows = np.empty(2 * n + len(columns))
        self.demand, self.supply = (self.flows[i * n:(i + 1) * n].reshape(3, p) for i in (0, 1))
        self.slots = self.flows[2 * n:]

        # flat indices, one row per member, of its cells g (ghost), s (first)
        # and j (junction) and the next ghost e; face f lies between
        # positions f and f + 1
        rows = []
        for cfg, (s, e) in zip(members, self.spans):
            g, j = s - 1, e - 1
            ends = [s, n + p + j, n + 2 * p + j]  # in flows: the end cells' demand or supply
            rows.append((
                [g, n + p + e, n + 2 * p + e],  # in flows: the ghosts' demand or supply
                [ends[i] if neumann[i] else 2 * n + columns[cfg.time_steps, cfg.dt, i] for i in range(3)],
                [j, n + p + s, n + 2 * p + s],  # in flows: the junction's D0, S1, S2
                [j, p + g, 2 * p + g],  # the junction faces
                [g, p + j, 2 * p + j],  # the boundary faces: inflow, outflow 1, outflow 2
                [i * p + j for i in range(c)],  # in mix: the junction cell's
                [i * (p - 2) + j - 1 for i in range(c)],  # in commodity_out: the junction cell's
            ))
        self.index = [np.array(column) for column in zip(*rows)]

        self.masks = np.empty((3, p), bool), np.empty((3, p), bool)
        self.faces = faces = np.empty(n - 1)
        self.rho_flat = rho.reshape(-1)
        self.face_inputs = self.flows[:n - 1], self.flows[n + 1:2 * n]
        self.net = np.empty(n - 2)
        # the cells' in-faces and out-faces, and the positions between the
        # axis' two end ghosts with their dt/dx
        self.cell_faces = faces[:-1], faces[1:]
        self.inner, self.inner_ratio = self.rho_flat[1:-1], ratio.reshape(-1)[1:-1]
        # the upstream link between its end ghosts: densities, mix, upstream
        # mix, faces and dt/dx, each a (1, P - 2) row or (C, P - 2) rows
        self.rho_up, self.x, self.x_up = rho[:1, 1:-1], mix[:, 1:-1], mix[:, :-2]
        self.upstream_faces = faces[None, :p - 2], faces[None, 1:p - 1]
        self.ratio_up = ratio[:1, 1:-1]
        self.commodity_out = np.empty_like(self.x)
        self.mass = np.empty_like(self.x)
        self.work = _proportion_work(self.x.shape, self.rho_up.shape)
        self.row = row = np.empty((len(members), 9))
        # the rows' (q0 .. x1), (q0, q1, q2), q0, q1, (q1, q2), D0 and (inflow, outflow)
        self.views = row[:, :7], row[:, :3], row[:, :1], row[:, 1:2], row[:, 1:3], row[:, 3:4], row[:, 7:]
        v_f = per_position("free_flow_speed")
        floor = self.jam / 1000.0
        law_work = np.empty_like(rho)
        self.passes = []
        for law, links in _law_passes(diagrams):
            operands = dict(out=self.demand[links], work=law_work[links])
            if diagrams[links.start].kind in _FLOORED_KINDS:
                operands["floor"] = floor[links]
            self.passes.append((law, rho[links], v_f[links], self.jam[links], operands))

    def relaid(self, configs, done):
        """A kernel laid out on this one's members after the first done,
        which have taken their steps, holding their state and taking this
        kernel's boundary series: they fill the axis from the ghost of the
        first of them on, so the state moves as one block."""
        kernel = type(self)(configs, self.order[done:], self.boundary)
        g = self.spans[done][0] - 1
        kernel.rho[...], kernel.mix[...] = self.rho[:, g:], self.mix[:, g:]
        return kernel

    def advance(self, k):
        """Step k of every member, from the current state, which becomes the
        state after it; returns the rows (B, 9) of (q0, q1, q2, D0, S1, S2,
        x1, inflow, outflow) in axis order, a buffer that the next step
        overwrites."""
        rho, mix, flows, faces = self.rho, self.mix, self.flows, self.faces
        targets, sources, inputs, junction, ends, last_cells, own_cells = self.index
        junction_row, q012, q0, q1, q12, d0, bounds = self.views
        for law, rho_links, v_f, rho_jam, operands in self.passes:
            law(rho_links, v_f, rho_jam, **operands)
        over, under = self.masks
        np.copyto(self.supply, self.demand)
        np.putmask(self.demand, np.greater(rho, self.critical, out=over), self.capacity)
        np.putmask(self.supply, np.less(rho, self.critical, out=under), self.capacity)
        # the ghosts: each copies its end cell's demand or supply, or a slot
        if self.series is not None:
            np.copyto(self.slots, self.series[k])
        flows.put(targets, flows.take(sources))

        # the junction rule, once per member, on (D0, S1, S2) and the junction
        # cell's mix; the row is record's (q0, q1, q2, D0, S1, S2, x1)
        last = mix.take(last_cells)
        junction_row[...] = [
            (*junction_fluxes(model, d, (a, b), (x1, 1.0 - x1)), d, a, b, x1)
            for model, (d, a, b), x1 in zip(self.models, flows.take(inputs).tolist(), last[:, 0].tolist())
        ]
        np.minimum(*self.face_inputs, out=faces)
        faces.put(junction, q012)

        net, mass = self.net, self.mass
        np.subtract(*self.cell_faces, out=net)
        np.multiply(self.rho_up, self.x, out=mass)  # the proportion update's input
        np.add(self.inner, np.multiply(self.inner_ratio, net, out=net), out=self.inner)
        link_max = rho.max(axis=1).tolist()
        if not (np.minimum.reduce(self.rho_flat) >= -DENSITY_GUARD
                and all(map(float.__le__, link_max, self.jam_guard))):
            outside = ~((rho >= -DENSITY_GUARD) & (rho <= self.jam + DENSITY_GUARD))
            member, link = min(
                (self.order[b], link) for b, (s, e) in enumerate(self.spans) for link in range(3)
                if outside[link, s:e].any()
            )
            raise NumericalStabilityError(
                f"density left [0, {self.jam[link, 0]}] in member {member} on link {link} at step {k}"
            )
        np.minimum(np.maximum(rho, _ZERO, out=rho), self.jam, out=rho)

        commodity_out, (q_in, q_out) = self.commodity_out, self.upstream_faces
        np.multiply(self.x, q_out, out=commodity_out)
        if self.evacuating:
            # routed vehicles claim their share of the link flux first
            np.minimum(np.multiply(last, d0, out=last), q12, out=last)
        else:
            # all flow entering link 1 is routed commodity 1; without routes
            # the one commodity rides along
            np.copyto(np.multiply(last, q0, out=last), q1, where=self.fifo)
        commodity_out.put(own_cells, last)
        _proportion_update(self.rho_up, self.x, self.x_up, q_in, q_out, self.ratio_up, commodity_out, mass, self.work)

        # the inflow face, and the two outflow faces' sum
        np.add.reduceat(faces.take(ends), _INFLOW_OUTFLOWS, axis=1, out=bounds)
        return self.row


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
    """Run configs that share diagrams, boundaries, snapshot_every and the
    tracked-commodity count as one batch; returns one Trajectory each,
    bitwise the trajectory the config gives alone.  The members may differ
    in grid and horizon: they lie end to end on the kernel's one position
    axis, each a ghost and its M cells on each link's row, and step together
    until each has taken its own time_steps.  After a step at which some
    have taken theirs, the others move to a kernel laid out on them alone,
    with the boundary series evaluated once for the batch; members keep
    their input numbering throughout.

    Full fields are stored every snapshot_every steps (plus the initial and
    final step); junction quantities are stored every step.  Raises
    ValueError, naming the field, when the members differ in what they must
    share, and NumericalStabilityError, naming the member, when a density
    leaves its range or a member's vehicle count drifts more than 1e-8 from
    its boundary fluxes.
    """
    configs = list(configs)
    kernel = _Ensemble(configs)
    order = kernel.order
    members = [configs[b] for b in order]
    ends = [cfg.time_steps for cfg in members]
    schedules, due = [], {}  # each member's snapshot steps; the (member, snapshot) pairs after each step
    for b, cfg in enumerate(members):
        steps = list(range(0, cfg.time_steps + 1, cfg.snapshot_every))
        if steps[-1] != cfg.time_steps:
            steps.append(cfg.time_steps)
        schedules.append(steps)
        for i, step in enumerate(steps):
            due.setdefault(step, []).append((b, i))
    densities = [np.empty((len(steps), 3, cfg.cells_per_link)) for steps, cfg in zip(schedules, members)]
    proportions = [
        np.empty((len(steps), cfg.tracked_commodities, cfg.cells_per_link)) for steps, cfg in zip(schedules, members)
    ]
    # the members before first (in order) have taken their steps and left
    # the kernel, whose b-th member is the (first + b)-th
    first = 0

    def snapshot(step):
        for b, i in due.get(step, ()):
            s, e = kernel.spans[b - first]
            densities[b][i], proportions[b][i] = kernel.rho[:, s:e], kernel.mix[:, s:e]

    snapshot(0)
    # member-major: member b's rows start at offsets[b]; cursor holds each
    # member's flat record indices of the next step's row
    offsets = np.cumsum([0] + ends)
    record = np.empty((offsets[-1], 9))
    cursor = 9 * offsets[:-1, None] + np.arange(9)
    for k in range(ends[-1]):
        record.put(cursor[first:], kernel.advance(k))
        cursor += 9
        snapshot(k + 1)
        # the members that have now taken their steps leave; the others move
        # to a kernel laid out on them alone
        done = bisect.bisect_right(ends, k + 1, first)
        if first < done < len(ends):
            kernel, first = kernel.relaid(configs, done - first), done

    trajectories = []
    for member, cfg in enumerate(configs):
        b = order.index(member)
        rows = record[offsets[b]:offsets[b + 1]]
        # boundary totals summed step by step from zero, as the steps ran
        totals = np.add.accumulate(np.concatenate([np.zeros((1, 2)), rows[:, 7:] * cfg.dt]), axis=0)[-1]
        trajectory = Trajectory(
            config=cfg,
            snapshot_steps=np.array(schedules[b]),
            densities=densities[b],
            proportions=proportions[b],
            junction=JunctionTrace(np.arange(cfg.time_steps), *rows[:, :7].T),
            inflow_total=float(totals[0]),
            outflow_total=float(totals[1]),
            initial_vehicles=_vehicles(densities[b][0], cfg.dx),
            final_vehicles=_vehicles(densities[b][-1], cfg.dx),
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
