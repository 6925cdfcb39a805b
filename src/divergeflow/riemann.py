"""Analytical Riemann solver for a diverge junction (one upstream link 0, two
downstream links 1 and 2).

Given constant initial states on the three links, the solution consists of a
boundary flux triple (q0, q1, q2) with q0 = q1 + q2, one stationary state per
link, and one interior state per link.  Stationary states prevail next to the
junction as t grows and emit the kinematic waves; interior states occupy one
cell in discretizations and carry no wave.  A stationary state is admissible
when the wave it emits travels away from the junction, which pins it to

    upstream:    (D0, C0)          (flux q0 = D0), or
                 (C0, q0)          with q0 < D0;
    downstream:  (qi, Ci)          with qi < Si, or
                 (Ci, Si)          (flux qi = Si),

so fluxes and stationary states determine each other.  The flux triple itself
is selected by an entropy condition: a local flux rule evaluated on interior
quantities.  Five rules are implemented:

    DAGANZO_FIFO        q0 = min(D, S1/x1, S2/x2), qi = xi * q0
    LEBACQUE            qi = min(xi * D, Si)
    SUPPLY_PROPORTIONAL qi = min(1, D / (S1 + S2)) * Si
    PRIORITY_BASED      qi = min(Si, max(D - Sj, ai * D))
    PARTIAL_EVACUATION  qi = min(Si, Sj (1 - xj) / xj, max(D - Sj, ai * D))

where x are turning proportions of routed traffic and a are priority weights;
Sj/xj and Sj (1 - xj) / xj read as +inf when xj = 0.  junction_fluxes is the
one kernel of all five rules and takes scalars or arrays.  The priority rule
is partial evacuation without routed traffic (xi = 0): _evacuation_terms
states the terms of both once, for junction_fluxes, the uniqueness slopes
below and harness's flux-map regions.

Each Riemann flux is a local rule evaluated at the initial (D0, S1, S2):
Lebacque's rule gives the fluxes of Daganzo's with the same xi, and the
supply-proportional rule those of the priority rule with weights
ci / (c1 + c2).  riemann_rule names that counterpart rule and
solve_fluxes_batch evaluates it; solve_batch adds stationary states,
canonical interior states, interior turning proportions, and per-link
uniqueness flags.  Both take arrays of (D0, S1, S2), and a model whose xi or
alpha are arrays of the same length applies one rule per point.
solve_fluxes and solve run the same code on one RiemannInput.

The uniqueness flags follow from which bounds are tight.  A strict bound
(q0 < D0, qi < Si) pins the link's interior state to its stationary state.
A tight bound leaves the interior demand (upstream) or supply (downstream)
free exactly when the link has room to raise it (more than 1e-9 below
capacity) and the fluxes do not move as it rises from its canonical value:

    DAGANZO_FIFO, LEBACQUE   a second bound is tight too (it fixes q0)
    evacuation rules         q1 and q2 have zero right-hand slope in that
                             coordinate at the canonical interiors

The slopes come from the binding min/max terms (_evacuation_terms on _Sided
values for the priority and partial-evacuation rules), every term within
TIE_TOL of the min or max counting as tied; the three coordinates' slopes
are carried together.  oracle.probe_interior_unique_batch checks these flags
by scanning.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .fundamental_diagram import FLUX_TOL, FundamentalDiagram, InvalidStateError
from .supply_demand import TrafficState, holds, state_of

__all__ = [
    "DivergeModelKind",
    "DivergeModel",
    "Side",
    "RiemannInput",
    "RiemannSolution",
    "riemann_rule",
    "solve_fluxes",
    "solve_fluxes_batch",
    "solve",
    "solve_batch",
    "junction_fluxes",
    "check_stationary_admissible",
    "check_interior_admissible",
    "daganzo_fifo",
    "lebacque",
    "supply_proportional",
    "priority_based",
    "partial_evacuation",
]

# Regime branches (is q0 equal to D0, is qi equal to Si) are decided with this
# absolute tolerance; ties resolve to the equality branch.
TIE_TOL = 1e-12
# A tight link's interior is free only where it has more than _ROOM of its
# range left to rise in, and the fluxes count as not moving below _SLOPE_TOL:
# the supply-proportional slope at s2 = 0, S1 = D0 is -1 + 1 up to rounding.
_ROOM = 1e-9
_SLOPE_TOL = 1e-9


class DivergeModelKind(enum.Enum):
    DAGANZO_FIFO = "daganzo_fifo"
    LEBACQUE = "lebacque"
    SUPPLY_PROPORTIONAL = "supply_proportional"
    PRIORITY_BASED = "priority_based"
    PARTIAL_EVACUATION = "partial_evacuation"


_FIFO_KINDS = (DivergeModelKind.DAGANZO_FIFO, DivergeModelKind.LEBACQUE)


class Side(enum.Enum):
    UPSTREAM = "upstream"
    DOWNSTREAM = "downstream"


@dataclass(frozen=True)
class DivergeModel:
    """A diverge rule plus its parameters.

    xi is required for DAGANZO_FIFO and LEBACQUE (positive, summing to 1) and
    for PARTIAL_EVACUATION (nonnegative, summing to at most 1: the remainder
    has no predefined route).  alpha is required for PRIORITY_BASED (in [0, 1],
    summing to 1) and PARTIAL_EVACUATION (ai in [xi, 1 - xj], summing to 1).
    Either pair may hold two equal-length 1-d arrays instead of two floats:
    one rule per point of a batch, each checked as above.
    """

    kind: DivergeModelKind
    xi: tuple[float, float] | None = None
    alpha: tuple[float, float] | None = None

    def __post_init__(self):
        for name in ("xi", "alpha"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _finite_pair(name, getattr(self, name)))
        kind = self.kind
        if kind in _FIFO_KINDS:
            self._require_xi(strict=True)
        elif kind is not DivergeModelKind.SUPPLY_PROPORTIONAL:
            # the priority rule is partial evacuation with xi = (0, 0)
            routed = kind is DivergeModelKind.PARTIAL_EVACUATION
            if routed:
                self._require_xi(strict=False)
            x1, x2 = self.xi if routed else (0.0, 0.0)
            self._require_alpha(lo=(x1, x2), hi=(1.0 - x2, 1.0 - x1))

    # The checks below hold elementwise for array parameters; NaN fails them.

    def _require_xi(self, strict):
        if self.xi is None:
            raise ValueError(f"{self.kind.value} requires turning proportions xi")
        x1, x2 = self.xi
        if strict:
            if not holds((x1 > 0.0) & (x2 > 0.0)):
                raise ValueError(f"{self.kind.value} requires strictly positive xi, got {self.xi}")
            if not holds(abs(x1 + x2 - 1.0) <= FLUX_TOL):
                raise ValueError(f"xi must sum to 1, got {self.xi}")
        elif not holds((x1 >= 0.0) & (x2 >= 0.0) & (x1 + x2 <= 1.0 + FLUX_TOL)):
            raise ValueError(f"xi must be nonnegative with sum <= 1, got {self.xi}")

    def _require_alpha(self, lo, hi):
        if self.alpha is None:
            raise ValueError(f"{self.kind.value} requires priority weights alpha")
        a1, a2 = self.alpha
        if not holds(abs(a1 + a2 - 1.0) <= FLUX_TOL):
            raise ValueError(f"alpha must sum to 1, got {self.alpha}")
        eps = FLUX_TOL
        inside = (lo[0] - eps <= a1) & (a1 <= hi[0] + eps) & (lo[1] - eps <= a2) & (a2 <= hi[1] + eps)
        if not holds(inside):
            raise ValueError(
                f"alpha {self.alpha} outside admissible box [{lo[0]}, {hi[0]}] x [{lo[1]}, {hi[1]}]"
            )


def _finite_pair(name, value):
    """value as a pair of finite floats, or of equal-length 1-d float arrays
    when either entry is a numpy array (one rule per row of a batch);
    ValueError for anything else."""
    try:
        first, second = value
        if isinstance(first, np.ndarray) or isinstance(second, np.ndarray):
            pair = (np.asarray(first, dtype=float), np.asarray(second, dtype=float))
            if pair[0].ndim != 1 or pair[0].shape != pair[1].shape:
                raise ValueError
        else:
            pair = (float(first), float(second))
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a pair of numbers, got {value!r}") from None
    if not np.isfinite(pair).all():
        raise ValueError(f"{name} must be two finite numbers, got {value!r}")
    return pair


def daganzo_fifo(xi):
    return DivergeModel(DivergeModelKind.DAGANZO_FIFO, xi=tuple(xi))


def lebacque(xi):
    return DivergeModel(DivergeModelKind.LEBACQUE, xi=tuple(xi))


def supply_proportional():
    return DivergeModel(DivergeModelKind.SUPPLY_PROPORTIONAL)


def priority_based(alpha):
    return DivergeModel(DivergeModelKind.PRIORITY_BASED, alpha=tuple(alpha))


def partial_evacuation(xi, alpha):
    return DivergeModel(DivergeModelKind.PARTIAL_EVACUATION, xi=tuple(xi), alpha=tuple(alpha))


@dataclass(frozen=True)
class RiemannInput:
    """Initial states of the three links, each bound to its diagram, and the
    initial densities when the states were built from them."""

    upstream_diagram: FundamentalDiagram
    upstream_state: TrafficState
    downstream_diagrams: tuple[FundamentalDiagram, FundamentalDiagram]
    downstream_states: tuple[TrafficState, TrafficState]
    densities: tuple[float, float, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "downstream_diagrams", tuple(self.downstream_diagrams))
        object.__setattr__(self, "downstream_states", tuple(self.downstream_states))
        pairs = [(self.upstream_state, self.upstream_diagram)] + list(
            zip(self.downstream_states, self.downstream_diagrams)
        )
        for state, fd in pairs:
            if abs(max(state.demand, state.supply) - fd.capacity) > FLUX_TOL:
                raise InvalidStateError(
                    f"state ({state.demand}, {state.supply}) not bound to capacity {fd.capacity}"
                )

    @classmethod
    def from_densities(cls, diagrams, densities):
        """Build the input from three diagrams and three initial densities."""
        fd0, fd1, fd2 = diagrams
        r0, r1, r2 = (float(r) for r in densities)
        return cls(
            fd0, state_of(fd0, r0), (fd1, fd2), (state_of(fd1, r1), state_of(fd2, r2)), (r0, r1, r2)
        )

    def initial_density(self, link):
        """Initial density of link 0 (upstream), 1 or 2: the one the input
        was built from, else the inverse of the link's state."""
        if self.densities is not None:
            return self.densities[link]
        if link == 0:
            return self.upstream_diagram.density_from_state(self.upstream_state)
        return self.downstream_diagrams[link - 1].density_from_state(self.downstream_states[link - 1])

    @property
    def demand_upstream(self):
        return self.upstream_state.demand

    @property
    def supplies(self):
        return (self.downstream_states[0].supply, self.downstream_states[1].supply)

    @property
    def capacities(self):
        return (
            self.upstream_diagram.capacity,
            self.downstream_diagrams[0].capacity,
            self.downstream_diagrams[1].capacity,
        )


@dataclass(frozen=True)
class RiemannSolution:
    """Fluxes, stationary states, interior states, interior turning
    proportions, and per-link interior uniqueness flags (upstream, down 1,
    down 2).  solve gives floats and bools; solve_batch gives equal-length
    arrays in every field, one entry per point, and row(k) picks point k."""

    fluxes: tuple[float, float, float]
    stationary_upstream: TrafficState
    stationary_downstream: tuple[TrafficState, TrafficState]
    interior_upstream: TrafficState
    interior_downstream: tuple[TrafficState, TrafficState]
    interior_proportions: tuple[float, float]
    interior_unique: tuple[bool, bool, bool]

    def row(self, k):
        """Point k of a batch solution, in Python floats and bools."""

        def state(u):
            return TrafficState(u.demand[k].item(), u.supply[k].item())

        return RiemannSolution(
            fluxes=tuple(q[k].item() for q in self.fluxes),
            stationary_upstream=state(self.stationary_upstream),
            stationary_downstream=tuple(map(state, self.stationary_downstream)),
            interior_upstream=state(self.interior_upstream),
            interior_downstream=tuple(map(state, self.interior_downstream)),
            interior_proportions=tuple(p[k].item() for p in self.interior_proportions),
            interior_unique=tuple(f[k].item() for f in self.interior_unique),
        )


def _per_share(s, x):
    """s / x, read as +inf where the share x is 0 (the x -> 0 limit); maps a _Sided s."""
    if isinstance(s, _Sided):
        return _Sided(_per_share(s.value, x), _per_share(s.slope, x))
    if np.ndim(x) == 0:
        return s / x if x > 0.0 else math.inf
    shape = np.broadcast_shapes(np.shape(s), np.shape(x))
    return np.divide(s, x, out=np.full(shape, math.inf), where=x > 0.0)


def junction_fluxes(model, demand_upstream, supplies, proportions):
    """Local (discrete) entropy fluxes of a model from scalar or array cell
    quantities.

    `proportions` are the turning proportions seen at the junction; they feed
    the DAGANZO_FIFO and LEBACQUE rules, while the evacuation rules use the
    model's own parameters.  Returns (q0, q1, q2) with q0 = q1 + q2.
    """
    d0 = demand_upstream
    s1, s2 = supplies
    kind = model.kind
    if kind is DivergeModelKind.DAGANZO_FIFO:
        x1, x2 = proportions
        q0 = np.minimum(d0, np.minimum(_per_share(s1, x1), _per_share(s2, x2)))
        return (q0, x1 * q0, x2 * q0)
    if kind is DivergeModelKind.LEBACQUE:
        x1, x2 = proportions
        q1 = np.minimum(x1 * d0, s1)
        q2 = np.minimum(x2 * d0, s2)
        return (q1 + q2, q1, q2)
    if kind is DivergeModelKind.SUPPLY_PROPORTIONAL:
        # min(1, D0 / (S1 + S2)), dividing only where the quotient is below 1
        # so that a subnormal total cannot overflow (a zero total has zero
        # supplies, so its scale of 1 still gives zero fluxes)
        total = s1 + s2
        room = total > d0
        scale = np.where(room, d0 / np.where(room, total, 1.0), 1.0)
        q1 = scale * s1
        q2 = scale * s2
        return (q1 + q2, q1, q2)
    terms = _evacuation_terms(model, d0, s1, s2)
    q1, q2 = (np.minimum(s, np.minimum(f, np.maximum(r, p))) for s, f, r, p in terms)
    return (q1 + q2, q1, q2)


def _evacuation_terms(model, d0, s1, s2):
    """Per downstream link i, the terms (Si, Fi, Ri, Pi) of the priority or
    partial-evacuation rule qi = min(Si, Fi, max(Ri, Pi)) on floats, arrays
    or _Sided values: the supply, the routed-remainder cap Sj (1 - xj) / xj,
    the residual D0 - Sj and the share D0 ai; the priority rule has xi = 0."""
    x1, x2 = model.xi if model.kind is DivergeModelKind.PARTIAL_EVACUATION else (0.0, 0.0)
    a1, a2 = model.alpha
    return tuple(
        (si, _per_share(sj * (1.0 - xj), xj), d0 - sj, d0 * ai)
        for si, sj, xj, ai in ((s1, s2, x2, a1), (s2, s1, x1, a2))
    )


def riemann_rule(model, capacities):
    """The local rule whose value at the initial (D0, S1, S2) is the Riemann
    flux of `model`: Daganzo's rule with the same xi for LEBACQUE, the
    priority rule with weights ci / (c1 + c2) for SUPPLY_PROPORTIONAL, and the
    model itself otherwise.  `capacities` is (c0, c1, c2)."""
    if model.kind is DivergeModelKind.LEBACQUE:
        return daganzo_fifo(model.xi)
    if model.kind is DivergeModelKind.SUPPLY_PROPORTIONAL:
        _, c1, c2 = capacities
        return priority_based((c1 / (c1 + c2), c2 / (c1 + c2)))
    return model


def solve_fluxes_batch(model, d0, s1, s2, capacities):
    """Closed-form boundary fluxes (q0, q1, q2) at scalar or array upstream
    demands and downstream supplies, from one evaluation of the riemann_rule
    counterpart; q0 = q1 + q2 holds exactly."""
    rule = riemann_rule(model, capacities)
    _, q1, q2 = junction_fluxes(rule, d0, (s1, s2), rule.xi)
    return (q1 + q2, q1, q2)


def solve_fluxes(model, inp):
    """Closed-form boundary fluxes (q0, q1, q2) of the Riemann problem.

    q0 = q1 + q2 holds exactly.  The result depends only on the upstream
    demand and the downstream supplies.
    """
    s1, s2 = inp.supplies
    _, q1, q2 = solve_fluxes_batch(model, inp.demand_upstream, s1, s2, inp.capacities)
    q1, q2 = float(q1), float(q2)
    return (q1 + q2, q1, q2)


# The two admissibility checks take floats or arrays.  A downstream link is
# an upstream one with demand and supply swapped, so each check is written
# once on (own, other): (demand, supply) upstream, (supply, demand)
# downstream.


def _own_other(state, side):
    if side is Side.UPSTREAM:
        return state.demand, state.supply
    return state.supply, state.demand


def check_stationary_admissible(candidate, initial, side, capacity):
    """Admissibility of a stationary state against the link's initial state.

    Upstream stationary states are (D0, C0) or (C0, S) with S < D0; downstream
    ones are (Ci, Si) or (D, Ci) with D < Si, where D0 and Si come from the
    initial state.
    """
    own, other = _own_other(candidate, side)
    bound = _own_other(initial, side)[0]
    kept = (abs(own - bound) <= TIE_TOL) & (abs(other - capacity) <= TIE_TOL)
    return kept | ((abs(own - capacity) <= TIE_TOL) & (other < bound - TIE_TOL))


def check_interior_admissible(interior, stationary, side, capacity):
    """Admissibility of an interior state given the (admissible) stationary.

    Interior states live on the link's supply-demand diagram, so
    max(D, S) = capacity is required as well.  A strictly over-critical
    upstream stationary (or strictly under-critical downstream stationary)
    forces the interior to coincide with it; otherwise the interior is free up
    to a one-sided bound against the stationary flux component.
    """
    own, other = _own_other(interior, side)
    stat_own, stat_other = _own_other(stationary, side)
    on_diagram = abs(np.maximum(own, other) - capacity) <= TIE_TOL
    forced = (stat_other < stat_own - TIE_TOL) & (abs(stat_own - capacity) <= TIE_TOL)
    return on_diagram & np.where(forced, interior.is_close(stationary, TIE_TOL), other >= stat_own - TIE_TOL)


def _stationary_states(d0, s1, s2, capacities, fluxes, tight):
    """Stationary states per link: (D0, C0) or (C0, q0) upstream, (Ci, Si)
    or (qi, Ci) downstream, by whether the link's bound is tight."""
    c0, c1, c2 = capacities
    q0, q1, q2 = fluxes
    up = TrafficState(np.where(tight[0], d0, c0), np.where(tight[0], c0, q0))
    down = tuple(
        TrafficState(np.where(t, c, q), np.where(t, s, c))
        for t, c, q, s in zip(tight[1:], (c1, c2), (q1, q2), (s1, s2))
    )
    return up, down


def _interior_proportions(model, d0, s1, s2, capacities, fluxes):
    """Canonical turning proportions in the upstream interior state."""
    q0, q1, q2 = fluxes
    kind = model.kind
    if kind is DivergeModelKind.DAGANZO_FIFO:
        return tuple(np.full(q0.shape, x) for x in model.xi)
    if kind is DivergeModelKind.LEBACQUE:
        # where exactly one downstream supply constrains the flux, the
        # upstream interior keeps demand C0 and reweights the commodities so
        # that the unconstrained one still passes xi_i * q0
        x1, x2 = model.xi
        bind1 = abs(s1 / x1 - q0) <= TIE_TOL
        bind2 = abs(s2 / x2 - q0) <= TIE_TOL
        one = (d0 > q0 + TIE_TOL) & (bind1 != bind2)
        p1 = x1 * q0 / capacities[0]
        p2 = x2 * q0 / capacities[0]
        first = np.where(one & bind2, p1, np.where(one, 1.0 - p2, x1))
        second = np.where(one & bind2, 1.0 - p1, np.where(one, p2, x2))
        return (first, second)
    moving = q0 > TIE_TOL
    safe = np.where(moving, q0, 1.0)
    return tuple(np.where(moving, q / safe, a) for q, a in zip((q1, q2), riemann_rule(model, capacities).alpha))


def _canonical_interiors(model, d0, s1, s2, capacities, tight, stationary_down):
    """Downstream interior states: the stationary states, except where the
    entropy rule forces a distinct interior (supply-proportional rule, one
    congested and one free downstream link).  Upstream interiors are the
    stationary states."""
    if model.kind is not DivergeModelKind.SUPPLY_PROPORTIONAL:
        return stationary_down
    split = tight[0] & (s1 + s2 > d0 + TIE_TOL) & (tight[1] != tight[2])
    interior = []
    _, c1, c2 = capacities
    for i, (si, ci, cj) in enumerate(((s1, c1, c2), (s2, c2, c1))):
        stationary = stationary_down[i]
        room = d0 - si
        distinct = split & tight[1 + i] & (room > TIE_TOL)
        supply = np.minimum(ci, si * cj / np.where(distinct, room, 1.0))
        interior.append(TrafficState(stationary.demand, np.where(distinct, supply, stationary.supply)))
    return tuple(interior)


class _Sided:
    """A value with its right-hand slope as an interior coordinate grows
    from its canonical value (that coordinate carries slope 1).  Values and
    slopes are floats or arrays; a (3, n) slope holds the slopes along the
    three coordinates (d0, s1, s2) as rows."""

    __slots__ = ("value", "slope")

    def __init__(self, value, slope=0.0):
        self.value = value
        self.slope = slope

    def __add__(self, other):
        return _Sided(self.value + other.value, self.slope + other.slope)

    def __sub__(self, other):
        return _Sided(self.value - other.value, self.slope - other.slope)

    def __mul__(self, other):
        if isinstance(other, _Sided):
            return _Sided(
                self.value * other.value, self.slope * other.value + self.value * other.slope
            )
        return _Sided(self.value * other, self.slope * other)

    def __truediv__(self, other):
        ratio = self.value / other.value
        return _Sided(ratio, (self.slope - ratio * other.slope) / other.value)


def _sided_min(*terms):
    """min of the terms; of those within TIE_TOL of it, the slowest-growing
    one leads."""
    low = functools.reduce(np.minimum, [t.value for t in terms])
    slopes = [np.where(t.value <= low + TIE_TOL, t.slope, math.inf) for t in terms]
    return _Sided(low, functools.reduce(np.minimum, slopes))


def _sided_max(*terms):
    """max of the terms; of those within TIE_TOL of it, the fastest-growing
    one leads."""
    high = functools.reduce(np.maximum, [t.value for t in terms])
    slopes = [np.where(t.value >= high - TIE_TOL, t.slope, -math.inf) for t in terms]
    return _Sided(high, functools.reduce(np.maximum, slopes))


def _sided_where(mask, a, b):
    return _Sided(np.where(mask, a.value, b.value), np.where(mask, a.slope, b.slope))


def _sided_evacuation_fluxes(model, d0, s1, s2):
    """(q1, q2) of an evacuation rule on _Sided quantities: the values are
    junction_fluxes', the slopes its right-hand derivatives."""
    if model.kind is DivergeModelKind.SUPPLY_PROPORTIONAL:
        total = s1 + s2
        empty = total.value <= 0.0
        scale = _sided_min(_Sided(1.0), d0 / _Sided(np.where(empty, 1.0, total.value), total.slope))
        return (
            _sided_where(empty, _sided_min(s1, d0), scale * s1),
            _sided_where(empty, _sided_min(s2, d0), scale * s2),
        )
    return tuple(_sided_min(s, f, _sided_max(r, p)) for s, f, r, p in _evacuation_terms(model, d0, s1, s2))


def _interior_unique_flags(model, capacities, tight, interior_up, interior_down):
    """Per link (upstream, down 1, down 2): is its interior state the only one
    the entropy rule accepts?  The rule is stated in the module docstring.

    Only raising a tight link's coordinate above its canonical value can
    leave the fluxes in place: lowering it lowers q0 <= D or qi <= Si, which
    bind there, or, at a distinct supply-proportional interior, the strictly
    rising qi = D Si / (S1 + S2).
    """
    point = (interior_up.demand, interior_down[0].supply, interior_down[1].supply)
    free = [tight[k] & (capacities[k] - point[k] > _ROOM) for k in range(3)]
    if model.kind in _FIFO_KINDS:
        free = [free[k] & (tight[(k + 1) % 3] | tight[(k + 2) % 3]) for k in range(3)]
    elif any(f.any() for f in free):
        flat = _fluxes_flat(model, point)
        free = [free[k] & flat[k] for k in range(3)]
    return tuple(~f for f in free)


def _fluxes_flat(model, point):
    """Row k: do both fluxes have zero slope as coordinate k of the interior
    point (d0, s1, s2) grows?  The three coordinates' slopes are carried as
    the rows of one (3, n) slope array."""
    unit = np.eye(3)[:, :, None]
    q1, q2 = _sided_evacuation_fluxes(model, *(_Sided(v, unit[m]) for m, v in enumerate(point)))
    return (abs(q1.slope) <= _SLOPE_TOL) & (abs(q2.slope) <= _SLOPE_TOL)


def solve_batch(model, d0, s1, s2, capacities):
    """The Riemann solutions at the points (d0[k], s1[k], s2[k]) of 1-d
    arrays, as one RiemannSolution of arrays: fluxes, stationary states,
    canonical interior states, interior turning proportions, and uniqueness
    flags.  The model's xi and alpha may be arrays of the same length (one
    rule per point); `capacities` is (c0, c1, c2)."""
    d0, s1, s2 = (np.asarray(v, dtype=float) for v in (d0, s1, s2))
    fluxes = solve_fluxes_batch(model, d0, s1, s2, capacities)
    q0, q1, q2 = fluxes
    tight = (q0 >= d0 - TIE_TOL, q1 >= s1 - TIE_TOL, q2 >= s2 - TIE_TOL)
    stationary_up, stationary_down = _stationary_states(d0, s1, s2, capacities, fluxes, tight)
    interior_down = _canonical_interiors(model, d0, s1, s2, capacities, tight, stationary_down)
    proportions = _interior_proportions(model, d0, s1, s2, capacities, fluxes)
    unique = _interior_unique_flags(model, capacities, tight, stationary_up, interior_down)
    return RiemannSolution(
        fluxes=fluxes,
        stationary_upstream=stationary_up,
        stationary_downstream=stationary_down,
        interior_upstream=stationary_up,
        interior_downstream=interior_down,
        interior_proportions=proportions,
        interior_unique=unique,
    )


def solve(model, inp):
    """Full Riemann solution: fluxes, stationary states, canonical interior
    states, interior turning proportions, and uniqueness flags; solve_batch
    on a batch of one."""
    s1, s2 = inp.supplies
    return solve_batch(model, [inp.demand_upstream], [s1], [s2], inp.capacities).row(0)
