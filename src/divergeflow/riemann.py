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
one kernel of all five rules and takes scalars or arrays.

Each Riemann flux is a local rule evaluated at the initial (D0, S1, S2):
Lebacque's rule gives the fluxes of Daganzo's with the same xi, and the
supply-proportional rule those of the priority rule with weights
ci / (c1 + c2).  riemann_rule names that counterpart rule and solve_fluxes
evaluates it; solve adds stationary states, canonical interior states,
interior turning proportions, and per-link uniqueness flags.

The uniqueness flags follow from which bounds are tight.  A strict bound
(q0 < D0, qi < Si) pins the link's interior state to its stationary state.
A tight bound leaves the interior demand (upstream) or supply (downstream)
free exactly when the link has room to raise it (more than 1e-9 below
capacity) and the fluxes do not move as it rises from its canonical value:

    DAGANZO_FIFO, LEBACQUE   a second bound is tight too (it fixes q0)
    evacuation rules         q1 and q2 have zero right-hand slope in that
                             coordinate at the canonical interiors

The slopes come from the binding min/max terms, a tie counting every tied
term.  oracle.probe_interior_unique checks these flags by scanning.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .fundamental_diagram import FLUX_TOL, FundamentalDiagram, InvalidStateError
from .supply_demand import TrafficState, state_of

__all__ = [
    "DivergeModelKind",
    "DivergeModel",
    "Side",
    "RiemannInput",
    "RiemannSolution",
    "riemann_rule",
    "solve_fluxes",
    "solve",
    "junction_fluxes",
    "local_discrete_flux",
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
    """

    kind: DivergeModelKind
    xi: tuple[float, float] | None = None
    alpha: tuple[float, float] | None = None

    def __post_init__(self):
        if self.xi is not None:
            object.__setattr__(self, "xi", (float(self.xi[0]), float(self.xi[1])))
        if self.alpha is not None:
            object.__setattr__(self, "alpha", (float(self.alpha[0]), float(self.alpha[1])))
        kind = self.kind
        if kind in _FIFO_KINDS:
            self._require_xi(strict=True)
        elif kind is DivergeModelKind.PRIORITY_BASED:
            self._require_alpha(lo=(0.0, 0.0), hi=(1.0, 1.0))
        elif kind is DivergeModelKind.PARTIAL_EVACUATION:
            self._require_xi(strict=False)
            x1, x2 = self.xi
            self._require_alpha(lo=(x1, x2), hi=(1.0 - x2, 1.0 - x1))

    def _require_xi(self, strict):
        if self.xi is None:
            raise ValueError(f"{self.kind.value} requires turning proportions xi")
        x1, x2 = self.xi
        if strict:
            if x1 <= 0.0 or x2 <= 0.0:
                raise ValueError(f"{self.kind.value} requires strictly positive xi, got {self.xi}")
            if abs(x1 + x2 - 1.0) > FLUX_TOL:
                raise ValueError(f"xi must sum to 1, got {self.xi}")
        else:
            if x1 < 0.0 or x2 < 0.0 or x1 + x2 > 1.0 + FLUX_TOL:
                raise ValueError(f"xi must be nonnegative with sum <= 1, got {self.xi}")

    def _require_alpha(self, lo, hi):
        if self.alpha is None:
            raise ValueError(f"{self.kind.value} requires priority weights alpha")
        a1, a2 = self.alpha
        if abs(a1 + a2 - 1.0) > FLUX_TOL:
            raise ValueError(f"alpha must sum to 1, got {self.alpha}")
        eps = FLUX_TOL
        if not (lo[0] - eps <= a1 <= hi[0] + eps and lo[1] - eps <= a2 <= hi[1] + eps):
            raise ValueError(
                f"alpha {self.alpha} outside admissible box [{lo[0]}, {hi[0]}] x [{lo[1]}, {hi[1]}]"
            )


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
    down 2)."""

    fluxes: tuple[float, float, float]
    stationary_upstream: TrafficState
    stationary_downstream: tuple[TrafficState, TrafficState]
    interior_upstream: TrafficState
    interior_downstream: tuple[TrafficState, TrafficState]
    interior_proportions: tuple[float, float]
    interior_unique: tuple[bool, bool, bool]

    @property
    def q0(self):
        return self.fluxes[0]

    @property
    def q1(self):
        return self.fluxes[1]

    @property
    def q2(self):
        return self.fluxes[2]


def _per_share(s, x):
    """s / x, read as +inf where the share x is 0 (the x -> 0 limit)."""
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
        total = s1 + s2
        scale = np.where(total > 0.0, np.minimum(1.0, d0 / np.where(total > 0.0, total, 1.0)), 0.0)
        q1 = scale * s1
        q2 = scale * s2
        return (q1 + q2, q1, q2)
    if kind is DivergeModelKind.PRIORITY_BASED:
        a1, a2 = model.alpha
        q1 = np.minimum(s1, np.maximum(d0 - s2, a1 * d0))
        q2 = np.minimum(s2, np.maximum(d0 - s1, a2 * d0))
        return (q1 + q2, q1, q2)
    x1, x2 = model.xi
    a1, a2 = model.alpha
    q1 = np.minimum(s1, np.minimum(_per_share(s2 * (1.0 - x2), x2), np.maximum(d0 - s2, a1 * d0)))
    q2 = np.minimum(s2, np.minimum(_per_share(s1 * (1.0 - x1), x1), np.maximum(d0 - s1, a2 * d0)))
    return (q1 + q2, q1, q2)


def local_discrete_flux(model, interior_upstream, interior_downstream, interior_proportions):
    """Evaluate the model's local entropy rule on interior states.

    Exactly the flux function the cell-transmission junction update calls.
    """
    d0 = interior_upstream.demand
    supplies = (interior_downstream[0].supply, interior_downstream[1].supply)
    q0, q1, q2 = junction_fluxes(model, d0, supplies, interior_proportions)
    return (float(q0), float(q1), float(q2))


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


def solve_fluxes(model, inp):
    """Closed-form boundary fluxes (q0, q1, q2) of the Riemann problem.

    q0 = q1 + q2 holds exactly.  The result depends only on the upstream
    demand and the downstream supplies.
    """
    rule = riemann_rule(model, inp.capacities)
    _, q1, q2 = junction_fluxes(rule, inp.demand_upstream, inp.supplies, rule.xi)
    q1, q2 = float(q1), float(q2)
    return (q1 + q2, q1, q2)


def _stationary_states(inp, fluxes):
    q0, q1, q2 = fluxes
    d0 = inp.demand_upstream
    supplies = inp.supplies
    c0, c1, c2 = inp.capacities
    up = TrafficState(d0, c0) if q0 >= d0 - TIE_TOL else TrafficState(c0, q0)
    down = []
    for qi, si, ci in zip((q1, q2), supplies, (c1, c2)):
        down.append(TrafficState(ci, si) if qi >= si - TIE_TOL else TrafficState(qi, ci))
    return up, tuple(down)


def check_stationary_admissible(candidate, initial, side, capacity, tol=TIE_TOL):
    """Admissibility of a stationary state against the link's initial state.

    Upstream stationary states are (D0, C0) or (C0, S) with S < D0; downstream
    ones are (Ci, Si) or (D, Ci) with D < Si, where D0 and Si come from the
    initial state.
    """
    d, s = candidate.demand, candidate.supply
    if side is Side.UPSTREAM:
        d0 = initial.demand
        if abs(d - d0) <= tol and abs(s - capacity) <= tol:
            return True
        return abs(d - capacity) <= tol and s < d0 - tol
    si = initial.supply
    if abs(d - capacity) <= tol and abs(s - si) <= tol:
        return True
    return abs(s - capacity) <= tol and d < si - tol


def check_interior_admissible(interior, stationary, side, capacity, tol=TIE_TOL):
    """Admissibility of an interior state given the (admissible) stationary.

    Interior states live on the link's supply-demand diagram, so
    max(D, S) = capacity is required as well.  A strictly over-critical
    upstream stationary (or strictly under-critical downstream stationary)
    forces the interior to coincide with it; otherwise the interior is free up
    to a one-sided bound against the stationary flux component.
    """
    d, s = interior.demand, interior.supply
    if abs(max(d, s) - capacity) > tol:
        return False
    if side is Side.UPSTREAM:
        soc = stationary.supply < stationary.demand - tol and abs(stationary.demand - capacity) <= tol
        if soc:
            return interior.is_close(stationary, tol)
        return s >= stationary.demand - tol
    suc = stationary.demand < stationary.supply - tol and abs(stationary.supply - capacity) <= tol
    if suc:
        return interior.is_close(stationary, tol)
    return d >= stationary.supply - tol


def _interior_proportions(model, inp, fluxes):
    """Canonical turning proportions in the upstream interior state."""
    q0, q1, q2 = fluxes
    kind = model.kind
    if kind is DivergeModelKind.DAGANZO_FIFO:
        return model.xi
    if kind is DivergeModelKind.LEBACQUE:
        d0 = inp.demand_upstream
        s1, s2 = inp.supplies
        c0 = inp.capacities[0]
        x1, x2 = model.xi
        t1, t2 = s1 / x1, s2 / x2
        bind1 = abs(t1 - q0) <= TIE_TOL
        bind2 = abs(t2 - q0) <= TIE_TOL
        if d0 > q0 + TIE_TOL and bind1 != bind2:
            # exactly one downstream supply constrains the flux: the upstream
            # interior keeps demand C0 and reweights the commodities so that
            # the unconstrained one still passes xi_i * q0
            if bind2:
                p1 = x1 * q0 / c0
                return (p1, 1.0 - p1)
            p2 = x2 * q0 / c0
            return (1.0 - p2, p2)
        return model.xi
    if q0 > TIE_TOL:
        return (q1 / q0, q2 / q0)
    if kind is DivergeModelKind.SUPPLY_PROPORTIONAL:
        c1, c2 = inp.capacities[1], inp.capacities[2]
        return (c1 / (c1 + c2), c2 / (c1 + c2))
    return model.alpha


def _canonical_interiors(model, inp, fluxes, stationary_up, stationary_down):
    """Interior states: the stationary states, except where the entropy rule
    forces a distinct interior (supply-proportional rule, one congested and
    one free downstream link)."""
    interior_up = stationary_up
    interior_down = list(stationary_down)
    if model.kind is DivergeModelKind.SUPPLY_PROPORTIONAL:
        q0, q1, q2 = fluxes
        d0 = inp.demand_upstream
        s1, s2 = inp.supplies
        ties = [q1 >= s1 - TIE_TOL, q2 >= s2 - TIE_TOL]
        if (
            q0 >= d0 - TIE_TOL
            and s1 + s2 > d0 + TIE_TOL
            and ties[0] != ties[1]
        ):
            i = 0 if ties[0] else 1
            j = 1 - i
            si = (s1, s2)[i]
            ci = inp.capacities[1 + i]
            cj = inp.capacities[1 + j]
            if d0 - si > TIE_TOL:
                supply = min(ci, si * cj / (d0 - si))
                interior_down[i] = TrafficState(ci, supply)
    return interior_up, tuple(interior_down)


class _Sided:
    """A value with its right-hand slope as one interior coordinate grows
    from its canonical value (that coordinate carries slope 1)."""

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

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _Sided):
            ratio = self.value / other.value
            return _Sided(ratio, (self.slope - ratio * other.slope) / other.value)
        return _Sided(self.value / other, self.slope / other)


def _sided_min(*terms):
    """min of the terms; of the tied ones, the slowest-growing one leads."""
    low = min(t.value for t in terms)
    return _Sided(low, min(t.slope for t in terms if t.value <= low + TIE_TOL))


def _sided_max(*terms):
    """max of the terms; of the tied ones, the fastest-growing one leads."""
    high = max(t.value for t in terms)
    return _Sided(high, max(t.slope for t in terms if t.value >= high - TIE_TOL))


def _sided_evacuation_fluxes(model, d0, s1, s2):
    """(q1, q2) of an evacuation rule on _Sided quantities: the values are
    junction_fluxes', the slopes its right-hand derivatives."""
    if model.kind is DivergeModelKind.SUPPLY_PROPORTIONAL:
        total = s1 + s2
        if total.value <= 0.0:
            return _sided_min(s1, d0), _sided_min(s2, d0)
        scale = _sided_min(_Sided(1.0), d0 / total)
        return scale * s1, scale * s2
    a1, a2 = model.alpha
    caps1 = [s1, _sided_max(d0 - s2, a1 * d0)]
    caps2 = [s2, _sided_max(d0 - s1, a2 * d0)]
    if model.kind is DivergeModelKind.PARTIAL_EVACUATION:
        x1, x2 = model.xi
        if x2 > 0.0:
            caps1.append(s2 * (1.0 - x2) / x2)
        if x1 > 0.0:
            caps2.append(s1 * (1.0 - x1) / x1)
    return _sided_min(*caps1), _sided_min(*caps2)


def _interior_unique_flags(model, inp, fluxes, interiors):
    """Per link (upstream, down 1, down 2): is its interior state the only one
    the entropy rule accepts?  The rule is stated in the module docstring.

    Only raising a tight link's coordinate above its canonical value can
    leave the fluxes in place: lowering it lowers q0 <= D or qi <= Si, which
    bind there, or, at a distinct supply-proportional interior, the strictly
    rising qi = D Si / (S1 + S2).
    """
    q0, q1, q2 = fluxes
    d0 = inp.demand_upstream
    s1, s2 = inp.supplies
    caps = inp.capacities
    tight = (q0 >= d0 - TIE_TOL, q1 >= s1 - TIE_TOL, q2 >= s2 - TIE_TOL)
    interior_up, interior_down = interiors
    point = (interior_up.demand, interior_down[0].supply, interior_down[1].supply)
    flags = []
    for k in range(3):
        free = tight[k] and caps[k] - point[k] > _ROOM
        if free and model.kind in _FIFO_KINDS:
            free = any(tight[m] for m in range(3) if m != k)
        elif free:
            free = _fluxes_flat(model, point, k)
        flags.append(not free)
    return tuple(flags)


def _fluxes_flat(model, point, k):
    """Do both fluxes have zero slope as coordinate k of the interior point
    (d0, s1, s2) grows?"""
    args = [_Sided(v, 1.0 if m == k else 0.0) for m, v in enumerate(point)]
    return all(abs(q.slope) <= _SLOPE_TOL for q in _sided_evacuation_fluxes(model, *args))


def solve(model, inp):
    """Full Riemann solution: fluxes, stationary states, canonical interior
    states, interior turning proportions, and uniqueness flags."""
    fluxes = solve_fluxes(model, inp)
    stationary_up, stationary_down = _stationary_states(inp, fluxes)
    interiors = _canonical_interiors(model, inp, fluxes, stationary_up, stationary_down)
    proportions = _interior_proportions(model, inp, fluxes)
    unique = _interior_unique_flags(model, inp, fluxes, interiors)
    return RiemannSolution(
        fluxes=fluxes,
        stationary_upstream=stationary_up,
        stationary_downstream=stationary_down,
        interior_upstream=interiors[0],
        interior_downstream=interiors[1],
        interior_proportions=proportions,
        interior_unique=unique,
    )
