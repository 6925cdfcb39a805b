"""Analytical Riemann solver for a diverge junction (one upstream link 0, two
downstream links 1 and 2).

Given constant initial states on the three links, the solution consists of a
boundary flux triple (q0, q1, q2) with q0 = q1 + q2 and, per link, a
stationary state and an interior state; every per-link quantity of input and
solution is a triple in link order (0 upstream, 1 and 2 downstream).
Stationary states prevail next to the junction as t grows and emit the
kinematic waves; interior states occupy one cell in discretizations and carry
no wave.  A stationary state is admissible when the wave it emits travels
away from the junction, which pins it to

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
states the terms of both once, and _evacuation_binding alone decides which
of them bind (within TIE_TOL); the uniqueness slopes below and harness's
flux-map regions both read that decision.

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

For the priority and partial-evacuation rules a flux's slope is that of
its binding terms (_evacuation_binding), the slowest-growing at the min and
the fastest-growing at the max; every term is linear in (D0, S1, S2), so
its slopes are _evacuation_terms evaluated at the unit rows.  The
supply-proportional rule, the one nonlinear local rule, has its slopes in
closed form.  The three coordinates' slopes are carried together as rows.
oracle.probe_interior_unique_batch checks these flags by scanning.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .fundamental_diagram import FLUX_TOL, FundamentalDiagram, InvalidStateError
from .supply_demand import TrafficState, holds, state_of

__all__ = [
    "DivergeModelKind",
    "DivergeModel",
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
    """Initial states of the three links in link order (0 upstream, 1 and 2
    downstream), each bound to its diagram, and the initial densities when
    the states were built from them; each density must map to its link's
    state within FLUX_TOL."""

    diagrams: tuple[FundamentalDiagram, FundamentalDiagram, FundamentalDiagram]
    states: tuple[TrafficState, TrafficState, TrafficState]
    densities: tuple[float, float, float] | None = None

    def __post_init__(self):
        names = ("diagrams", "states") if self.densities is None else ("diagrams", "states", "densities")
        triples = [tuple(getattr(self, name)) for name in names]
        if any(len(triple) != 3 for triple in triples):
            counts = ", ".join(f"{len(triple)} {name}" for name, triple in zip(names, triples))
            raise ValueError(f"a Riemann input takes one entry per link (3 of each), got {counts}")
        for name, triple in zip(names, triples):
            object.__setattr__(self, name, triple)
        for state, fd in zip(self.states, self.diagrams):
            if abs(max(state.demand, state.supply) - fd.capacity) > FLUX_TOL:
                raise InvalidStateError(
                    f"state ({state.demand}, {state.supply}) not bound to capacity {fd.capacity}"
                )
        for link, (fd, state, rho) in enumerate(zip(self.diagrams, self.states, self.densities or ())):
            if not state_of(fd, rho).is_close(state):
                raise InvalidStateError(f"link {link}: density {rho!r} does not map to its state {state}")

    @classmethod
    def from_densities(cls, diagrams, densities):
        """Build the input from three diagrams and three initial densities."""
        densities = tuple(float(r) for r in densities)
        return cls(diagrams, tuple(map(state_of, diagrams, densities)), densities)

    def initial_density(self, link):
        """Initial density of link 0, 1 or 2: the one the input was built
        from, else the inverse of the link's state."""
        if self.densities is not None:
            return self.densities[link]
        return self.diagrams[link].density_from_state(self.states[link])

    @property
    def demand_upstream(self):
        return self.states[0].demand

    @property
    def supplies(self):
        return (self.states[1].supply, self.states[2].supply)

    @property
    def capacities(self):
        return tuple(fd.capacity for fd in self.diagrams)


@dataclass(frozen=True)
class RiemannSolution:
    """Fluxes, stationary states, interior states, interior turning
    proportions, and interior uniqueness flags; every per-link field is a
    triple in link order (0 upstream, 1 and 2 downstream).  solve gives
    floats and bools; solve_batch gives equal-length arrays in every field,
    one entry per point, and row(k) picks point k."""

    fluxes: tuple[float, float, float]
    stationary: tuple[TrafficState, TrafficState, TrafficState]
    interior: tuple[TrafficState, TrafficState, TrafficState]
    interior_proportions: tuple[float, float]
    interior_unique: tuple[bool, bool, bool]

    def row(self, k):
        """Point k of a batch solution, in Python floats and bools."""

        def state(u):
            return TrafficState(u.demand[k].item(), u.supply[k].item())

        return RiemannSolution(
            fluxes=tuple(q[k].item() for q in self.fluxes),
            stationary=tuple(map(state, self.stationary)),
            interior=tuple(map(state, self.interior)),
            interior_proportions=tuple(p[k].item() for p in self.interior_proportions),
            interior_unique=tuple(f[k].item() for f in self.interior_unique),
        )


def _per_share(s, x):
    """s / x, read as +inf where the share x is 0 (the x -> 0 limit).  A
    share that is not an array takes the scalar path (np.ndim would cost
    a Daganzo call about 1 us per share)."""
    if not isinstance(x, np.ndarray):
        return s / x if x > 0.0 else math.inf
    shape = np.broadcast_shapes(np.shape(s), np.shape(x))
    return np.divide(s, x, out=np.full(shape, math.inf), where=x > 0.0)


def junction_fluxes(model, demand_upstream, supplies, proportions):
    """Local (discrete) entropy fluxes of a model from scalar or array cell
    quantities.

    `proportions` are the turning proportions seen at the junction; they feed
    the DAGANZO_FIFO and LEBACQUE rules, while the evacuation rules use the
    model's own parameters.  Returns (q0, q1, q2): q0 = q1 + q2 exactly for
    every rule but DAGANZO_FIFO, which returns (q0, x1 q0, x2 q0), whose
    q1 + q2 may miss q0 by an ulp.
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
    partial-evacuation rule qi = min(Si, Fi, max(Ri, Pi)) on floats or
    arrays: the supply, the routed-remainder cap Sj (1 - xj) / xj, the
    residual D0 - Sj and the share D0 ai; the priority rule has xi = 0.
    Each term is linear in (D0, S1, S2)."""
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
    return tuple(map(float, solve_fluxes_batch(model, inp.demand_upstream, s1, s2, inp.capacities)))


# The two admissibility checks take floats or arrays and the link's index, 0
# upstream or 1 and 2 downstream, as waves.wrong_signs does.  A downstream link
# is an upstream one with demand and supply swapped, so each check is written
# once on (own, other): (demand, supply) on link 0, (supply, demand) on 1 and 2.


def _own_other(state, link):
    if link == 0:
        return state.demand, state.supply
    if link in (1, 2):
        return state.supply, state.demand
    raise ValueError(f"link must be 0 (upstream), 1 or 2 (downstream), got {link!r}")


def check_stationary_admissible(candidate, initial, link, capacity):
    """Admissibility of a stationary state against the initial state of `link`.

    Upstream (link 0) stationary states are (D0, C0) or (C0, S) with S < D0;
    downstream (links 1, 2) ones are (Ci, Si) or (D, Ci) with D < Si, where
    D0 and Si come from the initial state.
    """
    own, other = _own_other(candidate, link)
    bound = _own_other(initial, link)[0]
    kept = (abs(own - bound) <= TIE_TOL) & (abs(other - capacity) <= TIE_TOL)
    return kept | ((abs(own - capacity) <= TIE_TOL) & (other < bound - TIE_TOL))


def check_interior_admissible(interior, stationary, link, capacity):
    """Admissibility of an interior state on `link` given the (admissible) stationary.

    Interior states live on the link's supply-demand diagram, so
    max(D, S) = capacity is required as well.  A strictly over-critical
    upstream stationary (or strictly under-critical downstream stationary)
    forces the interior to coincide with it; otherwise the interior is free up
    to a one-sided bound against the stationary flux component.
    """
    own, other = _own_other(interior, link)
    stat_own, stat_other = _own_other(stationary, link)
    on_diagram = abs(np.maximum(own, other) - capacity) <= TIE_TOL
    forced = (stat_other < stat_own - TIE_TOL) & (abs(stat_own - capacity) <= TIE_TOL)
    return on_diagram & np.where(forced, interior.is_close(stationary, TIE_TOL), other >= stat_own - TIE_TOL)


def _stationary_states(d0, s1, s2, capacities, fluxes, tight):
    """Stationary states in link order: (D0, C0) or (C0, q0) upstream,
    (Ci, Si) or (qi, Ci) downstream, by whether the link's bound is tight."""
    c0, q0 = capacities[0], fluxes[0]
    up = TrafficState(np.where(tight[0], d0, c0), np.where(tight[0], c0, q0))
    down = (
        TrafficState(np.where(t, c, q), np.where(t, s, c))
        for t, c, q, s in zip(tight[1:], capacities[1:], fluxes[1:], (s1, s2))
    )
    return (up, *down)


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


def _canonical_interiors(model, d0, s1, s2, capacities, tight, stationary):
    """Interior states in link order: the stationary states, except where
    the entropy rule forces a distinct downstream interior (supply-
    proportional rule, one congested and one free downstream link)."""
    if model.kind is not DivergeModelKind.SUPPLY_PROPORTIONAL:
        return stationary
    split = tight[0] & (s1 + s2 > d0 + TIE_TOL) & (tight[1] != tight[2])
    interior = [stationary[0]]
    _, c1, c2 = capacities
    for i, si, ci, cj in ((1, s1, c1, c2), (2, s2, c2, c1)):
        room = d0 - si
        distinct = split & tight[i] & (room > TIE_TOL)
        supply = np.minimum(ci, si * cj / np.where(distinct, room, 1.0))
        interior.append(TrafficState(stationary[i].demand, np.where(distinct, supply, stationary[i].supply)))
    return tuple(interior)


def _evacuation_binding(model, d0, s1, s2):
    """Per downstream link, the masks (F, P, R, S) of the _evacuation_terms
    that bind its flux min(Si, Fi, max(Ri, Pi)): the terms within TIE_TOL of
    the min, where R and P count only within TIE_TOL of the max too."""
    binding = []
    for si, cap, residual, share in _evacuation_terms(model, d0, s1, s2):
        # R or P always attains the composite, so the flux is min(S, composite, F)
        composite = np.maximum(residual, share)
        bound = np.minimum(np.minimum(si, composite), cap) + TIE_TOL
        tied = composite <= bound
        binding.append((
            cap <= bound,
            tied & (share >= composite - TIE_TOL),
            tied & (residual >= composite - TIE_TOL),
            si <= bound,
        ))
    return binding


def _interior_unique_flags(model, capacities, tight, interior):
    """Per link, in link order: is its interior state the only one the
    entropy rule accepts?  The rule is stated in the module docstring.

    Only raising a tight link's coordinate above its canonical value can
    leave the fluxes in place: lowering it lowers q0 <= D or qi <= Si, which
    bind there, or, at a distinct supply-proportional interior, the strictly
    rising qi = D Si / (S1 + S2).
    """
    point = (interior[0].demand, interior[1].supply, interior[2].supply)
    free = [tight[k] & (capacities[k] - point[k] > _ROOM) for k in range(3)]
    if model.kind in _FIFO_KINDS:
        free = [free[k] & (tight[(k + 1) % 3] | tight[(k + 2) % 3]) for k in range(3)]
    elif any(f.any() for f in free):
        flat = _fluxes_flat(model, point)
        free = [free[k] & flat[k] for k in range(3)]
    return tuple(~f for f in free)


def _fluxes_flat(model, point):
    """Row k: do both fluxes have zero right-hand slope as coordinate k of
    the interior point (d0, s1, s2) grows?  Each flux takes the slowest-
    growing of its binding terms, and of R and P the fastest-growing; the
    terms are linear, so their slopes are the terms at the unit rows."""
    unit = np.eye(3)[:, :, None]
    if model.kind is DivergeModelKind.SUPPLY_PROPORTIONAL:
        slopes = _supply_proportional_slopes(*point, unit)
    else:
        slopes = []
        binding = _evacuation_binding(model, *point)
        for (f, p, r, s), (ts, tf, tr, tp) in zip(binding, _evacuation_terms(model, *unit)):
            composite = np.maximum(np.where(r, tr, -math.inf), np.where(p, tp, -math.inf))
            least = np.minimum(np.where(s, ts, math.inf), np.where(f, tf, math.inf))
            slopes.append(np.minimum(least, np.where(r | p, composite, math.inf)))
    q1, q2 = slopes
    return (abs(q1) <= _SLOPE_TOL) & (abs(q2) <= _SLOPE_TOL)


def _supply_proportional_slopes(d0, s1, s2, unit):
    """Right-hand slopes along the unit rows of the supply-proportional
    (q1, q2) = min(1, D0 / T) (S1, S2) with T = S1 + S2, or min(Si, D0)
    where T is 0; of a min's terms within TIE_TOL of it, the slowest-growing
    leads.  A subnormal T overflows D0 / T and its slope: the warnings are
    silenced, as an infinite ratio never leads the min and a NaN slope
    (inf * 0) counts as moving."""
    total = s1 + s2
    empty = total <= 0.0
    safe = np.where(empty, 1.0, total)
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = d0 / safe
        ratio_slope = (unit[0] - ratio * (unit[1] + unit[2])) / safe
        scale = np.minimum(1.0, ratio)
        scale_slope = np.minimum(
            np.where(1.0 <= scale + TIE_TOL, 0.0, math.inf),
            np.where(ratio <= scale + TIE_TOL, ratio_slope, math.inf),
        )
        slopes = []
        for si, ui in ((s1, unit[1]), (s2, unit[2])):
            low = np.minimum(si, d0)
            least = np.minimum(
                np.where(si <= low + TIE_TOL, ui, math.inf), np.where(d0 <= low + TIE_TOL, unit[0], math.inf)
            )
            slopes.append(np.where(empty, least, scale_slope * si + scale * ui))
    return slopes


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
    stationary = _stationary_states(d0, s1, s2, capacities, fluxes, tight)
    interior = _canonical_interiors(model, d0, s1, s2, capacities, tight, stationary)
    proportions = _interior_proportions(model, d0, s1, s2, capacities, fluxes)
    unique = _interior_unique_flags(model, capacities, tight, interior)
    return RiemannSolution(fluxes, stationary, interior, proportions, unique)


def solve(model, inp):
    """Full Riemann solution: fluxes, stationary states, canonical interior
    states, interior turning proportions, and uniqueness flags; solve_batch
    on a batch of one."""
    s1, s2 = inp.supplies
    return solve_batch(model, [inp.demand_upstream], [s1], [s2], inp.capacities).row(0)
