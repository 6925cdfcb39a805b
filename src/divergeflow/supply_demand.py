"""Supply-demand representation of traffic states.

A traffic state is a point U = (D, S): D is the demand (maximum sending flow)
and S the supply (maximum receiving flow).  For a state bound to a diagram
with capacity C, max(D, S) = C; the local flow rate is q(U) = min(D, S).
Which component equals the capacity classifies the state:

    D = S = C   critical
    D < S = C   strictly under-critical (free flowing)
    S < D = C   strictly over-critical  (congested)

Under-critical (S = C) and over-critical (D = C) overlap only at the critical
state.  Equality against the capacity is tested with the absolute tolerance
FLUX_TOL; a state within tolerance of critical classifies as critical.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .fundamental_diagram import FLUX_TOL, FundamentalDiagram, InvalidStateError

__all__ = ["TrafficState", "Criticality", "state_of", "classify"]


@dataclass(frozen=True)
class TrafficState:
    """An immutable supply-demand point U = (D, S), both components >= 0
    (NaN is rejected)."""

    demand: float
    supply: float

    def __post_init__(self):
        if not (self.demand >= 0.0 and self.supply >= 0.0):
            raise InvalidStateError(
                f"demand and supply must be nonnegative, got ({self.demand}, {self.supply})"
            )

    def flux(self):
        """Local flow rate q(U) = min(D, S)."""
        return min(self.demand, self.supply)

    def is_close(self, other, tol=FLUX_TOL):
        return abs(self.demand - other.demand) <= tol and abs(self.supply - other.supply) <= tol


class Criticality(enum.Enum):
    STRICTLY_UNDER_CRITICAL = "SUC"
    STRICTLY_OVER_CRITICAL = "SOC"
    CRITICAL = "C"

    @property
    def is_under_critical(self):
        """S = C holds (includes the critical state)."""
        return self in (Criticality.STRICTLY_UNDER_CRITICAL, Criticality.CRITICAL)

    @property
    def is_over_critical(self):
        """D = C holds (includes the critical state)."""
        return self in (Criticality.STRICTLY_OVER_CRITICAL, Criticality.CRITICAL)


def state_of(fd: FundamentalDiagram, rho: float) -> TrafficState:
    """Map a density to its supply-demand point (D(rho), S(rho))."""
    return TrafficState(fd.demand(rho), fd.supply(rho))


def classify(u: TrafficState, capacity: float, tol: float = FLUX_TOL) -> Criticality:
    """Classify a state against a capacity.

    Returns the most specific tag: CRITICAL when both components match the
    capacity within tol, otherwise STRICTLY_UNDER_CRITICAL (supply matches) or
    STRICTLY_OVER_CRITICAL (demand matches).  Raises InvalidStateError when
    neither component matches.
    """
    demand_at_cap = abs(u.demand - capacity) <= tol
    supply_at_cap = abs(u.supply - capacity) <= tol
    if demand_at_cap and supply_at_cap:
        return Criticality.CRITICAL
    if supply_at_cap:
        return Criticality.STRICTLY_UNDER_CRITICAL
    if demand_at_cap:
        return Criticality.STRICTLY_OVER_CRITICAL
    raise InvalidStateError(
        f"state ({u.demand}, {u.supply}) is not bound to capacity {capacity}"
    )
