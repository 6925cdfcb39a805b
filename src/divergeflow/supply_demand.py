"""Supply-demand representation of traffic states.

A traffic state is a point U = (D, S): D is the demand (maximum sending flow)
and S the supply (maximum receiving flow).  For a state bound to a diagram
with capacity C, max(D, S) = C; the local flow rate is q(U) = min(D, S).
The Riemann solver reads a link's regime (D = C or S = C) from which of its
flux bounds is tight, not from a classification of the state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fundamental_diagram import FLUX_TOL, FundamentalDiagram, InvalidStateError

__all__ = ["TrafficState", "state_of"]


@dataclass(frozen=True)
class TrafficState:
    """An immutable supply-demand point U = (D, S), both components >= 0
    (NaN is rejected).  The components may also be arrays, one point per
    entry, as in the states of a batch Riemann solution."""

    demand: float
    supply: float

    def __post_init__(self):
        if not holds((self.demand >= 0.0) & (self.supply >= 0.0)):
            raise InvalidStateError(
                f"demand and supply must be nonnegative, got ({self.demand}, {self.supply})"
            )

    def is_close(self, other, tol=FLUX_TOL):
        return (abs(self.demand - other.demand) <= tol) & (abs(self.supply - other.supply) <= tol)


def holds(condition):
    """Whether a bool, or every entry of a bool array, is true."""
    return condition.all() if isinstance(condition, np.ndarray) else bool(condition)


def state_of(fd: FundamentalDiagram, rho: float) -> TrafficState:
    """Map a density to its supply-demand point (D(rho), S(rho))."""
    return TrafficState(*fd.demand_supply(rho))

