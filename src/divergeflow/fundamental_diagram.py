"""Flow-density relations and the demand/supply transforms built on them.

A fundamental diagram is a unimodal flux law q = Q(rho) on [0, rho_jam] with
Q(0) = Q(rho_jam) = 0 and a single maximum, the capacity C = Q(rho_c), at the
critical density rho_c.  Four closed forms are provided:

* exponential mainline law (two-lane freeway normalization, rho in [0, 2]):
      Q(rho) = rho * (1 - exp(1 - exp(0.25 * (2/rho - 1))))
* exponential ramp law (one-lane, half free-flow speed, rho in [0, 1]):
      Q(rho) = 0.5 * rho * (1 - exp(1 - exp(0.25 * (1/rho - 1))))
* triangular law  Q(rho) = min(v_f * rho, w * (rho_jam - rho)), w = v_f / 4
* parabolic law   Q(rho) = v_f * rho * (1 - rho / rho_jam)

Each law family's Q is written once, in one unchecked numpy evaluation for
floats and arrays alike, and each law's slope Q' once, in closed form (no
finite differences); the public methods range-check their input once and
then call them.  The two exponential laws are one family.  A family's Q
takes its parameters v_f and rho_jam as floats or as arrays, one value per
link or per cell: a diagram evaluates it on its own scalars, and the CTM
evaluates every link of a family in one call.  The exponential laws have an
essential singularity at rho = 0; the physical limit Q -> v_f * rho is
reached exactly by flooring rho at rho_jam / 1000 inside the congested
factor.  Each law is one shape scaled by its parameters,
Q(rho) = v_f rho_jam f(rho / rho_jam), so rho_c = u* rho_jam with u* a
constant of the family, and a diagram computes C = Q(rho_c) once at
construction, with no search.

The demand transform D(rho) = Q(min(rho, rho_c)) is the maximum sending flow
of a cell; the supply transform S(rho) = Q(max(rho, rho_c)) is the maximum
receiving flow.  demand_supply returns both from one check and one
evaluation of Q; demand and supply are views of it.  All three accept
scalars or numpy arrays.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DiagramKind",
    "FundamentalDiagram",
    "InvalidStateError",
    "del_castillo_mainline",
    "del_castillo_ramp",
    "triangular",
    "greenshields",
]

# Absolute tolerances: densities resolved to 1e-10 by the Newton inverse of
# the exponential laws (the one root finder below) where the jam density is
# of order 1, as on the shipped laws (see density_from_state), flux equality
# tested at 1e-12 throughout the package.
DENSITY_TOL = 1e-10
FLUX_TOL = 1e-12

# Triangular law: congested wave speed fixed at a quarter of the free-flow
# speed, matching the jam-end slope of the exponential laws.
_TRIANGULAR_WAVE_RATIO = 0.25


class InvalidStateError(ValueError):
    """A supply-demand state is inconsistent with its diagram."""


class DiagramKind(enum.Enum):
    DEL_CASTILLO_MAINLINE = "del_castillo_mainline"
    DEL_CASTILLO_RAMP = "del_castillo_ramp"
    TRIANGULAR = "triangular"
    GREENSHIELDS = "greenshields"


def _plain(out):
    """An array result as a float when it is 0-dimensional."""
    return out if isinstance(out, np.ndarray) and out.ndim else float(out)


def _exponential_flow(rho, v_f, rho_jam, out=None, work=None):
    """Q of the exponential family,
    v_f rho (1 - exp(1 - exp((rho_jam / max(rho, rho_jam / 1000) - 1) / 4)))."""
    # exp(1 - exp(249.75)) is exactly 0, so Q = v_f * rho below the floor
    g = np.divide(rho_jam, np.maximum(rho, rho_jam / 1000.0, out=work), out=work)
    g = np.exp(np.multiply(0.25, np.subtract(g, 1.0, out=work), out=work), out=work)
    g = np.subtract(1.0, np.exp(np.subtract(1.0, g, out=work), out=work), out=work)
    return np.multiply(np.multiply(v_f, rho, out=out), g, out=out)


def _triangular_flow(rho, v_f, rho_jam, out=None, work=None):
    """Q of the triangular family, min(v_f rho, w (rho_jam - rho)) with
    w = v_f / 4."""
    w = np.multiply(_TRIANGULAR_WAVE_RATIO, v_f, out=out)
    congested = np.multiply(w, np.subtract(rho_jam, rho, out=work), out=work)
    return np.minimum(np.multiply(v_f, rho, out=out), congested, out=out)


def _greenshields_flow(rho, v_f, rho_jam, out=None, work=None):
    """Q of the parabolic family, v_f rho (1 - rho / rho_jam)."""
    room = np.subtract(1.0, np.divide(rho, rho_jam, out=work), out=work)
    return np.multiply(np.multiply(v_f, rho, out=out), room, out=out)


# The flux law of each kind.  A law takes the densities, then v_f and rho_jam
# as floats or as arrays that broadcast against the densities, so that one
# call evaluates every link of a family.  Given out, and work of out's shape,
# it writes the flow into out and its intermediate values into work.
_FLOW_LAWS = {
    DiagramKind.DEL_CASTILLO_MAINLINE: _exponential_flow,
    DiagramKind.DEL_CASTILLO_RAMP: _exponential_flow,
    DiagramKind.TRIANGULAR: _triangular_flow,
    DiagramKind.GREENSHIELDS: _greenshields_flow,
}

# u* = rho_c / rho_jam of each kind: 1/2 for the parabola, w / (v_f + w) for
# the triangle, and for the exponential laws the last float at which Q' is
# positive when rho_jam = 1.
_CRITICAL_FRACTION = {
    DiagramKind.DEL_CASTILLO_MAINLINE: 0.24381516031928374,
    DiagramKind.DEL_CASTILLO_RAMP: 0.24381516031928374,
    DiagramKind.TRIANGULAR: _TRIANGULAR_WAVE_RATIO / (1.0 + _TRIANGULAR_WAVE_RATIO),
    DiagramKind.GREENSHIELDS: 0.5,
}


@dataclass(frozen=True)
class FundamentalDiagram:
    """A unimodal flow-density law with cached capacity and critical density.

    Instances are immutable and safe to share; all methods are pure.  Use the
    module-level factory functions rather than constructing directly.
    """

    kind: DiagramKind
    free_flow_speed: float
    jam_density: float
    capacity: float = field(init=False)
    critical_density: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.free_flow_speed < math.inf:
            raise ValueError(f"free_flow_speed must be positive and finite, got {self.free_flow_speed}")
        if not 0.0 < self.jam_density < math.inf:
            raise ValueError(f"jam_density must be positive and finite, got {self.jam_density}")
        rho_c = _CRITICAL_FRACTION[self.kind] * self.jam_density
        # an extreme v_f or rho_jam overflows Q or rounds it to 0
        with np.errstate(all="ignore"):
            capacity = float(self._flow(rho_c))
        if not 0.0 < capacity < math.inf:
            raise ValueError(f"capacity must be positive and finite, got {capacity}")
        # a state within FLUX_TOL of C is bound to the diagram, so (0, 0)
        # would be too
        if capacity <= FLUX_TOL:
            raise ValueError(f"capacity {capacity!r} is not above the flux tolerance {FLUX_TOL:g}")
        object.__setattr__(self, "critical_density", rho_c)
        object.__setattr__(self, "capacity", capacity)

    def _flow(self, rho):
        """Q(rho) without a range check, for a float or a float array."""
        return _FLOW_LAWS[self.kind](rho, self.free_flow_speed, self.jam_density)

    def _slope(self, rho, side=0.0):
        """Q'(rho) in closed form, unchecked, for a float or a float array.
        At a triangular kink it is the right-hand slope where side > 0, else
        the left-hand one.  Exponential: v_f (1 - e - r e g / 4) with
        r = rho_jam / max(rho, rho_jam / 1000), g = exp((r - 1) / 4) and
        e = exp(1 - g), exactly v_f below the floor, where e is 0."""
        v_f, rho_jam = self.free_flow_speed, self.jam_density
        if self.kind is DiagramKind.TRIANGULAR:
            rho_c = self.critical_density
            congested = (rho > rho_c) | ((rho == rho_c) & (side > 0))
            return np.where(congested, -_TRIANGULAR_WAVE_RATIO * v_f, v_f)
        if self.kind is DiagramKind.GREENSHIELDS:
            return v_f * (1.0 - 2.0 * rho / rho_jam)
        ratio = rho_jam / np.maximum(rho, rho_jam / 1000.0)
        grow = np.exp(0.25 * (ratio - 1.0))
        decay = np.exp(1.0 - grow)
        return v_f * (1.0 - decay - 0.25 * ratio * decay * grow)

    def _checked(self, rho):
        """rho as a float or a float array; raises ValueError outside
        [0, jam_density], written so that NaN fails too."""
        if np.isscalar(rho):
            rho = lo = hi = float(rho)
        else:
            rho = np.asarray(rho, dtype=float)
            if not rho.size:
                return rho
            lo, hi = rho.min(), rho.max()
        if not (lo >= 0.0 and hi <= self.jam_density):
            raise ValueError(f"density out of range [0, {self.jam_density}]: {rho!r}")
        return rho

    def flow(self, rho):
        """Flux Q(rho).  Accepts scalars or arrays; raises ValueError outside
        [0, jam_density] and on NaN."""
        return _plain(self._flow(self._checked(rho)))

    def demand_supply(self, rho):
        """(D(rho), S(rho)) from one range check and one evaluation of Q:
        the maximum sending flow D = Q(min(rho, rho_c)), nondecreasing, and
        the maximum receiving flow S = Q(max(rho, rho_c)), nonincreasing."""
        rho = self._checked(rho)
        q, rho_c = self._flow(rho), self.critical_density
        return _plain(np.where(rho <= rho_c, q, self.capacity)), _plain(np.where(rho >= rho_c, q, self.capacity))

    def demand(self, rho):
        """Maximum sending flow D(rho); see demand_supply."""
        return self.demand_supply(rho)[0]

    def supply(self, rho):
        """Maximum receiving flow S(rho); see demand_supply."""
        return self.demand_supply(rho)[1]

    @property
    def max_wave_speed(self):
        """max |Q'(rho)| on [0, rho_jam], the speed a CFL condition must use.

        Every shipped law is concave, so |Q'| peaks at an end of the domain,
        and the free-flow end never loses: Q'(0) = v_f for all four laws,
        while |Q'(rho_jam)| is v_f for Greenshields and v_f / 4 for the
        triangular and exponential laws.
        """
        return self.free_flow_speed

    def density_from_state(self, state):
        """Invert a supply-demand state back to its unique density; a state
        of arrays (one point per entry) inverts to an array of densities, a
        state of floats to a float.

        Under-critical states (supply equal to capacity) map to the density
        with Q(rho) = demand on the rising branch; over-critical states map to
        Q(rho) = supply on the falling branch.  The triangular and Greenshields
        laws invert in closed form.  The exponential laws invert by Newton to
        within DENSITY_TOL from the triangular inverse, a start on the far
        side of the root, since these concave laws lie under the triangular
        one.  Raises InvalidStateError when max(demand, supply) differs from
        the capacity beyond FLUX_TOL.

        DENSITY_TOL is absolute.  The shipped exponential laws (jam
        densities 1 and 2) meet it within 17 Newton passes, with density
        errors up to 1.2e-12.  With a large jam density, the rounding of Q
        near its peak divided by the small slope there, or the float spacing
        of the density, can exceed it, and such entries return at the
        200-pass cap short of it: of 20,000 uniform random states (seed 0)
        of a mainline-kind law, 7 at (v_f, rho_jam) = (1, 1e4), with errors
        up to 3.5e-9, and 2,453 at (1e-6, 1e6), with errors up to 8.4e-7.
        """
        d, s = np.broadcast_arrays(np.atleast_1d(state.demand), np.atleast_1d(state.supply))
        peak = np.maximum(d, s)
        off = ~(abs(peak - self.capacity) <= FLUX_TOL)
        if off.any():
            raise InvalidStateError(
                f"max(D, S) = {float(peak[off][0])!r} does not match capacity {self.capacity!r}"
            )
        critical = abs(d - s) <= FLUX_TOL
        rising = s > d  # under-critical: rising branch
        target = np.where(rising, d, s)
        v_f, rho_c, rho_jam = self.free_flow_speed, self.critical_density, self.jam_density
        rho = np.where(rising, target / v_f, rho_jam - target / (_TRIANGULAR_WAVE_RATIO * v_f))
        if self.kind is DiagramKind.GREENSHIELDS:
            # Q = C (1 - (rho / rho_c - 1)^2) with C = v_f * rho_jam / 4
            root = np.sqrt(np.maximum(0.0, 1.0 - target / self.capacity))
            rho = np.where(rising, rho_c * (target / self.capacity) / (1.0 + root), rho_c * (1.0 + root))
        elif self.kind is not DiagramKind.TRIANGULAR:
            run = ~critical
            rho[run] = self._newton_flow(rho[run], target[run])
        rho = np.where(critical, rho_c, rho)
        return rho if np.ndim(state.demand) or np.ndim(state.supply) else float(rho[0])

    def _newton_flow(self, rho, target):
        """Densities with Q(rho) = target on an exponential law by Newton's
        method from the starts rho, each to within DENSITY_TOL where it
        converges (see density_from_state).

        Each start is the triangular inverse of its target, and the concave
        exponential law lies under the triangular one, so the start sits on
        the far side of the root from the peak, where Newton moves to the
        root monotonically and the slope is never zero.  Each entry iterates
        until it converges, at most 200 times; converged entries leave the
        loop.
        """
        out = np.empty_like(rho)
        left = np.arange(rho.size)
        for _ in range(200):
            if not left.size:
                break
            step = rho - (self._flow(rho) - target) / self._slope(rho)
            done = abs(step - rho) <= DENSITY_TOL
            if done.any():
                out[left[done]] = step[done]
                going = ~done
                left, step, target = left[going], step[going], target[going]
            rho = step
        out[left] = rho
        return out


def del_castillo_mainline():
    """Two-lane mainline exponential diagram (v_f = 1, rho_jam = 2)."""
    return FundamentalDiagram(DiagramKind.DEL_CASTILLO_MAINLINE, 1.0, 2.0)


def del_castillo_ramp():
    """One-lane ramp exponential diagram (v_f = 0.5, rho_jam = 1)."""
    return FundamentalDiagram(DiagramKind.DEL_CASTILLO_RAMP, 0.5, 1.0)


def triangular(free_flow_speed=1.0, jam_density=1.0):
    return FundamentalDiagram(DiagramKind.TRIANGULAR, free_flow_speed, jam_density)


def greenshields(free_flow_speed=1.0, jam_density=1.0):
    return FundamentalDiagram(DiagramKind.GREENSHIELDS, free_flow_speed, jam_density)
