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

The exponential laws have an essential singularity at rho = 0; the physical
limit Q -> v_f * rho is substituted there.  Capacity and critical density have
no closed form for the exponential family and are computed once at
construction by golden-section search.

The demand transform D(rho) = Q(min(rho, rho_c)) is the maximum sending flow
of a cell; the supply transform S(rho) = Q(max(rho, rho_c)) is the maximum
receiving flow.  Both accept scalars or numpy arrays.
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

# Absolute tolerances: densities resolved to 1e-10 by the root finders below,
# flux equality tested at 1e-12 throughout the package.
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


def _exp_family_flow(rho, v_f, rho_jam):
    """Exponential flux law; the rho -> 0 limit v_f * rho is used below
    rho_jam / 1000, where the congested factor is 1 to machine precision."""
    rho = np.asarray(rho, dtype=float)
    out = np.empty_like(rho)
    small = rho < rho_jam / 1000.0
    out[small] = v_f * rho[small]
    r = rho[~small]
    out[~small] = v_f * r * (1.0 - np.exp(1.0 - np.exp(0.25 * (rho_jam / r - 1.0))))
    return out


def _golden_section_argmax(f, a, b, tol=1e-12):
    """Argmax of a unimodal f on [a, b] by golden-section search."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


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
        if self.free_flow_speed <= 0.0:
            raise ValueError(f"free_flow_speed must be positive, got {self.free_flow_speed}")
        if self.jam_density <= 0.0:
            raise ValueError(f"jam_density must be positive, got {self.jam_density}")
        if self.kind in (DiagramKind.TRIANGULAR, DiagramKind.GREENSHIELDS):
            rho_c = self._closed_form_critical_density()
        else:
            rho_c = _golden_section_argmax(
                lambda r: float(self._flow_unchecked(r)), 0.0, self.jam_density
            )
        object.__setattr__(self, "critical_density", rho_c)
        object.__setattr__(self, "capacity", float(self._flow_unchecked(rho_c)))

    def _closed_form_critical_density(self):
        if self.kind is DiagramKind.GREENSHIELDS:
            return self.jam_density / 2.0
        # triangular: v_f * rho_c = w * (rho_jam - rho_c)
        w = _TRIANGULAR_WAVE_RATIO * self.free_flow_speed
        return self.jam_density * w / (self.free_flow_speed + w)

    def _flow_scalar(self, rho):
        if self.kind in (DiagramKind.DEL_CASTILLO_MAINLINE, DiagramKind.DEL_CASTILLO_RAMP):
            if rho < self.jam_density / 1000.0:
                return self.free_flow_speed * rho
            return (
                self.free_flow_speed
                * rho
                * (1.0 - math.exp(1.0 - math.exp(0.25 * (self.jam_density / rho - 1.0))))
            )
        if self.kind is DiagramKind.TRIANGULAR:
            w = _TRIANGULAR_WAVE_RATIO * self.free_flow_speed
            return min(self.free_flow_speed * rho, w * (self.jam_density - rho))
        return self.free_flow_speed * rho * (1.0 - rho / self.jam_density)

    def _flow_unchecked(self, rho):
        if not isinstance(rho, np.ndarray):
            return self._flow_scalar(float(rho))
        if self.kind in (DiagramKind.DEL_CASTILLO_MAINLINE, DiagramKind.DEL_CASTILLO_RAMP):
            return _exp_family_flow(rho, self.free_flow_speed, self.jam_density)
        if self.kind is DiagramKind.TRIANGULAR:
            w = _TRIANGULAR_WAVE_RATIO * self.free_flow_speed
            return np.minimum(self.free_flow_speed * rho, w * (self.jam_density - rho))
        return self.free_flow_speed * rho * (1.0 - rho / self.jam_density)

    # Both checks are written so that NaN fails them.
    def _check_scalar_density(self, rho):
        rho = float(rho)
        if not (0.0 <= rho <= self.jam_density):
            raise ValueError(f"density out of range [0, {self.jam_density}]: {rho!r}")
        return rho

    def _check_density(self, rho):
        rho = np.asarray(rho, dtype=float)
        if rho.size and not (rho.min() >= 0.0 and rho.max() <= self.jam_density):
            raise ValueError(
                f"density out of range [0, {self.jam_density}]: {rho!r}"
            )
        return rho

    def flow(self, rho):
        """Flux Q(rho).  Accepts scalars or arrays; raises ValueError outside
        [0, jam_density] and on NaN."""
        if np.isscalar(rho):
            return self._flow_scalar(self._check_scalar_density(rho))
        rho = self._check_density(rho)
        out = self._flow_unchecked(rho)
        return float(out) if out.ndim == 0 else out

    def demand(self, rho):
        """Maximum sending flow D(rho) = Q(min(rho, rho_c)); nondecreasing."""
        if np.isscalar(rho):
            rho = self._check_scalar_density(rho)
            return self._flow_scalar(rho) if rho <= self.critical_density else self.capacity
        rho = self._check_density(rho)
        out = np.where(rho <= self.critical_density, self._flow_unchecked(rho), self.capacity)
        return float(out) if out.ndim == 0 else out

    def supply(self, rho):
        """Maximum receiving flow S(rho) = Q(max(rho, rho_c)); nonincreasing."""
        if np.isscalar(rho):
            rho = self._check_scalar_density(rho)
            return self._flow_scalar(rho) if rho >= self.critical_density else self.capacity
        rho = self._check_density(rho)
        out = np.where(rho >= self.critical_density, self._flow_unchecked(rho), self.capacity)
        return float(out) if out.ndim == 0 else out

    @property
    def max_wave_speed(self):
        """max |Q'(rho)| on [0, rho_jam], the speed a CFL condition must use.

        Every shipped law is concave, so |Q'| peaks at an end of the domain,
        and the free-flow end never loses: Q'(0) = v_f for all four laws,
        while |Q'(rho_jam)| is v_f for Greenshields and v_f / 4 for the
        triangular and exponential laws.
        """
        return self.free_flow_speed

    def flow_derivative(self, rho, step=1e-6):
        """Q'(rho) by central finite difference, one-sided at the domain ends."""
        rho = float(rho)
        lo = max(0.0, rho - step)
        hi = min(self.jam_density, rho + step)
        return (self.flow(hi) - self.flow(lo)) / (hi - lo)

    def density_from_state(self, state, tol=DENSITY_TOL):
        """Invert a supply-demand state back to its unique density.

        Under-critical states (supply equal to capacity) map to the density
        with Q(rho) = demand on the rising branch; over-critical states map to
        Q(rho) = supply on the falling branch.  The triangular and Greenshields
        laws invert in closed form, the exponential laws by safeguarded Newton
        to within tol.  Raises InvalidStateError when max(demand, supply)
        differs from the capacity beyond FLUX_TOL.
        """
        d, s = state.demand, state.supply
        if abs(max(d, s) - self.capacity) > FLUX_TOL:
            raise InvalidStateError(
                f"max(D, S) = {max(d, s)!r} does not match capacity {self.capacity!r}"
            )
        critical = abs(d - s) <= FLUX_TOL
        if critical:
            return self.critical_density
        rising = s > d  # under-critical: rising branch
        target = d if rising else s
        v_f, rho_c, rho_jam = self.free_flow_speed, self.critical_density, self.jam_density
        if self.kind is DiagramKind.TRIANGULAR:
            return target / v_f if rising else rho_jam - target / (_TRIANGULAR_WAVE_RATIO * v_f)
        if self.kind is DiagramKind.GREENSHIELDS:
            # Q = C (1 - (rho / rho_c - 1)^2) with C = v_f * rho_jam / 4
            root = math.sqrt(max(0.0, 1.0 - target / self.capacity))
            return rho_c * (target / self.capacity) / (1.0 + root) if rising else rho_c * (1.0 + root)
        # Both exponential laws are concave with slope v_f at 0 and
        # -v_f / 4 at jam, so these starts sit on the far side of the root
        # from the peak and Newton approaches it monotonically.
        if rising:
            return self._newton_flow(target, 0.0, rho_c, target / v_f, rising, tol)
        start = rho_jam - target / (_TRIANGULAR_WAVE_RATIO * v_f)
        return self._newton_flow(target, rho_c, rho_jam, start, rising, tol)

    def _exp_flow_and_slope(self, rho):
        """Q(rho) and Q'(rho) of an exponential law."""
        v_f, rho_jam = self.free_flow_speed, self.jam_density
        if rho < rho_jam / 1000.0:
            return v_f * rho, v_f
        grow = math.exp(0.25 * (rho_jam / rho - 1.0))
        decay = math.exp(1.0 - grow)
        return (
            v_f * rho * (1.0 - decay),
            v_f * (1.0 - decay - 0.25 * (rho_jam / rho) * decay * grow),
        )

    def _newton_flow(self, target, a, b, rho, increasing, tol):
        # Q - target changes sign once on [a, b]; a Newton step that leaves
        # the shrinking bracket (or meets a zero slope) becomes a bisection.
        rho = min(max(rho, a), b)
        for _ in range(200):
            flow, slope = self._exp_flow_and_slope(rho)
            if (flow < target) == increasing:
                a = rho
            else:
                b = rho
            step = rho - (flow - target) / slope if slope else math.nan
            if not a <= step <= b:
                step = 0.5 * (a + b)
            if abs(step - rho) <= tol or b - a <= tol:
                return step
            rho = step
        return rho


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
