"""Kinematic wave classification between two constant states on a link.

With a unimodal flux law, the wave connecting a left state to a right state
is a shock when density increases left to right (carried at the
Rankine-Hugoniot speed (Q(rl) - Q(rr)) / (rl - rr)) and a rarefaction fan
when it decreases (edge speeds Q'(rl) and Q'(rr)).  On an upstream link the
left state is the initial one and the right state the stationary one; on a
downstream link the roles swap.  Waves emitted by an admissible Riemann
solution never travel toward the junction: upstream speeds are nonpositive
and downstream speeds nonnegative, up to a small tolerance.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .riemann import RiemannInput, RiemannSolution

__all__ = [
    "WaveKind",
    "WaveDescription",
    "WaveConsistencyError",
    "classify_wave",
    "link_waves",
]

# Densities closer than this are one state (no wave).
DENSITY_EQ_TOL = 1e-9
# Wave speeds may cross zero by at most this much before the sign check fails.
SPEED_TOL = 1e-4


class WaveConsistencyError(RuntimeError):
    """A solver-produced wave travels toward the junction."""


class WaveKind(enum.Enum):
    NONE = "none"
    SHOCK = "shock"
    RAREFACTION = "rarefaction"


@dataclass(frozen=True)
class WaveDescription:
    kind: WaveKind
    speed_range: tuple[float, float]
    rho_left: float
    rho_right: float

    @property
    def min_speed(self):
        return min(self.speed_range)

    @property
    def max_speed(self):
        return max(self.speed_range)


def _edge_speed(fd, rho, toward, step=1e-6):
    """Flux slope at a fan edge, one-sided into the fan's density interval.

    A central difference would straddle the kink of a triangular law when an
    edge sits exactly at the critical density and report the average of the
    two branch slopes; the fan edge only ever sees densities on its own side.
    """
    other = rho + step * (1.0 if toward > rho else -1.0)
    other = min(max(other, min(rho, toward)), max(rho, toward))
    if other == rho:
        other = toward
    return (fd.flow(other) - fd.flow(rho)) / (other - rho)


def classify_wave(fd, rho_left, rho_right, tol=DENSITY_EQ_TOL):
    """Classify the wave between constant left and right densities.

    Both speed_range entries equal the Rankine-Hugoniot speed for a shock;
    for a rarefaction they are the fan edge slopes at rho_left and rho_right,
    each taken one-sided into the fan.
    """
    rho_left = float(rho_left)
    rho_right = float(rho_right)
    for rho in (rho_left, rho_right):
        if rho < 0.0 or rho > fd.jam_density:
            raise ValueError(f"density out of range [0, {fd.jam_density}]: {rho}")
    if abs(rho_left - rho_right) < tol:
        return WaveDescription(WaveKind.NONE, (0.0, 0.0), rho_left, rho_right)
    if rho_left < rho_right:
        s = (fd.flow(rho_left) - fd.flow(rho_right)) / (rho_left - rho_right)
        return WaveDescription(WaveKind.SHOCK, (s, s), rho_left, rho_right)
    return WaveDescription(
        WaveKind.RAREFACTION,
        (_edge_speed(fd, rho_left, rho_right), _edge_speed(fd, rho_right, rho_left)),
        rho_left,
        rho_right,
    )


def link_waves(solution: RiemannSolution, inp: RiemannInput, speed_tol=SPEED_TOL):
    """Waves on the three links of a Riemann solution.

    Returns (upstream_wave, down1_wave, down2_wave).  Raises
    WaveConsistencyError when a wave speed has the wrong sign, which would
    indicate a solver defect rather than bad input.
    """
    fd0 = inp.upstream_diagram
    rho_stat = fd0.density_from_state(solution.stationary_upstream)
    up = classify_wave(fd0, inp.initial_density(0), rho_stat)
    if up.max_speed > speed_tol:
        raise WaveConsistencyError(
            f"upstream wave speed {up.max_speed} > 0 for {up.kind.value}"
        )
    down = []
    for i in range(2):
        fd = inp.downstream_diagrams[i]
        rho_stat_i = fd.density_from_state(solution.stationary_downstream[i])
        w = classify_wave(fd, rho_stat_i, inp.initial_density(i + 1))
        if w.min_speed < -speed_tol:
            raise WaveConsistencyError(
                f"downstream wave speed {w.min_speed} < 0 for {w.kind.value} on link {i + 1}"
            )
        down.append(w)
    return (up, down[0], down[1])
