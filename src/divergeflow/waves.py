"""Kinematic wave classification between two constant states on a link.

With a unimodal flux law, the wave connecting a left state to a right state
is a shock when density increases left to right (carried at the
Rankine-Hugoniot speed (Q(rl) - Q(rr)) / (rl - rr)) and a rarefaction fan
when it decreases (edge speeds Q'(rl) and Q'(rr)).  Fan edges are the
diagram's closed-form Q', one-sided into the fan, so an edge at a triangular
kink takes the slope of the branch the fan lies on.  On an upstream link the
left state is the initial one and the right state the stationary one; on a
downstream link the roles swap.  Waves emitted by an admissible Riemann
solution never travel toward the junction: upstream speeds are nonpositive
and downstream speeds nonnegative, up to a small tolerance.

classify_wave and batch_waves take arrays (the stationary states of a
solve_batch solution and the links' initial densities) as well as floats;
wrong_signs then finds each sample's first wave with the wrong sign.
link_waves is batch_waves on one solution, raising on a wrong sign.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .fundamental_diagram import _plain
from .riemann import RiemannInput, RiemannSolution

__all__ = [
    "WaveKind",
    "WaveDescription",
    "WaveConsistencyError",
    "classify_wave",
    "batch_waves",
    "wrong_signs",
    "sign_error",
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


# WaveKind by code: 0 none, 1 shock, 2 rarefaction
_KINDS = np.array(list(WaveKind), dtype=object)


@dataclass(frozen=True)
class WaveDescription:
    """One wave, or with arrays in every field a batch of them (row(k)
    picks wave k)."""

    kind: WaveKind
    speed_range: tuple[float, float]
    rho_left: float
    rho_right: float

    @property
    def min_speed(self):
        return _plain(np.minimum(*self.speed_range))

    @property
    def max_speed(self):
        return _plain(np.maximum(*self.speed_range))

    def row(self, k):
        """Wave k of a batch, in Python floats."""
        return WaveDescription(
            self.kind[k],
            (self.speed_range[0][k].item(), self.speed_range[1][k].item()),
            self.rho_left[k].item(),
            self.rho_right[k].item(),
        )


def classify_wave(fd, rho_left, rho_right):
    """Classify the wave between constant left and right densities, given
    as floats or as equal-length arrays (a batch of waves).

    Both speed_range entries equal the Rankine-Hugoniot speed for a shock;
    for a rarefaction they are the closed-form flux slopes Q' at rho_left
    and rho_right, each taken one-sided into the fan (which matters only at
    the kink of a triangular law).  Raises ValueError for densities outside
    [0, jam_density].
    """
    left = fd._checked(np.atleast_1d(rho_left))
    right = fd._checked(np.atleast_1d(rho_right))
    code = np.where(abs(left - right) < DENSITY_EQ_TOL, 0, np.where(left < right, 1, 2))
    speeds = np.zeros((2, code.size))
    shock = code == 1
    if shock.any():
        rl, rr = left[shock], right[shock]
        speeds[:, shock] = (fd._flow(rl) - fd._flow(rr)) / (rl - rr)
    fan = code == 2
    if fan.any():
        rl, rr = left[fan], right[fan]
        speeds[0, fan] = fd._slope(rl, rr - rl)
        speeds[1, fan] = fd._slope(rr, rl - rr)
    wave = WaveDescription(_KINDS[code], (speeds[0], speeds[1]), left, right)
    return wave if np.ndim(rho_left) or np.ndim(rho_right) else wave.row(0)


def batch_waves(stationary, diagrams, densities):
    """Waves (upstream, down 1, down 2) from the links' stationary states
    (upstream, down 1, down 2) and initial densities: floats, as of a solve
    solution, or arrays, as of a solve_batch one.  Signs are not checked;
    wrong_signs does that."""
    rho_stat = [fd.density_from_state(u) for fd, u in zip(diagrams, stationary)]
    up = classify_wave(diagrams[0], densities[0], rho_stat[0])
    down = [classify_wave(diagrams[i], rho_stat[i], densities[i]) for i in (1, 2)]
    return (up, *down)


def wrong_signs(waves):
    """Per wave triplet of batch_waves, the link (0, 1 or 2) of the first
    wave that travels toward the junction, or -1 where none does."""
    up, down1, down2 = waves
    wrong = np.array([up.max_speed > SPEED_TOL, down1.min_speed < -SPEED_TOL, down2.min_speed < -SPEED_TOL])
    return np.where(wrong.any(axis=0), wrong.argmax(axis=0), -1)


def sign_error(waves, link):
    """The message of a WaveConsistencyError for a triplet of single waves
    whose wave on `link` travels toward the junction."""
    w = waves[link]
    if link == 0:
        return f"upstream wave speed {w.max_speed} > 0 for {w.kind.value}"
    return f"downstream wave speed {w.min_speed} < 0 for {w.kind.value} on link {link}"


def link_waves(solution: RiemannSolution, inp: RiemannInput):
    """Waves on the three links of a Riemann solution.

    Returns (upstream_wave, down1_wave, down2_wave).  Raises
    WaveConsistencyError when a wave speed has the wrong sign, which would
    indicate a solver defect rather than bad input.
    """
    diagrams = (inp.upstream_diagram, *inp.downstream_diagrams)
    stationary = (solution.stationary_upstream, *solution.stationary_downstream)
    waves = batch_waves(stationary, diagrams, [inp.initial_density(k) for k in range(3)])
    link = int(wrong_signs(waves))
    if link >= 0:
        raise WaveConsistencyError(sign_error(waves, link))
    return waves
