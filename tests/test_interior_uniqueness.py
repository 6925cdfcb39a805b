"""The closed-form interior uniqueness flags of `solve` against the oracle's
scanning probe, on the props oracle fixtures' dense grid and on property-based
draws that sit on the zero faces and tie lines where the flags change."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divergeflow import (
    RiemannInput,
    TrafficState,
    daganzo_fifo,
    lebacque,
    partial_evacuation,
    priority_based,
    solve,
    supply_proportional,
)
from divergeflow.oracle import probe_interior_unique

PROPS_FIXTURES = (
    daganzo_fifo((0.7, 0.3)),
    lebacque((0.7, 0.3)),
    supply_proportional(),
    priority_based((0.6, 0.4)),
    partial_evacuation((0.3, 0.2), (0.55, 0.45)),
)


def make_input(trio, d0, s1, s2):
    c0, c1, c2 = (fd.capacity for fd in trio)
    return RiemannInput(
        trio[0],
        TrafficState(d0, c0),
        (trio[1], trio[2]),
        (TrafficState(c1, s1), TrafficState(c2, s2)),
    )


def assert_flags_agree(model, inp):
    sol = solve(model, inp)
    probed = probe_interior_unique(model, inp, sol)
    assert sol.interior_unique == probed, (
        model, inp.demand_upstream, inp.supplies, sol.interior_unique, probed,
    )
    return sol.interior_unique


def grid_points(caps, n=15):
    """The 15^3 grid (its faces include the zero faces) plus points on the
    tie lines S1 = 0.7 D0, S2 = 0.3 D0 and S1 + S2 = D0, for every grid
    demand and for the largest demand whose share ties fit under the
    capacities (there a tie line meets a capacity face)."""
    c0, c1, c2 = caps
    axes = [np.linspace(0.0, c, n) for c in caps]
    for d0 in axes[0]:
        for s1 in axes[1]:
            for s2 in axes[2]:
                yield d0, s1, s2
    for d0 in list(axes[0]) + [min(c0, c1 / 0.7, c2 / 0.3)]:
        for t in np.linspace(0.0, 1.0, n):
            yield d0, min(0.7 * d0, c1), t * c2
            yield d0, t * c1, min(0.3 * d0, c2)
            s2 = t * min(d0, c2)
            if d0 - s2 <= c1:
                yield d0, d0 - s2, s2
        if 0.3 * d0 <= c2:
            yield d0, 0.7 * d0, 0.3 * d0


@pytest.mark.parametrize("model", PROPS_FIXTURES, ids=lambda m: m.kind.value)
def test_closed_form_flags_match_the_probe_on_the_dense_grid(trio, model):
    caps = tuple(fd.capacity for fd in trio)
    free = 0
    for d0, s1, s2 in grid_points(caps):
        flags = assert_flags_agree(model, make_input(trio, float(d0), float(s1), float(s2)))
        free += not all(flags)
    assert free > 0  # the grid reaches the non-unique cases


# Draws: a model with parameters on a 1/20 lattice (including the degenerate
# weights alpha = (1, 0) and shares xi = (0, 0)) and initial data on a 1/64
# capacity lattice, each coordinate optionally snapped to zero or onto the
# S1 = x1 D0 and S1 + S2 = D0 tie lines.  Lattice values keep every point
# either exactly on a tie (up to rounding) or clear of it by far more than
# the solver and probe tolerances.
TWENTIETHS = st.integers(0, 20).map(lambda k: k / 20.0)


@st.composite
def models(draw):
    kind = draw(st.sampled_from(range(5)))
    if kind < 2:
        x1 = draw(st.integers(1, 19)) / 20.0
        return (daganzo_fifo, lebacque)[kind]((x1, 1.0 - x1))
    if kind == 2:
        return supply_proportional()
    if kind == 3:
        a1 = draw(TWENTIETHS)
        return priority_based((a1, 1.0 - a1))
    k1 = draw(st.integers(0, 19))
    k2 = draw(st.integers(0, 20 - k1))
    b1 = draw(st.integers(k1, 20 - k2))
    return partial_evacuation((k1 / 20.0, k2 / 20.0), (b1 / 20.0, 1.0 - b1 / 20.0))


@st.composite
def snapped_data(draw, caps, share):
    c0, c1, c2 = caps
    d0, s1, s2 = (draw(st.integers(0, 64)) * c / 64.0 for c in caps)
    snap = draw(st.sampled_from(("none", "d0", "s1", "s2", "share", "sum")))
    if snap == "d0":
        d0 = 0.0
    elif snap == "s1":
        s1 = 0.0
    elif snap == "s2":
        s2 = 0.0
    elif snap == "share":
        s1 = min(share * d0, c1)
    elif snap == "sum" and s2 <= d0 and d0 - s2 <= c1:
        s1 = d0 - s2
    return d0, s1, s2


@settings(max_examples=500)
@given(data=st.data())
def test_closed_form_flags_match_the_probe_on_snapped_draws(trio, data):
    caps = tuple(fd.capacity for fd in trio)
    model = data.draw(models())
    share = model.xi[0] if model.xi is not None else data.draw(TWENTIETHS)
    d0, s1, s2 = data.draw(snapped_data(caps, share))
    assert_flags_agree(model, make_input(trio, d0, s1, s2))


def test_slopes_survive_subnormal_supplies(trio):
    # D0 / (S1 + S2) has a slope of order 1 / S1 here, and S1 squared would
    # underflow to zero; q1 = min(S1, D0) still grows with the upstream
    # interior demand
    inp = make_input(trio, 0.0, 1e-170, 0.0)
    assert solve(supply_proportional(), inp).interior_unique[0] is True
