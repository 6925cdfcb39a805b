import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from divergeflow import (
    InvalidStateError,
    TrafficState,
    del_castillo_mainline,
    del_castillo_ramp,
    greenshields,
    state_of,
    triangular,
)
from divergeflow.fundamental_diagram import DENSITY_TOL, FLUX_TOL

# the four laws, two of them off their default parameters, for tests
# parametrized per law
LAWS = (
    del_castillo_mainline(),
    del_castillo_ramp(),
    triangular(1.0, 1.0),
    greenshields(1.0, 1.0),
    triangular(2.0, 3.0),
    greenshields(0.5, 2.0),
)

# Reported values are quoted to four decimals; assert to half a unit in the
# last place.
FOUR_DP = 5e-5


class TestClosedForms:
    def test_mainline_capacity_and_critical_density(self, mainline):
        assert mainline.capacity == pytest.approx(0.3365, abs=FOUR_DP)
        assert mainline.critical_density == pytest.approx(0.4876, abs=FOUR_DP)

    def test_ramp_capacity_and_critical_density(self, ramp):
        assert ramp.capacity == pytest.approx(0.0841, abs=FOUR_DP)
        assert ramp.critical_density == pytest.approx(0.2438, abs=FOUR_DP)

    def test_ramp_is_quarter_of_mainline(self, mainline, ramp):
        assert ramp.capacity == pytest.approx(mainline.capacity / 4.0, abs=1e-12)
        assert ramp.critical_density == pytest.approx(mainline.critical_density / 2.0, abs=1e-9)

    def test_mainline_congested_flow(self, mainline):
        assert mainline.flow(1.0) == pytest.approx(0.2473, abs=FOUR_DP)

    def test_ramp_free_flow(self, ramp):
        assert ramp.flow(0.1) == pytest.approx(0.0500, abs=FOUR_DP)

    def test_flow_vanishes_at_empty_and_jam(self, all_diagrams):
        for fd in all_diagrams:
            assert fd.flow(0.0) == 0.0
            assert fd.flow(fd.jam_density) == pytest.approx(0.0, abs=1e-12)

    def test_greenshields_critical_density(self):
        fd = greenshields(1.0, 1.0)
        assert fd.critical_density == pytest.approx(0.5, abs=1e-12)
        assert fd.capacity == pytest.approx(0.25, abs=1e-12)

    def test_capacity_is_grid_maximum(self, all_diagrams):
        for fd in all_diagrams:
            grid = np.linspace(0.0, fd.jam_density, 20001)
            assert fd.capacity >= fd.flow(grid).max() - 1e-12

    def test_unimodal(self, all_diagrams):
        for fd in all_diagrams:
            rising = np.linspace(0.0, fd.critical_density, 2001)
            falling = np.linspace(fd.critical_density, fd.jam_density, 2001)
            assert np.all(np.diff(fd.flow(rising)) >= -1e-12)
            assert np.all(np.diff(fd.flow(falling)) <= 1e-12)

    def test_domain_errors(self, mainline):
        with pytest.raises(ValueError):
            mainline.flow(-0.1)
        with pytest.raises(ValueError):
            mainline.flow(2.1)
        with pytest.raises(ValueError):
            mainline.demand(np.array([0.5, 2.5]))

    def test_nan_density_rejected(self, mainline):
        for method in (mainline.flow, mainline.demand, mainline.supply):
            with pytest.raises(ValueError):
                method(float("nan"))
            with pytest.raises(ValueError):
                method(np.array([0.5, np.nan]))

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            greenshields(0.0, 1.0)
        with pytest.raises(ValueError):
            triangular(1.0, -1.0)

    def test_scalar_and_array_paths_agree(self, all_diagrams):
        # libm and numpy's vectorized exp may differ in the last ulp
        for fd in all_diagrams:
            grid = np.linspace(0.0, fd.jam_density, 57)
            by_array = fd.flow(grid)
            by_scalar = np.array([fd.flow(float(r)) for r in grid])
            np.testing.assert_allclose(by_array, by_scalar, rtol=5e-15, atol=1e-15)
            np.testing.assert_allclose(
                fd.demand(grid), [fd.demand(float(r)) for r in grid], rtol=5e-15, atol=1e-15
            )
            np.testing.assert_allclose(
                fd.supply(grid), [fd.supply(float(r)) for r in grid], rtol=5e-15, atol=1e-15
            )


class TestDemandSupply:
    def test_congested_mainline_state(self, mainline):
        assert mainline.demand(1.0) == pytest.approx(0.3365, abs=FOUR_DP)
        assert mainline.supply(1.0) == pytest.approx(0.2473, abs=FOUR_DP)

    def test_free_ramp_state(self, ramp):
        assert ramp.demand(0.1) == pytest.approx(0.0500, abs=FOUR_DP)
        assert ramp.supply(0.1) == pytest.approx(0.0841, abs=FOUR_DP)

    def test_empty_road(self, all_diagrams):
        for fd in all_diagrams:
            assert fd.demand(0.0) == 0.0
            assert fd.supply(0.0) == fd.capacity

    def test_critical_point(self, all_diagrams):
        for fd in all_diagrams:
            assert fd.supply(fd.critical_density) == fd.capacity
            assert fd.demand(fd.critical_density) == fd.capacity

    def test_pointwise_identities(self, all_diagrams):
        for fd in all_diagrams:
            grid = np.linspace(0.0, fd.jam_density, 501)
            d, s = fd.demand(grid), fd.supply(grid)
            np.testing.assert_allclose(np.minimum(d, s), fd.flow(grid), atol=1e-12)
            np.testing.assert_allclose(np.maximum(d, s), fd.capacity, atol=1e-12)

    def test_monotonicity(self, all_diagrams):
        for fd in all_diagrams:
            grid = np.linspace(0.0, fd.jam_density, 501)
            assert np.all(np.diff(fd.demand(grid)) >= -1e-12)
            assert np.all(np.diff(fd.supply(grid)) <= 1e-12)


class TestDensityInversion:
    def test_congested_mainline_density(self, mainline):
        u = state_of(mainline, 1.0)
        assert mainline.density_from_state(u) == pytest.approx(1.0, abs=1e-8)

    def test_critical_ramp_density(self, ramp):
        u = TrafficState(ramp.capacity, ramp.capacity)
        assert ramp.density_from_state(u) == pytest.approx(0.2438, abs=FOUR_DP)

    def test_empty_state(self, all_diagrams):
        for fd in all_diagrams:
            assert fd.density_from_state(TrafficState(0.0, fd.capacity)) == pytest.approx(
                0.0, abs=1e-10
            )

    def test_round_trip(self, all_diagrams):
        for fd in all_diagrams:
            for rho in np.linspace(0.0, fd.jam_density, 101):
                back = fd.density_from_state(state_of(fd, float(rho)))
                assert back == pytest.approx(rho, abs=1e-8)

    def test_inconsistent_state_rejected(self, mainline):
        with pytest.raises(InvalidStateError):
            mainline.density_from_state(TrafficState(0.1, 0.1))

    def test_closed_form_inverses(self):
        tri = triangular(2.0, 3.0)  # v_f = 2, w = 0.5
        assert tri.density_from_state(TrafficState(0.5, tri.capacity)) == 0.25
        assert tri.density_from_state(TrafficState(tri.capacity, 0.5)) == 2.0
        gs = greenshields(1.0, 1.0)  # Q = rho (1 - rho), C = 1/4
        assert gs.density_from_state(TrafficState(0.16, 0.25)) == pytest.approx(0.2, abs=1e-15)
        assert gs.density_from_state(TrafficState(0.25, 0.16)) == pytest.approx(0.8, abs=1e-15)

    @pytest.mark.parametrize("fd", LAWS[:2], ids=lambda fd: fd.kind.value)
    def test_newton_inverse_meets_the_density_tolerance(self, fd):
        # the root brackets Q(rho) = q by one DENSITY_TOL on either side
        for rho in np.linspace(0.0, fd.jam_density, 203)[1:-1]:
            u = state_of(fd, float(rho))
            if abs(u.demand - u.supply) <= FLUX_TOL:
                continue
            back = fd.density_from_state(u)
            q, lo, hi = u.flux(), fd.flow(back - DENSITY_TOL), fd.flow(back + DENSITY_TOL)
            assert min(lo, hi) <= q <= max(lo, hi)


@pytest.mark.parametrize("fd", LAWS, ids=lambda fd: fd.kind.value)
@given(fraction=st.floats(0.0, 1.0))
def test_density_round_trip_property(fd, fraction):
    """density_from_state inverts state_of to 1e-8, except that a state
    within FLUX_TOL of critical is the critical state by definition."""
    rho = fraction * fd.jam_density
    u = state_of(fd, rho)
    back = fd.density_from_state(u)
    if abs(u.demand - u.supply) <= FLUX_TOL:
        assert back == fd.critical_density
    else:
        assert back == pytest.approx(rho, abs=1e-8)


@pytest.mark.parametrize("fd", LAWS, ids=lambda fd: fd.kind.value)
def test_max_wave_speed_is_the_largest_flux_slope(fd):
    rho = np.linspace(0.0, fd.jam_density, 200001)
    slopes = np.abs(np.diff(fd.flow(rho)) / np.diff(rho))
    # chord slopes are averages of Q', so they never exceed max |Q'|, and on
    # this grid they come within 1e-4 of it
    assert slopes.max() <= fd.max_wave_speed * (1.0 + 1e-12)
    assert slopes.max() >= fd.max_wave_speed * (1.0 - 1e-4)
