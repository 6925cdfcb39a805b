import numpy as np
import pytest

from divergeflow import InvalidStateError, TrafficState, state_of

FOUR_DP = 5e-5


class TestStateOf:
    def test_congested_mainline(self, mainline):
        u = state_of(mainline, 1.0)
        assert u.demand == pytest.approx(0.3365, abs=FOUR_DP)
        assert u.supply == pytest.approx(0.2473, abs=FOUR_DP)

    def test_free_ramp(self, ramp):
        u = state_of(ramp, 0.1)
        assert u.demand == pytest.approx(0.0500, abs=FOUR_DP)
        assert u.supply == pytest.approx(0.0841, abs=FOUR_DP)

    def test_critical_mainline(self, mainline):
        u = state_of(mainline, mainline.critical_density)
        assert u.demand == pytest.approx(0.3365, abs=FOUR_DP)
        assert u.demand == u.supply == mainline.capacity


class TestLocalFlux:
    """The local flow rate q(U) = min(D, S) of the states state_of gives."""

    def test_congested_state_flows_at_supply(self, mainline):
        u = state_of(mainline, 1.0)
        assert min(u.demand, u.supply) == u.supply

    def test_free_state_flows_at_demand(self, ramp):
        u = state_of(ramp, 0.1)
        assert min(u.demand, u.supply) == u.demand

    def test_flux_through_states_matches_flow(self, all_diagrams):
        for fd in all_diagrams:
            for rho in np.linspace(0.0, fd.jam_density, 201):
                u = state_of(fd, float(rho))
                assert min(u.demand, u.supply) == pytest.approx(fd.flow(float(rho)), abs=1e-12)

    def test_negative_components_rejected(self):
        with pytest.raises(InvalidStateError):
            TrafficState(-0.1, 0.2)

    def test_nan_components_rejected(self):
        with pytest.raises(InvalidStateError):
            TrafficState(float("nan"), 1.0)
        with pytest.raises(InvalidStateError):
            TrafficState(1.0, float("nan"))

