import numpy as np
import pytest

from divergeflow import (
    Criticality,
    InvalidStateError,
    TrafficState,
    classify,
    state_of,
)

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
    def test_congested_state_flows_at_supply(self, mainline):
        u = state_of(mainline, 1.0)
        assert u.flux() == u.supply

    def test_free_state_flows_at_demand(self, ramp):
        u = state_of(ramp, 0.1)
        assert u.flux() == u.demand

    def test_empty(self):
        assert TrafficState(0.0, 0.25).flux() == 0.0

    def test_negative_components_rejected(self):
        with pytest.raises(InvalidStateError):
            TrafficState(-0.1, 0.2)

    def test_nan_components_rejected(self):
        with pytest.raises(InvalidStateError):
            TrafficState(float("nan"), 1.0)
        with pytest.raises(InvalidStateError):
            TrafficState(1.0, float("nan"))


class TestClassify:
    def test_congested_mainline_is_soc(self, mainline):
        u = state_of(mainline, 1.0)
        assert classify(u, mainline.capacity) is Criticality.STRICTLY_OVER_CRITICAL

    def test_free_ramp_is_suc(self, ramp):
        u = state_of(ramp, 0.1)
        assert classify(u, ramp.capacity) is Criticality.STRICTLY_UNDER_CRITICAL

    def test_capacity_state_is_critical(self):
        c = 0.25
        assert classify(TrafficState(c, c), c) is Criticality.CRITICAL

    def test_knife_edge_resolves_to_critical(self):
        c = 0.25
        assert classify(TrafficState(c - 1e-13, c), c) is Criticality.CRITICAL

    def test_unbound_state_rejected(self):
        with pytest.raises(InvalidStateError):
            classify(TrafficState(0.1, 0.1), 0.25)

    def test_predicates(self):
        assert Criticality.CRITICAL.is_under_critical
        assert Criticality.CRITICAL.is_over_critical
        assert Criticality.STRICTLY_UNDER_CRITICAL.is_under_critical
        assert not Criticality.STRICTLY_UNDER_CRITICAL.is_over_critical

    def test_agrees_with_density_comparison(self, all_diagrams):
        for fd in all_diagrams:
            for rho in np.linspace(0.0, fd.jam_density, 201):
                tag = classify(state_of(fd, float(rho)), fd.capacity)
                if abs(fd.flow(float(rho)) - fd.capacity) <= 1e-12:
                    assert tag is Criticality.CRITICAL
                elif rho < fd.critical_density:
                    assert tag is Criticality.STRICTLY_UNDER_CRITICAL
                else:
                    assert tag is Criticality.STRICTLY_OVER_CRITICAL

    def test_flux_through_states_matches_flow(self, all_diagrams):
        for fd in all_diagrams:
            for rho in np.linspace(0.0, fd.jam_density, 201):
                assert state_of(fd, float(rho)).flux() == pytest.approx(
                    fd.flow(float(rho)), abs=1e-12
                )
