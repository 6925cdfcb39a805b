import numpy as np
import pytest

from divergeflow import (
    RiemannInput,
    Side,
    TrafficState,
    check_interior_admissible,
    check_stationary_admissible,
    daganzo_fifo,
    junction_fluxes,
    lebacque,
    local_discrete_flux,
    partial_evacuation,
    priority_based,
    riemann_rule,
    solve,
    solve_fluxes,
    state_of,
    supply_proportional,
)
from divergeflow.oracle import brute_force_fluxes

FOUR_DP = 5e-5


def flux_input(trio, d0, s1, s2):
    """(D0, S1, S2) input; the remaining state components never matter."""
    c0, c1, c2 = (fd.capacity for fd in trio)
    return RiemannInput(
        trio[0],
        TrafficState(min(d0, c0), c0),
        (trio[1], trio[2]),
        (TrafficState(c1, min(s1, c1)), TrafficState(c2, min(s2, c2))),
    )


class TestModelParameters:
    def test_fifo_requires_positive_proportions(self):
        with pytest.raises(ValueError):
            daganzo_fifo((0.0, 1.0))
        with pytest.raises(ValueError):
            lebacque((1.0, 0.0))
        with pytest.raises(ValueError):
            daganzo_fifo((0.6, 0.6))

    def test_priority_weights_validated(self):
        with pytest.raises(ValueError):
            priority_based((0.7, 0.7))
        with pytest.raises(ValueError):
            priority_based((1.2, -0.2))

    def test_partial_evacuation_box(self):
        partial_evacuation((0.3, 0.2), (0.55, 0.45))  # valid
        with pytest.raises(ValueError):
            partial_evacuation((0.3, 0.2), (0.9, 0.1))  # alpha1 > 1 - xi2
        with pytest.raises(ValueError):
            partial_evacuation((0.6, 0.6), (0.5, 0.5))  # xi sums above one

    def test_input_state_must_bind_to_diagram(self, trio):
        with pytest.raises(ValueError):
            RiemannInput(
                trio[0],
                TrafficState(0.1, 0.1),
                (trio[1], trio[2]),
                (TrafficState(trio[1].capacity, 0.1), TrafficState(trio[2].capacity, 0.05)),
            )


class TestWorkedExample:
    """Congested mainline with a 30 percent off-ramp split: the ramp supply
    at capacity binds the whole diverge."""

    def test_routed_fluxes_to_four_decimals(self, congested_diverge_input):
        for model in (daganzo_fifo((0.7, 0.3)), lebacque((0.7, 0.3))):
            q0, q1, q2 = solve_fluxes(model, congested_diverge_input)
            assert q0 == pytest.approx(0.2804, abs=FOUR_DP)
            assert q1 == pytest.approx(0.1963, abs=FOUR_DP)
            assert q2 == pytest.approx(0.0841, abs=FOUR_DP)

    def test_stationary_states(self, congested_diverge_input, trio):
        sol = solve(lebacque((0.7, 0.3)), congested_diverge_input)
        assert sol.stationary_upstream.demand == pytest.approx(0.3365, abs=FOUR_DP)
        assert sol.stationary_upstream.supply == pytest.approx(0.2804, abs=FOUR_DP)
        assert sol.stationary_downstream[0].demand == pytest.approx(0.1963, abs=FOUR_DP)
        assert sol.stationary_downstream[0].supply == pytest.approx(0.3365, abs=FOUR_DP)
        assert sol.stationary_downstream[1].demand == pytest.approx(0.0841, abs=FOUR_DP)
        assert sol.stationary_downstream[1].supply == pytest.approx(0.0841, abs=FOUR_DP)

    def test_interior_proportions(self, congested_diverge_input):
        leb = solve(lebacque((0.7, 0.3)), congested_diverge_input)
        assert leb.interior_proportions[0] == pytest.approx(0.5833, abs=FOUR_DP)
        assert sum(leb.interior_proportions) == pytest.approx(1.0, abs=1e-12)
        dag = solve(daganzo_fifo((0.7, 0.3)), congested_diverge_input)
        assert dag.interior_proportions == (0.7, 0.3)

    def test_interior_proportions_mirrored_regime(self, trio):
        # link 1's supply binds instead: the commodity-2 share is reweighted
        xi = (0.3, 0.7)
        c0 = trio[0].capacity
        inp = flux_input(trio, 0.3, 0.03, 0.0841)
        sol = solve(lebacque(xi), inp)
        q0 = sol.fluxes[0]
        assert q0 == pytest.approx(0.1, abs=1e-12)
        assert sol.interior_proportions[1] == pytest.approx(xi[1] * q0 / c0, abs=1e-12)
        assert sol.interior_proportions[0] == pytest.approx(
            1.0 - xi[1] * q0 / c0, abs=1e-12
        )

    def test_interior_states_equal_stationary_here(self, congested_diverge_input):
        for model in (daganzo_fifo((0.7, 0.3)), lebacque((0.7, 0.3))):
            sol = solve(model, congested_diverge_input)
            assert sol.interior_upstream == sol.stationary_upstream
            assert sol.interior_downstream == sol.stationary_downstream
            assert sol.interior_unique == (True, True, True)

    def test_already_stationary_input_has_no_waves(self, trio):
        model = lebacque((0.7, 0.3))
        base = solve(model, RiemannInput.from_densities(trio, (1.0, 1.0, 0.1)))
        consistent = RiemannInput(
            trio[0],
            base.stationary_upstream,
            (trio[1], trio[2]),
            base.stationary_downstream,
        )
        again = solve(model, consistent)
        assert again.stationary_upstream == base.stationary_upstream
        assert again.stationary_downstream == base.stationary_downstream


class TestEvacuationFluxes:
    def test_symmetric_split_at_capacity(self, mainline):
        trio = (mainline, mainline, mainline)
        c = mainline.capacity
        inp = flux_input(trio, c, c, c)
        q0, q1, q2 = solve_fluxes(supply_proportional(), inp)
        assert q1 == pytest.approx(c / 2.0, abs=1e-12)
        assert q2 == pytest.approx(c / 2.0, abs=1e-12)
        assert q0 == pytest.approx(c, abs=1e-12)

    def test_absolute_priority(self, trio):
        model = priority_based((1.0, 0.0))
        inp = flux_input(trio, 0.2, 0.3, 0.05)  # S1 >= D0
        q0, q1, q2 = solve_fluxes(model, inp)
        assert q1 == pytest.approx(0.2, abs=1e-12)
        assert q2 == pytest.approx(0.0, abs=1e-12)

    def test_priority_spillover(self, trio):
        model = priority_based((1.0, 0.0))
        inp = flux_input(trio, 0.3, 0.25, 0.08)  # S1 < D0: remainder goes to link 2
        q0, q1, q2 = solve_fluxes(model, inp)
        assert q1 == pytest.approx(0.25, abs=1e-12)
        assert q2 == pytest.approx(0.05, abs=1e-12)

    def test_supply_proportional_distinct_interior_state(self, trio):
        # one downstream link congested (supply below its fair share), the
        # other free: the congested link carries a genuine interior state
        c0, c1, c2 = (fd.capacity for fd in trio)
        d0, s1, s2 = 0.3, 0.29, 0.04
        assert s2 <= c2 * d0 / (c1 + c2) and s1 + s2 > d0
        inp = flux_input(trio, d0, s1, s2)
        sol = solve(supply_proportional(), inp)
        assert sol.fluxes[2] == pytest.approx(s2, abs=1e-12)
        assert sol.fluxes[1] == pytest.approx(d0 - s2, abs=1e-12)
        want = s2 * c1 / (d0 - s2)
        assert sol.interior_downstream[1].demand == pytest.approx(c2, abs=1e-12)
        assert sol.interior_downstream[1].supply == pytest.approx(want, abs=1e-12)
        assert sol.interior_downstream[1] != sol.stationary_downstream[1]
        assert sol.interior_unique == (True, True, True)
        local = local_discrete_flux(
            supply_proportional(), sol.interior_upstream, sol.interior_downstream,
            sol.interior_proportions,
        )
        assert max(abs(a - b) for a, b in zip(local, sol.fluxes)) <= 1e-12

    def test_balanced_junction_has_free_upstream_interior(self, trio):
        # downstream supplies absorb the demand exactly: multiple upstream
        # interior states satisfy the entropy rule
        c0 = trio[0].capacity
        d0 = 0.2
        inp = flux_input(trio, d0, 0.15, 0.05)
        sol = solve(supply_proportional(), inp)
        assert sol.fluxes[0] == pytest.approx(d0, abs=1e-12)
        assert sol.interior_unique[0] is False
        assert sol.interior_unique[1] is True and sol.interior_unique[2] is True


class TestRoutedInteriorUniqueness:
    """Tie structure of min(D0, S1/x1, S2/x2) drives interior multiplicity."""

    def test_demand_binds_alone_all_unique(self, trio):
        inp = flux_input(trio, 0.1, 0.2, 0.08)
        for model in (daganzo_fifo((0.7, 0.3)), lebacque((0.7, 0.3))):
            sol = solve(model, inp)
            assert sol.fluxes[0] == pytest.approx(0.1, abs=1e-12)
            assert sol.interior_unique == (True, True, True)

    def test_one_supply_binds_alone_all_unique(self, congested_diverge_input):
        sol = solve(daganzo_fifo((0.7, 0.3)), congested_diverge_input)
        assert sol.interior_unique == (True, True, True)

    def test_double_tie_frees_the_tied_links(self, trio):
        x = (0.7, 0.3)
        d0 = 0.2
        s1 = x[0] * d0  # S1/x1 == D0 exactly
        inp = flux_input(trio, d0, s1, 0.08)
        for model in (daganzo_fifo(x), lebacque(x)):
            sol = solve(model, inp)
            assert sol.fluxes[0] == pytest.approx(d0, abs=1e-12)
            assert sol.interior_unique[0] is False
            assert sol.interior_unique[1] is False
            assert sol.interior_unique[2] is True

    def test_triple_tie_frees_everything(self, trio):
        x = (0.5, 0.5)
        d0 = 0.15
        inp = flux_input(trio, d0, x[0] * d0, x[1] * d0)
        for model in (daganzo_fifo(x), lebacque(x)):
            sol = solve(model, inp)
            assert sol.interior_unique == (False, False, False)


class TestLocalDiscreteFlux:
    def test_lebacque_at_raw_initial_states(self, congested_diverge_input):
        model = lebacque((0.7, 0.3))
        q0, q1, q2 = local_discrete_flux(
            model,
            congested_diverge_input.upstream_state,
            congested_diverge_input.downstream_states,
            (0.7, 0.3),
        )
        assert q1 == pytest.approx(0.2355, abs=FOUR_DP)
        assert q2 == pytest.approx(0.0841, abs=FOUR_DP)
        # the global solution gives 0.1963 on link 1: the rule is not invariant
        g = solve_fluxes(model, congested_diverge_input)
        assert abs(q1 - g[1]) > 0.03

    def test_daganzo_at_raw_initial_states(self, congested_diverge_input):
        model = daganzo_fifo((0.7, 0.3))
        q0, q1, q2 = local_discrete_flux(
            model,
            congested_diverge_input.upstream_state,
            congested_diverge_input.downstream_states,
            (0.7, 0.3),
        )
        # min(0.3365, 0.3365/0.7, 0.0841/0.3) = 0.2804, split by proportion
        g = solve_fluxes(model, congested_diverge_input)
        assert max(abs(a - b) for a, b in zip((q0, q1, q2), g)) <= 1e-12

    def test_zero_upstream_demand(self, trio):
        up = TrafficState(0.0, trio[0].capacity)
        down = (
            TrafficState(trio[1].capacity, 0.2),
            TrafficState(trio[2].capacity, 0.05),
        )
        for model in (
            daganzo_fifo((0.7, 0.3)),
            lebacque((0.7, 0.3)),
            supply_proportional(),
            priority_based((0.5, 0.5)),
            partial_evacuation((0.2, 0.2), (0.5, 0.5)),
        ):
            assert local_discrete_flux(model, up, down, (0.7, 0.3)) == (0.0, 0.0, 0.0)

    def test_no_receiving_capacity(self, trio):
        up = TrafficState(trio[0].capacity, trio[0].capacity)
        down = (TrafficState(trio[1].capacity, 0.0), TrafficState(trio[2].capacity, 0.0))
        q = local_discrete_flux(supply_proportional(), up, down, (0.5, 0.5))
        assert q == (0.0, 0.0, 0.0)

    def test_daganzo_zero_junction_proportion_limit(self, congested_diverge_input):
        inp = congested_diverge_input
        q0, q1, q2 = local_discrete_flux(
            daganzo_fifo((0.7, 0.3)), inp.upstream_state, inp.downstream_states, (0.0, 1.0)
        )
        want = min(inp.demand_upstream, inp.supplies[1])
        assert q1 == 0.0
        assert q0 == q2 == want

    def test_daganzo_zero_share_in_arrays(self):
        # S/x reads as +inf where x = 0, also for a zero supply
        d0 = np.array([0.3, 0.3, 0.3])
        s1 = np.array([0.0, 0.1, 0.2])
        s2 = np.array([0.05, 0.0, 0.0])
        x1 = np.array([0.0, 1.0, 0.5])
        q0, q1, q2 = junction_fluxes(daganzo_fifo((0.7, 0.3)), d0, (s1, s2), (x1, 1.0 - x1))
        np.testing.assert_array_equal(q0, [0.05, 0.1, 0.0])
        np.testing.assert_array_equal(q1, [0.0, 0.1, 0.0])
        np.testing.assert_array_equal(q2, [0.05, 0.0, 0.0])


class TestRiemannRule:
    def test_counterparts(self, congested_diverge_input):
        caps = congested_diverge_input.capacities
        xi = (0.7, 0.3)
        assert riemann_rule(lebacque(xi), caps) == daganzo_fifo(xi)
        c1, c2 = caps[1], caps[2]
        capacity_priority = priority_based((c1 / (c1 + c2), c2 / (c1 + c2)))
        assert riemann_rule(supply_proportional(), caps) == capacity_priority
        for model in (daganzo_fifo(xi), priority_based((0.6, 0.4)), partial_evacuation((0.3, 0.2), (0.55, 0.45))):
            assert riemann_rule(model, caps) is model

    def test_solve_fluxes_evaluates_the_rule_at_the_initial_states(self, congested_diverge_input):
        inp = congested_diverge_input
        for model in (
            daganzo_fifo((0.7, 0.3)),
            lebacque((0.7, 0.3)),
            supply_proportional(),
            priority_based((0.6, 0.4)),
            partial_evacuation((0.3, 0.2), (0.55, 0.45)),
        ):
            rule = riemann_rule(model, inp.capacities)
            _, q1, q2 = junction_fluxes(rule, inp.demand_upstream, inp.supplies, rule.xi)
            assert solve_fluxes(model, inp) == (q1 + q2, q1, q2)


class TestAdmissibilityChecks:
    def test_upstream_stationary(self, mainline):
        c = mainline.capacity
        initial = state_of(mainline, 1.0)  # D0 = c
        assert check_stationary_admissible(TrafficState(c, 0.2), initial, Side.UPSTREAM, c)
        free = TrafficState(0.2, c)
        assert check_stationary_admissible(
            TrafficState(0.2, c), free, Side.UPSTREAM, c
        )
        # supply above the initial demand is not admissible
        assert not check_stationary_admissible(
            TrafficState(c, 0.3), free, Side.UPSTREAM, c
        )

    def test_downstream_stationary(self, ramp):
        c = ramp.capacity
        initial = state_of(ramp, 0.1)  # S = c
        assert check_stationary_admissible(TrafficState(c, c), initial, Side.DOWNSTREAM, c)
        assert check_stationary_admissible(TrafficState(0.05, c), initial, Side.DOWNSTREAM, c)
        congested = TrafficState(c, 0.03)
        assert check_stationary_admissible(congested, congested, Side.DOWNSTREAM, c)
        assert not check_stationary_admissible(
            TrafficState(0.05, c), congested, Side.DOWNSTREAM, c
        )

    def test_interior_equals_stationary_is_always_admissible(self, mainline):
        c = mainline.capacity
        for stationary in (TrafficState(c, 0.2), TrafficState(0.2, c)):
            for side in Side:
                assert check_interior_admissible(stationary, stationary, side, c)

    def test_soc_upstream_pins_interior(self, mainline):
        c = mainline.capacity
        stationary = TrafficState(c, 0.2)
        assert not check_interior_admissible(TrafficState(c, 0.25), stationary, Side.UPSTREAM, c)

    def test_uc_upstream_needs_supply_at_least_demand(self, mainline):
        c = mainline.capacity
        stationary = TrafficState(0.2, c)
        assert check_interior_admissible(TrafficState(c, 0.25), stationary, Side.UPSTREAM, c)
        assert not check_interior_admissible(TrafficState(c, 0.15), stationary, Side.UPSTREAM, c)

    def test_oc_downstream_needs_demand_at_least_supply(self, ramp):
        c = ramp.capacity
        stationary = TrafficState(c, 0.05)
        assert check_interior_admissible(TrafficState(c, 0.07), stationary, Side.DOWNSTREAM, c)
        assert not check_interior_admissible(TrafficState(0.04, c), stationary, Side.DOWNSTREAM, c)


class TestStructuralProperties:
    """Small randomized sweep; the full battery runs in the acceptance suite."""

    N = 500

    def models(self, rng):
        x1 = rng.uniform(0.05, 0.95)
        a1 = rng.uniform(0.0, 1.0)
        y1, y2 = rng.uniform(0.0, 0.45, size=2)
        b1 = rng.uniform(y1, 1.0 - y2)
        return (
            daganzo_fifo((x1, 1.0 - x1)),
            lebacque((x1, 1.0 - x1)),
            supply_proportional(),
            priority_based((a1, 1.0 - a1)),
            partial_evacuation((y1, y2), (b1, 1.0 - b1)),
        )

    def test_conservation_bounds_and_invariance(self, trio):
        rng = np.random.default_rng(42)
        caps = tuple(fd.capacity for fd in trio)
        for _ in range(self.N):
            inp = flux_input(
                trio,
                rng.uniform(0, caps[0]),
                rng.uniform(0, caps[1]),
                rng.uniform(0, caps[2]),
            )
            for model in self.models(rng):
                sol = solve(model, inp)
                q0, q1, q2 = sol.fluxes
                assert q0 == q1 + q2
                assert -1e-15 <= q1 <= min(caps[1], inp.supplies[0]) + 1e-12
                assert -1e-15 <= q2 <= min(caps[2], inp.supplies[1]) + 1e-12
                assert q0 <= min(caps[0], inp.demand_upstream) + 1e-12
                local = local_discrete_flux(
                    model, sol.interior_upstream, sol.interior_downstream,
                    sol.interior_proportions,
                )
                assert max(abs(a - b) for a, b in zip(local, sol.fluxes)) <= 1e-12

    def test_model_equivalences(self, trio):
        rng = np.random.default_rng(7)
        caps = tuple(fd.capacity for fd in trio)
        for _ in range(self.N):
            inp = flux_input(
                trio,
                rng.uniform(0, caps[0]),
                rng.uniform(0, caps[1]),
                rng.uniform(0, caps[2]),
            )
            x1 = rng.uniform(0.05, 0.95)
            xi = (x1, 1.0 - x1)
            fd_ = solve_fluxes(daganzo_fifo(xi), inp)
            fl = solve_fluxes(lebacque(xi), inp)
            assert max(abs(a - b) for a, b in zip(fd_, fl)) <= 1e-12
            a_fair = (caps[1] / (caps[1] + caps[2]), caps[2] / (caps[1] + caps[2]))
            fp = solve_fluxes(supply_proportional(), inp)
            fq = solve_fluxes(priority_based(a_fair), inp)
            assert max(abs(a - b) for a, b in zip(fp, fq)) <= 1e-12
            assert fp[0] == pytest.approx(
                min(inp.demand_upstream, sum(inp.supplies)), abs=1e-12
            )


class TestOracleSpotGrid:
    """5^3 grid per model here; the 15^3 acceptance grid runs separately."""

    @pytest.mark.parametrize(
        "model",
        [
            daganzo_fifo((0.7, 0.3)),
            lebacque((0.7, 0.3)),
            supply_proportional(),
            priority_based((0.6, 0.4)),
            partial_evacuation((0.3, 0.2), (0.55, 0.45)),
        ],
        ids=lambda m: m.kind.value,
    )
    def test_oracle_agrees(self, trio, model):
        caps = tuple(fd.capacity for fd in trio)
        for d0 in np.linspace(0, caps[0], 5):
            for s1 in np.linspace(0, caps[1], 5):
                for s2 in np.linspace(0, caps[2], 5):
                    inp = flux_input(trio, d0, s1, s2)
                    result = brute_force_fluxes(model, inp)
                    assert result.unique, (d0, s1, s2, result.survivors)
                    gap = max(
                        abs(a - b)
                        for a, b in zip(result.fluxes, solve_fluxes(model, inp))
                    )
                    assert gap <= 1e-6, (d0, s1, s2)

    def test_supply_proportional_oracle_dense_grid(self, trio):
        # the supply-proportional rule gets the densest sweep: its distinct
        # interior states exercise every branch of the enumeration
        model = supply_proportional()
        caps = tuple(fd.capacity for fd in trio)
        for d0 in np.linspace(0, caps[0], 20):
            for s1 in np.linspace(0, caps[1], 20):
                for s2 in np.linspace(0, caps[2], 20):
                    inp = flux_input(trio, d0, s1, s2)
                    result = brute_force_fluxes(model, inp)
                    assert result.unique, (d0, s1, s2, result.survivors)
                    gap = max(
                        abs(a - b)
                        for a, b in zip(result.fluxes, solve_fluxes(model, inp))
                    )
                    assert gap <= 1e-6, (d0, s1, s2)
