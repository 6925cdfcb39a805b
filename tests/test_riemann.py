import numpy as np
import pytest

from divergeflow import (
    DivergeModel,
    DivergeModelKind,
    InvalidStateError,
    RiemannInput,
    TrafficState,
    check_interior_admissible,
    check_stationary_admissible,
    daganzo_fifo,
    junction_fluxes,
    lebacque,
    partial_evacuation,
    priority_based,
    riemann_rule,
    solve,
    solve_batch,
    solve_fluxes,
    solve_fluxes_batch,
    state_of,
    supply_proportional,
)
from divergeflow.oracle import _bisect_monotone, _rule_pair, brute_force_batch, brute_force_fluxes

FOUR_DP = 5e-5


def flux_input(trio, d0, s1, s2):
    """(D0, S1, S2) input; the remaining state components never matter."""
    c0, c1, c2 = (fd.capacity for fd in trio)
    return RiemannInput(
        trio,
        (TrafficState(min(d0, c0), c0), TrafficState(c1, min(s1, c1)), TrafficState(c2, min(s2, c2))),
    )


def at_interiors(model, sol):
    """The model's local rule on a solution's interior (D0, S1, S2) and
    interior proportions."""
    up, down1, down2 = sol.interior
    return junction_fluxes(model, up.demand, (down1.supply, down2.supply), sol.interior_proportions)


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

    @pytest.mark.parametrize(
        "xi",
        [
            (0.7,),
            (0.5, 0.3, 0.2),
            (float("nan"), 0.3),
            (0.7, float("inf")),
            0.7,
            (np.array([0.7, np.nan]), np.array([0.3, 0.3])),
            (np.array([0.7, 0.6]), np.array([0.3, 0.4, 0.5])),
            (np.full((2, 2), 0.5), np.full((2, 2), 0.5)),
        ],
    )
    def test_xi_must_be_two_finite_numbers(self, xi):
        for kind in DivergeModelKind:
            with pytest.raises(ValueError, match="xi"):
                DivergeModel(kind, xi=xi, alpha=(0.55, 0.45))

    @pytest.mark.parametrize("alpha", [(1.0,), (0.6, 0.4, 0.0), "ab"])
    def test_alpha_must_be_two_finite_numbers(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            DivergeModel(DivergeModelKind.PRIORITY_BASED, alpha=alpha)

    def test_array_parameters_are_checked_per_row(self):
        x1 = np.array([0.2, 0.7])
        model = lebacque((x1, 1.0 - x1))
        assert all(isinstance(x, np.ndarray) for x in model.xi)
        with pytest.raises(ValueError, match="strictly positive"):
            lebacque((np.array([0.2, 0.0]), np.array([0.8, 1.0])))
        y = np.array([0.3, 0.1])
        partial_evacuation((y, y), (np.array([0.5, 0.5]), np.array([0.5, 0.5])))
        with pytest.raises(ValueError, match="admissible box"):
            partial_evacuation((y, y), (np.array([0.5, 0.95]), np.array([0.5, 0.05])))

    def test_input_state_must_bind_to_diagram(self, trio):
        with pytest.raises(ValueError):
            RiemannInput(
                trio,
                (TrafficState(0.1, 0.1), TrafficState(trio[1].capacity, 0.1), TrafficState(trio[2].capacity, 0.05)),
            )

    @pytest.mark.parametrize("count", [2, 4])
    @pytest.mark.parametrize("field", ["diagrams", "states", "densities"])
    def test_input_takes_one_entry_per_link(self, trio, field, count):
        base = RiemannInput.from_densities(trio, (1.0, 1.0, 0.1))
        fields = {"diagrams": base.diagrams, "states": base.states, "densities": base.densities}
        fields[field] = (fields[field] * 2)[:count]
        counts = ", ".join(f"{count if name == field else 3} {name}" for name in fields)
        message = f"a Riemann input takes one entry per link (3 of each), got {counts}"
        with pytest.raises(ValueError) as raised:
            RiemannInput(**fields)
        assert str(raised.value) == message

    @pytest.mark.parametrize(("densities", "counts"), [
        ((1.0, 0.1), "3 diagrams, 2 states, 2 densities"),
        ((1.0, 1.0, 0.1, 0.1), "3 diagrams, 3 states, 4 densities"),
    ])
    def test_from_densities_takes_one_density_per_link(self, trio, densities, counts):
        with pytest.raises(ValueError) as raised:
            RiemannInput.from_densities(trio, densities)
        assert str(raised.value) == f"a Riemann input takes one entry per link (3 of each), got {counts}"


    def test_densities_must_map_to_their_states(self, trio):
        base = RiemannInput.from_densities(trio, (1.0, 1.0, 0.1))
        with pytest.raises(InvalidStateError, match=r"link 0: density 0.2 does not map to its state TrafficState\("):
            RiemannInput(base.diagrams, base.states, (0.2, 0.3, 0.9))

    def test_density_above_jam_density_is_rejected(self, trio):
        base = RiemannInput.from_densities(trio, (1.0, 1.0, 0.1))
        with pytest.raises(ValueError, match="density out of range"):
            RiemannInput(base.diagrams, base.states, (1.0, 1.0, trio[2].jam_density * 1.5))


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
        assert sol.stationary[0].demand == pytest.approx(0.3365, abs=FOUR_DP)
        assert sol.stationary[0].supply == pytest.approx(0.2804, abs=FOUR_DP)
        assert sol.stationary[1].demand == pytest.approx(0.1963, abs=FOUR_DP)
        assert sol.stationary[1].supply == pytest.approx(0.3365, abs=FOUR_DP)
        assert sol.stationary[2].demand == pytest.approx(0.0841, abs=FOUR_DP)
        assert sol.stationary[2].supply == pytest.approx(0.0841, abs=FOUR_DP)

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
            assert sol.interior == sol.stationary
            assert sol.interior_unique == (True, True, True)

    def test_already_stationary_input_has_no_waves(self, trio):
        model = lebacque((0.7, 0.3))
        base = solve(model, RiemannInput.from_densities(trio, (1.0, 1.0, 0.1)))
        consistent = RiemannInput(trio, base.stationary)
        again = solve(model, consistent)
        assert again.stationary == base.stationary


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
        assert sol.interior[2].demand == pytest.approx(c2, abs=1e-12)
        assert sol.interior[2].supply == pytest.approx(want, abs=1e-12)
        assert sol.interior[2] != sol.stationary[2]
        assert sol.interior_unique == (True, True, True)
        local = at_interiors(supply_proportional(), sol)
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


class TestPriorityIsPartialEvacuationWithoutRoutes:
    """The priority rule is partial evacuation with xi = (0, 0): the same
    kernel values and solutions bitwise, and the same admissible alphas."""

    @staticmethod
    def grid(trio):
        # a 9^3 cube over the capacities, zero faces included, with one
        # alpha per row; every fifth row gives all priority to link 1, the
        # next all to link 2
        caps = tuple(fd.capacity for fd in trio)
        axes = [np.linspace(0.0, c, 9) for c in caps]
        d0, s1, s2 = (g.ravel() for g in np.meshgrid(*axes, indexing="ij"))
        a1 = np.random.default_rng(12).random(d0.size)
        a1[::5] = 1.0
        a1[1::5] = 0.0
        return caps, d0, s1, s2, (a1, 1.0 - a1)

    @pytest.mark.parametrize("alpha", [None, (0.6, 0.4), (1.0, 0.0)], ids=["rows", "fixed", "absolute"])
    def test_kernel_is_bitwise_partial_evacuation(self, trio, alpha):
        _, d0, s1, s2, rows = self.grid(trio)
        alpha = rows if alpha is None else alpha
        want = junction_fluxes(partial_evacuation((0.0, 0.0), alpha), d0, (s1, s2), None)
        # a priority model ignores the xi a config may pass along with it
        for model in (priority_based(alpha), DivergeModel(DivergeModelKind.PRIORITY_BASED, (0.3, 0.3), alpha)):
            got = junction_fluxes(model, d0, (s1, s2), None)
            assert [q.tobytes() for q in got] == [q.tobytes() for q in want]

    def test_solve_batch_agrees_field_by_field(self, trio):
        caps, d0, s1, s2, alpha = self.grid(trio)

        def fields(sol):
            states = (*sol.stationary, *sol.interior)
            return [
                *sol.fluxes, *(x for u in states for x in (u.demand, u.supply)),
                *sol.interior_proportions, *sol.interior_unique,
            ]

        prio = fields(solve_batch(priority_based(alpha), d0, s1, s2, caps))
        part = fields(solve_batch(partial_evacuation((0.0, 0.0), alpha), d0, s1, s2, caps))
        assert len(prio) == 20
        for k, (got, want) in enumerate(zip(prio, part)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), k

    @pytest.mark.parametrize(
        "alpha",
        [
            (0.6, 0.4), (1.0, 0.0), (0.0, 1.0), (0.7, 0.7), (1.2, -0.2), (-0.5, 1.5),
            (1.0 + 1e-13, -1e-13), (1.0 + 1e-11, -1e-11), (0.5, 0.5 + 1e-11),
            (np.array([0.2, 1.0]), np.array([0.8, 0.0])),
            (np.array([0.2, 1.1]), np.array([0.8, -0.1])),
        ],
    )
    def test_the_same_alphas_are_admissible(self, alpha):
        def outcome(build):
            try:
                build()
            except ValueError as exc:
                return str(exc)
            return "accepted"

        want = outcome(lambda: partial_evacuation((0.0, 0.0), alpha))
        assert outcome(lambda: priority_based(alpha)) == want


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
        inp = congested_diverge_input
        q0, q1, q2 = junction_fluxes(model, inp.demand_upstream, inp.supplies, (0.7, 0.3))
        assert q1 == pytest.approx(0.2355, abs=FOUR_DP)
        assert q2 == pytest.approx(0.0841, abs=FOUR_DP)
        # the global solution gives 0.1963 on link 1: the rule is not invariant
        g = solve_fluxes(model, congested_diverge_input)
        assert abs(q1 - g[1]) > 0.03

    def test_daganzo_at_raw_initial_states(self, congested_diverge_input):
        model = daganzo_fifo((0.7, 0.3))
        inp = congested_diverge_input
        q0, q1, q2 = junction_fluxes(model, inp.demand_upstream, inp.supplies, (0.7, 0.3))
        # min(0.3365, 0.3365/0.7, 0.0841/0.3) = 0.2804, split by proportion
        g = solve_fluxes(model, congested_diverge_input)
        assert max(abs(a - b) for a, b in zip((q0, q1, q2), g)) <= 1e-12

    def test_zero_upstream_demand(self):
        for model in (
            daganzo_fifo((0.7, 0.3)),
            lebacque((0.7, 0.3)),
            supply_proportional(),
            priority_based((0.5, 0.5)),
            partial_evacuation((0.2, 0.2), (0.5, 0.5)),
        ):
            assert junction_fluxes(model, 0.0, (0.2, 0.05), (0.7, 0.3)) == (0.0, 0.0, 0.0)

    def test_no_receiving_capacity(self, trio):
        q = junction_fluxes(supply_proportional(), trio[0].capacity, (0.0, 0.0), (0.5, 0.5))
        assert q == (0.0, 0.0, 0.0)

    def test_daganzo_zero_junction_proportion_limit(self, congested_diverge_input):
        inp = congested_diverge_input
        q0, q1, q2 = junction_fluxes(daganzo_fifo((0.7, 0.3)), inp.demand_upstream, inp.supplies, (0.0, 1.0))
        want = min(inp.demand_upstream, inp.supplies[1])
        assert q1 == 0.0
        assert q0 == q2 == want

    def test_q0_is_the_in_flux_sum_except_daganzos_split(self):
        # 20,000 random array draws: q0 == q1 + q2 bit for bit for four
        # rules; Daganzo's rule splits q0 as (x1 q0, x2 q0), whose sum may
        # miss q0 by an ulp, and on these draws does
        rng = np.random.default_rng(0)
        d0, s1, s2, x1 = rng.random((4, 20_000))
        proportions = (x1, 1.0 - x1)
        for model in (
            lebacque((0.7, 0.3)),
            supply_proportional(),
            priority_based((0.6, 0.4)),
            partial_evacuation((0.3, 0.2), (0.55, 0.45)),
        ):
            q0, q1, q2 = junction_fluxes(model, d0, (s1, s2), proportions)
            np.testing.assert_array_equal(q0, q1 + q2)
        q0, q1, q2 = junction_fluxes(daganzo_fifo((0.7, 0.3)), d0, (s1, s2), proportions)
        np.testing.assert_array_equal(q1, x1 * q0)
        np.testing.assert_array_equal(q2, (1.0 - x1) * q0)
        assert np.any(q0 != q1 + q2)

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


class TestSubnormalSupplies:
    """D0 / (S1 + S2) overflows when the supplies sum to a subnormal number;
    the supply-proportional rule must still fill such a pair completely,
    and agree bitwise with min(1, D0 / total) wherever that quotient is
    finite."""

    D0 = np.array([0.1, 0.1, 0.0, 0.25, 0.1])
    S1 = np.array([5e-324, 0.3, 0.0, 0.1, 0.05])
    S2 = np.array([0.0, 0.1, 0.0, 0.15, 0.0])

    def reference(self):
        # Python floats divide to inf without a warning
        rows = zip(self.D0.tolist(), self.S1.tolist(), self.S2.tolist())
        scaled = [(min(1.0, d / (a + b)) if a + b > 0.0 else 0.0, a, b) for d, a, b in rows]
        return [k * a for k, a, _ in scaled], [k * b for k, _, b in scaled]

    def test_kernel_scalar(self):
        q = junction_fluxes(supply_proportional(), 0.1, (5e-324, 0.0), (0.5, 0.5))
        assert q == (5e-324, 5e-324, 0.0)

    def test_kernel_arrays(self):
        _, q1, q2 = junction_fluxes(supply_proportional(), self.D0, (self.S1, self.S2), (0.5, 0.5))
        want1, want2 = self.reference()
        np.testing.assert_array_equal(q1, want1)
        np.testing.assert_array_equal(q2, want2)

    def test_oracle_scalar(self, trio):
        result = brute_force_fluxes(supply_proportional(), flux_input(trio, 0.1, 5e-324, 0.0))
        assert result.survivors == ((5e-324, 5e-324, 0.0),)

    def test_oracle_arrays(self):
        q1, q2 = _rule_pair(supply_proportional(), self.D0, self.S1, self.S2)
        want1, want2 = self.reference()
        np.testing.assert_array_equal(q1, want1)
        np.testing.assert_array_equal(q2, want2)

    def test_solve_batch_slopes(self, trio):
        # the uniqueness slopes divide by the same totals; the suite turns
        # the overflow warning this once raised into an error
        caps = tuple(fd.capacity for fd in trio)
        d0 = np.concatenate([[0.1, 0.1, 0.0], self.D0])
        s1 = np.concatenate([[5e-324, 1e-310, 5e-324], self.S1])
        s2 = np.concatenate([[0.0, 1e-310, 0.0], self.S2])
        batch = solve_batch(supply_proportional(), d0, s1, s2, caps)
        flags = [tuple(f[k].item() for f in batch.interior_unique) for k in range(d0.size)]
        unique, up_only, none = (True, True, True), (True, False, False), (False, False, False)
        assert flags == [unique, unique, up_only, unique, unique, none, (False, True, True), unique]


class TestOracleBisection:
    @staticmethod
    def hundred_steps(fn, lo, hi):
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if fn(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    @pytest.mark.parametrize("root", [0.0, 1e-300, 0.1, 1.0 / 3.0, 0.5, 0.7, 1.0])
    def test_stops_once_the_bracket_stops_changing(self, root):
        calls = []

        def fn(x):
            calls.append(x)
            return x - root

        got = _bisect_monotone(fn, 0.0, 1.0)
        assert got == self.hundred_steps(lambda x: x - root, 0.0, 1.0)
        if root >= 0.1:
            # the bracket is one ulp wide after about 55 halvings
            assert len(calls) < 2 + 60
        elif root == 0.0:
            # fn(lo) >= 0: the bracket halves toward 0 without calling fn
            assert len(calls) == 2
        else:
            assert len(calls) == 2 + 100  # a bracket shrinking toward 0 never stalls

    def test_step_function_root(self):
        calls = []

        def fn(x):
            calls.append(x)
            return -1.0 if x < 0.3 else 1.0

        got = _bisect_monotone(fn, 0.0, 1.0)
        assert len(calls) < 2 + 60
        assert got == self.hundred_steps(fn, 0.0, 1.0)


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
        assert check_stationary_admissible(TrafficState(c, 0.2), initial, 0, c)
        free = TrafficState(0.2, c)
        assert check_stationary_admissible(
            TrafficState(0.2, c), free, 0, c
        )
        # supply above the initial demand is not admissible
        assert not check_stationary_admissible(
            TrafficState(c, 0.3), free, 0, c
        )

    def test_downstream_stationary(self, ramp):
        c = ramp.capacity
        initial = state_of(ramp, 0.1)  # S = c
        assert check_stationary_admissible(TrafficState(c, c), initial, 1, c)
        assert check_stationary_admissible(TrafficState(0.05, c), initial, 1, c)
        congested = TrafficState(c, 0.03)
        assert check_stationary_admissible(congested, congested, 1, c)
        assert not check_stationary_admissible(
            TrafficState(0.05, c), congested, 1, c
        )

    def test_interior_equals_stationary_is_always_admissible(self, mainline):
        c = mainline.capacity
        for stationary in (TrafficState(c, 0.2), TrafficState(0.2, c)):
            for side in range(3):
                assert check_interior_admissible(stationary, stationary, side, c)

    def test_soc_upstream_pins_interior(self, mainline):
        c = mainline.capacity
        stationary = TrafficState(c, 0.2)
        assert not check_interior_admissible(TrafficState(c, 0.25), stationary, 0, c)

    def test_uc_upstream_needs_supply_at_least_demand(self, mainline):
        c = mainline.capacity
        stationary = TrafficState(0.2, c)
        assert check_interior_admissible(TrafficState(c, 0.25), stationary, 0, c)
        assert not check_interior_admissible(TrafficState(c, 0.15), stationary, 0, c)

    def test_oc_downstream_needs_demand_at_least_supply(self, ramp):
        c = ramp.capacity
        stationary = TrafficState(c, 0.05)
        assert check_interior_admissible(TrafficState(c, 0.07), stationary, 1, c)
        assert not check_interior_admissible(TrafficState(0.04, c), stationary, 1, c)

    def test_link_outside_zero_to_two_is_rejected(self, mainline):
        c = mainline.capacity
        state = TrafficState(c, 0.2)
        for check in (check_stationary_admissible, check_interior_admissible):
            with pytest.raises(ValueError, match="got 3"):
                check(state, state, 3, c)


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
                local = at_interiors(model, sol)
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


PROPS_FIXTURES = (
    daganzo_fifo((0.7, 0.3)),
    lebacque((0.7, 0.3)),
    supply_proportional(),
    priority_based((0.6, 0.4)),
    partial_evacuation((0.3, 0.2), (0.55, 0.45)),
)


# SHA-256 of the (3375, 20) float64 array of every solution field, per point
# of the 15^3 fixture grid, as the per-point scalar solver computed them
# before solve became a batch of one: fluxes, the six stationary and interior
# (demand, supply) pairs, interior proportions, uniqueness flags as 0/1.
GRID_DIGESTS = {
    "daganzo_fifo": "f13c31f66a6f6e55cb88328de38c55976198e63ca8b9160a16ab9d7620430322",
    "lebacque": "3cd2bccd243c1c5670b7504fc646fe26993b3d1c4e0a112fc6f6e527d9400db4",
    "supply_proportional": "027ca8b6bd5b88fdf31c0acf9863b9aacc83d97da41299fe9e40db1f90e2b40e",
    "priority_based": "976951b5c97b9aa4860a77fa583c7eefc0963a84262b9f798825505404e629a3",
    "partial_evacuation": "b5a31cdf2b9ce1de4a468a2670104db18eea89c9b5cfcdfddaf74f63728c2f1b",
}


# SHA-256 of the (12000, 20) float64 array of every solve_batch field (in
# GRID_DIGESTS' column order) on snapped_points(caps, 12000, seed 11) with
# row_models' per-row parameters, for the del Castillo trio's capacities and
# for those of (triangular, triangular, greenshields).  They pin the
# uniqueness flags where terms tie; they were computed with the forward-mode
# slope class that riemann._evacuation_binding's masks replaced.
SNAPPED_DIGESTS = {
    "del_castillo": {
        "daganzo_fifo": "79106d503006f971b7bf58d63381b63b695ac1d0f6f5915c4e4b12f01017cde8",
        "lebacque": "ab23162335a480deee9c29816c1545899d059a26c3e47b270f0b2751ae3ff42a",
        "supply_proportional": "187743236bd6ec652a9b8e4bff5cac5d83d2abc8428886a117c966c3781980b6",
        "priority_based": "2006cec560ad74529c553c3c4138eea405eb0e96e8bf1ee49c628cdaf18bb22f",
        "partial_evacuation": "b23e6927275d229d68b74614e8440ebce5951a41980df450d95220a4094d5c44",
    },
    "triangular": {
        "daganzo_fifo": "32f76902514b979f5f406038edff2be4bdf13938791b531e996224c71ad83e2c",
        "lebacque": "2475b6538c9bd89cbd0e98c275b00d989962bcba242253a36c015a688d001177",
        "supply_proportional": "bd4b116711674c62bdbe2217299b61f251ce48746c277bf367f99f0e58477776",
        "priority_based": "4dfba9c0315245a7b632cae017ae9a5dd1b294625a43ef2774ed52a42e9b2b4e",
        "partial_evacuation": "60f721baa5f976368fb7f314ee21c87ee078da45466b88ccbafea97a65709d8a",
    },
}


def snapped_points(caps, n, rng):
    """n uniform (D0, S1, S2) points in the capacity box.  One coordinate
    in 24 is snapped to 0 and one in 24 to its capacity; one D0 in 24 onto
    D0 = S1 + S2 and one S2 in 24 onto S2 = D0 - S1, where that fits the
    box.  Supply totals are 0 or normal numbers."""
    c0, c1, c2 = caps
    d0, s1, s2 = (c * rng.random(n) for c in caps)
    snap = rng.integers(0, 24, (3, n))
    for k, (v, c) in enumerate(zip((d0, s1, s2), caps)):
        v[snap[k] == 0] = 0.0
        v[snap[k] == 1] = c
    total = s1 + s2
    on_sum = (snap[0] == 2) & (total <= c0)
    d0[on_sum] = total[on_sum]
    residual = d0 - s1
    on_residual = (snap[2] == 2) & (residual >= 0.0) & (residual <= c2)
    s2[on_residual] = residual[on_residual]
    total = s1 + s2
    assert np.all((total == 0.0) | (total >= np.finfo(float).tiny))
    return d0, s1, s2


def row_models(n, rng):
    """The five rules with per-row parameters.  In one row of four each,
    the priority weight a1 is 0 or 1; partial evacuation has xi1 = 0 in one
    row of four, a1 = 0 (with xi1 = 0) or a1 = 1 (with xi2 = 0) in one of
    eight each, and a1 on either end of its box in one of eight each."""
    x1 = rng.uniform(0.05, 0.95, n)
    a1 = rng.random(n)
    pick = rng.integers(0, 8, n)
    a1[pick < 2] = 0.0
    a1[(pick >= 2) & (pick < 4)] = 1.0
    y1 = rng.uniform(0.0, 0.5, n)
    y2 = rng.uniform(0.0, 0.45, n)
    y1[pick == 4] = 0.0
    y1[pick == 0] = 0.0
    y2[pick == 2] = 0.0
    b1 = y1 + rng.random(n) * (1.0 - y2 - y1)
    b1[pick == 0] = 0.0
    b1[pick == 2] = 1.0
    b1[pick == 5] = y1[pick == 5]
    b1[pick == 6] = 1.0 - y2[pick == 6]
    return (
        daganzo_fifo((x1, 1.0 - x1)),
        lebacque((x1, 1.0 - x1)),
        supply_proportional(),
        priority_based((a1, 1.0 - a1)),
        partial_evacuation((y1, y2), (b1, 1.0 - b1)),
    )


def solution_bits(batch):
    """Every field of a batch solution as the columns of one float array."""
    states = (*batch.stationary, *batch.interior)
    fields = [
        *batch.fluxes, *(x for u in states for x in (u.demand, u.supply)),
        *batch.interior_proportions, *batch.interior_unique,
    ]
    return np.column_stack([np.asarray(f, dtype=float) for f in fields])


class TestSolveBatch:
    @pytest.mark.parametrize("trio_name", sorted(SNAPPED_DIGESTS))
    def test_snapped_points_with_row_parameters_are_pinned(self, all_diagrams, trio_name):
        import hashlib

        mainline, ramp, tri, green = all_diagrams
        trio = (mainline, mainline, ramp) if trio_name == "del_castillo" else (tri, tri, green)
        caps = tuple(fd.capacity for fd in trio)
        rng = np.random.default_rng(11)
        n = 12000
        d0, s1, s2 = snapped_points(caps, n, rng)
        got = {}
        for model in row_models(n, rng):
            bits = solution_bits(solve_batch(model, d0, s1, s2, caps))
            got[model.kind.value] = hashlib.sha256(bits.tobytes()).hexdigest()
        assert got == SNAPPED_DIGESTS[trio_name]

    @pytest.mark.parametrize("model", PROPS_FIXTURES, ids=lambda m: m.kind.value)
    def test_fixture_grid_is_bitwise_the_per_point_solutions(self, trio, model):
        import hashlib

        caps = tuple(fd.capacity for fd in trio)
        axes = [np.linspace(0.0, c, 15) for c in caps]
        d0, s1, s2 = (g.ravel() for g in np.meshgrid(*axes, indexing="ij"))
        batch = solve_batch(model, d0, s1, s2, caps)
        states = (*batch.stationary, *batch.interior)
        fields = [
            *batch.fluxes, *(x for u in states for x in (u.demand, u.supply)),
            *batch.interior_proportions, *batch.interior_unique,
        ]
        bits = np.column_stack([np.asarray(f, dtype=float) for f in fields])
        assert hashlib.sha256(bits.tobytes()).hexdigest() == GRID_DIGESTS[model.kind.value]
        for k in range(0, d0.size, 17):
            want = solve(model, flux_input(trio, d0[k], s1[k], s2[k]))
            assert repr(batch.row(k)) == repr(want)

    def test_rows_with_their_own_parameters_are_solve_bitwise(self, trio):
        from divergeflow.harness import _random_models

        rng = np.random.default_rng(3)
        caps = tuple(fd.capacity for fd in trio)
        u = rng.random((400, 8))
        d0, s1, s2 = (c * u[:, k] for k, c in enumerate(caps))
        for model in _random_models(u[:, 3:]):
            batch = solve_batch(model, d0, s1, s2, caps)
            for k in range(0, 400, 7):
                pick = {
                    name: tuple(float(v[k]) if np.ndim(v) else v for v in getattr(model, name))
                    for name in ("xi", "alpha")
                    if getattr(model, name) is not None
                }
                want = solve(DivergeModel(model.kind, **pick), flux_input(trio, d0[k], s1[k], s2[k]))
                assert repr(batch.row(k)) == repr(want)


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
        assert_oracle_agrees(trio, model, 5)

    def test_supply_proportional_oracle_dense_grid(self, trio):
        # the supply-proportional rule gets the densest sweep: its distinct
        # interior states exercise every branch of the enumeration
        assert_oracle_agrees(trio, supply_proportional(), 20)


def assert_oracle_agrees(trio, model, n):
    """Every point of the n^3 (D0, S1, S2) grid has one oracle survivor,
    within 1e-6 of the closed-form fluxes."""
    caps = tuple(fd.capacity for fd in trio)
    axes = [np.linspace(0.0, c, n) for c in caps]
    d0, s1, s2 = (g.ravel() for g in np.meshgrid(*axes, indexing="ij"))
    closed = solve_fluxes_batch(model, d0, s1, s2, caps)
    for k, result in enumerate(brute_force_batch(model, d0, s1, s2, caps)):
        point = (d0[k].item(), s1[k].item(), s2[k].item())
        assert result.unique, (point, result.survivors)
        gap = max(abs(a - q[k].item()) for a, q in zip(result.fluxes, closed))
        assert gap <= 1e-6, point
