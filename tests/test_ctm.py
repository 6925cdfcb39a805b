import numpy as np
import pytest

from divergeflow import (
    BoundaryCondition,
    BoundarySpec,
    NumericalStabilityError,
    SimConfig,
    Trajectory,
    daganzo_fifo,
    greenshields,
    lebacque,
    partial_evacuation,
    priority_based,
    proportion_update,
    run,
    solution_difference,
    step,
    supply_proportional,
)

FOUR_DP = 5e-5


def diverge_config(trio, model, cells=40, **kwargs):
    defaults = dict(
        model=model,
        diagrams=trio,
        cells_per_link=cells,
        time_steps=40 * cells,
        link_length=10.0,
        horizon=360.0,
        initial_densities=(1.0, 1.0, 0.1),
        initial_proportions=0.7,
    )
    defaults.update(kwargs)
    return SimConfig(**defaults)


class TestConfigValidation:
    def test_cfl_violation_rejected(self, trio):
        with pytest.raises(ValueError, match="CFL"):
            SimConfig(
                model=lebacque((0.7, 0.3)),
                diagrams=trio,
                cells_per_link=10,
                time_steps=10,  # dt = 36, dx = 1
            )

    def test_cfl_limit_is_the_largest_wave_speed(self, all_diagrams):
        # max |Q'| equals v_f for every shipped law, so the check accepts and
        # rejects the same grids as a v_f-based one
        for fd in all_diagrams:
            assert fd.max_wave_speed == fd.free_flow_speed
            grid = dict(model=lebacque((0.7, 0.3)), diagrams=(fd, fd, fd), cells_per_link=10)
            horizon = 10.0 / fd.max_wave_speed  # dx = 1, so 10 steps sit on the limit
            SimConfig(**grid, time_steps=10, horizon=horizon)
            with pytest.raises(ValueError, match="CFL"):
                SimConfig(**grid, time_steps=9, horizon=horizon)

    def test_initial_density_range_checked(self, trio):
        with pytest.raises(ValueError):
            diverge_config(trio, lebacque((0.7, 0.3)), initial_densities=(3.0, 0.0, 0.0))

    def test_proportion_range_checked(self, trio):
        with pytest.raises(ValueError):
            diverge_config(trio, lebacque((0.7, 0.3)), initial_proportions=1.4)

    def test_nan_initial_data_rejected_at_construction(self, trio):
        nan = float("nan")
        with pytest.raises(ValueError, match="initial density"):
            diverge_config(trio, lebacque((0.7, 0.3)), initial_densities=(nan, 1.0, 0.1))
        with pytest.raises(ValueError, match="initial density"):
            diverge_config(
                trio, lebacque((0.7, 0.3)), initial_densities=(np.array([1.0] * 39 + [nan]), 1.0, 0.1)
            )
        with pytest.raises(ValueError, match="proportions"):
            diverge_config(trio, lebacque((0.7, 0.3)), initial_proportions=nan)
        with pytest.raises(ValueError, match="proportions"):
            diverge_config(trio, lebacque((0.7, 0.3)), inflow_proportions=nan)

    @pytest.mark.parametrize("period", [0.0, -60.0, float("inf"), float("nan")])
    def test_sinusoid_period_validated(self, period):
        with pytest.raises(ValueError):
            BoundaryCondition.sinusoid(0.05, 0.03, period)

    def test_nonfinite_boundary_values_rejected(self):
        with pytest.raises(ValueError):
            BoundaryCondition.sinusoid(float("nan"), 0.03, 60.0)
        with pytest.raises(ValueError):
            BoundaryCondition.constant(float("inf"))

    def test_constant_boundary_range_checked(self, trio):
        with pytest.raises(ValueError):
            diverge_config(
                trio,
                lebacque((0.7, 0.3)),
                boundaries=BoundarySpec(upstream_demand=BoundaryCondition.constant(0.9)),
            )


class TestProportionUpdate:
    def test_uniform_mix_is_bitwise_constant(self):
        xi = 0.7
        out = proportion_update(0.83, 0.79, xi, xi, 0.21, 0.2473, 0.9)
        assert out == xi

    def test_empty_cell_keeps_previous_mix(self):
        assert proportion_update(0.1, 0.0, 0.35, 0.9, 0.0, 0.05, 0.9) == 0.35

    def test_hand_computed_cell(self):
        rho_old, xi_old, xi_up = 0.5, 0.4, 0.8
        q_in, q_out, r = 0.2, 0.1, 0.9
        rho_new = rho_old + r * (q_in - q_out)
        want = (rho_old * xi_old + r * (q_in * xi_up - q_out * xi_old)) / rho_new
        got = proportion_update(rho_old, rho_new, xi_old, xi_up, q_in, q_out, r)
        assert got == pytest.approx(want, abs=1e-15)

    def test_array_form(self):
        xi = np.array([0.7, 0.4])
        xi_up = np.array([0.7, 0.7])
        out = proportion_update(
            np.array([0.5, 0.5]),
            np.array([0.5, 0.5]),
            xi,
            xi_up,
            np.array([0.1, 0.1]),
            np.array([0.1, 0.1]),
            0.9,
        )
        assert out[0] == 0.7  # uniform entry stays put
        assert 0.4 < out[1] <= 0.7  # mixing pulls toward the inflow mix


class TestStepBasics:
    def test_empty_network_stays_empty(self, trio):
        cfg = diverge_config(
            trio,
            lebacque((0.7, 0.3)),
            cells=20,
            initial_densities=(0.0, 0.0, 0.0),
            boundaries=BoundarySpec(upstream_demand=BoundaryCondition.constant(0.0)),
        )
        state = cfg.initial_state()
        for _ in range(50):
            state = step(state, cfg)
        for arr in state.densities:
            assert np.all(arr == 0.0)

    def test_matched_critical_junction_is_stationary(self):
        # halved-capacity downstream links absorb exactly the upstream
        # capacity, so critical densities everywhere are a fixed point
        up = greenshields(1.0, 1.0)
        down = greenshields(1.0, 0.5)
        for model in (
            daganzo_fifo((0.5, 0.5)),
            lebacque((0.5, 0.5)),
            supply_proportional(),
            priority_based((0.5, 0.5)),
        ):
            cfg = SimConfig(
                model=model,
                diagrams=(up, down, down),
                cells_per_link=16,
                time_steps=200,
                link_length=4.0,
                horizon=45.0,
                initial_densities=(
                    up.critical_density,
                    down.critical_density,
                    down.critical_density,
                ),
                initial_proportions=0.5,
            )
            traj = run(cfg)
            for link, fd in enumerate(cfg.diagrams):
                want = (up, down, down)[link].critical_density
                np.testing.assert_allclose(
                    traj.final_state.densities[link], want, atol=1e-12
                )

    def test_first_junction_flux_under_lebacque(self, trio):
        cfg = diverge_config(trio, lebacque((0.7, 0.3)))
        traj = run(cfg)
        assert traj.junction.q1[0] == pytest.approx(0.2355, abs=FOUR_DP)

    def test_density_bounds_hold_under_stress(self, trio):
        rng = np.random.default_rng(3)
        for trial in range(4):
            densities = tuple(
                rng.uniform(0.0, fd.jam_density, size=20) for fd in trio
            )
            bounds = BoundarySpec(
                upstream_demand=BoundaryCondition.constant(
                    rng.uniform(0, trio[0].capacity)
                ),
                downstream_supplies=(
                    BoundaryCondition.sinusoid(0.04, 0.03, 30.0),
                    BoundaryCondition.constant(rng.uniform(0, trio[2].capacity)),
                ),
            )
            cfg = diverge_config(
                trio,
                lebacque((0.6, 0.4)),
                cells=20,
                time_steps=800,
                initial_densities=densities,
                boundaries=bounds,
            )
            traj = run(cfg)  # raises NumericalStabilityError on a violation
            for link, fd in enumerate(trio):
                assert np.all(traj.final_state.densities[link] >= 0.0)
                assert np.all(traj.final_state.densities[link] <= fd.jam_density)


class TestGodunovFlux:
    """The interface flux min(D_left, S_right) must equal the flux of the
    exact two-state Riemann solution, computed here by extremizing Q over the
    density interval (Godunov's flux formula)."""

    @staticmethod
    def exact_interface_flux(fd, rho_l, rho_r):
        lo, hi = min(rho_l, rho_r), max(rho_l, rho_r)
        grid = np.linspace(lo, hi, 4001)
        values = fd.flow(grid) if grid.size else np.array([fd.flow(lo)])
        if rho_l <= rho_r:
            best = float(values.min())
            pick = grid[int(values.argmin())]
            better = min
        else:
            best = float(values.max())
            pick = grid[int(values.argmax())]
            better = max
        # golden-section polish around the sampled extremum
        a = max(lo, pick - (hi - lo) / 4000.0)
        b = min(hi, pick + (hi - lo) / 4000.0)
        phi = (np.sqrt(5.0) - 1.0) / 2.0
        for _ in range(80):
            c = b - phi * (b - a)
            d = a + phi * (b - a)
            if better(fd.flow(c), fd.flow(d)) == fd.flow(c):
                b = d
            else:
                a = c
        return better(best, fd.flow(0.5 * (a + b)))

    @pytest.mark.parametrize("kind", ["mainline", "greenshields", "triangular"])
    def test_matches_demand_supply_flux(self, kind, mainline):
        from divergeflow import triangular

        fd = {
            "mainline": mainline,
            "greenshields": greenshields(1.0, 1.0),
            "triangular": triangular(1.0, 1.0),
        }[kind]
        grid = np.linspace(0.0, fd.jam_density, 13)
        for rho_l in grid:
            for rho_r in grid:
                godunov = min(fd.demand(float(rho_l)), fd.supply(float(rho_r)))
                exact = self.exact_interface_flux(fd, float(rho_l), float(rho_r))
                assert godunov == pytest.approx(exact, abs=1e-9)


class TestAsymptotics:
    def test_diverge_reaches_predicted_states(self, trio):
        cfg = diverge_config(trio, lebacque((0.7, 0.3)), cells=40)
        traj = run(cfg)
        final = traj.final_state
        assert float(final.densities[0][-1]) == pytest.approx(0.8555, abs=5e-3)
        assert float(final.densities[1][0]) == pytest.approx(0.1963, abs=5e-3)
        assert float(final.densities[2][0]) == pytest.approx(0.2438, abs=5e-3)
        assert float(final.proportions[0, -1]) == pytest.approx(0.5833, abs=5e-3)
        assert np.all(final.proportions[0, :-1] == 0.7)

    def test_partial_evacuation_smoke(self, trio):
        model = partial_evacuation((0.3, 0.2), (0.55, 0.45))
        cfg = diverge_config(trio, model, cells=20, initial_proportions=(0.3, 0.2))
        traj = run(cfg)
        assert traj.conservation_drift() < 1e-8
        props = traj.final_state.proportions
        assert np.all(props >= 0.0)
        assert np.all(props.sum(axis=0) <= 1.0 + 1e-12)


class TestConservation:
    @pytest.mark.parametrize("boundary", ["neumann", "sinusoid"])
    def test_vehicle_balance(self, trio, boundary):
        bounds = BoundarySpec()
        if boundary == "sinusoid":
            bounds = BoundarySpec(
                downstream_supplies=(
                    BoundaryCondition.neumann(),
                    BoundaryCondition.sinusoid(0.05, 0.03, 60.0),
                )
            )
        cfg = diverge_config(trio, lebacque((0.7, 0.3)), cells=40, boundaries=bounds)
        traj = run(cfg)
        assert traj.conservation_drift() < 1e-8

    def test_nan_drift_is_rejected(self, trio, monkeypatch):
        monkeypatch.setattr(Trajectory, "conservation_drift", lambda self: float("nan"))
        cfg = diverge_config(trio, lebacque((0.7, 0.3)), cells=10)
        with pytest.raises(NumericalStabilityError, match="drifted"):
            run(cfg)

    def test_daganzo_with_all_traffic_routed_to_one_link(self, trio):
        cfg = diverge_config(trio, daganzo_fifo((0.7, 0.3)), cells=20, initial_proportions=1.0)
        traj = run(cfg)
        assert traj.conservation_drift() < 1e-8
        assert np.all(traj.junction.q2 == 0.0)
        assert np.array_equal(traj.junction.q0, traj.junction.q1)
        assert traj.junction.q0[0] > 0.0

    def test_per_step_link_balance(self, trio):
        cfg = diverge_config(trio, daganzo_fifo((0.7, 0.3)), cells=20, time_steps=800)
        state = cfg.initial_state()
        from divergeflow.ctm import _advance

        for _ in range(100):
            new_state, diag = _advance(state, cfg)
            total_change = sum(
                (new_state.densities[i].sum() - state.densities[i].sum()) * cfg.dx
                for i in range(3)
            )
            net = (diag["inflow"] - diag["outflow"]) * cfg.dt
            assert total_change == pytest.approx(net, abs=1e-12)
            state = new_state


class TestSolutionDifference:
    def test_identical_runs_have_zero_difference(self, trio):
        cfg = diverge_config(trio, lebacque((0.7, 0.3)), cells=20, time_steps=800)
        ta, tb = run(cfg), run(cfg)
        eps = solution_difference(ta, tb, cfg.dx)
        assert np.all(eps == 0.0)

    def test_single_cell_perturbation(self, trio):
        cfg = diverge_config(trio, lebacque((0.7, 0.3)), cells=20, time_steps=800)
        ta = run(cfg)
        tb = run(cfg)
        delta = 3e-3
        tb.densities[-1][1][4] += delta
        eps = solution_difference(ta, tb, cfg.dx)
        assert eps[-1] == pytest.approx(delta * cfg.dx, abs=1e-15)

    def test_grid_mismatch_rejected(self, trio):
        ta = run(diverge_config(trio, lebacque((0.7, 0.3)), cells=20, time_steps=800))
        tb = run(diverge_config(trio, lebacque((0.7, 0.3)), cells=10, time_steps=400))
        with pytest.raises(ValueError):
            solution_difference(ta, tb, ta.config.dx)
