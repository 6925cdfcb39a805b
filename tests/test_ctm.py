import hashlib
import re
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divergeflow import ctm
from divergeflow.config import build_spec, load_config
from divergeflow.harness import ExperimentKind, _convergence_pairs
from divergeflow.riemann import junction_fluxes

from divergeflow import (
    BoundaryCondition,
    BoundarySpec,
    DivergeModelKind,
    NumericalStabilityError,
    SimConfig,
    Trajectory,
    daganzo_fifo,
    del_castillo_mainline,
    del_castillo_ramp,
    greenshields,
    lebacque,
    partial_evacuation,
    priority_based,
    run,
    run_batch,
    solution_difference,
    supply_proportional,
    triangular,
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


def initial_arrays(cfg):
    """The (1, 3, M) densities and (1, C, M) proportions of cfg as a batch
    of one, writable copies of its read-only initial state."""
    return cfg.initial_state[None].copy(), cfg.initial_mix[None, :, 1:].copy()


def advance(cfg, rho, x, k=0):
    """Step k of the kernel on a batch of one from (rho, x): the new (rho,
    x) and the member's record row (q0, q1, q2, D0, S1, S2, x1, inflow,
    outflow)."""
    kernel = ctm._Ensemble([cfg])
    # a batch of one: a ghost, the M cells and the trailing ghost per link
    kernel.rho[:, 1:-1], kernel.mix[:, 1:-1] = rho[0], x[0]
    row = kernel.advance(k)
    return kernel.rho[None, :, 1:-1].copy(), kernel.mix[None, :, 1:-1].copy(), row[0].copy()


def update_cells(rho_old, rho_new, xi_old, xi_up, q_in, q_out, ratio):
    """The proportion update of cells given as floats or lists, the
    commodity advecting with the total flow."""
    rho_old, rho_new, xi_old, xi_up, q_in, q_out = (
        np.array(v, dtype=float, ndmin=1) for v in (rho_old, rho_new, xi_old, xi_up, q_in, q_out)
    )
    return ctm._proportion_update(
        rho_new, xi_old.copy(), xi_up, q_in, q_out, ratio, xi_old * q_out,
        rho_old * xi_old, ctm._proportion_work(xi_old.shape, rho_new.shape),
    )


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

    def test_inflow_mix_defaults_to_the_first_upstream_cell(self, trio):
        model = partial_evacuation((0.3, 0.2), (0.55, 0.45))
        per_cell = (np.linspace(0.1, 0.4, 20), 0.2)
        cfg = diverge_config(trio, model, cells=20, initial_proportions=per_cell)
        assert cfg.initial_mix[:, 0].tolist() == [0.1, 0.2]
        cfg = diverge_config(trio, lebacque((0.7, 0.3)), cells=20, initial_proportions=per_cell[0])
        assert cfg.initial_mix[:, 0].tolist() == [0.1]

    def test_a_two_cell_list_is_read_per_cell(self, trio):
        # one tracked commodity: a list as long as the link is one value per
        # cell, not a commodity pair whose second entry is dropped
        cfg = diverge_config(trio, lebacque((0.7, 0.3)), cells=2, initial_proportions=[0.3, 0.8])
        assert cfg.initial_mix.tolist() == [[0.3, 0.3, 0.8]]
        assert run(cfg).proportions[0].tolist() == [[0.3, 0.8]]

    @pytest.mark.parametrize("cells", [1, 3, 20])
    def test_one_tracked_commodity_rejects_a_proportion_pair(self, trio, cells):
        model = lebacque((0.7, 0.3))
        with pytest.raises(ValueError, match=r"^initial_proportions must be a scalar or one value per cell"):
            diverge_config(trio, model, cells=cells, initial_proportions=(0.6, 0.9))
        for mix in ((0.6, 0.9), [0.5]):  # a list of one is no scalar, even on a one-cell link
            with pytest.raises(ValueError, match=r"^inflow_proportions must be a scalar for one"):
                diverge_config(trio, model, cells=cells, inflow_proportions=mix)

    def test_two_tracked_commodities_need_a_pair(self, trio):
        model = partial_evacuation((0.3, 0.2), (0.55, 0.45))
        for name, value in (("initial_proportions", 0.3), ("initial_proportions", (0.3, 0.2, 0.1)),
                            ("inflow_proportions", 0.3), ("inflow_proportions", (np.full(20, 0.3), 0.2))):
            with pytest.raises(ValueError, match=f"^{name} must be a pair"):
                diverge_config(trio, model, cells=20, **{"initial_proportions": (0.3, 0.2), name: value})

    def test_config_and_its_initial_state_are_read_only(self, trio):
        cfg = diverge_config(trio, partial_evacuation((0.3, 0.2), (0.55, 0.45)), initial_proportions=(0.3, 0.2))
        assert cfg.initial_state.shape == (3, 40) and cfg.initial_mix.shape == (2, 41)
        with pytest.raises(FrozenInstanceError):
            cfg.initial_densities = (3.0, 0.0, 0.0)
        with pytest.raises(FrozenInstanceError):
            cfg.initial_state = np.zeros((3, 40))
        for derived in (cfg.initial_state, cfg.initial_mix):
            with pytest.raises(ValueError, match="read-only"):
                derived[0, 0] = 0.5

    @pytest.mark.parametrize("name", ["link_length", "horizon"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan"), 0.0, -1.0])
    def test_link_length_and_horizon_must_be_positive_and_finite(self, trio, name, value):
        with pytest.raises(ValueError, match="link_length and horizon must be positive and finite"):
            diverge_config(trio, lebacque((0.7, 0.3)), **{name: value})

    def test_link_length_whose_jam_full_vehicle_count_overflows_is_rejected(self, trio):
        with pytest.raises(ValueError, match="link_length 1e\\+308 is too large"):
            diverge_config(trio, lebacque((0.7, 0.3)), link_length=1.0e308)
        # huge, but its jam-full vehicle count is finite
        assert diverge_config(trio, lebacque((0.7, 0.3)), link_length=1.0e300).link_length == 1.0e300

    @pytest.mark.parametrize("model, need", [
        (lebacque((0.7, 0.3)), 158728),
        (partial_evacuation((0.3, 0.2), (0.55, 0.45)), 169616),
    ], ids=["one-commodity", "two-commodity"])
    def test_run_bigger_than_memory_is_rejected_before_an_array_is_built(self, trio, monkeypatch, model, need):
        # M = 40, N = 1,600 and 33 snapshots: 8 bytes times the initial state
        # and mix, 3M + C(M + 1), the snapshots, 33 (3 + C) M, and the
        # junction record, 9N
        monkeypatch.setattr(ctm, "_physical_memory", lambda: need)
        assert diverge_config(trio, model, initial_proportions=None).cells_per_link == 40

        def forbidden(*args):
            raise AssertionError("an array was built")

        monkeypatch.setattr(ctm, "_physical_memory", lambda: need - 1)
        monkeypatch.setattr(ctm, "_as_cell_array", forbidden)
        with pytest.raises(ValueError, match=r"^a run with M=40 cells per link and N=1600 steps needs "):
            diverge_config(trio, model, initial_proportions=None)

    @pytest.mark.parametrize("period", [0.0, -60.0, float("inf"), float("nan")])
    def test_sinusoid_period_validated(self, period):
        with pytest.raises(ValueError):
            BoundaryCondition.sinusoid(0.05, 0.03, period)

    def test_nonfinite_boundary_values_rejected(self):
        with pytest.raises(ValueError):
            BoundaryCondition.sinusoid(float("nan"), 0.03, 60.0)
        with pytest.raises(ValueError):
            BoundaryCondition.constant(float("inf"))

    @pytest.mark.parametrize(
        "link, value, end", [(0, 0.9, "demand"), (1, 0.9, "supply"), (2, 0.2, "supply")],
        ids=["upstream", "downstream-1", "downstream-2"],
    )
    def test_constant_boundary_range_checked(self, trio, link, value, end):
        # 0.2 lies within the mainline's capacity but above the ramp's: link
        # 2's case fails only when its supply meets link 2's own diagram
        bcs = [BoundaryCondition.neumann()] * 3
        bcs[link] = BoundaryCondition.constant(value)
        with pytest.raises(ValueError) as info:
            diverge_config(trio, lebacque((0.7, 0.3)), boundaries=BoundarySpec(bcs[0], bcs[1:]))
        assert str(info.value) == f"constant boundary {end} outside [0, capacity]"

    @pytest.mark.parametrize("count", [1, 3])
    def test_boundary_spec_needs_two_downstream_supplies(self, count):
        with pytest.raises(ValueError) as info:
            BoundarySpec(downstream_supplies=(BoundaryCondition.neumann(),) * count)
        assert str(info.value) == "downstream_supplies needs exactly two entries"

    def test_boundary_spec_stores_downstream_supplies_as_a_tuple(self):
        supplies = [BoundaryCondition.neumann(), BoundaryCondition.constant(0.05)]
        assert BoundarySpec(downstream_supplies=supplies).downstream_supplies == tuple(supplies)


class TestProportionUpdate:
    def test_uniform_mix_is_bitwise_constant(self):
        xi = 0.7
        out = update_cells(0.83, 0.79, xi, xi, 0.21, 0.2473, 0.9)
        assert out.tolist() == [xi]

    def test_empty_cell_keeps_previous_mix(self):
        assert update_cells(0.1, 0.0, 0.35, 0.9, 0.0, 0.05, 0.9).tolist() == [0.35]

    def test_hand_computed_cell(self):
        rho_old, xi_old, xi_up = 0.5, 0.4, 0.8
        q_in, q_out, r = 0.2, 0.1, 0.9
        rho_new = rho_old + r * (q_in - q_out)
        want = (rho_old * xi_old + r * (q_in * xi_up - q_out * xi_old)) / rho_new
        (got,) = update_cells(rho_old, rho_new, xi_old, xi_up, q_in, q_out, r)
        assert got == pytest.approx(want, abs=1e-15)

    def test_array_form(self):
        out = update_cells([0.5, 0.5], [0.5, 0.5], [0.7, 0.4], [0.7, 0.7], [0.1, 0.1], [0.1, 0.1], 0.9)
        assert out[0] == 0.7  # uniform entry stays put
        assert 0.4 < out[1] <= 0.7  # mixing pulls toward the inflow mix

    def test_in_place_update_of_shifted_views_matches_the_out_of_place_formula(self):
        # the kernel's layout: x and its upstream mix x_up are one buffer,
        # shifted by one cell behind a leading inflow column
        rng = np.random.default_rng(16)
        m, ratio = 12, 0.9
        mixes = rng.random((2, 2, m + 1)) * 0.5
        mixes[:, :, 3:7] = mixes[:, :, 3:4]  # a uniform run
        x, x_up = mixes[:, :, 1:], mixes[:, :, :-1]
        rho_old = rng.random((2, 1, m))
        rho_new = rng.random((2, 1, m))
        rho_new[:, :, [0, 8]] = 0.0, 0.5 * ctm.EMPTY_CELL_TOL  # two empty cells
        faces = rng.random((2, 1, m + 1)) * 0.3
        q_in, q_out = faces[:, :, :-1], faces[:, :, 1:]
        outflux = x * q_out
        outflux[:, :, -1] = 0.6 * q_out[:, :, -1]  # the junction rule's own flux
        old, inflow = x.copy(), mixes[:, :, 0].copy()

        keep = ((x_up == old) & (outflux == old * q_out)) | (rho_new < ctm.EMPTY_CELL_TOL)
        moved = (rho_old * old + ratio * (q_in * x_up - outflux)) / np.maximum(rho_new, ctm.EMPTY_CELL_TOL)
        want = np.where(keep, old, np.minimum(np.maximum(moved, 0.0), 1.0))
        assert keep[:, :, [0, 4, 5, 8]].all() and not keep[:, :, [1, 2, 9, m - 1]].any()

        work = ctm._proportion_work(x.shape, rho_new.shape)
        got = ctm._proportion_update(rho_new, x, x_up, q_in, q_out, ratio, outflux, rho_old * old, work)
        assert got is x
        assert x.tobytes() == want.tobytes()
        assert mixes[:, :, 0].tobytes() == inflow.tobytes()


class TestStepBasics:
    def test_empty_network_stays_empty(self, trio):
        cfg = diverge_config(
            trio,
            lebacque((0.7, 0.3)),
            cells=20,
            initial_densities=(0.0, 0.0, 0.0),
            boundaries=BoundarySpec(upstream_demand=BoundaryCondition.constant(0.0)),
        )
        rho, x = initial_arrays(cfg)
        for k in range(50):
            rho, x, record = advance(cfg, rho, x, k)
            assert record[:3].tolist() + record[7:].tolist() == [0.0] * 5  # no flux anywhere
        assert rho.shape == (1, 3, 20)
        assert np.all(rho == 0.0)

    def test_record_is_the_junction_row_and_boundary_fluxes(self, trio):
        cfg = diverge_config(trio, lebacque((0.7, 0.3)), cells=20)
        rho, x, record = advance(cfg, *initial_arrays(cfg))
        assert record.shape == (9,)
        q0, q1, q2, d0, s1, s2, x1, inflow, outflow = record.tolist()
        assert (q1, q2) == (min(0.7 * d0, s1), min(0.3 * d0, s2))
        assert q0 == q1 + q2
        assert (d0, s1, s2, x1) == (
            trio[0].demand(1.0), trio[1].supply(1.0), trio[2].supply(0.1), 0.7
        )
        # Neumann ghosts: each end cell meets its own supply or demand
        assert inflow == min(trio[0].demand(1.0), trio[0].supply(1.0))
        assert outflow == min(*trio[1].demand_supply(1.0)) + min(*trio[2].demand_supply(0.1))
        assert rho.shape == (1, 3, 20)

    def test_steps_neither_range_check_nor_rederive_the_inflow_mix(self, trio, monkeypatch):
        from divergeflow import FundamentalDiagram

        model = partial_evacuation((0.3, 0.2), (0.55, 0.45))
        cfg = diverge_config(
            trio, model, cells=20, initial_proportions=(0.3, 0.2), inflow_proportions=(0.25, 0.3)
        )
        want = run(cfg)

        def forbidden(*args):
            raise AssertionError("called inside the CTM loop")

        monkeypatch.setattr(FundamentalDiagram, "_checked", forbidden)
        monkeypatch.setattr(ctm, "_proportions", forbidden)
        monkeypatch.setattr(ctm, "_as_cell_array", forbidden)
        got = run(cfg)
        np.testing.assert_array_equal(got.densities, want.densities)
        np.testing.assert_array_equal(got.proportions, want.proportions)

    def test_advance_leaves_the_state_it_is_given_unmodified(self, trio):
        model = partial_evacuation((0.3, 0.2), (0.55, 0.45))
        cfg = diverge_config(trio, model, cells=20, initial_proportions=(0.3, 0.2))
        rho, x = initial_arrays(cfg)
        given = rho.copy(), x.copy()
        new_rho, new_x, _ = advance(cfg, rho, x)
        np.testing.assert_array_equal(rho, given[0])
        np.testing.assert_array_equal(x, given[1])
        assert not (np.array_equal(new_rho, rho) or np.shares_memory(new_rho, rho) or np.shares_memory(new_x, x))

    def test_guard_names_the_link_and_step(self, trio):
        # the step no longer range-checks its input, so a state above jam on
        # link 1 reaches the density guard, which must still name it
        cfg = diverge_config(trio, lebacque((0.7, 0.3)), cells=20)
        rho, x = initial_arrays(cfg)
        rho[0, 1] = trio[1].jam_density + 5e-9
        with pytest.raises(NumericalStabilityError, match="on link 1 at step 7"):
            advance(cfg, rho, x, 7)

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
                np.testing.assert_allclose(traj.densities[-1, link], want, atol=1e-12)

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
                assert np.all(traj.densities[-1, link] >= 0.0)
                assert np.all(traj.densities[-1, link] <= fd.jam_density)


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
        final, proportions = traj.densities[-1], traj.proportions[-1]
        assert float(final[0][-1]) == pytest.approx(0.8555, abs=5e-3)
        assert float(final[1][0]) == pytest.approx(0.1963, abs=5e-3)
        assert float(final[2][0]) == pytest.approx(0.2438, abs=5e-3)
        assert float(proportions[0, -1]) == pytest.approx(0.5833, abs=5e-3)
        assert np.all(proportions[0, :-1] == 0.7)

    def test_partial_evacuation_smoke(self, trio):
        model = partial_evacuation((0.3, 0.2), (0.55, 0.45))
        cfg = diverge_config(trio, model, cells=20, initial_proportions=(0.3, 0.2))
        traj = run(cfg)
        assert traj.conservation_drift() < 1e-8
        props = traj.proportions[-1]
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
        rho, x = initial_arrays(cfg)
        for k in range(100):
            new_rho, x, record = advance(cfg, rho, x, k)
            total_change = sum((new_rho[0, i].sum() - rho[0, i].sum()) * cfg.dx for i in range(3))
            inflow, outflow = record[7:]
            net = (inflow - outflow) * cfg.dt
            assert total_change == pytest.approx(net, abs=1e-12)
            rho = new_rho


GOLDEN = Path(__file__).parent / "golden" / "ctm_five_rules_M20.txt"
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def five_rule_cases(trio):
    """Every rule at M = 20, once with Neumann ends from uniform data and once
    from per-cell data under a constant demand, a constant and a sinusoid
    supply and an inflow mix unlike the initial one."""
    models = {
        "daganzo_fifo": daganzo_fifo((0.7, 0.3)),
        "lebacque": lebacque((0.7, 0.3)),
        "supply_proportional": supply_proportional(),
        "priority_based": priority_based((0.6, 0.4)),
        "partial_evacuation": partial_evacuation((0.3, 0.2), (0.55, 0.45)),
    }
    forced = BoundarySpec(
        upstream_demand=BoundaryCondition.constant(0.3),
        downstream_supplies=(
            BoundaryCondition.constant(0.25),
            BoundaryCondition.sinusoid(0.05, 0.03, 60.0),
        ),
    )
    for name, model in models.items():
        evacuation = name == "partial_evacuation"
        yield f"{name},neumann", diverge_config(
            trio, model, cells=20, initial_proportions=(0.3, 0.2) if evacuation else 0.7
        )
        yield f"{name},forced", diverge_config(
            trio,
            model,
            cells=20,
            initial_densities=(np.linspace(0.2, 1.4, 20), 0.3, np.linspace(0.6, 0.05, 20)),
            initial_proportions=(0.3, 0.2) if evacuation else 0.7,
            inflow_proportions=(0.25, 0.3) if evacuation else 0.6,
            boundaries=forced,
        )


class TestFiveRuleGolden:
    def test_final_fields_and_junction_fluxes_match_golden(self, trio):
        """Frozen final densities and proportions and every tenth step's
        junction fluxes of all five rules; reruns must reproduce them."""
        lines = []
        for case, cfg in five_rule_cases(trio):
            traj = run(cfg)
            j = traj.junction
            arrays = [(f"density{link}", traj.densities[-1, link]) for link in range(3)]
            arrays += [(f"proportion{c}", p) for c, p in enumerate(traj.proportions[-1])]
            arrays += [(name, getattr(j, name)[::10]) for name in ("q0", "q1", "q2")]
            for name, values in arrays:
                lines.append(f"{case},{name}," + " ".join("%.12g" % v for v in values) + "\n")
        text = "".join(lines)
        assert GOLDEN.exists(), f"missing golden file {GOLDEN}"
        assert GOLDEN.read_text(encoding="utf-8") == text


def recorded_kernels(monkeypatch):
    """The list into which every step kernel that run_batch builds from now
    on is appended, the first and each one laid out after members leave."""
    kernels = []

    class Recorded(ctm._Ensemble):
        def __init__(self, *args):
            super().__init__(*args)
            kernels.append(self)

    monkeypatch.setattr(ctm, "_Ensemble", Recorded)
    return kernels


def assert_same_trajectory(got, want):
    """Every recorded array and total of got equals want's bit for bit."""
    pairs = [
        (got.snapshot_steps, want.snapshot_steps),
        (got.densities, want.densities),
        (got.proportions, want.proportions),
    ]
    pairs += [(g, w) for g, w in zip(vars(got.junction).values(), vars(want.junction).values())]
    for g, w in pairs:
        assert (g.shape, g.dtype) == (w.shape, w.dtype)
        assert g.tobytes() == w.tobytes()
    for name in ("inflow_total", "outflow_total", "initial_vehicles", "final_vehicles"):
        assert getattr(got, name).hex() == getattr(want, name).hex(), name


class TestRunBatch:
    def test_five_rule_members_are_their_own_runs_bitwise(self, trio):
        # each case joins a batch of the cases with its boundaries and
        # commodity count, next to a variant with other initial data and
        # inflow mix, so the members differ in model, data and mix
        batches = {}
        for _, cfg in five_rule_cases(trio):
            evacuation = cfg.tracked_commodities == 2
            variant = replace(
                cfg,
                initial_densities=(0.6, np.linspace(1.3, 0.2, 20), np.linspace(0.05, 0.9, 20)),
                initial_proportions=(np.linspace(0.1, 0.4, 20), 0.35) if evacuation else np.linspace(0.9, 0.3, 20),
                inflow_proportions=(0.2, 0.3) if evacuation else 0.55,
            )
            batches.setdefault((cfg.boundaries, cfg.tracked_commodities), []).extend([cfg, variant])
        assert sorted(len(b) for b in batches.values()) == [2, 2, 8, 8]
        for members in batches.values():
            for got, cfg in zip(run_batch(members), members):
                assert got.config is cfg
                assert_same_trajectory(got, run(cfg))

    def test_converge_pair_is_its_two_runs_bitwise(self):
        # the converge config at M = 20, 40 and 80: Lebacque against Daganzo
        # under the sinusoid ramp supply, all six runs one batch, as
        # convergence_study batches them
        spec = build_spec(load_config(CONFIGS / "convergence.yaml"), ExperimentKind.CONVERGENCE)
        members = [cfg for pair in _convergence_pairs(spec.sim, (20, 40, 80)) for cfg in pair]
        assert [(cfg.cells_per_link, cfg.time_steps) for cfg in members[::2]] == [(20, 800), (40, 1600), (80, 3200)]
        for got, cfg in zip(run_batch(members), members, strict=True):
            assert_same_trajectory(got, run(cfg))

    def test_members_of_other_grids_and_horizons_are_their_own_runs_bitwise(self, trio, monkeypatch):
        # members that differ in cells_per_link, time_steps, horizon and
        # link_length, out of time_steps order, two of them on one (N, dt)
        # and two on one N with another dt; a sinusoid demand, two tracked
        # commodities and the ramp between the mainlines
        apart = (trio[0], trio[2], trio[0])
        wave = BoundarySpec(upstream_demand=BoundaryCondition.sinusoid(0.2, 0.15, 45.0))
        evacuation = partial_evacuation((0.3, 0.2), (0.55, 0.45))
        grids = [
            dict(cells=20, time_steps=800),
            dict(cells=12, time_steps=300, horizon=120.0),
            dict(cells=30, time_steps=500, link_length=6.0, horizon=90.0),
            dict(cells=8, time_steps=800, link_length=4.0, horizon=200.0),
            dict(cells=20, time_steps=800, inflow_proportions=(0.4, 0.1)),
        ]
        members = [
            diverge_config(
                apart, evacuation, boundaries=wave, initial_proportions=(np.linspace(0.1, 0.5, grid["cells"]), 0.25),
                initial_densities=(1.2, np.linspace(0.9, 0.1, grid["cells"]), 0.3),
                **{"inflow_proportions": (0.25, 0.3), **grid},
            )
            for grid in grids
        ]
        calls = []

        def counted(*args):
            calls.append(args[0])
            return junction_fluxes(*args)

        monkeypatch.setattr(ctm, "junction_fluxes", counted)
        trajectories = run_batch(members)
        assert len(calls) == sum(cfg.time_steps for cfg in members) == 3200
        monkeypatch.undo()
        for got, cfg in zip(trajectories, members, strict=True):
            assert got.config is cfg
            assert_same_trajectory(got, run(cfg))

    @pytest.mark.parametrize("flooded", [(0, 1), (0,)], ids=["both", "member-0"])
    def test_guard_names_the_lowest_input_member_of_members_of_other_grids(self, trio, monkeypatch, flooded):
        # the flooded members flood link 1 from step 5 on; member 0 has more
        # cells and steps, so it lies after member 1 on the kernel's axis,
        # and the guard must still name it, as the reference step does
        members = [
            diverge_config(trio, model, cells=cells)
            for model, cells in ((lebacque((0.7, 0.3)), 40), (daganzo_fifo((0.7, 0.3)), 20))
        ]
        assert ctm._Ensemble(members).order == [1, 0]
        models = [members[i].model for i in flooded]
        message = "in member 0 on link 1 at step 5$"
        with pytest.raises(NumericalStabilityError, match=message):
            reference_run(members, 6, flooding_junction(*models))
        monkeypatch.setattr(ctm, "junction_fluxes", flooding_junction(*models))
        with pytest.raises(NumericalStabilityError, match=message):
            run_batch(members)

    @pytest.mark.parametrize(
        "order, families",
        [((0, 1, 2), 1), ((0, 2, 1), 1), (None, 2)],
        ids=["adjacent", "apart", "triangular-greenshields"],
    )
    def test_links_of_one_flux_law_family_share_one_evaluation(self, trio, monkeypatch, order, families):
        # the del Castillo mainlines and ramp are one exponential family, so
        # they cost one flux-law call per step whatever the batch size or the
        # links' order, and no diagram evaluates its own flow in the loop;
        # only the junction rule runs per member, on each link's own diagram
        from divergeflow import FundamentalDiagram, fundamental_diagram

        diagrams = (
            tuple(trio[i] for i in order) if order
            else (triangular(1.0, 2.0), greenshields(1.0, 1.0), triangular(0.5, 1.0))
        )
        densities = (np.linspace(0.2, 1.9, 10), np.linspace(0.9, 0.1, 10), np.linspace(0.05, 0.6, 10))
        members = [
            diverge_config(diagrams, model, cells=10, time_steps=400, initial_densities=densities)
            for model in (lebacque((0.7, 0.3)), daganzo_fifo((0.6, 0.4)), priority_based((0.6, 0.4)))
        ]
        calls = {"law": 0, "flow": 0, "junction": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        laws = {law: counted("law", law) for law in set(fundamental_diagram._FLOW_LAWS.values())}
        for kind, law in list(fundamental_diagram._FLOW_LAWS.items()):
            monkeypatch.setitem(fundamental_diagram._FLOW_LAWS, kind, laws[law])
        monkeypatch.setattr(FundamentalDiagram, "_flow", counted("flow", FundamentalDiagram._flow))
        monkeypatch.setattr(ctm, "junction_fluxes", counted("junction", ctm.junction_fluxes))
        trajectories = run_batch(members)
        assert calls == {"law": families * 400, "flow": 0, "junction": 3 * 400}
        want = (diagrams[0].demand(1.9), diagrams[1].supply(0.9), diagrams[2].supply(0.05))
        for t in trajectories:
            j = t.junction
            assert (j.demand_upstream[0], j.supply_down1[0], j.supply_down2[0]) == want

    def test_guard_names_the_member_link_and_step(self, trio):
        ok = diverge_config(trio, lebacque((0.7, 0.3)), cells=20)
        bad = diverge_config(trio, daganzo_fifo((0.7, 0.3)), cells=20)
        # planted after construction, past the range check, as a runaway state
        state = bad.initial_state.copy()
        state[1] = trio[1].jam_density + 5e-9
        object.__setattr__(bad, "initial_state", state)
        with pytest.raises(NumericalStabilityError, match="in member 1 on link 1 at step 0"):
            run_batch([ok, bad])

    def test_guard_fires_on_a_state_updated_in_place_over_several_steps(self, trio, monkeypatch):
        # from step 5 on, member 1's junction sends link 1 far more than it
        # can hold; the guard must name the member, link and step after five
        # steps have each updated the kernel's one state in place
        members = [diverge_config(trio, model, cells=20) for model in (lebacque((0.7, 0.3)), daganzo_fifo((0.7, 0.3)))]
        calls = []

        def flooding(model, *args):
            q0, q1, q2 = junction_fluxes(model, *args)
            calls.append(model)
            if len(calls) > 2 * 5 and model is members[1].model:
                return q0, q1 + 10.0, q2
            return q0, q1, q2

        monkeypatch.setattr(ctm, "junction_fluxes", flooding)
        with pytest.raises(NumericalStabilityError, match="in member 1 on link 1 at step 5$"):
            run_batch(members)

    def test_reruns_in_one_process_are_bitwise_equal(self, trio):
        members = dict(digest_cases(trio))["mixed_batch"]
        for got, want in zip(run_batch(members), run_batch(members)):
            assert_same_trajectory(got, want)

    def test_snapshots_are_copies_of_the_state_not_kernel_buffers(self, trio, monkeypatch):
        kernels = []

        class Recorded(ctm._Ensemble):
            def __init__(self, configs):
                super().__init__(configs)
                kernels.append(self)

        monkeypatch.setattr(ctm, "_Ensemble", Recorded)
        cfg = diverge_config(trio, lebacque((0.7, 0.3)), cells=10, time_steps=40, horizon=36.0, snapshot_every=1)
        (traj,) = run_batch([cfg])
        (kernel,) = kernels
        for buffer in (kernel.rho, kernel.mix, kernel.mass):
            assert not np.shares_memory(traj.densities, buffer)
            assert not np.shares_memory(traj.proportions, buffer)
        # the state moves every step, so snapshots that shared a buffer
        # would repeat one state
        assert all(not np.array_equal(a, b) for a, b in zip(traj.densities, traj.densities[1:]))
        # the one member's cells lie between the two ghosts of each row
        np.testing.assert_array_equal(traj.densities[-1], kernel.rho[:, 1:-1])
        np.testing.assert_array_equal(traj.proportions[-1], kernel.mix[:, 1:-1])

    def test_a_member_that_has_taken_its_steps_leaves_the_kernel(self, trio, monkeypatch):
        # the short member comes first on the axis; once it has taken its 400
        # steps the long one moves to a kernel laid out on it alone, which
        # holds its ghost, its 10 cells and the trailing ghost, and takes 400
        # more; each member's snapshots and record rows are its run's alone
        short, long_ = (
            diverge_config(trio, lebacque((0.7, 0.3)), cells=10, time_steps=n, horizon=0.9 * n) for n in (400, 800)
        )
        kernels = recorded_kernels(monkeypatch)
        trajectories = run_batch([long_, short])
        monkeypatch.undo()
        assert [kernel.order for kernel in kernels] == [[1, 0], [0]]
        assert (kernels[1].rho.shape, kernels[1].mix.shape, kernels[1].spans) == ((3, 12), (1, 12), [(1, 11)])
        for got, cfg in zip(trajectories, (long_, short), strict=True):
            assert_same_trajectory(got, run(cfg))

    def test_guard_names_the_input_member_after_others_have_left(self, trio, monkeypatch):
        # the short member (input 0) takes its 40 steps and leaves; from step
        # 50 on the long one (input 1), by then the kernel's only member,
        # floods link 1, and the guard must name it by its input index
        short, long_ = (
            diverge_config(trio, model, cells=10, time_steps=n, horizon=0.9 * n)
            for model, n in ((daganzo_fifo((0.7, 0.3)), 40), (lebacque((0.7, 0.3)), 80))
        )
        message = "in member 1 on link 1 at step 50$"
        with pytest.raises(NumericalStabilityError, match=message):
            reference_run([short, long_], 80, flooding_junction(long_.model, start=2 * 40 + 10))
        kernels = recorded_kernels(monkeypatch)
        monkeypatch.setattr(ctm, "junction_fluxes", flooding_junction(long_.model, start=2 * 40 + 10))
        with pytest.raises(NumericalStabilityError, match=message):
            run_batch([short, long_])
        assert [kernel.order for kernel in kernels] == [[0, 1], [1]]

    def test_the_boundary_series_is_evaluated_once_per_batch(self, monkeypatch):
        # converge's six members take 1,600, 3,200 and 6,400 steps in pairs
        # on one dt/dx, so the ramp's sinusoid has one value per step of each
        # pair, however many kernels the batch is laid out on
        spec = build_spec(load_config(CONFIGS / "convergence.yaml"), ExperimentKind.CONVERGENCE)
        members = [cfg for pair in spec.convergence_pairs for cfg in pair]
        calls = []
        evaluate = ctm.BoundaryCondition.evaluate

        def counted(bc, time, capacity):
            calls.append(time)
            return evaluate(bc, time, capacity)

        kernels = recorded_kernels(monkeypatch)
        monkeypatch.setattr(ctm.BoundaryCondition, "evaluate", counted)
        run_batch(members)
        assert len(calls) == 1600 + 3200 + 6400
        assert [len(kernel.order) for kernel in kernels] == [6, 4, 2]

    def test_conservation_is_checked_per_member(self, trio, monkeypatch):
        members = [diverge_config(trio, model, cells=10) for model in (lebacque((0.7, 0.3)), daganzo_fifo((0.7, 0.3)))]
        assert all(t.conservation_drift() < 1e-8 for t in run_batch(members))
        drift = {id(members[0]): 1e-8, id(members[1]): 1.5e-8}
        monkeypatch.setattr(Trajectory, "conservation_drift", lambda self: drift[id(self.config)])
        with pytest.raises(NumericalStabilityError, match="member 1: vehicle count drifted 1.500e-08"):
            run_batch(members)

    @pytest.mark.parametrize(
        "field, change",
        [
            ("diagrams", dict(diagrams=(greenshields(1.0, 2.0),) * 3)),
            ("boundaries", dict(boundaries=BoundarySpec(upstream_demand=BoundaryCondition.constant(0.2)))),
            ("snapshot_every", dict(snapshot_every=40)),
            (
                "tracked_commodities",
                dict(model=partial_evacuation((0.3, 0.2), (0.55, 0.45)), initial_proportions=(0.3, 0.2)),
            ),
        ],
    )
    def test_members_that_differ_in_a_shared_field_are_rejected_before_a_step(self, trio, monkeypatch, field, change):
        base = diverge_config(trio, lebacque((0.7, 0.3)), cells=20)

        def forbidden(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(ctm, "junction_fluxes", forbidden)
        with pytest.raises(ValueError, match=f"must share {field}; member 1 differs"):
            run_batch([base, replace(base, **change)])

    def test_an_empty_batch_is_rejected(self):
        with pytest.raises(ValueError, match="at least one config"):
            run_batch([])


def digest_cases(trio):
    """(name, batch) pairs that reach every branch of the step: the five
    rule cases alone, a sinusoid upstream demand, triangular and
    Greenshields links, the ramp between the mainlines, cells that drain
    below EMPTY_CELL_TOL, two tracked commodities, and a batch of three
    kinds."""
    mainline, ramp = trio[0], trio[2]
    for name, cfg in five_rule_cases(trio):
        yield name, [cfg]
    wave = BoundarySpec(upstream_demand=BoundaryCondition.sinusoid(0.2, 0.15, 45.0))
    yield "sinusoid_demand", [diverge_config(trio, lebacque((0.7, 0.3)), cells=20, boundaries=wave)]
    mixed = (triangular(1.0, 2.0), greenshields(1.0, 1.0), triangular(0.5, 1.0))
    yield "triangular_greenshields", [
        diverge_config(
            mixed, supply_proportional(), cells=20,
            initial_densities=(np.linspace(0.1, 1.9, 20), 0.6, np.linspace(0.9, 0.05, 20)),
        )
    ]
    yield "apart", [
        diverge_config(
            (mainline, ramp, mainline), priority_based((0.6, 0.4)), cells=20,
            initial_densities=(1.2, np.linspace(0.9, 0.1, 20), 0.3), boundaries=wave,
        )
    ]
    # no inflow, so the upstream link drains cell by cell through 1e-12
    drained = triangular(1.0, 1.0)
    yield "emptying", [
        diverge_config(
            (drained,) * 3, lebacque((0.7, 0.3)), cells=10, time_steps=40, horizon=36.0, snapshot_every=1,
            initial_densities=(np.linspace(0.3, 0.05, 10), 0.0, 0.0),
            initial_proportions=np.linspace(0.2, 0.9, 10),
            boundaries=BoundarySpec(upstream_demand=BoundaryCondition.constant(0.0)),
        )
    ]
    evacuation = partial_evacuation((0.3, 0.2), (0.55, 0.45))
    yield "partial_evacuation_pair", [
        diverge_config(
            trio, evacuation, cells=20, boundaries=wave,
            initial_proportions=props, inflow_proportions=mix,
        )
        for props, mix in (((0.3, 0.2), (0.25, 0.3)), ((np.linspace(0.1, 0.5, 20), 0.25), (0.4, 0.1)))
    ]
    yield "mixed_batch", [
        diverge_config(trio, model, cells=20, boundaries=wave, initial_densities=densities, inflow_proportions=0.5)
        for model, densities in (
            (lebacque((0.7, 0.3)), (1.0, 1.0, 0.1)),
            (daganzo_fifo((0.6, 0.4)), (np.linspace(0.2, 1.8, 20), 0.4, 0.7)),
            (supply_proportional(), (0.5, np.linspace(1.5, 0.1, 20), 0.2)),
        )
    ]


def trajectory_digest(traj):
    """SHA-256 of a trajectory's snapshots, junction columns and totals."""
    h = hashlib.sha256()
    for arr in (traj.densities, traj.proportions, *vars(traj.junction).values()):
        h.update(repr((arr.shape, arr.dtype.str)).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    for name in ("inflow_total", "outflow_total", "initial_vehicles", "final_vehicles"):
        h.update(getattr(traj, name).hex().encode())
    return h.hexdigest()


# Recorded from the step as it stood before it was planned once per batch;
# any change to the arithmetic of a step changes them.
STEP_DIGESTS = {
    "daganzo_fifo,neumann": [
        "aebccecae17b58a84dedba20d2ccb23260a73dac4ea37c4adcf60476fb039ef0",
    ],
    "daganzo_fifo,forced": [
        "f35469a1627928e38d9fb65670a3708362ea289cc331ed68705faad67a51cc91",
    ],
    "lebacque,neumann": [
        "251f7d0ceed03de87a88a410529b543e9444abdb6854dcad5f8c30e31eb8ea4d",
    ],
    "lebacque,forced": [
        "67cc01a0422aa70adf8c675751dec2af71309d143fbf6aa19199b5386c39d56b",
    ],
    "supply_proportional,neumann": [
        "94087a2351ef07c274d1ce5515d4ef30515f669dca05276e3b5c850dc240567d",
    ],
    "supply_proportional,forced": [
        "44a153d73dba4d5e29dbfb2c8d0a51835411c77f9ca70998a2d730bc6d9da302",
    ],
    "priority_based,neumann": [
        "94087a2351ef07c274d1ce5515d4ef30515f669dca05276e3b5c850dc240567d",
    ],
    "priority_based,forced": [
        "21efda19ba47a37225b5e59d9b8be70022a3c5d1285ac5cb6dea66327e68c647",
    ],
    "partial_evacuation,neumann": [
        "b1fba3dd2f89d5e6b266c63e2c32b28a1c80c0349978fbe95561c238a08754b8",
    ],
    "partial_evacuation,forced": [
        "d4708f629d4b121a1a5bafd57dc3afd3196b8fd22c498614fede751fd5b6de9b",
    ],
    "sinusoid_demand": [
        "b3b8b512d6c5e79b931cb095a542666f33ef805344b8ee7b20d4d111c147ed65",
    ],
    "triangular_greenshields": [
        "68a59773b0c5496b03c0943715ba3c6ff0da4ea59b9a409420dd6b29ca1f11eb",
    ],
    "apart": [
        "16f26328cdf2824f5bfec98ea4df2d42dd74d9bb732a246f621f9e5a5327cf64",
    ],
    "emptying": [
        "883680fd84a900b0b4778ecf8ab8a9450e953035140cd7d0d3e310a6d24ec571",
    ],
    "partial_evacuation_pair": [
        "c00795c953556ed21c173d0e44163f70c916ad57cad727226e5fa170e1e63825",
        "efe68b903339c88888c8f82569241edc7d5a3e2b7f74b2ff8f48d151f4cc2a5f",
    ],
    "mixed_batch": [
        "ce3a6d951ce84bcb0b6f2333543e74f0a33668d58823fec9bfb3de559692ed4b",
        "4b09f0b08e886f65e3029c9f668d807c502dffa9439a7f17fcc48e5ee9cfc9cb",
        "bcf95a3657ebeee6c1ddad6d1b4ba0b61cb7af5480100d8e30d51d34001d0839",
    ],
}


class TestStepDigests:
    @pytest.mark.parametrize("case", list(STEP_DIGESTS))
    def test_trajectories_match_recorded_digests(self, trio, case):
        batch = dict(digest_cases(trio))[case]
        got = [trajectory_digest(t) for t in run_batch(batch)]
        assert got == STEP_DIGESTS[case]

    def test_cases_are_all_recorded(self, trio):
        assert [name for name, _ in digest_cases(trio)] == list(STEP_DIGESTS)

    def test_emptying_case_reaches_the_empty_cell_tolerance(self, trio):
        # the case must drive a cell into (0, EMPTY_CELL_TOL), where the
        # proportion update keeps the previous mix
        (traj,) = run_batch(dict(digest_cases(trio))["emptying"])
        upstream = traj.densities[:, 0]
        assert np.any((upstream > 0.0) & (upstream < ctm.EMPTY_CELL_TOL))


# The reference step: the CTM's equations cell by cell in Python floats, with
# nothing of the kernel's buffers, views or masks.  It calls only the
# diagrams' demand and supply, the boundaries' evaluate and the junction rule.
# The digest cases run 40 to 800 steps; the reference takes the first 40 of
# each, about 1 s for all 19 members.
REFERENCE_STEPS = 40


def reference_step(cfg, rho, x, inflow_mix, k, member, junction=junction_fluxes):
    """Step k of one member from rho (three lists of M densities) and x (C
    lists of M proportions), both replaced in place; returns its record row
    (q0, q1, q2, D0, S1, S2, x1, inflow, outflow).  A density that leaves
    [0, jam_density] by more than the guard raises, naming member, link and
    step."""
    m, dt = cfg.cells_per_link, cfg.dt
    ratio = dt / cfg.dx
    demand = [[fd.demand(r) for r in link] for fd, link in zip(cfg.diagrams, rho)]
    supply = [[fd.supply(r) for r in link] for fd, link in zip(cfg.diagrams, rho)]
    d0, s1, s2, x1 = demand[0][-1], supply[1][0], supply[2][0], x[0][-1]
    q0, q1, q2 = (float(q) for q in junction(cfg.model, d0, (s1, s2), (x1, 1.0 - x1)))

    # faces[i][j] lies between cells j - 1 and j of link i: min(D, S) inside,
    # a ghost demand or supply at the network's ends, the junction rule at it
    bcs = (cfg.boundaries.upstream_demand, *cfg.boundaries.downstream_supplies)
    ghost = [
        None if bc.kind is ctm.BoundaryKind.NEUMANN else bc.evaluate(k * dt, fd.capacity)
        for bc, fd in zip(bcs, cfg.diagrams)
    ]
    faces = [[None, *(min(demand[i][j - 1], supply[i][j]) for j in range(1, m)), None] for i in range(3)]
    faces[0][0] = min(demand[0][0] if ghost[0] is None else ghost[0], supply[0][0])
    for i in (1, 2):
        faces[i][m] = min(demand[i][-1], supply[i][-1] if ghost[i] is None else ghost[i])
    faces[0][m], faces[1][0], faces[2][0] = q0, q1, q2

    old = rho[0]
    for i, fd in enumerate(cfg.diagrams):
        new = [rho[i][j] + ratio * (faces[i][j] - faces[i][j + 1]) for j in range(m)]
        if not all(-ctm.DENSITY_GUARD <= r <= fd.jam_density + ctm.DENSITY_GUARD for r in new):
            raise NumericalStabilityError(
                f"density left [0, {fd.jam_density}] in member {member} on link {i} at step {k}"
            )
        rho[i] = [min(max(r, 0.0), fd.jam_density) for r in new]

    # the junction cell's commodity out-flux is the rule's own: routed
    # vehicles first, all of link 1's inflow under a FIFO rule, else the mix
    if len(x) == 2:
        junction_out = [min(x[n][-1] * d0, q) for n, q in enumerate((q1, q2))]
    elif cfg.model.kind in (DivergeModelKind.DAGANZO_FIFO, DivergeModelKind.LEBACQUE):
        junction_out = [q1]
    else:
        junction_out = [x[0][-1] * q0]
    for n, mix in enumerate(x):
        up = [inflow_mix[n], *mix[:-1]]
        new = []
        for j, own in enumerate(mix):
            q_in, q_out = faces[0][j], faces[0][j + 1]
            out = own * q_out if j < m - 1 else junction_out[n]
            # a cell keeps its mix when it is empty or nothing changes it
            if (up[j] != own or out != own * q_out) and rho[0][j] >= ctm.EMPTY_CELL_TOL:
                moved = (old[j] * own + ratio * (q_in * up[j] - out)) / max(rho[0][j], ctm.EMPTY_CELL_TOL)
                own = min(max(moved, 0.0), 1.0)
            new.append(own)
        x[n] = new
    return (q0, q1, q2, d0, s1, s2, x1, faces[0][0], faces[1][m] + faces[2][m])


def reference_run(configs, steps, junction=junction_fluxes):
    """The members' first steps, each member's at most its own time_steps,
    taken in turn at each step as the kernel takes them together: per
    member, the densities and proportions after each step from 0, the
    record rows, and the boundary totals."""
    runs = []
    for cfg in configs:
        rho, x = cfg.initial_state.tolist(), cfg.initial_mix[:, 1:].tolist()
        runs.append(dict(rho=rho, x=x, inflow_mix=cfg.initial_mix[:, 0].tolist(),
                         densities=[rho[:]], proportions=[x[:]], rows=[], inflow=0.0, outflow=0.0))
    for k in range(steps):
        for member, (cfg, run_) in enumerate(zip(configs, runs)):
            if k >= cfg.time_steps:
                continue
            row = reference_step(cfg, run_["rho"], run_["x"], run_["inflow_mix"], k, member, junction)
            run_["densities"].append(run_["rho"][:])
            run_["proportions"].append(run_["x"][:])
            run_["rows"].append(row[:7])
            run_["inflow"] += row[7] * cfg.dt
            run_["outflow"] += row[8] * cfg.dt
    return runs


def first_steps(configs, steps):
    """The configs cut to their first steps, each recorded, on the same dt."""
    cut = [replace(cfg, time_steps=steps, horizon=steps * cfg.dt, snapshot_every=1) for cfg in configs]
    assert [c.dt for c in cut] == [cfg.dt for cfg in configs]
    return cut


def assert_matches_reference(traj, ref):
    """A trajectory recorded at every step is the reference run bit for bit."""
    assert traj.densities.tobytes() == np.array(ref["densities"]).tobytes()
    assert traj.proportions.tobytes() == np.array(ref["proportions"]).tobytes()
    rows = np.column_stack([getattr(traj.junction, name) for name in (
        "q0", "q1", "q2", "demand_upstream", "supply_down1", "supply_down2", "proportion1"
    )])
    assert rows.tobytes() == np.array(ref["rows"]).tobytes()
    assert (traj.inflow_total, traj.outflow_total) == (ref["inflow"], ref["outflow"])


def flooding_junction(*flooded, start=2 * 5):
    """The junction rule, except that after its first start calls (from
    step 5 on in a batch of two, by default) the flooded models send link 1
    ten more than it can take."""
    calls = []

    def flooding(model, *args):
        q0, q1, q2 = junction_fluxes(model, *args)
        calls.append(model)
        if len(calls) > start and model in flooded:
            return q0, q1 + 10.0, q2
        return q0, q1, q2

    return flooding


# Diagrams the drawn batches mix: both flux-law families' exponential laws,
# two triangular laws and a parabola.
DRAWN_DIAGRAMS = (del_castillo_mainline(), del_castillo_ramp(), triangular(1.0, 2.0), triangular(0.5, 1.0),
                  greenshields(1.0, 1.0))


@st.composite
def drawn_models(draw, evacuating):
    """A model with C = 2 tracked commodities (partial evacuation), or with
    C = 1 of any of the other four rules."""
    if evacuating:
        x1 = draw(st.floats(0.0, 1.0))
        x2 = draw(st.floats(0.0, 1.0 - x1))
        a1 = draw(st.floats(x1, 1.0 - x2))
        return partial_evacuation((x1, x2), (a1, 1.0 - a1))
    x1 = draw(st.floats(0.05, 0.95))
    return draw(st.sampled_from((
        daganzo_fifo((x1, 1.0 - x1)), lebacque((x1, 1.0 - x1)), supply_proportional(), priority_based((x1, 1.0 - x1)),
    )))


@st.composite
def drawn_batches(draw):
    """Small batches that share diagrams and boundaries of every kind, and
    whose members differ in cell count and step count, in rule, in scalar or
    per-cell initial data and in inflow mix."""
    diagrams = tuple(draw(st.sampled_from(DRAWN_DIAGRAMS)) for _ in range(3))
    cfl = draw(st.floats(0.2, 1.0))
    ends = [
        draw(st.one_of(
            st.just(BoundaryCondition.neumann()),
            st.floats(0.0, fd.capacity).map(BoundaryCondition.constant),
            st.tuples(st.floats(-0.2, 0.4), st.floats(0.0, 0.3), st.floats(5.0, 90.0)).map(
                lambda p: BoundaryCondition.sinusoid(*p)
            ),
        ))
        for fd in diagrams
    ]
    evacuating = draw(st.booleans())
    commodities = 2 if evacuating else 1

    def mix(per_cell, cells):
        # C proportions summing to at most 1, as scalars or one per cell
        first = draw(st.floats(0.0, 1.0))
        pair = (first, draw(st.floats(0.0, 1.0 - first)))
        if per_cell:
            pair = (np.full(cells, pair[0]), np.linspace(0.0, pair[1], cells))
        return pair if commodities == 2 else pair[0]

    members = []
    for _ in range(draw(st.integers(1, 3))):
        cells, steps = draw(st.integers(3, 8)), draw(st.integers(1, 60))
        horizon = steps * cfl * (10.0 / cells) / max(fd.free_flow_speed for fd in diagrams)
        densities = tuple(
            draw(st.one_of(st.floats(0.0, fd.jam_density), st.lists(st.floats(0.0, fd.jam_density),
                                                                     min_size=cells, max_size=cells)))
            for fd in diagrams
        )
        members.append(SimConfig(
            model=draw(drawn_models(evacuating)), diagrams=diagrams, cells_per_link=cells, time_steps=steps,
            horizon=horizon, initial_densities=densities, initial_proportions=mix(draw(st.booleans()), cells),
            inflow_proportions=mix(False, cells) if draw(st.booleans()) else None,
            boundaries=BoundarySpec(ends[0], ends[1:]), snapshot_every=1,
        ))
    return members


class TestReferenceStep:
    @pytest.mark.parametrize("case", list(STEP_DIGESTS))
    def test_kernel_matches_the_reference_step_bitwise(self, trio, case):
        batch = first_steps(dict(digest_cases(trio))[case], REFERENCE_STEPS)
        for traj, ref in zip(run_batch(batch), reference_run(batch, REFERENCE_STEPS), strict=True):
            assert_matches_reference(traj, ref)

    @settings(max_examples=40)
    @given(batch=drawn_batches())
    def test_kernel_matches_the_reference_step_on_drawn_batches(self, batch):
        steps = max(cfg.time_steps for cfg in batch)
        try:
            reference = reference_run(batch, steps)
        except NumericalStabilityError as error:
            with pytest.raises(NumericalStabilityError, match=f"{re.escape(str(error))}$"):
                run_batch(batch)
            return
        for traj, ref in zip(run_batch(batch), reference, strict=True):
            assert_matches_reference(traj, ref)

    def test_guard_fires_at_the_same_member_link_and_step(self, trio, monkeypatch):
        members = first_steps([
            diverge_config(trio, model, cells=20) for model in (lebacque((0.7, 0.3)), daganzo_fifo((0.7, 0.3)))
        ], REFERENCE_STEPS)
        message = "in member 1 on link 1 at step 5$"
        with pytest.raises(NumericalStabilityError, match=message):
            reference_run(members, REFERENCE_STEPS, flooding_junction(members[1].model))
        monkeypatch.setattr(ctm, "junction_fluxes", flooding_junction(members[1].model))
        with pytest.raises(NumericalStabilityError, match=message):
            run_batch(members)


class TestSolutionDifference:
    def test_identical_runs_have_zero_difference(self, trio):
        cfg = diverge_config(trio, lebacque((0.7, 0.3)), cells=20, time_steps=800)
        ta, tb = run(cfg), run(cfg)
        eps = solution_difference(ta, tb)
        assert np.all(eps == 0.0)

    def test_single_cell_perturbation(self, trio):
        cfg = diverge_config(trio, lebacque((0.7, 0.3)), cells=20, time_steps=800)
        ta = run(cfg)
        tb = run(cfg)
        delta = 3e-3
        tb.densities[-1][1][4] += delta
        eps = solution_difference(ta, tb)
        assert eps[-1] == pytest.approx(delta * cfg.dx, abs=1e-15)

    def test_grid_mismatch_rejected(self, trio):
        ta = run(diverge_config(trio, lebacque((0.7, 0.3)), cells=20, time_steps=800))
        tb = run(diverge_config(trio, lebacque((0.7, 0.3)), cells=10, time_steps=400))
        with pytest.raises(ValueError):
            solution_difference(ta, tb)

    def test_cell_size_mismatch_rejected(self, trio):
        # the same cell count on links of another length: the shapes agree
        ta = run(diverge_config(trio, lebacque((0.7, 0.3)), cells=20, time_steps=800))
        tb = run(diverge_config(trio, lebacque((0.7, 0.3)), cells=20, time_steps=800, link_length=20.0))
        with pytest.raises(ValueError, match="different grids"):
            solution_difference(ta, tb)
