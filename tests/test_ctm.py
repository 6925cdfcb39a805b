from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from divergeflow import ctm
from divergeflow.config import build_spec, load_config
from divergeflow.harness import ExperimentKind

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
    run,
    run_batch,
    solution_difference,
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


def initial_arrays(cfg):
    """The (1, 3, M) densities and (1, C, M) proportions of cfg as a batch
    of one."""
    rho, x = cfg._initial_arrays()
    return rho[None], x[None]


def advance(cfg, rho, x, k=0):
    """Step k of the kernel on a batch of one: the new (rho, x) and the
    member's record row (q0, q1, q2, D0, S1, S2, x1, inflow, outflow)."""
    record = np.empty((1, 9))
    rho, x = ctm._Ensemble([cfg]).advance(rho, x, k, record)
    return rho, x, record[0]


def update_cells(rho_old, rho_new, xi_old, xi_up, q_in, q_out, ratio):
    """The proportion update of cells given as floats or lists, the
    commodity advecting with the total flow."""
    rho_old, rho_new, xi_old, xi_up, q_in, q_out = (
        np.array(v, dtype=float, ndmin=1) for v in (rho_old, rho_new, xi_old, xi_up, q_in, q_out)
    )
    return ctm._proportion_update(rho_old, rho_new, xi_old, xi_up, q_in, q_out, ratio, xi_old * q_out)


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
        assert cfg.inflow_mix.tolist() == [0.1, 0.2]
        cfg = diverge_config(trio, lebacque((0.7, 0.3)), cells=20, initial_proportions=per_cell[0])
        assert cfg.inflow_mix.tolist() == [0.1]

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
        monkeypatch.setattr(SimConfig, "_inflow_mix", forbidden)
        got = run(cfg)
        np.testing.assert_array_equal(got.densities, want.densities)
        np.testing.assert_array_equal(got.proportions, want.proportions)

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
        if not GOLDEN.exists():
            GOLDEN.write_text(text, encoding="utf-8")
            pytest.skip("golden file created; rerun to verify")
        assert GOLDEN.read_text(encoding="utf-8") == text


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
        # the converge config at M = 20: Lebacque against Daganzo under the
        # sinusoid ramp supply, as convergence_study batches them
        spec = build_spec(load_config(CONFIGS / "convergence.yaml"), ExperimentKind.CONVERGENCE)
        pair = [
            replace(spec.sim, model=model, cells_per_link=20, time_steps=800)
            for model in (lebacque((0.7, 0.3)), daganzo_fifo((0.7, 0.3)))
        ]
        for got, cfg in zip(run_batch(pair), pair):
            assert_same_trajectory(got, run(cfg))

    @pytest.mark.parametrize("order", [(0, 1, 2), (0, 2, 1)], ids=["adjacent", "apart"])
    def test_links_sharing_a_diagram_share_one_flux_evaluation(self, trio, monkeypatch, order):
        # two mainlines and a ramp cost two flux-law calls per step whatever
        # the batch size or the links' order; only the junction rule runs
        # per member, on each link's own diagram
        from divergeflow import FundamentalDiagram

        diagrams = tuple(trio[i] for i in order)
        densities = (np.linspace(0.2, 1.9, 10), np.linspace(0.9, 0.1, 10), np.linspace(0.05, 0.6, 10))
        members = [
            diverge_config(diagrams, model, cells=10, time_steps=400, initial_densities=densities)
            for model in (lebacque((0.7, 0.3)), daganzo_fifo((0.6, 0.4)), priority_based((0.6, 0.4)))
        ]
        calls = {"flow": 0, "junction": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(FundamentalDiagram, "_flow", counted("flow", FundamentalDiagram._flow))
        monkeypatch.setattr(ctm, "junction_fluxes", counted("junction", ctm.junction_fluxes))
        trajectories = run_batch(members)
        assert calls == {"flow": 2 * 400, "junction": 3 * 400}
        want = (diagrams[0].demand(1.9), diagrams[1].supply(0.9), diagrams[2].supply(0.05))
        for t in trajectories:
            j = t.junction
            assert (j.demand_upstream[0], j.supply_down1[0], j.supply_down2[0]) == want

    def test_guard_names_the_member_link_and_step(self, trio):
        ok = diverge_config(trio, lebacque((0.7, 0.3)), cells=20)
        bad = diverge_config(trio, daganzo_fifo((0.7, 0.3)), cells=20)
        # set after construction, past the range check, as a runaway state
        bad.initial_densities = (1.0, trio[1].jam_density + 5e-9, 0.1)
        with pytest.raises(NumericalStabilityError, match="in member 1 on link 1 at step 0"):
            run_batch([ok, bad])

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
            ("cells_per_link", dict(cells_per_link=10, time_steps=400)),
            ("time_steps", dict(time_steps=1000)),
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
