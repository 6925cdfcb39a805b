from pathlib import Path

import numpy as np
import pytest

import divergeflow.harness as harness
from divergeflow import (
    BoundaryCondition,
    BoundarySpec,
    RiemannInput,
    SimConfig,
    TrafficState,
    daganzo_fifo,
    lebacque,
    partial_evacuation,
    priority_based,
    solve_fluxes,
    supply_proportional,
)
from divergeflow.harness import (
    ExperimentKind,
    ExperimentSpec,
    SweepSpec,
    convergence_study,
    flux_map,
    property_suite,
    riemann_verify,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def sim_61(trio, cells, model=None, boundaries=None):
    return SimConfig(
        model=model or lebacque((0.7, 0.3)),
        diagrams=trio,
        cells_per_link=cells,
        time_steps=40 * cells,
        link_length=10.0,
        horizon=360.0,
        initial_densities=(1.0, 1.0, 0.1),
        initial_proportions=0.7,
        boundaries=boundaries or BoundarySpec(),
    )


def periodic_boundaries():
    return BoundarySpec(
        downstream_supplies=(
            BoundaryCondition.neumann(),
            BoundaryCondition.sinusoid(0.05, 0.03, 60.0),
        )
    )


class TestRiemannVerify:
    def test_congested_diverge_passes(self, trio):
        spec = ExperimentSpec(
            kind=ExperimentKind.RIEMANN_VERIFY, sim=sim_61(trio, 40), tolerance=5e-3
        )
        report, artifacts = riemann_verify(spec)
        assert report.passed, report.render()
        assert artifacts["trajectory"].config.cells_per_link == 40

    def test_zero_demand_passes_trivially(self, trio):
        sim = SimConfig(
            model=lebacque((0.7, 0.3)),
            diagrams=trio,
            cells_per_link=20,
            time_steps=800,
            initial_densities=(0.0, 0.0, 0.0),
            boundaries=BoundarySpec(upstream_demand=BoundaryCondition.constant(0.0)),
        )
        spec = ExperimentSpec(kind=ExperimentKind.RIEMANN_VERIFY, sim=sim, tolerance=5e-3)
        report, _ = riemann_verify(spec)
        assert report.passed, report.render()

    def test_refinement_reduces_state_error(self, trio):
        def total_error(cells):
            spec = ExperimentSpec(
                kind=ExperimentKind.RIEMANN_VERIFY, sim=sim_61(trio, cells), tolerance=5e-3
            )
            _, artifacts = riemann_verify(spec)
            traj = artifacts["trajectory"]
            sol = artifacts["solution"]
            final = traj.final_state
            fd_list = traj.config.diagrams
            errs = []
            for link, stationary in (
                (0, sol.stationary_upstream),
                (1, sol.stationary_downstream[0]),
                (2, sol.stationary_downstream[1]),
            ):
                rho = float(
                    final.densities[link][-1] if link == 0 else final.densities[link][0]
                )
                want = fd_list[link].density_from_state(stationary)
                errs.append(abs(rho - want))
            return sum(errs)

        assert total_error(160) < total_error(40)


class TestConvergenceStudy:
    def test_difference_shrinks_with_cells(self, trio):
        spec = ExperimentSpec(
            kind=ExperimentKind.CONVERGENCE,
            sim=sim_61(trio, 40, boundaries=periodic_boundaries()),
            resolutions=(20, 40),
        )
        report, artifacts = convergence_study(spec)
        assert report.passed, report.render()
        assert set(artifacts["series"]) == {20, 40}

    def test_identical_models_yield_zero_difference(self, trio):
        # degenerate pairing: comparing a model against itself through the
        # machinery still must give epsilon identically zero
        from divergeflow import ctm

        sim = sim_61(trio, 20, boundaries=periodic_boundaries())
        ta = ctm.run(sim)
        tb = ctm.run(sim)
        eps = ctm.solution_difference(ta, tb, sim.dx)
        assert np.all(eps == 0.0)

    def test_resolved_epsilon_series_matches_golden(self, trio):
        """Frozen epsilon series of the periodically forced comparison at the
        finest grid; reruns must reproduce it bit for bit."""
        spec = ExperimentSpec(
            kind=ExperimentKind.CONVERGENCE,
            sim=sim_61(trio, 160, boundaries=periodic_boundaries()),
            resolutions=(160,),
        )
        _, artifacts = convergence_study(spec)
        steps, eps = artifacts["series"][160]
        text = "".join(
            "%d,%.17g\n" % (int(s), float(e)) for s, e in zip(steps, eps)
        )
        golden = GOLDEN_DIR / "epsilon_M160.csv"
        if not golden.exists():
            GOLDEN_DIR.mkdir(exist_ok=True)
            golden.write_text(text, encoding="utf-8")
            pytest.skip("golden file created; rerun to verify")
        assert golden.read_text(encoding="utf-8") == text


class TestFluxMap:
    def test_routed_regions(self, trio):
        sweep = SweepSpec(
            demand_upstream=(0.2, 0.2, 1),
            supply_1=(0.0, trio[1].capacity, 9),
            supply_2=(0.0, trio[2].capacity, 9),
        )
        sim = SimConfig(
            model=daganzo_fifo((0.7, 0.3)), diagrams=trio, cells_per_link=1,
            time_steps=1, link_length=1.0, horizon=0.5,
        )
        spec = ExperimentSpec(kind=ExperimentKind.FLUX_MAP, sim=sim, sweep=sweep)
        report, artifacts = flux_map(spec)
        assert report.passed, report.render()
        for d0, s1, s2, q0, q1, q2, region in artifacts["rows"]:
            if region == "I":  # demand-limited: split of the full demand
                assert q1 == pytest.approx(0.7 * d0, abs=1e-12)
                assert q2 == pytest.approx(0.3 * d0, abs=1e-12)
            elif region == "II":
                assert q1 == pytest.approx(s1, abs=1e-12)
            elif region == "III":
                assert q2 == pytest.approx(s2, abs=1e-12)

    def test_fair_share_region(self, trio):
        c1, c2 = trio[1].capacity, trio[2].capacity
        d0 = 0.2
        sweep = SweepSpec(
            demand_upstream=(d0, d0, 1),
            supply_1=(0.9 * c1, 0.9 * c1, 1),  # above the fair share
            supply_2=(0.9 * c2, 0.9 * c2, 1),
        )
        sim = SimConfig(
            model=supply_proportional(), diagrams=trio, cells_per_link=1,
            time_steps=1, link_length=1.0, horizon=0.5,
        )
        spec = ExperimentSpec(kind=ExperimentKind.FLUX_MAP, sim=sim, sweep=sweep)
        _, artifacts = flux_map(spec)
        (row,) = artifacts["rows"]
        assert row[4] == pytest.approx(d0 * c1 / (c1 + c2), abs=1e-12)
        assert row[5] == pytest.approx(d0 * c2 / (c1 + c2), abs=1e-12)

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
    def test_rows_equal_solve_fluxes(self, trio, model):
        caps = tuple(fd.capacity for fd in trio)
        sweep = SweepSpec(
            demand_upstream=(0.0, 1.1 * caps[0], 6),  # the top end is clipped to C0
            supply_1=(0.0, caps[1], 7),
            supply_2=(0.0, caps[2], 5),
        )
        sim = SimConfig(
            model=model, diagrams=trio, cells_per_link=1,
            time_steps=1, link_length=1.0, horizon=0.5,
        )
        spec = ExperimentSpec(kind=ExperimentKind.FLUX_MAP, sim=sim, sweep=sweep)
        _, artifacts = flux_map(spec)
        rows = artifacts["rows"]
        assert len(rows) == 6 * 7 * 5
        for d0, s1, s2, q0, q1, q2, _ in rows:
            inp = RiemannInput(
                trio[0], TrafficState(d0, caps[0]),
                (trio[1], trio[2]), (TrafficState(caps[1], s1), TrafficState(caps[2], s2)),
            )
            assert (q0, q1, q2) == solve_fluxes(model, inp)

    def test_negative_sweep_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(demand_upstream=(-0.1, 0.2, 3), supply_1=(0.0, 0.1, 2), supply_2=(0.0, 0.1, 2))
        with pytest.raises(ValueError):
            SweepSpec(demand_upstream=(0.2, 0.2, 1), supply_1=(0.0, float("nan"), 2), supply_2=(0.0, 0.1, 2))

    def test_empty_corner(self, trio):
        sweep = SweepSpec(
            demand_upstream=(0.0, 0.0, 1), supply_1=(0.0, 0.0, 1), supply_2=(0.0, 0.0, 1)
        )
        sim = SimConfig(
            model=daganzo_fifo((0.7, 0.3)), diagrams=trio, cells_per_link=1,
            time_steps=1, link_length=1.0, horizon=0.5,
        )
        spec = ExperimentSpec(kind=ExperimentKind.FLUX_MAP, sim=sim, sweep=sweep)
        _, artifacts = flux_map(spec)
        (row,) = artifacts["rows"]
        assert row[3] == row[4] == row[5] == 0.0


class TestPropertySuite:
    def small_spec(self, seed=0):
        return ExperimentSpec(
            kind=ExperimentKind.PROPERTY_SUITE,
            samples=150,
            wave_samples=40,
            oracle_grid=3,
            seed=seed,
        )

    def test_small_battery_passes(self):
        report, _ = property_suite(self.small_spec())
        assert report.passed, report.render()

    def test_reports_are_deterministic(self):
        a, _ = property_suite(self.small_spec(seed=5))
        b, _ = property_suite(self.small_spec(seed=5))
        assert a.render() == b.render()

    def test_injected_defect_is_caught(self, monkeypatch):
        """Sanity: corrupting the closed-form solver must trip the oracle
        comparison with a counterexample."""
        from divergeflow.riemann import DivergeModelKind
        import divergeflow.riemann as riemann

        true_solver = riemann.solve_fluxes

        def broken(model, inp):
            if model.kind is DivergeModelKind.DAGANZO_FIFO:
                x1, x2 = model.xi
                d0 = inp.demand_upstream
                s1, s2 = inp.supplies
                q = max(d0, s1 / x1, s2 / x2)  # min corrupted into max
                q = min(q, inp.capacities[0])
                return (x1 * q + x2 * q, x1 * q, x2 * q)
            return true_solver(model, inp)

        monkeypatch.setattr(harness, "solve_fluxes", broken)
        report, _ = property_suite(self.small_spec())
        failed = {c.name for c in report.checks if not c.passed}
        assert "oracle-agreement" in failed
        detail = next(c.detail for c in report.checks if c.name == "oracle-agreement")
        assert "counterexample" in detail
