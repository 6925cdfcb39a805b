from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import divergeflow.harness as harness
from divergeflow import ctm, waves
from divergeflow.oracle import OracleResult
from divergeflow import (
    BoundaryCondition,
    BoundarySpec,
    DivergeModelKind,
    RiemannInput,
    SimConfig,
    TrafficState,
    daganzo_fifo,
    lebacque,
    partial_evacuation,
    priority_based,
    riemann_rule,
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
            final = traj.densities[-1]
            fd_list = traj.config.diagrams
            errs = []
            for link, stationary in (
                (0, sol.stationary_upstream),
                (1, sol.stationary_downstream[0]),
                (2, sol.stationary_downstream[1]),
            ):
                rho = float(final[link][-1] if link == 0 else final[link][0])
                want = fd_list[link].density_from_state(stationary)
                errs.append(abs(rho - want))
            return sum(errs)

        assert total_error(160) < total_error(40)


def fan_trajectory(trio, final_link2):
    """A hand-built two-snapshot trajectory on sim_61's 20-cell grid (dx =
    0.5, dt = 0.45) whose final snapshot, at step 40 (t = 18), holds
    final_link2 on link 2."""
    densities = np.zeros((2, 3, 20))
    densities[-1, 2] = final_link2
    return ctm.Trajectory(
        config=sim_61(trio, 20), snapshot_steps=np.array([0, 40]), densities=densities,
        proportions=np.full((2, 1, 20), 0.7), junction=None,
        inflow_total=0.0, outflow_total=0.0, initial_vehicles=0.0, final_vehicles=0.0,
    )


class TestWaveChecks:
    # a fan on downstream link 2 with edge speeds 0.1 and 0.3: at t = 18 it
    # spans [1.8, 5.4], inside the link
    FAN = waves.WaveDescription(waves.WaveKind.RAREFACTION, (0.1, 0.3), 0.6, 0.1)
    CENTRES = (np.arange(20) + 0.5) * 0.5

    def checks(self, trio, final_link2, check, link, wave):
        report = harness.Report("waves", "unhashed", 0)
        check(report, fan_trajectory(trio, final_link2), link, wave)
        return [(c.name, c.passed, c.detail) for c in report.checks]

    def test_fan_zone_inside_the_predicted_extent_passes(self, trio):
        rho = np.interp(self.CENTRES, [1.8, 5.4], [0.6, 0.1])
        assert self.checks(trio, rho, harness._rarefaction_check, 2, self.FAN) == [
            ("link2-rarefaction-extent", True, "zone [2, 5] vs fan [1.8, 5.4] +/- 2 cells"),
        ]

    def test_flat_profile_has_no_transition_zone(self, trio):
        assert self.checks(trio, np.full(20, 0.6), harness._rarefaction_check, 2, self.FAN) == [
            ("link2-rarefaction-extent", False, "no transition zone found"),
        ]

    def test_zone_wider_than_two_cells_beyond_the_fan_fails(self, trio):
        rho = np.interp(self.CENTRES, [0.0, 9.0], [0.6, 0.1])
        assert self.checks(trio, rho, harness._rarefaction_check, 2, self.FAN) == [
            ("link2-rarefaction-extent", False, "zone [0.5, 8.5] vs fan [1.8, 5.4] +/- 2 cells"),
        ]

    def test_shock_that_never_enters_the_link_is_skipped(self, trio):
        # a shock leaving link 1 backwards through the junction
        shock = waves.WaveDescription(waves.WaveKind.SHOCK, (-0.2, -0.2), 0.1, 0.6)
        assert self.checks(trio, np.zeros(20), harness._front_check, 1, shock) == [
            ("link1-shock-position", True, "front not inside the link at any recorded snapshot; skipped"),
        ]


class TestConvergenceStudy:
    def test_difference_shrinks_with_cells(self, trio):
        spec = ExperimentSpec(
            kind=ExperimentKind.CONVERGENCE,
            sim=sim_61(trio, 40, boundaries=periodic_boundaries()),
            resolutions=(20, 40),
        )
        report, artifacts = convergence_study(spec)
        assert report.passed, report.render()
        assert set(artifacts["tables"]) == {"epsilon_M20.csv", "epsilon_M40.csv"}

    def test_identical_models_yield_zero_difference(self, trio):
        # degenerate pairing: comparing a model against itself through the
        # machinery still must give epsilon identically zero
        from divergeflow import ctm

        sim = sim_61(trio, 20, boundaries=periodic_boundaries())
        ta = ctm.run(sim)
        tb = ctm.run(sim)
        eps = ctm.solution_difference(ta, tb)
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
        steps, eps = artifacts["tables"]["epsilon_M160.csv"].values()
        text = "".join(
            "%d,%.17g\n" % (int(s), float(e)) for s, e in zip(steps, eps)
        )
        golden = GOLDEN_DIR / "epsilon_M160.csv"
        assert golden.exists(), f"missing golden file {golden}"
        assert golden.read_text(encoding="utf-8") == text


def table_rows(artifacts):
    """The rows of a flux map's column table, as tuples of Python values."""
    return list(zip(*(column.tolist() for column in artifacts["tables"]["flux_map.csv"].values())))


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
        for d0, s1, s2, q0, q1, q2, region in table_rows(artifacts):
            if region == "I":  # demand-limited: split of the full demand
                assert q1 == pytest.approx(0.7 * d0, abs=1e-12)
                assert q2 == pytest.approx(0.3 * d0, abs=1e-12)
            elif region == "II":
                assert q1 == pytest.approx(s1, abs=1e-12)
            elif region == "III":
                assert q2 == pytest.approx(s2, abs=1e-12)

    def test_region_check_compares_the_kernel_q0_with_the_minimum_term(self, trio, monkeypatch):
        sweep = SweepSpec(
            demand_upstream=(0.0, trio[0].capacity, 5),
            supply_1=(0.0, trio[1].capacity, 5),
            supply_2=(0.0, trio[2].capacity, 5),
        )
        sim = SimConfig(
            model=lebacque((0.7, 0.3)), diagrams=trio, cells_per_link=1,
            time_steps=1, link_length=1.0, horizon=0.5,
        )
        spec = ExperimentSpec(kind=ExperimentKind.FLUX_MAP, sim=sim, sweep=sweep)
        check = "check region-labels-consistent: {} (q0 is off min(D0, S1/x1, S2/x2) by more than 1e-12 at {} of 125 points)"
        assert check.format("pass", 0) in flux_map(spec)[0].render().splitlines()
        true_fluxes = harness.solve_fluxes_batch

        def raised(*args):
            q0, q1, q2 = true_fluxes(*args)
            q0 = q0.copy()
            q0[62] += 1e-9
            return q0, q1, q2

        monkeypatch.setattr(harness, "solve_fluxes_batch", raised)
        report, _ = flux_map(spec)
        assert check.format("FAIL", 1) in report.render().splitlines()
        assert not report.passed

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
        (row,) = table_rows(artifacts)
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
        rows = table_rows(artifacts)
        assert len(rows) == 6 * 7 * 5
        for d0, s1, s2, q0, q1, q2, _ in rows:
            inp = RiemannInput(
                trio[0], TrafficState(d0, caps[0]),
                (trio[1], trio[2]), (TrafficState(caps[1], s1), TrafficState(caps[2], s2)),
            )
            assert (q0, q1, q2) == solve_fluxes(model, inp)

    @pytest.mark.parametrize(
        "model",
        [
            supply_proportional(),
            priority_based((0.6, 0.4)),
            priority_based((1.0, 0.0)),
            partial_evacuation((0.3, 0.2), (0.55, 0.45)),
            partial_evacuation((0.4, 0.0), (0.5, 0.5)),
        ],
        ids=["supply_proportional", "priority_based", "absolute_priority", "partial_evacuation", "one_route"],
    )
    def test_evacuation_regions_name_the_terms_at_the_flux(self, trio, model):
        # qi = min(Si, Fi, max(Ri, Pi)) for the riemann_rule counterpart:
        # each flagged term sits at the flux (R and P through the composite
        # max(R, P), which they must attain), each unflagged min-term above it
        caps = tuple(fd.capacity for fd in trio)
        sweep = SweepSpec(*((0.0, c, 9) for c in caps))
        sim = SimConfig(model=model, diagrams=trio, cells_per_link=1, time_steps=1, link_length=1.0, horizon=0.5)
        _, artifacts = flux_map(ExperimentSpec(kind=ExperimentKind.FLUX_MAP, sim=sim, sweep=sweep))
        table = artifacts["tables"]["flux_map.csv"]
        d0, s1, s2 = (table[name] for name in ("demand_upstream", "supply_1", "supply_2"))
        rule = riemann_rule(model, caps)
        xi = rule.xi if rule.kind is DivergeModelKind.PARTIAL_EVACUATION else (0.0, 0.0)
        labels = [region.split("|") for region in table["region"].tolist()]
        for i, (si, sj, q) in enumerate(((s1, s2, table["q1"]), (s2, s1, table["q2"]))):
            xj = xi[1 - i]
            terms = {
                "S": si,
                "F": sj * (1.0 - xj) / xj if xj > 0.0 else np.full(q.shape, np.inf),
                "R": d0 - sj,
                "P": d0 * rule.alpha[i],
            }
            composite = np.maximum(terms["R"], terms["P"])
            flags = {letter: np.array([letter in label[i] for label in labels]) for letter in "FPRS"}
            assert (flags["F"] | flags["P"] | flags["R"] | flags["S"]).all()
            for letter in "SF":
                assert (abs(terms[letter] - q) <= 1e-12)[flags[letter]].all(), letter
                assert (terms[letter] > q)[~flags[letter]].all(), letter
            for letter in "RP":
                attained = (abs(composite - q) <= 1e-12) & (terms[letter] >= composite - 1e-12)
                assert attained[flags[letter]].all(), letter
            assert (composite > q)[~(flags["R"] | flags["P"])].all()

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
        (row,) = table_rows(artifacts)
        assert row[3] == row[4] == row[5] == 0.0


def props_spec(diagrams, **kwargs):
    """A property-battery spec whose never-stepped SimConfig names the
    diagrams."""
    sim = SimConfig(
        model=lebacque((0.7, 0.3)), diagrams=diagrams, cells_per_link=1,
        time_steps=1, link_length=1.0, horizon=1e-9,
    )
    return ExperimentSpec(kind=ExperimentKind.PROPERTY_SUITE, sim=sim, **kwargs)


class TestPropertySuite:
    def small_spec(self, trio, seed=0):
        return props_spec(trio, samples=150, wave_samples=40, oracle_grid=3, seed=seed)

    def test_small_battery_passes(self, trio):
        report, _ = property_suite(self.small_spec(trio))
        assert report.passed, report.render()

    def test_reports_are_deterministic(self, trio):
        a, _ = property_suite(self.small_spec(trio, seed=5))
        b, _ = property_suite(self.small_spec(trio, seed=5))
        assert a.render() == b.render()

    def test_labels_count_the_samples_each_battery_draws(self, trio):
        spec = props_spec(trio, samples=10, wave_samples=2, oracle_grid=2)
        report, _ = property_suite(spec)
        details = {c.name: c.detail for c in report.checks}
        assert details["wave-speed-signs"] == "2 samples"
        assert details["conservation-exact"] == "10 samples"
        assert details["oracle-agreement"] == "2^3 grid"

    def test_a_check_recorded_under_a_new_name_is_reported(self, trio, monkeypatch):
        # the report lists every check the batteries record, in the order
        # they first record it, so a new or misspelt name cannot drop out
        wave_battery = harness._wave_battery

        def with_extra_checks(counterexamples, rng, n, diagrams):
            wave_battery(counterexamples, rng, n, diagrams)
            harness._record_first(counterexamples, "extra-passing", [np.ones(n, dtype=bool)], None)
            harness._record_first(
                counterexamples, "extra-failing", [np.arange(n) != 1], lambda i, case: f"sample {i} case {case}"
            )

        monkeypatch.setattr(harness, "_wave_battery", with_extra_checks)
        report, _ = property_suite(props_spec(trio, samples=10, wave_samples=3, oracle_grid=2))
        checks = {c.name: (c.passed, c.detail) for c in report.checks}
        assert list(checks)[-4:] == ["wave-speed-signs", "extra-passing", "extra-failing", "oracle-agreement"]
        assert checks["extra-passing"] == (True, "10 samples")
        assert checks["extra-failing"] == (False, "counterexample: sample 1 case 0")
        assert not report.passed

    def test_batteries_use_the_diagrams_the_config_names(self, monkeypatch):
        """Every closed-form call of the three batteries sees the capacities
        of the config's diagrams, not those of a built-in trio."""
        from divergeflow.config import build_spec

        doc = {
            "model": {"kind": "lebacque", "xi": [0.7, 0.3]},
            "diagrams": [{"kind": "triangular"}, {"kind": "triangular"}, {"kind": "greenshields"}],
            "properties": {"samples": 20, "wave_samples": 4, "oracle_grid": 2},
        }
        seen = {"solve_fluxes_batch": set(), "solve_batch": set()}

        def recording(name):
            true_solver = getattr(harness, name)

            def solver(model, d0, s1, s2, capacities):
                seen[name].add(tuple(capacities))
                return true_solver(model, d0, s1, s2, capacities)

            return solver

        for name in seen:
            monkeypatch.setattr(harness, name, recording(name))
        report, _ = property_suite(build_spec(doc, ExperimentKind.PROPERTY_SUITE))
        assert report.passed, report.render()
        assert seen == {"solve_fluxes_batch": {(0.2, 0.2, 0.25)}, "solve_batch": {(0.2, 0.2, 0.25)}}

    def test_injected_defect_is_caught(self, trio, monkeypatch):
        """Sanity: corrupting the closed-form solver must trip the oracle
        comparison with a counterexample."""
        from divergeflow.riemann import DivergeModelKind
        import divergeflow.riemann as riemann

        true_solver = riemann.solve_fluxes_batch

        def broken(model, d0, s1, s2, capacities):
            if model.kind is DivergeModelKind.DAGANZO_FIFO:
                x1, x2 = model.xi
                q = np.maximum(np.maximum(d0, s1 / x1), s2 / x2)  # min corrupted into max
                q = np.minimum(q, capacities[0])
                return (x1 * q + x2 * q, x1 * q, x2 * q)
            return true_solver(model, d0, s1, s2, capacities)

        monkeypatch.setattr(harness, "solve_fluxes_batch", broken)
        report, _ = property_suite(self.small_spec(trio))
        failed = {c.name for c in report.checks if not c.passed}
        assert "oracle-agreement" in failed
        detail = next(c.detail for c in report.checks if c.name == "oracle-agreement")
        assert "counterexample" in detail

    def test_oracle_counterexample_prints_plain_floats(self, trio, monkeypatch):
        """One closed-form flux moved off the oracle's at one grid corner: the
        counterexample names that point in plain floats, as every other
        check does."""
        from divergeflow.riemann import DivergeModelKind

        true_solver = harness.solve_fluxes_batch
        c0, _, c2 = (fd.capacity for fd in trio)

        def shifted(model, d0, s1, s2, capacities):
            q0, q1, q2 = true_solver(model, d0, s1, s2, capacities)
            if model.kind is DivergeModelKind.PRIORITY_BASED:
                corner = (np.asarray(d0) == c0) & (np.asarray(s1) == 0.0) & (np.asarray(s2) == c2)
                q1 = q1 + np.where(corner, 1e-3, 0.0)
                q0 = q1 + q2
            return q0, q1, q2

        monkeypatch.setattr(harness, "solve_fluxes_batch", shifted)
        report, _ = property_suite(self.small_spec(trio))
        failed = {c.name: c.detail for c in report.checks if not c.passed}
        at = (float(c0), 0.0, float(c2))
        assert failed == {"oracle-agreement": f"counterexample: priority_based at {at}: gap=0.001"}
        assert "np." not in failed["oracle-agreement"]

    @pytest.mark.parametrize("seed", [0, 3])
    def test_props_report_matches_golden(self, seed, tmp_path):
        from divergeflow.cli import main

        config = Path(__file__).resolve().parent.parent / "configs" / "props.yaml"
        out = tmp_path / "out"
        assert main(["props", "--config", str(config), "--out", str(out), "--seed", str(seed)]) == 0
        golden = GOLDEN_DIR / f"props_seed{seed}.txt"
        assert (out / "report.txt").read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("block", [7, harness._BLOCK])
    def test_first_counterexamples_follow_sample_then_case_order(self, trio, monkeypatch, block):
        """A defect in the rule kernel trips six checks; each must report the
        first failing sample and, within it, the first failing model in the
        battery's model order, whatever the block size.  The expected strings
        are the ones a per-sample loop over the same draws reports."""
        import divergeflow.riemann as riemann
        from divergeflow.riemann import DivergeModelKind

        true_kernel = riemann.junction_fluxes

        def defective(model, demand_upstream, supplies, proportions):
            q0, q1, q2 = true_kernel(model, demand_upstream, supplies, proportions)
            if model.kind in (DivergeModelKind.PRIORITY_BASED, DivergeModelKind.DAGANZO_FIFO):
                q1 = q1 + np.where(np.asarray(demand_upstream) > 0.2, 1e-9, 0.0)
                q0 = q1 + q2
            return q0, q1, q2

        # the harness evaluates the local rule with its own import of the kernel
        for module in (riemann, harness):
            monkeypatch.setattr(module, "junction_fluxes", defective)
        monkeypatch.setattr(harness, "_BLOCK", block)
        spec = props_spec(trio, samples=300, wave_samples=60, oracle_grid=2, seed=0)
        report, _ = property_suite(spec)
        failed = {c.name: c.detail for c in report.checks if not c.passed}
        at = "at (0.21433507053251824, 0.09078215452247937, 0.003446856898002911)"
        xi = "xi=(0.06487487197567618, 0.9351251280243238)"
        prio = "(0.09422901242048227, 0.09078215552247937, 0.003446856898002911)"
        part_free = "(0.09422901142048228, 0.09078215452247937, 0.003446856898002911)"
        dag = "(0.003685985682376382, 0.0002391287843734712, 0.003446856898002911)"
        assert failed == {
            "flux-bounds": f"counterexample: supply_proportional {at}: {prio}",
            "fifo-split": f"counterexample: daganzo_fifo {xi} {at}: {dag}",
            "partial-reduces-to-daganzo": (
                f"counterexample: {xi} {at}: "
                f"(0.0036859846823763826, 0.00023912778437347134, 0.003446856898002911) vs {dag}"
            ),
            "partial-reduces-to-priority": (
                f"counterexample: alpha=(0.8132702392002724, 0.18672976079972758) {at}: "
                f"{part_free} vs {prio}"
            ),
            "evacuation-optimality": (
                f"counterexample: supply_proportional {at}: q0=0.09422901242048227 vs 0.09422901142048228"
            ),
            "invariance-at-interior-states": (
                f"counterexample: lebacque {at}: "
                f"(0.025276992897497103, 0.021830135999494193, 0.003446856898002911) vs {dag}"
            ),
        }

    @pytest.mark.parametrize("block", [7, harness._BLOCK])
    def test_first_wave_counterexample_follows_sample_then_model_order(self, trio, monkeypatch, block):
        """Stationary states put in the wrong regime on the first downstream
        link (Daganzo where S1 < 0.1, priority where S1 < 0.3) send waves
        toward the junction.  wave-speed-signs must report the first failing
        sample and, within it, the first failing model, whatever the block
        size: priority at sample 2, before Daganzo's first failure at sample
        3.  The expected string is the one a per-model loop over the same
        draws reports, sample by sample, with solve and batch_waves on
        floats."""
        true_solve = harness.solve_batch
        limits = {DivergeModelKind.DAGANZO_FIFO: 0.1, DivergeModelKind.PRIORITY_BASED: 0.3}

        def defective(model, d0, s1, s2, capacities):
            sol = true_solve(model, d0, s1, s2, capacities)
            if model.kind in limits:
                first, second = sol.stationary_downstream
                swap = s1 < limits[model.kind]
                first = TrafficState(np.where(swap, first.supply, first.demand),
                                     np.where(swap, first.demand, first.supply))
                sol = replace(sol, stationary_downstream=(first, second))
            return sol

        monkeypatch.setattr(harness, "solve_batch", defective)
        monkeypatch.setattr(harness, "_BLOCK", block)
        spec = props_spec(trio, samples=300, wave_samples=60, oracle_grid=2, seed=0)
        report, _ = property_suite(spec)
        failed = {c.name: c.detail for c in report.checks if not c.passed}
        assert failed["wave-speed-signs"] == (
            "counterexample: priority_based: downstream wave speed -0.2344406583181095 < 0 "
            "for rarefaction on link 1"
        )


def cli_fail_lines(tmp_path, command, name, replacements, *extra):
    """Exit status and FAIL check lines of the CLI `command` run on the
    shipped config `name` with each (old, new) of `replacements` applied."""
    from divergeflow.cli import main

    text = (Path(__file__).resolve().parent.parent / "configs" / name).read_text(encoding="utf-8")
    for old, new in replacements:
        assert old in text
        text = text.replace(old, new)
    cfg = tmp_path / name
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--out", str(out), *extra])
    report = (out / "report.txt").read_text(encoding="utf-8")
    return code, [line for line in report.splitlines() if line.startswith("check ") and ": FAIL" in line]


class TestVerifyFailLines:
    """Planted defects that riemann-verify must report as the whole line of
    the check they trip, with exit status 1.  The runs are the shipped
    verify configs at M = 40 and N = 1,600, where every check passes."""

    M40 = (("cells_per_link: 160", "cells_per_link: 40"), ("time_steps: 6400", "time_steps: 1600"))

    def fail_lines(self, tmp_path, name="diverge_verify.yaml"):
        return cli_fail_lines(tmp_path, "riemann-verify", name, self.M40)

    def solved_with(self, monkeypatch, defect):
        true_solve = harness.solve
        monkeypatch.setattr(harness, "solve", lambda model, inp: defect(true_solve(model, inp)))

    def run_with(self, monkeypatch, defect):
        """ctm.run with defect(traj) applied to the trajectory it returns."""
        true_run = ctm.run

        def run(sim):
            traj = true_run(sim)
            defect(traj)
            return traj

        monkeypatch.setattr(ctm, "run", run)

    def ramp_cell_copied(self, monkeypatch, cell, source):
        """ctm.run whose final density in ramp cell `cell` is that of cell `source`."""

        def copy(traj):
            traj.densities[-1, 2, cell] = traj.densities[-1, 2, source]

        self.run_with(monkeypatch, copy)

    def test_unplanted_runs_pass(self, tmp_path):
        assert self.fail_lines(tmp_path) == (0, [])
        assert self.fail_lines(tmp_path, "diverge_verify_interior.yaml") == (0, [])

    @pytest.mark.parametrize("k, line", [
        (0, "check junction-flux-q0: FAIL (|0.280413 - 0.290413| <= 0.005)"),
        (1, "check junction-flux-q1: FAIL (|0.196289 - 0.206289| <= 0.005)"),
        (2, "check junction-flux-q2: FAIL (|0.084124 - 0.094124| <= 0.005)"),
    ])
    def test_junction_flux(self, tmp_path, monkeypatch, k, line):
        # one closed-form flux raised by 0.01
        self.solved_with(monkeypatch, lambda sol: replace(
            sol, fluxes=tuple(q + 0.01 if j == k else q for j, q in enumerate(sol.fluxes))))
        assert self.fail_lines(tmp_path) == (1, [line])

    def test_junction_cell_proportion(self, tmp_path, monkeypatch):
        self.solved_with(monkeypatch, lambda sol: replace(
            sol, interior_proportions=tuple(p + d for p, d in zip(sol.interior_proportions, (0.01, -0.01)))))
        assert self.fail_lines(tmp_path) == (1, [
            "check junction-cell-proportion: FAIL (|0.583333 - 0.593333| <= 0.005)",
        ])

    def test_upstream_proportions_constant(self, tmp_path, monkeypatch):
        def nudge(traj):  # the first upstream cell's final share moved by 1e-12
            traj.proportions[-1, 0, 0] += 1e-12

        self.run_with(monkeypatch, nudge)
        assert self.fail_lines(tmp_path) == (1, [
            "check upstream-proportions-constant: FAIL (cells 1..M-1 hold 0.7 exactly)",
        ])

    def test_measured_shock_position(self, tmp_path, monkeypatch):
        # link 1's shock predicted 1.5 times as fast as it is
        true_waves = waves.link_waves

        def fast(solution, inp):
            up, down1, down2 = true_waves(solution, inp)
            return up, replace(down1, speed_range=tuple(1.5 * v for v in down1.speed_range)), down2

        monkeypatch.setattr(waves, "link_waves", fast)
        assert self.fail_lines(tmp_path) == (1, [
            "check link1-shock-position: FAIL (|6.25 - 9.63067| = 3.38 vs 1 cell(s) at t=101.25)",
        ])

    def test_junction_cell_against_the_interior_state(self, tmp_path, monkeypatch):
        # solve returning the stationary states as the interior states
        self.solved_with(monkeypatch, lambda sol: replace(
            sol, interior_upstream=sol.stationary_upstream, interior_downstream=sol.stationary_downstream))
        assert self.fail_lines(tmp_path, "diverge_verify_interior.yaml") == (1, [
            "check link2-adjacent-state: FAIL ((0.084124, 0.022435) vs (0.084124, 0.012498))",
            "check link2-adjacent-density: FAIL (|0.820430 - 0.900000| <= 0.005)",
        ])

    def test_junction_cell_holding_the_stationary_state(self, tmp_path, monkeypatch):
        # the ramp's junction cell ends with the density of the cell behind it
        self.ramp_cell_copied(monkeypatch, 0, 1)
        assert self.fail_lines(tmp_path, "diverge_verify_interior.yaml") == (1, [
            "check link2-adjacent-state: FAIL ((0.084124, 0.012498) vs (0.084124, 0.022435))",
            "check link2-adjacent-density: FAIL (|0.900000 - 0.820430| <= 0.005)",
        ])

    def test_non_unique_interior_is_checked_through_the_local_rule(self, tmp_path, monkeypatch):
        # with link 2's interior flagged not unique, the junction cells pass
        # while they reproduce the fluxes and fail once the ramp's does not
        self.solved_with(monkeypatch, lambda sol: replace(sol, interior_unique=(True, True, False)))
        assert self.fail_lines(tmp_path, "diverge_verify_interior.yaml") == (0, [])
        self.ramp_cell_copied(monkeypatch, 0, 1)
        detail = "interior not unique; junction cells give (0.199959, 0.192798, 0.007161) vs (0.199959, 0.187460, 0.012498)"
        assert self.fail_lines(tmp_path, "diverge_verify_interior.yaml") == (1, [
            f"check link2-adjacent-state: FAIL ({detail})",
            f"check link2-adjacent-density: FAIL ({detail})",
        ])

    def test_next_cell_against_the_stationary_state(self, tmp_path, monkeypatch):
        # the cell behind the ramp's junction cell ends with its density
        self.ramp_cell_copied(monkeypatch, 1, 0)
        assert self.fail_lines(tmp_path, "diverge_verify_interior.yaml") == (1, [
            "check link2-stationary-state: FAIL ((0.084124, 0.022435) vs (0.084124, 0.012498))",
            "check link2-stationary-density: FAIL (|0.820430 - 0.900000| <= 0.005)",
        ])


def test_converge_reports_an_epsilon_that_does_not_decrease(tmp_path, monkeypatch):
    # the model compared with itself: epsilon is 0 at every resolution
    monkeypatch.setattr(harness, "_invariant_counterpart", lambda model: model)
    resolutions = ("resolutions: [40, 80, 160]", "resolutions: [10, 20, 40]")
    assert cli_fail_lines(tmp_path, "converge", "convergence.yaml", [resolutions]) == (1, [
        "check epsilon-decreases-M10-to-M20: FAIL (0 < 0)",
        "check epsilon-decreases-M20-to-M40: FAIL (0 < 0)",
    ])


class TestPropsCounterexampleLines:
    """Planted defects that the props CLI must report as the whole
    counterexample line of the check they trip, with exit status 1.  The
    run is configs/props.yaml at 300 flux samples, 60 wave samples and a
    2^3 oracle grid, seed 0."""

    AT = "at (0.21433507053251824, 0.09078215452247937, 0.003446856898002911)"

    def fail_lines(self, tmp_path):
        small = (("samples: 2000", "samples: 300"), ("wave_samples: 400", "wave_samples: 60"),
                 ("oracle_grid: 5", "oracle_grid: 2"))
        return cli_fail_lines(tmp_path, "props", "props.yaml", small, "--seed", "0")

    def test_conservation_residual(self, tmp_path, monkeypatch):
        # Lebacque's q0 raised by 1e-15 where D0 > 0.2: within every 1e-12
        # tolerance, so only the exact balance fails
        true_solve = harness.solve_batch

        def defective(model, d0, s1, s2, capacities):
            sol = true_solve(model, d0, s1, s2, capacities)
            if model.kind is DivergeModelKind.LEBACQUE:
                q0, q1, q2 = sol.fluxes
                sol = replace(sol, fluxes=(q0 + np.where(d0 > 0.2, 1e-15, 0.0), q1, q2))
            return sol

        monkeypatch.setattr(harness, "solve_batch", defective)
        assert self.fail_lines(tmp_path) == (1, [
            f"check conservation-exact: FAIL (counterexample: lebacque {self.AT}: q0-q1-q2=1.0000680839006293e-15)",
        ])

    def test_oracle_survivor_count(self, tmp_path, monkeypatch, trio):
        # the priority oracle's last grid point, (C0, C1, C2), left with its
        # one survivor twice
        true_oracle = harness.brute_force_batch

        def defective(model, d0, s1, s2, capacities):
            results = true_oracle(model, d0, s1, s2, capacities)
            if model.kind is DivergeModelKind.PRIORITY_BASED:
                results[-1] = OracleResult(results[-1].survivors * 2)
            return results

        monkeypatch.setattr(harness, "brute_force_batch", defective)
        at = tuple(float(fd.capacity) for fd in trio)
        assert self.fail_lines(tmp_path) == (1, [
            f"check oracle-agreement: FAIL (counterexample: priority_based at {at}: 2 survivors)",
        ])

    def test_partial_route_guarantee(self, tmp_path, monkeypatch):
        # partial evacuation's route-1 flux moved by 1e-9 onto route 2: the
        # route guarantee fails where it binds, and the moved flux also
        # breaks the exact balance, a tight ramp bound and invariance
        true_solve = harness.solve_batch

        def defective(model, d0, s1, s2, capacities):
            sol = true_solve(model, d0, s1, s2, capacities)
            if model.kind is DivergeModelKind.PARTIAL_EVACUATION:
                q0, q1, q2 = sol.fluxes
                sol = replace(sol, fluxes=(q0, q1 - 1e-9, q2 + 1e-9))
            return sol

        monkeypatch.setattr(harness, "solve_batch", defective)
        assert self.fail_lines(tmp_path) == (1, [
            "check conservation-exact: FAIL (counterexample: partial_evacuation "
            "at (0.0020784782813434957, 0.24266941436147188, 0.056918676679746906): q0-q1-q2=-2.168404344971009e-19)",
            f"check flux-bounds: FAIL (counterexample: partial_evacuation {self.AT}: "
            "(0.035843567173412846, 0.032396709275409934, 0.003446857898002911))",
            "check partial-route-guarantee: FAIL (counterexample: xi=(0.8012469168043131, 0.04060512021540424) "
            "alpha=(0.8998026942919094, 0.1001973057080906) "
            "at (0.1923175114284075, 0.1083077679736564, 0.04999489821200401): "
            "(0.13517402151839816, 0.1083077669736564, 0.02686625454474175))",
            f"check invariance-at-interior-states: FAIL (counterexample: partial_evacuation {self.AT}: "
            "(0.035843567173412846, 0.03239671027540993, 0.003446856898002911) "
            "vs (0.035843567173412846, 0.032396709275409934, 0.003446857898002911))",
        ])

    def test_upstream_wave_sign(self, tmp_path, monkeypatch):
        # Lebacque's upstream stationary state moved to the other branch
        # where D0 < 0.2, which also breaks its admissibility
        true_solve = harness.solve_batch

        def defective(model, d0, s1, s2, capacities):
            sol = true_solve(model, d0, s1, s2, capacities)
            if model.kind is DivergeModelKind.LEBACQUE:
                up, swap = sol.stationary_upstream, d0 < 0.2
                up = TrafficState(np.where(swap, up.supply, up.demand), np.where(swap, up.demand, up.supply))
                sol = replace(sol, stationary_upstream=up)
            return sol

        monkeypatch.setattr(harness, "solve_batch", defective)
        assert self.fail_lines(tmp_path) == (1, [
            "check admissibility: FAIL (counterexample: lebacque "
            "at (0.18292764417112917, 0.3146481458694376, 0.06863286777976764))",
            "check wave-speed-signs: FAIL (counterexample: lebacque: upstream wave speed 0.9999999999988137 > 0 "
            "for rarefaction)",
        ])
