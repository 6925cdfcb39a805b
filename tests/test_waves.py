import numpy as np
import pytest

from divergeflow import (
    FundamentalDiagram,
    RiemannInput,
    WaveConsistencyError,
    WaveKind,
    batch_waves,
    classify_wave,
    daganzo_fifo,
    lebacque,
    link_waves,
    partial_evacuation,
    priority_based,
    solve,
    solve_batch,
    supply_proportional,
)
from divergeflow.waves import sign_error, wrong_signs


class TestClassifyWave:
    def test_equal_states_carry_no_wave(self, mainline):
        w = classify_wave(mainline, 0.7, 0.7)
        assert w.kind is WaveKind.NONE
        assert w.speed_range == (0.0, 0.0)

    def test_density_increase_is_a_shock(self, mainline):
        w = classify_wave(mainline, 0.2, 1.0)
        assert w.kind is WaveKind.SHOCK
        expected = (mainline.flow(0.2) - mainline.flow(1.0)) / (0.2 - 1.0)
        assert w.speed_range[0] == w.speed_range[1] == pytest.approx(expected, abs=1e-12)

    def test_density_decrease_is_a_rarefaction(self, mainline):
        w = classify_wave(mainline, 1.0, 0.8555)
        assert w.kind is WaveKind.RAREFACTION
        assert w.max_speed < 0.0  # congested fan travels backward

    def test_forward_shock_out_of_the_junction(self, mainline):
        w = classify_wave(mainline, 0.1963, 1.0)
        assert w.kind is WaveKind.SHOCK
        assert w.speed_range[0] == pytest.approx(0.0634, abs=5e-4)

    def test_out_of_range_density(self, mainline):
        with pytest.raises(ValueError):
            classify_wave(mainline, -0.1, 0.5)
        with pytest.raises(ValueError):
            classify_wave(mainline, 0.5, 2.5)

    def test_rarefaction_edges_are_flux_slopes(self, ramp):
        # the closed-form edge slopes agree with a central difference of the
        # flux on a smooth law
        def central(rho, h=1e-6):
            return (ramp.flow(rho + h) - ramp.flow(rho - h)) / (2 * h)

        w = classify_wave(ramp, 0.9, 0.1)
        assert w.kind is WaveKind.RAREFACTION
        assert w.speed_range[0] == pytest.approx(central(0.9), abs=1e-5)
        assert w.speed_range[1] == pytest.approx(central(0.1), abs=1e-5)

    def test_fan_edge_at_a_kink_stays_on_its_branch(self):
        from divergeflow import triangular

        fd = triangular(1.0, 1.0)
        rc = fd.critical_density
        w = classify_wave(fd, 0.8, rc)  # congested fan ending at the kink
        assert w.kind is WaveKind.RAREFACTION
        assert w.max_speed <= 0.0  # both edges on the congested branch
        w = classify_wave(fd, rc, 0.05)  # free-flow fan starting at the kink
        assert w.min_speed >= 0.0


    def test_batch_classification_is_the_float_one_per_entry(self, all_diagrams):
        rng = np.random.default_rng(4)
        for fd in all_diagrams:
            left = rng.uniform(0.0, fd.jam_density, 300)
            right = np.where(np.arange(300) % 5 == 0, left, rng.uniform(0.0, fd.jam_density, 300))
            batch = classify_wave(fd, left, right)
            for k, (a, b) in enumerate(zip(left.tolist(), right.tolist())):
                assert batch.row(k) == classify_wave(fd, a, b)
            assert set(batch.kind) == set(WaveKind)
            assert np.array_equal(batch.max_speed, np.maximum(*batch.speed_range))


class TestLinkWaves:
    def test_congested_diverge_wave_pattern(self, congested_diverge_input):
        sol = solve(lebacque((0.7, 0.3)), congested_diverge_input)
        up, down1, down2 = link_waves(sol, congested_diverge_input)
        assert up.kind is WaveKind.RAREFACTION
        assert up.max_speed <= 0.0  # back-traveling on the upstream link
        assert down1.kind is WaveKind.SHOCK
        assert down1.min_speed > 0.0  # forward on the first downstream link
        assert down2.kind is WaveKind.RAREFACTION
        assert down2.min_speed >= -1e-4

    def test_stationary_input_produces_no_waves(self, trio):
        model = lebacque((0.7, 0.3))
        base = solve(model, RiemannInput.from_densities(trio, (1.0, 1.0, 0.1)))
        consistent = RiemannInput(
            trio[0], base.stationary_upstream, (trio[1], trio[2]), base.stationary_downstream
        )
        for w in link_waves(solve(model, consistent), consistent):
            assert w.kind is WaveKind.NONE

    def test_initial_densities_are_kept_not_inverted(self, trio, monkeypatch):
        densities = (1.0, 1.0, 0.1)
        inp = RiemannInput.from_densities(trio, densities)
        assert inp.densities == densities
        sol = solve(lebacque((0.7, 0.3)), inp)
        inverted = []
        real = FundamentalDiagram.density_from_state

        def counting(fd, state, *args, **kwargs):
            inverted.append(state)
            return real(fd, state, *args, **kwargs)

        monkeypatch.setattr(FundamentalDiagram, "density_from_state", counting)
        kept = link_waves(sol, inp)
        assert inverted == [sol.stationary_upstream, *sol.stationary_downstream]
        # an input given as states alone inverts them and finds the same waves
        bare = RiemannInput(inp.upstream_diagram, inp.upstream_state,
                            inp.downstream_diagrams, inp.downstream_states)
        assert bare.densities is None
        for a, b in zip(kept, link_waves(sol, bare)):
            assert a.kind is b.kind
            assert a.speed_range == pytest.approx(b.speed_range, abs=1e-8)

    def test_batch_waves_are_link_waves_per_sample(self, trio):
        rng = np.random.default_rng(12)
        caps = tuple(fd.capacity for fd in trio)
        rho = [rng.uniform(0.0, fd.jam_density, 200) for fd in trio]
        d0 = trio[0].demand(rho[0])
        s1, s2 = trio[1].supply(rho[1]), trio[2].supply(rho[2])
        for model in (lebacque((0.6, 0.4)), partial_evacuation((0.25, 0.15), (0.5, 0.5))):
            batch = solve_batch(model, d0, s1, s2, caps)
            waves = batch_waves((batch.stationary_upstream, *batch.stationary_downstream), trio, rho)
            assert np.all(wrong_signs(waves) == -1)
            for k in range(200):
                inp = RiemannInput.from_densities(trio, [r[k] for r in rho])
                assert tuple(w.row(k) for w in waves) == link_waves(batch.row(k), inp)

    def test_first_wrong_sign_names_its_link(self, trio, monkeypatch):
        inp = RiemannInput.from_densities(trio, (1.0, 1.0, 0.1))
        sol = solve(lebacque((0.7, 0.3)), inp)
        up, down1, down2 = link_waves(sol, inp)
        assert int(wrong_signs((up, down1, down2))) == -1
        # down 1 carries a forward shock: a negative tolerance flags it first
        monkeypatch.setattr("divergeflow.waves.SPEED_TOL", -0.1)
        assert int(wrong_signs((up, down1, down2))) == 1
        assert sign_error((up, down1, down2), 1) == (
            f"downstream wave speed {down1.min_speed} < 0 for shock on link 1"
        )
        with pytest.raises(WaveConsistencyError, match="on link 1"):
            link_waves(sol, inp)

    def test_randomized_sign_admissibility(self, trio):
        rng = np.random.default_rng(11)
        models = (
            daganzo_fifo((0.6, 0.4)),
            lebacque((0.6, 0.4)),
            supply_proportional(),
            priority_based((0.7, 0.3)),
            partial_evacuation((0.25, 0.15), (0.5, 0.5)),
        )
        for _ in range(300):
            densities = [rng.uniform(0.0, fd.jam_density) for fd in trio]
            inp = RiemannInput.from_densities(trio, densities)
            for model in models:
                waves = link_waves(solve(model, inp), inp)  # raises on a bad sign
                assert waves[0].max_speed <= 1e-4
                assert waves[1].min_speed >= -1e-4
                assert waves[2].min_speed >= -1e-4
