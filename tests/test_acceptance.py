"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete.  The heavy simulations and sweeps live here; the unit-test
modules cover the same machinery at desk scale.
"""

import time

import numpy as np
import pytest

from divergeflow import (
    BoundaryCondition,
    BoundarySpec,
    RiemannInput,
    SimConfig,
    WaveKind,
    batch_waves,
    daganzo_fifo,
    del_castillo_mainline,
    del_castillo_ramp,
    lebacque,
    junction_fluxes,
    link_waves,
    partial_evacuation,
    priority_based,
    run,
    solution_difference,
    solve,
    solve_batch,
    solve_fluxes,
    solve_fluxes_batch,
    state_of,
    supply_proportional,
)
from divergeflow.harness import shock_front_position
from divergeflow.oracle import brute_force_batch

FOUR_DP = 5e-5
STATE_TOL = 5e-3


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} [{name}]: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def trio():
    fd = del_castillo_mainline()
    return (fd, fd, del_castillo_ramp())


@pytest.fixture(scope="module")
def resolved_diverge(trio):
    """The M=160 congested-diverge run (routed Lebacque rule), timed."""
    cfg = SimConfig(
        model=lebacque((0.7, 0.3)),
        diagrams=trio,
        cells_per_link=160,
        time_steps=6400,
        link_length=10.0,
        horizon=360.0,
        initial_densities=(1.0, 1.0, 0.1),
        initial_proportions=0.7,
    )
    start = time.perf_counter()
    traj = run(cfg)
    elapsed = time.perf_counter() - start
    return traj, elapsed


def test_criterion_1_resolved_diverge_asymptotics(trio, resolved_diverge):
    traj, elapsed = resolved_diverge
    final, proportions = traj.densities[-1], traj.proportions[-1]
    expected = {
        0: ((0.3365, 0.2804), float(final[0][-1])),
        1: ((0.1963, 0.3365), float(final[1][0])),
        2: ((0.0841, 0.0841), float(final[2][0])),
    }
    worst = 0.0
    for link, (want, rho) in expected.items():
        got = state_of(trio[link], rho)
        worst = max(worst, abs(got.demand - want[0]), abs(got.supply - want[1]))
    rho0 = float(final[0][-1])
    xi_last = float(proportions[0, -1])
    others_constant = bool(np.all(proportions[0, :-1] == 0.7))
    ok = (
        worst <= STATE_TOL
        and abs(rho0 - 0.8555) <= STATE_TOL
        and abs(xi_last - 0.5833) <= STATE_TOL
        and others_constant
        and elapsed < 30.0
    )
    _report(
        1,
        "resolved diverge reproduction",
        ok,
        f"max state err {worst:.2e}, rho0 {rho0:.4f}, xi {xi_last:.4f}, "
        f"constant-elsewhere {others_constant}, runtime {elapsed:.1f}s",
    )


def test_criterion_2_analytical_fluxes(trio):
    inp = RiemannInput.from_densities(trio, (1.0, 1.0, 0.1))
    worst = 0.0
    for model in (daganzo_fifo((0.7, 0.3)), lebacque((0.7, 0.3))):
        fluxes = solve_fluxes(model, inp)
        for got, want in zip(fluxes, (0.2804, 0.1963, 0.0841)):
            worst = max(worst, abs(got - want))
    _report(2, "analytical solver exactness", worst <= FOUR_DP, f"max err {worst:.2e}")


def test_criterion_3_model_convergence(trio):
    boundaries = BoundarySpec(
        downstream_supplies=(
            BoundaryCondition.neumann(),
            BoundaryCondition.sinusoid(0.05, 0.03, 60.0),
        )
    )
    finals = []
    for cells in (40, 80, 160):
        runs = []
        for model in (lebacque((0.7, 0.3)), daganzo_fifo((0.7, 0.3))):
            cfg = SimConfig(
                model=model,
                diagrams=trio,
                cells_per_link=cells,
                time_steps=40 * cells,
                link_length=10.0,
                horizon=360.0,
                initial_densities=(1.0, 1.0, 0.1),
                initial_proportions=0.7,
                boundaries=boundaries,
            )
            runs.append(run(cfg))
        eps = solution_difference(runs[0], runs[1])
        finals.append(float(eps[-1]))
    ok = finals[0] > finals[1] > finals[2]
    _report(
        3,
        "periodically forced convergence",
        ok,
        "epsilon(T) = " + " > ".join(f"{e:.4f}" for e in finals),
    )


def _flux_grid(caps, n):
    """The n^3 (D0, S1, S2) grid over [0, C0] x [0, C1] x [0, C2], D0
    slowest, as three flat arrays."""
    axes = [np.linspace(0.0, c, n) for c in caps]
    return [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]


def test_criterion_4_oracle_equivalence(trio):
    models = (
        daganzo_fifo((0.7, 0.3)),
        lebacque((0.7, 0.3)),
        supply_proportional(),
        priority_based((0.6, 0.4)),
        partial_evacuation((0.3, 0.2), (0.55, 0.45)),
    )
    caps = tuple(fd.capacity for fd in trio)
    d0, s1, s2 = _flux_grid(caps, 15)
    worst = 0.0
    nonunique = 0
    for model in models:
        closed = solve_fluxes_batch(model, d0, s1, s2, caps)
        for k, result in enumerate(brute_force_batch(model, d0, s1, s2, caps)):
            if not result.unique:
                nonunique += 1
                continue
            gap = max(abs(a - q[k].item()) for a, q in zip(result.fluxes, closed))
            worst = max(worst, gap)
    ok = nonunique == 0 and worst <= 1e-6
    _report(
        4,
        "brute-force oracle equivalence",
        ok,
        f"5 models x 15^3 grid, max gap {worst:.2e}, non-unique points {nonunique}",
    )


def _uniform(u, lo, hi):
    # rng.uniform(lo, hi) from the draw u of rng.random(), bitwise
    return lo + (hi - lo) * u


def test_criterion_5_property_suites(trio):
    rng = np.random.default_rng(2024)
    caps = tuple(fd.capacity for fd in trio)
    n = 10000
    fair = (caps[1] / (caps[1] + caps[2]), caps[2] / (caps[1] + caps[2]))
    # each sample draws d0, s1, s2, x1, a1, y1, y2, beta in this order
    u = rng.random((n, 8))
    d0, s1, s2 = (_uniform(u[:, k], 0.0, c) for k, c in enumerate(caps))
    x1 = _uniform(u[:, 3], 0.05, 0.95)
    xi = (x1, 1.0 - x1)
    a1 = _uniform(u[:, 4], 0.0, 1.0)
    alpha = (a1, 1.0 - a1)
    y1, y2 = _uniform(u[:, 5], 0.0, 0.45), _uniform(u[:, 6], 0.0, 0.45)
    beta = _uniform(u[:, 7], y1, 1.0 - y2)

    def gap(fa, fb):
        return float(np.max(np.abs(np.subtract(fa, fb))))

    models = (
        daganzo_fifo(xi),
        lebacque(xi),
        supply_proportional(),
        priority_based(alpha),
        partial_evacuation((y1, y2), (beta, 1.0 - beta)),
    )
    fluxes = [solve_fluxes_batch(m, d0, s1, s2, caps) for m in models]
    gaps = {"conservation": max(gap(fx[0], fx[1] + fx[2]) for fx in fluxes)}
    gaps["fifo"] = max(
        gap(fx[k], m.xi[k - 1] * fx[0]) for m, fx in zip(models[:2], fluxes[:2]) for k in (1, 2)
    )
    gaps["dag-leb"] = gap(fluxes[0], fluxes[1])
    gaps["prop-prio"] = gap(fluxes[2], solve_fluxes_batch(priority_based(fair), d0, s1, s2, caps))
    gaps["partial-dag"] = gap(solve_fluxes_batch(partial_evacuation(xi, xi), d0, s1, s2, caps), fluxes[0])
    f_pp = solve_fluxes_batch(partial_evacuation((0.0, 0.0), alpha), d0, s1, s2, caps)
    gaps["partial-prio"] = gap(f_pp, fluxes[3])
    part = models[4]
    fx = fluxes[4]
    gaps["route-guarantee"] = max(
        0.0, float(np.max(part.xi[0] * fx[0] - fx[1])), float(np.max(part.xi[1] * fx[0] - fx[2]))
    )
    optimal = np.minimum(d0, s1 + s2)
    gaps["optimality"] = max(gap(fx[0], optimal) for fx in (fluxes[2], fluxes[3], f_pp))
    gaps["invariance"] = 0.0
    for m in models:
        sol = solve_batch(m, d0, s1, s2, caps)
        up, down1, down2 = sol.interior
        local = junction_fluxes(m, up.demand, (down1.supply, down2.supply), sol.interior_proportions)
        gaps["invariance"] = max(gaps["invariance"], gap(local, sol.fluxes))
    ok = gaps["conservation"] == 0.0 and all(v <= 1e-12 for v in gaps.values())
    detail = ", ".join(f"{k}={v:.1e}" for k, v in gaps.items())
    _report(5, f"property suites ({n} samples)", ok, detail)


def test_criterion_6_wave_admissibility(trio):
    rng = np.random.default_rng(99)
    n = 10000
    caps = tuple(fd.capacity for fd in trio)
    models = (
        daganzo_fifo((0.7, 0.3)),
        lebacque((0.7, 0.3)),
        supply_proportional(),
        priority_based((0.6, 0.4)),
        partial_evacuation((0.3, 0.2), (0.55, 0.45)),
    )
    worst_up = -np.inf
    worst_down = np.inf
    for model in models:
        # n samples of the three links' densities, drawn link by link
        u = rng.random((n, 3))
        densities = [_uniform(u[:, k], 0.0, fd.jam_density) for k, fd in enumerate(trio)]
        d0 = trio[0].demand(densities[0])
        s1, s2 = (trio[k].supply(densities[k]) for k in (1, 2))
        sol = solve_batch(model, d0, s1, s2, caps)
        up, d1, d2 = batch_waves(sol.stationary, trio, densities)
        worst_up = max(worst_up, float(np.max(up.max_speed)))
        worst_down = min(worst_down, float(np.min(d1.min_speed)), float(np.min(d2.min_speed)))
    signs_ok = worst_up <= 1e-4 and worst_down >= -1e-4

    # pure-shock scenario: congested ramps absorb less than the upstream
    # demand, sending a single backward shock up link 0
    ramp = del_castillo_ramp()
    shock_trio = (trio[0], ramp, ramp)
    cfg = SimConfig(
        model=supply_proportional(),
        diagrams=shock_trio,
        cells_per_link=160,
        time_steps=640,
        link_length=10.0,
        horizon=36.0,
        initial_densities=(0.3, 0.6, 0.6),
    )
    inp = RiemannInput.from_densities(shock_trio, (0.3, 0.6, 0.6))
    sol = solve(supply_proportional(), inp)
    up, d1, d2 = link_waves(sol, inp)
    assert up.kind is WaveKind.SHOCK
    assert d1.kind is WaveKind.NONE and d2.kind is WaveKind.NONE
    traj = run(cfg)
    predicted = cfg.link_length + up.speed_range[0] * cfg.horizon
    measured = shock_front_position(traj.densities[-1, 0], cfg.dx)
    front_ok = abs(measured - predicted) <= cfg.dx
    _report(
        6,
        "wave sign admissibility and shock tracking",
        signs_ok and front_ok,
        f"worst upstream speed {worst_up:.2e}, worst downstream {worst_down:.2e}, "
        f"front |{measured:.4f} - {predicted:.4f}| vs one cell {cfg.dx:.4f}",
    )


def test_criterion_7_discrete_conservation(trio, resolved_diverge):
    traj61, _ = resolved_diverge
    drifts = [traj61.conservation_drift()]
    boundaries = BoundarySpec(
        upstream_demand=BoundaryCondition.constant(0.25),
        downstream_supplies=(
            BoundaryCondition.sinusoid(0.2, 0.1, 45.0),
            BoundaryCondition.sinusoid(0.05, 0.03, 60.0),
        ),
    )
    rng = np.random.default_rng(5)
    configs = [
        SimConfig(
            model=supply_proportional(),
            diagrams=trio,
            cells_per_link=40,
            time_steps=1600,
            initial_densities=tuple(rng.uniform(0, fd.jam_density, 40) for fd in trio),
            boundaries=boundaries,
        ),
        SimConfig(
            model=partial_evacuation((0.3, 0.2), (0.55, 0.45)),
            diagrams=trio,
            cells_per_link=40,
            time_steps=1600,
            initial_densities=(1.5, 0.2, 0.9),
            initial_proportions=(0.3, 0.2),
        ),
        SimConfig(
            model=daganzo_fifo((0.7, 0.3)),
            diagrams=trio,
            cells_per_link=40,
            time_steps=1600,
            initial_densities=(1.0, 1.0, 0.1),
            boundaries=BoundarySpec(
                downstream_supplies=(
                    BoundaryCondition.neumann(),
                    BoundaryCondition.sinusoid(0.05, 0.03, 60.0),
                )
            ),
        ),
    ]
    drifts.extend(run(cfg).conservation_drift() for cfg in configs)
    worst = max(drifts)
    _report(7, "discrete vehicle conservation", worst < 1e-8, f"worst drift {worst:.2e}")
