"""Experiment runner: analytical-versus-numerical verification, model
convergence studies, flux-region maps, and the randomized property battery.

Every experiment produces a Report: a deterministic, timestamp-free list of
named pass/fail checks plus the configuration hash and seed, so identical
inputs reproduce identical reports byte for byte.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import ctm, waves
from .riemann import (
    DivergeModelKind,
    RiemannInput,
    Side,
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
    supply_proportional,
)
from .oracle import brute_force_fluxes
from .supply_demand import TrafficState, state_of

__all__ = [
    "ExperimentKind",
    "ExperimentSpec",
    "CheckResult",
    "Report",
    "riemann_verify",
    "convergence_study",
    "flux_map",
    "property_suite",
    "shock_front_position",
]


class ExperimentKind(enum.Enum):
    RIEMANN_VERIFY = "riemann-verify"
    CONVERGENCE = "converge"
    FLUX_MAP = "flux-map"
    PROPERTY_SUITE = "props"


@dataclass
class SweepSpec:
    """Grid over (demand_upstream, supply_1, supply_2) for flux maps.

    Each component is (start, stop, count); count 1 pins the value at start.
    """

    demand_upstream: tuple[float, float, int]
    supply_1: tuple[float, float, int]
    supply_2: tuple[float, float, int]

    def __post_init__(self):
        axes = (self.demand_upstream, self.supply_1, self.supply_2)
        ends = [v for start, stop, _ in axes for v in (start, stop)]
        if not all(0.0 <= v < np.inf for v in ends):
            raise ValueError(f"sweep ends must be finite and nonnegative, got {ends}")

    def axes(self):
        return tuple(
            np.linspace(start, stop, count)
            for start, stop, count in (self.demand_upstream, self.supply_1, self.supply_2)
        )


@dataclass
class ExperimentSpec:
    kind: ExperimentKind
    sim: ctm.SimConfig | None = None
    sweep: SweepSpec | None = None
    resolutions: tuple[int, ...] = (40, 80, 160)
    tolerance: float = 5e-3
    samples: int = 10000
    wave_samples: int = 2000
    oracle_grid: int = 7
    seed: int = 0
    config_hash: str = "unhashed"

    def __post_init__(self):
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.kind is ExperimentKind.CONVERGENCE and not self.resolutions:
            raise ValueError("convergence study needs at least one resolution")
        if self.kind is ExperimentKind.FLUX_MAP and self.sweep is None:
            raise ValueError("flux map needs a sweep grid")
        if self.kind in (ExperimentKind.RIEMANN_VERIFY, ExperimentKind.CONVERGENCE) and self.sim is None:
            raise ValueError(f"{self.kind.value} needs a simulation config")


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class Report:
    title: str
    config_hash: str
    seed: int
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name, passed, detail=""):
        self.checks.append(CheckResult(name, bool(passed), detail))

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def render(self):
        lines = [
            f"divergeflow report: {self.title}",
            f"config-hash: {self.config_hash}",
            f"seed: {self.seed}",
        ]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            suffix = f" ({c.detail})" if c.detail else ""
            lines.append(f"check {c.name}: {status}{suffix}")
        lines.append(f"verdict: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _riemann_input_from_sim(sim):
    densities = []
    for rho in sim.initial_densities:
        arr = np.asarray(rho, dtype=float)
        if arr.ndim != 0 and np.ptp(arr) > 0.0:
            raise ValueError("riemann-verify needs uniform initial densities per link")
        densities.append(float(arr) if arr.ndim == 0 else float(arr.flat[0]))
    return RiemannInput.from_densities(sim.diagrams, densities)


def shock_front_position(densities, dx):
    """Interface position of the steepest density gradient on one link."""
    jumps = np.abs(np.diff(densities))
    return (int(np.argmax(jumps)) + 1) * dx


def _front_check(report, traj, link, wave, tol_cells=1.0):
    """Verify a shock front position against the Rankine-Hugoniot prediction
    at the last recorded snapshot where the front is strictly inside the
    link."""
    cfg = traj.config
    dx = cfg.dx
    length = cfg.link_length
    speed = wave.speed_range[0]
    origin = length if link == 0 else 0.0
    chosen = None
    for k in range(len(traj.snapshot_steps) - 1, 0, -1):
        t = traj.snapshot_steps[k] * cfg.dt
        predicted = origin + speed * t
        if dx <= predicted <= length - dx:
            chosen = (k, t, predicted)
            break
    if chosen is None:
        report.add(
            f"link{link}-shock-position",
            True,
            "front not inside the link at any recorded snapshot; skipped",
        )
        return
    k, t, predicted = chosen
    measured = shock_front_position(traj.densities[k, link], dx)
    err = abs(measured - predicted)
    report.add(
        f"link{link}-shock-position",
        err <= tol_cells * dx + 1e-12,
        f"|{measured:.6g} - {predicted:.6g}| = {err:.3g} vs {tol_cells:g} cell(s) at t={t:.6g}",
    )


def _rarefaction_check(report, traj, link, wave, tol_cells=2.0):
    """Verify that the density transition zone sits inside the predicted fan
    (edge speeds times time) at the final snapshot, when the fan is inside
    the link."""
    cfg = traj.config
    dx = cfg.dx
    length = cfg.link_length
    origin = length if link == 0 else 0.0
    t = traj.snapshot_steps[-1] * cfg.dt
    lo = origin + min(wave.speed_range) * t
    hi = origin + max(wave.speed_range) * t
    if not (dx <= lo and hi <= length - dx):
        report.add(
            f"link{link}-rarefaction-extent",
            True,
            "fan not inside the link at the final snapshot; skipped",
        )
        return
    rho = traj.densities[-1, link]
    r_lo, r_hi = sorted((wave.rho_left, wave.rho_right))
    margin = 0.05 * (r_hi - r_lo)
    inside = np.where((rho > r_lo + margin) & (rho < r_hi - margin))[0]
    if inside.size == 0:
        report.add(f"link{link}-rarefaction-extent", False, "no transition zone found")
        return
    zone_lo = inside[0] * dx
    zone_hi = (inside[-1] + 1) * dx
    ok = zone_lo >= lo - tol_cells * dx and zone_hi <= hi + tol_cells * dx
    report.add(
        f"link{link}-rarefaction-extent",
        ok,
        f"zone [{zone_lo:.6g}, {zone_hi:.6g}] vs fan [{lo:.6g}, {hi:.6g}] +/- {tol_cells:g} cells",
    )


def riemann_verify(spec):
    """Solve the Riemann problem analytically, simulate it, and compare
    junction-adjacent states, fluxes, and kinematic waves."""
    sim = spec.sim
    tol = spec.tolerance
    inp = _riemann_input_from_sim(sim)
    solution = solve(sim.model, inp)
    wave_triplet = waves.link_waves(solution, inp)
    traj = ctm.run(sim)
    report = Report("riemann-verify", spec.config_hash, spec.seed)

    q_final = (traj.junction.q0[-1], traj.junction.q1[-1], traj.junction.q2[-1])
    for name, got, want in zip(("q0", "q1", "q2"), q_final, solution.fluxes):
        report.add(
            f"junction-flux-{name}",
            abs(got - want) <= tol,
            f"|{got:.6f} - {want:.6f}| <= {tol:g}",
        )

    final = traj.final_state
    adjacent = [
        (0, float(final.densities[0][-1]), solution.stationary_upstream),
        (1, float(final.densities[1][0]), solution.stationary_downstream[0]),
        (2, float(final.densities[2][0]), solution.stationary_downstream[1]),
    ]
    for link, rho, stationary in adjacent:
        fd = sim.diagrams[link]
        got = state_of(fd, rho)
        err = max(abs(got.demand - stationary.demand), abs(got.supply - stationary.supply))
        report.add(
            f"link{link}-adjacent-state",
            err <= tol,
            f"({got.demand:.6f}, {got.supply:.6f}) vs ({stationary.demand:.6f}, {stationary.supply:.6f})",
        )
        rho_want = fd.density_from_state(stationary)
        report.add(
            f"link{link}-adjacent-density",
            abs(rho - rho_want) <= tol,
            f"|{rho:.6f} - {rho_want:.6f}| <= {tol:g}",
        )

    if sim.model.kind in (DivergeModelKind.DAGANZO_FIFO, DivergeModelKind.LEBACQUE):
        got = float(final.proportions[0, -1])
        want = solution.interior_proportions[0]
        report.add(
            "junction-cell-proportion",
            abs(got - want) <= tol,
            f"|{got:.6f} - {want:.6f}| <= {tol:g}",
        )
        predefined = sim.model.xi[0]
        others = final.proportions[0, :-1]
        report.add(
            "upstream-proportions-constant",
            bool(np.all(others == predefined)),
            f"cells 1..M-1 hold {predefined} exactly",
        )

    for link, wave in enumerate(wave_triplet):
        report.add(f"link{link}-wave-kind", True, wave.kind.value)
        if wave.kind is waves.WaveKind.SHOCK:
            _front_check(report, traj, link, wave)
        elif wave.kind is waves.WaveKind.RAREFACTION:
            _rarefaction_check(report, traj, link, wave)
    return report, {"trajectory": traj, "solution": solution, "waves": wave_triplet}


def _invariant_counterpart(model):
    if model.kind is DivergeModelKind.LEBACQUE:
        return daganzo_fifo(model.xi)
    if model.kind is DivergeModelKind.DAGANZO_FIFO:
        return lebacque(model.xi)
    raise ValueError("convergence study compares the routed models")


def _rescaled(sim, cells, model=None):
    steps = int(round(sim.time_steps * cells / sim.cells_per_link))
    return ctm.SimConfig(
        model=sim.model if model is None else model,
        diagrams=sim.diagrams,
        cells_per_link=cells,
        time_steps=steps,
        link_length=sim.link_length,
        horizon=sim.horizon,
        initial_densities=sim.initial_densities,
        initial_proportions=sim.initial_proportions,
        inflow_proportions=sim.inflow_proportions,
        boundaries=sim.boundaries,
        snapshot_every=sim.snapshot_every,
    )


def convergence_study(spec):
    """Compare a routed model with its invariant counterpart across grid
    resolutions; the solution difference at the final time must shrink as the
    cells do."""
    sim = spec.sim
    other = _invariant_counterpart(sim.model)
    report = Report("converge", spec.config_hash, spec.seed)
    series = {}
    finals = []
    for cells in spec.resolutions:
        cfg_a = _rescaled(sim, cells)
        cfg_b = _rescaled(sim, cells, model=other)
        traj_a = ctm.run(cfg_a)
        traj_b = ctm.run(cfg_b)
        eps = ctm.solution_difference(traj_a, traj_b, cfg_a.dx)
        series[cells] = (traj_a.snapshot_steps, eps)
        finals.append(float(eps[-1]))
        report.add(
            f"epsilon-final-M{cells}",
            True,
            f"epsilon(T) = {eps[-1]:.6g}",
        )
    for (m_prev, e_prev), (m_next, e_next) in zip(
        zip(spec.resolutions, finals), zip(spec.resolutions[1:], finals[1:])
    ):
        report.add(
            f"epsilon-decreases-M{m_prev}-to-M{m_next}",
            e_next < e_prev,
            f"{e_next:.6g} < {e_prev:.6g}",
        )
    return report, {"series": series}


_FIFO_REGIONS = ("I", "II", "III")


def _fifo_region(model, d0, s1, s2, tol=1e-12):
    """Region of the routed flux map by which minimum term binds."""
    x1, x2 = model.xi
    terms = (d0, s1 / x1, s2 / x2)
    q0 = min(terms)
    labels = [_FIFO_REGIONS[i] for i, t in enumerate(terms) if t <= q0 + tol]
    return "/".join(labels)


def _fifo_region_by_inequalities(model, d0, s1, s2, tol=1e-12):
    """Same regions computed from the inequality descriptions instead."""
    x1, x2 = model.xi
    t1, t2 = s1 / x1, s2 / x2
    labels = []
    if d0 <= min(t1, t2) + tol:
        labels.append("I")
    if t1 <= min(d0, t2) + tol:
        labels.append("II")
    if t2 <= min(d0, t1) + tol:
        labels.append("III")
    return "/".join(labels)


def _evacuation_region(model, d0, s1, s2, capacities, tol=1e-12):
    """Per-link letters for which terms of the evacuation rule bind:
    S = the link supply, R = the residual D0 - Sj, P = the proportional or
    priority share, F = the routed-remainder cap."""
    _, c1, c2 = capacities
    letters = []
    for i, (si, sj) in enumerate(((s1, s2), (s2, s1))):
        if model.kind is DivergeModelKind.SUPPLY_PROPORTIONAL:
            share = d0 * (c1, c2)[i] / (c1 + c2)
        else:
            share = model.alpha[i] * d0
        composite = max(d0 - sj, share)
        entries = [("S", si)]
        if d0 - sj >= composite - tol:
            entries.append(("R", composite))
        if share >= composite - tol:
            entries.append(("P", composite))
        if model.kind is DivergeModelKind.PARTIAL_EVACUATION:
            xj = model.xi[1 - i]
            entries.append(("F", sj * (1.0 - xj) / xj if xj > 0.0 else np.inf))
        qi = min(v for _, v in entries)
        letters.append("".join(sorted(k for k, v in entries if v <= qi + tol)))
    return ",".join(letters)


def flux_map(spec):
    """Evaluate the closed-form fluxes over a sweep grid in one kernel call
    and label each point by its binding constraints."""
    model = spec.sim.model
    caps = tuple(fd.capacity for fd in spec.sim.diagrams)
    report = Report("flux-map", spec.config_hash, spec.seed)
    axes = [np.minimum(axis, cap) for axis, cap in zip(spec.sweep.axes(), caps)]
    d0, s1, s2 = (grid.ravel() for grid in np.meshgrid(*axes, indexing="ij"))
    rule = riemann_rule(model, caps)
    _, q1, q2 = junction_fluxes(rule, d0, (s1, s2), rule.xi)
    routed = model.kind in (DivergeModelKind.DAGANZO_FIFO, DivergeModelKind.LEBACQUE)
    rows = []
    mismatches = 0
    for point in zip(d0.tolist(), s1.tolist(), s2.tolist(), (q1 + q2).tolist(), q1.tolist(), q2.tolist()):
        if routed:
            region = _fifo_region(model, *point[:3])
            if region != _fifo_region_by_inequalities(model, *point[:3]):
                mismatches += 1
        else:
            region = _evacuation_region(model, *point[:3], caps)
        rows.append((*point, region))
    report.add("grid-evaluated", True, f"{len(rows)} points")
    if routed:
        report.add(
            "region-labels-consistent",
            mismatches == 0,
            f"{mismatches} disagreements between binding-term and inequality labels",
        )
    return report, {"rows": rows}


# ---------------------------------------------------------------------------
# randomized property battery


def _mainline_ramp_trio():
    from .fundamental_diagram import del_castillo_mainline, del_castillo_ramp

    fd_main = del_castillo_mainline()
    return (fd_main, fd_main, del_castillo_ramp())


def _random_flux_input(rng, diagrams):
    c0, c1, c2 = (fd.capacity for fd in diagrams)
    d0 = rng.uniform(0.0, c0)
    s1 = rng.uniform(0.0, c1)
    s2 = rng.uniform(0.0, c2)
    return RiemannInput(
        diagrams[0],
        TrafficState(d0, c0),
        (diagrams[1], diagrams[2]),
        (TrafficState(c1, s1), TrafficState(c2, s2)),
    )


def _random_density_input(rng, diagrams):
    densities = [rng.uniform(0.0, fd.jam_density) for fd in diagrams]
    return RiemannInput.from_densities(diagrams, densities)


def _random_models(rng):
    x1 = rng.uniform(0.05, 0.95)
    a1 = rng.uniform(0.0, 1.0)
    y1 = rng.uniform(0.0, 0.9)
    y2 = rng.uniform(0.0, max(1e-9, 0.98 - y1))
    b1 = rng.uniform(y1, 1.0 - y2)
    return (
        daganzo_fifo((x1, 1.0 - x1)),
        lebacque((x1, 1.0 - x1)),
        supply_proportional(),
        priority_based((a1, 1.0 - a1)),
        partial_evacuation((y1, y2), (b1, 1.0 - b1)),
    )


def _max_flux_gap(fa, fb):
    return max(abs(a - b) for a, b in zip(fa, fb))


def property_suite(spec):
    """Randomized battery of the solver's structural properties.

    Every failure is reported with the first counterexample verbatim.
    """
    rng = np.random.default_rng(spec.seed)
    diagrams = _mainline_ramp_trio()
    report = Report("props", spec.config_hash, spec.seed)
    n = spec.samples

    failures = {}

    def record(name, condition, detail):
        if not condition and name not in failures:
            failures[name] = detail

    for _ in range(n):
        inp = _random_flux_input(rng, diagrams)
        d0 = inp.demand_upstream
        s1, s2 = inp.supplies
        c0, c1, c2 = inp.capacities
        models = _random_models(rng)
        dag, leb, prop, prio, part = models

        for model in models:
            q0, q1, q2 = solve_fluxes(model, inp)
            record(
                "conservation-exact",
                q0 == q1 + q2,
                f"{model.kind.value} at {(d0, s1, s2)}: q0-q1-q2={q0 - q1 - q2!r}",
            )
            record(
                "flux-bounds",
                -1e-15 <= q1 <= min(c1, s1) + 1e-12
                and -1e-15 <= q2 <= min(c2, s2) + 1e-12
                and q0 <= min(c0, d0) + 1e-12,
                f"{model.kind.value} at {(d0, s1, s2)}: {(q0, q1, q2)}",
            )

        fd = solve_fluxes(dag, inp)
        fl = solve_fluxes(leb, inp)
        for model, fx in ((dag, fd), (leb, fl)):
            x1, x2 = model.xi
            record(
                "fifo-split",
                abs(fx[1] - x1 * fx[0]) <= 1e-12 and abs(fx[2] - x2 * fx[0]) <= 1e-12,
                f"{model.kind.value} xi={model.xi} at {(d0, s1, s2)}: {fx}",
            )
        record(
            "daganzo-lebacque-equal",
            _max_flux_gap(fd, fl) <= 1e-12,
            f"xi={dag.xi} at {(d0, s1, s2)}: {fd} vs {fl}",
        )

        fp = solve_fluxes(prop, inp)
        fprio_match = solve_fluxes(priority_based((c1 / (c1 + c2), c2 / (c1 + c2))), inp)
        record(
            "supply-proportional-is-capacity-priority",
            _max_flux_gap(fp, fprio_match) <= 1e-12,
            f"at {(d0, s1, s2)}: {fp} vs {fprio_match}",
        )

        x1, x2 = dag.xi
        a_pin = (x1, x2)  # alpha box degenerates when xi sums to one
        f_part_fifo = solve_fluxes(partial_evacuation((x1, x2), a_pin), inp)
        record(
            "partial-reduces-to-daganzo",
            _max_flux_gap(f_part_fifo, fd) <= 1e-12,
            f"xi={a_pin} at {(d0, s1, s2)}: {f_part_fifo} vs {fd}",
        )
        f_prio = solve_fluxes(prio, inp)
        f_part_free = solve_fluxes(partial_evacuation((0.0, 0.0), prio.alpha), inp)
        record(
            "partial-reduces-to-priority",
            _max_flux_gap(f_part_free, f_prio) <= 1e-12,
            f"alpha={prio.alpha} at {(d0, s1, s2)}: {f_part_free} vs {f_prio}",
        )

        f_part = solve_fluxes(part, inp)
        record(
            "partial-route-guarantee",
            f_part[1] >= part.xi[0] * f_part[0] - 1e-12
            and f_part[2] >= part.xi[1] * f_part[0] - 1e-12,
            f"xi={part.xi} alpha={part.alpha} at {(d0, s1, s2)}: {f_part}",
        )

        optimal = min(d0, s1 + s2)
        for model, fx in ((prop, fp), (prio, f_prio), (partial_evacuation((0.0, 0.0), prio.alpha), f_part_free)):
            record(
                "evacuation-optimality",
                abs(fx[0] - optimal) <= 1e-12,
                f"{model.kind.value} at {(d0, s1, s2)}: q0={fx[0]!r} vs {optimal!r}",
            )

        for model in models:
            sol = solve(model, inp)
            local = local_discrete_flux(
                model, sol.interior_upstream, sol.interior_downstream, sol.interior_proportions
            )
            record(
                "invariance-at-interior-states",
                _max_flux_gap(local, sol.fluxes) <= 1e-12,
                f"{model.kind.value} at {(d0, s1, s2)}: {local} vs {sol.fluxes}",
            )
            ok_up = check_stationary_admissible(
                sol.stationary_upstream, inp.upstream_state, Side.UPSTREAM, c0
            )
            ok_dn = all(
                check_stationary_admissible(
                    sol.stationary_downstream[i], inp.downstream_states[i], Side.DOWNSTREAM, (c1, c2)[i]
                )
                for i in range(2)
            )
            ok_int = check_interior_admissible(
                sol.interior_upstream, sol.stationary_upstream, Side.UPSTREAM, c0
            ) and all(
                check_interior_admissible(
                    sol.interior_downstream[i], sol.stationary_downstream[i], Side.DOWNSTREAM, (c1, c2)[i]
                )
                for i in range(2)
            )
            record(
                "admissibility",
                ok_up and ok_dn and ok_int,
                f"{model.kind.value} at {(d0, s1, s2)}",
            )

    for _ in range(spec.wave_samples):
        inp = _random_density_input(rng, diagrams)
        for model in _random_models(rng):
            sol = solve(model, inp)
            try:
                waves.link_waves(sol, inp)
            except waves.WaveConsistencyError as exc:
                record("wave-speed-signs", False, f"{model.kind.value}: {exc}")

    grid = spec.oracle_grid
    caps = tuple(fd.capacity for fd in diagrams)
    model_fixtures = (
        daganzo_fifo((0.7, 0.3)),
        lebacque((0.7, 0.3)),
        supply_proportional(),
        priority_based((0.6, 0.4)),
        partial_evacuation((0.3, 0.2), (0.55, 0.45)),
    )
    for model in model_fixtures:
        for d0 in np.linspace(0.0, caps[0], grid):
            for s1 in np.linspace(0.0, caps[1], grid):
                for s2 in np.linspace(0.0, caps[2], grid):
                    inp = RiemannInput(
                        diagrams[0],
                        TrafficState(d0, caps[0]),
                        (diagrams[1], diagrams[2]),
                        (TrafficState(caps[1], s1), TrafficState(caps[2], s2)),
                    )
                    result = brute_force_fluxes(model, inp)
                    name = "oracle-agreement"
                    if not result.unique:
                        record(
                            name,
                            False,
                            f"{model.kind.value} at {(d0, s1, s2)}: {len(result.survivors)} survivors",
                        )
                        continue
                    gap = _max_flux_gap(result.fluxes, solve_fluxes(model, inp))
                    record(
                        name,
                        gap <= 1e-6,
                        f"{model.kind.value} at {(d0, s1, s2)}: gap={gap:.3g}",
                    )

    names = [
        "conservation-exact",
        "flux-bounds",
        "fifo-split",
        "daganzo-lebacque-equal",
        "supply-proportional-is-capacity-priority",
        "partial-reduces-to-daganzo",
        "partial-reduces-to-priority",
        "partial-route-guarantee",
        "evacuation-optimality",
        "invariance-at-interior-states",
        "admissibility",
        "wave-speed-signs",
        "oracle-agreement",
    ]
    for name in names:
        if name in failures:
            report.add(name, False, f"counterexample: {failures[name]}")
        else:
            report.add(name, True, f"{n} samples" if name != "oracle-agreement" else f"{grid}^3 grid")
    return report, {}
