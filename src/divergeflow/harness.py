"""Experiment runner: analytical-versus-numerical verification, model
convergence studies, flux-region maps, and the randomized property battery.

Every experiment produces a Report: a deterministic, timestamp-free list of
named pass/fail checks plus the configuration hash and seed, so identical
inputs reproduce identical reports byte for byte.  Its artifacts hold its
data files as "tables", a dict from file name to a table of columns (a dict
from CSV header to an equal-length array), which the CLI writes.

The property battery draws its samples a block at a time, as the columns of
rng.random((block, 8)) (bitwise the sequential rng.uniform draws), and
checks each property with one array call per rule and block
(solve_fluxes_batch, solve_batch); the waves of all five rules take one
batch_waves call per block.  The oracle comparison makes one
brute_force_batch call per model fixture over its whole grid.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from . import ctm, waves
from .riemann import (
    _FIFO_KINDS,
    TIE_TOL,
    _evacuation_binding,
    DivergeModelKind,
    RiemannInput,
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
    solve_fluxes,  # noqa: F401 -- not called here; perfbench's spans wrap this name
    solve_fluxes_batch,
    supply_proportional,
)
from .oracle import brute_force_batch
from .oracle import brute_force_fluxes  # noqa: F401 -- not called here; perfbench's spans wrap this name
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
    The ends must be finite and nonnegative, the counts integers of at least 1.
    """

    demand_upstream: tuple[float, float, int]
    supply_1: tuple[float, float, int]
    supply_2: tuple[float, float, int]

    def __post_init__(self):
        axes = (self.demand_upstream, self.supply_1, self.supply_2)
        ends = [v for start, stop, _ in axes for v in (start, stop)]
        if not all(0.0 <= v < np.inf for v in ends):
            raise ValueError(f"sweep ends must be finite and nonnegative, got {ends}")
        counts = [count for _, _, count in axes]
        if not all(ctm._is_integer(count) and count >= 1 for count in counts):
            raise ValueError(f"sweep counts must be integers of at least 1, got {counts}")

    def axes(self):
        return tuple(
            np.linspace(start, stop, count)
            for start, stop, count in (self.demand_upstream, self.supply_1, self.supply_2)
        )


@dataclass
class ExperimentSpec:
    kind: ExperimentKind
    sim: ctm.SimConfig
    sweep: SweepSpec | None = None
    resolutions: tuple[int, ...] = (40, 80, 160)
    tolerance: float = 5e-3
    samples: int = 10000
    wave_samples: int = 2000
    oracle_grid: int = 7
    seed: int = 0
    config_hash: str = "unhashed"
    # converge's (routed, invariant) config pair per resolution, built and
    # checked once here; None for the other experiments
    convergence_pairs: list | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.tolerance < np.inf:
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance}")
        for name in ("samples", "wave_samples", "oracle_grid"):
            ctm._require_count(name, getattr(self, name))
        res = list(self.resolutions)
        positive = all(ctm._is_integer(m) and m >= 1 for m in res)
        if self.kind is ExperimentKind.CONVERGENCE and not (res and positive and res == sorted(set(res))):
            raise ValueError(f"convergence resolutions must be strictly increasing positive integers, got {res}")
        if self.kind is ExperimentKind.CONVERGENCE and len(res) < 2:
            raise ValueError(f"converge compares at least two resolutions, got {res}")
        if self.kind is ExperimentKind.FLUX_MAP and self.sweep is None:
            raise ValueError("flux map needs a sweep grid")
        if self.sim is None:
            raise ValueError(f"{self.kind.value} needs a simulation config")
        if self.kind is ExperimentKind.RIEMANN_VERIFY:
            _check_riemann_problem(self.sim)
        self.convergence_pairs = None
        if self.kind is ExperimentKind.CONVERGENCE:
            self.convergence_pairs = _convergence_pairs(self.sim, self.resolutions)


def _check_riemann_problem(sim):
    """Reject a simulation whose Riemann problem differs from the one
    riemann_verify solves: densities that are not uniform on each link, or,
    for the routed rules, an upstream mix other than the model's x1 (the CTM
    routes by the mix, solve by xi); and one too short to hold each link's
    junction cell and the stationary cell next to it."""
    if sim.cells_per_link < 2:
        raise ValueError(f"riemann-verify needs at least two cells per link, got {sim.cells_per_link}")
    if np.ptp(sim.initial_state, axis=1).max() > 0.0:
        raise ValueError("riemann-verify needs initial_densities uniform on each link")
    if sim.model.kind in _FIFO_KINDS:
        x1 = float(sim.model.xi[0])
        mix = sim.initial_mix[0]
        for name, part in (("initial_proportions", mix[1:]), ("inflow_proportions", mix[:1])):
            off = part[part != x1]
            if off.size:
                raise ValueError(f"riemann-verify solves with the model's x1 = {x1!r}, so {name} must "
                                 f"equal it, got {off[0].item()!r}")


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


def shock_front_position(densities, dx):
    """Interface position of the steepest density gradient on one link."""
    jumps = np.abs(np.diff(densities))
    return (int(np.argmax(jumps)) + 1) * dx


# A measured shock front may miss its predicted position by this many
# cells, a fan's transition zone its predicted extent by _FAN_TOL_CELLS.
_SHOCK_TOL_CELLS = 1.0
_FAN_TOL_CELLS = 2.0


def _front_check(report, traj, link, wave):
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
        err <= _SHOCK_TOL_CELLS * dx + 1e-12,
        f"|{measured:.6g} - {predicted:.6g}| = {err:.3g} vs {_SHOCK_TOL_CELLS:g} cell(s) at t={t:.6g}",
    )


def _rarefaction_check(report, traj, link, wave):
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
    ok = zone_lo >= lo - _FAN_TOL_CELLS * dx and zone_hi <= hi + _FAN_TOL_CELLS * dx
    report.add(
        f"link{link}-rarefaction-extent",
        ok,
        f"zone [{zone_lo:.6g}, {zone_hi:.6g}] vs fan [{lo:.6g}, {hi:.6g}] +/- {_FAN_TOL_CELLS:g} cells",
    )


def _state_checks(report, name, fd, rho, want, tol):
    """The `{name}-state` and `{name}-density` checks of a cell's density rho
    against the state `want` on the diagram fd."""
    got = state_of(fd, rho)
    err = max(abs(got.demand - want.demand), abs(got.supply - want.supply))
    report.add(
        f"{name}-state",
        err <= tol,
        f"({got.demand:.6f}, {got.supply:.6f}) vs ({want.demand:.6f}, {want.supply:.6f})",
    )
    rho_want = fd.density_from_state(want)
    report.add(f"{name}-density", abs(rho - rho_want) <= tol, f"|{rho:.6f} - {rho_want:.6f}| <= {tol:g}")


def _fields_table(traj):
    """fields.csv: one row per snapshot, link and cell; the proportion is
    the upstream link's commodity-1 share, empty on the downstream links."""
    k, link, cell = np.indices(traj.densities.shape).reshape(3, -1)
    proportion = np.full(traj.densities.shape, np.nan)
    proportion[:, 0] = traj.proportions[:, 0]
    columns = (traj.snapshot_steps[k], link, cell, traj.densities.ravel(), proportion.ravel())
    return dict(zip(("step", "link", "cell", "density", "proportion"), columns))


def riemann_verify(spec):
    """Solve the Riemann problem analytically, simulate it, and compare
    fluxes, the interior and stationary states next to the junction, and
    kinematic waves; its tables are fields.csv and junction.csv (the
    junction trace)."""
    sim = spec.sim
    tol = spec.tolerance
    inp = RiemannInput.from_densities(sim.diagrams, sim.initial_state[:, 0].tolist())
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

    # each link's junction cell holds its interior state and the next cell its
    # stationary state; a non-unique interior is checked through the local
    # rule on the three junction cells instead
    final = traj.densities[-1]
    cells = [(final[0, -1], final[0, -2]), (final[1, 0], final[1, 1]), (final[2, 0], final[2, 1])]
    up, down1, down2 = (state_of(fd, float(rho)) for fd, (rho, _) in zip(sim.diagrams, cells))
    share = float(traj.proportions[-1, 0, -1])
    local = junction_fluxes(sim.model, up.demand, (down1.supply, down2.supply), (share, 1.0 - share))
    reproduced = max(abs(got - want) for got, want in zip(local, solution.fluxes)) <= tol
    local_detail = (f"interior not unique; junction cells give ({', '.join(f'{q:.6f}' for q in local)}) "
                    f"vs ({', '.join(f'{q:.6f}' for q in solution.fluxes)})")
    for link, fd in enumerate(sim.diagrams):
        junction_rho, next_rho = (float(rho) for rho in cells[link])
        if solution.interior_unique[link]:
            _state_checks(report, f"link{link}-adjacent", fd, junction_rho, solution.interior[link], tol)
        else:
            report.add(f"link{link}-adjacent-state", reproduced, local_detail)
            report.add(f"link{link}-adjacent-density", reproduced, local_detail)
        _state_checks(report, f"link{link}-stationary", fd, next_rho, solution.stationary[link], tol)

    if sim.model.kind in _FIFO_KINDS:
        proportions = traj.proportions[-1, 0]
        got = float(proportions[-1])
        want = solution.interior_proportions[0]
        report.add(
            "junction-cell-proportion",
            abs(got - want) <= tol,
            f"|{got:.6f} - {want:.6f}| <= {tol:g}",
        )
        predefined = sim.model.xi[0]
        others = proportions[:-1]
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
    tables = {"fields.csv": _fields_table(traj), "junction.csv": vars(traj.junction)}
    return report, {"trajectory": traj, "solution": solution, "tables": tables}


def _invariant_counterpart(model):
    if model.kind is DivergeModelKind.LEBACQUE:
        return daganzo_fifo(model.xi)
    if model.kind is DivergeModelKind.DAGANZO_FIFO:
        return lebacque(model.xi)
    raise ValueError(f"convergence study compares the routed models, got {model.kind.value}")


def _convergence_pairs(sim, resolutions):
    """The configs of the routed model and its invariant counterpart at each
    resolution, dt/dx kept fixed; an error names the resolution whose config
    cannot be built."""
    models = (sim.model, _invariant_counterpart(sim.model))
    pairs = []
    for cells in resolutions:
        steps = int(round(sim.time_steps * cells / sim.cells_per_link))
        try:
            pairs.append([replace(sim, model=m, cells_per_link=cells, time_steps=steps) for m in models])
        except ValueError as exc:
            raise ValueError(f"converge at M={cells}: {exc}") from exc
    return pairs


def convergence_study(spec):
    """Compare a routed model with its invariant counterpart across grid
    resolutions, both simulated as one batch per resolution; the solution
    difference at the final time must shrink as the cells do; its tables
    are the differences at each snapshot step, epsilon_M<cells>.csv."""
    report = Report("converge", spec.config_hash, spec.seed)
    tables = {}
    finals = []
    for cells, (cfg_a, cfg_b) in zip(spec.resolutions, spec.convergence_pairs):
        traj_a, traj_b = ctm.run_batch([cfg_a, cfg_b])
        eps = ctm.solution_difference(traj_a, traj_b)
        tables[f"epsilon_M{cells}.csv"] = {"step": traj_a.snapshot_steps, "epsilon": eps}
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
    return report, {"tables": tables}


# Labels of the region codes (see flux_map), bit k set where term k binds;
# an evacuation code 16 * link1 + link2 names both links.
_ROUTED_LABELS = np.array(["/".join(r for k, r in enumerate(("I", "II", "III")) if c >> k & 1) for c in range(8)])
_LINK_LETTERS = ["".join(f for k, f in enumerate("FPRS") if c >> k & 1) for c in range(16)]
_EVACUATION_LABELS = np.array([f"{a}|{b}" for a in _LINK_LETTERS for b in _LINK_LETTERS])


def _code(*binds):
    """The region code of boolean arrays binds[k], one bit each."""
    return sum(bind * (1 << k) for k, bind in enumerate(binds))


def _routed_codes(model, d0, s1, s2):
    """Region codes of a routed rule, by which of the terms (D0, S1/x1,
    S2/x2) attain their minimum, and that minimum."""
    x1, x2 = model.xi
    t0, t1, t2 = terms = (d0, s1 / x1, s2 / x2)
    bound = np.minimum(np.minimum(t0, t1), t2)
    return _code(*(t <= bound + TIE_TOL for t in terms)), bound


def flux_map(spec):
    """Evaluate the closed-form fluxes over a sweep grid in one kernel call
    and label each point by its binding constraints, all as array code.

    Returns the report and {"tables": {"flux_map.csv": columns}}.  A routed
    rule's region names the binding terms of min(D0, S1/x1, S2/x2) as I, II,
    III, ties joined by "/" (such as "I/II"); an evacuation rule's region
    gives each downstream link the letters of the terms of its riemann_rule
    counterpart that bind (riemann._evacuation_binding) in FPRS order: F
    the routed-remainder cap, P the share D0 ai, R the residual D0 - Sj, S
    the supply.  The two links are joined by "|" (such as "PS|R").
    """
    model = spec.sim.model
    caps = tuple(fd.capacity for fd in spec.sim.diagrams)
    report = Report("flux-map", spec.config_hash, spec.seed)
    axes = [np.minimum(axis, cap) for axis, cap in zip(spec.sweep.axes(), caps)]
    d0, s1, s2 = (grid.ravel() for grid in np.meshgrid(*axes, indexing="ij"))
    q0, q1, q2 = solve_fluxes_batch(model, d0, s1, s2, caps)
    report.add("grid-evaluated", True, f"{d0.size} points")
    if model.kind in _FIFO_KINDS:
        # the labels name the terms at their minimum, which must be the
        # kernel's q0
        code, bound = _routed_codes(model, d0, s1, s2)
        region = _ROUTED_LABELS[code]
        mismatches = np.count_nonzero(~(np.abs(q0 - bound) <= TIE_TOL))
        report.add(
            "region-labels-consistent",
            mismatches == 0,
            f"q0 is off min(D0, S1/x1, S2/x2) by more than {TIE_TOL:g} at {mismatches} of {d0.size} points",
        )
    else:
        link1, link2 = (_code(*binds) for binds in _evacuation_binding(riemann_rule(model, caps), d0, s1, s2))
        region = _EVACUATION_LABELS[16 * link1 + link2]
    header = ("demand_upstream", "supply_1", "supply_2", "q0", "q1", "q2", "region")
    return report, {"tables": {"flux_map.csv": dict(zip(header, (d0, s1, s2, q0, q1, q2, region)))}}


# ---------------------------------------------------------------------------
# randomized property battery


# Samples per array call of the batteries: bounds their working set (about
# 1 kB per sample, so about 1 MB per pass) whatever the sample count.  Blocks
# draw from the generator in turn, so the draws do not depend on the block
# size.
_BLOCK = 1024


def _uniform(u, lo, hi):
    """rng.uniform(lo, hi) from a draw u of rng.random(), bitwise."""
    return lo + (hi - lo) * u


def _random_models(u):
    """The five diverge models of a battery from five columns of uniform
    draws, one rule per row: xi and alpha are arrays."""
    x1 = _uniform(u[:, 0], 0.05, 0.95)
    a1 = _uniform(u[:, 1], 0.0, 1.0)
    y1 = _uniform(u[:, 2], 0.0, 0.9)
    y2 = _uniform(u[:, 3], 0.0, np.maximum(1e-9, 0.98 - y1))
    b1 = _uniform(u[:, 4], y1, 1.0 - y2)
    return (
        daganzo_fifo((x1, 1.0 - x1)),
        lebacque((x1, 1.0 - x1)),
        supply_proportional(),
        priority_based((a1, 1.0 - a1)),
        partial_evacuation((y1, y2), (b1, 1.0 - b1)),
    )


def _max_flux_gap(fa, fb):
    return np.max(np.abs(np.subtract(fa, fb)), axis=0)


def _pair(values, k):
    """Row k of a model parameter pair (floats or arrays), as floats."""
    return tuple(float(v[k]) if np.ndim(v) else float(v) for v in values)


def _record_first(counterexamples, name, ok, detail):
    """Keep the first counterexample of check `name` in `counterexamples`,
    which registers the check on its first call, with None until one fails;
    the report lists the checks in that order.

    ok holds one (n,) pass mask over the samples per case checked at each
    sample, in case order; the first failure in sample order, then case
    order, is the one a per-sample loop meets first.  detail(i, case)
    renders it.
    """
    failed = ~np.stack(ok, axis=1)
    if counterexamples.setdefault(name, None) is None and failed.any():
        counterexamples[name] = detail(*divmod(int(np.argmax(failed)), failed.shape[1]))


def _flux_battery(counterexamples, rng, n, diagrams):
    """n random (D0, S1, S2) points, each with five random models: flux
    bounds, model equivalences, local optimality, invariance at interior
    states and admissibility."""
    caps = tuple(fd.capacity for fd in diagrams)
    c0, c1, c2 = caps
    u = rng.random((n, 8))
    d0, s1, s2 = (_uniform(u[:, k], 0.0, c) for k, c in enumerate(caps))
    models = _random_models(u[:, 3:])
    dag, leb, prop, prio, part = models
    part_fifo = partial_evacuation(dag.xi, dag.xi)  # alpha box degenerates when xi sums to one
    part_free = partial_evacuation((0.0, 0.0), prio.alpha)
    fair = priority_based((c1 / (c1 + c2), c2 / (c1 + c2)))
    solutions = [solve_batch(model, d0, s1, s2, caps) for model in models]
    flux = fd, fl, fp, f_prio, f_part = [sol.fluxes for sol in solutions]
    f_fair, f_part_fifo, f_part_free = (
        solve_fluxes_batch(model, d0, s1, s2, caps) for model in (fair, part_fifo, part_free)
    )
    optimal = np.minimum(d0, s1 + s2)

    def record(name, ok, detail):
        _record_first(counterexamples, name, ok, detail)

    def at(i):
        return f"at {(d0[i].item(), s1[i].item(), s2[i].item())}"

    def row(fluxes, i):
        return tuple(q[i].item() for q in fluxes)

    def close(fa, fb):
        return _max_flux_gap(fa, fb) <= 1e-12

    def residual(i, m):
        q0, q1, q2 = row(flux[m], i)
        return f"{models[m].kind.value} {at(i)}: q0-q1-q2={q0 - q1 - q2!r}"

    record("conservation-exact", [q0 == q1 + q2 for q0, q1, q2 in flux], residual)
    record(
        "flux-bounds",
        [
            (-1e-15 <= q1) & (q1 <= np.minimum(c1, s1) + 1e-12)
            & (-1e-15 <= q2) & (q2 <= np.minimum(c2, s2) + 1e-12)
            & (q0 <= np.minimum(c0, d0) + 1e-12)
            for q0, q1, q2 in flux
        ],
        lambda i, m: f"{models[m].kind.value} {at(i)}: {row(flux[m], i)}",
    )
    record(
        "fifo-split",
        [
            (abs(fx[1] - model.xi[0] * fx[0]) <= 1e-12) & (abs(fx[2] - model.xi[1] * fx[0]) <= 1e-12)
            for model, fx in ((dag, fd), (leb, fl))
        ],
        lambda i, m: f"{models[m].kind.value} xi={_pair(models[m].xi, i)} {at(i)}: {row(flux[m], i)}",
    )
    record(
        "daganzo-lebacque-equal",
        [close(fd, fl)],
        lambda i, _: f"xi={_pair(dag.xi, i)} {at(i)}: {row(fd, i)} vs {row(fl, i)}",
    )
    record(
        "supply-proportional-is-capacity-priority",
        [close(fp, f_fair)],
        lambda i, _: f"{at(i)}: {row(fp, i)} vs {row(f_fair, i)}",
    )
    record(
        "partial-reduces-to-daganzo",
        [close(f_part_fifo, fd)],
        lambda i, _: f"xi={_pair(dag.xi, i)} {at(i)}: {row(f_part_fifo, i)} vs {row(fd, i)}",
    )
    record(
        "partial-reduces-to-priority",
        [close(f_part_free, f_prio)],
        lambda i, _: f"alpha={_pair(prio.alpha, i)} {at(i)}: {row(f_part_free, i)} vs {row(f_prio, i)}",
    )
    record(
        "partial-route-guarantee",
        [(f_part[1] >= part.xi[0] * f_part[0] - 1e-12) & (f_part[2] >= part.xi[1] * f_part[0] - 1e-12)],
        lambda i, _: f"xi={_pair(part.xi, i)} alpha={_pair(part.alpha, i)} {at(i)}: {row(f_part, i)}",
    )
    evacuation = ((prop, fp), (prio, f_prio), (part_free, f_part_free))
    record(
        "evacuation-optimality",
        [abs(fx[0] - optimal) <= 1e-12 for _, fx in evacuation],
        lambda i, m: (
            f"{evacuation[m][0].kind.value} {at(i)}: "
            f"q0={evacuation[m][1][0][i].item()!r} vs {optimal[i].item()!r}"
        ),
    )

    initial = (TrafficState(d0, c0), TrafficState(c1, s1), TrafficState(c2, s2))
    local, admissible = [], []
    for model, sol in zip(models, solutions):
        up, down1, down2 = sol.interior
        local.append(junction_fluxes(model, up.demand, (down1.supply, down2.supply), sol.interior_proportions))
        ok = True
        for link, (stationary, interior, state, cap) in enumerate(zip(sol.stationary, sol.interior, initial, caps)):
            ok = ok & check_stationary_admissible(stationary, state, link, cap)
            ok = ok & check_interior_admissible(interior, stationary, link, cap)
        admissible.append(ok)
    record(
        "invariance-at-interior-states",
        [close(fx, q) for fx, q in zip(local, flux)],
        lambda i, m: f"{models[m].kind.value} {at(i)}: {row(local[m], i)} vs {row(flux[m], i)}",
    )
    record("admissibility", admissible, lambda i, m: f"{models[m].kind.value} {at(i)}")


def _wave_battery(counterexamples, rng, n, diagrams):
    """n random initial densities, each with five random models: no wave
    travels toward the junction.  The five models' stationary states are
    joined model after model, so each link's states invert to densities in
    one call and wave m * n + i is model m's at sample i."""
    caps = tuple(fd.capacity for fd in diagrams)
    u = rng.random((n, 8))
    densities = [_uniform(u[:, k], 0.0, fd.jam_density) for k, fd in enumerate(diagrams)]
    d0 = diagrams[0].demand(densities[0])
    s1, s2 = (diagrams[k].supply(densities[k]) for k in (1, 2))
    models = _random_models(u[:, 3:])
    solutions = [solve_batch(model, d0, s1, s2, caps) for model in models]
    stationary = [
        TrafficState(np.concatenate([state.demand for state in link]), np.concatenate([state.supply for state in link]))
        for link in zip(*(sol.stationary for sol in solutions))
    ]
    triplet = waves.batch_waves(stationary, diagrams, [np.tile(rho, len(models)) for rho in densities])
    wrong = waves.wrong_signs(triplet).reshape(len(models), n)

    def detail(i, m):
        row = tuple(w.row(m * n + i) for w in triplet)
        return f"{models[m].kind.value}: {waves.sign_error(row, int(wrong[m, i]))}"

    _record_first(counterexamples, "wave-speed-signs", list(wrong < 0), detail)


def _oracle_battery(counterexamples, grid, diagrams):
    """The brute-force oracle against the closed-form fluxes on a grid^3
    (D0, S1, S2) cube, for each model fixture: one oracle call and one
    closed-form call per fixture, over the points in loop order (D0
    slowest)."""
    caps = tuple(fd.capacity for fd in diagrams)
    axes = [np.linspace(0.0, c, grid) for c in caps]
    d0, s1, s2 = (g.ravel() for g in np.meshgrid(*axes, indexing="ij"))
    model_fixtures = (
        daganzo_fifo((0.7, 0.3)),
        lebacque((0.7, 0.3)),
        supply_proportional(),
        priority_based((0.6, 0.4)),
        partial_evacuation((0.3, 0.2), (0.55, 0.45)),
    )
    for model in model_fixtures:
        results = brute_force_batch(model, d0, s1, s2, caps)
        unique = np.array([r.unique for r in results])
        oracle = np.array([r.fluxes if r.unique else (np.nan,) * 3 for r in results]).T
        gap = _max_flux_gap(oracle, solve_fluxes_batch(model, d0, s1, s2, caps))

        def detail(i, _, kind=model.kind.value, results=results, gap=gap):
            at = (d0[i].item(), s1[i].item(), s2[i].item())
            if not results[i].unique:
                return f"{kind} at {at}: {len(results[i].survivors)} survivors"
            return f"{kind} at {at}: gap={gap[i]:.3g}"

        _record_first(counterexamples, "oracle-agreement", [unique & (gap <= 1e-6)], detail)


def property_suite(spec):
    """Randomized battery of the solver's structural properties on the
    spec's three diagrams, checked as array code over blocks of samples.
    The battery draws its own models; the spec's model is not used.

    Every failure is reported with the first counterexample verbatim.
    """
    rng = np.random.default_rng(spec.seed)
    diagrams = spec.sim.diagrams
    report = Report("props", spec.config_hash, spec.seed)
    n = spec.samples

    counterexamples = {}
    for start in range(0, n, _BLOCK):
        _flux_battery(counterexamples, rng, min(_BLOCK, n - start), diagrams)
    for start in range(0, spec.wave_samples, _BLOCK):
        _wave_battery(counterexamples, rng, min(_BLOCK, spec.wave_samples - start), diagrams)

    _oracle_battery(counterexamples, spec.oracle_grid, diagrams)

    extents = {
        "wave-speed-signs": f"{spec.wave_samples} samples",
        "oracle-agreement": f"{spec.oracle_grid}^3 grid",
    }
    for name, counterexample in counterexamples.items():
        if counterexample is None:
            report.add(name, True, extents.get(name, f"{n} samples"))
        else:
            report.add(name, False, f"counterexample: {counterexample}")
    return report, {"tables": {}}
