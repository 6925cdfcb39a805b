"""Brute-force reference solver for the diverge Riemann problem.

Independent cross-check of the closed-form fluxes in `riemann.solve_fluxes`,
built only from first principles:

1. Enumerate candidate flux triples.  Admissibility bounds the fluxes by
   q0 <= D0 and qi <= Si, and each bound is either strict or tight, so
   candidates come from a uniform flux grid joined with every combination of
   tight bounds (for routed models the split qi = xi * q0 is fixed, for
   evacuation models the tie pattern itself pins or parameterizes the triple).
2. For each candidate, build the stationary states the fluxes force (tight
   upstream bound -> (D0, C0), strict -> (C0, q0); tight downstream bound ->
   (Ci, Si), strict -> (qi, Ci)) and with them the admissible interior ranges:
   a strict bound pins the interior to the stationary state, a tight bound
   leaves the interior demand (upstream) or supply (downstream) free in
   [0, capacity].
3. Keep the candidate when some admissible interior assignment (and, for
   routed models, some interior commodity split summing to one) reproduces it
   through the model's local entropy rule.  The search uses exact interval
   logic for the routed rules and dense scans with zoom refinement for the
   evacuation rules.

The surviving triples, deduplicated, should be exactly one point: the flux
solution.  Everything here is deliberately decoupled from the closed forms
under test; only the local entropy rules themselves are (independently)
re-evaluated.

`probe_interior_unique` cross-checks the closed-form interior uniqueness
flags of `riemann.solve` the same way: it scans each tight link's interior
coordinate over its whole range for a second state the entropy rule accepts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .riemann import DivergeModelKind, RiemannInput

__all__ = ["OracleResult", "brute_force_fluxes", "probe_interior_unique"]

_BOUND_TOL = 1e-9  # tight-versus-strict decision for candidate bounds
_FEAS_TOL = 5e-8  # residual below which an entropy equality counts as met
_DEDUP_TOL = 1e-7
# interior uniqueness probe: scan points per link, the flux residual accepted
# as a match, and the distance below which a point is the canonical interior
_PROBE_POINTS = 33
_PROBE_TOL = 1e-10
_PROBE_EXCLUDE = 1e-9
_PROBE_TIGHT_TOL = 1e-12  # the solver's tight-bound decision


@dataclass(frozen=True)
class OracleResult:
    survivors: tuple

    @property
    def unique(self):
        return len(self.survivors) == 1

    @property
    def fluxes(self):
        if not self.unique:
            raise ValueError(f"oracle found {len(self.survivors)} surviving flux triples")
        return self.survivors[0]


def _rule_pair(model, d0, s1, s2):
    """The model's local entropy rule, re-evaluated mechanically (numpy ok).
    Routed rules are handled by the interval logic instead."""
    kind = model.kind
    if kind is DivergeModelKind.SUPPLY_PROPORTIONAL:
        total = np.asarray(s1 + s2, dtype=float)
        safe = np.where(total > 0.0, total, 1.0)
        scale = np.where(total > 0.0, np.minimum(1.0, d0 / safe), 0.0)
        return scale * s1, scale * s2
    if kind is DivergeModelKind.PRIORITY_BASED:
        a1, a2 = model.alpha
        q1 = np.minimum(s1, np.maximum(d0 - s2, a1 * d0))
        q2 = np.minimum(s2, np.maximum(d0 - s1, a2 * d0))
        return q1, q2
    if kind is DivergeModelKind.PARTIAL_EVACUATION:
        x1, x2 = model.xi
        a1, a2 = model.alpha
        cap1 = s2 * (1.0 - x2) / x2 if x2 > 0.0 else np.inf
        cap2 = s1 * (1.0 - x1) / x1 if x1 > 0.0 else np.inf
        q1 = np.minimum(s1, np.minimum(cap1, np.maximum(d0 - s2, a1 * d0)))
        q2 = np.minimum(s2, np.minimum(cap2, np.maximum(d0 - s1, a2 * d0)))
        return q1, q2
    raise ValueError(f"no evacuation rule for {kind}")


# ---------------------------------------------------------------------------
# routed models: exact interval feasibility

def _min_equation_feasible(target, intervals, tol=_BOUND_TOL):
    """Can min(x1, x2, x3) == target with each xk in its interval?"""
    if any(hi < target - tol for _, hi in intervals):
        return False
    return any(lo <= target + tol for lo, _ in intervals)


def _lebacque_feasible(q0, q1, q2, r0, r1, r2, tol=_BOUND_TOL):
    """Existence of interior demand, supplies, and a commodity split (p1, p2),
    p1 + p2 = 1, with min(pi * demand, supply_i) == qi."""
    can_a = []  # share-bound branch: pi * demand == qi needs supply >= qi
    can_b = []  # supply-bound branch: supply == qi needs pi * demand >= qi
    for (lo, hi), qi in ((r1, q1), (r2, q2)):
        can_a.append(hi >= qi - tol)
        can_b.append(lo - tol <= qi <= hi + tol)
    lo0, hi0 = r0
    if can_a[0] and can_a[1] and lo0 - tol <= q0 <= hi0 + tol:
        return True  # both shares bind: demand must equal q0
    demand_ok = hi0 >= q0 - tol  # otherwise any demand >= q0 works
    if demand_ok and can_a[0] and can_b[1]:
        return True
    if demand_ok and can_b[0] and can_a[1]:
        return True
    if demand_ok and can_b[0] and can_b[1]:
        return True
    return False


def _routed_survivors(model, inp, flux_grid):
    d0 = inp.demand_upstream
    s1, s2 = inp.supplies
    c0, c1, c2 = inp.capacities
    x1, x2 = model.xi
    upper = min(d0, c0)
    candidates = set(np.linspace(0.0, upper, flux_grid))
    candidates.update(v for v in (d0, s1 / x1, s2 / x2) if 0.0 <= v <= upper + _BOUND_TOL)
    survivors = []
    for q0 in sorted(candidates):
        q0 = min(max(q0, 0.0), upper)
        q1, q2 = x1 * q0, x2 * q0
        if q1 > s1 + _BOUND_TOL or q2 > s2 + _BOUND_TOL:
            continue
        r0 = (0.0, c0) if q0 >= d0 - _BOUND_TOL else (c0, c0)
        r1 = (0.0, c1) if q1 >= s1 - _BOUND_TOL else (c1, c1)
        r2 = (0.0, c2) if q2 >= s2 - _BOUND_TOL else (c2, c2)
        if model.kind is DivergeModelKind.DAGANZO_FIFO:
            terms = [r0, (r1[0] / x1, r1[1] / x1), (r2[0] / x2, r2[1] / x2)]
            ok = _min_equation_feasible(q0, terms)
        else:
            ok = _lebacque_feasible(q0, q1, q2, r0, r1, r2)
        if ok:
            survivors.append((q0, q1, q2))
    return survivors


# ---------------------------------------------------------------------------
# evacuation models: tie-pattern enumeration with scanning

def _axis(lo, hi, specials, n):
    values = np.linspace(lo, hi, n)
    extra = [v for v in specials if np.isfinite(v) and lo <= v <= hi]
    if extra:
        values = np.concatenate([values, extra])
    return np.unique(values)


def _scan_feasible(model, targets, boxes, fixed, specials, n_grid):
    """Minimize the entropy residual over the free interior coordinates.

    `boxes` maps coordinate name (d, s1, s2) to its interval; the remaining
    coordinates are pinned in `fixed`.  A coarse grid (with special values
    known to sit at kinks) is refined by zooming around the best points.
    """
    names = list(boxes)
    axes = [_axis(*boxes[name], specials.get(name, ()), n_grid) for name in names]

    def residual(coords):
        values = dict(fixed)
        values.update(zip(names, coords))
        q1, q2 = _rule_pair(model, values["d"], values["s1"], values["s2"])
        return np.abs(q1 - targets[0]) + np.abs(q2 - targets[1])

    mesh = np.meshgrid(*axes, indexing="ij")
    res = residual([m.ravel() for m in mesh])
    order = np.argsort(res)
    best = float(res[order[0]])
    if best <= _FEAS_TOL:
        return True
    if best > 0.08:  # far above anything a between-grid zero could produce
        return False
    flat = [m.ravel() for m in mesh]
    for idx in order[:3]:
        center = [float(f[idx]) for f in flat]
        width = [(hi - lo) / (len(ax) - 1) for (lo, hi), ax in zip(boxes.values(), axes)]
        for _ in range(20):
            local_axes = [
                np.clip(np.linspace(c - w, c + w, 7), lo, hi)
                for c, w, (lo, hi) in zip(center, width, boxes.values())
            ]
            lm = np.meshgrid(*local_axes, indexing="ij")
            lr = residual([m.ravel() for m in lm])
            k = int(np.argmin(lr))
            center = [float(m.ravel()[k]) for m in lm]
            width = [w / 3.0 for w in width]
            if float(lr[k]) <= _FEAS_TOL:
                return True
    return False


def _bisect_monotone(fn, lo, hi, iters=100):
    """Root of a nondecreasing fn on [lo, hi]; None when fn(hi) < 0."""
    f_lo, f_hi = fn(lo), fn(hi)
    if f_hi < -_FEAS_TOL:
        return None
    if f_lo > _FEAS_TOL:
        return None
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _evacuation_survivors(model, inp, scan_grid):
    d0 = inp.demand_upstream
    s1, s2 = inp.supplies
    c0, c1, c2 = inp.capacities
    eps = _BOUND_TOL
    survivors = []

    def pair(d, a, b):
        q1, q2 = _rule_pair(model, d, a, b)
        return float(q1), float(q2)

    def scaled_specials(t1, t2):
        out = {c0, c1, c2, d0, s1, s2, t1, t2, t1 + t2}
        for num, den in ((t1, t2), (t2, t1)):
            if den > eps:
                out.update((num * c1 / den, num * c2 / den, num * d0 / den))
        return out

    # no tight bound: every interior state is pinned
    q1, q2 = pair(c0, c1, c2)
    if q1 < s1 - eps and q2 < s2 - eps and q1 + q2 < d0 - eps:
        survivors.append((q1 + q2, q1, q2))

    # q0 = D0 tight only: scan the free interior demand
    root = _bisect_monotone(lambda d: sum(pair(d, c1, c2)) - d0, 0.0, c0)
    if root is not None:
        q1, q2 = pair(root, c1, c2)
        if q1 < s1 - eps and q2 < s2 - eps:
            survivors.append((q1 + q2, q1, q2))

    # one downstream bound tight: scan that link's free interior supply
    for i, (si, ci, sj, cj) in enumerate(((s1, c1, s2, c2), (s2, c2, s1, c1))):
        def f1(x, _i=i):
            q = pair(c0, x, cj) if _i == 0 else pair(c0, cj, x)
            return q[_i] - si
        root = _bisect_monotone(f1, 0.0, ci)
        if root is None:
            continue
        q = pair(c0, root, cj) if i == 0 else pair(c0, cj, root)
        qi, qj = q[i], q[1 - i]
        if qj < sj - eps and qi + qj < d0 - eps:
            trip = (qi + qj, qi, qj) if i == 0 else (qi + qj, qj, qi)
            survivors.append(trip)

    # q0 = D0 and one downstream bound tight: fluxes are pinned, scan 2-D
    for i in range(2):
        si = (s1, s2)[i]
        sj = (s1, s2)[1 - i]
        qi, qj = si, d0 - si
        if qj < -eps or qj >= sj - eps:
            continue
        targets = (qi, qj) if i == 0 else (qj, qi)
        sp = scaled_specials(*targets)
        boxes = {"d": (0.0, c0), "s1" if i == 0 else "s2": (0.0, (c1, c2)[i])}
        fixed = {"s2" if i == 0 else "s1": (c2, c1)[i]}
        if _scan_feasible(model, targets, boxes, fixed, {k: sp for k in boxes}, scan_grid):
            survivors.append((d0, targets[0], targets[1]))

    # both downstream bounds tight, q0 strict
    if s1 + s2 < d0 - eps:
        sp = scaled_specials(s1, s2)
        if _scan_feasible(
            model,
            (s1, s2),
            {"s1": (0.0, c1), "s2": (0.0, c2)},
            {"d": c0},
            {"s1": sp, "s2": sp},
            scan_grid,
        ):
            survivors.append((s1 + s2, s1, s2))

    # everything tight
    if abs(s1 + s2 - d0) <= eps:
        sp = scaled_specials(s1, s2)
        if _scan_feasible(
            model,
            (s1, s2),
            {"d": (0.0, c0), "s1": (0.0, c1), "s2": (0.0, c2)},
            {},
            {"d": sp, "s1": sp, "s2": sp},
            max(13, scan_grid // 2),
        ):
            survivors.append((d0, s1, s2))

    return survivors


def brute_force_fluxes(model, inp: RiemannInput, flux_grid=41, scan_grid=21):
    """Enumerate and filter candidate flux triples; return the survivors."""
    if model.kind in (DivergeModelKind.DAGANZO_FIFO, DivergeModelKind.LEBACQUE):
        raw = _routed_survivors(model, inp, flux_grid)
    else:
        raw = _evacuation_survivors(model, inp, scan_grid)
    deduped = []
    for trip in raw:
        if not any(max(abs(a - b) for a, b in zip(trip, kept)) <= _DEDUP_TOL for kept in deduped):
            deduped.append(trip)
    return OracleResult(tuple(deduped))


# ---------------------------------------------------------------------------
# interior uniqueness: scan each tight link's interior coordinate

def _reproduces(model, d, s1, s2, fluxes):
    """Does the local rule reproduce `fluxes` at interior demand d and
    interior supplies (s1, s2), for some admissible interior split?"""
    q0, q1, q2 = fluxes
    if model.kind is DivergeModelKind.LEBACQUE:
        return _lebacque_feasible(q0, q1, q2, (d, d), (s1, s1), (s2, s2), tol=_PROBE_TOL)
    if model.kind is DivergeModelKind.DAGANZO_FIFO:
        t1, t2 = s1 / model.xi[0], s2 / model.xi[1]
        return _min_equation_feasible(q0, [(d, d), (t1, t1), (t2, t2)], tol=_PROBE_TOL)
    r1, r2 = (float(q) for q in _rule_pair(model, d, s1, s2))
    return all(abs(a - b) <= _PROBE_TOL for a, b in zip((r1 + r2, r1, r2), fluxes))


def probe_interior_unique(model, inp: RiemannInput, solution):
    """Interior uniqueness flags (upstream, down 1, down 2) by scanning.

    A strict bound (q0 < D0, qi < Si) pins the link's interior.  For a tight
    one, _PROBE_POINTS evenly spaced values of the interior demand (upstream)
    or supply (downstream) over [0, capacity], plus the initial value, the
    flux and the capacity, are tried with the other links at the solution's
    interiors; the link is unique when no value away from its canonical
    interior reproduces the fluxes.
    """
    fluxes = solution.fluxes
    d0 = inp.demand_upstream
    supplies = inp.supplies
    caps = inp.capacities
    point = (
        solution.interior_upstream.demand,
        solution.interior_downstream[0].supply,
        solution.interior_downstream[1].supply,
    )
    bounds = (d0,) + tuple(supplies)
    flags = []
    for k in range(3):
        if fluxes[k] < bounds[k] - _PROBE_TIGHT_TOL:
            flags.append(True)
            continue
        values = list(np.linspace(0.0, caps[k], _PROBE_POINTS))
        values += [v for v in (bounds[k], fluxes[k], caps[k]) if 0.0 <= v <= caps[k]]
        found = any(
            _reproduces(model, *point[:k], x, *point[k + 1:], fluxes)
            for x in values
            if abs(x - point[k]) > _PROBE_EXCLUDE
        )
        flags.append(not found)
    return tuple(flags)
