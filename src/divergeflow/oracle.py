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

`brute_force_models` runs the whole procedure as array code over all the
points (D0[k], S1[k], S2[k]) of a grid for several models at once: the
routed candidates of each routed model form a (points, candidates) array,
and the evacuation models' points are laid end to end in one batch, each
run of points evaluating the entropy rule with its own model's parameters.
In that batch the three tie patterns with one bound tight share one masked
array bisection, and each scanned tie pattern makes one scan, which
evaluates the entropy rule on at most _MESH_BUDGET mesh entries at a time,
coarse or zoom.  Each point takes the same candidates, midpoints, meshes
and zoom steps it would take alone, so its survivors depend neither on the
batch nor on the other models in it; `brute_force_batch` is
brute_force_models of one model and `brute_force_fluxes` its batch of one.

Two stop rules skip work that cannot change a survivor.  A zoom row stops
once its residual reaches _FEAS_TOL or once a slope bound of its rule (see
_slope_bound) shows that no later step can reach it, and the bisection
stops calling the rule once every element still moving has a nonnegative
rule excess at the low end of its bracket, so that each of its steps
halves toward that end.  Both depend on the point and its rule alone, and
every root, mesh and zoom step that can still decide a survivor is the one
taken without them.

`probe_interior_unique_batch` cross-checks the closed-form interior
uniqueness flags of `riemann.solve_batch` the same way: it scans each tight
link's interior coordinate over its whole range for a second state the
entropy rule accepts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .riemann import DivergeModelKind, RiemannInput

__all__ = [
    "OracleResult",
    "brute_force_batch",
    "brute_force_fluxes",
    "brute_force_models",
    "probe_interior_unique_batch",
]

_BOUND_TOL = 1e-9  # tight-versus-strict decision for candidate bounds
_FEAS_TOL = 5e-8  # residual below which an entropy equality counts as met
_DEDUP_TOL = 1e-7
# flux-grid candidates per routed point, and coarse scan mesh points per axis
# of the evacuation rules, keyed by the number of free interior axes
_FLUX_GRID = 41
_SCAN_GRID = {2: 21, 3: 13}
# interior uniqueness probe: scan points per link, the flux residual accepted
# as a match, and the distance below which a point is the canonical interior
_PROBE_POINTS = 33
_PROBE_TOL = 1e-10
_PROBE_EXCLUDE = 1e-9
_PROBE_TIGHT_TOL = 1e-12  # the solver's tight-bound decision
# scan mesh entries per evaluation of the rule, coarse or zoom; every other
# array holds a few dozen floats per point
_MESH_BUDGET = 1 << 14


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


def _parameters(model):
    """An evacuation rule's parameters (proportional, x1, x2, a1, a2) as
    floats: proportional is 1.0 for the supply-proportional rule and 0.0 for
    the others, and the priority rule is partial evacuation with xi = 0."""
    kind = model.kind
    if kind is DivergeModelKind.SUPPLY_PROPORTIONAL:
        return (1.0, 0.0, 0.0, 0.0, 0.0)
    if kind is DivergeModelKind.PRIORITY_BASED:
        return (0.0, 0.0, 0.0, *model.alpha)
    if kind is DivergeModelKind.PARTIAL_EVACUATION:
        return (0.0, *model.xi, *model.alpha)
    raise ValueError(f"no evacuation rule for {kind}")


def _runs(rule, points):
    """Per-point evacuation rules as runs of consecutive points: a list of
    (stop, parameters), run k covering the points from the stop before it
    (0 for the first) up to its own.  A model's is one run over all the
    points; a list of runs is returned as given."""
    return rule if isinstance(rule, list) else [(points, _parameters(rule))]


def _take(runs, rows):
    """The runs of the points `rows` (ascending), renumbered from 0."""
    stops = np.searchsorted(rows, [stop for stop, _ in runs]).tolist()
    return [(stop, params) for stop, start, (_, params) in zip(stops, [0] + stops, runs) if stop > start]


def _slope_bound(proportional, x1, x2, a1, a2):
    """L with |qi(p) - qi(c)| <= L * sum_k |pk - ck| for both fluxes of a
    rule at any two interior points p, c: every term of the rule moves at
    most as fast as a coordinate, except the caps qi <= Sj (1 - xj) / xj,
    which move (1 - xj) / xj as fast as Sj.  So 1 for the supply-proportional
    and priority rules."""
    return max([1.0] + [(1.0 - x) / x for x in (x1, x2) if x > 0.0])


def _pair(proportional, x1, x2, a1, a2, d0, s1, s2):
    """One rule's pair (q1, q2), its parameters floats."""
    if proportional:
        total = np.asarray(s1 + s2, dtype=float)
        # min(1, D0 / total), divided only where total exceeds D0: a quotient
        # above 1 overflows for a subnormal total
        room = total > d0
        scale = np.where(room, d0 / np.where(room, total, 1.0), 1.0)
        return scale * s1, scale * s2
    cap1 = s2 * (1.0 - x2) / x2 if x2 > 0.0 else np.inf
    cap2 = s1 * (1.0 - x1) / x1 if x1 > 0.0 else np.inf
    q1 = np.minimum(s1, np.minimum(cap1, np.maximum(d0 - s2, a1 * d0)))
    q2 = np.minimum(s2, np.minimum(cap2, np.maximum(d0 - s1, a2 * d0)))
    return q1, q2


def _rule_pair(rule, d0, s1, s2):
    """The local entropy rule, re-evaluated mechanically (numpy ok), of a
    model, or of per-point runs (see _runs) along the leading axis of the
    coordinates, each run evaluated with its own parameters.  Routed rules
    are handled by the interval logic instead."""
    if not isinstance(rule, list):
        return _pair(*_parameters(rule), d0, s1, s2)
    if len(rule) == 1:
        return _pair(*rule[0][1], d0, s1, s2)
    ndim = max(np.ndim(v) for v in (d0, s1, s2))
    # a coordinate runs along the points when it has their leading axis
    coords = [(v, np.ndim(v) == ndim and len(v) > 1) for v in (d0, s1, s2)]
    parts = []
    start = 0
    for stop, params in rule:
        run = slice(start, stop)
        parts.append(_pair(*params, *[v[run] if along else v for v, along in coords]))
        start = stop
    q1, q2 = zip(*parts)
    return np.concatenate(q1), np.concatenate(q2)


def _linspace_rows(start, stop, n):
    """np.linspace(start[k], stop[k], n) along the last axis for every k,
    each row bitwise its scalar call: numpy's array linspace switches every
    row to its subnormal-step arithmetic once one row needs it."""
    start = np.asarray(start, dtype=float)[..., None]
    stop = np.asarray(stop, dtype=float)[..., None]
    delta = stop - start
    k = np.arange(n, dtype=float)
    step = delta / (n - 1)
    y = np.where(step == 0, k / (n - 1) * delta, k * step) + start
    y[..., -1] = stop[..., 0]
    return y


def _either(masks):
    return reduce(np.logical_or, masks)


# ---------------------------------------------------------------------------
# routed models: exact interval feasibility

def _min_equation_feasible(target, intervals, tol=_BOUND_TOL):
    """Can min(x1, x2, x3) == target with each xk in its interval?
    Elementwise over arrays of targets and interval ends."""
    above = ~_either([hi < target - tol for _, hi in intervals])
    return above & _either([lo <= target + tol for lo, _ in intervals])


def _lebacque_feasible(q0, q1, q2, r0, r1, r2, tol=_BOUND_TOL):
    """Existence of interior demand, supplies, and a commodity split (p1, p2),
    p1 + p2 = 1, with min(pi * demand, supply_i) == qi.  Elementwise."""
    # share-bound branch: pi * demand == qi needs supply >= qi;
    # supply-bound branch: supply == qi needs pi * demand >= qi
    can_a = [hi >= qi - tol for (_, hi), qi in ((r1, q1), (r2, q2))]
    can_b = [(lo - tol <= qi) & (qi <= hi + tol) for (lo, hi), qi in ((r1, q1), (r2, q2))]
    lo0, hi0 = r0
    both_shares = can_a[0] & can_a[1] & (lo0 - tol <= q0) & (q0 <= hi0 + tol)  # demand must equal q0
    demand_ok = hi0 >= q0 - tol  # otherwise any demand >= q0 works
    one_supply = (can_a[0] & can_b[1]) | (can_b[0] & can_a[1]) | (can_b[0] & can_b[1])
    return both_shares | (demand_ok & one_supply)


def _routed_survivors(model, d0, s1, s2, capacities):
    """Per point, the candidate triples (q0, x1 q0, x2 q0) and whether the
    interval logic keeps each, as (points, candidates) arrays in ascending
    q0.  The candidates are the flux grid over [0, min(D0, C0)] joined with
    the tight values D0, S1 / x1 and S2 / x2 that fall in that range."""
    c0, c1, c2 = capacities
    x1, x2 = model.xi
    d0, s1, s2 = d0[:, None], s1[:, None], s2[:, None]
    upper = np.where(c0 < d0, c0, d0)
    tight = np.concatenate([d0, s1 / x1, s2 / x2], axis=1)
    tight = np.where((0.0 <= tight) & (tight <= upper + _BOUND_TOL), tight, np.nan)
    q0 = np.sort(np.concatenate([_linspace_rows(0.0, upper[:, 0], _FLUX_GRID), tight], axis=1), axis=1)
    q0 = np.where(upper < q0, upper, q0)  # a tight value within _BOUND_TOL above the range
    q1, q2 = x1 * q0, x2 * q0
    keep = ~np.isnan(q0) & ~(q1 > s1 + _BOUND_TOL) & ~(q2 > s2 + _BOUND_TOL)
    r0 = (np.where(q0 >= d0 - _BOUND_TOL, 0.0, c0), c0)
    r1 = (np.where(q1 >= s1 - _BOUND_TOL, 0.0, c1), c1)
    r2 = (np.where(q2 >= s2 - _BOUND_TOL, 0.0, c2), c2)
    if model.kind is DivergeModelKind.DAGANZO_FIFO:
        terms = [r0, (r1[0] / x1, r1[1] / x1), (r2[0] / x2, r2[1] / x2)]
        ok = _min_equation_feasible(q0, terms)
    else:
        ok = _lebacque_feasible(q0, q1, q2, r0, r1, r2)
    return keep & ok, q0, q1, q2


# ---------------------------------------------------------------------------
# evacuation models: tie-pattern enumeration with scanning

def _axes(lo, hi, specials, n, points):
    """Each point's scan axis: np.unique of the n-point grid over [lo, hi]
    joined with its finite specials inside [lo, hi].  Returned as a
    (points, longest) array, each row padded with hi (its largest value),
    and the row lengths."""
    grid = np.broadcast_to(np.linspace(lo, hi, n), (points, n))
    extra = np.broadcast_to(np.asarray(specials, dtype=float), (points, np.shape(specials)[-1]))
    extra = np.where(np.isfinite(extra) & (lo <= extra) & (extra <= hi), extra, np.inf)
    values = np.sort(np.concatenate([grid, extra], axis=1), axis=1)
    new = np.isfinite(values)
    new[:, 1:] &= values[:, 1:] != values[:, :-1]
    length = new.sum(axis=1)
    axis = np.full((points, length.max()), float(hi))
    rows, _ = np.nonzero(new)
    axis[rows, np.cumsum(new, axis=1)[new] - 1] = values[new]
    return axis, length


def _best_three(mesh):
    """Per row of a (rows, entries) mesh, the indices of its three smallest
    entries in order, ties in index order: np.argsort(row, kind="stable")[:3]
    for a row of finite entries, whatever sort kernel numpy picks for the
    CPU.  np.argmin returns the first of tied minima."""
    mesh = mesh.copy()
    row = np.arange(len(mesh))
    best = []
    for _ in range(3):
        best.append(np.argmin(mesh, axis=1))
        mesh[row, best[-1]] = np.inf
    return np.stack(best, axis=1)


def _scan_feasible(rule, targets, boxes, fixed, specials):
    """Per point, minimize the entropy residual over the free interior
    coordinates; True where it reaches _FEAS_TOL.  `rule` is a model or
    per-point runs (see _runs).

    `boxes` maps coordinate name (d, s1, s2) to its interval; the remaining
    coordinates are pinned in `fixed`.  The targets (t1, t2) are floats or
    (points,) arrays, and `specials` holds values known to sit at kinks,
    shared (m,) or per point (points, m), joined to every box axis.  Each
    axis has _SCAN_GRID[len(boxes)] grid points; each point's coarse mesh is
    refined by zooming around its three best mesh points when its best
    residual is small but above _FEAS_TOL.  A zoom row stops once it reaches
    _FEAS_TOL or once the slope bound of its point's rule rules that out
    (see zoom), so the rows that stop early are ones that could never reach
    it, and each point's answer is the one the full 20 steps would give.
    """
    t1, t2 = np.broadcast_arrays(*(np.atleast_1d(np.asarray(t, dtype=float)) for t in targets))
    points = t1.size
    runs = _runs(rule, points)
    names = list(boxes)
    ndim = len(names)
    axes, lengths = zip(*(_axes(*boxes[name], specials, _SCAN_GRID[ndim], points) for name in names))
    # each box's ends, and the box index, shaped as zoom's (ndim, rows, 7)
    lo, hi = np.array(list(boxes.values()), dtype=float).T[:, :, None, None]
    axis = np.arange(ndim)[:, None]

    def residual(coords, rows, rules):
        """Residuals on the grids coords[k] (shaped to broadcast against each
        other), the leading axis running over `rows` of the targets, whose
        runs are `rules`."""
        values = dict(fixed)
        values.update(zip(names, coords))
        lead = (-1,) + (1,) * ndim
        q1, q2 = _rule_pair(rules, values["d"], values["s1"], values["s2"])
        # in place, as the rule's pair is two new arrays of the mesh's shape:
        # fewer mesh-sized temporaries to allocate and free
        for q, t in ((q1, t1), (q2, t2)):
            np.abs(np.subtract(q, t[rows].reshape(lead), out=q), out=q)
        return np.add(q1, q2, out=q1)

    def along(k, values):
        """values (rows, m) shaped as mesh axis k."""
        return values.reshape((len(values),) + tuple(-1 if j == k else 1 for j in range(ndim)))

    def zoom(rows, centre, width):
        """Up to 20 zoom steps from each row's centre, with 7 points per axis
        spanning +-width, a third as wide each step; True where a step's
        best residual reaches _FEAS_TOL.  centre and width are (ndim, rows).

        A row stops once it hits, or once a slope bound rules a hit out:
        every later zoom point lies within 1.5 * width (the new width) of
        the new centre along each axis, and each flux moves at most
        _slope_bound times the l1 distance, so no later step gets the
        residual r of the new centre below r - 3 * L * sum(width).  A row
        stops when that exceeds 2 * _FEAS_TOL (one _FEAS_TOL of room for
        rounding); it could never have hit, and every other row takes the
        steps it took before, so no answer changes."""
        rules = _take(runs, rows)
        slope = np.repeat([_slope_bound(*params) for _, params in rules], np.diff([0] + [stop for stop, _ in rules]))
        hit = np.zeros(len(rows), dtype=bool)
        live = np.arange(len(rows))
        for _ in range(20):
            pick = np.arange(len(live))
            local = np.clip(_linspace_rows(centre - width, centre + width, 7), lo, hi)
            mesh = [along(k, a) for k, a in enumerate(local)]
            lr = residual(mesh, rows[live], _take(rules, live)).reshape(len(live), -1)
            best = np.argmin(lr, axis=1)
            centre = local[axis, pick, np.unravel_index(best, (7,) * ndim)]
            width = width / 3.0
            r = lr[pick, best]
            hit[live] = r <= _FEAS_TOL
            stay = ~hit[live] & ~(r - 3.0 * slope[live] * width.sum(axis=0) > 2.0 * _FEAS_TOL)
            if not stay.any():
                break
            live, centre, width = live[stay], centre[:, stay], width[:, stay]
        return hit

    feasible = np.zeros(points, dtype=bool)
    rows, centres, widths = [np.zeros(0, dtype=int)], [np.zeros((ndim, 0))], [np.zeros((ndim, 0))]
    shape = tuple(a.shape[1] for a in axes)
    chunk = max(1, _MESH_BUDGET // int(np.prod(shape)))
    for start in range(0, points, chunk):
        span = np.arange(start, min(start + chunk, points))
        res = residual([along(k, a[span]) for k, a in enumerate(axes)], span, _take(runs, span))
        best = res.reshape(len(span), -1).min(axis=1)
        feasible[span] = best <= _FEAS_TOL
        # zoom only where the best residual is above _FEAS_TOL but within
        # 0.08, far above anything a between-grid zero could produce, around
        # the point's three best entries of its own mesh: the entries past
        # its axis lengths repeat its last values and are left out
        near = ~(best <= _FEAS_TOL) & ~(best > 0.08)
        if near.any():
            at = span[near]
            outside = [along(k, np.arange(m) >= n[at][:, None]) for k, (m, n) in enumerate(zip(shape, lengths))]
            mesh = np.where(_either(outside), np.inf, res[near])
            idx = np.unravel_index(_best_three(mesh.reshape(len(at), -1)), shape)
            rows.append(np.repeat(at, 3))
            centres.append(np.stack([a[at[:, None], i].ravel() for a, i in zip(axes, idx)]))
            widths.append(np.repeat((hi - lo)[:, 0] / (np.stack([n[at] for n in lengths]) - 1), 3, axis=1))

    rows, centres, widths = np.concatenate(rows), np.concatenate(centres, axis=1), np.concatenate(widths, axis=1)
    chunk = max(1, _MESH_BUDGET // 7**ndim)
    for start in range(0, len(rows), chunk):
        part = slice(start, start + chunk)
        hit = zoom(rows[part], centres[:, part], widths[:, part])
        feasible[rows[part][hit]] = True
    return feasible


def _bisect_monotone(fn, lo, hi):
    """Elementwise root of a nondecreasing fn on [lo, hi] by one masked
    array bisection; NaN where fn(hi) < 0 or fn(lo) > 0.

    fn maps an array of abscissae to an array of values.  An element stops
    once its midpoint rounds onto an end of its bracket (every later step
    would return that same midpoint), for at most 100 steps.  An element
    with fn(lo) >= 0 has fn(mid) >= 0 at every midpoint, so its bracket
    halves toward lo whatever fn says: fn is called once per step while an
    element with fn(lo) < 0 still moves, and the steps after that update
    the brackets alone, to the same roots."""
    f_lo, f_hi = np.asarray(fn(lo)), np.asarray(fn(hi))
    shape = np.broadcast(lo, hi, f_lo, f_hi).shape
    lo, hi = (np.broadcast_to(np.asarray(v, dtype=float), shape) for v in (lo, hi))
    moving = np.broadcast_to(~(f_hi < -_FEAS_TOL) & ~(f_lo > _FEAS_TOL), shape)
    settled = np.broadcast_to(f_lo >= 0.0, shape)
    root = np.full(shape, np.nan)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        stalled = moving & ((mid == lo) | (mid == hi))
        root = np.where(stalled, mid, root)
        moving = moving & ~stalled
        if not moving.any():
            return root
        below = np.asarray(fn(mid)) < 0.0 if (moving & ~settled).any() else False
        lo = np.where(moving & below, mid, lo)
        hi = np.where(moving & ~below, mid, hi)
    return np.where(moving, 0.5 * (lo + hi), root)


def _scaled_specials(capacities, d0, s1, s2, t1, t2):
    """Per point, the kink values of a scan toward the fluxes (t1, t2): the
    data, the targets, and the targets' ratio times each capacity and D0.
    NaN marks a ratio whose denominator is not above _BOUND_TOL."""
    c0, c1, c2 = capacities
    plain = [np.broadcast_to(v, d0.shape) for v in (c0, c1, c2, d0, s1, s2, t1, t2, t1 + t2)]
    ratios = [
        np.where(den > _BOUND_TOL, num * v / np.where(den > _BOUND_TOL, den, 1.0), np.nan)
        for num, den in ((t1, t2), (t2, t1))
        for v in (c1, c2, d0)
    ]
    return np.stack(plain + ratios, axis=1)


def _one_bound_ties(rule, d0, s1, s2, capacities):
    """The tie patterns with one bound tight alone (q0 = D0, q1 = S1, q2 =
    S2) by one masked bisection: row k frees interior coordinate k (the
    demand, supply 1 or supply 2) over [0, Ck] and holds the other two at
    capacity.  Returns the roots, NaN where a pattern has none, and the
    rule's pair (q1, q2) at them, each (3, points).  `rule` is a model or
    per-point runs (see _runs)."""
    caps = np.array(capacities, dtype=float)
    # coords[j, :, k] is coordinate j of row k: capacity except where j = k,
    # which each call overwrites (the rule returns new arrays); the points
    # lie along the leading axis of each coordinate, as the runs do
    coords = np.broadcast_to(caps[:, None, None], (3, d0.size, 3)).copy()
    runs = _runs(rule, d0.size)
    diagonal = np.arange(3)

    def pair(x):
        coords[diagonal, :, diagonal] = x
        q1, q2 = _rule_pair(runs, *coords)
        return q1.T, q2.T

    def excess(x):
        q1, q2 = pair(x)
        return np.stack([q1[0] + q2[0] - d0, q1[1] - s1, q2[2] - s2])

    root = _bisect_monotone(excess, 0.0, caps[:, None])
    return (root, *pair(root))


def _evacuation_survivors(runs, d0, s1, s2, capacities):
    """Per point, one candidate triple per tie pattern and whether it
    survives, as (points, patterns) arrays in enumeration order, each point
    evaluated with the rule of its run (see _runs)."""
    c0, c1, c2 = capacities
    eps = _BOUND_TOL
    found = []  # (survives, q0, q1, q2) per tie pattern

    # no tight bound: every interior state is pinned
    q1, q2 = _rule_pair(runs, *(np.full(d0.shape, c) for c in capacities))
    found.append(((q1 < s1 - eps) & (q2 < s2 - eps) & (q1 + q2 < d0 - eps), q1 + q2, q1, q2))

    # one bound tight alone: the two bounds a row does not tie must be strict
    root, q1, q2 = _one_bound_ties(runs, d0, s1, s2, capacities)
    q0 = q1 + q2
    strict = np.stack([q0 < d0 - eps, q1 < s1 - eps, q2 < s2 - eps]) | np.eye(3, dtype=bool)[:, :, None]
    found += zip(~np.isnan(root) & strict.all(axis=0), q0, q1, q2)

    def scanned(candidate, targets, boxes, fixed):
        """Scan the candidate points toward their targets; False elsewhere."""
        ok = np.zeros(d0.shape, dtype=bool)
        at = np.flatnonzero(candidate)
        if at.size:
            t1, t2 = (np.broadcast_to(t, d0.shape)[at] for t in targets)
            sp = _scaled_specials(capacities, d0[at], s1[at], s2[at], t1, t2)
            ok[at] = _scan_feasible(_take(runs, at), (t1, t2), boxes, fixed, sp)
        return ok

    # q0 = D0 and one downstream bound tight: fluxes are pinned, scan 2-D
    for i, (si, sj) in enumerate(((s1, s2), (s2, s1))):
        qj = d0 - si
        targets = (si, qj) if i == 0 else (qj, si)
        boxes = {"d": (0.0, c0), "s1" if i == 0 else "s2": (0.0, (c1, c2)[i])}
        fixed = {"s2" if i == 0 else "s1": (c2, c1)[i]}
        ok = scanned(~((qj < -eps) | (qj >= sj - eps)), targets, boxes, fixed)
        found.append((ok, d0, *targets))

    # both downstream bounds tight, q0 strict
    boxes = {"s1": (0.0, c1), "s2": (0.0, c2)}
    ok = scanned(s1 + s2 < d0 - eps, (s1, s2), boxes, {"d": c0})
    found.append((ok, s1 + s2, s1, s2))

    # everything tight
    boxes = {"d": (0.0, c0), "s1": (0.0, c1), "s2": (0.0, c2)}
    ok = scanned(abs(s1 + s2 - d0) <= eps, (s1, s2), boxes, {})
    found.append((ok, d0, s1, s2))

    return tuple(np.stack(np.broadcast_arrays(*column), axis=1) for column in zip(*found))


def _deduplicated(keep, q0, q1, q2):
    """One OracleResult per row: the kept triples in column order, each
    dropped when within _DEDUP_TOL of one kept before it."""
    # a row's first kept triple always stays, so the later ones near it go
    # at once, in array code: a routed point with D0 = 0 keeps over 40
    # copies of (0, 0, 0), which the loop below would compare one by one
    row = np.arange(len(keep))
    first = np.argmax(keep, axis=1)
    near = reduce(np.logical_and, [abs(q - q[row, first][:, None]) <= _DEDUP_TOL for q in (q0, q1, q2)])
    keep = keep & ~(near & (np.arange(keep.shape[1]) > first[:, None]))
    triples = np.stack([q0[keep], q1[keep], q2[keep]], axis=1).tolist()
    results = []
    end = 0
    for count in keep.sum(axis=1).tolist():
        kept = []
        for trip in triples[end:end + count]:
            if not any(max(abs(a - b) for a, b in zip(trip, k)) <= _DEDUP_TOL for k in kept):
                kept.append(tuple(trip))
        end += count
        results.append(OracleResult(tuple(kept)))
    return results


def brute_force_models(models, d0, s1, s2, capacities):
    """Enumerate and filter candidate flux triples of each model at the
    points (d0[k], s1[k], s2[k]) of 1-d arrays; one list of OracleResult per
    model, one result per point, its survivors plain floats.  `capacities`
    is (c0, c1, c2); the models' parameters are floats.

    Each routed model takes one pass of its own.  The evacuation models'
    points are laid end to end, one run of points per model (see _runs),
    and take one pass together: one bisection and one scan per tie
    pattern."""
    d0, s1, s2 = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float)) for v in (d0, s1, s2)))
    results = {}
    evacuation = []
    for k, model in enumerate(models):
        if model.kind in (DivergeModelKind.DAGANZO_FIFO, DivergeModelKind.LEBACQUE):
            results[k] = _deduplicated(*_routed_survivors(model, d0, s1, s2, capacities))
        else:
            evacuation.append(k)
    if evacuation:
        n = d0.size
        runs = [((j + 1) * n, _parameters(models[k])) for j, k in enumerate(evacuation)]
        tiled = (np.tile(v, len(evacuation)) for v in (d0, s1, s2))
        flat = _deduplicated(*_evacuation_survivors(runs, *tiled, capacities))
        for j, k in enumerate(evacuation):
            results[k] = flat[j * n:(j + 1) * n]
    return [results[k] for k in range(len(models))]


def brute_force_batch(model, d0, s1, s2, capacities):
    """Enumerate and filter candidate flux triples at the points
    (d0[k], s1[k], s2[k]) of 1-d arrays; one OracleResult per point.
    brute_force_models of one model."""
    return brute_force_models([model], d0, s1, s2, capacities)[0]


def brute_force_fluxes(model, inp: RiemannInput):
    """Enumerate and filter candidate flux triples; return the survivors.
    brute_force_batch on a batch of one."""
    s1, s2 = inp.supplies
    return brute_force_batch(model, inp.demand_upstream, s1, s2, inp.capacities)[0]


# ---------------------------------------------------------------------------
# interior uniqueness: scan each tight link's interior coordinate

def _reproduces(model, d, s1, s2, fluxes):
    """Does the local rule reproduce `fluxes` at interior demand d and
    interior supplies (s1, s2), for some admissible interior split?
    Elementwise."""
    q0, q1, q2 = fluxes
    if model.kind is DivergeModelKind.LEBACQUE:
        return _lebacque_feasible(q0, q1, q2, (d, d), (s1, s1), (s2, s2), tol=_PROBE_TOL)
    if model.kind is DivergeModelKind.DAGANZO_FIFO:
        t1, t2 = s1 / model.xi[0], s2 / model.xi[1]
        return _min_equation_feasible(q0, [(d, d), (t1, t1), (t2, t2)], tol=_PROBE_TOL)
    r1, r2 = _rule_pair(model, d, s1, s2)
    return (abs(r1 + r2 - q0) <= _PROBE_TOL) & (abs(r1 - q1) <= _PROBE_TOL) & (abs(r2 - q2) <= _PROBE_TOL)


def probe_interior_unique_batch(model, d0, s1, s2, capacities, solution):
    """Interior uniqueness flags (upstream, down 1, down 2) by scanning, one
    (points,) bool array per link, at the points (d0[k], s1[k], s2[k]) with
    their Riemann solutions `solution` (a RiemannSolution of arrays).

    A strict bound (q0 < D0, qi < Si) pins the link's interior.  For a tight
    one, _PROBE_POINTS evenly spaced values of the interior demand (upstream)
    or supply (downstream) over [0, capacity], plus the initial value, the
    flux and the capacity, are tried with the other links at the solution's
    interiors; the link is unique when no value away from its canonical
    interior reproduces the fluxes.
    """
    def column(v):
        return np.reshape(np.asarray(v, dtype=float), (-1, 1))

    fluxes = [column(q) for q in solution.fluxes]
    up, down1, down2 = solution.interior
    point = [column(up.demand), column(down1.supply), column(down2.supply)]
    bounds = [column(v) for v in (d0, s1, s2)]
    flags = []
    for k, cap in enumerate(capacities):
        strict = fluxes[k] < bounds[k] - _PROBE_TIGHT_TOL
        extra = np.concatenate(np.broadcast_arrays(bounds[k], fluxes[k], cap), axis=1)
        extra = np.where((0.0 <= extra) & (extra <= cap), extra, np.nan)
        grid = np.broadcast_to(np.linspace(0.0, cap, _PROBE_POINTS), (len(extra), _PROBE_POINTS))
        values = np.concatenate([grid, extra], axis=1)
        found = _reproduces(model, *point[:k], values, *point[k + 1:], fluxes)
        found &= abs(values - point[k]) > _PROBE_EXCLUDE
        flags.append(strict[:, 0] | ~found.any(axis=1))
    return tuple(flags)
