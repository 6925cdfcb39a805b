"""The brute-force oracle as array code: survivors pinned bitwise on the
acceptance, dense and props grids, a point's answer independent of the batch
it comes in, the shared bisection of the one-bound tie patterns against one
bisection per pattern, the scan's zoom refinement reaching an off-grid
target, the slope bound that lets a zoom row stop early and the work that
bound and the settled bisection elements save, and the oracle's
independence from the closed forms it checks."""

import ast
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divergeflow.oracle as oracle
from divergeflow import (
    RiemannInput,
    TrafficState,
    daganzo_fifo,
    greenshields,
    lebacque,
    partial_evacuation,
    priority_based,
    supply_proportional,
    triangular,
)
from divergeflow.oracle import (
    _FEAS_TOL,
    _best_three,
    _bisect_monotone,
    _one_bound_ties,
    _parameters,
    _rule_pair,
    _scan_feasible,
    _slope_bound,
    brute_force_batch,
    brute_force_fluxes,
    brute_force_models,
)

FIXTURES = {
    model.kind.value: model
    for model in (
        daganzo_fifo((0.7, 0.3)),
        lebacque((0.7, 0.3)),
        supply_proportional(),
        priority_based((0.6, 0.4)),
        partial_evacuation((0.3, 0.2), (0.55, 0.45)),
    )
}

# SHA-256 of the lines repr(result.survivors), one per point of the n^3 grid
# in loop order (D0 slowest), for the acceptance grid (15), the dense
# supply-proportional grid (20) and the props grid (5).  Recorded with the
# per-point scalar oracle that brute_force_batch replaced, each flux passed
# through float() (that oracle returned numpy or Python floats depending on
# the input's type; float() keeps every bit).
SURVIVOR_DIGESTS = {
    (15, "daganzo_fifo"): "22648acad2df1ef5c7dd8df0ec386bb0605eeb0bb00e0ab7f792639d7887ee56",
    (15, "lebacque"): "22648acad2df1ef5c7dd8df0ec386bb0605eeb0bb00e0ab7f792639d7887ee56",
    (15, "supply_proportional"): "f430df1709e78e055a4cf92a6a7963d8ad1011de3321bd633303847af67acfdb",
    (15, "priority_based"): "01553102dd74a2a67404d1efed4e03cc766239e7a19c7caacb85744ac9ac2e50",
    (15, "partial_evacuation"): "6fbc1ed25021091b6c1d1a2af5ec087091a34b7e09dd52c9e95626a1da720ab2",
    (20, "supply_proportional"): "34ae4ccabcad058ca2e4bf94c92092acee2e237ccf455ff01f28156a4a88e9cf",
    (5, "daganzo_fifo"): "dd3b2d7f9797c911c78e883f5c049642eb266a69fdb3cc76bc4a64aad1acc7b1",
    (5, "lebacque"): "dd3b2d7f9797c911c78e883f5c049642eb266a69fdb3cc76bc4a64aad1acc7b1",
    (5, "supply_proportional"): "a4e0b28746ff7b4fa9c7e5b056029637d02d0c92e72c48868dd1bd4f0b59a8f6",
    (5, "priority_based"): "0bdcd8601c527939e2f76653385ac33c22ec3c41a8fdb960de2c216ff9d8cb44",
    (5, "partial_evacuation"): "cf420907e6b10581385dc0e8a6a1f150ea657df078291a4c971ca6573c505a8f",
}


EVACUATION = [FIXTURES[kind] for kind in ("supply_proportional", "priority_based", "partial_evacuation")]


def capacities(trio):
    return tuple(fd.capacity for fd in trio)


def named_trio(trio, diagrams):
    """The del Castillo trio of the props grid, or two triangular links
    diverging onto a Greenshields link, as props_triangular.yaml has."""
    if diagrams == "triangular":
        return (triangular(1.0, 1.0), triangular(1.0, 1.0), greenshields(1.0, 1.0))
    return trio


def grid(caps, n):
    axes = [np.linspace(0.0, c, n) for c in caps]
    return [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]


@pytest.mark.parametrize("n, kind", list(SURVIVOR_DIGESTS), ids=lambda v: str(v))
def test_survivors_are_bitwise_the_pinned_ones(trio, n, kind):
    caps = capacities(trio)
    results = brute_force_batch(FIXTURES[kind], *grid(caps, n), caps)
    text = "\n".join(repr(r.survivors) for r in results)
    assert hashlib.sha256(text.encode()).hexdigest() == SURVIVOR_DIGESTS[n, kind]


@pytest.mark.parametrize("model", list(FIXTURES.values()), ids=list(FIXTURES))
def test_a_point_answers_the_same_in_any_batch(trio, model, monkeypatch):
    """Reversed, one point per scan pass and one row per zoom pass, alone,
    or among the points of all five fixtures in one brute_force_models call
    (in fixture order and reversed): every point keeps its survivors, and
    they are plain floats."""
    caps = capacities(trio)
    d0, s1, s2 = grid(caps, 5)
    whole = [repr(r) for r in brute_force_batch(model, d0, s1, s2, caps)]
    monkeypatch.setattr(oracle, "_MESH_BUDGET", 7)
    backwards = brute_force_batch(model, d0[::-1], s1[::-1], s2[::-1], caps)
    assert [repr(r) for r in backwards[::-1]] == whole
    for models in (list(FIXTURES.values()), list(FIXTURES.values())[::-1]):
        joint = brute_force_models(models, d0, s1, s2, caps)
        assert [repr(r) for r in joint[models.index(model)]] == whole
    assert all(type(v) is float for r in backwards for trip in r.survivors for v in trip)
    for k in range(0, d0.size, 11):
        inp = RiemannInput(
            trio, (TrafficState(d0[k], caps[0]), TrafficState(caps[1], s1[k]), TrafficState(caps[2], s2[k]))
        )
        assert repr(brute_force_fluxes(model, inp)) == whole[k]


def test_array_bisection_takes_each_elements_scalar_steps():
    """Every element's root is the one the scalar bisection (halve until the
    midpoint rounds onto an end, at most 100 times) reaches; NaN where the
    bracket holds no sign change."""
    roots = np.array([0.0, 1e-300, 0.1, 1.0 / 3.0, 0.5, 0.7, 1.0, -0.5, 1.5])

    def scalar(root):
        lo, hi = 0.0, 1.0
        if hi - root < -_FEAS_TOL or lo - root > _FEAS_TOL:
            return math.nan
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                return mid
            lo, hi = (mid, hi) if mid - root < 0.0 else (lo, mid)
        return 0.5 * (lo + hi)

    got = _bisect_monotone(lambda x: x - roots, 0.0, 1.0)
    np.testing.assert_array_equal(got, [scalar(r) for r in roots])


def _per_pattern_roots(model, d0, s1, s2, caps):
    """The reference for _one_bound_ties: one bisection per tie pattern,
    each over one interior coordinate with the other two at capacity."""
    c0, c1, c2 = caps
    return np.stack([
        _bisect_monotone(lambda d: sum(_rule_pair(model, d, c1, c2)) - d0, 0.0, c0),
        _bisect_monotone(lambda x: _rule_pair(model, c0, x, c2)[0] - s1, 0.0, c1),
        _bisect_monotone(lambda x: _rule_pair(model, c0, c1, x)[1] - s2, 0.0, c2),
    ])


@pytest.mark.parametrize(
    "model",
    [
        supply_proportional(),
        priority_based((0.6, 0.4)),
        priority_based((0.0, 1.0)),
        partial_evacuation((0.3, 0.2), (0.55, 0.45)),
    ],
    ids=["supply_proportional", "priority_based", "priority_based-alpha01", "partial_evacuation"],
)
@pytest.mark.parametrize("diagrams", ["del-castillo", "triangular"])
def test_one_bisection_finds_each_tie_patterns_own_roots(trio, model, diagrams):
    """The shared bisection's roots, and the rule's pair at them, are bitwise
    (NaN included) those of the three per-pattern bisections, on the 5^3 and
    7^3 grids and on 500 random draws."""
    if diagrams == "triangular":
        trio = (triangular(1.0, 1.0), triangular(1.0, 1.0), greenshields(1.0, 1.0))
    caps = capacities(trio)
    rng = np.random.default_rng(3)
    draws = [rng.uniform(0.0, c, 500) for c in caps]
    for d0, s1, s2 in (grid(caps, 5), grid(caps, 7), draws):
        root, q1, q2 = _one_bound_ties(model, d0, s1, s2, caps)
        reference = _per_pattern_roots(model, d0, s1, s2, caps)
        assert np.isnan(reference).any() and not np.isnan(reference).all()
        np.testing.assert_array_equal(root.view(np.int64), reference.view(np.int64))
        c0, c1, c2 = caps
        pairs = [_rule_pair(model, reference[0], c1, c2), _rule_pair(model, c0, reference[1], c2),
                 _rule_pair(model, c0, c1, reference[2])]
        for k, (r1, r2) in enumerate(pairs):
            np.testing.assert_array_equal(q1[k], r1)
            np.testing.assert_array_equal(q2[k], r2)


@pytest.mark.parametrize(
    "model",
    [supply_proportional(), priority_based((0.6, 0.4)), partial_evacuation((0.3, 0.2), (0.55, 0.45))],
    ids=lambda m: m.kind.value,
)
def test_zoom_reaches_a_target_the_coarse_mesh_misses(trio, model, monkeypatch):
    """The fluxes of an irrational interior demand and supply are reached
    only between the 21 x 21 mesh points, so only the zoom can accept them;
    a pair whose second flux exceeds the pinned supply stays out of reach.
    Scanned together, each point keeps its answer, whether its zoom rows
    share a pass or (a mesh budget of 7) take one pass each."""
    c0, c1, c2 = capacities(trio)
    d, s = c0 * (math.sqrt(2.0) - 1.0), c1 / math.sqrt(3.0)
    target = tuple(float(q) for q in _rule_pair(model, d, s, c2))
    boxes = {"d": (0.0, c0), "s1": (0.0, c1)}
    mesh = np.meshgrid(np.linspace(0.0, c0, 21), np.linspace(0.0, c1, 21), indexing="ij")
    q1, q2 = _rule_pair(model, *mesh, c2)
    coarse = np.min(np.abs(q1 - target[0]) + np.abs(q2 - target[1]))
    assert _FEAS_TOL < coarse <= 0.08
    assert np.all(_scan_feasible(model, target, boxes, {"s2": c2}, np.empty(0)))
    assert not np.any(_scan_feasible(model, (target[0], c2 + 1e-6), boxes, {"s2": c2}, np.empty(0)))
    targets = (np.full(3, target[0]), np.array([target[1], c2 + 1e-6, target[1]]))
    for budget in (oracle._MESH_BUDGET, 7):
        monkeypatch.setattr(oracle, "_MESH_BUDGET", budget)
        assert _scan_feasible(model, targets, boxes, {"s2": c2}, np.empty(0)).tolist() == [True, False, True]


def test_zoom_centres_take_the_lowest_flat_indices_among_tied_residuals():
    """The three best entries of a mesh whose third-best residual is tied
    across several entries, some of them past the ends of a sort kernel's
    small-array insertion range: the tied entries are taken in flat order,
    as np.argsort(kind="stable") takes them."""
    mesh = np.full((2, 441), 0.5)
    mesh[0, [300, 17]] = [0.1, 0.2]
    mesh[1, 400] = 0.0
    mesh[1, [5, 250, 440]] = 0.3
    mesh[:, [3, 120, 333]] = np.minimum(mesh[:, [3, 120, 333]], 0.4)
    np.testing.assert_array_equal(_best_three(mesh), [[300, 17, 3], [400, 5, 250]])
    np.testing.assert_array_equal(_best_three(mesh), np.argsort(mesh, axis=1, kind="stable")[:, :3])


@st.composite
def evacuation_models(draw):
    """The supply-proportional rule, or partial evacuation with each share
    0 or in [0.05, 0.95] (the priority rule when both are 0) and weights
    anywhere in their admissible box."""
    if draw(st.booleans()):
        return supply_proportional()
    x1 = draw(st.one_of(st.just(0.0), st.floats(0.05, 0.95)))
    x2 = draw(st.one_of(st.just(0.0), st.floats(0.05, max(0.05, 1.0 - x1))))
    a1 = x1 + draw(st.floats(0.0, 1.0)) * (1.0 - x1 - x2)
    alpha = (a1, 1.0 - a1)
    return priority_based(alpha) if x1 == x2 == 0.0 else partial_evacuation((x1, x2), alpha)


@st.composite
def interior_points(draw, caps):
    """An interior point (d, s1, s2) of the capacity box: anywhere, with
    both supplies below 1e-12 (S1 + S2 near 0), or on the S1 + S2 = D0 kink
    of the supply-proportional rule."""
    c0, c1, c2 = caps
    u = [draw(st.floats(0.0, 1.0)) for _ in range(3)]
    where = draw(st.sampled_from(("box", "empty", "kink")))
    if where == "empty":
        return u[0] * c0, draw(st.floats(0.0, 1e-12)), draw(st.floats(0.0, 1e-12))
    if where == "kink":
        d = u[0] * min(c0, c1 + c2)
        lo, hi = max(0.0, d - c2), min(c1, d)
        s1 = lo + u[1] * (hi - lo)
        return d, s1, min(c2, max(0.0, d - s1))
    return u[0] * c0, u[1] * c1, u[2] * c2


@settings(max_examples=200)
@given(data=st.data())
@pytest.mark.parametrize("diagrams", ["del-castillo", "triangular"])
def test_each_flux_moves_at_most_the_slope_bound_times_the_step(trio, diagrams, data):
    """|qi(p) - qi(c)| <= L * sum_k |pk - ck| for L = _slope_bound of the
    rule's parameters, up to 8 ulps of L times the largest capacity for the
    rounding of the rule's few operations.  p is a second drawn point, and
    c with each one of its coordinates taken from that point (a step along
    one axis, where a term's slope can be exactly L)."""
    caps = capacities(named_trio(trio, diagrams))
    model = data.draw(evacuation_models())
    c = np.array(data.draw(interior_points(caps)))
    drawn = np.array(data.draw(interior_points(caps)))
    p = np.where(np.eye(4, 3, -1, dtype=bool), drawn, c)
    p[0] = drawn
    slope = _slope_bound(*_parameters(model))
    step = np.abs(p - c).sum(axis=1)
    slack = 8.0 * slope * np.spacing(max(caps))
    for qp, qc in zip(_rule_pair(model, *p.T), _rule_pair(model, *c)):
        assert np.all(np.abs(qp - qc) <= slope * step + slack)


@pytest.mark.parametrize("diagrams", ["del-castillo", "triangular"])
def test_zoom_rows_that_stop_early_change_no_answer(trio, diagrams, monkeypatch):
    """The three evacuation fixtures in one brute_force_models call, on the
    5^3 and 7^3 grids and on 500 random draws, answer repr-identically with
    the slope bound and with an infinite one, under which a zoom row stops
    only once it reaches _FEAS_TOL."""
    caps = capacities(named_trio(trio, diagrams))
    rng = np.random.default_rng(7)
    draws = [rng.uniform(0.0, c, 500) for c in caps]
    for d0, s1, s2 in (grid(caps, 5), grid(caps, 7), draws):
        pruned = brute_force_models(EVACUATION, d0, s1, s2, caps)
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_slope_bound", lambda *params: math.inf)
            full = brute_force_models(EVACUATION, d0, s1, s2, caps)
        assert [[repr(r) for r in results] for results in pruned] == [[repr(r) for r in results] for results in full]


def test_props_grid_saves_bisection_calls_and_zoom_row_steps(trio, monkeypatch):
    """On props.yaml's 5^3 grid (its diagrams are the del Castillo trio),
    one brute_force_models call of the three evacuation fixtures: the shared
    bisection calls its fn at most 2 + 60 times, as the elements whose root
    is 0 stop calling it, and the zoom evaluates under a quarter of the
    20 row-steps of each of its rows (three per zoomed point, each a 7-point
    mesh per axis)."""
    caps = capacities(trio)
    calls, rows, row_steps = [], [], []
    bisect, best_three, rule_pair = oracle._bisect_monotone, oracle._best_three, oracle._rule_pair

    def counted_bisect(fn, lo, hi):
        return bisect(lambda x: calls.append(1) or fn(x), lo, hi)

    def counted_best_three(mesh):
        rows.append(3 * len(mesh))
        return best_three(mesh)

    def counted_rule_pair(rule, d0, s1, s2):
        q1, q2 = rule_pair(rule, d0, s1, s2)
        if q1.ndim >= 3 and set(q1.shape[1:]) == {7}:
            row_steps.append(len(q1))
        return q1, q2

    monkeypatch.setattr(oracle, "_bisect_monotone", counted_bisect)
    monkeypatch.setattr(oracle, "_best_three", counted_best_three)
    monkeypatch.setattr(oracle, "_rule_pair", counted_rule_pair)
    brute_force_models(EVACUATION, *grid(caps, 5), caps)
    assert len(calls) <= 2 + 60
    assert sum(rows) > 0
    assert sum(row_steps) < 20 * sum(rows) / 4


def test_oracle_imports_nothing_from_the_closed_forms():
    """The oracle may take the model kinds and the input type from riemann,
    and nothing else from the package: no closed form, fundamental diagram,
    wave, simulator or harness code."""
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("divergeflow")):
            module = (node.module or "").removeprefix("divergeflow.")
            imported.setdefault(module, set()).update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("divergeflow") for alias in node.names)
    assert imported == {"riemann": {"DivergeModelKind", "RiemannInput"}}
