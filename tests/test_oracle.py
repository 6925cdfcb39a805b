"""The brute-force oracle as array code: survivors pinned bitwise on the
acceptance, dense and props grids, a point's answer independent of the batch
it comes in, the shared bisection of the one-bound tie patterns against one
bisection per pattern, the scan's zoom refinement reaching an off-grid
target, and the oracle's independence from the closed forms it checks."""

import ast
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

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
    _bisect_monotone,
    _one_bound_ties,
    _rule_pair,
    _scan_feasible,
    brute_force_batch,
    brute_force_fluxes,
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


def capacities(trio):
    return tuple(fd.capacity for fd in trio)


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
    """Reversed, one point per scan pass and one row per zoom pass, or alone:
    every point keeps its survivors, and they are plain floats."""
    caps = capacities(trio)
    d0, s1, s2 = grid(caps, 5)
    whole = [repr(r) for r in brute_force_batch(model, d0, s1, s2, caps)]
    monkeypatch.setattr(oracle, "_MESH_BUDGET", 7)
    backwards = brute_force_batch(model, d0[::-1], s1[::-1], s2[::-1], caps)
    assert [repr(r) for r in backwards[::-1]] == whole
    assert all(type(v) is float for r in backwards for trip in r.survivors for v in trip)
    for k in range(0, d0.size, 11):
        inp = RiemannInput(
            trio[0],
            TrafficState(d0[k], caps[0]),
            (trio[1], trio[2]),
            (TrafficState(caps[1], s1[k]), TrafficState(caps[2], s2[k])),
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
