import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from divergeflow import (
    DiagramKind,
    FundamentalDiagram,
    InvalidStateError,
    TrafficState,
    del_castillo_mainline,
    del_castillo_ramp,
    greenshields,
    state_of,
    triangular,
)
from divergeflow.fundamental_diagram import _CRITICAL_FRACTION, _FLOW_LAWS, DENSITY_TOL, FLUX_TOL

# the four laws, two of them off their default parameters, for tests
# parametrized per law
LAWS = (
    del_castillo_mainline(),
    del_castillo_ramp(),
    triangular(1.0, 1.0),
    greenshields(1.0, 1.0),
    triangular(2.0, 3.0),
    greenshields(0.5, 2.0),
)

# Reported values are quoted to four decimals; assert to half a unit in the
# last place.
FOUR_DP = 5e-5


class TestClosedForms:
    def test_mainline_capacity_and_critical_density(self, mainline):
        assert mainline.capacity == pytest.approx(0.3365, abs=FOUR_DP)
        assert mainline.critical_density == pytest.approx(0.4876, abs=FOUR_DP)

    def test_ramp_capacity_and_critical_density(self, ramp):
        assert ramp.capacity == pytest.approx(0.0841, abs=FOUR_DP)
        assert ramp.critical_density == pytest.approx(0.2438, abs=FOUR_DP)

    def test_ramp_is_quarter_of_mainline(self, mainline, ramp):
        assert ramp.capacity == mainline.capacity / 4.0
        assert ramp.critical_density == mainline.critical_density / 2.0

    def test_mainline_congested_flow(self, mainline):
        assert mainline.flow(1.0) == pytest.approx(0.2473, abs=FOUR_DP)

    def test_ramp_free_flow(self, ramp):
        assert ramp.flow(0.1) == pytest.approx(0.0500, abs=FOUR_DP)

    def test_flow_vanishes_at_empty_and_jam(self, all_diagrams):
        for fd in all_diagrams:
            assert fd.flow(0.0) == 0.0
            assert fd.flow(fd.jam_density) == pytest.approx(0.0, abs=1e-12)

    def test_greenshields_critical_density(self):
        fd = greenshields(1.0, 1.0)
        assert fd.critical_density == pytest.approx(0.5, abs=1e-12)
        assert fd.capacity == pytest.approx(0.25, abs=1e-12)

    def test_capacity_is_grid_maximum(self, all_diagrams):
        for fd in all_diagrams:
            grid = np.linspace(0.0, fd.jam_density, 20001)
            assert fd.capacity >= fd.flow(grid).max() - 1e-12

    def test_unimodal(self, all_diagrams):
        for fd in all_diagrams:
            rising = np.linspace(0.0, fd.critical_density, 2001)
            falling = np.linspace(fd.critical_density, fd.jam_density, 2001)
            assert np.all(np.diff(fd.flow(rising)) >= -1e-12)
            assert np.all(np.diff(fd.flow(falling)) <= 1e-12)

    def test_domain_errors(self, mainline):
        with pytest.raises(ValueError):
            mainline.flow(-0.1)
        with pytest.raises(ValueError):
            mainline.flow(2.1)
        with pytest.raises(ValueError):
            mainline.demand(np.array([0.5, 2.5]))
        with pytest.raises(ValueError):
            mainline.demand_supply(2.1)
        with pytest.raises(ValueError):
            mainline.demand_supply(np.array([-0.1, 0.5]))

    def test_nan_density_rejected(self, mainline):
        for method in (mainline.flow, mainline.demand, mainline.supply, mainline.demand_supply):
            with pytest.raises(ValueError):
                method(float("nan"))
            with pytest.raises(ValueError):
                method(np.array([0.5, np.nan]))

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            greenshields(0.0, 1.0)
        with pytest.raises(ValueError):
            triangular(1.0, -1.0)
        # each parameter is positive and finite, but Q(rho_c) is not
        for kind, free_flow_speed, jam_density, capacity in (
            (DiagramKind.GREENSHIELDS, 1e-200, 1e-200, "0.0"),
            (DiagramKind.GREENSHIELDS, 1e200, 1e200, "inf"),
            (DiagramKind.TRIANGULAR, 1.0, 5e-324, "0.0"),
            (DiagramKind.DEL_CASTILLO_MAINLINE, 1e300, 1e10, "inf"),
        ):
            with pytest.raises(ValueError, match=f"^capacity must be positive and finite, got {capacity}$"):
                FundamentalDiagram(kind, free_flow_speed, jam_density)
        # positive, but within FLUX_TOL of the state (0, 0)
        for kind, free_flow_speed, jam_density, capacity in (
            (DiagramKind.GREENSHIELDS, 1e-300, 1e-10, "2.5e-311"),
            (DiagramKind.TRIANGULAR, 1.0, 5e-12, "1e-12"),
            (DiagramKind.DEL_CASTILLO_RAMP, 1e-7, 1e-6, "1.6824800831729625e-14"),
        ):
            with pytest.raises(ValueError, match=f"^capacity {capacity} is not above the flux tolerance 1e-12$"):
                FundamentalDiagram(kind, free_flow_speed, jam_density)
        assert triangular(1.0, 5.000000000000001e-12).capacity > FLUX_TOL

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("kind", list(DiagramKind))
    def test_nonfinite_parameters_rejected(self, kind, bad):
        with pytest.raises(ValueError, match="free_flow_speed"):
            FundamentalDiagram(kind, bad, 1.0)
        with pytest.raises(ValueError, match="jam_density"):
            FundamentalDiagram(kind, 1.0, bad)

    def test_scalar_and_array_paths_agree(self, all_diagrams):
        # libm and numpy's vectorized exp may differ in the last ulp
        for fd in all_diagrams:
            grid = np.linspace(0.0, fd.jam_density, 57)
            by_array = fd.flow(grid)
            by_scalar = np.array([fd.flow(float(r)) for r in grid])
            np.testing.assert_allclose(by_array, by_scalar, rtol=5e-15, atol=1e-15)
            np.testing.assert_allclose(
                fd.demand(grid), [fd.demand(float(r)) for r in grid], rtol=5e-15, atol=1e-15
            )
            np.testing.assert_allclose(
                fd.supply(grid), [fd.supply(float(r)) for r in grid], rtol=5e-15, atol=1e-15
            )


class TestDemandSupply:
    def test_congested_mainline_state(self, mainline):
        assert mainline.demand(1.0) == pytest.approx(0.3365, abs=FOUR_DP)
        assert mainline.supply(1.0) == pytest.approx(0.2473, abs=FOUR_DP)

    def test_free_ramp_state(self, ramp):
        assert ramp.demand(0.1) == pytest.approx(0.0500, abs=FOUR_DP)
        assert ramp.supply(0.1) == pytest.approx(0.0841, abs=FOUR_DP)

    def test_empty_road(self, all_diagrams):
        for fd in all_diagrams:
            assert fd.demand(0.0) == 0.0
            assert fd.supply(0.0) == fd.capacity

    def test_critical_point(self, all_diagrams):
        for fd in all_diagrams:
            assert fd.supply(fd.critical_density) == fd.capacity
            assert fd.demand(fd.critical_density) == fd.capacity

    def test_pointwise_identities(self, all_diagrams):
        for fd in all_diagrams:
            grid = np.linspace(0.0, fd.jam_density, 501)
            d, s = fd.demand(grid), fd.supply(grid)
            np.testing.assert_allclose(np.minimum(d, s), fd.flow(grid), atol=1e-12)
            np.testing.assert_allclose(np.maximum(d, s), fd.capacity, atol=1e-12)

    def test_monotonicity(self, all_diagrams):
        for fd in all_diagrams:
            grid = np.linspace(0.0, fd.jam_density, 501)
            assert np.all(np.diff(fd.demand(grid)) >= -1e-12)
            assert np.all(np.diff(fd.supply(grid)) <= 1e-12)


class TestOneFluxPath:
    @pytest.mark.parametrize("fd", LAWS)
    def test_demand_supply_is_both_transforms(self, fd):
        grid = np.linspace(0.0, fd.jam_density, 101)
        d, s = fd.demand_supply(grid)
        np.testing.assert_array_equal(d, fd.demand(grid))
        np.testing.assert_array_equal(s, fd.supply(grid))
        rho_c = fd.critical_density
        for rho in (0.0, float(grid[13]), rho_c, float(grid[77]), fd.jam_density):
            pair = fd.demand_supply(rho)
            assert pair == (fd.demand(rho), fd.supply(rho))
            assert pair == (fd.flow(min(rho, rho_c)), fd.flow(max(rho, rho_c)))
            assert all(type(v) is float for v in pair)
        d, s = fd.demand_supply(np.array(rho_c))
        assert (type(d), type(s)) == (float, float)
        assert d == s == fd.capacity

    @pytest.mark.parametrize("fd", [del_castillo_mainline(), del_castillo_ramp()])
    def test_exponential_laws_are_free_flow_below_the_floor(self, fd):
        floor = fd.jam_density / 1000.0
        rho = np.array([0.0, 5e-324, 1e-12, 0.5 * floor, np.nextafter(floor, 0.0)])
        np.testing.assert_array_equal(fd._flow(rho), fd.free_flow_speed * rho)
        np.testing.assert_array_equal(fd.flow(rho), fd.free_flow_speed * rho)
        for r in rho.tolist():
            assert fd._flow(r) == fd.flow(r) == fd.free_flow_speed * r
        # at the floor itself the congested factor is 1 - exp(1 - exp(249.75)) = 1
        assert fd._flow(floor) == fd.free_flow_speed * floor
        # Q' is v_f up to the floor, and both one-sided differences there agree
        np.testing.assert_array_equal(fd._slope(np.append(rho, floor)), fd.free_flow_speed)
        h = 1e-7
        left = (fd.flow(floor) - fd.flow(floor - h)) / h
        right = (fd.flow(floor + h) - fd.flow(floor)) / h
        assert left == pytest.approx(fd.free_flow_speed, abs=1e-9)
        assert right == pytest.approx(fd.free_flow_speed, abs=1e-9)


class TestDensityInversion:
    def test_congested_mainline_density(self, mainline):
        u = state_of(mainline, 1.0)
        assert mainline.density_from_state(u) == pytest.approx(1.0, abs=1e-8)

    def test_critical_ramp_density(self, ramp):
        u = TrafficState(ramp.capacity, ramp.capacity)
        assert ramp.density_from_state(u) == pytest.approx(0.2438, abs=FOUR_DP)

    def test_empty_state(self, all_diagrams):
        for fd in all_diagrams:
            assert fd.density_from_state(TrafficState(0.0, fd.capacity)) == pytest.approx(
                0.0, abs=1e-10
            )

    def test_round_trip(self, all_diagrams):
        for fd in all_diagrams:
            for rho in np.linspace(0.0, fd.jam_density, 101):
                back = fd.density_from_state(state_of(fd, float(rho)))
                assert back == pytest.approx(rho, abs=1e-8)

    def test_inconsistent_state_rejected(self, mainline):
        with pytest.raises(InvalidStateError):
            mainline.density_from_state(TrafficState(0.1, 0.1))

    def test_closed_form_inverses(self):
        tri = triangular(2.0, 3.0)  # v_f = 2, w = 0.5
        assert tri.density_from_state(TrafficState(0.5, tri.capacity)) == 0.25
        assert tri.density_from_state(TrafficState(tri.capacity, 0.5)) == 2.0
        gs = greenshields(1.0, 1.0)  # Q = rho (1 - rho), C = 1/4
        assert gs.density_from_state(TrafficState(0.16, 0.25)) == pytest.approx(0.2, abs=1e-15)
        assert gs.density_from_state(TrafficState(0.25, 0.16)) == pytest.approx(0.8, abs=1e-15)

    @pytest.mark.parametrize("fd", LAWS[:2], ids=lambda fd: fd.kind.value)
    def test_newton_inverse_meets_the_density_tolerance(self, fd):
        # the root brackets Q(rho) = q by one DENSITY_TOL on either side
        for rho in np.linspace(0.0, fd.jam_density, 203)[1:-1]:
            u = state_of(fd, float(rho))
            if abs(u.demand - u.supply) <= FLUX_TOL:
                continue
            back = fd.density_from_state(u)
            q, lo, hi = min(u.demand, u.supply), fd.flow(back - DENSITY_TOL), fd.flow(back + DENSITY_TOL)
            assert min(lo, hi) <= q <= max(lo, hi)


@pytest.mark.parametrize("fd", LAWS, ids=lambda fd: fd.kind.value)
def test_array_inversion_is_the_float_inversion_per_entry(fd):
    rho = np.concatenate([np.linspace(0.0, fd.jam_density, 203), [fd.critical_density]])
    demand, supply = fd.demand_supply(rho)
    inverted = fd.density_from_state(TrafficState(demand, supply))
    expected = [fd.density_from_state(TrafficState(d, s)) for d, s in zip(demand.tolist(), supply.tolist())]
    assert inverted.tolist() == expected
    with pytest.raises(InvalidStateError):
        fd.density_from_state(TrafficState(demand, np.minimum(supply, 0.5 * fd.capacity)))


# (v_f, rho_jam) of the shipped mainline and ramp, and of five others
EXPONENTIAL_PARAMETERS = [(1.0, 2.0), (0.5, 1.0), (3.7, 0.013), (0.02, 45.0), (120.0, 7.3), (1e3, 1e-3), (1e-3, 1e3)]


@pytest.mark.parametrize("free_flow_speed, jam_density", EXPONENTIAL_PARAMETERS)
@pytest.mark.parametrize("kind", [DiagramKind.DEL_CASTILLO_MAINLINE, DiagramKind.DEL_CASTILLO_RAMP])
def test_exponential_law_lies_under_the_triangular_law(kind, free_flow_speed, jam_density):
    fd = FundamentalDiagram(kind, free_flow_speed, jam_density)
    tri = triangular(free_flow_speed, jam_density)
    rho = np.linspace(0.0, jam_density, 200001)
    assert np.all(fd.flow(rho) <= tri.flow(rho) + 1e-15 * free_flow_speed * jam_density)


@pytest.mark.parametrize("free_flow_speed, jam_density", EXPONENTIAL_PARAMETERS)
@pytest.mark.parametrize("kind", [DiagramKind.DEL_CASTILLO_MAINLINE, DiagramKind.DEL_CASTILLO_RAMP])
def test_triangular_inverse_starts_newton_on_the_far_side_of_the_root(kind, free_flow_speed, jam_density):
    # the triangular law with the same v_f and rho_jam inverts a flow q in
    # closed form to rho0 with Q(rho0) <= q on q's own branch, so Newton on
    # the concave exponential law moves from rho0 to the root monotonically
    fd = FundamentalDiagram(kind, free_flow_speed, jam_density)
    tri = triangular(free_flow_speed, jam_density)
    rng = np.random.default_rng(8)
    rho = np.concatenate([rng.uniform(0.0, jam_density, 20000), rng.uniform(0.0, jam_density / 1000.0, 2000)])
    demand, supply = fd.demand_supply(rho)
    rising = supply > demand
    target = np.where(rising, demand, supply)
    assert target.max() < tri.capacity
    start = tri.density_from_state(
        TrafficState(np.where(rising, target, tri.capacity), np.where(rising, tri.capacity, target))
    )
    assert np.array_equal(rising, start < fd.critical_density)
    assert np.all(fd.flow(start) <= target + 1e-15 * free_flow_speed * jam_density)


# SHA-256 of density_from_state's float64 output bytes on the states of a
# 20,001-point density grid and of 2,001 densities within 1e-6 of rho_c
INVERSE_DIGESTS = {
    "del_castillo_mainline": "2748df353cb5d4e06ee59a974a5033dea59db005996bf8b4c0130a95275fb11a",
    "del_castillo_ramp": "e51138d7e1fb5b61d018a868477ce7d82c4cffc01c400827ba2ff8863edc407f",
}


@pytest.mark.parametrize("fd", LAWS[:2], ids=lambda fd: fd.kind.value)
def test_exponential_inverse_is_pinned(fd):
    import hashlib

    rho_c = fd.critical_density
    rho = np.concatenate([np.linspace(0.0, fd.jam_density, 20001), rho_c + np.linspace(-1e-6, 1e-6, 2001)])
    inverted = fd.density_from_state(TrafficState(*fd.demand_supply(rho)))
    assert hashlib.sha256(inverted.tobytes()).hexdigest() == INVERSE_DIGESTS[fd.kind.value]


@pytest.mark.parametrize("fd", LAWS[:2], ids=lambda fd: fd.kind.value)
def test_newton_flow_is_the_float_law_bitwise(fd):
    # the Newton iterates evaluate Q and Q' exactly as the float law does, so
    # the inverse of a state built from a float density does not depend on
    # whether it is inverted alone or in a batch
    rho = np.linspace(0.0, fd.jam_density, 1001)
    flow, slope = fd._flow(rho), fd._slope(rho)
    assert flow.tolist() == [float(fd._flow(r)) for r in rho.tolist()]
    assert slope.tolist() == [float(fd._slope(r)) for r in rho.tolist()]
    chords = np.diff(fd.flow(rho)) / np.diff(rho)
    assert np.all((chords <= slope[:-1] + 1e-9) & (chords >= slope[1:] - 1e-9))  # concave


@pytest.mark.parametrize("fd", LAWS, ids=lambda fd: fd.kind.value)
def test_float_flow_is_the_array_flow_bitwise(fd):
    # 0.01 to 2 on the mainline law, the same fractions of jam elsewhere
    rho = np.linspace(0.01, 2.0, 2001) * (fd.jam_density / 2.0)
    floats = [fd.flow(x) for x in rho.tolist()]
    assert floats == [fd.flow(np.array([x]))[0] for x in rho.tolist()]
    assert floats == fd.flow(rho).tolist()


@pytest.mark.parametrize("fd", LAWS, ids=lambda fd: fd.kind.value)
def test_slope_is_the_central_difference_of_the_flow(fd):
    h = 1e-6
    rho = np.linspace(0.0, fd.jam_density, 403)[1:-1]
    if fd.kind is DiagramKind.TRIANGULAR:
        rho = rho[abs(rho - fd.critical_density) > 2 * h]
    assert rho.size >= 200
    central = (fd.flow(rho + h) - fd.flow(rho - h)) / (2 * h)
    np.testing.assert_allclose(fd._slope(rho), central, rtol=0, atol=1e-7)
    # one-sided at the domain ends: v_f at 0 for every law
    assert fd._slope(0.0) == fd.free_flow_speed
    jam = fd.jam_density
    left_of_jam = (fd.flow(jam) - fd.flow(jam - h)) / h
    assert fd._slope(jam) == pytest.approx(left_of_jam, abs=1e-5)


def test_triangular_slope_is_one_sided_at_the_kink():
    fd = triangular(2.0, 3.0)  # v_f = 2, w = 0.5
    rc, h = fd.critical_density, 1e-6
    right = (fd.flow(rc + h) - fd.flow(rc)) / h
    left = (fd.flow(rc) - fd.flow(rc - h)) / h
    assert fd._slope(rc, 1.0) == -0.5 == pytest.approx(right, abs=1e-7)
    assert fd._slope(rc, -1.0) == fd._slope(rc) == 2.0 == pytest.approx(left, abs=1e-7)
    sides = np.array([1.0, -1.0, 0.0])
    assert fd._slope(np.full(3, rc), sides).tolist() == [-0.5, 2.0, 2.0]


def _last_rising_density(fd):
    """The last float density at which fd's closed-form slope is positive,
    by bisecting the slope's sign on [0, rho_jam] down to adjacent floats."""
    lo, hi = 0.0, fd.jam_density
    while True:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            break
        if fd._slope(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    assert np.nextafter(lo, hi) == hi
    return lo


def test_every_kind_has_a_flow_law_and_a_critical_fraction():
    assert set(_FLOW_LAWS) == set(_CRITICAL_FRACTION) == set(DiagramKind)


def test_exponential_critical_fraction_is_the_root_of_the_slope():
    # rho_c = u* rho_jam: at rho_jam = 1 the bisection finds u* itself, and
    # the shipped diagrams' rho_jam of 2 and 1 scale it without rounding
    for kind in (DiagramKind.DEL_CASTILLO_MAINLINE, DiagramKind.DEL_CASTILLO_RAMP):
        unit = FundamentalDiagram(kind, 1.0, 1.0)
        assert _CRITICAL_FRACTION[kind] == _last_rising_density(unit) == unit.critical_density
    for fd in (del_castillo_mainline(), del_castillo_ramp()):
        assert fd.critical_density == _last_rising_density(fd)


@pytest.mark.parametrize(
    "free_flow_speed, jam_density",
    [(3.7, 0.013), (0.02, 45.0), (120.0, 7.3), (1e-3, 1e3), (1e3, 1e-3), (0.61, 0.29)],
)
def test_exponential_critical_density_is_within_two_ulp_of_the_slope_root(free_flow_speed, jam_density):
    fd = FundamentalDiagram(DiagramKind.DEL_CASTILLO_MAINLINE, free_flow_speed, jam_density)
    root = _last_rising_density(fd)
    assert abs(fd.critical_density - root) <= 2 * np.spacing(root)


@pytest.mark.parametrize("fd", LAWS, ids=lambda fd: fd.kind.value)
def test_slope_changes_sign_at_the_critical_density(fd):
    rho_c = fd.critical_density
    assert fd._slope(np.nextafter(rho_c, 0.0)) > 0.0
    assert fd._slope(np.nextafter(rho_c, np.inf)) <= 0.0


@pytest.mark.parametrize("fd", LAWS, ids=lambda fd: fd.kind.value)
@given(fraction=st.floats(0.0, 1.0))
def test_density_round_trip_property(fd, fraction):
    """density_from_state inverts state_of to 1e-8, except that a state
    within FLUX_TOL of critical is the critical state by definition."""
    rho = fraction * fd.jam_density
    u = state_of(fd, rho)
    back = fd.density_from_state(u)
    if abs(u.demand - u.supply) <= FLUX_TOL:
        assert back == fd.critical_density
    else:
        assert back == pytest.approx(rho, abs=1e-8)


@pytest.mark.parametrize("fd", LAWS, ids=lambda fd: fd.kind.value)
def test_max_wave_speed_is_the_largest_flux_slope(fd):
    rho = np.linspace(0.0, fd.jam_density, 200001)
    slopes = np.abs(np.diff(fd.flow(rho)) / np.diff(rho))
    # chord slopes are averages of Q', so they never exceed max |Q'|, and on
    # this grid they come within 1e-4 of it
    assert slopes.max() <= fd.max_wave_speed * (1.0 + 1e-12)
    assert slopes.max() >= fd.max_wave_speed * (1.0 - 1e-4)
