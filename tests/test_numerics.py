import numpy as np
import pytest

from spectral_coords import gallery
from spectral_coords.errors import InputError, NoIsolation, PoleEvaluation
from spectral_coords.numerics import (INF, FactoredRational, Infinity,
                                      RationalDifferential, ROOT_MERGE_TOL,
                                      is_inf, max_abs, same_point)


def test_infinity_is_a_singleton():
    assert Infinity() is INF
    assert INF == Infinity()
    assert is_inf(INF)
    assert not is_inf(2.0)


def test_same_point_scales_with_magnitude():
    assert same_point(1e6, 1e6 + 1e-4)
    assert not same_point(0.0, 1e-4)
    assert same_point(INF, INF)
    assert not same_point(INF, 1e6)


class TestFactoredRational:
    def test_eval_and_degree(self):
        f = FactoredRational(2.0, [(1.0, 1), (-1.0, 1), (0.0, -1)])
        # 2 (z-1)(z+1) / z
        assert f.degree() == 1
        assert f.eval(2.0) == pytest.approx(2 * 3 / 2)
        assert f.order_at(1.0) == 1
        assert f.order_at(0.0) == -1
        assert f.order_at(5.0) == 0
        assert f.order_at(INF) == -1

    def test_eval_at_pole_raises(self):
        f = FactoredRational(1.0, [(0.5, -2)])
        with pytest.raises(PoleEvaluation):
            f.eval(0.5)

    def test_zero_scale_rejected(self):
        with pytest.raises(InputError):
            FactoredRational(0.0, [])

    def test_nearby_roots_merge(self):
        eps = 0.1 * ROOT_MERGE_TOL
        f = FactoredRational(1.0, [(1.0, 1), (1.0 + eps, 2)])
        assert f.order_at(1.0) == 3

    def test_cancelling_multiplicities_drop(self):
        f = FactoredRational(3.0, [(2.0, 1), (2.0, -1)])
        assert f.degree() == 0
        assert f.eval(7.0) == pytest.approx(3.0)

    def test_product_adds_orders(self):
        f = FactoredRational(2.0, [(1.0, 1)])
        g = FactoredRational(0.5, [(1.0, 2), (3.0, -1)])
        h = f * g
        assert h.order_at(1.0) == 3
        assert h.order_at(3.0) == -1
        z = 1.7 - 0.4j
        assert h.eval(z) == pytest.approx(f.eval(z) * g.eval(z))

    def test_inverse_chart_matches_substitution(self):
        f = FactoredRational(1.5, [(2.0, 1), (-1.0j, -2)])
        g = f.inverse_chart()
        for z in (0.3, 1.0 - 0.7j, -2.4, 5.0j):
            assert g.eval(1.0 / z) == pytest.approx(f.eval(z), rel=1e-12)

    def test_eval_at_infinity(self):
        f = FactoredRational(4.0, [(1.0, 1), (2.0, -2)])  # degree -1
        assert f.eval(INF) == 0.0
        g = FactoredRational(4.0, [(1.0, 1), (2.0, -1)])  # degree 0
        assert g.eval(INF) == pytest.approx(4.0)
        h = FactoredRational(4.0, [(1.0, 1)])
        with pytest.raises(PoleEvaluation):
            h.eval(INF)

    def test_json_round_trip(self):
        f = FactoredRational(2.0 - 1.0j, [(0.5j, 3), (-2.0, -1)])
        g = FactoredRational.from_json(f.to_json())
        z = 0.9 + 0.1j
        assert g.eval(z) == f.eval(z)


class TestResidues:
    def test_simple_pole(self):
        # dz/(z-2): residue 1 at z=2, 0 elsewhere
        w = RationalDifferential(FactoredRational(1.0, [(2.0, -1)]))
        assert w.residue(2.0) == pytest.approx(1.0, abs=1e-13)
        assert w.residue(5.0) == 0.0

    def test_example_pole_at_a(self):
        # -dz / (z (z^2 - a^2)) at a = 2: residue -1/(2 a^2) = -1/8
        a = 2.0
        w = RationalDifferential(
            FactoredRational(-1.0, [(0.0, -1), (a, -1), (-a, -1)]))
        assert w.residue(a) == pytest.approx(-1.0 / 8.0, abs=1e-12)
        assert w.residue(0.0) == pytest.approx(1.0 / a ** 2, abs=1e-12)

    def test_double_pole_no_residue(self):
        w = RationalDifferential(FactoredRational(3.0, [(1.0, -2)]))
        assert w.residue(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_residue_at_infinity_balances(self):
        w = RationalDifferential(
            FactoredRational(2.0, [(1.0, -1), (-0.5j, -1)]))
        finite = w.residue(1.0) + w.residue(-0.5j)
        assert w.residue(INF) == pytest.approx(-finite, rel=1e-12)

    def test_global_residue_sum_vanishes(self):
        rng = np.random.default_rng(20240812)
        for _ in range(100):
            k = rng.integers(1, 5)
            roots = rng.uniform(-2, 2, size=(k, 2))
            factors = [(complex(x, y), int(m)) for (x, y), m in
                       zip(roots, rng.integers(-3, -1, size=k))]
            factors.append((complex(*rng.uniform(-2, 2, size=2)),
                            int(rng.integers(1, 3))))
            scale = complex(*rng.uniform(-1, 1, size=2))
            if abs(scale) < 1e-3:
                scale = 1.0
            try:
                w = RationalDifferential(FactoredRational(scale, factors))
            except InputError:
                continue
            total = sum(w.residue(p) for p, _ in w.divisor())
            assert abs(total) <= 1e-12 * (1 + max(
                abs(w.residue(p)) for p, _ in w.divisor()))

    @pytest.mark.parametrize("k", [2000, 2 ** 70])
    def test_overflowing_factor_power_is_input_error(self, k):
        # (z - 5)^k at the pole z = 0: 5^2000 overflows a complex power
        w = RationalDifferential(FactoredRational(1.0, [(0.0, -1), (5.0, k)]))
        with pytest.raises(InputError, match="overflows"):
            w.residue(0.0)

    def test_divisor_degree_is_minus_two(self):
        w = RationalDifferential(
            FactoredRational(1.0, [(0.0, 1), (2.0, -2), (-1.0j, -3)]))
        assert sum(m for _, m in w.divisor()) == -2

    def test_isolation_guard(self):
        tight = 5 * ROOT_MERGE_TOL
        f = FactoredRational(1.0, [(0.0, -1), (tight, 1)])
        w = RationalDifferential(f)
        with pytest.raises(NoIsolation):
            w.residue(0.0)

    def test_order_at_infinity_shifts_by_two(self):
        # dz itself (constant integrand) has a double pole at infinity
        w = RationalDifferential(FactoredRational(1.0, []))
        assert w.order_at(INF) == -2
        assert w.divisor() == ((INF, -2),)


def trapezoid_residue(f: FactoredRational, p, rho: float):
    """Reference residue of f dz at a finite p: the trapezoid rule on the
    circle |z - p| = rho, which converges geometrically for an integrand
    analytic on an annulus around it (Trefethen and Weideman, SIAM Rev. 56,
    2014). Nodes double until two values agree to rounding in the size of
    the summands; returns the value and that size."""
    n, prev = 16, None
    while n <= 2 ** 14:
        w = np.exp(2j * np.pi * np.arange(n) / n)
        z = p + rho * w
        terms = rho * w * f.scale * np.prod(
            [(z - r) ** m for r, m in f.factors], axis=0)
        value, size = complex(np.mean(terms)), float(np.max(np.abs(terms)))
        if prev is not None and abs(value - prev) <= 1e-15 * size:
            return value, size
        prev, n = value, 2 * n
    raise AssertionError(f"trapezoid rule at {p} did not converge")


def oracle_residue(w: RationalDifferential, p):
    """trapezoid_residue on the widest circle that keeps the other roots
    outside, in the w = 1/z chart at infinity."""
    f = w.f
    if is_inf(p):
        g = f.inverse_chart().scaled(-1)
        f, p = FactoredRational(g.scale, g.factors + ((0j, -2),)), 0j
    dists = [abs(r - p) for r, _ in f.factors if not same_point(r, p)]
    return trapezoid_residue(f, p, 0.5 * min(dists) if dists else 1.0)


def test_residue_contour_radius_insensitive():
    """The quadrature must converge to the same residue whether the pole
    cluster forces a tight contour or allows a wide one."""
    w1 = RationalDifferential(
        FactoredRational(1.0, [(0.0, -1), (10.0, -1)]))
    w2 = RationalDifferential(
        FactoredRational(1.0, [(0.0, -1), (0.05, -1)]))
    exact1 = 1.0 / (0.0 - 10.0)
    exact2 = 1.0 / (0.0 - 0.05)
    assert oracle_residue(w1, 0.0)[0] == pytest.approx(exact1, rel=1e-12)
    assert oracle_residue(w2, 0.0)[0] == pytest.approx(exact2, rel=1e-12)


@pytest.mark.parametrize("name, n", [(name, None) for name in sorted(
    gallery.BUILDERS)] + [("spherical_n", n) for n in range(3, 9)])
def test_series_residue_matches_oracle_on_gallery(name, n):
    data = (gallery.spherical_n(n) if n else gallery.build(name)).data
    points = list(data.Q) + [cp for g in data.gluings for cp in g.points]
    for cp in points:
        w = data.omega[cp.component]
        exact, _ = oracle_residue(w, cp.point)
        assert abs(w.residue(cp.point) - exact) <= 1e-13 * abs(exact), cp


def test_series_residue_matches_oracle_on_random_differentials():
    rng = np.random.default_rng(20261018)
    orders = set()
    for _ in range(100):
        k = rng.integers(1, 5)
        factors = [(complex(*rng.uniform(-2, 2, size=2)), int(m))
                   for m in rng.integers(-3, 0, size=k)]
        factors.append((complex(*rng.uniform(-2, 2, size=2)),
                        int(rng.integers(1, 3))))
        w = RationalDifferential(
            FactoredRational(complex(*rng.uniform(0.5, 1, size=2)), factors))
        for p, m in w.divisor():
            if m >= 0:
                continue
            orders.add(-m)
            got = w.residue(p)
            exact, size = oracle_residue(w, p)
            # a residue that vanishes identically (a triple pole against a
            # single linear factor) comes out as exactly 0j; the oracle's
            # rounding is then bounded by the size of its summands
            assert abs(got - exact) <= 1e-13 * (abs(exact) if got else size)
    assert orders >= {1, 2, 3}


def test_isolation_threshold():
    # the other root must lie beyond 20 * ROOT_MERGE_TOL * (1 + |p|)
    for other, expect in ((1e-7, -1e7), (2.1e-8, -1.0 / 2.1e-8)):
        w = RationalDifferential(FactoredRational(1.0, [(0.0, -1), (other, -1)]))
        assert w.residue(0.0) == pytest.approx(expect, rel=1e-13)
    for other in (1e-8, 2e-8):
        w = RationalDifferential(FactoredRational(1.0, [(0.0, -1), (other, -1)]))
        with pytest.raises(NoIsolation):
            w.residue(0.0)


def test_differential_json_round_trip():
    w = RationalDifferential(
        FactoredRational(0.5j, [(1.0, -1), (-1.0, -1), (0.0, 1)]))
    v = RationalDifferential.from_json(w.to_json())
    assert v.residue(1.0) == pytest.approx(w.residue(1.0), rel=1e-14)
    assert v.divisor() == w.divisor()


@pytest.mark.parametrize("position", [0, 1, 2])
def test_max_abs_keeps_a_nan_in_any_position(position):
    values = [0.5, -3.0, 2.0]
    assert max_abs(values) == 3.0
    values[position] = float("nan")
    assert np.isnan(max_abs(values))


def test_max_abs_of_nothing_is_zero_and_of_complex_is_the_modulus():
    assert max_abs([]) == 0.0
    assert max_abs([3 + 4j, -1j]) == 5.0
    assert type(max_abs(np.array([1.0]))) is float
