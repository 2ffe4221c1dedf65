import dataclasses
import itertools

import numpy as np
import pytest

import spectral_coords.gallery as gallery
from spectral_coords.baker import Solver
from spectral_coords.curve import (ComponentAnsatz, CurvePoint, EssentialTerm,
                                   Normalization, SpectralData)
from spectral_coords.errors import (NonPositiveDiagonal, SingularSystem,
                                    SpectralError, StencilFailure)
from spectral_coords.geometry import (FIRST_DERIVATIVE_FD,
                                      SECOND_DERIVATIVE_FD, _christoffel,
                                      _metric, _rotation, _scale_factors,
                                      _systems, build_report,
                                      epsilon_invariant, jet, lame, metric)
from spectral_coords.numerics import INF, FactoredRational

rng = np.random.default_rng(20240814)


def polar_map(us):
    us = np.asarray(us, dtype=float)
    r = np.exp(us[:, 0])
    return np.stack([r * np.cos(us[:, 1]), r * np.sin(us[:, 1])], axis=1)


def polar_solver():
    return Solver(gallery.build("polar").data)


def scale_factors(source, u):
    """H, dH and d2H from the third-order jet, as build_report sees them."""
    j = jet(source, u, 3)
    return _scale_factors(j, _metric(j).real)


def systems(source, u):
    """Per-entry residuals (eq1, eq4, eq5), as build_report sees them; its
    eq2 is eq5."""
    H, dH, d2H = scale_factors(source, u)
    return _systems(H, *_rotation(H, dH, d2H))


def test_jacobian_of_plain_callable():
    u = np.array([0.3, 0.7])
    J = jet(polar_map, u, 1).dx.T  # J[k, a] = dx^k/du^a
    r = np.exp(u[0])
    expected = np.array([
        [r * np.cos(u[1]), -r * np.sin(u[1])],
        [r * np.sin(u[1]), r * np.cos(u[1])],
    ])
    assert np.allclose(J, expected, atol=1e-9)


def test_exact_jacobian_matches_plain_callable():
    u = np.array([0.1, -0.2])
    assert np.allclose(jet(polar_solver(), u, 1).dx,
                       jet(polar_map, u, 1).dx, atol=1e-9)


@pytest.mark.parametrize("source", [
    gallery.build("polar").data, np.array([1.0, 2.0]), None])
def test_jet_takes_only_a_solver_or_a_callable(source):
    # spectral data used to be rebuilt into a Solver on every call
    with pytest.raises(TypeError, match="Solver"):
        jet(source, np.zeros(2))


def test_metric_is_diagonal_with_known_scale_factors():
    u = np.array([-0.2, 0.9])
    g, imag_max = metric(polar_solver(), u)
    assert imag_max < 1e-9
    r2 = np.exp(2 * u[0])
    assert g[0, 0] == pytest.approx(r2, rel=1e-7)
    assert g[1, 1] == pytest.approx(r2, rel=1e-7)
    assert abs(g[0, 1]) < 1e-9
    assert np.allclose(lame(g), [np.exp(u[0])] * 2, rtol=1e-7)


def test_lame_rejects_nonpositive_metric():
    with pytest.raises(NonPositiveDiagonal):
        lame(np.diag([1.0, -2.0]))
    with pytest.raises(NonPositiveDiagonal):
        lame(np.zeros((2, 2)))


def test_rotation_closed_form():
    # both scale factors are e^{u1}, so the only nonzero coefficient is
    # the (1,2) one and it equals 1
    u = np.array([0.25, -0.4])
    beta = np.array(build_report(polar_solver(), u).rotation)
    assert beta[0, 1] == pytest.approx(1.0, abs=1e-6)
    assert abs(beta[1, 0]) < 1e-6
    assert abs(beta[0, 0]) < 1e-6 and abs(beta[1, 1]) < 1e-6


def test_system_families_by_dimension():
    eq1, eq4, eq5 = systems(polar_solver(), np.array([0.1, 0.2]))
    assert eq1 == [] and eq4 == []
    assert len(eq5) == 1

    eq1, eq4, eq5 = systems(Solver(gallery.build("spherical3").data),
                            np.array([0.1, -0.1, 0.2]))
    assert len(eq1) == 3
    assert len(eq4) == 6
    assert len(eq5) == 3
    assert max(map(abs, eq1 + eq4 + eq5)) < 1e-5


def test_flat_metrics_have_vanishing_curvature():
    for name in ("euclidean2", "polar", "example2"):
        solver = Solver(gallery.build(name).data)
        u = rng.uniform(-0.3, 0.3, size=solver.data.n)
        assert build_report(solver, u).riemann_max < 1e-5, name


def test_christoffel_closed_form_for_conformal_factor():
    u = np.array([0.2, 0.5])
    gamma, _ = _christoffel(*scale_factors(polar_solver(), u))
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = 1.0
    expected[0, 1, 1] = -1.0
    expected[1, 0, 1] = expected[1, 1, 0] = 1.0
    assert np.allclose(gamma, expected, atol=1e-5)


def test_immersion_system_closes():
    for name in ("polar", "example3"):
        solver = Solver(gallery.build(name).data)
        u = rng.uniform(-0.3, 0.3, size=solver.data.n)
        assert build_report(solver, u).immersion_max < 1e-6, name


def skewed_map(us):
    # a polynomial map whose coordinate lines are not orthogonal
    u1, u2, u3 = np.asarray(us, dtype=float).T
    return np.stack([u1 + 0.3 * u2 ** 2, u2 + 0.2 * u1 * u3,
                     u3 + 0.1 * u1 ** 2 + 0.05 * u2 * u3], axis=1)


@pytest.mark.parametrize("u", [[0.1, 0.2, 0.3], [-0.3, 0.4, 0.1],
                               [0.5, -0.2, -0.4]])
def test_flatness_gates_fire_on_a_non_orthogonal_map(u):
    # diag(H^2) of this map is not flat, so every residual reads far
    # above the roundoff of the FD jet of this quadratic map (eq2 ~ 0.079,
    # eq1 ~ 6e-4 here)
    u = np.array(u)
    rep = build_report(skewed_map, u)
    for name in ("g_offdiag_max", "eq1_max", "eq2_max", "eq4_max",
                 "eq5_max", "riemann_max", "immersion_max"):
        assert getattr(rep, name) > 1e-4, name

    # eq1 and eq2 come from beta; the scale-factor forms of the same
    # systems (the Lame equations and the eq2 sum over H, dH, d2H) are
    # the oracle
    H, dH, d2H = scale_factors(skewed_map, u)
    eq1, _, eq5 = _systems(H, *_rotation(H, dH, d2H))
    lame_form = []
    for i, j, k in itertools.combinations(range(3), 3):
        for ii, jj, kk in ((i, j, k), (j, i, k), (k, i, j)):
            lame_form.append(d2H[jj, kk, ii]
                             - (dH[kk, jj] / H[jj]) * dH[jj, ii]
                             - (dH[jj, kk] / H[kk]) * dH[kk, ii])
    assert eq1 == pytest.approx(lame_form, rel=1e-12, abs=0.0)
    sum_form = []
    for i, j in itertools.combinations(range(3), 2):
        k = 3 - i - j
        sum_form.append(d2H[j, j, i] / H[j] - dH[j, i] * dH[j, j] / H[j] ** 2
                        + d2H[i, i, j] / H[i]
                        - dH[i, j] * dH[i, i] / H[i] ** 2
                        + dH[k, i] * dH[k, j] / H[k] ** 2)
    assert eq5 == pytest.approx(sum_form, rel=1e-12, abs=0.0)
    assert rep.eq2_max == rep.eq5_max


def test_epsilon_ratio_is_parameter_independent():
    solver = Solver(gallery.build("example1").data)
    us = rng.uniform(-0.4, 0.4, size=(5, solver.data.n))
    H = [lame(metric(solver, u)[0]) for u in us]
    spread = epsilon_invariant(solver, us, H)
    assert spread.shape == (solver.data.n,)
    assert np.max(spread) < 1e-6


def test_example1_residuals_are_roundoff_over_powers_of_min_scale_factor():
    # verify's default 3x3 grid on example1 reaches u = (0.4, -0.4), where
    # the smallest scale factor is about 1.2e-3. The Riemann tensor divides
    # by H^3 and eq2 by H^2, so roundoff of order eps in the jet reads
    # there as about eps/H_min^3 and eps/H_min^2; elsewhere on the grid
    # the residuals are at roundoff.
    solver = Solver(gallery.build("example1").data)
    axis = np.linspace(-0.4, 0.4, 3)
    for u in itertools.product(axis, repeat=2):
        rep = build_report(solver, np.array(u))
        h_min = min(rep.lame)
        assert rep.riemann_max * h_min ** 3 <= 1e-15, u
        assert rep.eq2_max * h_min ** 2 <= 1e-15, u
        if h_min >= 0.1:
            assert rep.riemann_max <= 1e-13, u


def test_build_report_fields_and_serialization():
    report = build_report(polar_solver(), np.array([0.0, 1.0]))
    assert report.x[0][0] == pytest.approx(np.cos(1.0), abs=1e-10)
    assert report.x[1][0] == pytest.approx(np.sin(1.0), abs=1e-10)
    assert report.imag_max < 1e-10
    assert report.g_offdiag_max < 1e-9
    assert report.lame == pytest.approx([1.0, 1.0], rel=1e-7)
    assert report.eq1_max == 0.0  # empty family for n = 2
    assert report.eq5_max < 1e-5
    assert report.riemann_max < 1e-5
    assert report.immersion_max < 1e-6
    assert {f.name for f in dataclasses.fields(report)} == {
        "u", "x", "imag_max", "g_offdiag_max", "lame", "rotation",
        "eq1_max", "eq2_max", "eq4_max", "eq5_max", "riemann_max",
        "immersion_max"}


def test_fd_tiers_are_distinct():
    assert FIRST_DERIVATIVE_FD.h < SECOND_DERIVATIVE_FD.h
    assert FIRST_DERIVATIVE_FD.order == 2
    assert SECOND_DERIVATIVE_FD.order == 4


# Bounds fixed before the first comparison, at about ten times the error
# of the finite-difference stencils (first derivatives at h = 1e-5,
# order 2; higher ones at h = 1e-3, order 4). Each order's gap is taken
# relative to the largest entry of the jet up to that order, since the
# stencil's rounding error scales with the map values themselves.
JET_BOUNDS = {1: 1e-9, 2: 1e-7, 3: 1e-5}
JET_ENTRIES = [(name, lambda name=name: gallery.build(name))
               for name in sorted(gallery.BUILDERS)] + [
    ("spherical_n(5)", lambda: gallery.spherical_n(5)),
    ("spherical_n(6)", lambda: gallery.spherical_n(6)),
]


@pytest.mark.parametrize("name,build", JET_ENTRIES,
                         ids=[name for name, _ in JET_ENTRIES])
def test_exact_jet_matches_finite_differences(name, build):
    solver = Solver(build().data)
    points = np.random.default_rng(20240901).uniform(
        -0.3, 0.3, size=(2, solver.data.n))
    for u in points:
        exact = jet(solver, u)
        fd = jet(solver.map_batch, u)
        orders = [exact.x, exact.dx, exact.d2x, exact.d3x]
        fd_orders = [fd.x, fd.dx, fd.d2x, fd.d3x]
        assert np.max(np.abs(exact.x - fd.x)) < 1e-12 * (
            1.0 + np.max(np.abs(exact.x)))
        for k, bound in JET_BOUNDS.items():
            scale = max(np.max(np.abs(d)) for d in orders[:k + 1])
            gap = np.max(np.abs(orders[k] - fd_orders[k])) / scale
            assert gap < bound, (name, u.tolist(), k, gap)


def test_batched_jet_agrees_with_single_points():
    solver = Solver(gallery.build("cylindrical").data)
    us = rng.uniform(-0.3, 0.3, size=(3, solver.data.n))
    batch = solver.jet(us, 3)
    assert np.allclose(batch[0], solver.map_batch(us), atol=1e-13)
    for s, u in enumerate(us):
        single = solver.jet(u, 2)
        assert len(single) == 3
        for k in range(3):
            assert np.allclose(batch[k][s], single[k][0], atol=1e-13)


def _singular_data():
    phase = FactoredRational(1.0, [(0j, 1)])
    return SpectralData(
        n=1,
        ansatz=(ComponentAnsatz(essential=(EssentialTerm(1, phase),),
                                poles=(2.0,)),),
        gluings=(),
        normalizations=(Normalization(CurvePoint(0, 1.0), 1.0),
                        Normalization(CurvePoint(0, 1.0), 2.0)),
        Q=(CurvePoint(0, 0.0),),
        P_markers=(CurvePoint(0, INF),),
        omega=(),
    )


def test_exact_path_raises_singular_system():
    solver = Solver(_singular_data())
    with pytest.raises(SingularSystem):
        solver.jet(np.zeros(1), 3)
    with pytest.raises(SingularSystem):
        build_report(solver, np.zeros(1))
    with pytest.raises(SingularSystem):
        metric(solver, np.zeros(1))


def test_exact_path_raises_nonpositive_diagonal():
    # scaling every normalization value by 1j scales the map by 1j (the
    # solve is linear in them), so the bilinear metric becomes -g and
    # every Re g_ii is negative
    data = gallery.build("polar").data
    data = dataclasses.replace(data, normalizations=tuple(
        dataclasses.replace(nm, value=1j * nm.value)
        for nm in data.normalizations))
    solver = Solver(data)
    u = np.array([0.1, np.pi / 2])
    with pytest.raises(NonPositiveDiagonal):
        build_report(solver, u)
    with pytest.raises(NonPositiveDiagonal):
        lame(metric(solver, u)[0])


def test_stencil_wraps_a_failing_callable():
    def broken(points):
        raise ValueError("no map here")
    with pytest.raises(StencilFailure, match="no map here"):
        build_report(broken, np.array([0.3, 0.7]))


def test_stencil_refuses_a_wrongly_shaped_callable():
    with pytest.raises(StencilFailure, match="shape"):
        build_report(lambda points: polar_map(points)[:, :1],
                     np.array([0.3, 0.7]))


def test_stencil_passes_spectral_errors_through():
    # a SpectralError from the map keeps its own class (and exit code)
    source = Solver(_singular_data()).map_batch
    with pytest.raises(SpectralError) as info:
        build_report(source, np.zeros(1))
    assert type(info.value) is SingularSystem
