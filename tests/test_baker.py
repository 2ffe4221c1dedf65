import tracemalloc

import numpy as np
import pytest

import spectral_coords.gallery as gallery
from spectral_coords.baker import (_SOLVE_BLOCK, CONDITION_LIMIT, Solver,
                                   _point_rows, _psi)
from spectral_coords.curve import (ComponentAnsatz, CurvePoint, EssentialTerm,
                                   Normalization, SpectralData)
from spectral_coords.errors import EssentialSingularity, SingularSystem
from spectral_coords.numerics import INF, FactoredRational

rng = np.random.default_rng(20240813)

ALL_NAMES = sorted(gallery.BUILDERS)


def psi_at(solver, us, coeffs, points):
    """psi(u) at the given curve points, shape (m, len(points))."""
    return _psi(us, coeffs, *_point_rows(solver.data, points, solver.offsets))


def coefficients(solver, us):
    """The solved c(u), which no public Solver method returns."""
    return solver._factor(np.atleast_2d(np.asarray(us, dtype=float)))[0]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_engine_matches_reference_map(name):
    entry = gallery.build(name)
    n = entry.data.n
    us = rng.uniform(-0.5, 0.5, size=(7, n))
    engine = Solver(entry.data).map_batch(us)
    assert np.max(np.abs(engine - entry.reference(us))) < 1e-10


def test_reality_of_coordinates():
    for name in ("example1", "polar", "spherical3"):
        entry = gallery.build(name)
        u = rng.uniform(-0.5, 0.5, size=entry.data.n)
        x = Solver(entry.data).map_batch(u)[0]
        assert np.max(np.abs(x.imag)) < 1e-10


def test_system_is_square_and_rhs_placement():
    data = gallery.build("polar").data
    solver = Solver(data)
    A, rhs = solver.matrices(np.zeros(data.n))[0], solver.rhs
    assert A.shape == (8, 8)
    assert rhs.shape == (8,)
    values = sorted(abs(v) for v in rhs if v != 0)
    expected = sorted(abs(nm.value) for nm in data.normalizations
                      if nm.value != 0)
    assert values == pytest.approx(expected)


def test_gluing_rows_enforce_branch_equality():
    data = gallery.build("example3").data
    u = rng.uniform(-0.4, 0.4, size=(1, data.n))
    solver = Solver(data)
    coeffs = coefficients(solver, u)
    for g in data.gluings:
        vals = psi_at(solver, u, coeffs, g.points)[0]
        spread = max(abs(v - vals[0]) for v in vals)
        assert spread < 1e-10


def test_eval_psi_at_growth_points_matches_map():
    data = gallery.build("example2").data
    u = rng.uniform(-0.4, 0.4, size=(1, data.n))
    solver = Solver(data)
    coeffs = coefficients(solver, u)
    x = solver.map_batch(u)[0]
    for j, cp in enumerate(data.Q):
        if cp.point is INF:
            continue  # essential singularity there, covered by map itself
        assert psi_at(solver, u, coeffs, [cp])[0, 0] == pytest.approx(
            x[j], abs=1e-12)


def test_normalization_is_reproduced_pointwise():
    data = gallery.build("polar").data
    u = rng.uniform(-0.4, 0.4, size=(1, data.n))
    solver = Solver(data)
    coeffs = coefficients(solver, u)
    for nm in data.normalizations:
        assert psi_at(solver, u, coeffs, [nm.point])[0, 0] == pytest.approx(
            nm.value, abs=1e-10)


def test_leading_coefficients_for_disjoint_components():
    entry = gallery.build("euclidean3")
    u = np.array([[0.3, -0.2, 0.7]])
    solver = Solver(entry.data)
    _, _, lead, cond, resid = solver.solve_batch(u)
    assert np.allclose(lead[0], np.exp(u[0]), atol=1e-12)
    assert resid[0] < 1e-12
    assert np.isfinite(cond[0])


def test_h_values_use_the_given_coefficients():
    data = gallery.build("example1").data
    u = rng.uniform(-0.4, 0.4, size=(1, data.n))
    solver = Solver(data)
    coeffs = coefficients(solver, u)

    def h_of(c):
        return _psi(u, c, solver._h_base, solver._h_phase)

    assert np.allclose(h_of(coeffs), Solver(data).h_batch(u), atol=1e-13)
    assert np.allclose(h_of(2.0 * coeffs), 2.0 * h_of(coeffs), atol=1e-13)


def test_batch_agrees_with_single_solves():
    data = gallery.build("cylindrical").data
    us = rng.uniform(-0.3, 0.3, size=(4, data.n))
    solver = Solver(data)
    batch = solver.map_batch(us)
    for k in range(us.shape[0]):
        x = Solver(data).map_batch(us[k])[0]
        assert np.allclose(batch[k], x, atol=1e-13)


def test_psi_refuses_phase_pole_at_marker():
    data = gallery.build("polar").data
    solver = Solver(data)
    u = np.array([[0.3, 1.0]])
    coeffs = coefficients(solver, u)
    for cp in data.P_markers:
        with pytest.raises(EssentialSingularity):
            psi_at(solver, u, coeffs, [cp])


def test_degenerate_normalizations_raise_singular_system():
    phase = FactoredRational(1.0, [(0j, 1)])
    data = SpectralData(
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
    with pytest.raises(SingularSystem):
        Solver(data).solve_batch([0.0])


def test_coefficient_block_layout():
    data = gallery.build("example1").data
    solver = Solver(data)
    coeffs = coefficients(solver, np.zeros(data.n))
    assert solver.offsets[-1] == solver.size == coeffs.shape[-1]
    # one block per component: the constant, then one entry per pole
    assert np.diff(solver.offsets).tolist() == [
        1 + len(comp.poles) for comp in data.ansatz]


def test_solver_public_methods_are_pinned():
    # the coefficients stay inside: no public method takes or returns c
    public = sorted(k for k, v in vars(Solver).items()
                    if callable(v) and not k.startswith("_"))
    assert public == ["h_batch", "jet", "map_batch", "matrices",
                      "solve_batch"]


def _gate_by_svd(solver, us):
    """The refusal message of a gate that takes np.linalg.cond of every row
    at once, or None, with the conditions and the stacked-solve
    coefficients when nothing is refused."""
    A = solver.matrices(us)
    finite = np.isfinite(A).all(axis=(1, 2))
    if not finite.all():
        u = us[np.argmin(finite)]
        return f"exp(phase . u) overflows at u = {u.tolist()}", None, None
    cond = np.linalg.cond(A)
    worst = float(np.max(cond))
    if not np.isfinite(worst) or worst > CONDITION_LIMIT:
        u = us[np.argmax(cond)]
        return (f"condition estimate {worst:.3e} at u = {u.tolist()}",
                None, None)
    rhs = np.concatenate([solver.rhs[:, None], np.eye(solver.size)], axis=1)
    sol = np.linalg.solve(A, np.broadcast_to(rhs, A.shape[:1] + rhs.shape))
    return None, cond, sol[..., 0]


SWEEP_RADII = (1, 2, 4, 8, 15, 25, 35, 45, 60)


def test_screen_refuses_exactly_what_an_svd_of_every_row_refuses():
    # batches of 2500 rows span three solve blocks, so refusals land in
    # different blocks
    refusals = {}
    for name in ALL_NAMES:
        solver = Solver(gallery.build(name).data)
        sweep = np.random.default_rng(sum(map(ord, name)))
        for r in SWEEP_RADII:
            for rows in (1, 7, 2500):
                us = r * sweep.uniform(-1.0, 1.0, (rows, solver.data.n))
                message, cond, coeffs = _gate_by_svd(solver, us)
                if message is not None:
                    with pytest.raises(SingularSystem) as info:
                        solver.map_batch(us)
                    assert str(info.value) == message
                    refusals.setdefault(name, []).append(message)
                    continue
                assert np.array_equal(solver._factor(us)[0], coeffs)
                if rows < 2500:
                    assert np.array_equal(solver.solve_batch(us)[3], cond)
    assert sum(map(len, refusals.values())) == 104


@pytest.mark.parametrize("name, u, message", [
    ("euclidean2", [30.0, -15.0],
     "condition estimate 3.493e+19 at u = [30.0, -15.0]"),
    ("polar", [30.0, 0.5], "condition estimate 5.831e+13 at u = [30.0, 0.5]"),
    ("spherical4", [30.0, 0.1, 0.1, 0.1],
     "condition estimate 9.854e+13 at u = [30.0, 0.1, 0.1, 0.1]"),
])
def test_badly_scaled_refusals_keep_their_messages(name, u, message):
    solver = Solver(gallery.build(name).data)
    for call in (solver.solve_batch, solver.map_batch, solver.h_batch,
                 solver.jet):
        with pytest.raises(SingularSystem) as info:
            call(u)
        assert str(info.value) == message


def test_solve_batch_reports_the_svd_condition_and_residual():
    solver = Solver(gallery.build("spherical3").data)
    us = rng.uniform(-0.5, 0.5, size=(5, 3))
    _, _, _, cond, resid = solver.solve_batch(us)
    A = solver.matrices(us)
    assert np.array_equal(cond, np.linalg.cond(A))
    assert np.array_equal(resid, np.linalg.norm(
        np.einsum("mij,mj->mi", A, coefficients(solver, us)) - solver.rhs,
        axis=1))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_solve_batch_map_and_h_equal_map_batch_and_h_batch(name):
    # one _factor and _psi path behind all three, so bit for bit
    solver = Solver(gallery.build(name).data)
    us = np.random.default_rng(sum(map(ord, name))).uniform(
        -0.5, 0.5, size=(3, solver.data.n))
    x, _, h, _, _ = solver.solve_batch(us)
    assert np.array_equal(x, solver.map_batch(us))
    assert np.array_equal(h, solver.h_batch(us))
    assert x.shape == h.shape == (3, solver.data.n)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_solve_batch_derivative_equals_the_order_one_jet(name):
    # the same factorization and derivative helper, so bit for bit
    solver = Solver(gallery.build(name).data)
    us = np.random.default_rng(sum(map(ord, name))).uniform(
        -0.5, 0.5, size=(3, solver.data.n))
    x, dx, _, _, _ = solver.solve_batch(us)
    jet = solver.jet(us, 1)
    assert np.array_equal(x, jet[0])
    assert np.array_equal(dx, jet[1])
    assert dx.shape == (3, solver.data.n, solver.data.n)


def test_map_batch_blocks_are_independent():
    solver = Solver(gallery.build("cylindrical").data)
    us = rng.uniform(-0.5, 0.5, size=(3 * _SOLVE_BLOCK - 17, 3))
    parts = [solver.map_batch(us[r0:r0 + _SOLVE_BLOCK])
             for r0 in range(0, len(us), _SOLVE_BLOCK)]
    assert np.array_equal(solver.map_batch(us), np.concatenate(parts))


def test_map_batch_memory_does_not_grow_with_the_batch():
    solver = Solver(gallery.build("spherical3").data)
    us = rng.uniform(-0.5, 0.5, size=(20000, 3))
    tracemalloc.start()
    try:
        solver.map_batch(us)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


@pytest.mark.parametrize("call", ["map_batch", "h_batch", "solve_batch",
                                  "jet"])
def test_overflowing_exponent_is_refused_without_warnings(call):
    # exp(phase . u) overflows at u1 = -800; RuntimeWarnings are errors here
    solver = Solver(gallery.build("polar").data)
    us = np.array([[0.0, 0.0], [-800.0, 0.0], [-800.0, 1.0]])
    with pytest.raises(SingularSystem,
                       match=r"exp\(phase \. u\) overflows at u = "
                             r"\[-800\.0, 0\.0\]"):
        getattr(solver, call)(us)
