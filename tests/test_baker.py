import numpy as np
import pytest

import spectral_coords.gallery as gallery
from spectral_coords.baker import (CoefficientVector, Solver,
                                   assemble_system, coordinate_map, eval_psi,
                                   exp_factor, h_values, solve_coefficients)
from spectral_coords.curve import (ComponentAnsatz, CurvePoint, EssentialTerm,
                                   Normalization, SpectralData)
from spectral_coords.errors import EssentialSingularity, SingularSystem
from spectral_coords.numerics import INF, FactoredRational

rng = np.random.default_rng(20240813)

ALL_NAMES = sorted(gallery.BUILDERS)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_engine_matches_reference_map(name):
    entry = gallery.build(name)
    n = entry.data.n
    us = rng.uniform(-0.5, 0.5, size=(7, n))
    assert gallery.reference_residual(entry, us) < 1e-10


def test_reality_of_coordinates():
    for name in ("example1", "polar", "spherical3"):
        entry = gallery.build(name)
        u = rng.uniform(-0.5, 0.5, size=entry.data.n)
        _, imag_max = coordinate_map(entry.data, u)
        assert imag_max < 1e-10


def test_system_is_square_and_rhs_placement():
    data = gallery.build("polar").data
    A, rhs = assemble_system(data, np.zeros(data.n))
    assert A.shape == (8, 8)
    assert rhs.shape == (8,)
    values = sorted(abs(v) for v in rhs if v != 0)
    expected = sorted(abs(nm.value) for nm in data.normalizations
                      if nm.value != 0)
    assert values == pytest.approx(expected)


def test_gluing_rows_enforce_branch_equality():
    data = gallery.build("example3").data
    u = rng.uniform(-0.4, 0.4, size=data.n)
    coeffs, _ = solve_coefficients(data, u)
    for g in data.gluings:
        vals = [eval_psi(data, coeffs, cp) for cp in g.points]
        spread = max(abs(v - vals[0]) for v in vals)
        assert spread < 1e-10


def test_eval_psi_at_growth_points_matches_map():
    data = gallery.build("example2").data
    u = rng.uniform(-0.4, 0.4, size=data.n)
    coeffs, _ = solve_coefficients(data, u)
    x, _ = coordinate_map(data, u)
    for j, cp in enumerate(data.Q):
        if cp.point is INF:
            continue  # essential singularity there, covered by map itself
        assert eval_psi(data, coeffs, cp) == pytest.approx(x[j], abs=1e-12)


def test_normalization_is_reproduced_pointwise():
    data = gallery.build("polar").data
    u = rng.uniform(-0.4, 0.4, size=data.n)
    coeffs, _ = solve_coefficients(data, u)
    for nm in data.normalizations:
        assert eval_psi(data, coeffs, nm.point) == pytest.approx(
            nm.value, abs=1e-10)


def test_leading_coefficients_for_disjoint_components():
    entry = gallery.build("euclidean3")
    u = np.array([0.3, -0.2, 0.7])
    coeffs, diag = solve_coefficients(entry.data, u)
    lead = h_values(entry.data, coeffs)
    assert np.allclose(lead, np.exp(u), atol=1e-12)
    assert diag.residual_norm < 1e-12
    assert np.isfinite(diag.condition_estimate)


def test_h_values_use_the_given_coefficients():
    data = gallery.build("example1").data
    u = rng.uniform(-0.4, 0.4, size=data.n)
    coeffs, _ = solve_coefficients(data, u)
    assert np.allclose(h_values(data, coeffs), Solver(data).h_batch(u)[0],
                       atol=1e-13)
    doubled = CoefficientVector(values=2.0 * coeffs.values, u=coeffs.u,
                                offsets=coeffs.offsets)
    assert np.allclose(h_values(data, doubled), 2.0 * h_values(data, coeffs),
                       atol=1e-13)


def test_batch_agrees_with_single_solves():
    data = gallery.build("cylindrical").data
    us = rng.uniform(-0.3, 0.3, size=(4, data.n))
    solver = Solver(data)
    batch = solver.map_batch(us)
    for k in range(us.shape[0]):
        x, _ = coordinate_map(data, us[k])
        assert np.allclose(batch[k], x, atol=1e-13)


def test_exp_factor_refuses_phase_pole():
    phase = FactoredRational(1.0, [(0j, -1)])  # 1/z
    ansatz = ComponentAnsatz(essential=(EssentialTerm(1, phase),))
    with pytest.raises(EssentialSingularity):
        exp_factor(ansatz, [1.0], 0.0)


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
        solve_coefficients(data, [0.0])


def test_coefficient_vector_block_layout():
    data = gallery.build("example1").data
    coeffs, _ = solve_coefficients(data, np.zeros(data.n))
    assert coeffs.offsets[-1] == coeffs.values.shape[0]
    # accessors address the same storage
    assert coeffs.constant(0) == coeffs.values[coeffs.offsets[0]]
    n_poles = len(data.ansatz[0].poles)
    if n_poles:
        assert coeffs.pole_coeff(0, n_poles - 1) == complex(
            coeffs.values[coeffs.offsets[0] + n_poles])
