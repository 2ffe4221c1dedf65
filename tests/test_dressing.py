import dataclasses
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

import spectral_coords.gallery as gallery
from spectral_coords import cli, dressing, geometry
from spectral_coords.baker import Solver
from spectral_coords.dressing import (Factor, Grid, KernelSpec, PhiEntry,
                                      _cumulative_integral, _gauss_legendre,
                                      check_beta_systems, lame_from_rotation,
                                      rotation_from_dressing, solve_marchenko,
                                      solve_marchenko_kernel)
from spectral_coords.errors import (IncompatibleField, InputError,
                                    SingularFredholm, StencilFailure,
                                    TailTooFat)
from test_geometry import systems

rng = np.random.default_rng(20240816)


def make_spec3() -> KernelSpec:
    g = lambda *a: Factor("gaussian", *a)
    return KernelSpec(3, (
        PhiEntry(1, 1, g(0.3, 1.2, 0.4), g(0.25, 0.9, -0.2)),
        PhiEntry(1, 2, g(0.4, 1.0, 0.3), g(0.35, 1.1, 0.1)),
        PhiEntry(1, 3, g(0.3, 1.1, -0.1), g(0.2, 1.0, 0.25)),
        PhiEntry(2, 2, g(0.2, 1.3, 0.2), g(0.3, 0.8, 0.5)),
        PhiEntry(2, 3, g(0.25, 0.9, 0.15), g(0.3, 1.2, -0.3)),
        PhiEntry(3, 3, g(0.35, 1.0, 0.0), g(0.15, 1.1, 0.3)),
    ))


def make_spec2() -> KernelSpec:
    full = make_spec3()
    kept = [e for e in full.entries if (e.i, e.j) in ((1, 1), (1, 2), (2, 2))]
    return KernelSpec(2, kept)


GRID = Grid(s=-2.0, s_max=7.0, N=160)


class TrapezoidGrid(Grid):
    """A Grid with trapezoid nodes: the second-order oracle rule, whose
    N^-2 error is a known rate and whose uniform weights make exact node
    arithmetic easy."""

    def nodes(self):
        q = np.linspace(self.s, self.s_max, self.N)
        w = np.full(self.N, q[1] - q[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        return q, w


# -- factors and specs ------------------------------------------------------

@pytest.mark.parametrize("factor", [
    Factor("gaussian", 0.7, 1.3, 0.2),
    Factor("bump", 0.5, 2.0, -0.3),
])
def test_factor_derivative_matches_fd(factor):
    ts = np.linspace(-1.2, 1.2, 9)
    h = 1e-6
    fd = (factor.value(ts + h) - factor.value(ts - h)) / (2 * h)
    assert np.max(np.abs(factor.dvalue(ts) - fd)) < 1e-7


def test_gaussian_far_tail_is_exactly_zero_without_overflow():
    # (t - center)^2 overflows beyond |t| ~ 1.3e154; the factor is 0 there
    f = Factor("gaussian", 0.7, 1.3, 0.2)
    steep = Factor("gaussian", 0.7, 100.0, 0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (1e200, -1e200):
            assert f.value(t) == 0.0 and f.dvalue(t) == 0.0
        assert steep.dvalue(1e307) == 0.0
        assert not np.any(f.value(np.array([1e200, -1e300, 1e308])))
        spec = make_spec3()
        for s, sp in ((1e200, 0.0), (0.0, 1e200), (1e200, -1e200)):
            assert not np.any(reference_F(spec, np.zeros(3), s, sp))
            assert not np.any(spec_F(spec, np.zeros(3), s, sp))


def test_bump_is_compactly_supported():
    f = Factor("bump", 1.0, 0.5, 0.0)
    assert f.value(0.51) == 0.0
    assert f.dvalue(-0.6) == 0.0
    assert f.value(0.0) == pytest.approx(math.exp(-1.0))


def test_factor_validation_and_json_keys():
    with pytest.raises(InputError):
        Factor("lorentzian", 1.0, 1.0, 0.0)
    with pytest.raises(InputError):
        Factor("gaussian", 1.0, 0.0, 0.0)
    assert "rate" in Factor("gaussian", 1.0, 2.0, 0.0).to_json()
    assert "width" in Factor("bump", 1.0, 2.0, 0.0).to_json()


@pytest.mark.parametrize("field", ["amp", "width", "center"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_factor_requires_finite_parameters(field, bad):
    params = {"amp": 0.5, "width": 1.0, "center": 0.0, field: bad}
    for family in ("gaussian", "bump"):
        with pytest.raises(InputError, match="finite"):
            Factor(family, **params)


def test_bump_with_an_overflowing_tau_is_exactly_zero_without_warnings():
    # (t - center) / width overflows for a subnormal width; those points
    # lie outside the support
    f = Factor("bump", 0.4, 1e-320, -0.3)
    t = np.array([-2.0, -0.3, 0.5, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, dvalue = f.value(t), f.dvalue(t)
    assert value.tolist() == [0.0, 0.4 * math.exp(-1.0), 0.0, 0.0]
    assert dvalue.tolist() == [0.0, 0.0, 0.0, 0.0]


def test_bump_values_are_the_closed_form_bit_for_bit():
    f = Factor("bump", 0.5, 2.0, -0.3)
    t = np.linspace(-2.5, 2.0, 37)
    tau = (t - f.center) / f.width
    inside = np.abs(tau) < 1.0
    ti = tau[inside]
    value = np.zeros_like(t)
    value[inside] = f.amp * np.exp(-1.0 / (1.0 - ti ** 2))
    dvalue = np.zeros_like(t)
    dvalue[inside] = value[inside] * (-2.0 * ti / (1.0 - ti ** 2) ** 2) \
        / f.width
    assert f.value(t).tobytes() == value.tobytes()
    assert f.dvalue(t).tobytes() == dvalue.tobytes()


def test_kernel_spec_rejects_bad_entries():
    g = Factor("gaussian", 1.0, 1.0, 0.0)
    with pytest.raises(InputError):
        KernelSpec(2, (PhiEntry(2, 1, g, g),))
    with pytest.raises(InputError):
        KernelSpec(2, (PhiEntry(1, 3, g, g),))
    with pytest.raises(InputError):
        KernelSpec(2, (PhiEntry(1, 2, g, g), PhiEntry(1, 2, g, g)))


def test_kernel_spec_json_round_trip():
    spec = make_spec3()
    again = KernelSpec.from_json(spec.to_json())
    assert again == spec
    with pytest.raises(InputError):
        KernelSpec.from_json({"phi": []})
    with pytest.raises(InputError):
        KernelSpec.from_json({"n": 1, "phi": [{"i": 1, "j": 1,
                                               "family": "poly-product",
                                               "params": {}}]})


@pytest.mark.parametrize("key, value", [
    ("i", 1.5), ("j", 2.5), ("i", True), ("j", "2"), ("i", None),
    ("n", 2.5), ("n", False),
])
def test_kernel_spec_indices_must_be_integers(key, value):
    obj = make_spec2().to_json()
    target = obj if key == "n" else obj["phi"][1]
    target[key] = value
    with pytest.raises(InputError, match="integer"):
        KernelSpec.from_json(obj)


# -- the kernel matrix ------------------------------------------------------

def reference_F(spec, u, s, sp) -> np.ndarray:
    """F(s, s') written out block by block from the factors, independently
    of the spec's term table; blocks with no entry are 0. Scalar s, s' give
    an (n, n) matrix; array arguments broadcast to trailing axes."""
    s, sp = np.asarray(s, dtype=float), np.asarray(sp, dtype=float)
    entries = {(e.i - 1, e.j - 1): e for e in spec.entries}
    F = np.zeros((spec.n, spec.n) + np.broadcast_shapes(s.shape, sp.shape))
    for a in range(spec.n):
        for b in range(spec.n):
            x, y = s - u[a], sp - u[b]
            if a == b and (a, a) in entries:
                e = entries[a, a]
                F[a, a] = e.first.dvalue(x) * e.second.value(y) \
                    - e.second.dvalue(x) * e.first.value(y)
            elif a < b and (a, b) in entries:
                e = entries[a, b]
                F[a, b] = e.first.dvalue(x) * e.second.value(y)
            elif a > b and (b, a) in entries:
                e = entries[b, a]
                F[a, b] = -e.second.dvalue(x) * e.first.value(y)
    return F


def spec_F(spec, u, s, sp) -> np.ndarray:
    """The (n, n) matrix F(s, s') that a solve sums: the spec's term rows
    at the scalars s and s', through _Layout.kernel."""
    X, Y = spec._rows(u, np.array([s, sp], dtype=float))
    return spec._layout.kernel(X, Y, slice(0, 1), slice(1, 2))[:, :, 0, 0]


def test_build_F_entry_conventions():
    spec = make_spec2()
    u = np.array([0.1, -0.2])
    s, sp = 0.4, -0.3
    F = spec_F(spec, u, s, sp)
    entries = {(e.i, e.j): e for e in spec.entries}
    e12 = entries[1, 2]
    assert F[0, 1] == pytest.approx(
        e12.first.dvalue(s - u[0]) * e12.second.value(sp - u[1]))
    assert F[1, 0] == pytest.approx(
        -e12.first.value(sp - u[0]) * e12.second.dvalue(s - u[1]))
    e11 = entries[1, 1]
    assert F[0, 0] == pytest.approx(
        e11.first.dvalue(s - u[0]) * e11.second.value(sp - u[0])
        - e11.second.dvalue(s - u[0]) * e11.first.value(sp - u[0]))
    # every block of a full and of a sparse spec; absent pairs are exactly 0
    gen = np.random.default_rng(808)
    for spec in (make_spec3(), layout_specs()["sparse4"]):
        present = np.zeros((spec.n, spec.n), dtype=bool)
        for e in spec.entries:
            present[e.i - 1, e.j - 1] = present[e.j - 1, e.i - 1] = True
        u = gen.uniform(-0.3, 0.3, size=spec.n)
        for s, sp in gen.uniform(-1.5, 1.5, size=(4, 2)):
            F = spec_F(spec, u, s, sp)
            ref = reference_F(spec, u, s, sp)
            assert np.max(np.abs(F - ref)) <= 1e-15 * np.max(np.abs(ref))
            assert not np.any(F[~present])


# central-difference step and (s, s') sample axis of explicit_F_residuals
F_CHECK_STEP = 1e-4
F_CHECK_POINTS = (-1.5, -0.75, 0.0, 0.75, 1.5)


def explicit_F_residuals(spec, u, F=spec_F):
    """(max residual of the linear symmetry system, max residual of the
    differential reduction) of F(spec, u, s, s') over the grid
    F_CHECK_POINTS^2 of (s, s'), by central differences in each variable."""
    n = spec.n
    h = F_CHECK_STEP
    res10 = res12 = 0.0
    for s in F_CHECK_POINTS:
        for sp in F_CHECK_POINTS:
            dFdu = np.stack([
                (F(spec, u + h * e, s, sp) - F(spec, u - h * e, s, sp))
                / (2 * h)
                for e in np.eye(n)])
            dFds = (F(spec, u, s + h, sp) - F(spec, u, s - h, sp)) / (2 * h)
            dFdsp = (F(spec, u, s, sp + h) - F(spec, u, s, sp - h)) / (2 * h)
            for k in range(n):
                resid = dFdu[k].copy()
                resid[k, :] += dFds[k, :]
                resid[:, k] += dFdsp[:, k]
                res10 = max(res10, float(np.max(np.abs(resid))))
            dF_swap = (F(spec, u, sp, s + h) - F(spec, u, sp, s - h)) / (2 * h)
            res12 = max(res12, float(np.max(np.abs(dFdsp + dF_swap.T))))
    return res10, res12


@pytest.mark.parametrize("u", [np.zeros(3), np.array([0.3, -0.1, 0.2])])
def test_kernel_satisfies_both_structure_systems(u):
    res10, res12 = explicit_F_residuals(make_spec3(), u)
    assert res10 < 1e-6
    assert res12 < 1e-6


def test_wrong_off_diagonal_sign_breaks_reduction():
    # flipping the sign of the lower block makes the reduction residual
    # jump from FD noise to order one; each entry's symmetry equation
    # involves that entry alone, so that system still holds
    spec = make_spec2()

    def flipped(*args):
        out = spec_F(*args)
        out[1, 0] *= -1.0
        return out

    assert explicit_F_residuals(spec, np.zeros(2))[1] < 1e-6
    res10, res12 = explicit_F_residuals(spec, np.zeros(2), flipped)
    assert res10 < 1e-6
    assert res12 > 1e-3


def test_kernel_at_doubled_u_breaks_the_symmetry_system():
    # F(2u) doubles every u-derivative, so dF/du^k no longer cancels the
    # s- and s'-derivatives; the reduction, in (s, s') alone, still holds
    res10, res12 = explicit_F_residuals(
        make_spec3(), np.array([0.1, -0.2, 0.05]),
        lambda spec, u, s, sp: spec_F(spec, 2.0 * np.asarray(u), s, sp))
    assert res10 > 1e-3
    assert res12 < 1e-6


# -- quadrature grids -------------------------------------------------------

def test_grid_weights_sum_to_span():
    for cls in (TrapezoidGrid, Grid):
        g = cls(s=-1.0, s_max=3.0, N=33)
        q, w = g.nodes()
        assert q.shape == w.shape == (33,)
        assert np.sum(w) == pytest.approx(4.0)
        assert q.min() >= -1.0 and q.max() <= 3.0


def test_gauss_rule_is_high_order():
    g = Grid(s=0.0, s_max=1.0, N=8)
    q, w = g.nodes()
    for p in range(15):
        assert np.sum(w * q ** p) == pytest.approx(1.0 / (p + 1), abs=1e-14)


def test_grid_validation():
    with pytest.raises(InputError):
        Grid(s=1.0, s_max=0.0)
    with pytest.raises(InputError):
        Grid(s=0.0, s_max=1.0, N=4)
    for s, s_max in ((0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)):
        with pytest.raises(InputError):
            Grid(s=s, s_max=s_max)


def test_node_cache_hands_out_fresh_arrays():
    grid = Grid(s=-1.0, s_max=2.0, N=24)
    q, w = grid.nodes()
    q0, w0 = q.copy(), w.copy()
    q[:] = 0.0
    w *= 2.0
    q1, w1 = grid.nodes()
    assert np.array_equal(q1, q0) and np.array_equal(w1, w0)
    x, wx = _gauss_legendre(24)
    assert not x.flags.writeable and not wx.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0


# -- Marchenko solve --------------------------------------------------------

def rank_one_pair():
    phi = Factor("gaussian", 0.4, 1.3, 0.5)
    psi = Factor("gaussian", 0.3, 0.9, -0.2)
    return phi, psi


# one axis and one term X(x) Y(y) on block (0, 0)
RANK_ONE = dressing._Layout(1, [(0, 0)])


def solve_rank_one(phi, psi, grid):
    """Marchenko solve for F(x, y) = phi(x) psi(y) on one axis."""
    return solve_marchenko_kernel(
        lambda points: (phi.value(points)[None], psi.value(points)[None]),
        1, grid, RANK_ONE)


def rank_one_K(sol, phi, psi, sp) -> float:
    """K(s, s') by Nystrom interpolation from the nodes:
    F(s, s') + sum_k w_k K(s, q_k) F(q_k, s')."""
    inner = np.sum(sol.w * sol.K_nodes[0, 0] * phi.value(sol.q))
    return float((phi.value(sol.grid.s) + inner) * psi.value(sp))


def rank_one_exact(phi, psi, s, sp):
    """For F(a,b) = phi(a) psi(b) the solution is explicit:
    K(s,s') = phi(s) psi(s') / (1 - m(s)) with m the tail integral of
    phi*psi, a scaled complementary error function."""
    r = phi.width + psi.width
    cm = (phi.width * phi.center + psi.width * psi.center) / r
    pref = phi.amp * psi.amp * math.exp(
        -phi.width * psi.width * (phi.center - psi.center) ** 2 / r)
    m = pref * math.sqrt(math.pi / r) * 0.5 * math.erfc(
        math.sqrt(r) * (s - cm))
    return phi.value(s) * psi.value(sp) / (1.0 - m)


def test_rank_one_solution_matches_closed_form():
    phi, psi = rank_one_pair()
    grid = Grid(s=-2.0, s_max=6.0, N=200)
    sol = solve_rank_one(phi, psi, grid)
    assert sol.residual < 1e-12
    worst = 0.0
    for sp in (-2.0, -1.0, 0.0, 0.7, 2.5):
        got = rank_one_K(sol, phi, psi, sp)
        worst = max(worst, abs(got - rank_one_exact(phi, psi, grid.s, sp)))
    assert worst < 1e-8


def test_trapezoid_error_halves_twice_per_refinement():
    phi, psi = rank_one_pair()

    def err(N):
        grid = TrapezoidGrid(s=-2.0, s_max=6.0, N=N)
        sol = solve_rank_one(phi, psi, grid)
        return abs(float(sol.diagonal()[0, 0])
                   - rank_one_exact(phi, psi, grid.s, grid.s))

    ratio = err(100) / err(200)
    assert 3.5 < ratio < 4.5


def test_fat_tail_is_refused():
    spec = KernelSpec(1, (PhiEntry(
        1, 1, Factor("gaussian", 0.5, 1.0, 6.5),
        Factor("gaussian", 0.4, 1.0, 0.0)),))
    with pytest.raises(TailTooFat):
        solve_marchenko(spec, np.zeros(1), Grid(s=-2.0, s_max=7.0, N=64))


def test_non_finite_kernel_is_refused_as_fat_tail():
    # NaN compares false, so the gate has to accept only tails known small
    def rows(points):
        return (np.full((1, points.size), np.nan),) * 2

    with pytest.raises(TailTooFat):
        solve_marchenko_kernel(rows, 1, Grid(s=-2.0, s_max=6.0, N=16),
                               RANK_ONE)


def test_non_finite_factor_values_are_an_input_error():
    # rate 1e308 passes the parameter checks, but -2 rate overflows in the
    # derivative, which is NaN where the gaussian is 0
    base = make_spec3()
    e = base.entries[1]
    spec = KernelSpec(3, base.entries[:1] + (dataclasses.replace(
        e, second=dataclasses.replace(e.second, width=1e308)),)
        + base.entries[2:])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=r"^phi entry \(1,2\): the "
                           "derivative of its second factor is not finite"):
            solve_marchenko(spec, np.zeros(3), GRID)


def test_one_solve_evaluates_each_factor_once(monkeypatch):
    # each family is evaluated once per solve, on all of its rows (the
    # derivative rows of X and the value rows of Y) over s, the nodes and
    # the tail scan together; diagonal() reuses the rows. Specs built after
    # the patch evaluate through the counters.
    calls = []
    for name, family in list(dressing._FAMILIES.items()):
        def counting(t, *params, _name=name, _family=family):
            calls.append((_name, np.shape(t)))
            return _family(t, *params)
        monkeypatch.setitem(dressing._FAMILIES, name, counting)
    points = 1 + GRID.N + 17
    u = np.array([0.1, -0.2, 0.05])
    for spec, rows in ((make_spec3(), {"gaussian": 24}),
                       (mixed_spec3(), {"gaussian": 8, "bump": 8})):
        calls.clear()
        sol = solve_marchenko(spec, u, GRID)
        assert sorted(calls) == sorted(
            (name, (count, points)) for name, count in rows.items())
        sol.diagonal()
        assert len(calls) == len(rows)


def test_solves_on_one_grid_share_its_points(monkeypatch):
    nodes = []
    original = Grid.nodes

    def counting(self):
        nodes.append(self)
        return original(self)

    monkeypatch.setattr(Grid, "nodes", counting)
    grid = Grid(s=-2.0, s_max=7.0, N=40)
    spec = make_spec3()
    first = solve_marchenko(spec, np.zeros(3), grid)
    second = solve_marchenko(spec, np.full(3, 0.1), grid)
    assert nodes == [grid]
    assert first.q is second.q and not first.q.flags.writeable
    assert np.array_equal(first.q, grid.nodes()[0])


def test_unit_mass_kernel_is_singular():
    # tuned so the tail integral of phi*psi from s is 1 to machine
    # precision, putting an eigenvalue of the discretized operator at 0
    a1 = 0.8
    phi = Factor("gaussian", a1, 1.0, 0.0)
    psi = Factor("gaussian", 1.0 / (a1 * math.sqrt(math.pi / 2.0)), 1.0, 0.0)
    with pytest.raises(SingularFredholm):
        solve_rank_one(phi, psi, Grid(s=-5.0, s_max=9.0, N=200))


def nystrom_matrix(F_fn, n, grid):
    """The Nystrom matrix I - F(q_k, q_j) w_k in the solver's block layout,
    rows (b, j) and columns (c, k)."""
    q, w = grid.nodes()
    size = n * grid.N
    G = F_fn(q, q) * w[None, None, :, None]
    return np.eye(size) - G.transpose(1, 3, 0, 2).reshape(size, size)


def perturbed_spec3(gen) -> KernelSpec:
    """The acceptance spec with every amplitude, rate and centre jittered."""
    def jitter(f):
        return Factor("gaussian", f.amp * gen.uniform(0.8, 1.2),
                      f.width * gen.uniform(0.9, 1.1),
                      f.center + gen.uniform(-0.1, 0.1))
    return KernelSpec(3, [PhiEntry(e.i, e.j, jitter(e.first), jitter(e.second))
                          for e in make_spec3().entries])


def spec_kernel(spec, u):
    return lambda qa, qb: reference_F(spec, u, np.asarray(qa)[:, None],
                                      np.asarray(qb)[None, :])


def explicit_condition(M) -> float:
    """sqrt(kappa_1 kappa_inf) from np.linalg.norm of M and
    np.linalg.inv(M)."""
    Minv = np.linalg.inv(M)
    return math.sqrt(np.linalg.norm(M, 1) * np.linalg.norm(M, np.inf)
                     * np.linalg.norm(Minv, 1) * np.linalg.norm(Minv, np.inf))


def explicit_solve(spec, u, grid) -> tuple:
    """(K_nodes, K(s, s), sqrt(kappa_1 kappa_inf)) from the explicit
    Nystrom matrix M of reference_F: np.linalg.solve for K at the nodes
    and its interpolation at s' = s."""
    F_fn, n = spec_kernel(spec, u), spec.n
    q, w = grid.nodes()
    M = nystrom_matrix(F_fn, n, grid)
    rhs = F_fn(np.array([grid.s]), q)[:, :, 0, :].transpose(1, 2, 0) \
        .reshape(n * grid.N, n)
    K = np.linalg.solve(M, rhs).reshape(n, grid.N, n).transpose(2, 0, 1)
    F = F_fn(np.append(grid.s, q), np.array([grid.s]))[:, :, :, 0]
    diagonal = F[:, :, 0] + np.einsum("ack,k,cbk->ab", K, w, F[:, :, 1:])
    return K, diagonal, explicit_condition(M)


@pytest.mark.parametrize("N", [32, 200])
def test_reported_condition_bounds_the_two_norm_condition(N):
    # sqrt(kappa_1 kappa_inf) >= kappa_2 because ||A||_2 <= sqrt(||A||_1
    # ||A||_inf); and each of ||A||_1, ||A||_inf is at most sqrt(nN) ||A||_2
    gen = np.random.default_rng(5150 + N)
    grid = Grid(s=-2.0, s_max=7.0, N=N)
    for _ in range(4):
        spec = perturbed_spec3(gen)
        u = gen.uniform(-0.3, 0.3, size=3)
        sol = solve_marchenko(spec, u, grid)
        kappa2 = np.linalg.cond(nystrom_matrix(spec_kernel(spec, u), 3, grid))
        assert 1.0 <= sol.condition / kappa2 <= 3 * N


def test_exactly_singular_low_rank_system_raises_singular_fredholm():
    # trapezoid weights on [0, 1] with 9 nodes are 1/8 (1/16 at the ends),
    # so F = 8 at the node pair (k0, k0) makes column k0 of M exactly zero.
    # As one rank-one term X(x) Y(y) with X = 8 and Y = 1 at q_k0 only,
    # U = V = e_k0, so C = I - V^T U = 0
    grid = TrapezoidGrid(s=0.0, s_max=1.0, N=9)
    q, w = grid.nodes()
    k0 = 4
    assert w[k0] == 0.125

    def F_fn(qa, qb):
        hit = (np.asarray(qa)[:, None] == q[k0]) \
            & (np.asarray(qb)[None, :] == q[k0])
        return np.where(hit, 8.0, 0.0)[None, None]

    def rows(points):
        hit = (points == q[k0])[None, :]
        return np.where(hit, 8.0, 0.0), np.where(hit, 1.0, 0.0)

    U, V = RANK_ONE.factors(*rows(q), w)
    assert np.array_equal(U, V) and np.array_equal(U[:, 0], np.eye(grid.N)[k0])
    M = nystrom_matrix(F_fn, 1, grid)
    assert not np.any(M[:, k0])
    assert np.array_equal(np.eye(grid.N) - U @ V.T, M)
    with pytest.raises(SingularFredholm):
        solve_marchenko_kernel(rows, 1, grid, RANK_ONE)


def layout_specs():
    g = lambda *a: Factor("gaussian", *a)
    b = lambda *a: Factor("bump", *a)
    return {
        "acceptance": make_spec3(),
        "bump": KernelSpec(2, (
            PhiEntry(1, 1, b(0.5, 1.5, 0.2), b(0.4, 1.2, -0.3)),
            PhiEntry(1, 2, b(0.3, 2.0, 0.5), b(0.6, 1.0, 0.0)),
            PhiEntry(2, 2, b(0.2, 1.8, -0.4), b(0.5, 1.4, 0.3)))),
        "sparse4": KernelSpec(4, (
            PhiEntry(1, 3, g(0.3, 1.1, -0.1), g(0.2, 1.0, 0.25)),
            PhiEntry(2, 2, g(0.2, 1.3, 0.2), g(0.3, 0.8, 0.5)),
            PhiEntry(2, 4, g(0.25, 0.9, 0.15), g(0.3, 1.2, -0.3)),
            PhiEntry(4, 4, g(0.35, 1.0, 0.0), g(0.15, 1.1, 0.3)))),
        "n1": KernelSpec(1, (
            PhiEntry(1, 1, g(0.3, 1.2, 0.4), g(0.25, 0.9, -0.2)),)),
        # off the diagonal only: every block of U V^T is rank one or empty,
        # and the diagonal blocks of M are the identity
        "offdiag": KernelSpec(3, (
            PhiEntry(1, 2, g(0.4, 1.0, 0.3), g(0.35, 1.1, 0.1)),
            PhiEntry(1, 3, g(0.3, 1.1, -0.1), g(0.2, 1.0, 0.25)),
            PhiEntry(2, 3, g(0.25, 0.9, 0.15), g(0.3, 1.2, -0.3)))),
        "empty": KernelSpec(2, ()),
    }


def mixed_spec3() -> KernelSpec:
    """Gaussian and bump entries on n = 3, one entry with a factor of
    each family."""
    g = lambda *a: Factor("gaussian", *a)
    b = lambda *a: Factor("bump", *a)
    return KernelSpec(3, (
        PhiEntry(1, 1, g(0.3, 1.2, 0.4), g(0.25, 0.9, -0.2)),
        PhiEntry(1, 2, b(0.5, 2.0, -1.5), b(0.4, 1.8, -1.2)),
        PhiEntry(2, 3, g(0.25, 0.9, 0.15), b(0.3, 1.6, -0.8)),
        PhiEntry(3, 3, b(0.35, 2.2, -1.0), g(0.15, 1.1, 0.3))))


def random_spec(gen, n, families) -> KernelSpec:
    """A seeded spec on n axes: each pair i <= j holds an entry with
    probability 3/4, each of its factors of a family drawn from
    families."""
    def factor():
        if families[gen.integers(len(families))] == "gaussian":
            return Factor("gaussian", gen.uniform(0.1, 0.5),
                          gen.uniform(0.8, 1.4), gen.uniform(-0.5, 0.5))
        return Factor("bump", gen.uniform(0.1, 0.6), gen.uniform(1.0, 2.5),
                      gen.uniform(-1.5, 0.5))
    return KernelSpec(n, [PhiEntry(i, j, factor(), factor())
                          for i in range(1, n + 1) for j in range(i, n + 1)
                          if gen.uniform() < 0.75])


def equivalence_specs() -> list:
    """layout_specs() and seeded gaussian, bump and mixed specs."""
    gen = np.random.default_rng(2626)
    specs = list(layout_specs().values()) + [mixed_spec3()]
    for families in (("gaussian",), ("bump",), ("gaussian", "bump")):
        specs += [random_spec(gen, n, families) for n in (1, 2, 3, 4)]
    return specs


def same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def test_rows_equal_the_per_factor_rows_bit_for_bit():
    # one family call per family gives, row by row, what each factor's
    # value and dvalue give on its own
    gen = np.random.default_rng(515)
    points = Grid(s=-2.0, s_max=6.0, N=40)._points[2]
    for spec in equivalence_specs():
        u = gen.uniform(-0.3, 0.3, size=spec.n)
        X, Y = spec._rows(u, points)
        terms = [term for e in spec.entries for term in (
            (e.i - 1, e.j - 1, 1.0, e.first, e.second),
            (e.j - 1, e.i - 1, -1.0, e.second, e.first))]
        assert X.shape == Y.shape == (len(terms), points.size)
        for t, (a, b, sign, fa, fb) in enumerate(terms):
            dvalue = sign * fa.dvalue(points - u[a])
            assert X[t].tobytes() == dvalue.tobytes()
            assert Y[t].tobytes() == fb.value(points - u[b]).tobytes()


def test_tail_is_the_max_of_the_formed_kernel_bit_for_bit():
    gen = np.random.default_rng(77)
    grid = Grid(s=-2.0, s_max=6.0, N=40)
    N, points = grid.N, grid._points[2]
    for spec in equivalence_specs():
        layout = spec._layout
        u = gen.uniform(-0.3, 0.3, size=spec.n)
        rows = spec._rows(u, points)
        # random rows spread over 400 decades, whose products underflow and
        # overflow to inf, and rows whose products all overflow and meet
        # as inf - inf on the blocks of two terms
        R = len(spec.entries) * 2
        wide = [tuple(gen.standard_normal((R, points.size))
                      * 10.0 ** gen.uniform(lo, hi, size=(R, 1))
                      for _ in range(2)) for lo, hi in ((-200, 200),
                                                        (155, 200))]
        for X, Y in [rows] + wide:
            for xs, ys in ((slice(N + 1, None), slice(1, None)),
                           (slice(None), slice(None))):
                with np.errstate(over="ignore", invalid="ignore"):
                    formed = np.max(np.abs(layout.kernel(X, Y, xs, ys)))
                assert same_bits(layout.tail(X, Y, xs, ys), formed)


@pytest.mark.parametrize("name, reading", [
    # the diagonal blocks' two terms overflow to inf - inf = NaN
    ("acceptance", "nan"),
    # every block holds one term, whose products overflow to inf
    ("offdiag", "inf"),
])
def test_overflowing_kernel_is_a_fat_tail(name, reading):
    base = layout_specs()[name]
    spec = KernelSpec(base.n, [
        PhiEntry(e.i, e.j, dataclasses.replace(e.first, amp=1e200),
                 dataclasses.replace(e.second, amp=1e200))
        for e in base.entries])
    N = GRID.N
    X, Y = spec._rows(np.zeros(spec.n), GRID._points[2])
    tail = spec._layout.tail(X, Y, slice(N + 1, None), slice(1, None))
    assert repr(tail) == reading
    with pytest.raises(TailTooFat, match=f"reaches {reading} beyond"):
        solve_marchenko(spec, np.zeros(spec.n), GRID)


def test_mixed_spec_solve_matches_the_explicit_matrices():
    grid = Grid(s=-2.0, s_max=7.0, N=64)
    u = np.array([0.1, -0.2, 0.05])
    sol = solve_marchenko(mixed_spec3(), u, grid)
    K_ref, diagonal, condition = explicit_solve(mixed_spec3(), u, grid)
    assert np.max(np.abs(sol.K_nodes - K_ref)) \
        <= 1e-12 * np.max(np.abs(K_ref))
    assert np.max(np.abs(sol.diagonal() - diagonal)) \
        <= 1e-12 * np.max(np.abs(diagonal))
    assert abs(sol.condition - condition) <= 1e-12 * condition


@pytest.mark.parametrize("name", list(layout_specs()))
def test_factors_reproduce_the_nystrom_matrix(name):
    spec = layout_specs()[name]
    grid = Grid(s=-2.0, s_max=7.0, N=48)
    u = np.random.default_rng(31).uniform(-0.3, 0.3, size=spec.n)
    q, w = grid.nodes()
    U, V = spec._layout.factors(*spec._rows(u, q), w)
    size = spec.n * grid.N
    assert U.shape == V.shape == (size, 2 * len(spec.entries))
    ref = nystrom_matrix(spec_kernel(spec, u), spec.n, grid)
    assert np.max(np.abs(np.eye(size) - U @ V.T - ref)) \
        <= 1e-14 * np.max(np.abs(ref))
    if not spec.entries:
        sol = solve_marchenko(spec, u, grid)
        assert not np.any(sol.K_nodes) and sol.condition == 1.0


@pytest.mark.parametrize("N", [32, 200])
def test_low_rank_and_dense_routes_agree(N):
    # the dense route is explicit_solve's, on the whole Nystrom matrix
    gen = np.random.default_rng(6060 + N)
    grid = Grid(s=-2.0, s_max=7.0, N=N)
    for _ in range(3):
        spec = perturbed_spec3(gen)
        u = gen.uniform(-0.3, 0.3, size=3)
        low = solve_marchenko(spec, u, grid)
        K_ref, diagonal, condition = explicit_solve(spec, u, grid)
        scale = np.max(np.abs(K_ref))
        assert np.max(np.abs(low.K_nodes - K_ref)) <= 1e-12 * scale
        beta, beta_ref = low.diagonal().T, diagonal.T
        assert np.max(np.abs(beta - beta_ref)) \
            <= 1e-12 * np.max(np.abs(beta_ref))
        assert abs(low.condition - condition) <= 1e-12 * condition


@pytest.mark.parametrize("N", [32, 128, 200])
def test_exact_gate_matches_the_explicit_matrices(N):
    # the low-rank route sums the norms of M and M^-1 over chunks of rows
    # built from the factors; the reference forms both matrices whole. At
    # n = 3, nN is a single partial chunk for N = 32, two whole chunks of
    # 192 rows for N = 128, and ends in a partial chunk for N = 200
    gen = np.random.default_rng(4242 + N)
    grid = Grid(s=-2.0, s_max=7.0, N=N)
    q, w = grid.nodes()
    specs = list(layout_specs().values()) \
        + [perturbed_spec3(gen) for _ in range(4)]
    for spec in specs:
        u = gen.uniform(-0.3, 0.3, size=spec.n)
        U, V = spec._layout.factors(*spec._rows(u, q), w)
        ref = explicit_condition(np.eye(spec.n * N) - U @ V.T)
        sol = solve_marchenko(spec, u, grid)
        assert abs(sol.condition - ref) <= 1e-14 * ref
        assert sol.residual <= 1e-12
        if not spec.entries:
            assert sol.condition == 1.0


def test_low_rank_solve_holds_no_dense_matrix():
    # (nN)^2 doubles are 72 MB at n = 3, N = 1000; the solve may hold a
    # quarter of that at most. The node cache is filled first, since
    # leggauss builds an N x N companion matrix once per N.
    grid = Grid(s=-2.0, s_max=7.0, N=1000)
    grid.nodes()
    spec, u = make_spec3(), np.array([0.1, -0.2, 0.05])
    tracemalloc.start()
    try:
        solve_marchenko(spec, u, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (3 * grid.N) ** 2 * 8 / 4


def test_exact_gate_holds_no_dense_matrix():
    # reading condition after a passing screen runs the exact stage, which
    # forms M and M^-1 a chunk of rows at a time, within the solve's bound
    grid = Grid(s=-2.0, s_max=7.0, N=1000)
    grid.nodes()
    sol = solve_marchenko(make_spec3(), np.array([0.1, -0.2, 0.05]), grid)
    tracemalloc.start()
    try:
        condition = sol.condition
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 1.0 < condition < 1e3
    assert peak < (3 * grid.N) ** 2 * 8 / 4


def test_a_singular_r_by_r_system_is_refused(monkeypatch, capsys):
    # np.linalg.inv raising stands in for an exactly singular I - V^T U
    def singular(a):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    with pytest.raises(SingularFredholm,
                       match=r"^discretized operator is singular \("):
        solve_marchenko(make_spec3(), np.zeros(3), GRID)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                        "kernel-acceptance.json")
    assert cli.main(["dress", path]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: discretized operator is singular")
    assert captured.err.count("error:") == 1 \
        and captured.err.count("\n") == 1


def test_routes_share_the_gate_across_an_amplitude_sweep():
    # F scales with lambda^2; the gate value peaks near lambda = 4.7426,
    # where an eigenvalue of the discretized operator passes close to 1;
    # the solve refuses exactly where the explicit matrices' value exceeds
    # the limit
    grid = Grid(s=-2.0, s_max=7.0, N=200)
    u = np.zeros(3)
    peak = 0.0
    for lam in np.append(np.linspace(1.0, 12.0, 23), 4.7426):
        spec = scaled_spec3(lam)
        try:
            low = solve_marchenko(spec, u, grid).condition
        except SingularFredholm:
            low = None
        ref = explicit_solve(spec, u, grid)[2]
        assert (low is None) == (not ref <= dressing.FREDHOLM_CONDITION_LIMIT)
        if low is not None:
            assert abs(low - ref) <= 1e-10 * ref
            peak = max(peak, ref)
    assert peak > 1e5


def scaled_spec3(lam) -> KernelSpec:
    """The acceptance spec with every factor amplitude times lam."""
    return KernelSpec(3, [
        PhiEntry(e.i, e.j, dataclasses.replace(e.first, amp=e.first.amp * lam),
                 dataclasses.replace(e.second, amp=e.second.amp * lam))
        for e in make_spec3().entries])


def test_screen_bounds_the_exact_gate_value():
    # the triangle-inequality screen is an upper bound on the exact
    # sqrt(kappa_1 kappa_inf); rounding may put it 1e-14 below a bound
    # that is tight, as for the off-diagonal spec's rank-one blocks
    gen = np.random.default_rng(2323)
    cases = [(spec, Grid(s=-2.0, s_max=7.0, N=48))
             for spec in layout_specs().values()]
    cases += [(perturbed_spec3(gen), Grid(s=-2.0, s_max=7.0, N=200))
              for _ in range(4)]
    cases += [(scaled_spec3(lam), Grid(s=-2.0, s_max=7.0, N=200))
              for lam in (1.0, 3.0, 4.7426, 8.0, 12.0)]
    for spec, grid in cases:
        u = gen.uniform(-0.3, 0.3, size=spec.n)
        q, w = grid.nodes()
        U, V = spec._layout.factors(*spec._rows(u, q), w)
        W = U @ np.linalg.inv(np.eye(U.shape[1]) - V.T @ U)
        exact = dressing._low_rank_condition(U, V, W)
        assert dressing._screen(U, V, W) >= exact * (1.0 - 1e-14)


def count_block_norms(monkeypatch) -> list:
    calls = []
    norms = dressing._norms

    def counted(*args):
        calls.append(1)
        return norms(*args)

    monkeypatch.setattr(dressing, "_norms", counted)
    return calls


@pytest.mark.parametrize("limit", [5e3, 1e3])
def test_a_screen_that_does_not_clear_falls_back_to_the_exact_gate(
        monkeypatch, limit):
    # at lambda = 12 the exact gate value is about 1.04e3 and the screen
    # about 1.5e4, so half of either limit does not clear the screen
    spec, grid, u = scaled_spec3(12.0), Grid(s=-2.0, s_max=7.0, N=200), \
        np.zeros(3)
    exact = solve_marchenko(spec, u, grid).condition
    assert 1e3 < exact < 1.1e3
    calls = count_block_norms(monkeypatch)
    monkeypatch.setattr(dressing, "FREDHOLM_CONDITION_LIMIT", limit)
    if limit > exact:
        sol = solve_marchenko(spec, u, grid)
        assert len(calls) == 2
        assert sol.condition == exact
    else:
        with pytest.raises(SingularFredholm) as info:
            solve_marchenko(spec, u, grid)
        assert len(calls) == 2
        assert str(info.value) == f"discretized operator condition {exact:.3e}"


def test_dress_forms_no_block_until_condition_is_read(monkeypatch, capsys):
    calls = count_block_norms(monkeypatch)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                        "kernel-acceptance.json")
    assert cli.main(["dress", path]) == 0
    capsys.readouterr()
    assert not calls
    sol = solve_marchenko(make_spec3(), np.zeros(3),
                          Grid(s=-2.0, s_max=6.0, N=200))
    assert not calls
    first = sol.condition
    assert len(calls) == 2
    assert sol.condition == first and len(calls) == 2


def test_solution_matches_a_direct_solve():
    spec = make_spec3()
    grid = Grid(s=-2.0, s_max=7.0, N=200)
    gen = np.random.default_rng(77)
    for u in gen.uniform(-0.3, 0.3, size=(3, 3)):
        sol = solve_marchenko(spec, u, grid)
        K_ref, diagonal, _ = explicit_solve(spec, u, grid)
        scale = np.max(np.abs(K_ref))
        assert np.max(np.abs(sol.K_nodes - K_ref)) <= 1e-12 * scale
        beta_ref = diagonal.T
        beta = rotation_from_dressing(spec, u, grid)
        assert np.max(np.abs(beta - beta_ref)) \
            <= 1e-12 * np.max(np.abs(beta_ref))


# -- rotation coefficients from the kernel ----------------------------------

def test_dressed_rotation_satisfies_both_systems():
    spec = make_spec3()
    u0 = np.array([0.15, -0.1, 0.2])
    eq4, eq5 = check_beta_systems(
        lambda u: rotation_from_dressing(spec, u, GRID), 3, u0)
    assert max(abs(v) for v in eq4) < 1e-7
    assert max(abs(v) for v in eq5) < 1e-7


def test_untransposed_extraction_fails_the_skew_system():
    spec = make_spec3()
    u0 = np.array([0.15, -0.1, 0.2])
    raw = lambda u: solve_marchenko(spec, u, GRID).diagonal()
    eq4, eq5 = check_beta_systems(raw, 3, u0)
    assert max(abs(v) for v in eq4) < 1e-6  # insensitive to transpose
    assert max(abs(v) for v in eq5) > 1e-5  # discriminates


def test_two_axis_spec_has_no_triple_system():
    eq4, eq5 = check_beta_systems(
        lambda u: rotation_from_dressing(make_spec2(), u, GRID), 2,
        np.array([0.1, -0.05]))
    assert eq4 == []
    assert len(eq5) == 1
    assert abs(eq5[0]) < 1e-6


# -- scale factors from a rotation field ------------------------------------

def translated_frame():
    """Closed-form compatible field: H1 = 1, H2 = u1 + 2,
    H3 = (u1 + 2) sin(u2 + 0.8)."""

    def beta_fn(u):
        out = np.zeros((3, 3))
        out[0, 1] = 1.0
        out[0, 2] = np.sin(u[1] + 0.8)
        out[1, 2] = np.cos(u[1] + 0.8)
        return out

    def H_exact(G1, G2):
        return np.stack([np.ones_like(G1), G1 + 2.0,
                         (G1 + 2.0) * np.sin(G2 + 0.8)])

    # each line lives on its own axis with the other coordinates at 0,
    # so the second one is the constant 2, not 2 + u^2
    cauchy = [
        lambda t: np.ones_like(t),
        lambda t: 2.0 * np.ones_like(t),
        lambda t: 2.0 * np.sin(0.8) * np.ones_like(t),
    ]
    return beta_fn, H_exact, cauchy


def test_closed_field_systems_vanish():
    # the residual floor is the h^2 truncation of the central difference
    beta_fn, _, _ = translated_frame()
    eq4, eq5 = check_beta_systems(beta_fn, 3, np.array([0.2, -0.3, 0.1]))
    assert max(map(abs, eq4 + eq5)) < 1e-6


def test_beta_check_evaluates_the_central_stencil():
    # u and u +- h e_k, 2n + 1 fields: with the sample's own solve, the
    # 8 Nystrom solves per dress sample at n = 3
    beta_fn, _, _ = translated_frame()
    calls = []

    def counted(u):
        calls.append(tuple(u))
        return beta_fn(u)

    u = np.array([0.2, -0.3, 0.1])
    h = dressing.BETA_CHECK_STEP
    check_beta_systems(counted, 3, u)
    expected = {tuple(u)} | {tuple(u + sign * h * e)
                             for e in np.eye(3) for sign in (1.0, -1.0)}
    assert len(calls) == 7
    assert set(calls) == expected


def test_beta_check_refuses_a_wrongly_shaped_field():
    with pytest.raises(StencilFailure,
                       match=r"\(7, 2, 2\).*\(7, 3, 3\)"):
        check_beta_systems(lambda u: np.zeros((2, 2)), 3, np.zeros(3))


def test_beta_check_derivative_matches_closed_form():
    # translated_frame's beta depends on u^2 alone, through sin and cos,
    # so the central difference is off by at most h^2 / 6
    beta_fn, _, _ = translated_frame()
    u = np.array([0.2, -0.3, 0.1])
    h = dressing.BETA_CHECK_STEP
    j = geometry._fd_jet(lambda points: np.stack([beta_fn(p) for p in points]),
                         u, 1, geometry.FDConfig(h=h, order=2), (3, 3))
    exact = np.zeros((3, 3, 3))
    exact[1, 0, 2] = np.cos(u[1] + 0.8)
    exact[1, 1, 2] = -np.sin(u[1] + 0.8)
    bound = h ** 2 / 6 + 1e-12
    assert np.array_equal(j.x.real, beta_fn(u))
    assert np.max(np.abs(j.dx.real - exact)) <= bound
    fd4, fd5 = check_beta_systems(beta_fn, 3, u)
    eq4, eq5 = geometry.rotation_systems(beta_fn(u), exact)
    assert np.max(np.abs(np.subtract(fd4 + fd5, eq4 + eq5))) <= 2 * bound


def test_lame_reconstruction_trivial_field():
    axes = [np.linspace(-0.5, 0.5, 11)] * 2
    result = lame_from_rotation(
        lambda u: np.zeros((2, 2)),
        [np.exp, lambda t: 1.0 + t ** 2], axes)
    assert result.path_spread == 0.0
    G1, G2 = np.meshgrid(*axes, indexing="ij")
    assert np.allclose(result.H[0], np.exp(G1), atol=1e-14)
    assert np.allclose(result.H[1], 1.0 + G2 ** 2, atol=1e-14)


def test_lame_reconstruction_conformal_pair():
    # beta_12 = 1, beta_21 = 0 integrates back to H1 = H2 = e^{u1}
    axes = [np.linspace(-0.5, 0.5, 41)] * 2

    def beta_fn(u):
        return np.array([[0.0, 1.0], [0.0, 0.0]])

    result = lame_from_rotation(
        beta_fn, [np.exp, lambda t: np.ones_like(t)], axes)
    G1, _ = np.meshgrid(*axes, indexing="ij")
    assert np.max(np.abs(result.H[0] - np.exp(G1))) < 1e-8
    assert np.max(np.abs(result.H[1] - np.exp(G1))) < 1e-7
    assert result.path_spread < 1e-7


def test_lame_reconstruction_three_axes():
    beta_fn, H_exact, cauchy = translated_frame()
    axes = [np.linspace(-0.3, 0.3, 13)] * 3
    result = lame_from_rotation(beta_fn, cauchy, axes)
    G1, G2, _ = np.meshgrid(*axes, indexing="ij")
    assert np.max(np.abs(result.H - H_exact(G1, G2))) < 1e-5
    assert result.path_spread < 1e-6
    assert result.iterations < 80


def test_incompatible_field_is_rejected_up_front():
    axes = [np.linspace(-0.2, 0.2, 5)] * 3
    with pytest.raises(IncompatibleField):
        lame_from_rotation(lambda u: np.ones((3, 3)),
                           [np.ones_like] * 3, axes)


def test_a_nan_in_the_last_integrability_residual_is_rejected_up_front():
    # beta_32 is NaN only where u_1 > 0, so of the six eq4 residuals at the
    # probe u = 0 only the last, d_1 beta_32 - beta_31 beta_12, is NaN.
    # Python's max dropped it, and the field failed only after 80 Picard
    # iterations, as "did not converge"
    def beta_fn(u):
        beta = np.zeros((3, 3))
        if u[0] > 0:
            beta[2, 1] = math.nan
        return beta

    eq4, _ = check_beta_systems(beta_fn, 3, np.zeros(3))
    assert math.isnan(eq4[-1]) and not any(map(math.isnan, eq4[:-1]))
    axes = [np.linspace(-0.2, 0.2, 5)] * 3
    with pytest.raises(IncompatibleField,
                       match=r"integrability system \(residual nan\)"):
        lame_from_rotation(beta_fn, [np.ones_like] * 3, axes)


def test_axis_validation():
    beta = lambda u: np.zeros((2, 2))
    cauchy = [np.ones_like] * 2
    good = np.linspace(-0.5, 0.5, 11)
    with pytest.raises(InputError):
        lame_from_rotation(beta, cauchy, [good, good ** 3])
    with pytest.raises(InputError):
        lame_from_rotation(beta, cauchy, [good, good + 5.0])
    with pytest.raises(InputError):
        lame_from_rotation(beta, cauchy, [good, np.array([-0.5, 0.0, 0.5])])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_axis_node_is_an_input_error(bad):
    # a NaN spacing failed no comparison, and an inf node made the spacing
    # tolerance inf, so either axis passed with steps [0.1]
    axis = [-0.2, -0.1, 0.0, 0.1, bad]
    with pytest.raises(InputError, match="axis 0 has a node that is not "
                                         "finite"):
        dressing._axis_checks([axis])
    with pytest.raises(InputError, match="axis 1 has a node"):
        lame_from_rotation(lambda u: np.zeros((2, 2)), [np.ones_like] * 2,
                           [np.linspace(-0.2, 0.2, 5), axis])


def test_cumulative_integral_is_exact_on_cubics():
    x = np.linspace(0.0, 1.0, 11)
    f = x ** 3 - 2.0 * x + 0.5
    F = _cumulative_integral(f, x[1] - x[0], axis=0)
    exact = x ** 4 / 4.0 - x ** 2 + 0.5 * x
    assert np.max(np.abs(F - exact)) < 1e-14


@pytest.mark.parametrize("name",
                         ["spherical3", "spherical4", "cylindrical", "polar"])
def test_beta_checker_agrees_with_the_spectral_route(name):
    # the FD checker of the dressing route, fed the rotation field of a
    # spectral map, against the exact jet check of the same systems
    solver = Solver(gallery.build(name).data)
    n = solver.data.n
    u = rng.uniform(-0.3, 0.3, size=n)
    fd4, fd5 = check_beta_systems(
        lambda v: np.array(geometry.build_report(solver, v).rotation), n, u)
    _, eq4, eq5 = systems(solver, u)
    assert len(fd4) == len(eq4)
    assert len(fd5) == len(eq5)
    # h = 1e-3 central differences on a smooth field
    assert max(map(abs, fd4 + fd5)) <= 1e-5
    assert max(map(abs, eq4 + eq5), default=0.0) <= 1e-12
