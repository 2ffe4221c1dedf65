"""Acceptance gates for the whole package.

One test per criterion, each printing a single PASS/FAIL line (routed
past pytest's capture so the lines show up in any run) and asserting the
stated tolerance.
"""

import dataclasses
import time

import numpy as np

import spectral_coords.gallery as gallery
from spectral_coords.baker import Solver
from spectral_coords.curve import (ComponentAnsatz, check_involution,
                                   check_Q_residues, check_regular,
                                   validate_counting)
from spectral_coords.dressing import (Factor, Grid, KernelSpec, PhiEntry,
                                      check_beta_systems,
                                      lame_from_rotation,
                                      rotation_from_dressing)
from spectral_coords.errors import (CountMismatch, DivisorMismatch,
                                    InputError, Mismatch, NonPositive,
                                    SpectralError)
from spectral_coords.geometry import (FIRST_DERIVATIVE_FD, build_report,
                                      epsilon_invariant, lame, metric)
from spectral_coords.numerics import (FactoredRational, RationalDifferential)
from test_dressing import (TrapezoidGrid, rank_one_exact, rank_one_K,
                           rank_one_pair, solve_rank_one)

rng = np.random.default_rng(20240817)

BASE_ENTRIES = ("euclidean1", "euclidean2", "euclidean3", "example1",
                "example2", "example3", "polar", "cylindrical", "spherical3")
ALL_ENTRIES = BASE_ENTRIES + ("spherical4", "spherical5")


def report(capsys, num, label, ok, detail):
    line = f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def grid5(n):
    axes = [np.linspace(-1.0, 1.0, 5)] * n
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def sample_points(n, count, halfwidth=0.4):
    return rng.uniform(-halfwidth, halfwidth, size=(count, n))


def perturbed_omega(data, comp, delta=1e-3):
    f = data.omega[comp].f
    roots = list(f.factors)
    r0, m0 = roots[0]
    roots[0] = (r0 + delta, m0)
    new = list(data.omega)
    new[comp] = RationalDifferential(FactoredRational(f.scale, roots))
    return dataclasses.replace(data, omega=tuple(new))


def test_criterion_01_classical_maps(capsys):
    names = ("euclidean1", "euclidean2", "euclidean3", "polar",
             "cylindrical", "spherical3")
    t0 = time.perf_counter()
    worst = 0.0
    for name in names:
        entry = gallery.build(name)
        us = grid5(entry.data.n)
        engine = Solver(entry.data).map_batch(us)
        worst = max(worst, np.max(np.abs(engine - entry.reference(us))))
    elapsed = time.perf_counter() - t0
    report(capsys, 1, "classical maps", worst <= 1e-10 and elapsed < 5.0,
           f"max residual {worst:.2e} over 5^n grids, {elapsed:.2f}s")


def test_criterion_02_example2_formulas(capsys):
    entry = gallery.build("example2")
    us = grid5(2)
    worst = np.max(np.abs(Solver(entry.data).map_batch(us)
                          - entry.reference(us)))
    report(capsys, 2, "two-term component formulas", worst <= 1e-10,
           f"max residual {worst:.2e} on the 5x5 grid")


def test_criterion_03_geometric_identities(capsys):
    worst = 0.0
    for name in ("example1", "example3"):
        entry = gallery.build(name)
        us = sample_points(entry.data.n, 10)
        xs = Solver(entry.data).map_batch(us)
        for label, fn in entry.identities:
            for u, x in zip(us, xs):
                worst = max(worst, fn(u, x))
    report(capsys, 3, "circle/sphere/plane/cone identities", worst <= 1e-9,
           f"max identity residual {worst:.2e} at 10 random u")


def _infinity_residue_by_chart(w: RationalDifferential) -> complex:
    """Residue at infinity computed purely in the w = 1/z chart."""
    g = w.f.inverse_chart() * FactoredRational(-1.0, [(0j, -2)])
    return RationalDifferential(g).residue(0j)


def test_criterion_04_residue_facts(capsys):
    worst = 0.0

    data1 = gallery.build("example1").data
    a = data1.gluings[0].points[0].point
    got = data1.omega[0].residue(a)
    worst = max(worst, abs(got - (-1.0 / (2.0 * a ** 2))))

    data2 = gallery.build("example2").data
    b, c = 1j, -1.0
    got = data2.omega[1].residue(data2.Q[1].point)
    worst = max(worst, abs(got - (-b ** 2 / c ** 2)))

    # global residue sum on random differentials, with the infinity
    # contribution measured independently in the reciprocal chart
    gen = np.random.default_rng(20240818)
    built = 0
    sum_worst = 0.0
    while built < 100:
        k = int(gen.integers(1, 5))
        pts = gen.uniform(-2, 2, size=(k + 1, 2))
        mults = list(gen.integers(-3, -1, size=k)) + [int(gen.integers(1, 3))]
        factors = [(complex(x, y), int(m))
                   for (x, y), m in zip(pts, mults)]
        scale = complex(*gen.uniform(-1, 1, size=2))
        if abs(scale) < 1e-3:
            scale = 1.0
        try:
            w = RationalDifferential(FactoredRational(scale, factors))
            residues = [w.residue(r) for r, m in w.f.factors if m < 0]
            residues.append(_infinity_residue_by_chart(w))
        except (InputError, SpectralError):
            continue
        built += 1
        # the sum is gated relative to the residue magnitudes, which can
        # reach 1e3 when random poles nearly collide
        scale_out = 1.0 + max(abs(v) for v in residues)
        sum_worst = max(sum_worst, abs(sum(residues)) / scale_out)

    ok = worst <= 1e-12 and sum_worst <= 1e-12
    report(capsys, 4, "residue facts", ok,
           f"closed-form gap {worst:.2e}, "
           f"worst global sum {sum_worst:.2e} over {built} differentials")


def test_criterion_05_validator_gates(capsys):
    for name in ALL_ENTRIES:
        data = gallery.build(name).data
        validate_counting(data)
        assert check_regular(data).passed, name
        assert check_Q_residues(data) > 0, name
    check_involution(gallery.build("polar").data)

    # negative controls: each gate must reject a perturbed configuration
    controls = {}

    flat = gallery.build("euclidean2").data
    bad = dataclasses.replace(
        flat,
        ansatz=(ComponentAnsatz(essential=flat.ansatz[0].essential,
                                poles=(0.5,)),
                flat.ansatz[1]))
    try:
        validate_counting(bad)
        controls["counting"] = False
    except CountMismatch:
        controls["counting"] = True

    controls["regularity"] = not check_regular(
        perturbed_omega(gallery.build("example1").data, 1)).passed

    try:
        check_Q_residues(perturbed_omega(gallery.build("example2").data, 1))
        controls["q_residues"] = False
    except (Mismatch, NonPositive):
        controls["q_residues"] = True

    try:
        check_involution(perturbed_omega(gallery.build("polar").data, 3))
        controls["involution"] = False
    except DivisorMismatch:
        controls["involution"] = True

    ok = all(controls.values())
    report(capsys, 5, "validator gates", ok,
           "all entries pass; controls tripped: "
           + ", ".join(k for k, v in sorted(controls.items()) if v))


def test_criterion_06_orthogonality(capsys):
    worst_ratio = 0.0
    for name in ALL_ENTRIES:
        solver = Solver(gallery.build(name).data)
        for u in sample_points(solver.data.n, 3):
            g, _ = metric(solver, u, FIRST_DERIVATIVE_FD)
            off = g - np.diag(np.diagonal(g))
            bound = 1e-6 * (1.0 + np.linalg.norm(g))
            worst_ratio = max(worst_ratio, float(np.max(np.abs(off))) / bound)
    report(capsys, 6, "orthogonality", worst_ratio <= 1.0,
           f"worst off-diagonal at {worst_ratio:.3f} of the bound, "
           f"{len(ALL_ENTRIES)} entries")


def regular_samples(solver, count, halfwidth=0.35, floor=0.15):
    """Random u where no scale factor degenerates.

    Some entries have coordinate singularities inside the box (a scale
    factor crossing zero, like the polar axis); the orthogonal-system
    equations divide by the scale factors and lose meaning there.
    """
    out = []
    for _ in range(50 * count):
        u = rng.uniform(-halfwidth, halfwidth, size=solver.data.n)
        g, _ = metric(solver, u, FIRST_DERIVATIVE_FD)
        H = np.sqrt(np.maximum(np.diagonal(g).copy(), 0.0))
        if np.min(H) >= floor and np.max(H) <= 20.0:
            out.append(u)
            if len(out) == count:
                return out
    raise AssertionError("could not find regular sample points")


def _system_gates_pass(solver, u, tol=1e-4):
    rep = build_report(solver, u)
    h_scale = 1.0 + max(rep.lame) ** 2
    x_scale = 1.0 + max(abs(v[0]) for v in rep.x)
    checks = [rep.eq1_max, rep.eq2_max, rep.eq4_max, rep.eq5_max,
              rep.riemann_max]
    margin = max([v / (tol * h_scale) for v in checks]
                 + [rep.immersion_max / (tol * x_scale)])
    return margin


def test_criterion_07_flatness_and_systems(capsys):
    worst = 0.0
    for name in BASE_ENTRIES:
        solver = Solver(gallery.build(name).data)
        for u in regular_samples(solver, 3):
            worst = max(worst, _system_gates_pass(solver, u))
    report(capsys, 7, "flatness and systems", worst <= 1.0,
           f"worst residual at {worst:.3f} of 1e-4*(1+scale), "
           f"{len(BASE_ENTRIES)} entries")


def test_criterion_08_epsilon_invariant(capsys):
    worst = 0.0
    for name in ALL_ENTRIES:
        solver = Solver(gallery.build(name).data)
        us = sample_points(solver.data.n, 10)
        H = [lame(metric(solver, u)[0]) for u in us]
        worst = max(worst, float(np.max(epsilon_invariant(solver, us, H))))
    report(capsys, 8, "normalization-ratio invariance", worst <= 1e-6,
           f"max relative spread {worst:.2e} across 10 random u")


def test_criterion_09_free_parameter(capsys):
    us = grid5(2)
    base = Solver(gallery.polar(1.0).data).map_batch(us)
    worst = 0.0
    for alpha in (2.0, 1.0 + 1.0j):
        other = Solver(gallery.polar(alpha).data).map_batch(us)
        worst = max(worst, float(np.max(np.abs(other - base))))
    report(capsys, 9, "free-parameter equivalence", worst <= 1e-10,
           f"max map difference {worst:.2e} across three parameter values")


def _gaussian_spec(n):
    g = lambda *a: Factor("gaussian", *a)
    entries = [
        PhiEntry(1, 1, g(0.3, 1.2, 0.4), g(0.25, 0.9, -0.2)),
        PhiEntry(1, 2, g(0.4, 1.0, 0.3), g(0.35, 1.1, 0.1)),
        PhiEntry(2, 2, g(0.2, 1.3, 0.2), g(0.3, 0.8, 0.5)),
    ]
    if n == 3:
        entries += [
            PhiEntry(1, 3, g(0.3, 1.1, -0.1), g(0.2, 1.0, 0.25)),
            PhiEntry(2, 3, g(0.25, 0.9, 0.15), g(0.3, 1.2, -0.3)),
            PhiEntry(3, 3, g(0.35, 1.0, 0.0), g(0.15, 1.1, 0.3)),
        ]
    return KernelSpec(n, entries)


def test_criterion_10_dressing(capsys):
    # F(x, y) = phi(x) psi(y), whose K has a closed form in erfc
    phi, psi = rank_one_pair()

    # start the grid inside the kernel support so the compared values are
    # of order 1e-2 and the absolute gate is a real constraint
    sol = solve_rank_one(phi, psi, Grid(s=-0.5, s_max=6.0, N=200))
    oracle_gap = max(
        abs(rank_one_K(sol, phi, psi, sp)
            - rank_one_exact(phi, psi, sol.grid.s, sp))
        for sp in (-0.5, 0.0, 1.0, 2.5))

    def trap_err(N):
        g = TrapezoidGrid(s=-0.5, s_max=6.0, N=N)
        s = solve_rank_one(phi, psi, g)
        return abs(float(s.diagonal()[0, 0])
                   - rank_one_exact(phi, psi, g.s, g.s))

    ratio = trap_err(100) / trap_err(200)

    grid = Grid(s=-2.0, s_max=7.0, N=160)
    sys_worst = 0.0
    for n in (2, 3):
        spec = _gaussian_spec(n)
        u0 = np.full(n, 0.1)
        eq4, eq5 = check_beta_systems(
            lambda u: rotation_from_dressing(spec, u, grid), n, u0)
        sys_worst = max(sys_worst, max(map(abs, eq4 + eq5)))

    spec3 = _gaussian_spec(3)
    dress_grid = Grid(s=-2.0, s_max=7.0, N=96)
    axes = [np.linspace(-0.18, 0.18, 7)] * 3
    lame = lame_from_rotation(
        lambda u: rotation_from_dressing(spec3, u, dress_grid),
        [np.ones_like] * 3, axes)

    ok = (oracle_gap <= 1e-8 and 3.5 <= ratio <= 4.5
          and sys_worst <= 1e-4 and lame.path_spread <= 1e-6)
    report(capsys, 10, "dressing", ok,
           f"oracle gap {oracle_gap:.2e}, trapezoid ratio {ratio:.2f}, "
           f"system residual {sys_worst:.2e}, "
           f"path spread {lame.path_spread:.2e}")


def test_criterion_11_linearity_properties(capsys):
    data = gallery.build("polar").data
    us = sample_points(2, 3)
    base = Solver(data).map_batch(us)

    shuffled = dataclasses.replace(
        data,
        gluings=tuple(reversed(
            (dataclasses.replace(
                data.gluings[0],
                points=tuple(reversed(data.gluings[0].points))),)
            + data.gluings[1:])),
        normalizations=tuple(reversed(data.normalizations)))
    perm_gap = float(np.max(np.abs(Solver(shuffled).map_batch(us) - base)))

    lam = 0.37 - 1.2j
    scaled = dataclasses.replace(data, normalizations=tuple(
        dataclasses.replace(nm, value=lam * nm.value)
        for nm in data.normalizations))
    scale_gap = float(np.max(np.abs(
        Solver(scaled).map_batch(us) - lam * base)))

    # superposition needs two nonzero normalization values; cylindrical
    # has one on the planar block and one on the axis component
    cyl = gallery.build("cylindrical").data
    us3 = sample_points(3, 3)
    full = Solver(cyl).map_batch(us3)
    k = len(cyl.normalizations)

    def keep(indices):
        return dataclasses.replace(cyl, normalizations=tuple(
            dataclasses.replace(nm, value=nm.value if i in indices else 0j)
            for i, nm in enumerate(cyl.normalizations)))

    xa = Solver(keep(set(range(k // 2)))).map_batch(us3)
    xb = Solver(keep(set(range(k // 2, k)))).map_batch(us3)
    super_gap = float(np.max(np.abs(xa + xb - full)))

    worst = max(perm_gap, scale_gap, super_gap)
    report(capsys, 11, "solve linearity", worst <= 1e-12,
           f"permutation {perm_gap:.2e}, scaling {scale_gap:.2e}, "
           f"superposition {super_gap:.2e}")


def test_criterion_12_radial_family_scaling(capsys):
    t0 = time.perf_counter()
    counts_ok = all(
        gallery.spherical_n(n).data.components == 4 * n - 3
        for n in (3, 4, 5, 6))

    solver = Solver(gallery.spherical_n(4).data)
    sweep_worst = 0.0
    orth_worst = 0.0
    for u in (np.zeros(4), rng.uniform(-0.3, 0.3, size=4)):
        g, _ = metric(solver, u, FIRST_DERIVATIVE_FD)
        off = float(np.max(np.abs(g - np.diag(np.diagonal(g)))))
        orth_worst = max(orth_worst,
                         off / (1e-6 * (1.0 + np.linalg.norm(g))))
        sweep_worst = max(sweep_worst, _system_gates_pass(solver, u))
    elapsed = time.perf_counter() - t0

    ok = counts_ok and orth_worst <= 1.0 and sweep_worst <= 1.0 \
        and elapsed < 60.0
    report(capsys, 12, "radial family scaling", ok,
           f"component counts 4n-3 for n=3..6, n=4 sweep at "
           f"{max(orth_worst, sweep_worst):.3f} of its bounds, {elapsed:.1f}s")
