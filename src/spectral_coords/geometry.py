"""Differential geometry of a coordinate map from its Taylor jet.

Every check here (metric orthogonality, scale factors, rotation
coefficients, the curvature equation systems, Christoffel/Riemann, the
immersion system) is a closed form in the map's value and its first
three u-derivatives at one point, held in a `Jet`, and `build_report`
runs them all in one pass over one third-order jet. The metric is the
Euclidean one, g_ab = sum_k dx^k/du^a dx^k/du^b, for which the paper's
maps are orthogonal. The entry points that take a map are `jet`,
`metric` and `build_report`, and each gets its jet in one of two ways:

- a `Solver` gets the exact jet from `Solver.jet`, which differentiates
  the linear system behind the map;
- a callable, taking an (m, n) array of parameter points to an (m, n)
  array of (possibly complex) coordinates, gets a jet from one sparse
  central-difference stencil evaluated in a single batch. This is the
  independent cross-check on the exact path. Its first derivatives use
  the `fd_first` argument (FIRST_DERIVATIVE_FD by default), and every
  higher one uses SECOND_DERIVATIVE_FD; a Solver ignores both.

Anything else is a TypeError. `metric` also takes a `Jet` its caller has
already computed, such as x and dx from `Solver.solve_batch`. The stencil
itself (`_fd_jet`) serves any array-valued callable, with the value axes
last: the dressing route takes its derivatives of beta and of its kernel
F from it, so the package has one central-difference engine. The
Jacobian J[k, a] = dx^k/du^a is `jet(source, u, 1).dx.T`.
`epsilon_invariant` checks the normalization invariant from scale
factors its caller has already measured.

The four curvature systems all come from the rotation coefficients
beta_ij = d_i H_j / H_i (`_systems`), so eq2 equals eq5 by
construction and the report reads it off eq5; Riemann and the immersion
system, from the Christoffel symbols, check the same flatness
independently.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .baker import Solver
from .curve import check_Q_residues
from .errors import (InputError, NonPositiveDiagonal, SingularSystem,
                     SpectralError, StencilFailure)
from .numerics import complex_to_json, max_abs

# central-difference weights per derivative order and accuracy order,
# keyed by offset in steps
_D1 = {
    2: {-1: -0.5, 1: 0.5},
    4: {-2: 1.0 / 12.0, -1: -8.0 / 12.0, 1: 8.0 / 12.0, 2: -1.0 / 12.0},
}
_D2 = {
    2: {-1: 1.0, 0: -2.0, 1: 1.0},
    4: {-2: -1.0 / 12.0, -1: 16.0 / 12.0, 0: -30.0 / 12.0,
        1: 16.0 / 12.0, 2: -1.0 / 12.0},
}
_D3 = {
    2: {-2: -0.5, -1: 1.0, 1: -1.0, 2: 0.5},
    4: {-3: 1.0 / 8.0, -2: -1.0, -1: 13.0 / 8.0, 1: -13.0 / 8.0,
        2: 1.0, 3: -1.0 / 8.0},
}
_STENCILS = {1: _D1, 2: _D2, 3: _D3}


@dataclass(frozen=True)
class FDConfig:
    h: float = 1e-3
    order: int = 4

    def __post_init__(self):
        if not (1e-8 <= self.h <= 1e-1):
            raise InputError(f"step {self.h} outside [1e-8, 1e-1]")
        if self.order not in (2, 4):
            raise InputError(f"stencil order must be 2 or 4, got {self.order}")


FIRST_DERIVATIVE_FD = FDConfig(h=1e-5, order=2)
SECOND_DERIVATIVE_FD = FDConfig(h=1e-3, order=4)


@dataclass(frozen=True)
class Jet:
    """The coordinate map and its u-derivatives at one parameter point.

    Derivative axes come first and the value axes last: for a coordinate
    map dx[a, k] = dx^k/du^a, d2x[a, b, k] and d3x[a, b, c, k], and an
    FD jet of an array-valued callable (`_fd_jet`) carries its values'
    shape in place of k. Orders beyond the one requested are None.
    """

    u: np.ndarray
    x: np.ndarray
    dx: np.ndarray
    d2x: np.ndarray = None
    d3x: np.ndarray = None


def _stencil_weights(n, order, fd_first):
    """Sparse stencil for every derivative of x up to `order`.

    Returns (steps, weights): the map is evaluated at u + steps[p], and
    weights maps each sorted multi-index of derivative axes to the
    vector of weights over those points. Each derivative is a tensor
    product of 1-D central differences along its own axes, so no point
    moves more than three axes away from u. First derivatives use
    fd_first, higher ones SECOND_DERIVATIVE_FD.
    """
    centre = (0.0, (0,) * n)
    rows = {centre: 0}  # (step size, offset in steps) -> point index
    weights = {}
    for k in range(1, order + 1):
        fd = fd_first if k == 1 else SECOND_DERIVATIVE_FD
        for idx in itertools.combinations_with_replacement(range(n), k):
            per_axis = [[(axis, off, w) for off, w in
                         _STENCILS[mult][fd.order].items()]
                        for axis, mult in Counter(idx).items()]
            entries = []
            for combo in itertools.product(*per_axis):
                offset = [0] * n
                weight = fd.h ** -k
                for axis, off, w in combo:
                    offset[axis] = off
                    weight *= w
                key = (fd.h, tuple(offset)) if any(offset) else centre
                entries.append((rows.setdefault(key, len(rows)), weight))
            weights[idx] = entries
    steps = np.array([h * np.asarray(off, dtype=float) for h, off in rows])
    for idx, entries in weights.items():
        vec = np.zeros(len(rows))
        for row, w in entries:
            vec[row] += w
        weights[idx] = vec
    return steps, weights


def _fd_jet(map_fn, u, order, fd_first, shape) -> Jet:
    """Jet of map_fn at u from one sparse stencil evaluated in a single
    batch. map_fn takes (m, n) points to values of shape (m,) + shape, and
    the k-th derivative tensor has shape (n,) * k + shape."""
    n = u.size
    steps, weights = _stencil_weights(n, order, fd_first)
    points = u[None, :] + steps
    try:
        values = np.asarray(map_fn(points), dtype=complex)
    except SpectralError:
        raise
    except Exception as exc:
        raise StencilFailure(f"map evaluation failed on stencil: {exc}") from exc
    m = len(points)
    if values.shape != (m,) + shape:
        raise StencilFailure(
            f"map returned shape {values.shape}, expected {(m,) + shape}")
    flat = values.reshape(m, -1)
    derivs = [values[0]]
    for k in range(1, order + 1):
        tensor = np.zeros((n,) * k + shape, dtype=complex)
        for idx in itertools.combinations_with_replacement(range(n), k):
            value = (weights[idx] @ flat).reshape(shape)
            for perm in set(itertools.permutations(idx)):
                tensor[perm] = value
        derivs.append(tensor)
    return Jet(u, *derivs)


def jet(source, u, order: int = 3,
        fd_first: FDConfig = FIRST_DERIVATIVE_FD) -> Jet:
    """Value and u-derivatives up to `order` of the map at one point u.

    Exact for a Solver. For a callable, first derivatives come from
    fd_first and higher ones from SECOND_DERIVATIVE_FD.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if isinstance(source, Solver):
        return Jet(u, *(d[0] for d in source.jet(u, order)))
    if not callable(source):
        raise TypeError("a map source is a Solver or a callable, not "
                        f"{type(source).__name__}")
    return _fd_jet(source, u, order, fd_first, u.shape)


# ---------------------------------------------------------------------------
# closed forms over a jet
# ---------------------------------------------------------------------------

def _metric(j: Jet) -> np.ndarray:
    """g[a, b] = sum_k dx^k/du^a dx^k/du^b, bilinear (no conjugate).
    Derivatives too large to square give a non-finite g, which is refused
    like a non-finite output of the Solver."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.einsum("ak,bk->ab", j.dx, j.dx)
    if not np.isfinite(g).all():
        raise SingularSystem(f"non-finite metric at u = {j.u.tolist()}")
    return g


def _scale_factors(j: Jet, g):
    """H_i = sqrt(g_ii) from the real metric g of the third-order jet j,
    with dH[a, i] = dH_i/du^a and d2H[a, b, i] = d^2 H_i/du^a du^b."""
    G = np.diagonal(g)
    if np.any(G <= 0):
        raise NonPositiveDiagonal(
            f"metric diagonal {G.tolist()} at u = {j.u.tolist()}")
    H = np.sqrt(G)
    dG = 2.0 * np.einsum("aik,ik->ai", j.d2x, j.dx).real
    dH = dG / (2.0 * H)
    d2G = 2.0 * (np.einsum("abik,ik->abi", j.d3x, j.dx)
                 + np.einsum("aik,bik->abi", j.d2x, j.d2x)).real
    # G = H^2, so d_ab G = 2 d_a H d_b H + 2 H d_ab H
    d2H = (d2G - 2.0 * dH[:, None, :] * dH[None, :, :]) / (2.0 * H)
    return H, dH, d2H


def _rotation(H, dH, d2H):
    """beta[i, j] = dH_j/du^i / H_i off the diagonal, zero on it, and
    dbeta[k, i, j] = d beta[i, j] / du^k."""
    n = H.size
    diag = np.arange(n)
    beta = dH / H[:, None]
    beta[diag, diag] = 0.0
    dbeta = d2H / H[None, :, None] \
        - dH[:, :, None] * dH[None, :, :] / H[None, :, None] ** 2
    dbeta[:, diag, diag] = 0.0
    return beta, dbeta


def _christoffel(H, dH, d2H):
    """Gamma[k, i, j] of the diagonal metric diag(H^2), and
    dGamma[c, k, i, j] = d Gamma[k, i, j] / du^c."""
    n = H.size
    gamma = np.zeros((n, n, n))
    dgamma = np.zeros((n, n, n, n))
    for k in range(n):
        gamma[k, k, :] = dH[:, k] / H[k]
        gamma[k, :, k] = gamma[k, k, :]
        dgamma[:, k, k, :] = d2H[:, :, k] / H[k] \
            - np.outer(dH[:, k], dH[:, k]) / H[k] ** 2
        dgamma[:, k, :, k] = dgamma[:, k, k, :]
        for i in range(n):
            if i == k:
                continue
            gamma[k, i, i] = -H[i] * dH[k, i] / H[k] ** 2
            dgamma[:, k, i, i] = \
                -(dH[:, i] * dH[k, i] + H[i] * d2H[:, k, i]) / H[k] ** 2 \
                + 2.0 * H[i] * dH[k, i] * dH[:, k] / H[k] ** 3
    return gamma, dgamma


def _riemann_max(gamma, dgamma) -> float:
    """max |R^a_{bcd}|, R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb}
    + Gamma^a_{ce} Gamma^e_{db} - Gamma^a_{de} Gamma^e_{cb}."""
    half = np.einsum("cadb->abcd", dgamma) \
        + np.einsum("ace,edb->abcd", gamma, gamma)
    riemann = half - half.transpose(0, 1, 3, 2)
    return max_abs(riemann)


def _immersion_max(j: Jet, gamma) -> float:
    """max over i, j, k of |d_i d_j x^k - sum_a d_a x^k Gamma[a, i, j]|."""
    rhs = np.einsum("ak,aij->ijk", j.dx, gamma)
    return max_abs(j.d2x - rhs)


def _systems(H, beta, dbeta) -> tuple:
    """(eq1, eq4, eq5) from H and beta, dbeta = _rotation(H, dH, d2H).

    eq1 (Lame) and eq2 are the scale-factor systems rewritten through
    beta_ij = d_i H_j / H_i: each eq1 entry is an eq4 entry times H_j,
    H_j (d_k beta_ji - beta_jk beta_ki), and eq2 equals eq5 by
    construction, so it is not listed twice. Each list holds one entry
    per index combination; for n = 2 the triple-index families are
    genuinely empty rather than zero."""
    eq1 = []
    for i, j, k in itertools.combinations(range(H.size), 3):
        for ii, jj, kk in ((i, j, k), (j, i, k), (k, i, j)):
            eq1.append(float(H[jj] * (dbeta[kk, jj, ii]
                                      - beta[jj, kk] * beta[kk, ii])))
    return (eq1,) + rotation_systems(beta, dbeta)


def rotation_systems(beta, dbeta):
    """Residuals (eq4, eq5) of the two rotation-coefficient systems,

        d_k beta_ij = beta_ik beta_kj                  (i, j, k distinct),
        d_i beta_ij + d_j beta_ji + sum_k beta_ki beta_kj = 0,

    from beta[i, j] and dbeta[k, i, j] = d beta[i, j] / du^k. eq4 is
    empty for n = 2.
    """
    n = beta.shape[0]
    eq4, eq5 = [], []
    for i, j, k in itertools.permutations(range(n), 3):
        if i < j:  # each ordered pair (i,j) once per admissible k
            eq4.append(float(dbeta[k, i, j] - beta[i, k] * beta[k, j]))
            eq4.append(float(dbeta[k, j, i] - beta[j, k] * beta[k, i]))

    for i, j in itertools.combinations(range(n), 2):
        term = dbeta[i, i, j] + dbeta[j, j, i]
        for k in range(n):
            if k != i and k != j:
                term += beta[k, i] * beta[k, j]
        eq5.append(float(term))
    return eq4, eq5


# ---------------------------------------------------------------------------
# public checks
# ---------------------------------------------------------------------------

def metric(source, u, fd: FDConfig = FIRST_DERIVATIVE_FD):
    """Gram matrix of the Jacobian at u, from a map source as `jet` takes
    it, or from a `Jet` already taken at u (such as one built from
    `Solver.solve_batch`), whose dx it reads as it is.

    Returns (g, imag_max): the real part of the metric and the largest
    imaginary component encountered (reported, never dropped silently).
    """
    g = _metric(source if isinstance(source, Jet) else jet(source, u, 1, fd))
    return g.real.copy(), max_abs(g.imag)


def lame(g) -> np.ndarray:
    diag = np.diagonal(np.asarray(g)).real
    if np.any(diag <= 0):
        raise NonPositiveDiagonal(f"metric diagonal {diag.tolist()}")
    return np.sqrt(diag)


def epsilon_invariant(solver: Solver, u_samples, H) -> np.ndarray:
    """Relative spread of eta0^2 H_i^2 / h_i^2 across the samples.

    The theory makes this ratio a u-independent constant per axis; the
    returned vector holds the observed max relative deviation for each i.
    H[s][i] is the scale factor H_i at u_samples[s], as the caller
    measured it (for example `GeometryReport.lame`); h_i comes from
    solver's own map.
    """
    eta0_sq = check_Q_residues(solver.data)
    ratios = eta0_sq * np.asarray(H, dtype=float) ** 2 \
        / solver.h_batch(u_samples) ** 2
    ref = ratios[0]
    return np.max(np.abs(ratios - ref) / np.abs(ref), axis=0)


@dataclass
class GeometryReport:
    u: list
    x: list
    imag_max: float
    g_offdiag_max: float
    lame: list
    rotation: list
    eq1_max: float
    eq2_max: float
    eq4_max: float
    eq5_max: float
    riemann_max: float
    immersion_max: float


def build_report(source, u,
                 fd_first: FDConfig = FIRST_DERIVATIVE_FD) -> GeometryReport:
    """One-stop verification record at a single parameter point, from one
    third-order jet."""
    j = jet(source, u, 3, fd_first)
    g = _metric(j).real
    off = g - np.diag(np.diagonal(g))
    H, dH, d2H = _scale_factors(j, g)
    beta, dbeta = _rotation(H, dH, d2H)
    eq1, eq4, eq5 = _systems(H, beta, dbeta)
    gamma, dgamma = _christoffel(H, dH, d2H)
    return GeometryReport(
        u=j.u.tolist(),
        x=[complex_to_json(v) for v in j.x],
        imag_max=max_abs(j.x.imag),
        g_offdiag_max=max_abs(off),
        lame=H.tolist(),
        rotation=beta.tolist(),
        eq1_max=max_abs(eq1),
        eq2_max=max_abs(eq5),  # eq2 equals eq5, see _systems
        eq4_max=max_abs(eq4),
        eq5_max=max_abs(eq5),
        riemann_max=_riemann_max(gamma, dgamma),
        immersion_max=_immersion_max(j, gamma),
    )
