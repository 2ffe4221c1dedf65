"""Dressing route to rotation coefficients.

A kernel spec assigns to each pair i <= j a separable two-variable
function built from named decaying factors (gaussians or compact bumps);
the diagonal entries are antisymmetrized structurally. From these the
matrix kernel F is formed, the Marchenko-type equation

    K(s, s') = F(s, s') + integral_s^inf K(s, q) F(q, s') dq

is solved by Nystrom collocation on a truncated grid, and K(s, s) yields
a rotation-coefficient matrix whose compatibility systems are then checked
by finite differences over u.

Every entry of a spec's F is a sum of products of one-variable factors,
so its Nystrom matrix is M = I - U V^T with two columns per entry, and a
spec is solved through the R x R system I - V^T U (Woodbury identity; the
degenerate-kernel method, Atkinson, The Numerical Solution of Integral
Equations of the Second Kind, ch. 2). A raw kernel callable gets the dense
(nN, nN) solve. Both routes form M and its inverse and gate on the same
condition bound.

Sign note: the second member of each off-diagonal pair is taken as
F_ji(s, s') = -d2 Phi_ij(s' - u^i, s - u^j); with the opposite sign the
differential reduction identity fails, and with it the skew system.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (IncompatibleField, InputError, SingularFredholm,
                     TailTooFat)
from .geometry import SystemResiduals, rotation_systems
from .numerics import json_int, json_real

TAIL_BOUND = 1e-10
# Gate on sqrt(kappa_1 * kappa_inf) of the Nystrom matrix, with
# kappa_p = ||M||_p ||M^-1||_p taken from the inverse that also gives K.
# Since ||A||_2 <= sqrt(||A||_1 ||A||_inf), this bounds the 2-norm
# condition number from above: every matrix an SVD gate at this limit
# refuses is refused here too.
FREDHOLM_CONDITION_LIMIT = 1e12


# ---------------------------------------------------------------------------
# kernel factors and specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Factor:
    family: str  # "gaussian" or "bump"
    amp: float
    width: float  # rate for gaussians, half-support for bumps
    center: float

    def __post_init__(self):
        if self.family not in ("gaussian", "bump"):
            raise InputError(f"unknown factor family {self.family!r}")
        if not all(map(math.isfinite, (self.amp, self.width, self.center))):
            raise InputError("factor amp, width/rate and center must be finite")
        if self.width <= 0:
            raise InputError("factor width/rate must be positive")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        if self.family == "gaussian":
            return self.amp * np.exp(-self.width * (t - self.center) ** 2)
        tau = (t - self.center) / self.width
        out = np.zeros_like(tau)
        inside = np.abs(tau) < 1.0
        out[inside] = self.amp * np.exp(-1.0 / (1.0 - tau[inside] ** 2))
        return out

    def dvalue(self, t):
        t = np.asarray(t, dtype=float)
        if self.family == "gaussian":
            return -2.0 * self.width * (t - self.center) * self.value(t)
        tau = (t - self.center) / self.width
        out = np.zeros_like(tau)
        inside = np.abs(tau) < 1.0
        ti = tau[inside]
        out[inside] = self.value(t)[inside] * (-2.0 * ti / (1.0 - ti ** 2) ** 2) \
            / self.width
        return out

    def to_json(self) -> dict:
        key = "rate" if self.family == "gaussian" else "width"
        return {"amp": self.amp, key: self.width, "center": self.center}


def _factor_from_json(family: str, obj) -> Factor:
    if not isinstance(obj, dict):
        raise InputError(f"expected factor parameters, got {obj!r}")
    key = "rate" if family == "gaussian" else "width"
    return Factor(family=family, amp=json_real(obj.get("amp", 1.0), "amp"),
                  width=json_real(obj.get(key), key),
                  center=json_real(obj.get("center", 0.0), "center"))


@dataclass(frozen=True)
class PhiEntry:
    """Phi_ij for one pair i <= j (1-based axis indices).

    i < j: Phi(x, y) = first(x) * second(y).
    i = j: Phi(x, y) = first(x) second(y) - first(y) second(x).
    """

    i: int
    j: int
    first: Factor
    second: Factor

    def d1(self, x, y):
        if self.i == self.j:
            return self.first.dvalue(x) * self.second.value(y) \
                - self.second.dvalue(x) * self.first.value(y)
        return self.first.dvalue(x) * self.second.value(y)

    def d2(self, x, y):
        if self.i == self.j:
            return self.first.value(x) * self.second.dvalue(y) \
                - self.second.value(x) * self.first.dvalue(y)
        return self.first.value(x) * self.second.dvalue(y)

    def value(self, x, y):
        if self.i == self.j:
            return self.first.value(x) * self.second.value(y) \
                - self.first.value(y) * self.second.value(x)
        return self.first.value(x) * self.second.value(y)


@dataclass(frozen=True)
class KernelSpec:
    n: int
    entries: tuple  # of PhiEntry, i <= j, no duplicates

    def __init__(self, n: int, entries=()):
        if n < 1:
            raise InputError("need n >= 1")
        entries = tuple(entries)
        seen = set()
        for e in entries:
            if not (1 <= e.i <= e.j <= n):
                raise InputError(f"entry indices ({e.i},{e.j}) out of range")
            if (e.i, e.j) in seen:
                raise InputError(f"duplicate entry for pair ({e.i},{e.j})")
            seen.add((e.i, e.j))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", entries)

    def entry(self, i: int, j: int):
        for e in self.entries:
            if (e.i, e.j) == (i, j):
                return e
        return None

    def to_json(self) -> dict:
        out = []
        for e in self.entries:
            family = e.first.family + "-product"
            out.append({"i": e.i, "j": e.j, "family": family,
                        "params": {"first": e.first.to_json(),
                                   "second": e.second.to_json()}})
        return {"n": self.n, "phi": out}

    @classmethod
    def from_json(cls, obj) -> "KernelSpec":
        if not isinstance(obj, dict) or "n" not in obj:
            raise InputError("kernel spec must be an object with field 'n'")
        phi = obj.get("phi", [])
        if not isinstance(phi, list):
            raise InputError(f"'phi' must be a list, got {phi!r}")
        entries = []
        for item in phi:
            if not isinstance(item, dict):
                raise InputError(f"expected phi entry object, got {item!r}")
            family = item.get("family")
            if family not in ("gaussian-product", "bump-product"):
                raise InputError(f"unknown kernel family {family!r}")
            base = family.split("-")[0]
            params = item.get("params", {})
            if not isinstance(params, dict):
                raise InputError(f"expected entry params object, got {params!r}")
            entries.append(PhiEntry(
                i=json_int(item.get("i"), "entry index i"),
                j=json_int(item.get("j"), "entry index j"),
                first=_factor_from_json(base, params.get("first")),
                second=_factor_from_json(base, params.get("second"))))
        return cls(n=json_int(obj["n"], "n"), entries=entries)

    def factors(self, u, q, w) -> tuple:
        """Rank-R factors (U, V), each (n N, R), of the Nystrom operator at
        nodes q with weights w: (U V^T)[(b, j), (c, k)] = w_k F_cb(q_k, q_j),
        the block layout of solve_marchenko_kernel.

        Entry (i, j) gives two columns: F_ij(x, y) = first'(x - u^i)
        second(y - u^j) and, with build_F's sign, F_ji(x, y) =
        -second'(x - u^j) first(y - u^i). For i = j the two add up to the
        antisymmetrized diagonal entry, so R = 2 * len(entries)."""
        u = np.asarray(u, dtype=float)
        q = np.asarray(q, dtype=float)
        N = q.size
        U = np.zeros((self.n, N, 2 * len(self.entries)))
        V = np.zeros_like(U)
        for t, e in enumerate(self.entries):
            xi, xj = q - u[e.i - 1], q - u[e.j - 1]
            U[e.j - 1, :, 2 * t] = e.second.value(xj)
            V[e.i - 1, :, 2 * t] = w * e.first.dvalue(xi)
            U[e.i - 1, :, 2 * t + 1] = e.first.value(xi)
            V[e.j - 1, :, 2 * t + 1] = -w * e.second.dvalue(xj)
        return U.reshape(self.n * N, -1), V.reshape(self.n * N, -1)


def build_F(spec: KernelSpec, u, s, sp) -> np.ndarray:
    """Kernel matrix F(s, s'; u). Scalar s, s' give an (n, n) matrix;
    array arguments broadcast to trailing axes."""
    u = np.asarray(u, dtype=float)
    s = np.asarray(s, dtype=float)
    sp = np.asarray(sp, dtype=float)
    shape = np.broadcast_shapes(s.shape, sp.shape)
    out = np.zeros((spec.n, spec.n) + shape)
    for a in range(1, spec.n + 1):
        for b in range(1, spec.n + 1):
            if a <= b:
                e = spec.entry(a, b)
                if e is not None:
                    out[a - 1, b - 1] = e.d1(s - u[a - 1], sp - u[b - 1])
            else:
                e = spec.entry(b, a)
                if e is not None:
                    out[a - 1, b - 1] = -e.d2(sp - u[b - 1], s - u[a - 1])
    return out


def check_F_equations(spec: KernelSpec, u, h: float = 1e-4,
                      points=None) -> tuple:
    """(max residual of the linear symmetry system, max residual of the
    differential reduction) over a sample grid of (s, s'), via central FD."""
    u = np.asarray(u, dtype=float)
    n = spec.n
    if points is None:
        points = np.linspace(-1.5, 1.5, 5)
    res10 = 0.0
    res12 = 0.0
    for s in points:
        for sp in points:
            dFdu = np.stack([
                (build_F(spec, u + h * e, s, sp) - build_F(spec, u - h * e, s, sp))
                / (2 * h)
                for e in np.eye(n)])
            dFds = (build_F(spec, u, s + h, sp) - build_F(spec, u, s - h, sp)) \
                / (2 * h)
            dFdsp = (build_F(spec, u, s, sp + h) - build_F(spec, u, s, sp - h)) \
                / (2 * h)
            for k in range(n):
                resid = dFdu[k].copy()
                resid[k, :] += dFds[k, :]
                resid[:, k] += dFdsp[:, k]
                res10 = max(res10, float(np.max(np.abs(resid))))
            dF_swap = (build_F(spec, u, sp, s + h) - build_F(spec, u, sp, s - h)) \
                / (2 * h)
            res12 = max(res12, float(np.max(np.abs(dFdsp + dF_swap.T))))
    return res10, res12


# ---------------------------------------------------------------------------
# quadrature grid and Marchenko solve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    s: float
    s_max: float
    N: int = 200
    rule: str = "gauss-legendre"

    def __post_init__(self):
        if not (math.isfinite(self.s) and math.isfinite(self.s_max)):
            raise InputError("grid bounds s and s_max must be finite")
        if not self.s < self.s_max:
            raise InputError("need s < s_max")
        if self.N < 8:
            raise InputError("need at least 8 nodes")
        if self.rule not in ("trapezoid", "gauss-legendre"):
            raise InputError(f"unknown quadrature rule {self.rule!r}")

    def nodes(self):
        if self.rule == "trapezoid":
            q = np.linspace(self.s, self.s_max, self.N)
            w = np.full(self.N, q[1] - q[0])
            w[0] *= 0.5
            w[-1] *= 0.5
            return q, w
        x, w = _gauss_legendre(self.N)
        half = 0.5 * (self.s_max - self.s)
        return self.s + half * (x + 1.0), half * w


@functools.lru_cache(maxsize=16)
def _gauss_legendre(N: int):
    """Gauss-Legendre nodes and weights on [-1, 1], shared read-only."""
    x, w = np.polynomial.legendre.leggauss(N)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@dataclass
class MarchenkoSolution:
    spec: object
    u: np.ndarray
    grid: Grid
    q: np.ndarray
    w: np.ndarray
    K_nodes: np.ndarray  # [a, b, j] = K_ab(s, q_j)
    F_s_nodes: np.ndarray  # [a, b, j] = F_ab(s, q_j)
    residual: float
    tail_estimate: float
    condition: float
    _F_fn: object

    def k_at(self, sp) -> np.ndarray:
        """Nystrom natural interpolation of K(s, sp)."""
        F_sp = self._F_fn(np.array([self.grid.s]), np.atleast_1d(sp))[:, :, 0, :]
        F_nodes_sp = self._F_fn(self.q, np.atleast_1d(sp))
        out = F_sp + np.einsum("ack,k,cbkp->abp", self.K_nodes, self.w,
                               F_nodes_sp)
        return out[:, :, 0] if np.isscalar(sp) or np.ndim(sp) == 0 else out

    def diagonal(self) -> np.ndarray:
        return self.k_at(self.grid.s)


def _inverse(A: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise SingularFredholm(
            f"discretized operator is singular ({exc})") from exc


def _norms_1_inf(A: np.ndarray) -> tuple:
    """(||A||_1, ||A||_inf): np.linalg.norm's reductions over one |A|."""
    A = np.abs(A)
    return A.sum(axis=0).max(), A.sum(axis=1).max()


def solve_marchenko_kernel(F_fn, n: int, grid: Grid, spec=None, u=None,
                           factors=None) -> MarchenkoSolution:
    """Nystrom solve for a kernel callable F_fn(q, q') -> (n, n, A, B).

    M is the (nN, nN) Nystrom matrix. Without `factors` it is assembled
    from F_fn and inverted densely. With `factors`, a callable
    (q, w) -> (U, V) giving M = I - U V^T in rank R (KernelSpec.factors),
    only the R x R matrix C = I - V^T U is inverted, and M and
    M^-1 = I + U C^-1 V^T are formed from the factors in O((nN)^2 R).

    Either way K comes from M^-1, and so does the reported condition,
    sqrt(kappa_1 * kappa_inf) with kappa_p = ||M||_p ||M^-1||_p. That is an
    upper bound on the 2-norm condition number (||A||_2 <=
    sqrt(||A||_1 ||A||_inf), Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 6) and at most nN times it. A singular M or C, or a
    bound above FREDHOLM_CONDITION_LIMIT, raises SingularFredholm."""
    q, w = grid.nodes()
    span = max(1.0, grid.s_max - grid.s)
    scan = grid.s_max + np.linspace(0.0, 0.5 * span, 17)
    tail = float(np.max(np.abs(F_fn(scan, np.concatenate([q, scan])))))
    if not tail <= TAIL_BOUND:
        raise TailTooFat(
            f"|F| reaches {tail:.3e} beyond s_max = {grid.s_max}")

    N = grid.N
    size = n * N
    if factors is None:
        # F_fn(q, q)[c, b, k, j] = F_cb(q_k, q_j), not kept past assembly
        M = np.eye(size) - (F_fn(q, q) * w[None, None, :, None]) \
            .transpose(1, 3, 0, 2).reshape(size, size)
        Minv = _inverse(M)
    else:
        U, V = factors(q, w)
        Cinv = _inverse(np.eye(U.shape[1]) - V.T @ U)
        M = (-U) @ V.T
        M.flat[::size + 1] += 1.0
        Minv = (U @ Cinv) @ V.T
        Minv.flat[::size + 1] += 1.0
    M_1, M_inf = _norms_1_inf(M)
    Minv_1, Minv_inf = _norms_1_inf(Minv)
    cond = math.sqrt(M_1 * Minv_1 * M_inf * Minv_inf)
    if not math.isfinite(cond) or cond > FREDHOLM_CONDITION_LIMIT:
        raise SingularFredholm(f"discretized operator condition {cond:.3e}")

    F_s = F_fn(np.array([grid.s]), q)[:, :, 0, :]  # [a, b, j]
    rhs = F_s.transpose(1, 2, 0).reshape(size, n)
    sol = Minv @ rhs
    residual = float(np.max(np.abs(M @ sol - rhs)))
    K_nodes = sol.reshape(n, N, n).transpose(2, 0, 1)
    return MarchenkoSolution(spec=spec, u=u, grid=grid, q=q, w=w,
                             K_nodes=K_nodes, F_s_nodes=F_s,
                             residual=residual, tail_estimate=tail,
                             condition=cond, _F_fn=F_fn)


def solve_marchenko(spec: KernelSpec, u, grid: Grid) -> MarchenkoSolution:
    u = np.asarray(u, dtype=float)

    def F_fn(qa, qb):
        return build_F(spec, u, np.asarray(qa)[:, None], np.asarray(qb)[None, :])

    return solve_marchenko_kernel(
        F_fn, spec.n, grid, spec=spec, u=u,
        factors=lambda q, w: spec.factors(u, q, w))


def rotation_from_dressing(spec: KernelSpec, u, grid: Grid) -> np.ndarray:
    """Rotation-coefficient matrix extracted from the kernel at coincident
    arguments.

    The transposed evaluation K(s,s).T is returned. Both K(s,s) and its
    transpose satisfy the cross-derivative system (its products are
    scalars, so transposing is free), but only the transpose satisfies
    the diagonal-derivative system: the differential reduction gives the
    coincident-point identity dK_ij/ds' + dK_ji/ds' = sum_m K_im K_jm,
    whose quadratic side matches that system in the transposed indices."""
    return solve_marchenko(spec, u, grid).diagonal().T


def check_beta_systems(beta_fn, n: int, u, h: float = 1e-3) -> SystemResiduals:
    """FD residuals of the two rotation-coefficient systems for an opaque
    beta field; the triple-index family is empty for n = 2."""
    u = np.asarray(u, dtype=float)
    beta0 = np.asarray(beta_fn(u), dtype=float)
    dbeta = np.empty((n, n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        dbeta[k] = (np.asarray(beta_fn(u + e)) - np.asarray(beta_fn(u - e))) \
            / (2 * h)
    eq4, eq5 = rotation_systems(beta0, dbeta)
    return SystemResiduals(eq4=eq4, eq5=eq5)


# ---------------------------------------------------------------------------
# Lame coefficients from a rotation field (Cauchy problem for Eq. 3)
# ---------------------------------------------------------------------------

def _cumulative_integral(f: np.ndarray, dx: float, axis: int) -> np.ndarray:
    """Antiderivative sampled at the nodes, 4th-order accurate, F[0] = 0."""
    f = np.moveaxis(f, axis, 0)
    m = f.shape[0]
    if m < 4:
        raise InputError("need at least 4 nodes per axis")
    out = np.zeros_like(f)
    out[1] = dx * (9 * f[0] + 19 * f[1] - 5 * f[2] + f[3]) / 24.0
    for k in range(1, m - 2):
        out[k + 1] = out[k] + dx * (-f[k - 1] + 13 * f[k]
                                    + 13 * f[k + 1] - f[k + 2]) / 24.0
    out[m - 1] = out[m - 2] + dx * (f[m - 4] - 5 * f[m - 3]
                                    + 19 * f[m - 2] + 9 * f[m - 1]) / 24.0
    return np.moveaxis(out, 0, axis)


def _axis_checks(axes) -> tuple:
    steps, zero_idx = [], []
    for k, ax in enumerate(axes):
        ax = np.asarray(ax, dtype=float)
        if ax.size < 4:
            raise InputError(f"axis {k} needs at least 4 nodes")
        d = np.diff(ax)
        if np.max(np.abs(d - d[0])) > 1e-12 * max(1.0, np.max(np.abs(ax))):
            raise InputError(f"axis {k} is not uniformly spaced")
        hits = np.where(np.abs(ax) <= 1e-12)[0]
        if hits.size != 1:
            raise InputError(f"axis {k} must contain 0 exactly once")
        steps.append(float(d[0]))
        zero_idx.append(int(hits[0]))
    return steps, zero_idx


@dataclass
class LameResult:
    axes: list
    H: np.ndarray  # [i, grid shape]
    path_spread: float
    iterations: int


def lame_from_rotation(beta_fn, cauchy, axes,
                       check_compatibility: bool = True) -> LameResult:
    """Rebuild scale factors on a tensor grid from a rotation field and
    per-axis Cauchy data.

    beta_fn: u -> (n, n) rotation matrix; cauchy: list of n callables, the
    i-th giving H_i on the i-th axis; axes: n uniform 1-D grids, each
    containing 0. Integration runs along one axis at a time from the
    anchor axis outward (Picard iteration to couple the components); the
    reported spread compares ascending and descending axis orders.
    """
    n = len(axes)
    steps, zero_idx = _axis_checks(axes)
    grids = np.meshgrid(*[np.asarray(a, dtype=float) for a in axes],
                        indexing="ij")
    shape = grids[0].shape
    pts = np.stack([g.ravel() for g in grids], axis=1)

    if check_compatibility and n >= 3:
        probe = pts[len(pts) // 2]
        worst = check_beta_systems(beta_fn, n, probe).eq4
        worst = max((abs(v) for v in worst), default=0.0)
        if worst > 1e-2:
            raise IncompatibleField(
                f"rotation field violates its integrability system "
                f"(residual {worst:.3e})")

    beta_grid = np.empty((len(pts), n, n))
    for k, p in enumerate(pts):
        beta_grid[k] = beta_fn(p)
    beta_grid = beta_grid.reshape(shape + (n, n))

    base = []
    for i in range(n):
        line = np.asarray(cauchy[i](np.asarray(axes[i], dtype=float)),
                          dtype=float)
        expand = [np.newaxis] * n
        expand[i] = slice(None)
        base.append(line[tuple(expand)] * np.ones(shape))

    def run(order):
        H = np.stack(base)
        legs = [[i for i in order if i != j] for j in range(n)]
        for iteration in range(1, 81):
            prev = H.copy()
            for j in range(n):
                total = base[j].copy()
                for pos, i in enumerate(legs[j]):
                    # pin axes later in the order (other than j) to 0,
                    # keeping them as length-1 dims so the partial sums
                    # broadcast back over the full grid
                    idx = [slice(None)] * n
                    for later in legs[j][pos + 1:]:
                        z = zero_idx[later]
                        idx[later] = slice(z, z + 1)
                    w = (beta_grid[..., i, j] * prev[i])[tuple(idx)]
                    anti = _cumulative_integral(w, steps[i], axis=i)
                    zi = zero_idx[i]
                    keep = [slice(None)] * n
                    keep[i] = slice(zi, zi + 1)
                    total = total + anti - anti[tuple(keep)]
                H[j] = total
            delta = float(np.max(np.abs(H - prev)))
            if delta <= 1e-13 * (1.0 + float(np.max(np.abs(H)))):
                return H, iteration
        raise IncompatibleField("Picard iteration did not converge")

    H_fwd, iters = run(list(range(n)))
    H_rev, _ = run(list(range(n - 1, -1, -1)))
    spread = float(np.max(np.abs(H_fwd - H_rev)))
    return LameResult(axes=[np.asarray(a, dtype=float) for a in axes],
                      H=H_fwd, path_spread=spread, iterations=iters)
