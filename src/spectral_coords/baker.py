"""Wave-function assembly and evaluation.

The wave function on component c has the form

    psi_c(z) = exp(sum_terms u^var * phase(z)) * (c_0 + sum_k c_k / (z - alpha_k)),

and the unknown coefficients are pinned down by the gluing equalities and
the point normalizations. The system is small, so it is rebuilt and solved
fresh at every u; a Solver instance precomputes everything u-independent
(basis values and phase values at all evaluation points) so that batches of
u are handled with stacked numpy solves.

Because every entry of A(u) is a sum of base * exp(phase . u), its
u-derivatives are closed-form as well, and differentiating A c = b gives
the coefficient derivatives from the same factorization
(Taylor-mode differentiation, Griewank and Walther, "Evaluating
Derivatives"). `Solver.jet` uses this for exact map derivatives.

Each u costs one factorization: `map_batch`, `h_batch`, `jet` and
`solve_batch` share one stacked solve of A [c | A^-1] = [b | I] per block
of _SOLVE_BLOCK (1024) rows, so memory stays flat in the batch length.
The gate on A(u) has two stages. A row passes when sqrt(kappa_1
kappa_inf), read off that inverse, is at most half of CONDITION_LIMIT;
it bounds the 2-norm condition number from above (Higham, "Accuracy and
Stability of Numerical Algorithms", sec. 6). The rows left over go
to np.linalg.cond, and the worst of them past CONDITION_LIMIT raises
SingularSystem, so the refusals are those of an SVD of every row. An
A(u) whose exp(phase . u) overflows is refused too.

The coefficients c(u) never leave a Solver: `solve_batch` returns the map
x(u), its first derivatives, the leading coefficients h_i(u), the exact
2-norm condition numbers and the residuals |A c - b|, all from one
assembly of A(u) and one factorization; `map_batch` and `h_batch` return
only x or only the h_i, and compute no conditions or residuals. A
non-finite x, derivative, h_i or residual is refused as SingularSystem
naming its u, without a RuntimeWarning.
"""

from __future__ import annotations

import itertools

import numpy as np

from .curve import CurvePoint, SpectralData, validate_counting
from .errors import EssentialSingularity, PoleEvaluation, SingularSystem
from .numerics import is_inf, same_point

CONDITION_LIMIT = 1e12
# Rows of A(u) per stacked solve. A block holds A(u) and the solution
# [c | A^-1], about 2 * _SOLVE_BLOCK * size^2 complex entries (7 MiB at
# size 15), so a batch's working memory does not grow with its length.
_SOLVE_BLOCK = 1024
# A row passes the screen when sqrt(kappa_1 kappa_inf) from the computed
# inverse is at most this share of CONDITION_LIMIT. Near the limit the
# computed inverse is off by about size * kappa * eps relative, under 1e-2
# for size <= 40 at kappa = 1e12, so the factor of two keeps every row that
# passes below the limit in kappa_2.
_SCREEN_MARGIN = 0.5


def _phase_vector(data: SpectralData, comp: int, z,
                  strip: int = None) -> np.ndarray:
    """Coefficients of u in the exponent of psi_c at the point z.

    The u^strip term is left out where its phase has a pole at z: at the
    marker P_i, with strip = i, what remains is the exponent of the
    leading coefficient h_i. Any other phase with a pole at z raises."""
    vec = np.zeros(data.n, dtype=complex)
    for term in data.ansatz[comp].essential:
        try:
            vec[term.var - 1] += term.phase.eval(z)
        except PoleEvaluation as exc:
            if term.var == strip:
                continue
            raise EssentialSingularity(
                f"phase of u^{term.var} blows up at {z} on component {comp}"
            ) from exc
    return vec


def _basis_row(data: SpectralData, comp: int, z, offsets) -> np.ndarray:
    """Rational-basis values (constant and pole terms) in the full layout."""
    row = np.zeros(offsets[-1], dtype=complex)
    base = offsets[comp]
    row[base] = 1.0
    for k, alpha in enumerate(data.ansatz[comp].poles):
        if is_inf(z):
            row[base + 1 + k] = 0.0
        else:
            if same_point(z, alpha):
                raise PoleEvaluation(f"evaluation at ansatz pole {alpha}")
            row[base + 1 + k] = 1.0 / (z - alpha)
    return row


def _block_offsets(data: SpectralData) -> tuple:
    """Start of each component's coefficient block, plus the total length."""
    offsets = [0]
    for comp in data.ansatz:
        offsets.append(offsets[-1] + 1 + len(comp.poles))
    return tuple(offsets)


def _point_rows(data: SpectralData, points, offsets, strip: bool = False):
    """Basis rows and phase vectors at the given curve points. With strip,
    the points are the markers P_1, ..., P_n and point i leaves out its
    u^i term (see _phase_vector), which gives the rows of the h_i."""
    base = [_basis_row(data, cp.component, cp.point, offsets) for cp in points]
    phase = [_phase_vector(data, cp.component, cp.point,
                           i + 1 if strip else None)
             for i, cp in enumerate(points)]
    return np.array(base), np.array(phase)


def _norm_product(X: np.ndarray) -> np.ndarray:
    """||X||_1 ||X||_inf for each matrix of a stack."""
    X = np.abs(X)
    return X.sum(axis=-2).max(axis=-1) * X.sum(axis=-1).max(axis=-1)


# The phase and basis products below are einsums, not complex `@`: with
# OpenBLAS's zgemm, the np.exp that follows ran over ten times slower on
# an AVX-512 host, and einsum leaves it alone.
def _exp_phase(us: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """exp(phase_t . u) for a batch of u (m, n) and phases (T, n): (m, T)."""
    return np.exp(np.einsum("mn,tn->mt", us, phase))


def _psi(us: np.ndarray, coeffs: np.ndarray, base: np.ndarray,
         phase: np.ndarray) -> np.ndarray:
    """psi at points with basis rows `base` and phase vectors `phase`, for
    a batch of u and its solved coefficients: (m, points). An overflow
    gives inf or nan without a RuntimeWarning; the Solver refuses them."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _exp_phase(us, phase) * np.einsum("mk,jk->mj", coeffs, base)


def _finite(us: np.ndarray, what: str, values: np.ndarray) -> np.ndarray:
    """values, whose leading axis runs over the batch us, after refusing
    the first u at which any of them is not finite."""
    finite = np.isfinite(values.reshape(len(us), -1)).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise SingularSystem(f"non-finite {what} at u = {us[k].tolist()}")
    return values


def _exp_jet(phase: np.ndarray, weights: np.ndarray, order: int) -> list:
    """u-derivatives of factors of the form c * exp(phase . u).

    phase is (T, n) and weights (m, T) holds the factors' values at m
    points. Entry k has shape (n,) * k + (m, T): the k-th derivative
    tensor, which is the value times phase_a1 ... phase_ak.
    """
    n = phase.shape[1]
    out = [weights]
    for k in range(order):
        out.append(phase.T.reshape((n,) + (1,) * (k + 1) + (-1,)) * out[-1])
    return out


def _leibniz(f: list, g: list, k: int, skip_top: bool = False):
    """Order-k derivative tensor of a product f * g.

    f[j] and g[j] are derivative tensors with the j derivative axes first;
    trailing axes broadcast. The sum runs over the subsets S of the k
    derivative slots, with d^S f times d^(rest) g. skip_top leaves out
    S = {}, the only term that uses g[k].
    """
    slots = "abc"[:k]
    total = 0
    for r in range(1 if skip_top else 0, k + 1):
        for chosen in itertools.combinations(range(k), r):
            fs = "".join(slots[i] for i in chosen)
            gs = "".join(slots[i] for i in range(k) if i not in chosen)
            total = total + np.einsum(f"{fs}...,{gs}...->{slots}...",
                                      f[r], g[k - r])
    return total


class Solver:
    """Precomputed linear system, reusable across many values of u.

    Every matrix entry is a sum of terms base * exp(phase . u); the bases
    and phases are assembled once, so a batch of m parameter points costs
    one stacked (m, U, U) solve.
    """

    def __init__(self, data: SpectralData):
        self.data = data
        report = validate_counting(data)
        self.offsets = _block_offsets(data)
        self.size = self.offsets[-1]
        if self.size != report.unknowns:
            raise AssertionError("layout disagrees with counting")

        rows, cols, base, phase = [], [], [], []

        def add_point(row_index: int, cp: CurvePoint, sign: float):
            bvals = _basis_row(data, cp.component, cp.point, self.offsets)
            pvec = _phase_vector(data, cp.component, cp.point)
            lo = self.offsets[cp.component]
            hi = self.offsets[cp.component + 1]
            for col in range(lo, hi):
                if bvals[col] == 0 and col != lo:
                    continue
                rows.append(row_index)
                cols.append(col)
                base.append(sign * bvals[col])
                phase.append(pvec)

        rhs = np.zeros(self.size, dtype=complex)
        r = 0
        for g in data.gluings:
            for k in range(len(g.points) - 1):
                add_point(r, g.points[k], +1.0)
                add_point(r, g.points[k + 1], -1.0)
                r += 1
        for nm in data.normalizations:
            add_point(r, nm.point, +1.0)
            rhs[r] = nm.value
            r += 1
        if r != self.size:
            raise AssertionError("row count disagrees with counting")

        self._rows = np.asarray(rows)
        self._cols = np.asarray(cols)
        self._base = np.asarray(base, dtype=complex)
        self._phase = np.asarray(phase, dtype=complex)  # (terms, n)
        self.rhs = rhs

        # evaluation data for the coordinate map x^j = psi(Q_j) and for h_i
        self._q_base, self._q_phase = _point_rows(data, data.Q, self.offsets)
        self._h_base, self._h_phase = _point_rows(data, data.P_markers,
                                                  self.offsets, strip=True)
        # row_scatter[t, i] = 1 where term t sits in row i, so that
        # (terms, ...) @ row_scatter sums term contributions per row
        self._row_scatter = np.zeros((len(rows), self.size))
        self._row_scatter[np.arange(len(rows)), self._rows] = 1.0

    # -- assembly and solving -------------------------------------------------

    def matrices(self, us: np.ndarray) -> np.ndarray:
        """A(u) for a batch of u, shape (m, size, size). Where exp(phase . u)
        overflows the entries are inf or nan; _factor refuses them."""
        us = np.atleast_2d(np.asarray(us, dtype=float))
        with np.errstate(over="ignore", invalid="ignore"):
            weights = self._base * _exp_phase(us, self._phase)  # (m, T)
        A = np.zeros((us.shape[0], self.size, self.size), dtype=complex)
        np.add.at(A, (slice(None), self._rows, self._cols), weights)
        return A

    def _factor(self, us: np.ndarray, inverse: bool = False):
        """Coefficients c(u) for a batch of u, under the two-stage gate the
        module docstring sets out, with A(u) and A(u)^-1 when asked (else
        None, None): (c, A, A^-1).

        Each block of _SOLVE_BLOCK rows is one assembly and one stacked
        solve A [c | A^-1] = [b | I]. The rows the screen does not clear,
        and every row of a block whose solve raises LinAlgError, are judged
        together by np.linalg.cond at the end, so the worst refusal is
        found across blocks; a LinAlgError with no refusal is re-raised.
        A non-finite A(u) is refused before it is solved.
        """
        m = us.shape[0]
        coeffs = np.empty((m, self.size), dtype=complex)
        mats = inv = None
        if inverse:
            mats = np.empty((m, self.size, self.size), dtype=complex)
            inv = np.empty_like(mats)
        rhs = np.concatenate([self.rhs[:, None], np.eye(self.size)], axis=1)
        doubtful_rows, doubtful_A, failure = [], [], None
        for r0 in range(0, m, _SOLVE_BLOCK):
            r1 = min(r0 + _SOLVE_BLOCK, m)
            A = self.matrices(us[r0:r1])
            finite = np.isfinite(A).all(axis=(1, 2))
            if not finite.all():
                k = r0 + int(np.argmin(finite))
                raise SingularSystem(
                    f"exp(phase . u) overflows at u = {us[k].tolist()}")
            try:
                sol = np.linalg.solve(
                    A, np.broadcast_to(rhs, A.shape[:1] + rhs.shape))
            except np.linalg.LinAlgError as exc:
                failure = exc
                doubtful_rows.append(np.arange(r0, r1))
                doubtful_A.append(A)
                continue
            coeffs[r0:r1] = sol[..., 0]
            if inverse:
                mats[r0:r1] = A
                inv[r0:r1] = sol[..., 1:]
            with np.errstate(over="ignore", invalid="ignore"):
                bound = np.sqrt(_norm_product(A) * _norm_product(sol[..., 1:]))
                # a nan bound, from a non-finite inverse, is doubtful too
                doubtful = ~(bound <= _SCREEN_MARGIN * CONDITION_LIMIT)
            if doubtful.any():
                doubtful_rows.append(r0 + np.flatnonzero(doubtful))
                doubtful_A.append(A[doubtful])
        if doubtful_rows:
            cond = np.linalg.cond(np.concatenate(doubtful_A))
            k = int(np.argmax(cond))
            worst = float(cond[k])
            if not np.isfinite(worst) or worst > CONDITION_LIMIT:
                u = us[np.concatenate(doubtful_rows)[k]]
                raise SingularSystem(
                    f"condition estimate {worst:.3e} at u = {u.tolist()}")
        if failure is not None:
            raise failure
        return coeffs, mats, inv

    def _map(self, us: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        return _finite(us, "map",
                       _psi(us, coeffs, self._q_base, self._q_phase))

    def _h(self, us: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        return _finite(us, "h", _psi(us, coeffs, self._h_base, self._h_phase))

    def _derivatives(self, us, coeffs, inverse, order: int) -> list:
        """Exact u-derivatives of x of orders 1 to `order`, from the solved
        c(u) and A(u)^-1; entry k - 1 has the layout of `jet`'s entry k.

        Differentiating A c = b gives, for each multi-index alpha,
        A c_alpha = -sum over proper subsets beta of alpha of
        (d^(alpha - beta) A) c_beta, and the derivatives of A are the
        assembly weights times products of phases. x^j = exp(q_j . u)
        (base_j . c) then follows by the product rule. The derivatives
        can overflow where A(u) does not; they are refused, like x.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            weights = _exp_jet(self._phase,
                               self._base * _exp_phase(us, self._phase), order)
            c = [coeffs]  # c[k]: (n,) * k + (m, size)
            for k in range(1, order + 1):
                gathered = [ck[..., self._cols] for ck in c]
                rows = _leibniz(weights, gathered, k, skip_top=True) \
                    @ self._row_scatter
                c.append(-np.einsum("mij,...mj->...mi", inverse, rows))

            growth = _exp_jet(self._q_phase, _exp_phase(us, self._q_phase),
                              order)
            rational = [np.einsum("...k,jk->...j", ck, self._q_base)
                        for ck in c]
            return [_finite(us, "map derivative",
                            np.moveaxis(_leibniz(growth, rational, k), k, 0))
                    for k in range(1, order + 1)]

    def solve_batch(self, us: np.ndarray):
        """x(u), its first derivatives dx[s, a, j] = dx^j/du^a (as `jet`'s
        entry 1), h_i(u), 2-norm condition numbers of A(u) and residual
        norms |A c - b| for a batch of u, all from one assembly and one
        factorization."""
        us = np.atleast_2d(np.asarray(us, dtype=float))
        coeffs, A, inverse = self._factor(us, inverse=True)
        x = self._map(us, coeffs)
        dx = self._derivatives(us, coeffs, inverse, 1)[0]
        h = self._h(us, coeffs)
        with np.errstate(over="ignore", invalid="ignore"):
            resid = np.linalg.norm(
                np.einsum("mij,mj->mi", A, coeffs) - self.rhs, axis=1)
        return x, dx, h, np.linalg.cond(A), _finite(us, "residual", resid)

    def map_batch(self, us: np.ndarray) -> np.ndarray:
        """Coordinates x(u) for a batch of u, shape (m, n), complex."""
        us = np.atleast_2d(np.asarray(us, dtype=float))
        return self._map(us, self._factor(us)[0])

    def h_batch(self, us: np.ndarray) -> np.ndarray:
        """Leading coefficients h_i(u) for a batch of u, shape (m, n)."""
        us = np.atleast_2d(np.asarray(us, dtype=float))
        return self._h(us, self._factor(us)[0])

    def jet(self, us: np.ndarray, order: int = 3) -> list:
        """x(u) and its exact u-derivatives up to `order` (0 to 3).

        Entry k of the result has shape (m,) + (n,) * k + (n,):
        out[k][s, a1, ..., ak, j] = d^k x^j / du^a1 ... du^ak at us[s].
        Each u costs one factorization of A(u), gated like map_batch,
        whose inverse every derivative order reuses (see _derivatives).
        """
        if order not in (0, 1, 2, 3):
            raise ValueError(f"jet order must be 0 to 3, got {order}")
        us = np.atleast_2d(np.asarray(us, dtype=float))
        coeffs, _, inverse = self._factor(us, inverse=True)
        return ([self._map(us, coeffs)]
                + self._derivatives(us, coeffs, inverse, order))
