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
"""

from __future__ import annotations

import itertools

import numpy as np

from .curve import CurvePoint, SpectralData, validate_counting
from .errors import EssentialSingularity, PoleEvaluation, SingularSystem
from .numerics import is_inf, same_point

CONDITION_LIMIT = 1e12


def _phase_vector(data: SpectralData, comp: int, z) -> np.ndarray:
    """Coefficients of u in the exponent of psi_c at the point z."""
    vec = np.zeros(data.n, dtype=complex)
    for term in data.ansatz[comp].essential:
        try:
            vec[term.var - 1] += term.phase.eval(z)
        except PoleEvaluation as exc:
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


def _point_rows(data: SpectralData, points, offsets):
    """Basis rows and phase vectors at the given curve points."""
    base = [_basis_row(data, cp.component, cp.point, offsets) for cp in points]
    phase = [_phase_vector(data, cp.component, cp.point) for cp in points]
    return np.array(base), np.array(phase)


def _leading_rows(data: SpectralData, offsets):
    """Basis rows and stripped phase vectors at the markers P_i."""
    h_base, h_phase = [], []
    for i, cp in enumerate(data.P_markers):
        vec = np.zeros(data.n, dtype=complex)
        for term in data.ansatz[cp.component].essential:
            if term.phase.order_at(cp.point) < 0:
                if term.var != i + 1:
                    raise EssentialSingularity(
                        f"phase of u^{term.var} blows up at marker {i + 1}")
                continue
            vec[term.var - 1] += term.phase.eval(cp.point)
        h_base.append(_basis_row(data, cp.component, cp.point, offsets))
        h_phase.append(vec)
    return np.array(h_base), np.array(h_phase)


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
        self._h_base, self._h_phase = _leading_rows(data, self.offsets)
        # row_scatter[t, i] = 1 where term t sits in row i, so that
        # (terms, ...) @ row_scatter sums term contributions per row
        self._row_scatter = np.zeros((len(rows), self.size))
        self._row_scatter[np.arange(len(rows)), self._rows] = 1.0

    # -- assembly and solving -------------------------------------------------

    def matrices(self, us: np.ndarray) -> np.ndarray:
        us = np.atleast_2d(np.asarray(us, dtype=float))
        weights = self._base[:, None] * np.exp(self._phase @ us.T)  # (T, m)
        A = np.zeros((us.shape[0], self.size, self.size), dtype=complex)
        np.add.at(A, (slice(None), self._rows, self._cols), weights.T)
        return A

    def _checked_matrices(self, us: np.ndarray):
        """A(u) for a batch of u and its condition numbers; raises
        SingularSystem past CONDITION_LIMIT."""
        A = self.matrices(us)
        cond = np.linalg.cond(A)
        worst = float(np.max(cond))
        if not np.isfinite(worst) or worst > CONDITION_LIMIT:
            k = int(np.argmax(cond))
            raise SingularSystem(
                f"condition estimate {worst:.3e} at u = {us[k].tolist()}")
        return A, cond

    def solve_batch(self, us: np.ndarray):
        us = np.atleast_2d(np.asarray(us, dtype=float))
        A, cond = self._checked_matrices(us)
        b = np.broadcast_to(self.rhs, (us.shape[0], self.size))
        coeffs = np.linalg.solve(A, b[..., None])[..., 0]
        resid = np.linalg.norm(
            np.einsum("mij,mj->mi", A, coeffs) - b, axis=1)
        return coeffs, cond, resid

    def map_batch(self, us: np.ndarray) -> np.ndarray:
        """Coordinates x(u) for a batch of u, shape (m, n), complex."""
        us = np.atleast_2d(np.asarray(us, dtype=float))
        coeffs, _, _ = self.solve_batch(us)
        return self.map_from(us, coeffs)

    def h_batch(self, us: np.ndarray) -> np.ndarray:
        """Leading coefficients h_i(u) for a batch of u, shape (m, n)."""
        us = np.atleast_2d(np.asarray(us, dtype=float))
        coeffs, _, _ = self.solve_batch(us)
        return self.h_from(us, coeffs)

    def map_from(self, us: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """x(u) from coefficients already solved at the same batch of u."""
        return np.exp(us @ self._q_phase.T) * (coeffs @ self._q_base.T)

    def h_from(self, us: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """h_i(u) from coefficients already solved at the same batch of u."""
        return np.exp(us @ self._h_phase.T) * (coeffs @ self._h_base.T)

    def psi_from(self, us: np.ndarray, coeffs: np.ndarray, points) -> np.ndarray:
        """psi(u) at the given CurvePoints, shape (m, len(points)), from
        coefficients already solved at the same batch of u. Raises
        EssentialSingularity at a phase pole and PoleEvaluation at an
        ansatz pole."""
        base, phase = _point_rows(self.data, points, self.offsets)
        return np.exp(us @ phase.T) * (coeffs @ base.T)

    def jet(self, us: np.ndarray, order: int = 3) -> list:
        """x(u) and its exact u-derivatives up to `order` (0 to 3).

        Entry k of the result has shape (m,) + (n,) * k + (n,):
        out[k][s, a1, ..., ak, j] = d^k x^j / du^a1 ... du^ak at us[s].
        Each u costs one factorization of A(u), gated like solve_batch.
        Differentiating A c = b gives, for each multi-index alpha,
        A c_alpha = -sum over proper subsets beta of alpha of
        (d^(alpha - beta) A) c_beta, and the derivatives of A are the
        assembly weights times products of phases. x^j = exp(q_j . u)
        (base_j . c) then follows by the product rule.
        """
        if order not in (0, 1, 2, 3):
            raise ValueError(f"jet order must be 0 to 3, got {order}")
        us = np.atleast_2d(np.asarray(us, dtype=float))
        A, _ = self._checked_matrices(us)
        # one factorization gives c and the inverse that every
        # derivative order reuses
        rhs = np.concatenate([self.rhs[:, None], np.eye(self.size)], axis=1)
        sol = np.linalg.solve(A, np.broadcast_to(rhs, A.shape[:1] + rhs.shape))
        coeffs, inverse = sol[..., 0], sol[..., 1:]

        weights = _exp_jet(self._phase,
                           self._base * np.exp(us @ self._phase.T), order)
        c = [coeffs]  # c[k]: (n,) * k + (m, size)
        for k in range(1, order + 1):
            gathered = [ck[..., self._cols] for ck in c]
            rows = _leibniz(weights, gathered, k, skip_top=True) \
                @ self._row_scatter
            c.append(-np.einsum("mij,...mj->...mi", inverse, rows))

        growth = _exp_jet(self._q_phase, np.exp(us @ self._q_phase.T), order)
        rational = [ck @ self._q_base.T for ck in c]
        return [np.moveaxis(_leibniz(growth, rational, k), k, 0)
                for k in range(order + 1)]

