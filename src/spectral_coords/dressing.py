"""Dressing route to rotation coefficients.

A kernel spec assigns to each pair i <= j a separable two-variable
function built from named decaying factors (gaussians or compact bumps);
the diagonal entries are antisymmetrized structurally. From these the
matrix kernel F is formed, the Marchenko-type equation

    K(s, s') = F(s, s') + integral_s^inf K(s, q) F(q, s') dq

is solved by Nystrom collocation on a truncated grid, and K(s, s) yields
a rotation-coefficient matrix whose compatibility systems are then checked
by finite differences over u. Those derivatives come from geometry's
central-difference stencil (`geometry._fd_jet`), and the systems from
`geometry.rotation_systems`.

A spec's F is a sum of signed rank-one terms, tabulated once per spec:
entry (i, j) with factors (first, second) gives, in this order,

    F_ij(x, y) += first'(x - u^i) second(y - u^j)
    F_ji(x, y) -= second'(x - u^j) first(y - u^i)

and for i = j both terms land on the same block, which antisymmetrizes
the diagonal entry. Sign note: with the opposite sign on the second term
the differential reduction identity fails, and with it the skew system.

_Layout.kernel sums the terms, and _Layout.factors writes one column per
term, so a spec's Nystrom matrix is M = I - U V^T in rank R = len(terms),
and a spec is solved through the R x R system I - V^T U (Woodbury
identity; the degenerate-kernel method, Atkinson, The Numerical Solution
of Integral Equations of the Second Kind, ch. 2). The solve evaluates each
factor family once, in one broadcast call over all of its terms' rows, on
s, the nodes and the tail scan together, and takes every value of F it
needs from those rows. The tail check forms F on the scan only for the
blocks of two or more terms; for a block of one term its largest |F| is
the product of the factors' largest values, exactly (_Layout.tail). The
solve never holds M or its inverse whole, and takes K and the residual
from the factors in O(nN R). It gates on a condition bound taken from the
1- and inf-norms of M and its inverse, in two stages: a
triangle-inequality screen from the factors, in O(nN R), passes the solve
when it is at most half the limit; only otherwise are M and its inverse
formed a fixed number of rows at a time, their exact norms summed in
O((nN)^2 R) time and O(nN) memory, and judged. The screen is never below
the exact value, so the two stages refuse exactly the solves the exact
value alone refuses.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (IncompatibleField, InputError, SingularFredholm,
                     TailTooFat)
from .geometry import FDConfig, _fd_jet, rotation_systems
from .numerics import json_int, json_real, max_abs

TAIL_BOUND = 1e-10
# Gate on sqrt(kappa_1 * kappa_inf) of the Nystrom matrix, with
# kappa_p = ||M||_p ||M^-1||_p taken from the factors that also give K.
# Since ||A||_2 <= sqrt(||A||_1 ||A||_inf), this bounds the 2-norm
# condition number from above: every matrix an SVD gate at this limit
# refuses is refused here too. A spec's solve screens first with an upper
# bound on that value and forms the exact one only when the screen exceeds
# _SCREEN_MARGIN times the limit (solve_marchenko_kernel).
FREDHOLM_CONDITION_LIMIT = 1e12
# share of the limit below which the low-rank screen passes a solve, the
# same margin as baker's screen
_SCREEN_MARGIN = 0.5
# central-difference step in u of check_beta_systems
BETA_CHECK_STEP = 1e-3


# ---------------------------------------------------------------------------
# kernel factors and specs
# ---------------------------------------------------------------------------

def _gaussian(t, amp, rate, center, slope):
    """Gaussian factors amp exp(-rate d^2), d = t - center, at t, with the
    parameters broadcast against t (scalars, or one column per row of t);
    on the rows where slope is true, the derivative -2 rate d amp
    exp(-rate d^2) instead. d is clipped to rate d^2 <= 746: beyond that
    bound exp(-rate d^2) is exactly 0 in double precision, so the clip
    changes no value or derivative (signs of zero included), and d^2
    cannot overflow."""
    bound = np.sqrt(746.0 / rate)
    d = np.minimum(np.maximum(t - center, -bound), bound)
    g = amp * np.exp(-rate * d ** 2)
    return np.where(slope, -2.0 * rate * d * g, g) if np.any(slope) else g


def _bump(t, amp, width, center, slope):
    """Compact bumps amp exp(-1 / (1 - tau^2)), tau = (t - center) / width,
    0 for |tau| >= 1, or their derivatives where slope is true, with the
    parameters broadcast as in _gaussian. tau may overflow for a tiny
    width; it is then infinite, so outside the support, where the value
    is exactly 0."""
    with np.errstate(over="ignore"):
        tau = (t - center) / width
    out = np.zeros_like(tau)
    inside = np.abs(tau) < 1.0
    ti = tau[inside]

    def at(p):
        return np.broadcast_to(p, tau.shape)[inside]

    value = at(amp) * np.exp(-1.0 / (1.0 - ti ** 2))
    if np.any(slope):
        value = np.where(at(slope), value * (-2.0 * ti / (1.0 - ti ** 2) ** 2)
                         / at(width), value)
    out[inside] = value
    return out


_FAMILIES = {"gaussian": _gaussian, "bump": _bump}


@dataclass(frozen=True)
class Factor:
    family: str  # "gaussian" or "bump"
    amp: float
    width: float  # rate for gaussians, half-support for bumps
    center: float

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise InputError(f"unknown factor family {self.family!r}")
        if not all(map(math.isfinite, (self.amp, self.width, self.center))):
            raise InputError("factor amp, width/rate and center must be finite")
        if self.width <= 0:
            raise InputError("factor width/rate must be positive")

    def value(self, t):
        return self._evaluate(t, False)

    def dvalue(self, t):
        return self._evaluate(t, True)

    def _evaluate(self, t, slope: bool):
        return _FAMILIES[self.family](np.asarray(t, dtype=float), self.amp,
                                      self.width, self.center, slope)

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


class _Layout:
    """Block layout of a rank-R kernel F = sum_t X_t(x) Y_t(y) E_{a_t b_t}.

    blocks lists (a_t, b_t) per term. In the Nystrom matrix M = I - U V^T,
    rows (b, j) and columns (c, k), column t of U lies in row block b_t and
    column t of V in column block a_t (factors).

    The sums of F run by slots: slot k pairs each block that has more than
    k terms with its k-th term, so adding the slots in turn adds each
    block's terms in term order."""

    def __init__(self, n: int, blocks):
        self.n = n
        self.blocks = tuple(blocks)
        # the terms of each block (a, b), in row-major order of the blocks
        by_block = [tuple(t for t, ab in enumerate(self.blocks)
                          if ab == (a, b))
                    for a in range(n) for b in range(n)]
        self._slots = _slots(by_block)
        # the tail check takes a block of one term from the factors' maxima
        # and forms the blocks of two or more
        self._single = np.array(
            [ts[0] for ts in by_block if len(ts) == 1], dtype=int)
        multi = [ts for ts in by_block if len(ts) > 1]
        self._multi, self._n_multi = _slots(multi), len(multi)
        self._a = np.array([a for a, _ in self.blocks], dtype=int)
        self._b = np.array([b for _, b in self.blocks], dtype=int)

    def kernel(self, X, Y, xs, ys) -> np.ndarray:
        """F(x, y), (n, n, len x, len y), at the points x = xs and y = ys
        (indices or slices) of the term rows (X, Y), summed in term order."""
        x, y = X[:, xs], Y[:, ys]
        return _sum_slots(x, y, self._slots, self.n * self.n).reshape(
            self.n, self.n, x.shape[1], y.shape[1])

    def tail(self, X, Y, xs, ys) -> float:
        """max |F(x, y)| over the points x = xs and y = ys of the term rows,
        without forming F on the blocks of one term: for those, max_jk
        |x_j y_k| = fl(max|x| max|y|), as rounding is monotone, overflow
        included. The blocks of two or more terms are summed in term order,
        so an inf - inf there is NaN, and np.max keeps it. For finite rows,
        as KernelSpec._rows gives, this is bit for bit
        np.max(np.abs(self.kernel(X, Y, xs, ys))); an inf in the rows gives
        inf or NaN."""
        x, y = X[:, xs], Y[:, ys]
        one = self._single
        with np.errstate(over="ignore", invalid="ignore"):
            peaks = (np.max(np.abs(x[one]), axis=1)
                     * np.max(np.abs(y[one]), axis=1),
                     _sum_slots(x, y, self._multi, self._n_multi).ravel())
        return max_abs(np.concatenate(peaks))

    def factors(self, X, Y, w) -> tuple:
        """Rank-R factors (U, V), each (n N, R), of the Nystrom operator
        from the term rows (X, Y) at N nodes with weights w:
        (U V^T)[(b, j), (c, k)] = w_k F_cb(q_k, q_j)."""
        size = self.n * w.size
        R = np.arange(len(self.blocks))
        U = np.zeros((self.n, w.size, R.size))
        V = np.zeros_like(U)
        U[self._b, :, R] = Y
        V[self._a, :, R] = w * X
        return U.reshape(size, -1), V.reshape(size, -1)


def _slots(groups) -> tuple:
    """(groups with a k-th term, their k-th terms) for k = 0, 1, ... while
    some group of term indices has a k-th term: index arrays, or a full
    slice when every group has one, which sums in place."""
    slots = []
    for k in range(max(map(len, groups), default=0)):
        at, terms = zip(*((g, ts[k]) for g, ts in enumerate(groups)
                          if len(ts) > k))
        slots.append((slice(None) if len(at) == len(groups) else
                      np.array(at), np.array(terms)))
    return tuple(slots)


def _sum_slots(x, y, slots, count: int) -> np.ndarray:
    """(count, len x, len y) sums of the products x_t(x) y_t(y) over the
    slots (_slots) of count groups of terms, in slot order."""
    out = np.zeros((count, x.shape[1], y.shape[1]))
    for groups, terms in slots:
        out[groups] += x[terms, :, None] * y[terms, None, :]
    return out


def _family_columns(family: str, rows) -> tuple:
    """(evaluate, rows, u index, amp, width, center, slope) for the rows
    (row, u index, factor, slope) of one factor family: the row numbers as
    an index array, the rest as columns that broadcast against the
    (len(rows), points) array of t."""
    at, axis, factors, slope = zip(*rows)

    def column(values):
        return np.array(values)[:, None]

    return (_FAMILIES[family], np.array(at), column(axis),
            column([f.amp for f in factors]),
            column([f.width for f in factors]),
            column([f.center for f in factors]), column(slope))


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
        # signed rank-one terms (a, b, sign, fa, fb) with 0-based blocks:
        # F_ab(x, y) += sign * fa'(x - u^a) * fb(y - u^b), see the module
        # docstring; the order fixes the columns of _Layout.factors
        terms = tuple(
            term for e in entries
            for term in ((e.i - 1, e.j - 1, 1.0, e.first, e.second),
                         (e.j - 1, e.i - 1, -1.0, e.second, e.first)))
        object.__setattr__(self, "_layout",
                           _Layout(n, [(a, b) for a, b, *_ in terms]))
        object.__setattr__(self, "_signs",
                           np.array([t[2] for t in terms])[:, None])
        # the rows of X, then those of Y, as (row, u index, factor, slope)
        rows = ([(t, a, fa, True) for t, (a, _, _, fa, _) in enumerate(terms)]
                + [(len(terms) + t, b, fb, False)
                   for t, (_, b, _, _, fb) in enumerate(terms)])
        families = {}
        for row in rows:
            families.setdefault(row[2].family, []).append(row)
        object.__setattr__(self, "_families", tuple(
            _family_columns(family, members)
            for family, members in families.items()))

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

    def _rows(self, u, points) -> tuple:
        """Term rows (X, Y), each (R, len(points)): X[t] = sign_t *
        fa_t'(points - u^a_t) and Y[t] = fb_t(points - u^b_t), one call of
        each factor family for all its rows. A value that is not finite is
        an InputError naming its entry and factor."""
        u = np.asarray(u, dtype=float)
        R = len(self._signs)
        table = np.empty((2 * R, points.size))
        with np.errstate(over="ignore", invalid="ignore"):
            for family, at, axis, amp, width, center, slope in self._families:
                table[at] = family(points - u[axis], amp, width, center,
                                   slope)
            table[:R] *= self._signs
        X, Y = table[:R], table[R:]
        for rows, what, shift in ((X, "derivative", 0), (Y, "value", 1)):
            bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
            if bad.size:
                # term 2e takes fa = first, term 2e + 1 takes fa = second
                t = int(bad[0])
                e = self.entries[t // 2]
                raise InputError(
                    f"phi entry ({e.i},{e.j}): the {what} of its "
                    f"{('first', 'second')[(t + shift) % 2]} factor is not "
                    "finite on the node grid")
        return X, Y


# ---------------------------------------------------------------------------
# quadrature grid and Marchenko solve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    s: float
    s_max: float
    N: int = 200

    def __post_init__(self):
        if not (math.isfinite(self.s) and math.isfinite(self.s_max)):
            raise InputError("grid bounds s and s_max must be finite")
        if not self.s < self.s_max:
            raise InputError("need s < s_max")
        if not math.isfinite(self.s_max + self.tail_width):
            raise InputError("grid span s_max - s and the tail scan beyond "
                             "s_max must stay finite")
        if self.N < 8:
            raise InputError("need at least 8 nodes")

    @property
    def tail_width(self) -> float:
        """Width of the scan beyond s_max on which |F| must be below
        TAIL_BOUND: half the span s_max - s, at least 0.5."""
        return 0.5 * max(1.0, self.s_max - self.s)

    def nodes(self):
        """Gauss-Legendre nodes and weights on [s, s_max]."""
        x, w = _gauss_legendre(self.N)
        half = 0.5 * (self.s_max - self.s)
        return self.s + half * (x + 1.0), half * w

    @functools.cached_property
    def _points(self) -> tuple:
        """(q, w, points), shared read-only by every solve on this grid: the
        nodes and weights, and the points at which a solve evaluates the
        factors, s, then the nodes, then the 17-point tail scan."""
        q, w = self.nodes()
        scan = self.s_max + np.linspace(0.0, self.tail_width, 17)
        points = np.concatenate([[self.s], q, scan])
        for a in (q, w, points):
            a.flags.writeable = False
        return q, w, points


@functools.lru_cache(maxsize=16)
def _gauss_legendre(N: int):
    """Gauss-Legendre nodes and weights on [-1, 1], shared read-only."""
    x, w = np.polynomial.legendre.leggauss(N)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@dataclass
class MarchenkoSolution:
    grid: Grid
    q: np.ndarray  # the nodes and weights, the grid's read-only arrays
    w: np.ndarray
    K_nodes: np.ndarray  # [a, b, j] = K_ab(s, q_j)
    residual: float
    _condition: object  # the gate value, or a callable that computes it
    _F_diag: np.ndarray  # [a, b, k, 0] = F_ab(x_k, s) at x = (s, q)

    @property
    def condition(self) -> float:
        """sqrt(kappa_1 * kappa_inf) of the Nystrom matrix. A solve that
        the screen passed computes it here, on first read."""
        if callable(self._condition):
            self._condition = self._condition()
        return self._condition

    def diagonal(self) -> np.ndarray:
        """K(s, s), by Nystrom interpolation from K_nodes."""
        F = self._F_diag
        return (F[:, :, 0, :] + np.einsum("ack,k,cbkp->abp", self.K_nodes,
                                          self.w, F[:, :, 1:, :]))[:, :, 0]


def _inverse(A: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise SingularFredholm(
            f"discretized operator is singular ({exc})") from exc


# rows of S that _norms forms at once: a chunk of nN columns, 900 kB at
# n = 3, N = 200 and 4.6 MB at N = 1000
_NORM_ROWS = 192


def _norms(A, V, shift: float) -> tuple:
    """(||S||_1, ||S||_inf) of S = shift I + A V^T, for A and V of shape
    (m, R), formed _NORM_ROWS rows at a time: O(m^2 R) time and O(m)
    memory. NaN if S has a NaN."""
    m = A.shape[0]
    col_sums = np.zeros(m)
    row_sums = np.empty(m)
    buffer = np.empty((_NORM_ROWS, m))
    for r0 in range(0, m, _NORM_ROWS):
        rows = A[r0:r0 + _NORM_ROWS]
        chunk = np.matmul(rows, V.T, out=buffer[:len(rows)])
        # entry (k, r0 + k) of the C-ordered chunk is element r0 + k (m + 1)
        chunk.reshape(-1)[r0::m + 1] += shift
        np.abs(chunk, out=chunk)
        col_sums += chunk.sum(axis=0)
        row_sums[r0:r0 + len(rows)] = chunk.sum(axis=1)
    return col_sums.max(), row_sums.max()


def _screen(U, V, W) -> float:
    """Upper bound on sqrt(kappa_1 * kappa_inf) of M = I - U V^T, with
    M^-1 = I + W V^T, in O(nN R): by the triangle inequality
    ||X V^T||_1 <= max_j sum_t |V_jt| ||X_:t||_1,
    ||X V^T||_inf <= max_i sum_t |X_it| ||V_:t||_1 and ||I +- Y|| <= 1 + ||Y||,
    taken with X = U for M and X = W for M^-1. NaN if W is not finite."""
    aV = np.abs(V)
    V_1 = aV.sum(axis=0)
    bound = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for X in (U, W):
            aX = np.abs(X)
            bound *= (1.0 + float(np.max(aV @ aX.sum(axis=0)))) \
                * (1.0 + float(np.max(aX @ V_1)))
    return math.sqrt(bound)


def _low_rank_condition(U, V, W) -> float:
    """sqrt(kappa_1 * kappa_inf) of M = I - U V^T, with M^-1 = I + W V^T,
    from the exact norms (_norms); SingularFredholm above the limit."""
    # -M = U V^T - I
    (M_1, M_inf), (Minv_1, Minv_inf) = _norms(U, V, -1.0), _norms(W, V, 1.0)
    cond = math.sqrt(M_1 * Minv_1 * M_inf * Minv_inf)
    if not math.isfinite(cond) or cond > FREDHOLM_CONDITION_LIMIT:
        raise SingularFredholm(f"discretized operator condition {cond:.3e}")
    return cond


def solve_marchenko_kernel(rows, n: int, grid: Grid,
                           layout: _Layout) -> MarchenkoSolution:
    """Nystrom solve for the rank-R kernel F = sum_t X_t(x) Y_t(y)
    E_{a_t b_t} on n axes.

    layout is a _Layout of the blocks (a_t, b_t), and rows(points) ->
    (X, Y), each (R, len(points)), as KernelSpec._rows. rows is called
    once, on the grid's s, nodes and tail scan, so each factor is
    evaluated once per solve; the tail max (_Layout.tail), the right-hand
    side F(s, q), the factors U, V of the Nystrom matrix M = I - U V^T and
    F((s, q), s) for diagonal() all come from those rows. Only the R x R
    matrix C = I - V^T U is inverted: with W = U C^-1, M^-1 = I + W V^T, so
    K = rhs + W (V^T rhs) and the residual M K - rhs come from the factors
    in O(nN R), and neither M nor M^-1 is formed whole.

    The gate has two stages. The screen (_screen) bounds the gate value
    from above in O(nN R) from U, V and W; at most _SCREEN_MARGIN *
    FREDHOLM_CONDITION_LIMIT, the solve passes. Otherwise the exact norms
    of M and M^-1 are taken from _NORM_ROWS rows of each at a time
    (_norms), in O((nN)^2 R) time and O(nN) memory.
    The refusals are those of the exact value alone: a solve the screen
    passes has an exact value at most the screen's, up to rounding of
    relative size about nN R eps in either, far below the factor 2 of the
    margin, so the exact stage would have passed it too. A NaN screen
    never passes. After a passing screen, `condition` is computed from U,
    V and W on its first read.

    The reported condition is sqrt(kappa_1 * kappa_inf) with kappa_p =
    ||M||_p ||M^-1||_p. That is an upper bound on the 2-norm condition
    number (||A||_2 <= sqrt(||A||_1 ||A||_inf), Higham, Accuracy and
    Stability of Numerical Algorithms, sec. 6) and at most nN times it.
    A singular C, or a bound above FREDHOLM_CONDITION_LIMIT, raises
    SingularFredholm."""
    q, w, points = grid._points
    N = grid.N
    X, Y = rows(points)
    tail = layout.tail(X, Y, slice(N + 1, None), slice(1, None))
    if not tail <= TAIL_BOUND:
        raise TailTooFat(
            f"|F| reaches {tail:.3e} beyond s_max = {grid.s_max}")

    # factors whose products overflow pass the tail check and make the
    # operator NaN or inf, which the gate refuses: numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        # F_s[a, b, 0, j] = F_ab(s, q_j)
        F_s = layout.kernel(X, Y, slice(0, 1), slice(1, N + 1))
        rhs = F_s[:, :, 0, :].transpose(1, 2, 0).reshape(n * N, n)
        U, V = layout.factors(X[:, 1:N + 1], Y[:, 1:N + 1], w)
        W = U @ _inverse(np.eye(U.shape[1]) - V.T @ U)
        cond = functools.partial(_low_rank_condition, U, V, W)
        if not _screen(U, V, W) <= _SCREEN_MARGIN * FREDHOLM_CONDITION_LIMIT:
            cond = cond()
        sol = rhs + W @ (V.T @ rhs)
        residual = max_abs(sol - U @ (V.T @ sol) - rhs)
        return MarchenkoSolution(
            grid=grid, q=q, w=w,
            K_nodes=sol.reshape(n, N, n).transpose(2, 0, 1),
            residual=residual, _condition=cond,
            _F_diag=layout.kernel(X, Y, slice(0, N + 1), slice(0, 1)))


def solve_marchenko(spec: KernelSpec, u, grid: Grid) -> MarchenkoSolution:
    return solve_marchenko_kernel(lambda points: spec._rows(u, points),
                                  spec.n, grid, spec._layout)


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


def check_beta_systems(beta_fn, n: int, u) -> tuple:
    """Residuals (eq4, eq5) of the two rotation-coefficient systems for an
    opaque beta field, as geometry.rotation_systems lists them; eq4 is
    empty for n = 2. dbeta comes from geometry._fd_jet, second order with
    step BETA_CHECK_STEP: beta_fn is called at u and at u +- h e_k, 2n + 1
    (n, n) fields in all."""
    u = np.asarray(u, dtype=float)
    j = _fd_jet(lambda points: np.stack([beta_fn(p) for p in points]), u, 1,
                FDConfig(h=BETA_CHECK_STEP, order=2), (n, n))
    return rotation_systems(j.x.real, j.dx.real)


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
        # a NaN spacing passes no comparison, and an inf node makes the
        # tolerance inf
        if not np.all(np.isfinite(ax)):
            raise InputError(f"axis {k} has a node that is not finite")
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


def lame_from_rotation(beta_fn, cauchy, axes) -> LameResult:
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

    if n >= 3:
        probe = pts[len(pts) // 2]
        eq4, _ = check_beta_systems(beta_fn, n, probe)
        worst = max_abs(eq4)
        if not worst <= 1e-2:
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
            delta = max_abs(H - prev)
            if delta <= 1e-13 * (1.0 + max_abs(H)):
                return H, iteration
        raise IncompatibleField("Picard iteration did not converge")

    H_fwd, iters = run(list(range(n)))
    H_rev, _ = run(list(range(n - 1, -1, -1)))
    spread = max_abs(H_fwd - H_rev)
    return LameResult(axes=[np.asarray(a, dtype=float) for a in axes],
                      H=H_fwd, path_spread=spread, iterations=iters)
