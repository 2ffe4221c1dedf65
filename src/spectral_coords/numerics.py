"""Factored rational functions and differentials on the Riemann sphere.

Everything here is numeric: a rational function is stored as
``scale * prod (z - root)**mult`` and never expanded into coefficients.
Residues are exact: at a pole of order m the residue is the (m-1)-th
Taylor coefficient of the remaining factors, a finite convolution of
binomial series. The residue at infinity is cross-checked between the
two charts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError, Mismatch, NoIsolation, PoleEvaluation

ROOT_MERGE_TOL = 1e-9


class Infinity:
    """The point at infinity on CP^1 (a singleton, use ``INF``)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"

    def __eq__(self, other):
        return isinstance(other, Infinity)

    def __hash__(self):
        return hash("Infinity")


INF = Infinity()


def is_inf(p) -> bool:
    return isinstance(p, Infinity)


def require_finite(z: complex, what: str = "value") -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise InputError(f"{what} must have finite components, got {z}")
    return z


def same_point(p, q, tol: float = ROOT_MERGE_TOL) -> bool:
    """Whether two sphere points coincide up to the root-merge tolerance."""
    if is_inf(p) or is_inf(q):
        return is_inf(p) and is_inf(q)
    return abs(p - q) <= tol * (1.0 + abs(p))


def json_int(value, what: str) -> int:
    """An integer read from JSON; booleans, strings and fractions are refused."""
    if type(value) is not int:
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def json_real(value, what: str) -> float:
    """A real number read from JSON; booleans and strings are refused."""
    if type(value) not in (int, float):
        raise InputError(f"{what} must be a number, got {value!r}")
    return float(value)


def complex_to_json(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def complex_from_json(obj) -> complex:
    if not (isinstance(obj, (list, tuple)) and len(obj) == 2):
        raise InputError(f"expected [re, im] pair, got {obj!r}")
    z = complex(json_real(obj[0], "real part"),
                json_real(obj[1], "imaginary part"))
    return require_finite(z)


def point_to_json(p):
    return "inf" if is_inf(p) else complex_to_json(p)


def point_from_json(obj):
    if obj == "inf":
        return INF
    return complex_from_json(obj)


@dataclass(frozen=True)
class FactoredRational:
    """Rational function ``scale * prod (z - root)**mult`` on an affine chart.

    Roots within ``ROOT_MERGE_TOL * (1 + |root|)`` of each other are merged
    at construction; factors whose multiplicity cancels to zero are dropped.
    """

    scale: complex
    factors: tuple  # of (root: complex, mult: int)

    def __init__(self, scale, factors=()):
        scale = require_finite(scale, "scale")
        if scale == 0:
            raise InputError("scale must be nonzero")
        merged: list = []
        for root, mult in factors:
            root = require_finite(root, "root")
            mult = int(mult)
            for k, (r, m) in enumerate(merged):
                if same_point(r, root):
                    merged[k] = (r, m + mult)
                    break
            else:
                merged.append((root, mult))
        merged = [(r, m) for r, m in merged if m != 0]
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "factors", tuple(merged))

    # -- basic queries ------------------------------------------------------

    def degree(self) -> int:
        """Sum of multiplicities (degree of numerator minus denominator)."""
        return sum(m for _, m in self.factors)

    def order_at(self, p) -> int:
        """Vanishing order at p as a *function* (negative at poles)."""
        if is_inf(p):
            return -self.degree()
        for r, m in self.factors:
            if same_point(r, p):
                return m
        return 0

    def eval(self, p) -> complex:
        if is_inf(p):
            deg = self.degree()
            if deg < 0:
                return 0j
            if deg == 0:
                return self.scale
            raise PoleEvaluation(f"pole of order {deg} at infinity")
        if self.order_at(p) < 0:
            raise PoleEvaluation(f"pole at {p}")
        out = self.scale
        for r, m in self.factors:
            out *= (p - r) ** m
        return out

    # -- algebra --------------------------------------------------------------

    def __mul__(self, other: "FactoredRational") -> "FactoredRational":
        return FactoredRational(self.scale * other.scale,
                                self.factors + other.factors)

    def scaled(self, k) -> "FactoredRational":
        return FactoredRational(self.scale * k, self.factors)

    def inverse_chart(self) -> "FactoredRational":
        """The same function written in the chart w = 1/z.

        f(1/w) expands exactly: each factor (1/w - r) with r != 0 becomes
        (-r) * (w - 1/r) / w, and each (1/w - 0) contributes w^(-1).
        """
        scale = self.scale
        factors = []
        w_power = -self.degree()
        for r, m in self.factors:
            if r == 0:
                continue
            scale *= (-r) ** m
            factors.append((1.0 / r, m))
        if w_power:
            factors.append((0j, w_power))
        return FactoredRational(scale, factors)

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "scale": complex_to_json(self.scale),
            "factors": [[complex_to_json(r), m] for r, m in self.factors],
        }

    @classmethod
    def from_json(cls, obj) -> "FactoredRational":
        if not isinstance(obj, dict) or "scale" not in obj:
            raise InputError(f"expected rational-function object, got {obj!r}")
        factors = []
        for item in obj.get("factors", []):
            if not (isinstance(item, (list, tuple)) and len(item) == 2):
                raise InputError(f"bad factor entry {item!r}")
            factors.append((complex_from_json(item[0]),
                            json_int(item[1], "factor multiplicity")))
        return cls(complex_from_json(obj["scale"]), factors)


@dataclass(frozen=True)
class RationalDifferential:
    """A differential f(z) dz with f a FactoredRational."""

    f: FactoredRational

    def order_at(self, p) -> int:
        if is_inf(p):
            # the chart change dz = -dw/w^2 costs two orders at infinity
            return -self.f.degree() - 2
        return self.f.order_at(p)

    def divisor(self) -> tuple:
        """All zeros and poles as ((point, order), ...); orders sum to -2."""
        entries = [(r, m) for r, m in self.f.factors]
        o_inf = self.order_at(INF)
        if o_inf != 0:
            entries.append((INF, o_inf))
        return tuple(entries)

    def residue(self, p) -> complex:
        if is_inf(p):
            return self._residue_at_infinity()
        return _series_residue(self.f, p)

    def _residue_at_infinity(self) -> complex:
        value = -sum((_series_residue(self.f, r)
                      for r, m in self.f.factors if m < 0), 0j)
        # cross-check in the w = 1/z chart, where the residue sits at w = 0
        g = self.f.inverse_chart().scaled(-1)
        g = FactoredRational(g.scale, g.factors + ((0j, -2),))
        check = _series_residue(g, 0j)
        if abs(check - value) > 1e-10 * (1.0 + abs(value)):
            raise Mismatch(
                f"residue at infinity disagrees between charts: "
                f"{value} vs {check}")
        return value

    def to_json(self) -> dict:
        return self.f.to_json()

    @classmethod
    def from_json(cls, obj) -> "RationalDifferential":
        return cls(FactoredRational.from_json(obj))


def _series_residue(f: FactoredRational, p: complex) -> complex:
    """Residue of f dz at a finite point p, exactly from the factors.

    At a pole of order m, f = t^-m * scale * prod (t + p - r)^k with
    t = z - p, so the residue is the t^(m-1) coefficient of the product.
    Each factor expands as a binomial series, (t + d)^k = sum c_j t^j with
    c_0 = d^k and c_j = c_(j-1) (k - j + 1) / (j d), and the series are
    convolved up to degree m - 1.
    """
    m = -f.order_at(p)
    if m <= 0:
        return 0j
    coeffs = [f.scale] + [0j] * (m - 1)
    for r, k in f.factors:
        if same_point(r, p):
            continue
        d = p - r
        if abs(d) <= 20.0 * ROOT_MERGE_TOL * (1.0 + abs(p)):
            raise NoIsolation(f"pole {p} not isolated from root {r}")
        series = [d ** k]
        for j in range(1, m):
            series.append(series[-1] * (k - j + 1) / (j * d))
        coeffs = [sum(coeffs[i] * series[n - i] for i in range(n + 1))
                  for n in range(m)]
    return coeffs[-1]
