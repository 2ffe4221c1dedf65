"""Built-in spectral-data configurations with reference maps and identities.

Each entry bundles the curve data, an optional closed-form coordinate map
used as a cross-check, and named identity residuals (circle/ray/sphere/
plane/cone) that the engine output must satisfy.

Sign conventions: where the source material leaves an overall sign of a
differential ambiguous, the stored version is the one that makes the
gluing residue sums vanish and the distinguished residues positive; each
builder notes its choice.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .curve import (ComponentAnsatz, CurvePoint, EssentialTerm, Gluing,
                    InvolutionSpec, Normalization, SpectralData)
from .errors import DegenerateParameters, InputError
from .numerics import INF, FactoredRational, RationalDifferential

_NEG = (-1.0 + 0j, 0j, 0j, 1.0 + 0j)  # Moebius z -> -z


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    data: SpectralData
    reference: object = None  # callable us (m, n) -> (m, n) real, or None
    identities: tuple = ()  # of (name, callable(u, x) -> float)


def _phase_z() -> FactoredRational:
    return FactoredRational(1.0, [(0j, 1)])


def _phase_inv_z() -> FactoredRational:
    return FactoredRational(1.0, [(0j, -1)])


def _diff(scale, factors) -> RationalDifferential:
    return RationalDifferential(FactoredRational(scale, factors))


def _pole_diff_unit(q) -> RationalDifferential:
    """-dz/(z(z-q)(z+q)), whose residue at 0 is 1/q^2 (q = 1 or q = i here)."""
    return _diff(-1.0, [(0j, -1), (q, -1), (-q, -1)])


# ---------------------------------------------------------------------------
# Euclidean coordinates: n disjoint components, x^j = e^{u^j}
# ---------------------------------------------------------------------------

def euclidean(n: int) -> GalleryEntry:
    if n < 1:
        raise DegenerateParameters("need n >= 1")
    ansatz = tuple(ComponentAnsatz(essential=[EssentialTerm(j + 1, _phase_z())])
                   for j in range(n))
    data = SpectralData(
        n=n,
        ansatz=ansatz,
        gluings=(),
        normalizations=tuple(
            Normalization(CurvePoint(j, -1.0 + 0j), 1.0 + 0j) for j in range(n)),
        Q=tuple(CurvePoint(j, 0j) for j in range(n)),
        P_markers=tuple(CurvePoint(j, INF) for j in range(n)),
        omega=tuple(_pole_diff_unit(1.0 + 0j) for _ in range(n)),
        sigma=InvolutionSpec(range(n), [_NEG] * n),
    )

    def reference(us):
        return np.exp(np.asarray(us, dtype=float))

    return GalleryEntry(name=f"euclidean{n}", data=data, reference=reference)


# ---------------------------------------------------------------------------
# Two components glued at two points; coordinate lines include circles
# ---------------------------------------------------------------------------

def example1(b: float = 1.0, c: float = 2.0) -> GalleryEntry:
    b = complex(b)
    c = complex(c)
    if abs(b) < 1e-12 or abs(c) < 1e-12:
        raise DegenerateParameters("b and c must be nonzero")
    disc = 2.0 - (b / c) ** 2
    if abs(disc) < 1e-12:
        raise DegenerateParameters("b^2 = 2c^2 collapses the normalization point")
    # constraint solving res_a(Omega_1) + res_b(Omega_2) = 0 together with
    # a = b r / c; the companion relation r^2 (2 - b^2/c^2) = b^2
    r = b / cmath.sqrt(disc)
    a = b * r / c
    for bad in (abs(b - c), abs(b + c), abs(b * b - r * r), abs(b - r), abs(b + r)):
        if bad < 1e-12:
            raise DegenerateParameters("coincident spectral points")

    ansatz = (
        ComponentAnsatz(essential=[EssentialTerm(1, _phase_z())]),
        ComponentAnsatz(essential=[EssentialTerm(2, _phase_z())], poles=[c]),
    )
    omega = (
        _diff(-1.0, [(0j, -1), (a, -1), (-a, -1)]),
        _diff(-1.0, [(c, 1), (-c, 1),
                     (0j, -1), (b, -1), (-b, -1), (r, -1), (-r, -1)]),
    )
    data = SpectralData(
        n=2,
        ansatz=ansatz,
        gluings=(
            Gluing([CurvePoint(0, a), CurvePoint(1, b)]),
            Gluing([CurvePoint(0, -a), CurvePoint(1, -b)]),
        ),
        normalizations=(Normalization(CurvePoint(1, r), 1.0 + 0j),),
        Q=(CurvePoint(0, 0j), CurvePoint(1, 0j)),
        P_markers=(CurvePoint(0, INF), CurvePoint(1, INF)),
        omega=omega,
        sigma=InvolutionSpec((0, 1), [_NEG, _NEG]),
    )

    amp1 = 2 * b * (c - r) / ((c - b) * (b + r))
    amp2 = b * (c - r) / (c * (b + r))
    kappa = (b + c) * (b - r) / ((c - b) * (b + r))
    mu = (b + c) / (c - b)

    def reference(us):
        us = np.asarray(us, dtype=float)
        s = np.exp(2 * b * us[:, 1] - 2 * a * us[:, 0])
        t = np.exp(-r * us[:, 1])
        root = np.exp(b * us[:, 1] - a * us[:, 0])
        den = 1.0 + kappa * s
        x1 = amp1 * t * root / den
        x2 = amp2 * t * (1.0 + mu * s) / den
        return np.stack([x1, x2], axis=1)

    center_coef = b * b * (c - r) / (c * (b * b - r * r))
    radius_coef = b * r * (c - r) / (c * (b * b - r * r))

    def circle(u, x):
        """Coordinate line u^2 = const is a circle with known center/radius."""
        t = cmath.exp(-r * u[1])
        m = t * center_coef
        rad2 = (t * radius_coef) ** 2
        return abs(x[0] ** 2 + (x[1] - m) ** 2 - rad2)

    return GalleryEntry(name="example1", data=data, reference=reference,
                        identities=(("circle", circle),))


# ---------------------------------------------------------------------------
# One component with two essential terms: rays and concentric circles
# ---------------------------------------------------------------------------

def example2() -> GalleryEntry:
    a = 0.5j
    r = 0.5 + 0j
    b = 1j
    c = -1.0 + 0j
    ansatz = (
        ComponentAnsatz(essential=[EssentialTerm(1, _phase_z()),
                                   EssentialTerm(2, _phase_inv_z())]),
        ComponentAnsatz(poles=[c]),
    )
    omega = (
        # sign fixed by the residue gates (the positive-residue convention)
        _diff(-1.0, [(0j, 1), (a, -1), (-a, -1), (r, -1), (-r, -1)]),
        _diff(-1.0, [(c, 1), (-c, 1), (0j, -1), (b, -1), (-b, -1)]),
    )
    data = SpectralData(
        n=2,
        ansatz=ansatz,
        gluings=(
            Gluing([CurvePoint(0, a), CurvePoint(1, b)]),
            Gluing([CurvePoint(0, -a), CurvePoint(1, -b)]),
        ),
        normalizations=(Normalization(CurvePoint(0, r), 1.0 + 0j),),
        Q=(CurvePoint(1, INF), CurvePoint(1, 0j)),
        P_markers=(CurvePoint(0, INF), CurvePoint(0, 0j)),
        omega=omega,
        sigma=InvolutionSpec((0, 1), [_NEG, _NEG]),
    )

    def reference(us):
        us = np.asarray(us, dtype=float)
        theta = 0.5 * us[:, 0] - 2.0 * us[:, 1]
        amp = np.exp(-0.5 * us[:, 0] - 2.0 * us[:, 1])
        return np.stack([amp * (np.cos(theta) + np.sin(theta)),
                         amp * (np.cos(theta) - np.sin(theta))], axis=1)

    def ray(u, x):
        theta = 0.5 * u[0] - 2.0 * u[1]
        return abs(x[1] * (math.cos(theta) + math.sin(theta))
                   - x[0] * (math.cos(theta) - math.sin(theta)))

    def circle(u, x):
        return abs(x[0] ** 2 + x[1] ** 2 - 2.0 * math.exp(-u[0] - 4.0 * u[1]))

    return GalleryEntry(name="example2", data=data, reference=reference,
                        identities=(("ray", ray), ("circle", circle)))


# ---------------------------------------------------------------------------
# Three components: coordinate surfaces are spheres, planes, and cones
# ---------------------------------------------------------------------------

def example3() -> GalleryEntry:
    a = 1j / math.sqrt(12.0)
    b = 1j / math.sqrt(3.0)
    c = 1j
    d = 1j
    beta = b * c  # -1/sqrt(3)
    gamma = -1.0 + 0j
    r = 0.5 + 0j
    ansatz = (
        ComponentAnsatz(essential=[EssentialTerm(1, _phase_z()),
                                   EssentialTerm(2, _phase_inv_z())]),
        ComponentAnsatz(essential=[EssentialTerm(3, _phase_z())], poles=[beta]),
        ComponentAnsatz(poles=[gamma]),
    )
    omega = (
        _diff(-1.0, [(0j, 1), (a, -1), (-a, -1), (r, -1), (-r, -1)]),
        _diff(-1.0, [(beta, 1), (-beta, 1),
                     (0j, -1), (b, -1), (-b, -1), (c, -1), (-c, -1)]),
        _diff(-1.0, [(gamma, 1), (-gamma, 1), (0j, -1), (d, -1), (-d, -1)]),
    )
    data = SpectralData(
        n=3,
        ansatz=ansatz,
        gluings=(
            Gluing([CurvePoint(0, a), CurvePoint(1, b)]),
            Gluing([CurvePoint(0, -a), CurvePoint(1, -b)]),
            Gluing([CurvePoint(1, c), CurvePoint(2, d)]),
            Gluing([CurvePoint(1, -c), CurvePoint(2, -d)]),
        ),
        normalizations=(Normalization(CurvePoint(0, r), 1.0 + 0j),),
        Q=(CurvePoint(1, 0j), CurvePoint(2, INF), CurvePoint(2, 0j)),
        P_markers=(CurvePoint(0, INF), CurvePoint(0, 0j), CurvePoint(1, INF)),
        omega=omega,
        sigma=InvolutionSpec((0, 1, 2), [_NEG, _NEG, _NEG]),
    )

    s3 = math.sqrt(3.0)

    def reference(us):
        us = np.asarray(us, dtype=float)
        pre = math.sqrt(2.0) * np.exp(-0.5 * us[:, 0] - 2.0 * us[:, 1])
        t = us[:, 0] - 2.0 * (6.0 * us[:, 1] + us[:, 2])
        w = t / (2.0 * s3)
        x1 = pre * np.cos(math.pi / 4.0 + w)
        x2 = pre * (np.cos(w) * np.sin(math.pi / 4.0 + us[:, 2])
                    + np.sin(w) * np.cos(math.pi / 12.0 + us[:, 2]))
        x3 = pre * (np.cos(w) * np.cos(math.pi / 4.0 + us[:, 2])
                    - np.sin(w) * np.sin(math.pi / 12.0 + us[:, 2]))
        return np.stack([x1, x2, x3], axis=1)

    def sphere(u, x):
        return abs(x[0] ** 2 + x[1] ** 2 + x[2] ** 2
                   - 3.0 * math.exp(-u[0] - 4.0 * u[1]))

    def plane(u, x):
        cu, su = math.cos(u[2]), math.sin(u[2])
        return abs(x[0]
                   - ((1 - s3) / 2 * x[1] + (1 + s3) / 2 * x[2]) * cu
                   - ((1 + s3) / 2 * x[1] + (s3 - 1) / 2 * x[2]) * su)

    def cone(u, x):
        t = u[0] - 2.0 * (6.0 * u[1] + u[2])
        norm2 = x[0] ** 2 + x[1] ** 2 + x[2] ** 2
        return abs(2 * x[0] ** 2 - x[1] ** 2 - x[2] ** 2
                   + norm2 * math.sin(t / s3))

    return GalleryEntry(name="example3", data=data, reference=reference,
                        identities=(("sphere", sphere), ("plane", plane),
                                    ("cone", cone)))


# ---------------------------------------------------------------------------
# Polar / cylindrical / n-spherical family
# ---------------------------------------------------------------------------

_A = 1j
_B1 = 0.5j
_B2 = -0.5j
_C1 = (1j - 1.0) / 2.0
_C2 = (-1j - 1.0) / 2.0
_BETA1 = 1j
_BETA2 = -1j
_SHIFT_DOWN = (1.0 + 0j, -1j, 0j, 1.0 + 0j)  # z -> z - i
_SHIFT_UP = (1.0 + 0j, 1j, 0j, 1.0 + 0j)  # z -> z + i


def _radial_block_data(n: int, alpha: complex) -> SpectralData:
    """Shared constructor for polar (n=2) and n-spherical (n>=3) data.

    Component 0 carries the radial variable u^1. Each angular variable
    u^k (k >= 2) adds a block of four components: a phase carrier, two
    simple-pole carriers exchanged by the involution, and an end component
    holding the ansatz pole at alpha. Blocks chain at z = 0.
    """
    alpha = complex(alpha)
    if abs(alpha) < 1e-12:
        raise DegenerateParameters("alpha must be nonzero")
    d = -1j * alpha

    ansatz = [ComponentAnsatz(essential=[EssentialTerm(1, _phase_z())])]
    gluings = []
    norms = [Normalization(CurvePoint(0, -1.0 + 0j), 1.0 + 0j)]
    omega = [_pole_diff_unit(1.0 + 0j)]
    perm = [0]
    moebius = [_NEG]
    P = [CurvePoint(0, INF)]

    for k in range(2, n + 1):
        carrier = len(ansatz)  # phase component for u^k
        lower, upper, end = carrier + 1, carrier + 2, carrier + 3
        tail = 0 if k == 2 else carrier - 1  # previous end component
        ansatz.extend([
            ComponentAnsatz(essential=[EssentialTerm(k, _phase_z())]),
            ComponentAnsatz(poles=[0j]),
            ComponentAnsatz(poles=[0j]),
            ComponentAnsatz(poles=[alpha]),
        ])
        gluings.extend([
            Gluing([CurvePoint(tail, 0j), CurvePoint(carrier, 0j)]),
            Gluing([CurvePoint(carrier, _A), CurvePoint(lower, _B1)]),
            Gluing([CurvePoint(carrier, -_A), CurvePoint(upper, _B2)]),
            Gluing([CurvePoint(lower, _C1), CurvePoint(end, d)]),
            Gluing([CurvePoint(upper, _C2), CurvePoint(end, -d)]),
        ])
        norms.extend([Normalization(CurvePoint(lower, INF), 0j),
                      Normalization(CurvePoint(upper, INF), 0j)])
        omega.extend([
            _pole_diff_unit(_A),
            _diff(-1.0, [(0j, 1), (_BETA1, 1), (_B1, -1), (_C1, -1)]),
            _diff(-1.0, [(0j, 1), (_BETA2, 1), (_B2, -1), (_C2, -1)]),
            _diff(-1.0, [(alpha, 1), (-alpha, 1),
                         (0j, -1), (d, -1), (-d, -1)]),
        ])
        perm.extend([carrier, upper, lower, end])
        moebius.extend([_NEG, _SHIFT_DOWN, _SHIFT_UP, _NEG])
        P.append(CurvePoint(carrier, INF))

    last_end = len(ansatz) - 1
    if n == 2:
        Q = [CurvePoint(last_end, 0j), CurvePoint(last_end, INF)]
    else:
        ends = [1 + 4 * (k - 2) + 3 for k in range(2, n + 1)]
        Q = [CurvePoint(e, INF) for e in ends] + [CurvePoint(last_end, 0j)]

    return SpectralData(
        n=n,
        ansatz=tuple(ansatz),
        gluings=tuple(gluings),
        normalizations=tuple(norms),
        Q=tuple(Q),
        P_markers=tuple(P),
        omega=tuple(omega),
        sigma=InvolutionSpec(perm, moebius),
    )


def _spherical_reference(us: np.ndarray) -> np.ndarray:
    us = np.asarray(us, dtype=float)
    n = us.shape[1]
    radius = np.exp(us[:, 0])
    out = np.empty_like(us)
    running = radius.copy()
    for j in range(n - 1):
        out[:, j] = running * np.sin(us[:, j + 1])
        running = running * np.cos(us[:, j + 1])
    out[:, n - 1] = running
    return out


def polar(alpha=1.0) -> GalleryEntry:
    data = _radial_block_data(2, alpha)

    def reference(us):
        us = np.asarray(us, dtype=float)
        radius = np.exp(us[:, 0])
        return np.stack([radius * np.cos(us[:, 1]),
                         radius * np.sin(us[:, 1])], axis=1)

    return GalleryEntry(name="polar", data=data, reference=reference)


def cylindrical(alpha=1.0) -> GalleryEntry:
    base = _radial_block_data(2, alpha)
    extra = len(base.ansatz)
    data = SpectralData(
        n=3,
        ansatz=base.ansatz + (
            ComponentAnsatz(essential=[EssentialTerm(3, _phase_z())]),),
        gluings=base.gluings,
        normalizations=base.normalizations + (
            Normalization(CurvePoint(extra, -1.0 + 0j), 1.0 + 0j),),
        Q=base.Q + (CurvePoint(extra, 0j),),
        P_markers=base.P_markers + (CurvePoint(extra, INF),),
        omega=base.omega + (_pole_diff_unit(1.0 + 0j),),
        sigma=InvolutionSpec(base.sigma.component_perm + (extra,),
                             base.sigma.moebius + (_NEG,)),
    )

    def reference(us):
        us = np.asarray(us, dtype=float)
        radius = np.exp(us[:, 0])
        return np.stack([radius * np.cos(us[:, 1]),
                         radius * np.sin(us[:, 1]),
                         np.exp(us[:, 2])], axis=1)

    return GalleryEntry(name="cylindrical", data=data, reference=reference)


def spherical_n(n: int, alpha=1.0) -> GalleryEntry:
    if n < 3:
        raise DegenerateParameters("spherical family starts at n = 3")
    data = _radial_block_data(n, alpha)
    return GalleryEntry(name=f"spherical{n}", data=data,
                        reference=_spherical_reference)


def spherical3(alpha=1.0) -> GalleryEntry:
    return spherical_n(3, alpha)


BUILDERS = {
    "euclidean1": lambda: euclidean(1),
    "euclidean2": lambda: euclidean(2),
    "euclidean3": lambda: euclidean(3),
    "example1": example1,
    "example2": example2,
    "example3": example3,
    "polar": polar,
    "cylindrical": cylindrical,
    "spherical3": spherical3,
    "spherical4": lambda: spherical_n(4),
    "spherical5": lambda: spherical_n(5),
}


def build(name: str) -> GalleryEntry:
    if name not in BUILDERS:
        raise InputError(
            f"unknown gallery entry {name!r}; available: {', '.join(sorted(BUILDERS))}")
    return BUILDERS[name]()
