"""Spectral data on a reducible rational curve, with static validators.

A configuration consists of rational components (CP^1 copies) glued at
ordinary multiple points, an exponential/pole ansatz per component, point
normalizations, distinguished evaluation points Q, essential-singularity
markers P, a meromorphic differential per component, and optionally a
holomorphic involution given component-wise by Moebius maps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import (CountMismatch, DivisorMismatch, InputError, Mismatch,
                     NonPositive, NotInvolution, PNotFixed)
from .numerics import (INF, FactoredRational, RationalDifferential,
                       complex_from_json, complex_to_json, is_inf, json_int,
                       point_from_json, point_to_json, require_finite,
                       same_point)


@dataclass(frozen=True)
class CurvePoint:
    component: int
    point: object  # complex or INF

    def to_json(self) -> dict:
        return {"component": self.component, "point": point_to_json(self.point)}

    @classmethod
    def from_json(cls, obj) -> "CurvePoint":
        if not isinstance(obj, dict) or "component" not in obj or "point" not in obj:
            raise InputError(f"expected curve-point object, got {obj!r}")
        return cls(json_int(obj["component"], "component"),
                   point_from_json(obj["point"]))


def same_curve_point(p: CurvePoint, q: CurvePoint, tol=None) -> bool:
    if p.component != q.component:
        return False
    if tol is None:
        return same_point(p.point, q.point)
    if is_inf(p.point) or is_inf(q.point):
        return is_inf(p.point) and is_inf(q.point)
    return abs(p.point - q.point) <= tol * (1.0 + abs(p.point))


@dataclass(frozen=True)
class EssentialTerm:
    """One factor exp(u^var * phase(z)) of the wave function."""

    var: int  # 1-based coordinate index
    phase: FactoredRational

    def __post_init__(self):
        if self.var < 1:
            raise InputError(f"var must be >= 1, got {self.var}")
        if not self.phase.factors:
            raise InputError("phase must be non-constant")


@dataclass(frozen=True)
class ComponentAnsatz:
    essential: tuple = ()
    poles: tuple = ()

    def __init__(self, essential=(), poles=()):
        essential = tuple(essential)
        poles = tuple(require_finite(p, "ansatz pole") for p in poles)
        for i, p in enumerate(poles):
            for q in poles[i + 1:]:
                if same_point(p, q):
                    raise InputError(f"ansatz poles coincide at {p}")
            for term in essential:
                if term.phase.order_at(p) < 0:
                    raise InputError(
                        f"ansatz pole {p} collides with a phase pole")
        object.__setattr__(self, "essential", essential)
        object.__setattr__(self, "poles", poles)


@dataclass(frozen=True)
class Gluing:
    points: tuple

    def __init__(self, points):
        points = tuple(points)
        if len(points) < 2:
            raise InputError("a gluing needs at least two branches")
        for i, p in enumerate(points):
            for q in points[i + 1:]:
                if same_curve_point(p, q):
                    raise InputError(f"gluing lists the same branch twice: {p}")
        object.__setattr__(self, "points", points)


@dataclass(frozen=True)
class Normalization:
    point: CurvePoint
    value: complex


@dataclass(frozen=True)
class InvolutionSpec:
    """Involution acting component-wise: z on component i maps to
    (a z + b)/(c z + d) on component component_perm[i]."""

    component_perm: tuple
    moebius: tuple  # of (a, b, c, d)

    def __init__(self, component_perm, moebius):
        component_perm = tuple(int(k) for k in component_perm)
        s = len(component_perm)
        if sorted(component_perm) != list(range(s)):
            raise InputError(f"not a permutation: {component_perm}")
        moebius = tuple(tuple(require_finite(c) for c in row) for row in moebius)
        if len(moebius) != s:
            raise InputError("need one Moebius map per component")
        for a, b, c, d in moebius:
            if abs(a * d - b * c) <= 1e-14:
                raise InputError("degenerate Moebius map (ad - bc = 0)")
        object.__setattr__(self, "component_perm", component_perm)
        object.__setattr__(self, "moebius", moebius)
        self._check_involutive()

    def apply(self, cp: CurvePoint) -> CurvePoint:
        a, b, c, d = self.moebius[cp.component]
        target = self.component_perm[cp.component]
        z = cp.point
        if is_inf(z):
            image = INF if c == 0 else a / c
        else:
            den = c * z + d
            if abs(den) <= 1e-14 * (1.0 + abs(z)):
                image = INF
            else:
                image = (a * z + b) / den
        return CurvePoint(target, image)

    def _check_involutive(self, tol: float = 1e-10):
        rng = random.Random(20240817)
        for comp in range(len(self.component_perm)):
            if self.component_perm[self.component_perm[comp]] != comp:
                raise NotInvolution("component permutation does not square to id")
            for _ in range(20):
                z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                cp = CurvePoint(comp, z)
                back = self.apply(self.apply(cp))
                if back.component != comp or is_inf(back.point) \
                        or abs(back.point - z) > tol * (1.0 + abs(z)):
                    raise NotInvolution(
                        f"map does not square to identity on component {comp}")

    def to_json(self) -> dict:
        return {
            "perm": list(self.component_perm),
            "moebius": [[complex_to_json(c) for c in row] for row in self.moebius],
        }

    @classmethod
    def from_json(cls, obj) -> "InvolutionSpec":
        if not isinstance(obj, dict) or "perm" not in obj or "moebius" not in obj:
            raise InputError(f"expected involution object, got {obj!r}")
        moebius = [tuple(complex_from_json(c) for c in row)
                   for row in obj["moebius"]]
        return cls([json_int(k, "perm entry") for k in obj["perm"]], moebius)


@dataclass(frozen=True)
class SpectralData:
    n: int
    ansatz: tuple  # of ComponentAnsatz
    gluings: tuple  # of Gluing
    normalizations: tuple  # of Normalization
    Q: tuple  # of CurvePoint, length n
    P_markers: tuple  # of CurvePoint, length n
    omega: tuple  # of RationalDifferential, one per component
    sigma: object = None  # InvolutionSpec or None

    def __post_init__(self):
        object.__setattr__(self, "ansatz", tuple(self.ansatz))
        object.__setattr__(self, "gluings", tuple(self.gluings))
        object.__setattr__(self, "normalizations", tuple(self.normalizations))
        object.__setattr__(self, "Q", tuple(self.Q))
        object.__setattr__(self, "P_markers", tuple(self.P_markers))
        object.__setattr__(self, "omega", tuple(self.omega))
        self._validate_structure()

    @property
    def components(self) -> int:
        return len(self.ansatz)

    def _check_component(self, cp: CurvePoint, what: str):
        if not (0 <= cp.component < self.components):
            raise InputError(f"{what} references component {cp.component} "
                             f"of {self.components}")

    def _validate_structure(self):
        if self.n < 1:
            raise InputError("need n >= 1")
        if len(self.Q) != self.n:
            raise InputError(f"need exactly n={self.n} Q points, got {len(self.Q)}")
        if len(self.P_markers) != self.n:
            raise InputError(f"need exactly n={self.n} P markers")
        if len(self.omega) not in (0, self.components):
            raise InputError("need one differential per component (or none)")

        seen_vars = set()
        for comp in self.ansatz:
            for term in comp.essential:
                if term.var > self.n:
                    raise InputError(f"essential term var {term.var} exceeds n")
                seen_vars.add(term.var)
        if seen_vars != set(range(1, self.n + 1)):
            missing = sorted(set(range(1, self.n + 1)) - seen_vars)
            raise InputError(f"variables without essential term: {missing}")

        if not any(abs(nm.value) > 0 for nm in self.normalizations):
            raise InputError("all normalization values vanish")

        for g in self.gluings:
            for cp in g.points:
                self._check_component(cp, "gluing")
                self._require_regular(cp, "gluing point")
        for nm in self.normalizations:
            self._check_component(nm.point, "normalization")
            self._require_regular(nm.point, "normalization point")
        for cp in self.Q:
            self._check_component(cp, "Q")
            self._require_regular(cp, "Q point")
        for i, cp in enumerate(self.P_markers):
            self._check_component(cp, "P")
            terms = [t for t in self.ansatz[cp.component].essential
                     if t.var == i + 1 and t.phase.order_at(cp.point) < 0]
            if not terms:
                raise InputError(
                    f"P marker {i + 1} is not a pole of the matching phase")
        if self.sigma is not None \
                and len(self.sigma.component_perm) != self.components:
            raise InputError("involution covers a different component count")

    def _require_regular(self, cp: CurvePoint, what: str):
        """Point must avoid phase poles and ansatz poles of its component."""
        comp = self.ansatz[cp.component]
        for term in comp.essential:
            if term.phase.order_at(cp.point) < 0:
                raise InputError(f"{what} {cp} sits on a phase pole")
        if not is_inf(cp.point):
            for pole in comp.poles:
                if same_point(pole, cp.point):
                    raise InputError(f"{what} {cp} coincides with an ansatz pole")

    def glued_points(self) -> list:
        return [cp for g in self.gluings for cp in g.points]

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        out = {
            "n": self.n,
            "components": self.components,
            "ansatz": [
                {
                    "essential": [
                        {"var": t.var, "phase": t.phase.to_json()}
                        for t in comp.essential
                    ],
                    "poles": [complex_to_json(p) for p in comp.poles],
                }
                for comp in self.ansatz
            ],
            "gluings": [[cp.to_json() for cp in g.points] for g in self.gluings],
            "normalizations": [
                {"component": nm.point.component,
                 "point": point_to_json(nm.point.point),
                 "value": complex_to_json(nm.value)}
                for nm in self.normalizations
            ],
            "Q": [cp.to_json() for cp in self.Q],
            "P": [cp.to_json() for cp in self.P_markers],
            "omega": [w.to_json() for w in self.omega],
        }
        if self.sigma is not None:
            out["sigma"] = self.sigma.to_json()
        return out

    @classmethod
    def from_json(cls, obj) -> "SpectralData":
        if not isinstance(obj, dict):
            raise InputError("configuration must be a JSON object")
        for key in ("n", "ansatz", "gluings", "normalizations", "Q", "P"):
            if key not in obj:
                raise InputError(f"configuration missing field {key!r}")
        try:
            ansatz = []
            for comp in obj["ansatz"]:
                if not isinstance(comp, dict):
                    raise InputError(f"expected component ansatz, got {comp!r}")
                ansatz.append(ComponentAnsatz(
                    essential=[EssentialTerm(json_int(t["var"], "var"),
                                             FactoredRational.from_json(t["phase"]))
                               for t in comp.get("essential", [])],
                    poles=[complex_from_json(p) for p in comp.get("poles", [])],
                ))
            gluings = tuple(Gluing([CurvePoint.from_json(p) for p in g])
                            for g in obj["gluings"])
            normalizations = tuple(
                Normalization(CurvePoint.from_json(nm),
                              complex_from_json(nm["value"]))
                for nm in obj["normalizations"])
            Q = tuple(CurvePoint.from_json(p) for p in obj["Q"])
            P = tuple(CurvePoint.from_json(p) for p in obj["P"])
            omega = tuple(RationalDifferential.from_json(w)
                          for w in obj.get("omega", []))
            sigma = None
            if obj.get("sigma") is not None:
                sigma = InvolutionSpec.from_json(obj["sigma"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed configuration: {exc}") from exc
        data = cls(n=json_int(obj["n"], "n"), ansatz=ansatz, gluings=gluings,
                   normalizations=normalizations, Q=Q, P_markers=P,
                   omega=omega, sigma=sigma)
        if "components" in obj \
                and json_int(obj["components"], "components") != data.components:
            raise InputError("declared component count disagrees with ansatz")
        return data


# ---------------------------------------------------------------------------
# validators
# ---------------------------------------------------------------------------

@dataclass
class CountingReport:
    unknowns: int
    equations: int
    genus: int
    genus_nodal_sum: int
    deg_D: int
    warnings: list = field(default_factory=list)


def validate_counting(data: SpectralData) -> CountingReport:
    """Square-system count: unknowns vs gluing + normalization equations."""
    unknowns = sum(1 + len(comp.poles) for comp in data.ansatz)
    equations = sum(len(g.points) - 1 for g in data.gluings)
    equations += len(data.normalizations)
    if unknowns != equations:
        raise CountMismatch(
            f"{unknowns} unknowns vs {equations} equations")
    genus = arithmetic_genus(data)
    nodal = sum(len(g.points) - 1 for g in data.gluings)
    deg_D = sum(len(comp.poles) for comp in data.ansatz)
    report = CountingReport(unknowns=unknowns, equations=equations,
                            genus=genus, genus_nodal_sum=nodal, deg_D=deg_D)
    ell = len(data.normalizations)
    if deg_D != genus + ell - 1:
        report.warnings.append(
            f"deg D = {deg_D} differs from genus + #normalizations - 1 "
            f"= {genus + ell - 1}")
    points = [nm.point for nm in data.normalizations]
    for i, p in enumerate(points):
        if any(same_curve_point(p, q) for q in points[:i]):
            report.warnings.append(f"duplicate normalization point {p}")
    return report


@dataclass
class RegularityReport:
    sums: list
    tol: float

    @property
    def max_abs(self) -> float:
        return max((abs(s) for s in self.sums), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_abs <= self.tol


def check_regular(data: SpectralData, tol: float = 1e-10) -> RegularityReport:
    """Residue sums of the differential over the branches of each gluing."""
    if len(data.omega) != data.components:
        raise InputError("differentials missing; cannot check regularity")
    sums = []
    for g in data.gluings:
        total = 0j
        for cp in g.points:
            total += data.omega[cp.component].residue(cp.point)
        sums.append(total)
    return RegularityReport(sums=sums, tol=tol)


def check_Q_residues(data: SpectralData, tol: float = 1e-10) -> float:
    """Common residue of the differential at the Q points (must be > 0)."""
    if len(data.omega) != data.components:
        raise InputError("differentials missing; cannot check Q residues")
    values = [data.omega[cp.component].residue(cp.point) for cp in data.Q]
    first = values[0]
    for k, v in enumerate(values[1:], start=2):
        if abs(v - first) > tol * (1.0 + abs(first)):
            raise Mismatch(
                f"residue at Q_1 is {first}, at Q_{k} is {v}")
    if abs(first.imag) > tol * (1.0 + abs(first)):
        raise NonPositive(f"common Q residue {first} is not real")
    if first.real <= 0:
        raise NonPositive(f"common Q residue {first.real} is not positive")
    return first.real


def _multiset_take(pool: list, cp: CurvePoint, tol: float) -> bool:
    for k, q in enumerate(pool):
        if same_curve_point(cp, q, tol):
            pool.pop(k)
            return True
    return False


def _match_divisor(actual: list, expected: list, tol: float, what: str):
    pool = list(actual)
    for cp in expected:
        if not _multiset_take(pool, cp, tol):
            raise DivisorMismatch(
                f"{what}: expected point {cp} not found in divisor")
    if pool:
        raise DivisorMismatch(f"{what}: unmatched divisor points {pool}")


def check_involution(data: SpectralData, tol: float = 1e-10) -> dict:
    """All involution conditions: squares to id, fixes P, preserves Q,
    and matches the zero/pole divisors of the differential.

    Points lying on gluings are exchanged between branches by the curve
    structure, so they are excluded from the divisor comparison on both
    sides (the gallery entries keep them away from D, R, P, Q anyway).
    """
    if data.sigma is None:
        raise InputError("no involution declared")
    sigma = data.sigma
    sigma._check_involutive(tol=max(tol, 1e-10))

    for i, cp in enumerate(data.P_markers):
        image = sigma.apply(cp)
        if not same_curve_point(image, cp, tol):
            raise PNotFixed(f"P marker {i + 1} maps to {image}")

    for cp in data.Q:
        image = sigma.apply(cp)
        if not any(same_curve_point(image, q, tol) for q in data.Q):
            raise DivisorMismatch(f"Q point {cp} maps outside Q: {image}")

    if len(data.omega) != data.components:
        raise InputError("differentials missing; cannot check divisors")

    glued = data.glued_points()

    def not_glued(cp: CurvePoint) -> bool:
        return not any(same_curve_point(cp, g, tol) for g in glued)

    zeros, poles = [], []
    for comp, w in enumerate(data.omega):
        for point, order in w.divisor():
            cp = CurvePoint(comp, point)
            if not not_glued(cp):
                continue
            target = zeros if order > 0 else poles
            target.extend([cp] * abs(order))

    D = [CurvePoint(ci, p)
         for ci, comp in enumerate(data.ansatz) for p in comp.poles]
    R = [nm.point for nm in data.normalizations]
    expected_zeros = [cp for cp in D + [sigma.apply(cp) for cp in D]
                      + list(data.P_markers) if not_glued(cp)]
    expected_poles = [cp for cp in R + [sigma.apply(cp) for cp in R]
                      + list(data.Q) if not_glued(cp)]
    _match_divisor(zeros, expected_zeros, tol, "zero divisor")
    _match_divisor(poles, expected_poles, tol, "pole divisor")
    return {
        "zeros_matched": len(expected_zeros),
        "poles_matched": len(expected_poles),
    }


def arithmetic_genus(data: SpectralData) -> int:
    """delta - #components + #connected pieces, via union-find on gluings."""
    parent = list(range(data.components))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    delta = 0
    for g in data.gluings:
        delta += len(g.points) - 1
        root = find(g.points[0].component)
        for cp in g.points[1:]:
            parent[find(cp.component)] = root
    pieces = len({find(k) for k in range(data.components)})
    return delta - data.components + pieces
