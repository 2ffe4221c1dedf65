import dataclasses
import json
import random

import numpy as np
import pytest

import spectral_coords.gallery as gallery
from spectral_coords.curve import (VALIDATOR_TOL, ComponentAnsatz, CurvePoint,
                                   EssentialTerm, Gluing, InvolutionSpec,
                                   Normalization, RegularityReport,
                                   SpectralData, arithmetic_genus,
                                   check_involution, check_Q_residues,
                                   check_regular, validate_counting)
from spectral_coords.errors import (CountMismatch, DivisorMismatch,
                                    InputError, Mismatch, NonPositive,
                                    NotInvolution, PNotFixed)
from spectral_coords.numerics import (INF, FactoredRational,
                                      RationalDifferential)


def perturb_omega(data, comp, delta):
    """Shift the first root of the differential on one component."""
    f = data.omega[comp].f
    roots = list(f.factors)
    r0, m0 = roots[0]
    roots[0] = (r0 + delta, m0)
    new = list(data.omega)
    new[comp] = RationalDifferential(FactoredRational(f.scale, roots))
    return dataclasses.replace(data, omega=tuple(new))


GENUS = {
    "euclidean2": 0,
    "example1": 1,
    "example2": 1,
    "example3": 2,
    "polar": 1,
    "cylindrical": 1,
    "spherical3": 2,
}


@pytest.mark.parametrize("name,genus", sorted(GENUS.items()))
def test_counting_and_genus_on_catalog(name, genus):
    data = gallery.build(name).data
    report = validate_counting(data)
    assert report.unknowns == report.equations
    assert report.genus == genus
    # the naive nodal count can only overshoot the connected formula
    assert report.genus_nodal_sum >= report.genus


@pytest.mark.parametrize("name", sorted(GENUS))
def test_regularity_and_q_residues_on_catalog(name):
    data = gallery.build(name).data
    report = check_regular(data)
    assert report.passed, f"{name}: residue sums {report.sums}"
    eta_sq = check_Q_residues(data)
    assert eta_sq > 0


@pytest.mark.parametrize("position", [0, -1])
def test_a_nan_residue_sum_fails_regularity_in_either_position(position):
    sums = [1e-18 + 0j, 2e-17j, -3e-18 + 0j]
    sums[position] = complex(float("nan"), float("nan"))
    report = RegularityReport(sums=sums, tol=VALIDATOR_TOL)
    assert np.isnan(report.max_abs)
    assert not report.passed


def test_example1_normalization_constant():
    data = gallery.build("example1").data
    assert check_Q_residues(data) == pytest.approx(7.0, rel=1e-12)


def test_counting_rejects_unbalanced_system():
    data = gallery.build("euclidean2").data
    dropped = dataclasses.replace(
        data, normalizations=data.normalizations[:1])
    with pytest.raises(CountMismatch):
        validate_counting(dropped)


def test_duplicate_normalization_points_warn():
    phase = FactoredRational(1.0, [(0.0, 1)])
    term = EssentialTerm(var=1, phase=phase)
    omega = RationalDifferential(
        FactoredRational(-1.0, [(0.0, -1), (1.0, -1), (-1.0, -1)]))
    data = SpectralData(
        n=1,
        ansatz=(ComponentAnsatz(essential=(term,), poles=(0.5,)),),
        gluings=(),
        normalizations=(Normalization(CurvePoint(0, -1.0), 1.0),
                        Normalization(CurvePoint(0, -1.0 + 1e-12), 2.0)),
        Q=(CurvePoint(0, 0.0),),
        P_markers=(CurvePoint(0, INF),),
        omega=(omega,),
    )
    report = validate_counting(data)
    assert any("duplicate" in w for w in report.warnings)


def test_regularity_detects_perturbed_root():
    data = gallery.build("example1").data
    bad = perturb_omega(data, 1, 1e-3)
    assert not check_regular(bad).passed


def test_q_residues_reject_unequal_values():
    # both Q points live on the second component, so perturb that one
    data = gallery.build("example2").data
    bad = perturb_omega(data, 1, 1e-3)
    with pytest.raises((Mismatch, NonPositive)):
        check_Q_residues(bad)


class TestInvolution:
    def test_polar_divisors_match(self):
        data = gallery.build("polar").data
        details = check_involution(data)
        assert details["zeros_matched"] > 0
        assert details["poles_matched"] > 0

    def test_perturbed_differential_breaks_match(self):
        data = gallery.build("polar").data
        bad = perturb_omega(data, 3, 1e-3)
        with pytest.raises(DivisorMismatch):
            check_involution(bad)

    def test_identity_involution_fails_divisor_conditions(self):
        # valid data, wrong sigma: z -> z fixes P and Q but misplaces
        # the divisor of the differential
        data = gallery.build("euclidean2").data
        ident = InvolutionSpec(component_perm=(0, 1),
                               moebius=((1, 0, 0, 1), (1, 0, 0, 1)))
        bad = dataclasses.replace(data, sigma=ident)
        with pytest.raises(DivisorMismatch):
            check_involution(bad)

    def test_component_swap_moves_p_markers(self):
        data = gallery.build("euclidean2").data
        swap = InvolutionSpec(component_perm=(1, 0),
                              moebius=((1, 0, 0, 1), (1, 0, 0, 1)))
        bad = dataclasses.replace(data, sigma=swap)
        with pytest.raises(PNotFixed):
            check_involution(bad)

    def test_non_involutive_moebius_rejected(self):
        with pytest.raises(NotInvolution):
            InvolutionSpec(component_perm=(0,), moebius=((2, 0, 0, 1),))

    def test_moebius_must_be_invertible(self):
        with pytest.raises(InputError):
            InvolutionSpec(component_perm=(0,), moebius=((1, 1, 1, 1),))

    @pytest.mark.parametrize("row", [
        (1e-7, 0, 0, -1e-7), (0, 1e-8, 1e-8, 0),
        (1.5e308 + 1.5e308j, 0, 0, -1.5e308 - 1.5e308j)])
    def test_scale_of_the_coefficients_does_not_matter(self, row):
        # z -> -z, z -> 1/z and z -> -z, whose coefficients' moduli
        # overflow a float
        InvolutionSpec(component_perm=(0,), moebius=(row,))

    def test_divisor_check_does_not_depend_on_the_scale(self):
        data = gallery.build("polar").data
        perm, maps = data.sigma.component_perm, data.sigma.moebius
        # the last scale puts every coefficient's modulus above the
        # largest float
        for scale in (1e-150, 1e300, 1.5e308 * (1 + 1j)):
            sigma = InvolutionSpec(perm, tuple(tuple(scale * x for x in row)
                                               for row in maps))
            assert check_involution(dataclasses.replace(data, sigma=sigma)) \
                == check_involution(data)

    @pytest.mark.parametrize("row", [(1e-8,) * 4, (0, 0, 0, 0)])
    def test_degenerate_maps_are_refused_at_any_scale(self, row):
        with pytest.raises(InputError,
                           match=r"degenerate Moebius map \(ad - bc = 0\)"):
            InvolutionSpec(component_perm=(0,), moebius=(row,))


def sampled_involution_check(perm, moebius) -> bool:
    """Sampled oracle for InvolutionSpec's exact check: on each component,
    20 seeded points z of the box [-2, 2]^2 go through the component's map
    and then its image's, and must come back within VALIDATOR_TOL (1 + |z|).
    """
    def moebius_map(row, z):  # None stands for the point at infinity
        a, b, c, d = row
        if z is None:
            return None if c == 0 else a / c
        den = c * z + d
        return None if abs(den) <= 1e-14 * (1.0 + abs(z)) else (a * z + b) / den

    rng = random.Random(20240817)
    for comp, image in enumerate(perm):
        if perm[image] != comp:
            return False
        for _ in range(20):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            back = moebius_map(moebius[image], moebius_map(moebius[comp], z))
            if back is None or abs(back - z) > VALIDATOR_TOL * (1.0 + abs(z)):
                return False
    return True


def involution_verdict(perm, moebius) -> str:
    try:
        InvolutionSpec(perm, moebius)
    except NotInvolution:
        return "not involution"
    except InputError:
        return "degenerate"
    return "accepted"


SIGMA_SOURCES = {name: (lambda name=name: gallery.build(name))
                 for name in gallery.BUILDERS}
SIGMA_SOURCES.update({f"spherical_n({n})": (lambda n=n: gallery.spherical_n(n))
                      for n in range(6, 11)})
PERTURBATIONS = (1e-14, 1e-12, 5e-12, 1e-11, 2e-11, 3e-11, 5e-11, 1e-10,
                 2e-10, 3e-10, 1e-9, 1e-8, 1e-6, 1e-3)
# perturbations the sampled check accepts and the exact check refuses: its
# bound is TOL/4, so that it is never looser than the samples anywhere
TIGHTENED = {5e-12, 1e-11, 2e-11, 3e-11, 5e-11}


@pytest.mark.parametrize("name", sorted(SIGMA_SOURCES))
def test_exact_involution_check_is_never_looser_than_sampling(name):
    sigma = SIGMA_SOURCES[name]().data.sigma
    perm, maps = sigma.component_perm, sigma.moebius
    # perturb one map: one that swaps two components if there is one
    comp = next((c for c, t in enumerate(perm) if t != c), 0)
    cases = [(0.0, maps)]
    for entry in range(4):
        x = maps[comp][entry]
        for w in (1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j, 1, -1):
            for delta in PERTURBATIONS:
                row = list(maps[comp])
                row[entry] = x + delta * (1.0 + abs(x)) * w
                cases.append((delta, maps[:comp] + (tuple(row),)
                              + maps[comp + 1:]))
    tightened = set()
    for delta, case in cases:
        sampled = sampled_involution_check(perm, case)
        verdict = involution_verdict(perm, case)
        assert verdict != "accepted" or sampled, (delta, case)
        if sampled and verdict != "accepted":
            tightened.add(delta)
        for scale in (1e150, 1e300, 1e-150):
            # the same maps, so the same verdict, at 1e-150 too
            scaled = tuple(tuple(scale * x for x in row) for row in case)
            assert involution_verdict(perm, scaled) == verdict, (scale, case)
    assert sampled_involution_check(perm, maps)
    assert involution_verdict(perm, maps) == "accepted"
    assert tightened <= TIGHTENED


def test_arithmetic_genus_examples():
    # one gluing of two branches across two components: a tree, genus 0
    phase = FactoredRational(1.0, [(0.0, 1)])
    omega0 = RationalDifferential(
        FactoredRational(-1.0, [(0.0, -1), (1.0, -1), (-1.0, -1)]))
    data = SpectralData(
        n=1,
        ansatz=(ComponentAnsatz(essential=(EssentialTerm(1, phase),)),
                ComponentAnsatz()),
        gluings=(Gluing((CurvePoint(0, 2.0), CurvePoint(1, 0.0))),),
        normalizations=(Normalization(CurvePoint(0, -1.0), 1.0),
                        Normalization(CurvePoint(1, 1.0), 1.0)),
        Q=(CurvePoint(0, 0.0),),
        P_markers=(CurvePoint(0, INF),),
        omega=(),
    )
    assert arithmetic_genus(data) == 0
    # polar: five double points over five components, connected
    assert arithmetic_genus(gallery.build("polar").data) == 1


def test_gluing_needs_two_distinct_branches():
    with pytest.raises(InputError):
        Gluing((CurvePoint(0, 1.0),))
    with pytest.raises(InputError):
        Gluing((CurvePoint(0, 1.0), CurvePoint(0, 1.0 + 1e-12)))


def test_structure_requires_all_variables():
    phase = FactoredRational(1.0, [(0.0, 1)])
    with pytest.raises(InputError):
        SpectralData(
            n=2,
            ansatz=(ComponentAnsatz(essential=(EssentialTerm(1, phase),)),),
            gluings=(),
            normalizations=(Normalization(CurvePoint(0, 1.0), 1.0),),
            Q=(CurvePoint(0, 2.0), CurvePoint(0, 3.0)),
            P_markers=(CurvePoint(0, INF), CurvePoint(0, INF)),
            omega=(),
        )


def test_p_marker_must_sit_on_phase_pole():
    phase = FactoredRational(1.0, [(0.0, 1)])  # pole only at infinity
    with pytest.raises(InputError):
        SpectralData(
            n=1,
            ansatz=(ComponentAnsatz(essential=(EssentialTerm(1, phase),)),),
            gluings=(),
            normalizations=(Normalization(CurvePoint(0, 1.0), 1.0),),
            Q=(CurvePoint(0, 2.0),),
            P_markers=(CurvePoint(0, 3.0),),
            omega=(),
        )


@pytest.mark.parametrize("name", sorted(GENUS))
def test_json_round_trip_is_exact(name):
    data = gallery.build(name).data
    blob = json.dumps(data.to_json(), sort_keys=True)
    again = SpectralData.from_json(json.loads(blob))
    assert json.dumps(again.to_json(), sort_keys=True) == blob
