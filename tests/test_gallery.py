import numpy as np
import pytest

import spectral_coords.gallery as gallery
from spectral_coords.baker import Solver
from spectral_coords.curve import validate_counting
from spectral_coords.errors import DegenerateParameters, InputError

rng = np.random.default_rng(20240815)


def test_build_accepts_every_listed_name():
    for name in gallery.BUILDERS:
        entry = gallery.build(name)
        assert entry.name == name
        assert entry.reference is not None


def test_build_rejects_unknown_name():
    with pytest.raises(InputError):
        gallery.build("hyperbolic")


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_radial_family_component_count(n):
    data = gallery.spherical_n(n).data
    assert data.components == 4 * n - 3
    report = validate_counting(data)
    assert report.unknowns == report.equations


def test_radial_family_needs_three_axes():
    with pytest.raises(DegenerateParameters):
        gallery.spherical_n(2)


def test_euclidean_map_is_componentwise_exponential():
    entry = gallery.build("euclidean3")
    us = rng.uniform(-1.0, 1.0, size=(6, 3))
    xs = Solver(entry.data).map_batch(us)
    assert np.allclose(xs, np.exp(us), atol=1e-12)


def test_identities_vanish_along_engine_output():
    for name in ("example1", "example2", "example3"):
        entry = gallery.build(name)
        assert entry.identities, name
        solver = Solver(entry.data)
        us = rng.uniform(-0.4, 0.4, size=(5, entry.data.n))
        xs = solver.map_batch(us)
        for label, fn in entry.identities:
            for u, x in zip(us, xs):
                assert fn(u, x) < 1e-9, f"{name}:{label}"


def test_free_parameter_does_not_move_the_map():
    us = rng.uniform(-0.5, 0.5, size=(4, 2))
    base = Solver(gallery.polar(1.0).data).map_batch(us)
    for alpha in (2.0, 1.0 + 1.0j):
        other = Solver(gallery.polar(alpha).data).map_batch(us)
        assert np.max(np.abs(other - base)) < 1e-10


def test_example1_rejects_degenerate_parameters():
    with pytest.raises(DegenerateParameters):
        gallery.example1(b=0.0)
    with pytest.raises(DegenerateParameters):
        gallery.example1(b=2.0, c=np.sqrt(2.0))


def test_spherical_reference_nested_product():
    u = np.array([[0.2, 0.3, -0.5, 0.9]])
    ref = gallery._spherical_reference(u)[0]
    r = np.exp(0.2)
    expected = np.array([
        r * np.sin(0.3),
        r * np.cos(0.3) * np.sin(-0.5),
        r * np.cos(0.3) * np.cos(-0.5) * np.sin(0.9),
        r * np.cos(0.3) * np.cos(-0.5) * np.cos(0.9),
    ])
    assert np.allclose(ref, expected, atol=1e-14)


def test_cylindrical_engine_matches_reference():
    entry = gallery.build("cylindrical")
    us = rng.uniform(-0.5, 0.5, size=(3, 3))
    engine = Solver(entry.data).map_batch(us)
    assert np.max(np.abs(engine - entry.reference(us))) < 1e-10


def test_radial_family_embeds_lower_dimension():
    """Freezing the last angle drops the map into the n-1 family: the new
    axis reads 0 and the last coordinate matches the old one."""
    us3 = rng.uniform(-0.6, 0.6, size=(5, 3))
    us4 = np.concatenate([us3, np.zeros((5, 1))], axis=1)
    x3 = Solver(gallery.spherical_n(3).data).map_batch(us3)
    x4 = Solver(gallery.spherical_n(4).data).map_batch(us4)
    assert np.max(np.abs(x4[:, 0] - x3[:, 0])) < 1e-9
    assert np.max(np.abs(x4[:, 1] - x3[:, 1])) < 1e-9
    assert np.max(np.abs(x4[:, 2])) < 1e-9
    assert np.max(np.abs(x4[:, 3] - x3[:, 2])) < 1e-9
