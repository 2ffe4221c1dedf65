import json
import math
import os
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import spectral_coords
import spectral_coords.gallery as gallery
from spectral_coords import baker, cli, dressing, errors, geometry
from spectral_coords.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")

KERNEL2 = {
    "n": 2,
    "phi": [
        {"i": 1, "j": 1, "family": "gaussian-product",
         "params": {"first": {"amp": 0.3, "rate": 1.2, "center": 0.4},
                    "second": {"amp": 0.25, "rate": 0.9, "center": -0.2}}},
        {"i": 1, "j": 2, "family": "gaussian-product",
         "params": {"first": {"amp": 0.4, "rate": 1.0, "center": 0.3},
                    "second": {"amp": 0.35, "rate": 1.1, "center": 0.1}}},
    ],
}


@pytest.fixture
def polar_file(tmp_path):
    path = tmp_path / "polar.json"
    path.write_text(json.dumps(gallery.build("polar").data.to_json()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gallery_round_trip_is_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gallery", "polar", "--out", str(a)]) == 0
    assert main(["gallery", "polar", "--out", str(b)]) == 0
    blob = a.read_bytes()
    assert blob == b.read_bytes()
    # and the emitted file feeds straight back into the validators
    code, out, _ = run(capsys, "validate", str(a))
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_gallery_unknown_name(capsys):
    code, _, err = run(capsys, "gallery", "hyperbolic")
    assert code == 2
    assert "unknown gallery entry" in err


def test_out_flag_silences_stdout(tmp_path, capsys):
    target = tmp_path / "entry.json"
    code, out, _ = run(capsys, "gallery", "euclidean2", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["n"] == 2


@pytest.mark.parametrize("command", ["gallery", "validate"])
def test_unwritable_out_is_an_input_error(polar_file, tmp_path, capsys,
                                          command):
    # a missing directory, and a directory in place of a file
    for target in (tmp_path / "absent" / "x.json", tmp_path):
        source = "polar" if command == "gallery" else polar_file
        code, out, err = run(capsys, command, source, "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {target}")


def test_validate_reports_involution_when_present(polar_file, capsys):
    code, out, _ = run(capsys, "validate", polar_file)
    assert code == 0
    report = json.loads(out)
    assert set(report["checks"]) >= {"counting", "regularity", "q_residues",
                                     "involution"}
    assert report["failures"] == []


def test_validate_flags_broken_data(tmp_path, capsys):
    blob = gallery.build("example1").data.to_json()
    # nudge one root of the second differential off its exact position
    blob["omega"][1]["factors"][0][0][0] += 1e-3
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(blob))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    report = json.loads(out)
    assert not report["passed"]
    assert any("regularity" in f for f in report["failures"])


def test_validate_missing_and_malformed_files(tmp_path, capsys):
    code, _, err = run(capsys, "validate", str(tmp_path / "absent.json"))
    assert code == 2 and "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2 and "not valid JSON" in err


def test_solve_known_point(polar_file, capsys):
    code, out, _ = run(capsys, "solve", polar_file, "--u", "0.0,1.0")
    assert code == 0
    result = json.loads(out)
    assert result["x"][0][0] == pytest.approx(math.cos(1.0), abs=1e-10)
    assert result["x"][1][0] == pytest.approx(math.sin(1.0), abs=1e-10)
    assert result["imag_max"] < 1e-10
    assert result["H"] == pytest.approx([1.0, 1.0], abs=1e-7)
    assert result["diagnostics"]["residual"] < 1e-10


def test_solve_wrong_parameter_count(polar_file, capsys):
    code, _, err = run(capsys, "solve", polar_file, "--u", "0.0")
    assert code == 2 and "components" in err
    code, _, _ = run(capsys, "solve", polar_file, "--u", "a,b")
    assert code == 2


def test_solve_singular_system_exit_code(tmp_path, capsys):
    blob = gallery.build("euclidean1").data.to_json()
    # duplicating the sole normalization row makes the solve singular
    blob["normalizations"].append(dict(blob["normalizations"][0]))
    blob["normalizations"][1]["value"] = [2.0, 0.0]
    blob["ansatz"][0]["poles"] = [[3.0, 0.0]]
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(blob))
    code, _, err = run(capsys, "solve", str(path), "--u", "0.0")
    assert code == 3
    assert "condition" in err


@pytest.mark.parametrize("argv", [
    ("solve", "--u", "0.1,0.2"), ("grid", "--grid", "1:0:1:3"), ("verify",),
])
def test_non_square_config_is_refused(tmp_path, capsys, argv):
    blob = gallery.build("euclidean2").data.to_json()
    blob["normalizations"].pop()
    path = tmp_path / "non-square.json"
    path.write_text(json.dumps(blob))
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 1
    assert out == ""
    assert err == "error: 2 unknowns vs 1 equations\n"


def test_grid_refuses_an_overflowing_exponent(polar_file, capsys):
    # exp(phase . u) overflows at u1 = -800; it used to leak two
    # RuntimeWarnings and report "condition estimate nan"
    code, out, err = run(capsys, "grid", polar_file,
                         "--grid", "1:-800:800:3;2:0:1:2")
    assert code == 3
    assert out == ""
    assert err == "error: exp(phase . u) overflows at u = [-800.0, 0.0]\n"


def _edited_golden_config(tmp_path, name, path, value):
    """The golden config of a gallery entry with the field at `path` (a
    tuple of keys and indices) set to value."""
    with open(os.path.join(GOLDEN, f"gallery-{name}.out")) as fh:
        blob = json.load(fh)
    parent = blob
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    target = tmp_path / f"{name}-edited.json"
    target.write_text(json.dumps(blob))
    return str(target)


@pytest.mark.parametrize("name, path, value, argv, message", [
    # dx is about 1e308, so the metric behind H overflowed to NaN
    ("euclidean1", ("normalizations", 0, "point", 1), -1e308,
     ("solve", "--u=0.1"), "non-finite metric at u = [0.1]"),
    # a huge normalization value: |A c - b| overflowed to inf with a
    # RuntimeWarning, and H_1 and H_2 were NaN
    ("cylindrical", ("normalizations", 0, "value", 0), 1e300,
     ("solve", "--u=0.1,0.1,0.1"),
     "non-finite residual at u = [0.1, 0.1, 0.1]"),
    # the third-order jet overflows where A(u) does not; verify printed
    # "passed": true with every curvature gate at 0.0
    ("example3", ("ansatz", 1, "essential", 0, "phase", "scale", 0), 1e300,
     ("verify", "--grid", "1:-0.1:0.1:2"),
     "non-finite map derivative at u = [-0.1, 0.0, 0.0]"),
])
def test_non_finite_solver_output_is_a_singular_system(tmp_path, capsys, name,
                                                       path, value, argv,
                                                       message):
    config = _edited_golden_config(tmp_path, name, path, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv[0], config, *argv[1:])
    assert code == 3
    assert out == ""
    assert err == f"error: {message}\n"


def test_non_finite_q_residue_fails_closed(tmp_path, capsys):
    # the residue of omega_0 at Q is NaN; validate used to list q_residues
    # as passed with eta0^2 = NaN, and verify exited 0 with a NaN
    # epsilon_spread
    config = _edited_golden_config(tmp_path, "example1", ("omega", 0, "scale"),
                                   [1e308, 1e308])
    code, out, _ = run(capsys, "validate", config)
    assert code == 1
    checks = json.loads(out)["checks"]
    assert checks["q_residues"]["passed"] is False
    assert "q_residues" in json.loads(out)["failures"]
    # the gluings' residue sums are NaN too, and each one fails
    assert checks["regularity"]["failing_gluings"]
    code, out, err = run(capsys, "verify", config, "--grid", "1:-0.1:0.1:2")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("path, value", [
    # a gluing point's residue overflows
    (("omega", 1, "factors", 4, 1), 2 ** 70),
    # a factor (z - 0.01)^-200 beside omega_0's three simple poles: only
    # the residue at Q_1 = 0 overflows, inside the q_residues check; the
    # gluings' residues stay below 1e88
    (("omega", 0, "factors"), [[[0.0, 0.0], -1],
                               [[0.3779644730092272, 0.0], -1],
                               [[-0.3779644730092272, 0.0], -1],
                               [[0.01, 0.0], -200]]),
])
def test_overflowing_residue_multiplicity_is_input_error(tmp_path, capsys,
                                                         path, value):
    # d ** k overflows in the residue series; validate died with an
    # uncaught OverflowError
    config = _edited_golden_config(tmp_path, "example1", path, value)
    code, out, err = run(capsys, "validate", config)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "overflows" in err


def test_a_nan_residue_sum_fails_regularity(tmp_path, capsys):
    # omega_2's scale at 1e308 makes the residue sums of gluings 2 and 3
    # NaN; RegularityReport.max_abs used Python's max, which dropped them,
    # so regularity passed with a finite maximum while listing both
    config = _edited_golden_config(tmp_path, "example3", ("omega", 2, "scale"),
                                   [1e308, 1e308])
    code, out, _ = run(capsys, "validate", config)
    report = json.loads(out)
    regular = report["checks"]["regularity"]
    assert code == 1
    assert regular["passed"] is False
    assert math.isnan(regular["max_abs_residue_sum"])
    assert regular["failing_gluings"] == [2, 3]
    assert "regularity (gluings [2, 3])" in report["failures"]


ERROR_CLASSES = sorted(
    (c for c in vars(errors).values()
     if isinstance(c, type) and issubclass(c, errors.SpectralError)),
    key=lambda c: c.__name__)


def test_every_error_class_carries_its_readme_exit_code():
    special = {errors.InputError: 2, errors.SingularSystem: 3,
               errors.SingularFredholm: 4, errors.TailTooFat: 4}
    assert {c: c.exit_code for c in ERROR_CLASSES} \
        == {c: special.get(c, 1) for c in ERROR_CLASSES}
    assert (errors.EXIT_OK, errors.EXIT_CHECK, errors.EXIT_INPUT,
            errors.EXIT_SINGULAR, errors.EXIT_DRESSING) == (0, 1, 2, 3, 4)
    assert errors.SpectralError.exit_code == errors.EXIT_CHECK
    # the benchmark reads cli.EXIT_OK
    assert cli.EXIT_OK is errors.EXIT_OK
    with open(README) as fh:
        section = fh.read().split("### Exit codes", 1)[1].split("\n## ", 1)[0]
    table = {int(code) for code in re.findall(r"^\| (\d) ", section, re.M)}
    assert table == {errors.EXIT_OK} | {c.exit_code for c in ERROR_CLASSES}


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_main_returns_the_exit_code_of_the_class_raised(capsys, monkeypatch,
                                                       cls):
    def refuse(name):
        raise cls(f"refused {name}")

    monkeypatch.setattr(gallery, "build", refuse)
    code, out, err = run(capsys, "gallery", "polar")
    assert code == cls.exit_code
    assert out == ""
    assert err == "error: refused polar\n"


@pytest.mark.parametrize("cls", [KeyError, TypeError, ValueError])
def test_main_maps_malformed_input_to_exit_2(capsys, monkeypatch, cls):
    def refuse(name):
        raise cls("phi")

    monkeypatch.setattr(gallery, "build", refuse)
    code, out, err = run(capsys, "gallery", "polar")
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed input (") and err.count("\n") == 1


def test_gates_breach_on_nan_and_keep_it_as_worst():
    gates = cli._Gates()
    gates.check("eq4", 1e-9, 1e-4, u=[0.1])
    gates.check("eq4", math.nan, 1e-4, u=[0.2])
    gates.check("eq4", 2e-9, 1e-4, u=[0.3])
    gates.check("eq5", 0.0, 1e-4)
    gates.check("eq5", 3e-4, 1e-4)
    assert math.isnan(gates.worst["eq4"]) and gates.worst["eq5"] == 3e-4
    assert len(gates.breaches) == 2
    nan, big = gates.breaches
    assert nan["check"] == "eq4" and nan["u"] == [0.2]
    assert math.isnan(nan["value"]) and nan["bound"] == 1e-4
    assert big == {"check": "eq5", "value": 3e-4, "bound": 1e-4}


def test_verify_passes_on_small_grid(polar_file, capsys):
    code, out, _ = run(capsys, "verify", polar_file,
                       "--grid", "1:-0.3:0.3:2;2:-0.2:0.2:2")
    assert code == 0
    report = json.loads(out)
    assert report["samples"] == 4
    assert report["passed"] is True
    assert report["breaches"] == []
    assert report["worst"]["riemann"] < 1e-4


def test_verify_breaches_under_absurd_tolerance(polar_file, capsys):
    code, out, _ = run(capsys, "verify", polar_file,
                       "--grid", "1:-0.3:0.3:2", "--tol", "1e-16")
    assert code == 1
    assert json.loads(out)["breaches"]


def test_verify_fd_cross_check_passes(polar_file, capsys):
    code, out, _ = run(capsys, "verify", polar_file,
                       "--grid", "1:-0.3:0.3:2;2:-0.2:0.2:2",
                       "--fd-h", "1e-5")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    # finite-difference residuals sit well above the exact path's
    assert report["worst"]["riemann"] > 0.0


def test_verify_singular_system_exit_code(tmp_path, capsys):
    blob = gallery.build("euclidean1").data.to_json()
    blob["normalizations"].append(dict(blob["normalizations"][0]))
    blob["normalizations"][1]["value"] = [2.0, 0.0]
    blob["ansatz"][0]["poles"] = [[3.0, 0.0]]
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(blob))
    for extra in ((), ("--fd-h", "1e-5")):
        code, _, err = run(capsys, "verify", str(path),
                           "--grid", "1:-0.1:0.1:2", *extra)
        assert code == 3
        assert "condition" in err


def test_verify_reaches_spherical6(tmp_path, capsys):
    # the 13^6-point lattices of a finite-difference verify are out of
    # reach here; exact jets make this a two-solve job
    path = tmp_path / "spherical6.json"
    path.write_text(json.dumps(gallery.spherical_n(6).data.to_json()))
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "verify", str(path), "--grid", "2:-0.2:0.3:2")
    elapsed = time.perf_counter() - t0
    assert code == 0
    report = json.loads(out)
    assert report["samples"] == 2 and report["passed"] is True
    assert elapsed < 10.0


def test_solve_builds_one_solver(polar_file, capsys, monkeypatch):
    built = []
    original = baker.Solver.__init__

    def counting_init(self, data):
        built.append(data)
        original(self, data)

    monkeypatch.setattr(baker.Solver, "__init__", counting_init)
    code, out, _ = run(capsys, "solve", polar_file, "--u", "0.3,1.0")
    assert code == 0
    assert len(built) == 1
    result = json.loads(out)
    assert set(result) == {"u", "x", "imag_max", "H", "h", "diagnostics"}
    assert result["H"] == pytest.approx([math.exp(0.3)] * 2, rel=1e-12)


@pytest.mark.parametrize("name", sorted(gallery.BUILDERS))
def test_solve_assembles_and_factors_once(tmp_path, capsys, monkeypatch,
                                          name):
    # x, the order-1 jet behind H, h, the condition number and the
    # residual all come from one A(u) and one factorization
    counts = {"_factor": 0, "matrices": 0}
    for method in counts:
        original = getattr(baker.Solver, method)

        def counting(self, *args, _method=method, _original=original,
                     **kwargs):
            counts[_method] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(baker.Solver, method, counting)
    data = gallery.build(name).data
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data.to_json()))
    u = ",".join(f"0.{k + 1}" for k in range(data.n))
    code, _, _ = run(capsys, "solve", str(path), f"--u={u}")
    assert code == 0
    assert counts == {"_factor": 1, "matrices": 1}


def test_solve_fd_flags_select_the_fd_jet(polar_file, capsys):
    code, out, _ = run(capsys, "solve", polar_file, "--u", "0.3,1.0")
    exact = json.loads(out)
    code_fd, out_fd, _ = run(capsys, "solve", polar_file, "--u", "0.3,1.0",
                             "--fd-h", "1e-4", "--fd-order", "4")
    fd = json.loads(out_fd)
    assert code == code_fd == 0
    assert fd["x"] == exact["x"]
    assert fd["H"] == pytest.approx(exact["H"], rel=1e-9)
    assert fd["H"] != exact["H"]


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_zero_fd_step_is_refused(polar_file, capsys, command):
    # --fd-h 0 used to fall back to the default step without a word
    extra = (("--u=0.3,1.0",) if command == "solve"
             else ("--grid", "1:-0.3:0.3:2"))
    code, out, err = run(capsys, command, polar_file, *extra, "--fd-h", "0")
    assert code == 2 and out == ""
    assert "step 0.0" in err


@pytest.mark.parametrize("argv", [
    ("validate",), ("solve", "--u=0.3,1.0"), ("grid", "--grid", "1:0:1:2"),
])
def test_tol_is_only_taken_where_it_gates(polar_file, capsys, argv):
    # validate, solve and grid never read a tolerance
    code, out, err = run(capsys, argv[0], polar_file, *argv[1:],
                         "--tol", "1e-3")
    assert code == 2 and out == ""
    assert "--tol" in err


@pytest.mark.parametrize("system", ["eq1", "eq4", "eq5"])
@pytest.mark.parametrize("position", [0, -1])
def test_a_nan_residual_reaches_the_verify_gates_in_either_position(
        tmp_path, capsys, monkeypatch, system, position):
    # build_report folds each system with np.max; Python's max keeps a NaN
    # only when it comes first, and max([1.0, nan]) is 1.0
    systems = geometry._systems
    k = ("eq1", "eq4", "eq5").index(system)

    def with_nan(*args):
        out = [list(v) for v in systems(*args)]
        assert len(out[k]) >= 3
        out[k][position] = math.nan
        return tuple(out)

    monkeypatch.setattr(geometry, "_systems", with_nan)
    path = tmp_path / "spherical3.json"
    path.write_text(json.dumps(gallery.build("spherical3").data.to_json()))
    code, out, _ = run(capsys, "verify", str(path), "--grid", "1:-0.1:0.1:2")
    report = json.loads(out)
    # eq2 is read from eq5
    names = {system} | ({"eq2"} if system == "eq5" else set())
    assert code == 1 and report["passed"] is False
    assert {b["check"] for b in report["breaches"]} == names
    assert all(math.isnan(report["worst"][name]) for name in names)


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tolerance_is_an_input_error(polar_file, tmp_path,
                                                capsys, tol):
    # a nan bound made every `value > bound` gate false, so verify passed
    code, out, err = run(capsys, "verify", polar_file,
                         "--grid", "1:-0.3:0.3:2", "--tol", tol)
    assert code == 2 and "--tol" in err and out == ""
    path = tmp_path / "kern.json"
    path.write_text(json.dumps(KERNEL2))
    code, out, err = run(capsys, "dress", str(path), "--tol", tol)
    assert code == 2 and "--tol" in err and out == ""


@pytest.mark.parametrize("argv, flag", [
    (("solve", "--u", "nan,0"), "--u"),
    (("solve", "--u", "0.1,inf"), "--u"),
    (("verify", "--grid", "1:0:inf:2"), "--grid"),
    (("grid", "--grid", "1:nan:1:3"), "--grid"),
])
def test_non_finite_parameters_are_refused_when_parsed(polar_file, capsys,
                                                       argv, flag):
    # refused before any numerics run, so numpy has nothing to warn about
    code, out, err = run(capsys, argv[0], polar_file, *argv[1:])
    assert code == 2 and out == ""
    assert flag in err and "finite" in err


@pytest.mark.parametrize("bound", [("--s-max", "inf"), ("--s=-inf",),
                                   ("--s", "nan")])
def test_dress_refuses_non_finite_grid_bounds(tmp_path, capsys, bound):
    path = tmp_path / "kern.json"
    path.write_text(json.dumps(KERNEL2))
    code, out, err = run(capsys, "dress", str(path), *bound)
    assert code == 2 and out == ""
    assert "finite" in err


@pytest.mark.parametrize("factor, key, value", [
    ("first", "amp", math.nan), ("second", "center", math.nan),
    ("first", "rate", math.inf), ("second", "amp", math.inf),
])
def test_dress_refuses_non_finite_kernel_parameters(tmp_path, capsys,
                                                     factor, key, value):
    # json reads NaN/Infinity; they used to reach the solver and exit 4
    spec = json.loads(json.dumps(KERNEL2))
    spec["phi"][1]["params"][factor][key] = value
    path = tmp_path / "kern.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "dress", str(path))
    assert code == 2 and out == ""
    assert "finite" in err


def test_dress_refuses_fractional_indices(tmp_path, capsys):
    spec = json.loads(json.dumps(KERNEL2))
    spec["phi"][0]["i"] = 1.5
    path = tmp_path / "kern.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "dress", str(path))
    assert code == 2 and out == ""
    assert "integer" in err


@pytest.mark.parametrize("spec", [
    {"n": 1, "phi": [1]},
    {"n": 2, "phi": {"i": 1, "j": 1}},
    {"n": 2, "phi": [dict(KERNEL2["phi"][0], params=[1, 2])]},
    {"n": 2, "phi": [{"i": 1, "j": 1, "family": "gaussian-product",
                      "params": {"first": {"amp": True, "rate": 1.0},
                                 "second": {"rate": 1.0}}}]},
    {"n": 2, "phi": [{"i": 1, "j": 1, "family": "gaussian-product",
                      "params": {"first": {"amp": "0.7", "rate": 1.0},
                                 "second": {"rate": 1.0}}}]},
])
def test_dress_refuses_malformed_kernel_spec(tmp_path, capsys, spec):
    path = tmp_path / "kern.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "dress", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("where, value", [
    (("omega", 4, "factors", 2, 1), -1.5),
    (("omega", 4, "factors", 2, 0), ["0", "0"]),
    (("omega", 4, "factors", 2, 0), [False, False]),
    (("Q", 0, "component"), 4.7),
    (("normalizations", 0, "component"), 0.5),
    (("ansatz", 0, "essential", 0, "var"), 1.5),
    (("ansatz", 0), "component"),
    (("n",), 2.5),
    (("normalizations", 0, "component"), False),
    (("components",), "5"),
    (("sigma", "perm", 2), 3.0),
])
def test_validate_refuses_coerced_json(tmp_path, capsys, where, value):
    # each of these used to be coerced (int(-1.5) == -1, float("0") == 0)
    # or to escape as an uncaught exception
    cfg = json.loads(json.dumps(gallery.build("polar").data.to_json()))
    target = cfg
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_grid_emits_row_major_csv(tmp_path, capsys):
    path = tmp_path / "euclid.json"
    path.write_text(json.dumps(gallery.build("euclidean2").data.to_json()))
    code, out, _ = run(capsys, "grid", str(path),
                       "--grid", "1:0.0:1.0:3;2:-1.0:0.0:2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "u1,u2,x1,x2"
    assert len(lines) == 1 + 6
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    # axis 1 varies slowest
    assert [r[0] for r in rows] == [0.0, 0.0, 0.5, 0.5, 1.0, 1.0]
    for r in rows:
        assert r[2] == pytest.approx(math.exp(r[0]), abs=1e-12)
        assert r[3] == pytest.approx(math.exp(r[1]), abs=1e-12)


def test_grid_spec_errors(polar_file, capsys):
    code, _, _ = run(capsys, "grid", polar_file)
    assert code == 2  # --grid is required
    code, _, err = run(capsys, "grid", polar_file, "--grid", "0:0:1:3")
    assert code == 2 and "1-based" in err
    code, _, err = run(capsys, "grid", polar_file, "--grid", "3:0:1:3")
    assert code == 2 and "exceeds" in err
    code, _, err = run(capsys, "grid", polar_file, "--grid", "1:0:1")
    assert code == 2


@pytest.mark.parametrize("count", ["-1", "0", "1"])
def test_grid_count_below_two_is_refused_before_linspace(polar_file, capsys,
                                                         count):
    code, out, err = run(capsys, "grid", polar_file,
                         "--grid", f"1:0:1:{count}")
    assert (code, out) == (2, "")
    assert err == "error: grid axis 1 needs at least 2 points\n"


@pytest.mark.parametrize("command", ["grid", "verify", "dress"])
def test_repeated_grid_axis_is_refused(polar_file, tmp_path, capsys, command):
    # a repeated axis used to keep its last segment without a word
    path = polar_file
    if command == "dress":
        path = tmp_path / "kern.json"
        path.write_text(json.dumps(KERNEL2))
    code, out, err = run(capsys, command, str(path),
                         "--grid", "1:0:0.1:2;1:0.5:0.6:3")
    assert code == 2 and out == ""
    assert "axis 1" in err


@pytest.mark.parametrize("bounds", [
    ("--s=-1e308", "--s-max", "1e308"),  # s_max - s overflows
    ("--s-max", "1.5e308"),  # the tail scan beyond s_max overflows
])
def test_dress_refuses_overflowing_grid_bounds(tmp_path, capsys, bounds):
    path = tmp_path / "kern.json"
    path.write_text(json.dumps(KERNEL2))
    code, out, err = run(capsys, "dress", str(path), *bounds)
    assert code == 2 and out == ""
    assert "finite" in err


def test_dress_json_output(tmp_path, capsys):
    path = tmp_path / "kern.json"
    path.write_text(json.dumps(KERNEL2))
    code, out, _ = run(capsys, "dress", str(path),
                       "--s-max", "7.0", "--nodes", "96")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert len(report["beta"]) == 1
    assert report["beta"][0]["u"] == [0.0, 0.0]
    assert np.asarray(report["beta"][0]["beta"]).shape == (2, 2)
    assert report["residuals"]["eq5_max"] < 1e-6


def test_dress_csv_output_with_u_grid(tmp_path, capsys):
    path = tmp_path / "kern.json"
    path.write_text(json.dumps(KERNEL2))
    code, out, err = run(capsys, "dress", str(path),
                         "--s-max", "7.0", "--nodes", "64",
                         "--grid", "1:-0.1:0.1:3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "u1,u2,beta_1_1,beta_1_2,beta_2_1,beta_2_2"
    assert len(lines) == 1 + 3
    assert "eq4_max" in err  # residual summary goes to stderr


def test_dress_fat_tail_exit_code(tmp_path, capsys):
    spec = {"n": 1, "phi": [{
        "i": 1, "j": 1, "family": "gaussian-product",
        "params": {"first": {"amp": 0.5, "rate": 1.0, "center": 6.5},
                   "second": {"amp": 0.4, "rate": 1.0, "center": 0.0}}}]}
    path = tmp_path / "fat.json"
    path.write_text(json.dumps(spec))
    code, _, err = run(capsys, "dress", str(path))
    assert code == 4
    assert "s_max" in err


def _edited_kernel(tmp_path, name, factor, key, value):
    """tests/golden/kernel-{name}.json with one factor parameter of its
    entry `factor` = (entry index, "first" or "second") set to value."""
    with open(os.path.join(GOLDEN, f"kernel-{name}.json")) as fh:
        spec = json.load(fh)
    spec["phi"][factor[0]]["params"][factor[1]][key] = value
    path = tmp_path / f"kernel-{name}-edited.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_dress_refuses_non_finite_kernel_values(tmp_path, capsys):
    # the derivative of a gaussian of rate 1e308 is NaN; it used to reach
    # the tail gate, which exited 4 with "|F| reaches nan"
    path = _edited_kernel(tmp_path, "acceptance", (1, "second"), "rate",
                          1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "dress", path)
    assert code == 2 and out == ""
    assert err == ("error: phi entry (1,2): the derivative of its second "
                   "factor is not finite on the node grid\n")


def test_dress_on_a_subnormal_bump_width_raises_no_warning(tmp_path,
                                                            capsys):
    # (t - center) / width overflows at every node, where the factor is 0.
    # The grid does not resolve a bump this narrow, and dress still exits
    # 0: refusing that needs a resolution gate of its own
    path = _edited_kernel(tmp_path, "bump", (0, "second"), "width", 1e-320)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, _ = run(capsys, "dress", path)
    assert code == 0


def test_dress_refuses_overflowing_kernel_products_without_warnings(
        tmp_path, capsys):
    # every factor of amplitude 1e200 with its support inside [s, s_max]:
    # the tail is 0, but F(s, q) and the Nystrom factors overflow, and
    # numpy's overflow warning escaped as a traceback under -W error
    with open(os.path.join(GOLDEN, "kernel-bump.json")) as fh:
        spec = json.load(fh)
    for entry in spec["phi"]:
        for factor in entry["params"].values():
            factor.update(amp=1e200, center=-1.5)
    path = tmp_path / "kernel-huge.json"
    path.write_text(json.dumps(spec))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "dress", str(path))
    assert code == 4 and out == ""
    assert err == "error: discretized operator condition nan\n"


def test_dress_makes_eight_nystrom_solves_per_sample(capsys, monkeypatch):
    # one solve per sample, and 2n + 1 at each of the three probes. The
    # benchmark's tracer counts these calls and reads the system size n N
    # from the positional arguments n and grid, so both are pinned here
    calls = []
    original = dressing.solve_marchenko_kernel

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(dressing, "solve_marchenko_kernel", counting)
    code, _, _ = run(capsys, "dress",
                     os.path.join(GOLDEN, "kernel-acceptance.json"),
                     "--grid", "1:-0.1:0.1:3", "--nodes", "64")
    assert code == 0
    assert len(calls) == 24
    for args in calls:
        assert args[1] == 3
        assert isinstance(args[2], dressing.Grid) and args[2].N == 64


def test_dress_has_no_quadrature_rule_option(tmp_path, capsys):
    # Gauss-Legendre is the only rule; the trapezoid rule lives in the
    # tests as the oracle
    path = tmp_path / "kern.json"
    path.write_text(json.dumps(KERNEL2))
    code, out, err = run(capsys, "dress", str(path), "--rule", "trapezoid")
    assert code == 2 and out == ""
    assert "--rule" in err


def test_dress_rejects_unknown_family(tmp_path, capsys):
    path = tmp_path / "weird.json"
    path.write_text(json.dumps({"n": 1, "phi": [
        {"i": 1, "j": 1, "family": "poly-product", "params": {}}]}))
    code, _, err = run(capsys, "dress", str(path))
    assert code == 2 and "family" in err


def test_module_entry_point(polar_file):
    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(spectral_coords.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "spectral_coords", "solve", polar_file,
         "--u", "0.0,0.0"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    result = json.loads(proc.stdout)
    assert result["x"][0][0] == pytest.approx(1.0, abs=1e-10)
    assert result["x"][1][0] == pytest.approx(0.0, abs=1e-10)


# Every public name of the package, so that removing or adding one is a
# visible edit here.
PUBLIC_NAMES = [
    "ComponentAnsatz", "CountMismatch", "CountingReport", "CurvePoint",
    "DegenerateParameters", "DivisorMismatch", "EssentialSingularity",
    "EssentialTerm", "FDConfig", "FIRST_DERIVATIVE_FD", "Factor",
    "FactoredRational", "GalleryEntry", "GeometryReport", "Gluing", "Grid",
    "INF", "IncompatibleField", "Infinity", "InputError", "InvolutionSpec",
    "Jet", "KernelSpec", "LameResult", "MarchenkoSolution", "Mismatch",
    "NoIsolation", "NonPositive", "NonPositiveDiagonal", "Normalization",
    "NotInvolution", "PNotFixed", "PhiEntry", "PoleEvaluation",
    "RationalDifferential", "RegularityReport", "SECOND_DERIVATIVE_FD",
    "SingularFredholm", "SingularSystem", "Solver", "SpectralData",
    "SpectralError", "StencilFailure", "TailTooFat", "arithmetic_genus",
    "baker", "build", "build_report", "check_Q_residues",
    "check_beta_systems", "check_involution",
    "check_regular", "curve", "dressing", "epsilon_invariant", "errors",
    "gallery", "geometry", "is_inf", "jet", "lame", "lame_from_rotation",
    "metric", "numerics", "require_finite", "rotation_from_dressing",
    "rotation_systems", "same_curve_point", "same_point", "solve_marchenko",
    "solve_marchenko_kernel", "validate_counting",
]


def test_public_surface_is_pinned():
    assert spectral_coords.__all__ == sorted(PUBLIC_NAMES) == PUBLIC_NAMES
