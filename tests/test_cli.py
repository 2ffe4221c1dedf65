import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import spectral_coords
import spectral_coords.gallery as gallery
from spectral_coords import baker
from spectral_coords.cli import main

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
