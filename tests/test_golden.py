"""Golden-output regression suite for the command line.

Each case is one ``spectral_coords.cli.main`` call. Its exit code, stdout
and stderr are compared with files under ``tests/golden/`` that an earlier
CLI wrote; ``MANIFEST.json`` names the commit it came from.

- With every numeric literal masked, each stream must match byte for byte,
  so key order, indentation, CSV headers and messages are pinned.
- Each number must agree to 1e-12 relative, or to within the absolute floor
  its field has in ``FLOORS``. Floors cover the fields whose values sit at
  roundoff or finite-difference noise level, where numpy builds differ.

The gallery cases' golden stdout (``gallery-<name>.out``) is the config the
other cases of that entry read, so every case reads fixed bytes. The kernel
specs are checked in as ``kernel-<name>.json``, and edited copies of a
gallery config as ``config-<name>.json``.

Regenerate with ``PYTHONPATH=src python tests/test_golden.py``. That changes
a check: record which files changed, why, and the largest difference.
"""

import argparse
import contextlib
import io
import json
import math
import os
import random
import re
import subprocess

import pytest

from spectral_coords import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# one u per gallery entry for `solve`, away from every symmetry axis
SOLVE_U = {
    "cylindrical": "0.15,-0.25,0.1",
    "euclidean1": "0.15",
    "euclidean2": "0.15,-0.25",
    "euclidean3": "0.15,-0.25,0.1",
    "example1": "0.15,-0.25",
    "example2": "0.15,-0.25",
    "example3": "0.15,-0.25,0.1",
    "polar": "0.15,-0.25",
    "spherical3": "0.15,-0.25,0.1",
    "spherical4": "0.15,-0.25,0.1,0.05",
    "spherical5": "0.15,-0.25,0.1,0.05,-0.1",
}
# verify runs on the default 3^n grid, except where that takes too long
VERIFY_GRID = {"spherical5": "1:-0.4:0.4:2;3:-0.2:0.2:2"}
FD_GRID = "1:-0.3:0.3:2;2:-0.2:0.2:2"


def _config(name):
    return os.path.join(GOLDEN, f"gallery-{name}.out")


def _kernel(name):
    return os.path.join(GOLDEN, f"kernel-{name}.json")


def _edited(name):
    return os.path.join(GOLDEN, f"config-{name}.json")


def _cases():
    cases = {}
    for name, u in SOLVE_U.items():
        cases[f"gallery-{name}"] = ["gallery", name]
        cases[f"validate-{name}"] = ["validate", _config(name)]
        cases[f"solve-{name}"] = ["solve", _config(name), f"--u={u}"]
        grid = VERIFY_GRID.get(name)
        cases[f"verify-{name}"] = (["verify", _config(name)]
                                   + (["--grid", grid] if grid else []))
    cases.update({
        "solve-polar-fd": ["solve", _config("polar"), "--u=0.15,-0.25",
                           "--fd-h", "1e-4", "--fd-order", "4"],
        "verify-polar-fd": ["verify", _config("polar"), "--grid", FD_GRID,
                            "--fd-h", "1e-5"],
        "verify-polar-fd-breach": ["verify", _config("polar"),
                                   "--grid", "1:-0.3:0.3:2", "--fd-h", "1e-5",
                                   "--tol", "1e-12"],
        "grid-cylindrical": ["grid", _config("cylindrical"),
                             "--grid", "1:-0.3:0.3:3;2:-0.5:0.5:4"],
        "dress-acceptance": ["dress", _kernel("acceptance")],
        "dress-acceptance-csv": ["dress", _kernel("acceptance"),
                                 "--grid", "2:-0.1:0.1:3", "--format", "csv"],
        "dress-bump": ["dress", _kernel("bump")],
        # one gaussian-product and one bump-product entry in one spec
        "dress-mixed": ["dress", _kernel("mixed"),
                        "--grid", "1:-0.1:0.1:3;3:0:0.1:2"],
        "dress-fat-tail": ["dress", _kernel("fat-tail")],
        "gallery-unknown": ["gallery", "hyperbolic"],
        "solve-wrong-dimension": ["solve", _config("polar"), "--u=0.15"],
        # polar with a fourth normalization, at -2 on component 0: the
        # counting check fails, and so does the involution, which maps the
        # point to 2
        "validate-count-mismatch": ["validate", _edited("count-mismatch")],
        # exp(-800) underflows, so A(u) is exactly 0: exit 3
        "solve-singular": ["solve", _config("euclidean1"), "--u=800"],
    })
    return cases


CASES = _cases()

# Absolute floors by field name: a JSON value takes the innermost key
# above it, a CSV value its column header; fields left out keep the bare
# 1e-12 relative bound. Each floor is ten times the largest change seen
# when the output of every linear solve, inverse and exp/sin/cos/log/sqrt
# call got a random relative error of up to 16 ulp (six seeds), rounded up
# to a power of ten. example1's verify residuals lose about eight digits to
# roundoff, hence the floors of eq2, eq5 and riemann.
FLOORS = {
    "x": 1e-12, "h": 1e-12, "imag_max": 1e-12, "residual": 1e-12,
    "reality": 1e-12, "eq1": 1e-12, "eq4": 1e-11, "orthogonality": 1e-11,
    "immersion": 1e-10, "epsilon_spread": 1e-10,
    "eq2": 1e-8, "eq5": 1e-8, "riemann": 1e-5,
    "beta": 1e-19, "eq4_max": 1e-14, "eq5_max": 1e-13,
}
# With --fd-h the derivatives come from finite differences, whose
# roundoff is amplified by 1/h to 1/h^3: the residuals of the polar FD
# cases are noise at this level, so only their layout is pinned.
FD_FLOORS = dict(FLOORS, H=1e-9, orthogonality=1e-7, epsilon_spread=1e-7,
                 immersion=1e-6, eq2=1e-3, eq5=1e-3, riemann=1e-3,
                 value=1e-3)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"(?<![\w.])-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|Infinity)"
                     r"|\bNaN\b")


def _mask(text):
    return _NUMBER.sub("#", text)


def _json_numbers(obj, key=None):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _json_numbers(v, k)
    elif isinstance(obj, list):
        for v in obj:
            yield from _json_numbers(v, key)
    elif isinstance(obj, str):
        for token in _NUMBER.findall(obj):
            yield key, float(token)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield key, float(obj)


def _numbers(text):
    """(field, value) for every numeric literal of one output stream."""
    try:
        return list(_json_numbers(json.loads(text)))
    except ValueError:
        pass
    lines = text.splitlines()
    if lines and re.fullmatch(r"\w+(,\w+)+", lines[0]):
        header = lines[0].split(",")
        return [(header[k], float(v)) for line in lines[1:]
                for k, v in enumerate(line.split(","))]
    return [(None, float(t)) for t in _NUMBER.findall(text)]


def differences(expected, actual, floors):
    """Mismatches between two output streams, as readable strings."""
    if _mask(expected) != _mask(actual):
        return ["layout differs with numbers masked"]
    out = []
    for (field, a), (_, b) in zip(_numbers(expected), _numbers(actual)):
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        bound = max(1e-12 * max(abs(a), abs(b)), floors.get(field, 0.0))
        if not abs(a - b) <= bound:
            out.append(f"{field}: {a!r} != {b!r} (bound {bound:.1e})")
    return out


# ---------------------------------------------------------------------------
# running and regenerating
# ---------------------------------------------------------------------------

def run_case(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _read(name, default=None):
    path = os.path.join(GOLDEN, name)
    if default is not None and not os.path.exists(path):
        return default
    with open(path) as fh:
        return fh.read()


@pytest.fixture(scope="module")
def manifest():
    return json.loads(_read("MANIFEST.json"))


@pytest.mark.parametrize("case", list(CASES))
def test_output_matches_golden(case, manifest):
    argv = CASES[case]
    floors = FD_FLOORS if "--fd-h" in argv else FLOORS
    code, out, err = run_case(argv)
    assert code == manifest["exit_codes"][case]
    assert differences(_read(f"{case}.out"), out, floors) == []
    assert differences(_read(f"{case}.err", ""), err, floors) == []


# Calls that end inside argparse, mixed into the replay below: a bad flag
# (exit 2, usage on stderr), solve without --u (exit 2) and --help (exit 0).
PARSER_EXITS = {
    "bad-flag": ["solve", _config("polar"), "--u=0.1,0.2", "--bogus"],
    "solve-without-u": ["solve", _config("polar")],
    "help": ["--help"],
}
# one minimal call per subcommand, for the defaults parse_args fills in
MINIMAL_ARGV = [
    ["validate", "in.json"], ["solve", "in.json", "--u=0"],
    ["verify", "in.json"], ["grid", "in.json", "--grid", "1:0:1:2"],
    ["gallery", "polar"], ["dress", "in.json"],
]


def test_repeated_in_process_calls_match_the_first(monkeypatch):
    # the parser is built once per process, so a call must leave nothing
    # behind that changes the next one
    calls = dict(CASES, **PARSER_EXITS)
    parser = cli._PARSER
    defaults = [vars(parser.parse_args(argv)) for argv in MINIMAL_ARGV]
    built = []
    original_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    first = {name: run_case(argv) for name, argv in calls.items()}
    replay = list(calls)
    random.Random(20261020).shuffle(replay)
    for name in replay:
        assert run_case(calls[name]) == first[name], name
    assert built == []
    assert cli._PARSER is parser
    assert [vars(parser.parse_args(argv)) for argv in MINIMAL_ARGV] \
        == defaults
    codes = {name: first[name][0] for name in PARSER_EXITS}
    assert codes == {"bad-flag": 2, "solve-without-u": 2, "help": 0}
    assert first["bad-flag"][2].startswith("usage: spectral-coords ")
    assert first["bad-flag"][2].endswith(
        "error: unrecognized arguments: --bogus\n")
    assert first["solve-without-u"][2].startswith(
        "usage: spectral-coords solve")
    assert first["solve-without-u"][2].endswith(
        "error: the following arguments are required: --u\n")
    assert first["help"][1].startswith("usage: spectral-coords")


def test_every_golden_file_belongs_to_a_case(manifest):
    assert set(manifest["exit_codes"]) == set(CASES)
    stems = {os.path.splitext(f)[0] for f in os.listdir(GOLDEN)
             if f.endswith((".out", ".err"))}
    assert stems == set(CASES)


@pytest.mark.parametrize("expected, actual, bad", [
    ('{"a": 1.0}', '{"a": 1.0000000000001}', False),
    ('{"a": 1.0}', '{"a": 1.00000000001}', True),
    ('{"a": 1.0, "b": 2}', '{"b": 2, "a": 1.0}', True),
    ('{\n  "a": 1\n}', '{\n    "a": 1\n}', True),
    ("u1,x1\n0.5,1.0\n", "u1,x2\n0.5,1.0\n", True),
    ('{"residual": 1e-17}', '{"residual": 3e-17}', True),
    ("error: condition 3.5e19", "error: condition 3.5e19", False),
])
def test_comparison_catches_layout_and_values(expected, actual, bad):
    assert bool(differences(expected, actual, floors={})) == bad


def regenerate():
    """Write every case's output as the new golden files."""
    from spectral_coords import __file__ as package
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=os.path.dirname(package),
        capture_output=True, text=True, check=True).stdout.strip()
    for name in os.listdir(GOLDEN):
        if name.endswith((".out", ".err")):
            os.remove(os.path.join(GOLDEN, name))
    codes = {}
    # gallery cases first: the others read their output
    for case in sorted(CASES, key=lambda c: not c.startswith("gallery-")):
        codes[case], out, err = run_case(CASES[case])
        for ext, text in ((".out", out), (".err", err)):
            if text or ext == ".out":
                with open(os.path.join(GOLDEN, case + ext), "w") as fh:
                    fh.write(text)
    with open(os.path.join(GOLDEN, "MANIFEST.json"), "w") as fh:
        json.dump({"source_commit": commit, "exit_codes": codes}, fh,
                  indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    regenerate()
