"""Output checks for benchmark operations.

Each check takes an operation, its exit code and its captured output and
returns None when the output is right, or the reason it is wrong. The
bounds are the program's own: verify and dress gate themselves and must
report ``passed``, and solve and grid must match the entry's closed-form
reference map within 1e-10, the bound of acceptance criteria 1 and 2.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np

REFERENCE_TOL = 1e-10


def _json(out: str):
    try:
        return json.loads(out), None
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON: {exc}"


def _passed(report) -> str:
    if report.get("passed") is not True:
        return f"passed is {report.get('passed')!r}"
    return None


def _check_validate(op, out, references):
    report, err = _json(out)
    return err or _passed(report)


def _check_verify(op, out, references):
    report, err = _json(out)
    if err:
        return err
    if report.get("samples") != op.points:
        return (f"verified {report.get('samples')} samples, "
                f"expected {op.points}")
    return _passed(report)


def _check_solve(op, out, references):
    report, err = _json(out)
    if err:
        return err
    flag = next(a for a in op.argv if a.startswith("--u="))
    u = np.array([float(v) for v in flag[len("--u="):].split(",")])
    if report.get("u") != u.tolist():
        return f"solved at {report.get('u')}, asked for {u.tolist()}"
    x = np.array([complex(re, im) for re, im in report["x"]])
    if x.shape != (op.n,):
        return f"x has {x.size} components, expected {op.n}"
    reference = references.get(op.entry)
    if reference is not None:
        gap = float(np.max(np.abs(x - reference(u[None, :])[0])))
        if not gap <= REFERENCE_TOL:
            return f"x differs from the reference map by {gap:.3e}"
    return None


def _expected_lattice(grid: str, n: int) -> np.ndarray:
    axes = [np.array([0.0])] * n
    for part in grid.split(";"):
        axis, lo, hi, count = part.split(":")
        axes[int(axis) - 1] = np.linspace(float(lo), float(hi), int(count))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _check_grid(op, out, references):
    lines = out.splitlines()
    header = [f"u{k + 1}" for k in range(op.n)] + \
        [f"x{k + 1}" for k in range(op.n)]
    if not lines or lines[0].split(",") != header:
        return "missing or wrong CSV header"
    try:
        rows = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1,
                          ndmin=2)
    except ValueError as exc:
        return f"unreadable CSV row: {exc}"
    if rows.shape != (op.points, 2 * op.n):
        return (f"CSV has shape {rows.shape}, "
                f"expected ({op.points}, {2 * op.n})")
    u, x = rows[:, :op.n], rows[:, op.n:]
    lattice = _expected_lattice(op.argv[op.argv.index("--grid") + 1], op.n)
    if not np.array_equal(u, lattice):
        return "CSV u-columns differ from the requested lattice"
    reference = references.get(op.entry)
    if reference is not None:
        gap = float(np.max(np.abs(x - reference(u))))
        if not gap <= REFERENCE_TOL:
            return f"a CSV row differs from the reference map by {gap:.3e}"
    return None


def _check_dress(op, out, references):
    report, err = _json(out)
    if err:
        return err
    betas = report.get("beta", [])
    if len(betas) != op.points:
        return f"{len(betas)} rotation matrices, expected {op.points}"
    for item in betas:
        beta = np.asarray(item["beta"], dtype=float)
        if beta.shape != (op.n, op.n) or not np.all(np.isfinite(beta)):
            return f"bad rotation matrix at u = {item.get('u')}"
    residuals = report.get("residuals", {})
    if not all(math.isfinite(residuals.get(k, math.nan))
               for k in ("eq4_max", "eq5_max")):
        return "missing residuals"
    return _passed(report)


_CHECKS = {"validate": _check_validate, "verify": _check_verify,
           "solve": _check_solve, "grid": _check_grid, "dress": _check_dress}


def check(op, code, out: str, references: dict) -> str:
    """None if the operation succeeded and its output is right, else why not.

    references maps gallery entry names to closed-form maps us -> x.
    """
    if code != 0:
        return f"exit code {code}"
    try:
        return _CHECKS[op.kind](op, out, references)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed output: {exc!r}"
