"""Command-line front end.

Subcommands: validate, solve, verify, grid, gallery, dress. All machine
output is JSON or CSV on stdout (or --out); diagnostics go to stderr.
The argument parser is built once per process, at import; parsing does
not change it, so repeated `main` calls in one process behave like fresh
ones.

Exit codes are a stable contract. Each refusal's code is the
`exit_code` of its error class in `errors`, so `main` maps them all in
one branch:
    0  pass
    1  check failure
    2  input error (bad JSON, bad flags, unknown gallery name,
       unwritable --out)
    3  singular linear solve, or a non-finite Solver output or metric
    4  dressing-specific failure (fat tail, singular integral operator)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import baker, dressing, gallery, geometry
from .curve import (SpectralData, check_involution, check_Q_residues,
                    check_regular, validate_counting)
from .errors import (EXIT_CHECK, EXIT_INPUT, EXIT_OK, InputError,
                     SpectralError)
from .numerics import complex_to_json, max_abs

# worker threads for the per-sample geometry reports of `verify`
VERIFY_WORKERS = min(8, os.cpu_count() or 1)


def _parse_u(text: str) -> np.ndarray:
    try:
        u = np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError as exc:
        raise InputError(f"cannot parse --u {text!r}: {exc}") from None
    if not np.all(np.isfinite(u)):
        raise InputError(f"--u components must be finite, got {text!r}")
    return u


def _parse_grid(text: str) -> dict:
    """--grid "axis:lo:hi:count;…" with 1-based axis indices, as a map
    from the 0-based axis to its values."""
    out = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        bits = part.split(":")
        if len(bits) != 4:
            raise InputError(f"bad grid segment {part!r}, "
                             "expected axis:lo:hi:count")
        try:
            axis = int(bits[0])
            lo, hi = float(bits[1]), float(bits[2])
            count = int(bits[3])
        except ValueError as exc:
            raise InputError(f"bad grid segment {part!r}: {exc}") from None
        if axis < 1:
            raise InputError("grid axes are 1-based")
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise InputError(f"--grid bounds must be finite, got {part!r}")
        if axis - 1 in out:
            raise InputError(f"--grid gives axis {axis} more than once")
        if count < 2:
            raise InputError(f"grid axis {axis} needs at least 2 points")
        out[axis - 1] = np.linspace(lo, hi, count)
    if not out:
        raise InputError("empty grid spec")
    return out


def _lattice(grid: dict, n: int) -> np.ndarray:
    """Row-major lattice over the grid spec; unlisted axes sit at 0."""
    axes = []
    for k in range(n):
        if k in grid:
            axes.append(np.asarray(grid[k], dtype=float))
        else:
            axes.append(np.array([0.0]))
    for axis in grid:
        if axis >= n:
            raise InputError(f"grid axis {axis + 1} exceeds n = {n}")
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None


def _check_tol(tol: float) -> float:
    if not (np.isfinite(tol) and tol > 0):
        raise InputError(f"--tol must be finite and positive, got {tol}")
    return tol


def _emit(text: str, out: str = None) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from None
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _csv(header, table: np.ndarray) -> str:
    lines = [",".join(header)]
    lines += [",".join(map(repr, row.tolist())) for row in table]
    return "\n".join(lines) + "\n"


class _Gates:
    """The worst value of each check and the breaches of its bound. A value
    passes only if value <= bound, so a NaN breaches, and worst keeps it."""

    def __init__(self):
        self.worst, self.breaches = {}, []

    def check(self, name: str, value: float, bound: float, **where) -> None:
        self.worst[name] = float(np.maximum(self.worst.get(name, 0.0), value))
        if not value <= bound:
            self.breaches.append({"check": name, **where, "value": value,
                                  "bound": bound})


def _geometry_source(args: argparse.Namespace, solver: baker.Solver, exact):
    """(source, fd_first): what geometry differentiates and its
    first-derivative stencil. The source is `exact` (the solver itself, or
    a jet it has already computed), or, when --fd-h or --fd-order is given,
    the solver's map as an opaque callable, so the finite-difference jets
    cross-check the exact ones."""
    first = geometry.FIRST_DERIVATIVE_FD
    if args.fd_h is None and args.fd_order is None:
        return exact, first
    return solver.map_batch, geometry.FDConfig(
        h=first.h if args.fd_h is None else args.fd_h,
        order=args.fd_order or first.order)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args: argparse.Namespace) -> int:
    data = SpectralData.from_json(_load_json(args.input))
    checks = {}
    failures = []

    def run(name, check):
        """checks[name] from check(), which returns the details of its
        result. An error whose exit code is EXIT_CHECK fails the check, and
        any other error, such as a residue that overflows, reaches main."""
        try:
            checks[name] = {"passed": True, **check()}
        except SpectralError as exc:
            if exc.exit_code != EXIT_CHECK:
                raise
            checks[name] = {"passed": False, "error": str(exc)}
        if not checks[name]["passed"]:
            bad = checks[name].get("failing_gluings")
            failures.append(name if bad is None else f"{name} (gluings {bad})")

    def regularity():
        regular = check_regular(data)
        # a NaN sum compares false, so it is listed unless known small
        return {"passed": regular.passed,
                "max_abs_residue_sum": regular.max_abs,
                "failing_gluings": [k for k, v in enumerate(regular.sums)
                                    if not abs(v) <= regular.tol]}

    run("counting", lambda: vars(validate_counting(data)))
    run("regularity", regularity)
    run("q_residues", lambda: {"eta0_squared": check_Q_residues(data)})
    if data.sigma is not None:
        run("involution", lambda: check_involution(data))

    _emit(_dump({"checks": checks, "failures": failures,
                 "passed": not failures}), args.out)
    return EXIT_OK if not failures else EXIT_CHECK


def cmd_solve(args: argparse.Namespace) -> int:
    u = _parse_u(args.u)
    data = SpectralData.from_json(_load_json(args.input))
    if len(u) != data.n:
        raise InputError(f"--u needs {data.n} components")
    solver = baker.Solver(data)
    x, dx, h, cond, resid = (v[0] for v in solver.solve_batch(u[None, :]))
    source, fd_first = _geometry_source(args, solver,
                                        geometry.Jet(u, x, dx))
    g, _g_imag = geometry.metric(source, u, fd_first)
    H = geometry.lame(g)
    _emit(_dump({
        "u": [float(v) for v in u],
        "x": [complex_to_json(v) for v in x],
        "imag_max": max_abs(x.imag),
        "H": [float(v) for v in H],
        "h": [complex_to_json(v) for v in h],
        "diagnostics": {"condition": float(cond), "residual": float(resid)},
    }), args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    grid = _parse_grid(args.grid) if args.grid else None
    tol = _check_tol(args.tol)
    data = SpectralData.from_json(_load_json(args.input))
    grid = grid or {k: np.linspace(-0.4, 0.4, 3) for k in range(data.n)}
    samples = _lattice(grid, data.n)
    solver = baker.Solver(data)
    source, fd_first = _geometry_source(args, solver, solver)

    with ThreadPoolExecutor(max_workers=VERIFY_WORKERS) as pool:
        reports = list(pool.map(
            lambda u: geometry.build_report(source, u, fd_first),
            samples))

    spread = geometry.epsilon_invariant(solver, samples,
                                        [rep.lame for rep in reports])
    gates = _Gates()
    for rep in reports:
        x_scale = 1.0 + max(abs(v[0]) for v in rep.x)
        h_scale = 1.0 + max(rep.lame) ** 2
        for name, value, bound in (
                ("reality", rep.imag_max, 1e-9 * x_scale),
                ("orthogonality", rep.g_offdiag_max, 1e-6 * h_scale),
                ("eq1", rep.eq1_max, tol * h_scale),
                ("eq2", rep.eq2_max, tol * h_scale),
                ("eq4", rep.eq4_max, tol * h_scale),
                ("eq5", rep.eq5_max, tol * h_scale),
                ("riemann", rep.riemann_max, tol * h_scale),
                ("immersion", rep.immersion_max, tol * x_scale)):
            gates.check(name, value, bound, u=rep.u)
    gates.check("epsilon_spread", float(np.max(spread)), 1e-6)

    _emit(_dump({"samples": len(samples), "worst": gates.worst,
                 "breaches": gates.breaches,
                 "passed": not gates.breaches}), args.out)
    return EXIT_OK if not gates.breaches else EXIT_CHECK


def cmd_grid(args: argparse.Namespace) -> int:
    grid = _parse_grid(args.grid)
    data = SpectralData.from_json(_load_json(args.input))
    samples = _lattice(grid, data.n)
    xs = baker.Solver(data).map_batch(samples)
    header = ([f"u{k + 1}" for k in range(data.n)]
              + [f"x{k + 1}" for k in range(data.n)])
    _emit(_csv(header, np.hstack((samples, xs.real))), args.out)
    return EXIT_OK


def cmd_gallery(args: argparse.Namespace) -> int:
    entry = gallery.build(args.name)
    _emit(_dump(entry.data.to_json()), args.out)
    return EXIT_OK


def cmd_dress(args: argparse.Namespace) -> int:
    u_grid = _parse_grid(args.grid) if args.grid else None
    tol = _check_tol(args.tol)
    spec = dressing.KernelSpec.from_json(_load_json(args.input))
    grid = dressing.Grid(s=args.s, s_max=args.s_max, N=args.nodes)
    samples = (_lattice(u_grid, spec.n) if u_grid
               else np.zeros((1, spec.n)))

    def beta_at(u):
        return dressing.rotation_from_dressing(spec, u, grid)

    betas = [beta_at(u) for u in samples]
    probes = sorted({0, len(samples) // 2, len(samples) - 1})
    gates = _Gates()
    for k in probes:
        eq4, eq5 = dressing.check_beta_systems(beta_at, spec.n, samples[k])
        gates.check("eq4", max_abs(eq4), tol)
        gates.check("eq5", max_abs(eq5), tol)
    res4, res5 = gates.worst["eq4"], gates.worst["eq5"]
    passed = not gates.breaches

    if args.fmt == "csv":
        header = ([f"u{k + 1}" for k in range(spec.n)]
                  + [f"beta_{i + 1}_{j + 1}" for i in range(spec.n)
                     for j in range(spec.n)])
        table = np.hstack((samples, np.reshape(betas, (len(samples), -1))))
        _emit(_csv(header, table), args.out)
        print(_dump({"eq4_max": res4, "eq5_max": res5, "passed": passed}),
              file=sys.stderr)
    else:
        _emit(_dump({
            "beta": [{"u": [float(v) for v in u],
                      "beta": np.asarray(b).tolist()}
                     for u, b in zip(samples, betas)],
            "residuals": {"eq4_max": res4, "eq5_max": res5},
            "passed": passed,
        }), args.out)
    return EXIT_OK if passed else EXIT_CHECK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spectral-coords",
        description="Orthogonal curvilinear coordinate systems from "
                    "rational spectral data.")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, summary, arg="input",
                arg_help="path to a JSON config"):
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(func=func)
        sp.add_argument(arg, help=arg_help)
        sp.add_argument("--out", default=None, help="write output here "
                        "instead of stdout")
        return sp

    def tol(sp):
        sp.add_argument("--tol", type=float, default=1e-4,
                        help="residual tolerance for pass/fail gates")

    def fd(sp):
        sp.add_argument("--fd-h", type=float, default=None)
        sp.add_argument("--fd-order", type=int, default=None, choices=(2, 4))

    command("validate", cmd_validate, "run the spectral-data validators")

    sp = command("solve", cmd_solve, "evaluate the coordinate map at one u")
    sp.add_argument("--u", required=True, help='comma list, e.g. "0.0,1.0"')
    fd(sp)

    sp = command("verify", cmd_verify, "sweep geometric checks over a grid")
    tol(sp)
    sp.add_argument("--grid", default=None,
                    help='"axis:lo:hi:count;…", 1-based axes; '
                         "default 3 points in [-0.4,0.4] per axis")
    fd(sp)

    sp = command("grid", cmd_grid, "emit CSV coordinate lines")
    sp.add_argument("--grid", required=True,
                    help='"axis:lo:hi:count;…", 1-based axes')

    command("gallery", cmd_gallery, "print a catalog entry as JSON",
            arg="name", arg_help="entry name, e.g. polar")

    sp = command("dress", cmd_dress, "rotation coefficients from a kernel "
                                     "spec via the integral equation")
    tol(sp)
    sp.add_argument("--grid", default=None,
                    help='u-grid "axis:lo:hi:count;…"; default u = 0')
    sp.add_argument("--s", type=float, default=-2.0)
    sp.add_argument("--s-max", type=float, default=6.0)
    sp.add_argument("--nodes", type=int, default=200)
    sp.add_argument("--format", dest="fmt", default="json",
                    choices=("json", "csv"))
    return p


# Built once per process: parse_args leaves the parser as it was, so each
# call of main parses as a fresh one would.
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK

    try:
        return args.func(args)
    except SpectralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: malformed input ({exc})", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
