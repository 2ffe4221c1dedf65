"""Seeded input generation for the benchmark workloads.

Every input the program sees is a file written here or a flag in an
operation's argument list. The same seed gives byte-identical files and the
same operation list, so two runs with one seed drive identical work.

A plan is a list of rounds; each round is a tuple of operations, and one
operation is one ``spectral_coords.cli.main`` call. The run starts a round
only when it expects the round to finish inside the time budget, so a
round's mix of operations is never cut in half.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

from spectral_coords import cli, dressing, gallery

# Entries for cli-light: every built-in plus one spherical_n beyond the
# built-ins, which has no gallery name and is written from spherical_n.
EXTRA_SPHERICAL = 6
CLI_ENTRIES = tuple(sorted(gallery.BUILDERS)) + (
    f"spherical{EXTRA_SPHERICAL}",)
# Grid runs in each cli-light cycle. Their costs (about 0.3-0.7 s) keep the
# cycle's 95th percentile inside a cluster of similar grid runs.
CLI_GRID_ENTRIES = ("polar", "example3", "cylindrical", "spherical3")
CLI_SOLVES_PER_ENTRY = 3
GRID_COUNTS = {1: (10000,), 2: (100, 100), 3: (22, 22, 21), 4: (10,) * 4}

# The n = 3 gaussian-product spec of acceptance criterion 10; dress-n3 draws
# its kernels around it. Rows: (i, j, first factor, second factor), each
# factor (amp, rate, center).
ACCEPTANCE_KERNEL = (
    (1, 1, (0.3, 1.2, 0.4), (0.25, 0.9, -0.2)),
    (1, 2, (0.4, 1.0, 0.3), (0.35, 1.1, 0.1)),
    (2, 2, (0.2, 1.3, 0.2), (0.3, 0.8, 0.5)),
    (1, 3, (0.3, 1.1, -0.1), (0.2, 1.0, 0.25)),
    (2, 3, (0.25, 0.9, 0.15), (0.3, 1.2, -0.3)),
    (3, 3, (0.35, 1.0, 0.0), (0.15, 1.1, 0.3)),
)
DRESS_S_MAX = 6.0  # the CLI default
DRESS_U_MAX = 0.15  # |u| bound of the dress u-grids
DRESS_SPECS = 16

PLAN_ROUNDS = {"verify-sph4": 16, "dress-n3": 48, "cli-light": 16}


@dataclass(frozen=True)
class Op:
    """One CLI call and what its output must show."""

    kind: str  # CLI subcommand
    argv: tuple  # arguments for cli.main
    points: int  # u-points the call delivers when it succeeds
    entry: str = None  # gallery entry whose reference map checks the output
    n: int = 0  # parameter dimension of the input


@dataclass(frozen=True)
class Plan:
    rounds: tuple  # of tuples of Op
    files: tuple  # input paths written, in order


def _dump(obj) -> str:
    # the CLI's own JSON layout, so generated configs match `cli gallery`
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _gallery_config(workdir: str, name: str) -> str:
    path = os.path.join(workdir, f"{name}.json")
    if name in gallery.BUILDERS:
        code = cli.main(["gallery", name, "--out", path])
        if code != cli.EXIT_OK:
            raise RuntimeError(f"cli gallery {name} exited {code}")
        return path
    n = int(name[len("spherical"):])
    return _write(path, _dump(gallery.spherical_n(n).data.to_json()))


def _grid_flag(segments) -> str:
    return ";".join(f"{axis}:{lo!r}:{hi!r}:{count}"
                    for axis, lo, hi, count in segments)


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


# ---------------------------------------------------------------------------
# verify-sph4
# ---------------------------------------------------------------------------

def _plan_verify(rng, workdir):
    """verify on spherical4 over two samples on one seeded axis inside
    |u| <= 0.4, the smallest grid verify accepts (two per listed axis)."""
    config = _gallery_config(workdir, "spherical4")
    rounds = []
    for _ in range(PLAN_ROUNDS["verify-sph4"]):
        axis = rng.randint(1, 4)
        lo = _u(rng, -0.4, 0.3)
        hi = _u(rng, lo + 0.05, 0.4)
        grid = _grid_flag([(axis, lo, hi, 2)])
        rounds.append((Op("verify", ("verify", config, "--grid", grid),
                          points=2, entry="spherical4", n=4),))
    return rounds, [config]


# ---------------------------------------------------------------------------
# dress-n3
# ---------------------------------------------------------------------------

def _gaussian_sup_slope(amp, rate, center, t0):
    """sup over t >= t0 of |d/dt amp exp(-rate (t - center)^2)|."""
    d = t0 - center
    if d <= 1.0 / math.sqrt(2.0 * rate):
        raise ValueError("tail start inside the factor's bulk")
    return 2.0 * rate * d * amp * math.exp(-rate * d * d)


def kernel_tail_bound(rows, s_max=DRESS_S_MAX, u_max=DRESS_U_MAX) -> float:
    """Upper bound on |F(s, s')| for s >= s_max and any s', |u| <= u_max.

    F's first argument enters each entry only through a factor derivative,
    times the other factor at most its amplitude (see dressing.build_F).
    """
    t0 = s_max - u_max
    worst = 0.0
    for i, j, first, second in rows:
        slope1 = _gaussian_sup_slope(*first, t0)
        slope2 = _gaussian_sup_slope(*second, t0)
        if i == j:
            worst = max(worst, slope1 * second[0] + slope2 * first[0])
        else:
            worst = max(worst, slope1 * second[0], slope2 * first[0])
    return worst


def _perturbed_kernel(rng):
    """Acceptance kernel with amplitudes within 10%, rates within 5% and
    centers within 0.05, redrawn until its tail stays well inside the
    program's tail bound."""
    while True:
        rows = []
        for i, j, first, second in ACCEPTANCE_KERNEL:
            pair = []
            for amp, rate, center in (first, second):
                pair.append((round(amp * rng.uniform(0.9, 1.1), 6),
                             round(rate * rng.uniform(0.95, 1.05), 6),
                             round(center + rng.uniform(-0.05, 0.05), 6)))
            rows.append((i, j, pair[0], pair[1]))
        if kernel_tail_bound(rows) <= 0.5 * dressing.TAIL_BOUND:
            return rows


def kernel_json(rows) -> dict:
    def factor(f):
        return {"amp": f[0], "rate": f[1], "center": f[2]}

    return {"n": 3, "phi": [
        {"i": i, "j": j, "family": "gaussian-product",
         "params": {"first": factor(a), "second": factor(b)}}
        for i, j, a, b in rows]}


def _plan_dress(rng, workdir):
    """dress with the default 200 Gauss-Legendre nodes over a seeded
    3-point u-grid on one axis."""
    specs = [_write(os.path.join(workdir, f"kernel{k:02d}.json"),
                    _dump(kernel_json(_perturbed_kernel(rng))))
             for k in range(DRESS_SPECS)]
    rounds = []
    for k in range(PLAN_ROUNDS["dress-n3"]):
        axis = rng.randint(1, 3)
        lo = _u(rng, -DRESS_U_MAX, -0.02)
        hi = _u(rng, 0.02, DRESS_U_MAX)
        grid = _grid_flag([(axis, lo, hi, 3)])
        rounds.append((Op("dress", ("dress", specs[k % DRESS_SPECS],
                                    "--grid", grid), points=3, n=3),))
    return rounds, specs


# ---------------------------------------------------------------------------
# cli-light
# ---------------------------------------------------------------------------

def _entry_dim(name: str) -> int:
    if name in gallery.BUILDERS:
        return gallery.build(name).data.n
    return int(name[len("spherical"):])


def _plan_cli(rng, workdir):
    """Cycles of small commands: validate each entry once, solve each entry
    at three seeded u, and write four ~1e4-point CSV grids, shuffled."""
    configs = {name: _gallery_config(workdir, name) for name in CLI_ENTRIES}
    dims = {name: _entry_dim(name) for name in CLI_ENTRIES}
    rounds = []
    for _ in range(PLAN_ROUNDS["cli-light"]):
        cycle = []
        for name in CLI_ENTRIES:
            n = dims[name]
            cycle.append(Op("validate", ("validate", configs[name]),
                            points=0, entry=name, n=n))
            for _ in range(CLI_SOLVES_PER_ENTRY):
                u = ",".join(repr(_u(rng, -0.5, 0.5)) for _ in range(n))
                # one token, so argparse cannot take a leading minus
                # sign for an option
                cycle.append(Op("solve", ("solve", configs[name], f"--u={u}"),
                                points=1, entry=name, n=n))
        for name in CLI_GRID_ENTRIES:
            n = dims[name]
            segments = []
            for axis, count in enumerate(GRID_COUNTS[n], start=1):
                lo = _u(rng, -0.5, 0.0)
                segments.append((axis, lo, _u(rng, lo + 0.1, 0.5), count))
            cycle.append(Op("grid", ("grid", configs[name], "--grid",
                                     _grid_flag(segments)),
                            points=math.prod(GRID_COUNTS[n]), entry=name,
                            n=n))
        rng.shuffle(cycle)
        rounds.append(tuple(cycle))
    return rounds, list(configs.values())


_PLANNERS = {"verify-sph4": _plan_verify, "dress-n3": _plan_dress,
             "cli-light": _plan_cli}


def generate(workload: str, seed: int, workdir: str) -> Plan:
    """Write the workload's inputs under workdir and return its plan."""
    if workload not in _PLANNERS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    rounds, files = _PLANNERS[workload](rng, workdir)
    plan = Plan(rounds=tuple(rounds), files=tuple(files))
    # input files by name, so the record does not depend on workdir
    names = {path: os.path.basename(path) for path in files}
    _write(os.path.join(workdir, "plan.json"), _dump({
        "workload": workload, "seed": seed,
        "rounds": [[[names.get(a, a) for a in op.argv] for op in r]
                   for r in plan.rounds]}))
    return plan
