"""Per-layer tracing from outside the program.

A Tracer wraps the public functions and methods of each spectral_coords
layer, records one span per call, and restores every original on
uninstall. The program itself carries no timers.

- A function imported with ``from X import name`` is bound in several
  modules; install replaces it at every binding site in the package.
- Methods are replaced on their class, so every holder of a Solver or Grid
  is reached.
- ``numpy.linalg.cond`` and ``numpy.linalg.solve`` are wrapped too; their
  spans count toward the layer of the nearest enclosing program span.
- verify's pool threads start with an empty span stack, so their spans
  have no parent; each span also carries the benchmark's operation id,
  which ties worker spans to the operation that started the pool.

Spans live in memory as [id, name, start, end, parent id, thread, op id]
and are written out by the caller when the run ends.

Metric conventions: ``<name>.busy_s`` is the wall time of the named calls,
children included, counting only the outermost of nested calls with the
same name; ``self_s`` and ``geometry.busy_s`` exclude time spent in child
spans on the same thread. Busy times sum over threads.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from spectral_coords import (baker, cli, curve, dressing, errors, gallery,
                             geometry, numerics)

# (module, function, span name); each is wrapped wherever the package
# binds it
FUNCTIONS = (
    (curve, "validate_counting", "curve.validate"),
    (curve, "check_regular", "curve.validate"),
    (curve, "check_Q_residues", "curve.validate"),
    (curve, "check_involution", "curve.validate"),
    (gallery, "build", "gallery.build"),
    (gallery, "spherical_n", "gallery.build"),
    (gallery, "reference_residual", "gallery.reference"),
    (baker, "assemble_system", "baker.api"),
    (baker, "solve_coefficients", "baker.api"),
    (baker, "coordinate_map", "baker.api"),
    (baker, "h_values", "baker.api"),
    (baker, "eval_psi", "baker.api"),
    (baker, "exp_factor", "baker.api"),
    (geometry, "jacobian", "geometry.check"),
    (geometry, "metric", "geometry.check"),
    (geometry, "lame", "geometry.check"),
    (geometry, "rotation", "geometry.check"),
    (geometry, "check_systems", "geometry.check"),
    (geometry, "christoffel_and_riemann", "geometry.check"),
    (geometry, "check_immersion", "geometry.check"),
    (geometry, "build_report", "geometry.report"),
    (geometry, "epsilon_invariant", "geometry.epsilon"),
    (dressing, "build_F", "dressing.kernel"),
    (dressing, "check_F_equations", "dressing.api"),
    (dressing, "solve_marchenko_kernel", "dressing.nystrom"),
    (dressing, "solve_marchenko", "dressing.api"),
    (dressing, "rotation_from_dressing", "dressing.api"),
    (dressing, "check_beta_systems", "dressing.beta_check"),
    (dressing, "lame_from_rotation", "dressing.api"),
    (cli, "main", "cli.main"),
    (np.linalg, "cond", "linalg.cond"),
    (np.linalg, "solve", "linalg.solve"),
)

# (class, method, span name)
METHODS = (
    (numerics.RationalDifferential, "residue", "numerics.residue"),
    (baker.Solver, "__init__", "baker.solver_build"),
    (baker.Solver, "matrices", "baker.assemble"),
    (baker.Solver, "solve_batch", "baker.solve_batch"),
    (baker.Solver, "map_batch", "baker.map"),
    (baker.Solver, "h_batch", "baker.map"),
    (dressing.Grid, "nodes", "dressing.nodes"),
)

# operation id of spans recorded while the benchmark sets up; only
# gallery.build.busy_s counts them
SETUP_OP = "setup"

DRESSING_REFUSALS = (errors.TailTooFat, errors.SingularFredholm,
                     errors.IncompatibleField)

# per-layer metric name -> (unit, better, the end-to-end metric and
# workload it should move); the order is the print order
_ALL = "setup_s on every workload"
PER_LAYER = {
    "numerics.residue.calls": ("count", "lower", "cli-light op_p50_s"),
    "numerics.residue.busy_s": ("s", "lower", "cli-light op_p50_s, " + _ALL),
    "curve.validate.calls": ("count", "lower", "cli-light op_p50_s"),
    "curve.validate.busy_s": ("s", "lower", "cli-light op_p50_s"),
    "gallery.build.busy_s": ("s", "lower", _ALL),
    "baker.solver_build.calls": ("count", "lower", "cli-light op_p50_s"),
    "baker.solver_build.busy_s": ("s", "lower", "cli-light op_p50_s"),
    "baker.map_points": ("count", "lower",
                         "verify-sph4 op_p50_s and peak_rss_mb"),
    "baker.map_points_per_sample": ("points/sample", "lower",
                                    "verify-sph4 op_p50_s and peak_rss_mb"),
    "baker.solve_batch.calls": ("count", "lower", "verify-sph4 op_p50_s"),
    "baker.assemble.busy_s": ("s", "lower",
                              "verify-sph4 op_p50_s, cli-light points_per_s"),
    "baker.cond.busy_s": ("s", "lower",
                          "verify-sph4 op_p50_s, cli-light points_per_s"),
    "baker.linsolve.busy_s": ("s", "lower",
                              "verify-sph4 op_p50_s, cli-light points_per_s"),
    "baker.solve_batch.self_s": ("s", "lower", "verify-sph4 op_p50_s, "
                                 "cli-light points_per_s"),
    "baker.singular.count": ("count", "lower", "failed calls"),
    "baker.solvable_radius_min": ("abs_u", "higher",
                                  "none: a probe outside the timed mixes"),
    "geometry.report.calls": ("count", "lower", "verify-sph4 op_p50_s"),
    "geometry.busy_s": ("s", "lower", "verify-sph4 op_p50_s"),
    "geometry.map_calls": ("count", "lower", "verify-sph4 op_p50_s"),
    "geometry.epsilon.busy_s": ("s", "lower", "verify-sph4 op_p50_s"),
    "dressing.nystrom.calls": ("count", "lower", "dress-n3 op_p50_s"),
    "dressing.nystrom.size": ("count", "lower", "dress-n3 op_p50_s"),
    "dressing.nystrom_per_sample": ("solves/sample", "lower",
                                    "dress-n3 op_p50_s"),
    "dressing.cond.busy_s": ("s", "lower", "dress-n3 op_p50_s"),
    "dressing.linsolve.busy_s": ("s", "lower", "dress-n3 op_p50_s"),
    "dressing.nodes.calls": ("count", "lower", "dress-n3 op_p50_s"),
    "dressing.nodes.busy_s": ("s", "lower", "dress-n3 op_p50_s"),
    "dressing.kernel.busy_s": ("s", "lower", "dress-n3 op_p50_s"),
    "dressing.nystrom.self_s": ("s", "lower", "dress-n3 op_p50_s"),
    "dressing.beta_check.calls": ("count", "lower", "dress-n3 op_p50_s"),
    "dressing.refused.count": ("count", "lower", "failed calls"),
    "cli.self_s": ("s", "lower", "cli-light points_per_s"),
    "cli.pool_wait_s": ("s", "lower", "verify-sph4 op_p50_s"),
    "cli.pool_concurrency": ("threads", "higher", "verify-sph4 op_p50_s"),
    "cli.output_bytes": ("B", "lower", "none: recorded"),
    "trace.overhead": ("ratio", "lower", "none: cost of tracing"),
}


# span record fields
ID, NAME, START, END, PARENT, THREAD, OP, VALUE, ERROR = range(9)


def _span_value(name, args, kwargs):
    """Size carried by a span: u-rows of a solve_batch, n*N of a Nystrom
    system."""
    if name == "baker.solve_batch":
        us = args[1] if len(args) > 1 else kwargs.get("us")
        return None if us is None else int(np.atleast_2d(us).shape[0])
    if name == "dressing.nystrom":
        n = args[1] if len(args) > 1 else kwargs.get("n")
        grid = args[2] if len(args) > 2 else kwargs.get("grid")
        return None if n is None or grid is None else int(n) * int(grid.N)
    return None


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self.op = None  # id of the operation in flight, set by the runner
        self.main_thread = threading.get_ident()
        self._ids = itertools.count()
        self._local = threading.local()
        self._installed = []  # (owner, attribute, original)

    # -- spans ---------------------------------------------------------------

    def _open(self, name, value=None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        rec = [next(self._ids), name, time.perf_counter(), None,
               stack[-1] if stack else None, threading.get_ident(), self.op,
               value, None]
        self.spans.append(rec)
        stack.append(rec[ID])
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self._local.stack.pop()

    def wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(name, _span_value(name, args, kwargs))
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = exc
                raise
            finally:
                tracer._close(rec)

        return traced

    # -- install / uninstall -------------------------------------------------

    def _replace(self, owner, attr, new):
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        package = [m for name, m in sorted(sys.modules.items())
                   if name == "spectral_coords"
                   or name.startswith("spectral_coords.")]
        # a target the program no longer has is skipped, so the benchmark
        # keeps running across refactors; its metrics then read 0
        for module, attr, name in FUNCTIONS:
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self.wrap(original, name)
            for holder in [module] + [m for m in package if m is not module]:
                for bound, value in list(vars(holder).items()):
                    if value is original:
                        self._replace(holder, bound, wrapper)
        for cls, attr, name in METHODS:
            if attr in vars(cls):
                self._replace(cls, attr, self.wrap(vars(cls)[attr], name))
        if getattr(cli, "ThreadPoolExecutor", None) is ThreadPoolExecutor:
            self._replace(cli, "ThreadPoolExecutor", self._pool_class())
        return self

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc_info):
        self.uninstall()

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            """Records the caller's wait on the pool as a cli.pool span."""

            def __enter__(self):
                self._bench_span = tracer._open("cli.pool")
                return super().__enter__()

            def __exit__(self, *exc_info):
                try:
                    return super().__exit__(*exc_info)
                finally:
                    tracer._close(self._bench_span)

        return TracedPool

    def write(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "thread", "op",
                "value", "error")
        with open(path, "w") as fh:
            for rec in self.spans:
                row = dict(zip(keys, rec))
                if row["error"] is not None:
                    row["error"] = type(row["error"]).__name__
                fh.write(json.dumps(row) + "\n")

    # -- aggregation ---------------------------------------------------------

    def metrics(self, op_points: dict, op_walls: dict, untraced_wall: float,
                output_bytes: int, solvable_radius: float) -> dict:
        """Per-layer metrics of the spans recorded so far.

        Set-up spans count only toward gallery.build.busy_s. op_points and
        op_walls give, per op kind, the u-points delivered and the wall
        seconds of the traced operations.
        """
        setup = {r[ID]: r for r in self.spans if r[OP] == SETUP_OP}
        calls_only = {r[ID]: r for r in self.spans
                      if r[END] is not None and r[OP] != SETUP_OP}
        child_time = {}
        for r in calls_only.values():
            if r[PARENT] is not None:
                child_time[r[PARENT]] = child_time.get(r[PARENT], 0.0) \
                    + r[END] - r[START]

        def ancestors(r, spans=calls_only):
            while r[PARENT] is not None and r[PARENT] in spans:
                r = spans[r[PARENT]]
                yield r

        def layer(r):
            for up in [r] + list(ancestors(r)):
                if not up[NAME].startswith("linalg."):
                    return up[NAME].split(".")[0]
            return "bench"

        def chosen(name, under=None):
            return [r for r in calls_only.values() if r[NAME] == name
                    and (under is None or layer(r) == under)]

        def calls(name):
            return float(len(chosen(name)))

        def busy(name, under=None, spans=calls_only):
            return sum(r[END] - r[START] for r in spans.values()
                       if r[NAME] == name
                       and (under is None or layer(r) == under)
                       and r[END] is not None
                       and all(up[NAME] != name
                               for up in ancestors(r, spans)))

        def self_time(r):
            return r[END] - r[START] - child_time.get(r[ID], 0.0)

        def ratio(a, b):
            return a / b if b else 0.0

        def refused(r):
            # count an exception once, where it was raised
            parent = calls_only.get(r[PARENT])
            return isinstance(r[ERROR], DRESSING_REFUSALS) and not (
                parent is not None and parent[ERROR] is r[ERROR])

        map_points = sum(r[VALUE] or 0 for r in chosen("baker.solve_batch"))
        baker_points = sum(op_points.get(k, 0) for k in
                           ("verify", "solve", "grid"))
        workers = sum(r[END] - r[START] for r in calls_only.values()
                      if r[PARENT] is None and r[THREAD] != self.main_thread)
        out = {
            "numerics.residue.calls": calls("numerics.residue"),
            "numerics.residue.busy_s": busy("numerics.residue"),
            "curve.validate.calls": calls("curve.validate"),
            "curve.validate.busy_s": busy("curve.validate"),
            "gallery.build.busy_s": busy("gallery.build", spans=setup),
            "baker.solver_build.calls": calls("baker.solver_build"),
            "baker.solver_build.busy_s": busy("baker.solver_build"),
            "baker.map_points": float(map_points),
            "baker.map_points_per_sample": ratio(map_points, baker_points),
            "baker.solve_batch.calls": calls("baker.solve_batch"),
            "baker.assemble.busy_s": busy("baker.assemble"),
            "baker.cond.busy_s": busy("linalg.cond", "baker"),
            "baker.linsolve.busy_s": busy("linalg.solve", "baker"),
            "baker.solve_batch.self_s": sum(
                self_time(r) for r in chosen("baker.solve_batch")),
            "baker.singular.count": float(sum(
                isinstance(r[ERROR], errors.SingularSystem)
                for r in chosen("baker.solve_batch"))),
            "baker.solvable_radius_min": float(solvable_radius),
            "geometry.report.calls": calls("geometry.report"),
            "geometry.busy_s": sum(self_time(r) for r in calls_only.values()
                                   if r[NAME].startswith("geometry.")),
            "geometry.map_calls": float(sum(
                any(up[NAME].startswith("geometry.") for up in ancestors(r))
                for r in chosen("baker.map"))),
            "geometry.epsilon.busy_s": busy("geometry.epsilon"),
            "dressing.nystrom.calls": calls("dressing.nystrom"),
            "dressing.nystrom.size": float(max(
                (r[VALUE] or 0 for r in chosen("dressing.nystrom")),
                default=0)),
            "dressing.nystrom_per_sample": ratio(calls("dressing.nystrom"),
                                                 op_points.get("dress", 0)),
            "dressing.cond.busy_s": busy("linalg.cond", "dressing"),
            "dressing.linsolve.busy_s": busy("linalg.solve", "dressing"),
            "dressing.nodes.calls": calls("dressing.nodes"),
            "dressing.nodes.busy_s": busy("dressing.nodes"),
            "dressing.kernel.busy_s": busy("dressing.kernel"),
            "dressing.nystrom.self_s": sum(
                self_time(r) for r in chosen("dressing.nystrom")),
            "dressing.beta_check.calls": calls("dressing.beta_check"),
            "dressing.refused.count": float(sum(
                refused(r) for r in calls_only.values()
                if r[NAME].startswith("dressing."))),
            "cli.self_s": sum(self_time(r) for r in chosen("cli.main")),
            "cli.pool_wait_s": busy("cli.pool"),
            "cli.pool_concurrency": ratio(workers, op_walls.get("verify", 0)),
            "cli.output_bytes": float(output_bytes),
            "trace.overhead": ratio(sum(op_walls.values()), untraced_wall),
        }
        assert list(out) == list(PER_LAYER)
        return {k: float(v) for k, v in out.items()}
