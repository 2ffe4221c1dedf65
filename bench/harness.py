"""Set-up, closed-loop timing, output checking and traced runs for one
workload; bench/run.py imports this once the program is importable.
"""

import contextlib
import ctypes
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import checks
import inputs
import spectral_coords
import tracing
from spectral_coords import baker, cli, curve, dressing, errors, gallery

SRC = os.path.dirname(os.path.dirname(
    os.path.abspath(spectral_coords.__file__)))
ROOT = os.path.dirname(SRC)
WORK = os.path.join(ROOT, ".bench_work")

SETUP_ROUNDS = 5
# verify-sph4 and dress-n3 fit about 4-7 and 15-23 calls in a 40 s run,
# too few to leave ten beyond any tail percentile; cli-light's 570-990
# calls leave 28-50 beyond p95, which sits among grid calls of similar cost
# (p97 and p98 would straddle two grid entries of different cost).
TAIL_PERCENTILE = {"verify-sph4": 75, "dress-n3": 90, "cli-light": 95}
TRACE_ROUNDS = {"verify-sph4": 2, "dress-n3": 4, "cli-light": 1}
END_TO_END = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s",
              "points_per_s": "1/s", "peak_rss_mb": "MiB"}
# |u_k| rungs for baker.solvable_radius_min, probed at u_k = r (-1)^k
SOLVABLE_LADDER = tuple(range(2, 41, 2))
LEFT_OUT = (
    "verify on spherical5: about 5 GB per lattice kills the process on a "
    "7 GB machine instead of failing a call; peak_rss_mb on verify-sph4 "
    "tracks that cost",
    "solves at large |u|, which SingularSystem refuses: kept out of the "
    "timed mixes and tracked by baker.solvable_radius_min",
)


# ---------------------------------------------------------------------------
# run information
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def run_info(threads_env) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    mem_mb = None
    with contextlib.suppress(OSError, ValueError, IndexError):
        with open("/proc/meminfo") as fh:
            mem_mb = int(fh.readline().split()[1]) // 1024
    return {
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": mem_mb,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "SPECTRAL_COORDS_THREADS": threads_env,
        "verify_pool_threads": (cli._max_workers()
                                if hasattr(cli, "_max_workers") else None),
        "left_out": list(LEFT_OUT),
    }


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

class Executor:
    """Runs plan operations through cli.main and checks their outputs."""

    def __init__(self, references, keep_output=False, program=cli):
        self.program = program  # what provides main(); tests pass a fake
        self.references = references
        # outputs are dropped after their check unless kept, so the
        # benchmark's own memory stays out of peak_rss_mb
        self.keep_output = keep_output
        self.tracer = None
        self.next_id = 0

    def __call__(self, op) -> dict:
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.op = self.next_id
        self.next_id += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = self.program.main(list(op.argv))
        except Exception:
            code = None
            failure = "exception: " + traceback.format_exc(limit=4)
        wall = time.perf_counter() - start
        text = out.getvalue()
        if code is not None:
            failure = checks.check(op, code, text, self.references)
            if failure is not None and err.getvalue().strip():
                failure += f" (stderr: {err.getvalue().strip()[:200]})"
        return {"op": op, "wall": wall, "failure": failure,
                "out": text if self.keep_output else None,
                "out_bytes": len(text.encode())}


def _prepare(plan) -> dict:
    """Parse and validate every input of the plan, make one cheap call per
    input kind, and return the reference maps the checks use."""
    references = {}
    warm = None
    for path in plan.files:
        with open(path) as fh:
            obj = json.load(fh)
        if "phi" in obj:
            dressing.KernelSpec.from_json(obj)
            warm = warm or ["dress", path, "--nodes", "16"]
            continue
        data = curve.SpectralData.from_json(obj)
        baker.Solver(data)
        curve.check_regular(data)
        curve.check_Q_residues(data)
        if data.sigma is not None:
            curve.check_involution(data)
        name = os.path.splitext(os.path.basename(path))[0]
        entry = (gallery.build(name) if name in gallery.BUILDERS
                 else gallery.spherical_n(data.n))
        references[name] = entry.reference
        warm = warm or ["solve", path, "--u=" + ",".join(["0.1"] * data.n)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(warm)
    if code != cli.EXIT_OK:
        raise RuntimeError(f"warm-up {warm} exited {code}")
    return references


_IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                 "import spectral_coords.cli; "
                 "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Time to import the program in a fresh interpreter, which every
    spectral-coords command pays."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                          env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return float(proc.stdout)


def setup(workload, seed):
    """(plan, references, setup seconds, work directory).

    The set-up time is the median of SETUP_ROUNDS fresh-interpreter imports
    plus the median of SETUP_ROUNDS in-process set-ups, each of which
    writes the inputs, parses and validates them and warms up."""
    workdir = os.path.join(WORK, f"{workload}-s{seed}")
    imports, rounds = [], []
    for _ in range(SETUP_ROUNDS):
        imports.append(import_seconds())
        start = time.perf_counter()
        plan = inputs.generate(workload, seed, workdir)
        references = _prepare(plan)
        rounds.append(time.perf_counter() - start)
    print(f"set-up: imports {', '.join(f'{r:.4f}' for r in imports)} s, "
          f"rounds {', '.join(f'{r:.4f}' for r in rounds)} s",
          file=sys.stderr)
    setup_s = statistics.median(imports) + statistics.median(rounds)
    return plan, references, setup_s, workdir


def timed_loop(plan, seconds, execute):
    """Run whole rounds, starting one only while the median round so far
    still fits inside the budget."""
    records, round_walls = [], []
    start = time.perf_counter()
    k = 0
    while not round_walls or (time.perf_counter() - start
                              + statistics.median(round_walls) <= seconds):
        round_start = time.perf_counter()
        for op in plan.rounds[k % len(plan.rounds)]:
            records.append(execute(op))
        round_walls.append(time.perf_counter() - round_start)
        k += 1
    return records


def percentile(values, pct) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), pct))


def end_to_end(workload, records, setup_s) -> dict:
    walls = [r["wall"] for r in records]
    points = sum(r["op"].points for r in records if r["failure"] is None)
    return {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(walls),
        "op_tail_s": percentile(walls, TAIL_PERCENTILE[workload]),
        "points_per_s": points / sum(walls),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def solvable_radius() -> float:
    """Smallest, over gallery entries, of the largest ladder rung r at which
    u_k = r (-1)^k solves without SingularSystem."""
    radii = []
    for name in sorted(gallery.BUILDERS):
        data = gallery.build(name).data
        solver = baker.Solver(data)
        signs = (-1.0) ** np.arange(data.n)
        best = 0
        for r in SOLVABLE_LADDER:
            try:
                solver.solve_batch(r * signs)
                best = r
            except errors.SingularSystem:
                pass
        radii.append(best)
    return float(min(radii))


def traced_run(workload, seed, plan, execute):
    """Per-layer metrics from one traced set-up round and the first
    TRACE_ROUNDS rounds of calls, each call run untraced and then traced."""
    workdir = os.path.join(WORK, f"{workload}-s{seed}")
    tracer = tracing.Tracer()
    tracer.op = tracing.SETUP_OP
    with tracer:
        _prepare(inputs.generate(workload, seed, workdir))
    plain, traced = [], []
    for op in (op for r in plan.rounds[:TRACE_ROUNDS[workload]] for op in r):
        plain.append(execute(op))
        execute.tracer = tracer
        try:
            with tracer:
                traced.append(execute(op))
        finally:
            execute.tracer = None
        if traced[-1]["failure"] is None \
                and traced[-1]["out"] != plain[-1]["out"]:
            traced[-1]["failure"] = "traced output differs from untraced"
    op_points, op_walls = {}, {}
    for r in traced:
        kind = r["op"].kind
        op_walls[kind] = op_walls.get(kind, 0.0) + r["wall"]
        if r["failure"] is None:
            op_points[kind] = op_points.get(kind, 0) + r["op"].points
    metrics = tracer.metrics(
        op_points, op_walls,
        untraced_wall=sum(r["wall"] for r in plain),
        output_bytes=sum(r["out_bytes"] for r in traced),
        solvable_radius=solvable_radius())
    tracer.write(os.path.join(workdir, "trace.jsonl"))
    return plain + traced, metrics


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def result_line(records, metrics, units) -> dict:
    failed = sum(1 for r in records if r["failure"] is not None)
    return {"correct": failed == 0, "attempted": len(records),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def print_table(workload, result, records, extra, notes=None):
    lines = [f"workload {workload}: {result['attempted']} calls, "
             f"{result['failed']} failed, fail_ratio "
             f"{result['failed'] / result['attempted']:.4f}"]
    for key, value in extra.items():
        lines.append(f"  {key}: {value}")
    for name, m in result["metrics"].items():
        note = f"  moves {notes[name]}" if notes else ""
        lines.append(f"  {name:30s} {m['value']:14.6g} {m['unit']:13s}"
                     + note)
    for r in records:
        if r["failure"] is not None:
            lines.append(f"  FAILED {' '.join(r['op'].argv)}: {r['failure']}")
    print("\n".join(lines), file=sys.stderr)


def run_workload(workload, seed, seconds, trace, threads_env) -> int:
    plan, references, setup_s, workdir = setup(workload, seed)
    info = run_info(threads_env)
    with open(os.path.join(workdir, "run_info.json"), "w") as fh:
        json.dump(info, fh, indent=2)
    print(json.dumps({"run_info": info}, indent=2), file=sys.stderr)

    execute = Executor(references, keep_output=trace)
    notes = None
    if trace:
        records, metrics = traced_run(workload, seed, plan, execute)
        units = {k: v[0] for k, v in tracing.PER_LAYER.items()}
        extra = {"traced rounds": TRACE_ROUNDS[workload]}
        notes = {k: v[2] for k, v in tracing.PER_LAYER.items()}
    else:
        records = timed_loop(plan, seconds, execute)
        metrics = end_to_end(workload, records, setup_s)
        units = END_TO_END
        extra = {"tail percentile": TAIL_PERCENTILE[workload]}
    result = result_line(records, metrics, units)
    print_table(workload, result, records, extra, notes)
    print(json.dumps(result))
    return 0
