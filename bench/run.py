"""Benchmark for spectral-coords: closed-loop CLI workloads, timed end to end,
with a separate traced run for per-layer numbers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

One process per workload. It imports the program from ``src/`` of the
checkout, writes the workload's inputs from the seed (inputs.py), and
drives ``spectral_coords.cli.main`` in-process with one client: the next
call starts when the previous one returns (harness.py). Every output is
checked (checks.py); a wrong exit code, an exception or a failed check
counts the call as failed. The last line of stdout is one JSON object with
keys correct, attempted, failed and metrics; a run-info block and a table
go to stderr. ``--workload all`` runs each workload in turn in its own
process and prints their results as one JSON object.

Workloads:
- verify-sph4: verify on spherical4 over two seeded samples per call. The
  finite-difference geometry path: five lattices of up to 13^4 points per
  sample, about 70k map points per sample, run on the verify thread pool.
- dress-n3: dress on seeded n = 3 gaussian-product kernels near the
  acceptance spec, 200 Gauss-Legendre nodes, 3-point u-grid: the
  integral-equation route alone (24 dense 600x600 Nystrom solves a call).
- cli-light: cycles of validate and solve --u on every gallery entry plus
  spherical6, and four ~1e4-point CSV grids: small calls whose fixed costs
  (JSON, residue quadrature, validators, Solver builds) dominate.

End-to-end metrics (--trace 0), per workload:
- setup_s: the median of SETUP_ROUNDS imports of the program in a fresh
  interpreter plus the median of SETUP_ROUNDS in-process set-ups, each of
  which generates the inputs, parses every config and kernel spec, builds
  their Solvers, runs the validators and makes one cheap warm-up call.
- op_p50_s / op_tail_s: median and TAIL_PERCENTILE[workload] of the wall
  time of one CLI call.
- points_per_s: u-points delivered by successful calls (verified samples,
  grid lattice points, solved --u, dressed u-samples) per second of call
  wall time.
- peak_rss_mb: peak resident memory of the process.
fail_ratio (failed / attempted) is printed in the table and carried by the
result's attempted and failed counts.

Per-layer metrics (--trace 1) come from tracing.py: one set-up round and
the first TRACE_ROUNDS[workload] rounds of calls run traced, each call
first untraced; the traced outputs must equal the untraced ones, and
trace.overhead is the ratio of the two walls. Spans are written to
trace.jsonl in the work directory.
"""

import argparse
import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
WORKLOADS = ("verify-sph4", "dress-n3", "cli-light")


def load_program():
    """Import spectral_coords from the checkout's src/, never elsewhere."""
    package = os.path.join(SRC, "spectral_coords")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise RuntimeError(f"no program source at {package}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import spectral_coords
    found = os.path.realpath(os.path.dirname(spectral_coords.__file__))
    if found != os.path.realpath(package):
        raise RuntimeError(f"spectral_coords imported from {found}, "
                           f"not from {package}")


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    # read before anything starts the verify pool, which would honour it
    threads_env = os.environ.pop("SPECTRAL_COORDS_THREADS", None)
    try:
        load_program()
    except (RuntimeError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import harness
    return harness.run_workload(args.workload, args.seed, args.seconds,
                                bool(args.trace), threads_env)


if __name__ == "__main__":
    sys.exit(main())
