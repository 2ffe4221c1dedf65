"""Tests of the benchmark itself: seeded inputs, metric names, the tracer's
install/uninstall round trip and pool attribution, and failure counting.

Run with ``python3 -m pytest bench``.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import run  # noqa: E402

run.load_program()

import checks  # noqa: E402
import harness  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from spectral_coords import baker, cli, curve, dressing, gallery  # noqa: E402

with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "WORK", str(tmp_path / "work"))
    monkeypatch.delenv("SPECTRAL_COORDS_THREADS", raising=False)
    return tmp_path


def _tree(path):
    return {name: (path / name).read_bytes()
            for name in sorted(os.listdir(path))}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload):
    a = inputs.generate(workload, 11, str(tmp_path / "a"))
    b = inputs.generate(workload, 11, str(tmp_path / "b"))
    inputs.generate(workload, 12, str(tmp_path / "c"))
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")
    assert [[op.kind for op in r] for r in a.rounds] == \
        [[op.kind for op in r] for r in b.rounds]


def test_dress_kernels_stay_inside_the_tail_bound(tmp_path):
    assert inputs.kernel_tail_bound(inputs.ACCEPTANCE_KERNEL) \
        < dressing.TAIL_BOUND
    plan = inputs.generate("dress-n3", 5, str(tmp_path))
    for path in plan.files:
        with open(path) as fh:
            spec = json.load(fh)
        rows = [(e["i"], e["j"],
                 tuple(e["params"]["first"][k] for k in ("amp", "rate",
                                                          "center")),
                 tuple(e["params"]["second"][k] for k in ("amp", "rate",
                                                           "center")))
                for e in spec["phi"]]
        assert inputs.kernel_tail_bound(rows) <= 0.5 * dressing.TAIL_BOUND


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def test_end_to_end_metric_names_match_benchmark_json(workdir, capsys):
    assert run.main(["--workload", "cli-light", "--seed", "3",
                     "--seconds", "0.1", "--trace", "0"]) == 0
    result = _last_json(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(
        inputs.generate("cli-light", 3, str(workdir / "again")).rounds[0])
    assert all(v["value"] > 0 for v in result["metrics"].values())


def _small_plan(tmp_path):
    """One round touching every layer cheaply, on polar and a small kernel."""
    polar = inputs._gallery_config(str(tmp_path), "polar")
    kernel = os.path.join(str(tmp_path), "kernel.json")
    with open(kernel, "w") as fh:
        json.dump(inputs.kernel_json(inputs.ACCEPTANCE_KERNEL), fh)
    ops = (
        inputs.Op("validate", ("validate", polar), 0, "polar", 2),
        inputs.Op("solve", ("solve", polar, "--u=-0.2,0.3"), 1, "polar", 2),
        inputs.Op("grid", ("grid", polar, "--grid", "1:-0.2:0.2:3;2:0:1:4"),
                  12, "polar", 2),
        inputs.Op("verify", ("verify", polar, "--grid",
                             "1:-0.2:0.2:2;2:0.1:0.3:2"), 4, "polar", 2),
        inputs.Op("dress", ("dress", kernel, "--nodes", "32", "--grid",
                            "1:-0.1:0.1:3"), 3, n=3),
    )
    return inputs.Plan((ops,), (polar, kernel))


def _executor():
    return harness.Executor({"polar": gallery.build("polar").reference},
                            keep_output=True)


def test_traced_run_reports_every_per_layer_metric(workdir):
    plan = _small_plan(workdir)
    records, metrics = harness.traced_run("cli-light", 4, plan, _executor())
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v[0] for k, v in tracing.PER_LAYER.items()} == units
    assert [r["failure"] for r in records] == [None] * 2 * len(plan.rounds[0])
    assert metrics["baker.map_points"] > 0
    assert metrics["dressing.nystrom_per_sample"] == 8.0
    assert metrics["geometry.report.calls"] == 4.0
    assert metrics["baker.solvable_radius_min"] == 12.0
    assert metrics["gallery.build.busy_s"] > 0
    assert os.path.isfile(os.path.join(harness.WORK, "cli-light-s4",
                                       "trace.jsonl"))


def _snapshot():
    owners = [m for name, m in sys.modules.items()
              if name == "spectral_coords"
              or name.startswith("spectral_coords.")]
    owners += [np.linalg] + [cls for cls, _, _ in tracing.METHODS]
    return {id(owner): (owner, dict(vars(owner))) for owner in owners}


def test_tracer_install_uninstall_round_trip():
    before = _snapshot()
    original = curve.validate_counting
    original_solve = vars(baker.Solver)["solve_batch"]
    original_cond = np.linalg.cond
    original_pool = cli.ThreadPoolExecutor
    with tracing.Tracer():
        # one wrapper at every binding site of a from-imported name
        assert curve.validate_counting is not original
        assert baker.validate_counting is curve.validate_counting
        assert cli.validate_counting is curve.validate_counting
        assert vars(baker.Solver)["solve_batch"] is not original_solve
        assert np.linalg.cond is not original_cond
        assert cli.ThreadPoolExecutor is not original_pool
    after = _snapshot()
    assert before.keys() == after.keys()
    for key, (owner, attrs) in before.items():
        now = after[key][1]
        assert attrs.keys() == now.keys(), owner
        assert all(now[k] is v for k, v in attrs.items()), owner


def test_pool_worker_spans_belong_to_their_operation(tmp_path):
    op = _small_plan(tmp_path).rounds[0][3]
    execute = _executor()
    execute(op)  # an untraced call first, so operation ids start at 1
    tracer = execute.tracer = tracing.Tracer()
    with tracer:
        record = execute(op)
    assert record["failure"] is None
    workers = [s for s in tracer.spans
               if s[tracing.THREAD] != tracer.main_thread]
    assert workers
    assert {s[tracing.OP] for s in tracer.spans} == {1}
    roots = [s for s in workers if s[tracing.PARENT] is None]
    assert {s[tracing.NAME] for s in roots} == {"geometry.report"}
    metrics = tracer.metrics({"verify": 4}, {"verify": record["wall"]},
                             record["wall"], 0, 0.0)
    assert metrics["geometry.report.calls"] == 4.0
    assert metrics["cli.pool_concurrency"] > 0
    assert metrics["cli.pool_wait_s"] > 0


def _corrupt_number(text, after):
    """Change the first digit that follows the marker."""
    start = text.index(after) + len(after)
    k = next(i for i in range(start, len(text)) if text[i] in "123456789")
    return text[:k] + str(int(text[k]) % 9 + 1) + text[k + 1:]


def test_corrupted_outputs_count_as_failures(tmp_path):
    ops = {op.kind: op for op in _small_plan(tmp_path).rounds[0]}
    execute = _executor()
    good = {kind: execute(op) for kind, op in ops.items()}
    assert all(r["failure"] is None for r in good.values())
    refs = execute.references
    bad = {
        "solve": _corrupt_number(good["solve"]["out"], '"x": [\n'),
        "grid": _corrupt_number(good["grid"]["out"], "\n-0.2,0.0,"),
        "verify": good["verify"]["out"].replace('"passed": true',
                                                '"passed": false'),
        "validate": good["validate"]["out"][:-5],
        "dress": good["dress"]["out"].replace('"beta": [', '"beta": [], '
                                              '"unused": [', 1),
    }
    for kind, text in bad.items():
        assert checks.check(ops[kind], 0, text, refs) is not None, kind
    assert checks.check(ops["solve"], 1, good["solve"]["out"], refs) \
        is not None

    class CorruptingCli:
        @staticmethod
        def main(argv):
            sys.stdout.write(bad["solve"])
            return 0

    records = [harness.Executor(refs, program=CorruptingCli)(ops["solve"]),
               good["validate"]]
    result = harness.result_line(records, {}, {})
    assert (result["correct"], result["attempted"], result["failed"]) == \
        (False, 2, 1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-light",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
