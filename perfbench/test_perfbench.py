"""Tests of the benchmark itself: metric helpers, checks, tracing, repeatability.

    python3 -m pytest perfbench -q

``test_counts_repeat_exactly`` runs one traced cycle of every workload twice
and takes a few minutes.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from budgetcore import cli, model  # noqa: E402


def test_tail_keeps_ten_ops_above_it():
    xs = list(range(1, 37))
    pct, value = run.tail(xs)
    assert (pct, value) == (72, 26)
    assert sum(x > value for x in xs) == 10
    assert run.tail([3.0, 1.0, 2.0]) == (100, 3.0)


def test_self_time_subtracts_children():
    spans = [
        ["cli.solve", 0.0, 10.0, -1, 0],
        ["ballots.parse_votes", 1.0, 3.0, 0, 0],
        ["lindahl.solve_potential", 3.0, 9.0, 0, 0],
        ["lindahl.lindahl_residuals", 4.0, 5.0, 2, 0],
        ["lindahl.lindahl_residuals", 4.2, 4.6, 3, 0],  # nested in itself
    ]
    busy, own = tracing.busy_and_self(spans)
    assert own["cli.solve"] == pytest.approx(2.0)
    assert own["lindahl.solve_potential"] == pytest.approx(5.0)
    assert busy["lindahl.lindahl_residuals"] == pytest.approx(1.0)
    assert busy["cli.solve"] == pytest.approx(10.0)


def test_install_restores_every_patch():
    originals = (cli.parse_votes, cli.main, model.Linear.__dict__.get("utilities_all"))
    with tracing.install(tracing.Tracer()):
        assert cli.parse_votes is not originals[0]
        assert "utilities_all" in model.Linear.__dict__
    assert (cli.parse_votes, cli.main, model.Linear.__dict__.get("utilities_all")) == originals


def test_checks_reject_broken_outputs():
    with pytest.raises(workloads.CheckFailed):
        workloads.check_gains([0.0, 1e-3], [0.0, 0.0], truthful=1, eps=0.1)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_gains([0.0, 0.5], [0.0, 0.01], truthful=0, eps=0.1)
    workloads.check_gains([0.0, 0.1], [0.0, 0.01], truthful=0, eps=0.1)
    assert not workloads.in_floored_simplex(np.array([0.05, 0.5, 0.4]), n=100, gamma=0.5)
    assert workloads.in_floored_simplex(np.array([0.2, 0.3, 0.4]), n=100, gamma=0.5)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_solve({"converged": True,
                               "certificate": {"epsilon": "nan", "budget_ok": True}})
    u = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    dev = {"coalition": [1, 2], "y": {"x": [0.0, 2 / 3]}}
    workloads.verify_additive_deviation(dev, u, np.array([0.9, 0.1]), 1.0, 1e-3)
    too_dear = {"coalition": [1, 2], "y": {"x": [0.0, 0.9]}}
    with pytest.raises(workloads.CheckFailed):
        workloads.verify_additive_deviation(too_dear, u, np.array([0.9, 0.1]), 1.0, 1e-3)


def test_benchmark_file_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _traced_cycle_counts(name, seed, work_dir):
    workload = workloads.WORKLOADS[name](seed, work_dir)
    workload.warm_up()
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        records = [run.run_op(op, workloads.CheckFailed, tracer, i)
                   for i, op in enumerate(workload.cycle)]
    assert [r.error for r in records if r.error] == []
    metrics = tracing.layer_metrics(tracer, cycles=1)
    metrics["trace.ops"] = len(records)
    return {key: metrics[key] for key in tracing.EXACT_COUNTS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly(name, tmp_path):
    first = _traced_cycle_counts(name, 7, tmp_path / "a")
    second = _traced_cycle_counts(name, 7, tmp_path / "b")
    assert first == second
    assert all(math.isfinite(v) for v in first.values())
    assert first["trace.ops"] > 0
