"""Tests of the benchmark itself: tiny runs of every workload, the output
checkers against corrupted results, and the refusal to run outside a
checkout.  Run with `python3 -m pytest benchmark/tests` from the root."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import BENCH, ROOT

import checks
import run
from ineqlab import GridSpec, make, maximal_packing, w2_squared
from ineqlab.cli import main as cli_main

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run(workload):
    proc = bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_traced_run(workload):
    proc = bench(workload, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    if workload == "w2-certify":
        assert metrics["transport.exact_solves"]["value"] > 0
        assert 0 < metrics["transport.plan_fill"]["value"] <= 1
    else:
        assert metrics["transport.calls"]["value"] == 0
    if workload == "levelset":
        assert metrics["levelgeom.coarea_levels"]["value"] > 0
        assert metrics["levelgeom.packing_centers"]["value"] > 0
    if workload == "sweep-cli":
        assert metrics["cli.csv_bytes"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("levelset", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_percentile_keeps_ten_jobs_beyond():
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(50) == 80.0
    assert run.tail_percentile(49) == 75.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0


def _pair():
    spec = GridSpec(2, 8, 1.0)
    rng = np.random.default_rng(0)
    a = np.where(rng.random(64) < 0.3, rng.uniform(0.5, 1.0, 64), 0.0)
    b = np.where(rng.random(64) < 0.3, rng.uniform(0.5, 1.0, 64), 0.0)
    b *= a.sum() / b.sum()
    return make(spec, a), make(spec, b)


def test_exact_solve_checker_accepts_and_rejects_moved_mass():
    u, v = _pair()
    res = w2_squared(u, v)
    assert checks.check_exact_solve(u, v, res) == []
    entries = res.plan.entries.copy()
    moved = entries[0, 2] / 2
    entries[0, 2] -= moved
    other = np.flatnonzero(entries[:, 1] != entries[0, 1])[0]
    entries[other, 2] += moved
    bad = type(res)(res.value, type(res.plan)(entries, res.plan.cost), res.duals, res.method,
                    res.gap, res.marginal_residual)
    assert any("sums" in e for e in checks.check_exact_solve(u, v, bad))


def test_exact_solve_checker_rejects_infeasible_duals():
    u, v = _pair()
    res = w2_squared(u, v)
    duals = type(res.duals)(res.duals.phi + 0.01, res.duals.psi, res.duals.value, res.duals.feasibility_slack)
    bad = type(res)(res.value, res.plan, duals, res.method, res.gap, res.marginal_residual)
    assert checks.check_exact_solve(u, v, bad)


def test_replay_checker_rejects_one_changed_byte(tmp_path):
    out, again = tmp_path / "a", tmp_path / "b"
    argv = ["check", "--id", "prop1", "--family", "random-steps", "--d", "2", "--n", "16", "--seeds", "0..2"]
    assert cli_main(argv + ["--out", str(out)]) == 0
    assert cli_main(["report", str(out / "run.cfg"), "--out", str(again)]) == 0
    assert checks.check_replay(str(out), str(again)) == []
    data = bytearray((again / "report.csv").read_bytes())
    data[-3] = ord("7") if data[-3] != ord("7") else ord("8")
    (again / "report.csv").write_bytes(bytes(data))
    assert checks.check_replay(str(out), str(again))


def test_packing_checker_rejects_a_removed_center():
    spec = GridSpec(2, 32, 1.0)
    mask = np.zeros((32, 32), dtype=bool)
    mask[4:20, 6:26] = True
    radius = 3.5 * spec.h  # no cell pair lies exactly R apart
    cover = maximal_packing(mask.ravel(), radius, spec=spec)
    assert cover.count > 2
    assert checks.check_packing(mask.ravel(), 2, 32, 1.0, cover.centers, radius) == []
    for drop in (0, cover.count // 2, cover.count - 1):
        fewer = np.delete(cover.centers, drop, axis=0)
        assert any("farther than R" in e for e in checks.check_packing(mask.ravel(), 2, 32, 1.0, fewer, radius))


def test_packing_checker_rejects_close_centers():
    mask = np.ones(64, dtype=bool)
    centers = np.array([[0, 0], [0, 1], [4, 4]])
    assert any("apart" in e for e in checks.check_packing(mask, 2, 8, 1.0, centers, 2.5 / 8))


def test_norm_rows_checker_uses_parseval():
    rng = np.random.default_rng(1)
    vals = rng.standard_normal(64)
    vals -= vals.mean()
    vol = 1.0 / 64
    rows = [
        {"kind": "lp", "params": "p=1.3333333333333333", "value": repr(float(np.sum(np.abs(vals) ** (4 / 3)) * vol) ** 0.75)},
        {"kind": "lp", "params": "p=2.0", "value": repr(float(np.sqrt(np.sum(vals**2) * vol)))},
        {"kind": "tv", "params": "", "value": repr(checks.forward_tv(vals, 2, 8, 1.0))},
        {"kind": "spectral", "params": "s=0.0", "value": repr(float(np.sqrt(np.sum(vals**2) * vol)))},
    ]
    assert checks.check_norm_rows(rows, vals, 2, 8, 1.0) == []
    rows[3]["value"] = repr(float(rows[3]["value"]) * (1 + 1e-6))
    assert checks.check_norm_rows(rows, vals, 2, 8, 1.0)
