"""Smoke runs of the experiment scripts, each with small arguments."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args",
    [
        ("chained_curve.py", ["--min", "3", "--max", "5", "--out", "{tmp}/curve.csv"]),
        ("rediscover_optima.py", ["--seeds", "1", "--starts", "8"]),
        ("interference_report.py", ["--points", "3"]),
    ],
)
def test_script_runs(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *(a.format(tmp=tmp_path) for a in args)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_bench_record_smoke(tmp_path):
    # One 1-second optimize run plus its traced run per side, with this
    # checkout as both parent and change, then the acceptance suite.
    out = tmp_path / "BENCH.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_record.py"), "--parent", str(ROOT),
         "--change", str(ROOT), "--runs", "1", "--seconds", "1", "--workloads", "optimize",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert set(record["machine"]) == {"nproc", "python", "numpy", "scipy"}
    parent, change = record["checkouts"]["parent"], record["checkouts"]["change"]
    assert parent["src_sha256"] == change["src_sha256"] and len(parent["src_sha256"]) == 64
    workload = record["workloads"]["optimize"]
    for label in ("parent", "change"):
        ops = workload[label]["end_to_end"]["ops_per_kref"]
        assert ops["q1"] <= ops["median"] <= ops["q3"] and ops["runs"] == [ops["median"]]
        assert workload[label]["per_layer"]["search.evaluations.temporal-times"] > 0
    assert workload["pairs"]["ops_per_kref"]["wins_of_change"] in (0, 1)
    bounds = {m["name"]: m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    for name, pair in workload["pairs"].items():
        assert pair["verdict"] in ("worse", "unresolved", "better", "no_worse")
        assert pair["bound"] == bounds[name] and pair["parent_iqr_share"] == 0.0
    # Each acceptance criterion's time against its budget, from the change checkout.
    acceptance = record["acceptance"]
    assert acceptance["exit_code"] == 0
    assert sorted(acceptance["criteria"]) == sorted(f"criterion {k}" for k in range(1, 10))
    for criterion in acceptance["criteria"].values():
        assert criterion["passed"] and 0 <= criterion["elapsed_s"] < criterion["budget_s"]


def test_bench_record_verdicts():
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        from bench_record import verdict
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]
    # Lower is better: a 30% rise is worse past a 0.24 bound, a 30% fall that
    # wins every round is better, and a 1% fall is neither.
    assert verdict(parent, [v * 1.3 for v in parent], "lower", 0.24) == "worse"
    assert verdict(parent, [v * 0.7 for v in parent], "lower", 0.24) == "better"
    assert verdict(parent, [v * 0.99 for v in parent], "lower", 0.24) == "no_worse"
    # Higher is better mirrors it.
    assert verdict(parent, [v * 0.7 for v in parent], "higher", 0.24) == "worse"
    assert verdict(parent, [v * 1.3 for v in parent], "higher", 0.24) == "better"
    # 8 wins of 10 is not better, however far the medians move.
    assert verdict(parent, [v * 0.7 for v in parent[:8]] + parent[8:], "lower", 0.24) == "no_worse"
    # A parent spreading past the bound leaves the change unresolved unless
    # every change run beats every parent run.
    spread = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.0]
    assert verdict(spread, [v * 0.9 for v in spread], "lower", 0.24) == "unresolved"
    assert verdict(spread, [0.5] * 10, "lower", 0.24) == "better"
