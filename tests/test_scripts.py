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
    # checkout as both parent and change.
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
