"""Smoke runs of the experiment scripts, each with small arguments."""

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
