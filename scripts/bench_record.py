#!/usr/bin/env python3
"""Record benchmark numbers of a parent and a change checkout into a BENCH JSON file.

    python3 scripts/bench_record.py --parent ../parent --change . \\
        --runs 10 --seconds 30 --out BENCH_11.json

A thin wrapper around ``perfbench/run.py``: it measures nothing itself. For each
workload in ``BENCHMARK.json`` it runs the benchmark command ``--runs`` times
in both checkouts, round r with seed ``--seed + r`` on both sides and the
checkouts taking turns at running first. Then it runs one traced run
(``--trace 1``) per workload in each checkout, and last the acceptance suite
(``pytest tests/test_acceptance.py -q -s``) in the change checkout. The
output holds the machine (nproc, Python, numpy, scipy), each checkout's
commit and a digest of its ``src/qcycle`` sources, each end-to-end metric's
median, quartiles and raw values, the traced run's per-layer metrics, how
many rounds the change won on each metric, and each acceptance criterion's
elapsed time against its budget, read from the criterion lines that end in
``in X.XXs of Ys``. The checkouts should sit in directories whose
paths have the same length: the benchmark's reference kernel runs at a speed
that depends on the process's memory layout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# "PASS criterion 5: <detail>, in 0.38s of 5s", as tests/test_acceptance.py prints it.
CRITERION_LINE = re.compile(r"(PASS|FAIL) (criterion \d+): .* in (\d+(?:\.\d+)?)s of (\d+(?:\.\d+)?)s$")


def machine() -> dict:
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy_version}


def checkout_info(path: Path) -> dict:
    """Commit, uncommitted changes and a digest of the qcycle sources of a checkout."""
    def git(*args) -> str | None:
        proc = subprocess.run(["git", "-C", str(path), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    digest = hashlib.sha256()
    for source in sorted((path / "src" / "qcycle").glob("*.py")):
        digest.update(source.name.encode() + b"\0" + source.read_bytes())
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": git("rev-parse", "HEAD"),
            "uncommitted_changes": None if status is None else bool(status),
            "src_sha256": digest.hexdigest()}


def run_once(command: list[str], path: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """The JSON summary line of one ``perfbench/run.py`` run in checkout ``path``."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}",
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=path, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} in {path} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def acceptance_budgets(path: Path) -> dict:
    """Exit code of the acceptance suite in checkout ``path`` and each criterion's time against its budget."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(path / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_acceptance.py", "-q", "-s", "-p", "no:cacheprovider"],
        cwd=path, capture_output=True, text=True, env=env,
    )
    criteria = {}
    for line in proc.stdout.splitlines():
        m = CRITERION_LINE.search(line)
        if m:
            verdict, name, elapsed, budget = m.groups()
            criteria[name] = {"passed": verdict == "PASS", "elapsed_s": float(elapsed), "budget_s": float(budget)}
    return {"exit_code": proc.returncode, "criteria": criteria}


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def wins(a: list[float], b: list[float], better: str) -> int:
    """Rounds in which ``b`` beat ``a``."""
    return sum((y > x) if better == "higher" else (y < x) for x, y in zip(a, b))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--runs", type=int, default=10, help="untraced runs per workload and checkout")
    p.add_argument("--seconds", type=float, default=30.0, help="timed phase of each run")
    p.add_argument("--seed", type=int, default=1, help="seed of round 0; round r uses seed + r")
    p.add_argument("--workloads", nargs="+", help="subset of the workloads in BENCHMARK.json")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    if args.runs < 1 or args.seconds <= 0:
        p.error("--runs and --seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        unknown = set(args.workloads) - set(workloads)
        if unknown:
            raise SystemExit(f"unknown workloads: {sorted(unknown)}")
        workloads = [w for w in workloads if w in args.workloads]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for label, path in sides.items():
        if not (path / "perfbench" / "run.py").is_file():
            raise SystemExit(f"--{label} {path}: not a checkout with perfbench/run.py")
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    record = {"machine": machine(), "command": spec["command"], "runs": args.runs,
              "seconds": args.seconds, "first_seed": args.seed,
              "checkouts": {label: checkout_info(path) for label, path in sides.items()},
              "workloads": {}}
    for workload in workloads:
        values = {label: {} for label in sides}
        failed = {label: [] for label in sides}
        for r in range(args.runs):
            order = list(sides.items())
            for label, path in order if r % 2 == 0 else order[::-1]:
                result = run_once(spec["command"], path, workload, args.seed + r, args.seconds, 0)
                if not result["correct"]:
                    raise SystemExit(f"{label} {workload} seed {args.seed + r}: checks failed")
                failed[label].append(result["failed"] / result["attempted"])
                for name, metric in result["metrics"].items():
                    values[label].setdefault(name, []).append(metric["value"])
                print(f"{workload} round {r} {label}: "
                      + ", ".join(f"{k} {v[-1]:.4g}" for k, v in values[label].items()), flush=True)
        entry = {label: {"end_to_end": {name: summary(v) for name, v in values[label].items()},
                         "failed_share": summary(failed[label])} for label in sides}
        for label, path in sides.items():
            traced = run_once(spec["command"], path, workload, args.seed, args.seconds, 1)
            entry[label]["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        parent, change = values["parent"], values["change"]
        entry["pairs"] = {
            name: {"wins_of_change": wins(parent[name], change[name], better[name]),
                   "median_ratio": statistics.median(change[name]) / statistics.median(parent[name])}
            for name in parent if name in better
        }
        record["workloads"][workload] = entry
    record["acceptance"] = acceptance_budgets(sides["change"])
    print("acceptance: " + ", ".join(
        f"{name} {c['elapsed_s']:.2f}s of {c['budget_s']:g}s" for name, c in record["acceptance"]["criteria"].items()
    ), flush=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
