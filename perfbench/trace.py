"""Traced run of one workload: per-layer table, self times, tracing overhead.

    python3 perfbench/trace.py --workload cli --seed 1 --seconds 25

Runs ``run.py`` twice with the same seed and length, untraced and traced,
one after the other. Prints the traced run's per-layer metrics, each layer's
self time per op and share of the op time, and the tracing overhead: traced
minus untraced op time over the rounds both runs completed, which hold the
same ops.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    detail = json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, detail


def op_seconds_by_round(detail: dict) -> dict[int, float]:
    totals: dict[int, float] = {}
    for op in detail["ops"]:
        totals[op[0]] = totals.get(op[0], 0.0) + op[2]
    return totals


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("optimize", "feasibility", "cli"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    args = p.parse_args(argv)

    plain, plain_detail = run(args.workload, args.seed, args.seconds, 0)
    traced, traced_detail = run(args.workload, args.seed, args.seconds, 1)
    print(f"# {args.workload}, seed {args.seed}, {args.seconds:g} s; machine {json.dumps(traced_detail['machine'])}")
    print(f"# correct: untraced {plain['correct']}, traced {traced['correct']}; "
          f"ops attempted/failed: {traced['attempted']}/{traced['failed']}")
    print("\n## per-layer metrics (traced run; layers this workload does not reach are omitted)")
    for name, metric in traced["metrics"].items():
        if metric["value"]:
            print(f"{name:48s} {metric['value']:14.4f} {metric['unit']}")

    n_ops = traced["attempted"]
    op_seconds = traced_detail["wall_clock"]["op_seconds"]
    print("\n## self time by layer ('bench' is the benchmark's own op code)")
    print(f"{'layer':10s} {'ms/op':>12s} {'share':>8s}")
    for layer, seconds in sorted(traced_detail["layer_self_s"].items(), key=lambda kv: -kv[1]):
        print(f"{layer:10s} {seconds / n_ops * 1e3:12.4f} {seconds / op_seconds:8.2%}")

    a, b = op_seconds_by_round(plain_detail), op_seconds_by_round(traced_detail)
    common = sorted(set(a) & set(b))
    untraced_s = sum(a[r] for r in common)
    traced_s = sum(b[r] for r in common)
    print(f"\n## tracing overhead over {len(common)} common round(s)")
    print(f"untraced {untraced_s:.4f} s, traced {traced_s:.4f} s, "
          f"overhead {traced_s - untraced_s:+.4f} s ({(traced_s - untraced_s) / untraced_s:+.2%}); "
          f"in-run estimate {traced['metrics']['trace.overhead_pct']['value']:.2f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
