"""Benchmark of qcycle: one workload in one process, BLAS pinned to one thread.

    python3 perfbench/run.py --workload optimize|feasibility|cli \
        --seed N --seconds S --trace 0|1

Run from the repository root (the checkout holding ``src/qcycle``). After
the import, input generation and an untimed warm-up, whole rounds of the
workload's ops run until S seconds have passed; then every output is checked
against the oracles in ``oracles.py``. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` --
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a run
with spans around every layer call with ``--trace 1``. End-to-end op times
are in calls of a reference kernel timed alongside the ops (``reference.py``),
which takes the host's drifting speed out of them. Details (per-op times,
errors, machine) go to ``.perfbench-out/``.
"""

from __future__ import annotations

import time

_SCRIPT_PERF = time.perf_counter()
_SCRIPT_BOOT = time.clock_gettime(time.CLOCK_BOOTTIME)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402
from typing import NamedTuple  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # before numpy is first imported
    os.environ[_var] = "1"

import numpy  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"


class Record(NamedTuple):
    round: int
    index: int
    label: str
    seconds: float
    ok: bool
    output: object
    ref_s: float = math.nan  # one reference call, measured around this op (untraced runs)


def process_age() -> float:
    """Seconds since this process started. The interpreter's start-up before
    this script ran is read from /proc (clock-tick resolution); the rest is
    measured with perf_counter."""
    elapsed = time.perf_counter() - _SCRIPT_PERF
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return elapsed
    before_script = _SCRIPT_BOOT - started
    return elapsed + before_script if 0.0 <= before_script < 10.0 else elapsed


def timed_phase(workload, seconds: float, tracer):
    """Whole rounds of ops until ``seconds`` have passed; each op timed alone.

    An untraced run samples the machine's speed all along (reference.Gauge)
    and gives each op its own seconds and the reference call time around it.
    A traced run does not: the samples would land in the layers' spans.
    """
    clock = time.perf_counter
    gauge = None if tracer else reference.Gauge(reference.KERNELS[workload.reference])
    records: list[Record] = []
    bounds: list[tuple[float, float]] = []
    labels: list[str] = []
    with gauge or contextlib.nullcontext():
        start = clock()
        r = 0
        while r == 0 or clock() - start < seconds:
            for index, (label, op) in enumerate(workload.round_ops(r)):
                close = tracer.op_span(len(labels)) if tracer else None
                labels.append(label)
                t0 = clock()
                try:
                    output, ok = op(), True
                except Exception as exc:  # a failing op is counted, and the run goes on
                    output, ok = f"{type(exc).__name__}: {exc}", False
                t1 = clock()
                if close:
                    close()
                records.append(Record(r, index, label, t1 - t0, ok, output))
                bounds.append((t0, t1))
            r += 1
        phase_wall = clock() - start
        if gauge:
            time.sleep(reference.WINDOW_S)  # samples after the last op
    if gauge:
        records = [
            rec._replace(seconds=rec.seconds - gauge.inside(t0, t1), ref_s=gauge.call_seconds(t0, t1))
            for rec, (t0, t1) in zip(records, bounds)
        ]
    return records, phase_wall, labels, gauge


def latency_samples(workload, records: list[Record]) -> list[float]:
    """Op times in reference calls, one per distinct op of a round: the
    median over the rounds for ops that every round repeats, so that the
    percentiles hold still whatever the number of rounds; the sum of the
    round where the workload's ops differ too much in kind for a percentile
    over them to mean much."""
    groups: dict[int, list[float]] = {}
    for rec in records:
        key = rec.round if workload.latency_per_round else rec.index
        groups.setdefault(key, []).append(rec.seconds / rec.ref_s)
    if workload.latency_per_round:
        return [sum(times) for times in groups.values()]
    return [statistics.median(times) for times in groups.values()]


def end_to_end(workload, records: list[Record], setup_s: float, peak_rss_mb: float) -> dict:
    p50, p90 = numpy.percentile(latency_samples(workload, records), [50, 90])
    op_refs = sum(rec.seconds / rec.ref_s for rec in records)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_kref": {"value": 1e3 * len(records) / op_refs, "unit": "ops/kref"},
        "latency_p50_ref": {"value": float(p50), "unit": "ref"},
        "latency_p90_ref": {"value": float(p90), "unit": "ref"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def wall_clock(records: list[Record], phase_wall: float, gauge) -> dict:
    """The same figures in seconds, as the machine ran them; for the record."""
    p50, p90 = numpy.percentile([rec.seconds * 1e3 for rec in records], [50, 90])
    return {
        "op_seconds": sum(rec.seconds for rec in records),
        "ops_per_op_s": len(records) / sum(rec.seconds for rec in records),
        "ops_per_phase_s": len(records) / phase_wall,
        "latency_p50_ms": float(p50), "latency_p90_ms": float(p90),
        "ref_calls": len(gauge.durations) if gauge else 0,
        "ref_call_ms_quartiles": statistics.quantiles(gauge.durations, n=4) if gauge else [],
    }


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("optimize", "feasibility", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qcycle" / "__init__.py").is_file():
        sys.stderr.write(f"error: no qcycle sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    qc = SimpleNamespace(**{m: importlib.import_module(f"qcycle.{m}") for m in tracing.LAYERS})
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, qc)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](qc, args.seed, workdir)
        workload.prepare()
        setup_s = process_age()
        records, phase_wall, labels, gauge = timed_phase(workload, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.uninstall()
        check_start = time.perf_counter()
        errors = workload.check(records)
        check_s = time.perf_counter() - check_start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [rec for rec in records if not rec.ok]
    unexpected = [rec for rec in failed if not workload.may_fail(rec.index)]
    errors += [f"op {rec.label} (round {rec.round}) failed: {rec.output}" for rec in unexpected]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "args": vars(args), "machine": machine(), "setup_s": setup_s, "phase_wall_s": phase_wall,
        "check_s": check_s, "rounds": records[-1].round + 1, "errors": errors[:50],
        "wall_clock": wall_clock(records, phase_wall, gauge),
        "ops": [[rec.round, rec.label, rec.seconds, rec.ref_s, rec.ok] + ([] if rec.ok else [rec.output])
                for rec in records],
    }
    if tracer:
        span_cost = tracing.calibrate_span_cost()
        metrics = tracing.layer_metrics(tracer, labels, sum(rec.seconds for rec in records), span_cost)
        detail["layer_self_s"] = tracing.layer_self_seconds(tracer)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl.gz", labels)
    else:
        metrics = end_to_end(workload, records, setup_s, peak_rss_mb)
    detail["metrics"] = metrics
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=1, default=str))
    for line in errors[:20]:
        sys.stderr.write(f"check failed: {line}\n")
    print(json.dumps({
        "correct": not errors, "attempted": len(records), "failed": len(failed), "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
