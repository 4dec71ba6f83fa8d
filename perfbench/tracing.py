"""Spans around the calls into each qcycle layer, and the per-layer metrics.

Only a traced run installs the wrappers. A function reached through
``from .linalg import su2_rotation`` is looked up in the importing module,
so the wrapper goes on that module's name; a class is wrapped on its
``__init__`` (or render method), which every caller reaches. Spans are kept
in memory as (name, start, end, parent, op id) and written out at the end.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array

SPACES = ("temporal-times", "bloch-angles", "contextual-cone")
BOUND_NS = (5, 11, 16, 18, 20, 22, 24)
BUILDERS = ("kcbs-contextual", "kcbs-temporal", "kcbs-spatial", "chained-5", "chained-11", "chained-24")
JPD_NS = tuple(range(5, 12))
SUBCOMMANDS = ("evaluate", "bound", "feasibility", "histories", "scan")
LAYERS = ("linalg", "scenario", "quantum", "jpd", "histories", "search", "report", "cli")


def catalogue() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for sp in SPACES:
        out += [
            (f"search.minimize_lhs_s.{sp}", "s"),
            (f"search.evaluations.{sp}", "count"),
            (f"search.evaluator_us_per_point.{sp}", "us"),
            (f"search.nelder_mead_self_s.{sp}", "s"),
        ]
    out += [
        ("linalg.su2_rotation_us", "us"), ("linalg.su2_rotation_calls", "count"),
        ("linalg.state_build_us", "us"), ("linalg.state_builds", "count"),
        ("linalg.observable_build_us", "us"), ("linalg.observable_builds", "count"),
        ("scenario.correlation_vector_us", "us"), ("scenario.correlation_vectors", "count"),
    ]
    out += [(f"scenario.classical_bound_ms.n{k}", "ms") for k in BOUND_NS]
    out += [(f"quantum.build_ms.{b}", "ms") for b in BUILDERS]
    out += [
        (f"jpd.jpd_feasible_ms.n{k}.{v}", "ms") for k in JPD_NS for v in ("feasible", "infeasible")
    ]
    out += [
        ("jpd.correlators_to_marginals_us", "us"),
        ("histories.lg_decomposition_ms", "ms"), ("histories.family_build_us", "us"),
        ("report.render_us", "us"), ("report.bytes", "count"),
    ]
    for sub in SUBCOMMANDS:
        out += [(f"cli.main_ms.{sub}", "ms"), (f"cli.self_ms.{sub}", "ms")]
    out += [(f"{layer}.self_ms_per_op", "ms") for layer in LAYERS]
    out += [("trace.spans_per_op", "count"), ("trace.overhead_pct", "%")]
    return out


class Tracer:
    """Flat span store. ``op`` is the id of the benchmark op being run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self.sizes: dict[int, int] = {}
        self.stack: list[int] = []
        self.op = -1
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, name, label=None, size=None):
        """``fn`` recording one span per call. ``label(args, result)`` extends
        the span name; ``size(result)`` records a count on the span."""
        names, starts, ends, parents, ops, stack = (
            self.names, self.starts, self.ends, self.parents, self.ops, self.stack,
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if label is not None:
                names[i] = f"{name}.{label(args, result)}"
            if size is not None:
                self.sizes[i] = size(result)
            return result

        return traced

    def patch(self, owner, attr, name, label=None, size=None):
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, label, size))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def op_span(self, op_id: int):
        """Open the root span of one benchmark op; returns its closer."""
        self.op = op_id
        i = len(self.names)
        self.names.append("bench.op")
        self.parents.append(-1)
        self.ops.append(op_id)
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(time.perf_counter())

        def close():
            self.ends[i] = time.perf_counter()
            self.stack.pop()
            self.op = -1

        return close

    def write(self, path, op_labels) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"ops": op_labels}) + "\n")
            for i, name in enumerate(self.names):
                fh.write(json.dumps([name, self.starts[i], self.ends[i], self.parents[i], self.ops[i]]) + "\n")


def install(tracer: Tracer, qc) -> None:
    """Wrap the public entry points of every layer where callers look them up."""
    linalg, scenario, quantum, jpd = qc.linalg, qc.scenario, qc.quantum, qc.jpd
    histories, search, report, cli = qc.histories, qc.search, qc.report, qc.cli

    def n_of_scenario(args, result):
        return f"n{args[0].n}"

    def jpd_label(args, result):
        return f"n{args[0].n}.{'feasible' if result.feasible else 'infeasible'}"

    def everywhere(attr, name, modules, label=None):
        for module in modules:
            tracer.patch(module, attr, name, label)

    everywhere("su2_rotation", "linalg.su2_rotation", (linalg, quantum, search))
    tracer.patch(linalg.State, "__init__", "linalg.state_build")
    tracer.patch(linalg.Observable, "__init__", "linalg.observable_build")
    tracer.patch(scenario.CorrelationVector, "__init__", "scenario.correlation_vector")
    everywhere("classical_bound", "scenario.classical_bound", (scenario, search, cli), n_of_scenario)
    everywhere("build", "quantum.build", (quantum, cli), lambda args, result: args[0])
    everywhere("correlators_to_marginals", "jpd.correlators_to_marginals", (jpd, cli))
    everywhere("jpd_feasible", "jpd.jpd_feasible", (jpd, cli), jpd_label)
    everywhere("lg_decomposition", "histories.lg_decomposition", (histories, cli))
    everywhere("family_from_bloch_angles", "histories.family_build", (histories, cli))
    everywhere("minimize_lhs", "search.minimize_lhs", (search, cli))
    everywhere("scan_chained", "search.scan_chained", (search, cli))
    for sp, attr in zip(SPACES, ("temporal_times_evaluator", "bloch_angles_evaluator", "contextual_cone_evaluator")):
        tracer.patch(search, attr, f"search.evaluator.{sp}")
    for method in ("structured", "text"):
        tracer.patch(report.RunReport, method, "report.render", size=len)
    tracer.patch(cli, "main", "cli.main", lambda args, result: args[0][0])


def calibrate_span_cost(repeat: int = 20000) -> float:
    """Seconds a wrapper adds to one call, measured on a no-op."""
    def noop():
        return None

    clock = time.perf_counter
    wrapped = Tracer().wrap(noop, "calibration")
    t0 = clock()
    for _ in range(repeat):
        noop()
    t1 = clock()
    for _ in range(repeat):
        wrapped()
    t2 = clock()
    return max((t2 - t1) - (t1 - t0), 0.0) / repeat


def _times(tracer: Tracer) -> tuple[list[float], list[float]]:
    """Duration and self time (duration minus direct children) of each span."""
    durations = [end - start for start, end in zip(tracer.starts, tracer.ends)]
    self_time = list(durations)
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            self_time[parent] -= durations[i]
    return durations, self_time


def layer_metrics(tracer: Tracer, op_labels: list[str], op_seconds: float, span_cost: float) -> dict:
    """Per-layer metrics of the timed phase (spans of ops >= 0)."""
    durations, self_time = _times(tracer)
    ops = tracer.ops
    by_name: dict[str, list[int]] = {}
    for i, name in enumerate(tracer.names):
        if ops[i] >= 0:
            by_name.setdefault(name, []).append(i)
    n_ops = len(op_labels)
    in_phase = sum(len(idx) for idx in by_name.values())

    def spans(prefix):
        return [i for name, idx in by_name.items() if name == prefix or name.startswith(prefix + ".") for i in idx]

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    def mean_time(prefix, scale):
        return mean([durations[i] for i in spans(prefix)]) * scale

    values: dict[str, float] = {}
    for sp in SPACES:
        mins = [i for i in by_name.get("search.minimize_lhs", []) if op_labels[ops[i]] == sp]
        evals = by_name.get(f"search.evaluator.{sp}", [])
        min_time = sum(durations[i] for i in mins)
        eval_time = sum(durations[i] for i in evals)
        calls = len(mins) or 1
        values[f"search.minimize_lhs_s.{sp}"] = min_time / calls
        values[f"search.evaluations.{sp}"] = len(evals) / calls
        values[f"search.evaluator_us_per_point.{sp}"] = mean([durations[i] for i in evals]) * 1e6
        values[f"search.nelder_mead_self_s.{sp}"] = (min_time - eval_time) / calls
    for name, count_name in (
        ("linalg.su2_rotation", "linalg.su2_rotation_calls"),
        ("linalg.state_build", "linalg.state_builds"),
        ("linalg.observable_build", "linalg.observable_builds"),
        ("scenario.correlation_vector", "scenario.correlation_vectors"),
    ):
        values[f"{name}_us"] = mean_time(name, 1e6)
        values[count_name] = len(spans(name)) / n_ops
    for k in BOUND_NS:
        values[f"scenario.classical_bound_ms.n{k}"] = mean_time(f"scenario.classical_bound.n{k}", 1e3)
    for b in BUILDERS:
        values[f"quantum.build_ms.{b}"] = mean_time(f"quantum.build.{b}", 1e3)
    for k in JPD_NS:
        for v in ("feasible", "infeasible"):
            values[f"jpd.jpd_feasible_ms.n{k}.{v}"] = mean_time(f"jpd.jpd_feasible.n{k}.{v}", 1e3)
    values["jpd.correlators_to_marginals_us"] = mean_time("jpd.correlators_to_marginals", 1e6)
    values["histories.lg_decomposition_ms"] = mean_time("histories.lg_decomposition", 1e3)
    values["histories.family_build_us"] = mean_time("histories.family_build", 1e6)
    values["report.render_us"] = mean_time("report.render", 1e6)
    values["report.bytes"] = mean([tracer.sizes[i] for i in spans("report.render") if i in tracer.sizes])
    for sub in SUBCOMMANDS:
        mains = by_name.get(f"cli.main.{sub}", [])
        values[f"cli.main_ms.{sub}"] = mean([durations[i] for i in mains]) * 1e3
        values[f"cli.self_ms.{sub}"] = mean([self_time[i] for i in mains]) * 1e3
    by_layer = layer_self_seconds(tracer)
    for layer in LAYERS:
        values[f"{layer}.self_ms_per_op"] = by_layer.get(layer, 0.0) / n_ops * 1e3
    values["trace.spans_per_op"] = in_phase / n_ops
    values["trace.overhead_pct"] = 100.0 * span_cost * in_phase / op_seconds
    return {name: {"value": values[name], "unit": unit} for name, unit in catalogue()}


def layer_self_seconds(tracer: Tracer) -> dict[str, float]:
    """Self time of each layer over the timed phase; 'bench' is the op root."""
    _, self_time = _times(tracer)
    totals: dict[str, float] = {}
    for i, name in enumerate(tracer.names):
        if tracer.ops[i] >= 0:
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + self_time[i]
    return totals
