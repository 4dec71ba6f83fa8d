"""Output checks of the three workloads, against the oracles only.

Each check takes the recorded outputs and returns a list of error strings;
an empty list means every output is right.
"""

from __future__ import annotations

import math

import numpy as np

import oracles

VALUE_TOL = 1e-6
BELOW_OPTIMUM_TOL = 1e-9
RESCORE_TOL = 1e-9
WITNESS_CELL_TOL = 1e-7
WEIGHT_TOL = 1e-9
REPORT_TOL = 1e-9
VIOLATION_MARGIN = 1e-9

SCORES = {
    "temporal-times": oracles.temporal_times_score,
    "bloch-angles": oracles.bloch_angles_score,
    "contextual-cone": oracles.contextual_cone_score,
}


def optimum(space: str) -> float:
    return oracles.CONTEXTUAL_OPTIMUM if space == "contextual-cone" else oracles.FIVE_CYCLE_OPTIMUM


def check_optimize(results) -> list[str]:
    """``results``: (space, seed, params, value) per minimize_lhs call."""
    errors = []
    signs = oracles.canonical_signs(5)
    for space, seed, params, value in results:
        target = optimum(space)
        where = f"{space} seed {seed}"
        if abs(value - target) > VALUE_TOL:
            errors.append(f"{where}: value {value!r} is {value - target:.2e} from {target!r}")
        if value < target - BELOW_OPTIMUM_TOL:
            errors.append(f"{where}: value {value!r} lies below the quantum optimum")
        try:
            rescored = SCORES[space](params, signs)
        except ValueError as exc:
            errors.append(f"{where}: returned parameters are invalid: {exc}")
            continue
        if abs(rescored - value) > RESCORE_TOL:
            errors.append(f"{where}: parameters score {rescored!r}, reported {value!r}")
    return errors


def check_feasibility_case(case, output) -> list[str]:
    """``case``: dict with name, signs, correlators, singles.
    ``output``: (feasible, distribution or None, classical bound)."""
    feasible, distribution, bound = output
    name = case["name"]
    c, s, signs = case["correlators"], case["singles"], case["signs"]
    n = len(c)
    errors = []
    criterion = oracles.cycle_feasible(c, s)
    if feasible != criterion:
        errors.append(f"{name}: verdict {feasible} but the closed-form criterion says {criterion}")
    lp = oracles.scipy_feasible(oracles.pair_cells(c, s))
    if feasible != lp:
        errors.append(f"{name}: verdict {feasible} but scipy linprog says {lp}")
    expected_bound = oracles.classical_bound(signs)
    if bound != expected_bound:
        errors.append(f"{name}: classical bound {bound} but the closed form is {expected_bound}")
    lhs = lhs_of(signs, c)
    if lhs < expected_bound - VIOLATION_MARGIN and feasible:
        errors.append(f"{name}: lhs {lhs!r} beats the bound {expected_bound} yet was called feasible")
    if feasible:
        if distribution is None:
            errors.append(f"{name}: feasible verdict without a witness")
            return errors
        weights = np.array(list(distribution.values()))
        if weights.size and weights.min() < -WEIGHT_TOL:
            errors.append(f"{name}: witness weight {weights.min()!r} is negative")
        if abs(weights.sum() - 1.0) > WEIGHT_TOL:
            errors.append(f"{name}: witness weights sum to {weights.sum()!r}")
        gap = np.abs(oracles.witness_cells(distribution, n) - oracles.pair_cells(c, s)).max()
        if gap > WITNESS_CELL_TOL:
            errors.append(f"{name}: witness reproduces the pair cells only to {gap:.2e}")
    return errors


def check_feasibility(cases, outputs_by_round) -> list[str]:
    """Every case checked once against the oracles; later rounds must repeat
    its first output exactly. A None output is a failed op, counted apart."""
    errors = []
    for k, case in enumerate(cases):
        outputs = [outputs[k] for outputs in outputs_by_round if outputs[k] is not None]
        if not outputs:
            continue
        errors += check_feasibility_case(case, outputs[0])
        if any(output != outputs[0] for output in outputs[1:]):
            errors.append(f"{case['name']}: a repeated op gave another output")
    return errors


def parse_report(text: str) -> dict[str, str]:
    """Body of a structured report: ``key = value`` lines, '#' lines skipped."""
    fields = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValueError(f"malformed report line {line!r}")
        fields[key] = value
    return fields


def report_body(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True) if not line.startswith("#"))


def _compare(name, fields, key, expected) -> list[str]:
    if key not in fields:
        return [f"{name}: report lacks {key!r}"]
    raw = fields[key]
    if isinstance(expected, bool):
        if raw != ("true" if expected else "false"):
            return [f"{name}: {key} = {raw} but expected {expected}"]
    elif isinstance(expected, int):
        if raw != str(expected):
            return [f"{name}: {key} = {raw} but expected {expected}"]
    elif abs(float(raw) - expected) > REPORT_TOL:
        return [f"{name}: {key} = {raw} but expected {expected!r}"]
    return []


def check_report(name: str, text: str, expected: dict) -> list[str]:
    """Compare a report's fields with closed-form values. The key
    ``p_sum`` stands for the sum of the full-history probabilities."""
    try:
        fields = parse_report(text)
    except ValueError as exc:
        return [f"{name}: {exc}"]
    errors = []
    for key, value in expected.items():
        if key == "p_sum":
            probs = [float(v) for k, v in fields.items() if k.startswith("p_") and len(k) == 5]
            if len(probs) != 8 or abs(sum(probs) - value) > REPORT_TOL:
                errors.append(f"{name}: {len(probs)} history probabilities sum to {sum(probs)!r}")
        else:
            errors += _compare(name, fields, key, value)
    return errors


def check_scan_csv(name: str, text: str, rows) -> list[str]:
    """``rows``: expected (n, lhs, bound) per line of a chained scan."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "parameter,lhs_value,classical_bound":
        return [f"{name}: bad CSV header"]
    if len(lines) - 1 != len(rows):
        return [f"{name}: {len(lines) - 1} rows, expected {len(rows)}"]
    errors = []
    for line, (n, lhs, bound) in zip(lines[1:], rows):
        got_n, got_lhs, got_bound = line.split(",")
        if int(got_n) != n or int(got_bound) != bound or abs(float(got_lhs) - lhs) > REPORT_TOL:
            errors.append(f"{name}: row {line!r}, expected {n},{lhs!r},{bound}")
    return errors


def check_cli(commands, codes_by_round, texts_by_round) -> list[str]:
    """``commands``: dicts with name, expect_code, kind ('report', 'csv' or
    None) and expected. ``texts_by_round[r][k]`` is the file command k wrote in
    round r (None when it wrote none). A command whose exit code differs is a
    failed op, counted apart; its output is not checked."""
    errors = []
    for k, cmd in enumerate(commands):
        first = None
        for r, texts in enumerate(texts_by_round):
            if codes_by_round[r][k] != cmd["expect_code"] or cmd["kind"] is None:
                continue
            text = texts[k]
            if text is None:
                errors.append(f"{cmd['name']}: round {r} wrote no output")
                continue
            if first is None:
                first = text
                if cmd["kind"] == "report":
                    errors += check_report(cmd["name"], text, cmd["expected"])
                else:
                    errors += check_scan_csv(cmd["name"], text, cmd["expected"])
            elif report_body(text) != report_body(first):
                errors.append(f"{cmd['name']}: round {r} body differs from the first")
    return errors


def lhs_of(signs, values) -> float:
    return math.fsum(s * v for s, v in zip(signs, values))
