"""Tests of the benchmark's oracles and output checks.

The oracles are pinned against brute force, scipy and explicit matrices; each
workload check is shown to reject a corrupted answer.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import checks
import oracles
import reference
import tracing
from workloads import marginal_case

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]])
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def brute_bound(signs):
    n = len(signs)
    return min(
        sum(signs[i] * x[i] * x[(i + 1) % n] for i in range(n))
        for x in itertools.product((1, -1), repeat=n)
    )


def test_max_odd_parity_sum_matches_enumeration():
    rng = np.random.default_rng(0)
    for n in range(3, 8):
        for _ in range(20):
            c = rng.uniform(-1, 1, n)
            best = max(
                float(np.dot(g, c))
                for g in itertools.product((1, -1), repeat=n)
                if g.count(-1) % 2 == 1
            )
            assert oracles.max_odd_parity_sum(c) == pytest.approx(best, abs=1e-12)


def test_classical_bound_closed_form_matches_enumeration():
    rng = np.random.default_rng(1)
    for n in range(3, 11):
        for _ in range(4):
            signs = tuple(int(s) for s in rng.choice((1, -1), n))
            assert oracles.classical_bound(signs) == brute_bound(signs)
        assert oracles.classical_bound(oracles.canonical_signs(n)) == 2 - n


def test_closed_form_criterion_matches_scipy():
    rng = np.random.default_rng(2)
    seen = {True: 0, False: 0}
    for n in range(3, 9):
        for k in range(8):
            feasible = k % 2 == 0
            c, s = marginal_case(rng, n, feasible, biased=k % 4 < 2)
            assert oracles.cycle_feasible(c, s) == feasible
            assert oracles.scipy_feasible(oracles.pair_cells(c, s)) == feasible
            seen[feasible] += 1
    assert seen[True] == seen[False] == 24


def test_marginal_cases_keep_their_margin():
    rng = np.random.default_rng(3)
    for n in (5, 11):
        for feasible in (True, False):
            c, s = marginal_case(rng, n, feasible, biased=True)
            assert oracles.facet_margin(c, s) >= 0.01
            assert oracles.pair_cells(c, s).sum(axis=(1, 2)) == pytest.approx(np.ones(n))


def test_witness_cells_of_a_point_mass():
    # index 0b00110: x = (+1, -1, -1, +1, +1)
    cells = oracles.witness_cells({6: 1.0}, 5)
    expected = {(0, 0, 1), (1, 1, 1), (2, 1, 0), (3, 0, 0), (4, 0, 0)}
    for i, a, b in itertools.product(range(5), range(2), range(2)):
        assert cells[i, a, b] == (1.0 if (i, a, b) in expected else 0.0)


def xz(angle):
    return math.cos(angle) * SIGMA_Z + math.sin(angle) * SIGMA_X


def test_bloch_angles_score_matches_phi_plus():
    rng = np.random.default_rng(4)
    phi = np.zeros(4, dtype=complex)
    phi[[0, 3]] = 1 / math.sqrt(2)
    rho = np.outer(phi, phi.conj())
    signs = oracles.canonical_signs(5)
    for _ in range(5):
        a = rng.uniform(0, 2 * math.pi, 5)
        direct = sum(
            signs[i] * np.trace(rho @ np.kron(xz(a[i]), xz(a[(i + 1) % 5]))).real for i in range(5)
        )
        assert oracles.bloch_angles_score(a, signs) == pytest.approx(direct, abs=1e-12)


def test_temporal_times_score_matches_sequential_measurement():
    rng = np.random.default_rng(5)
    rate = 8 * math.pi / 5
    rho = np.eye(2) / 2
    signs = oracles.canonical_signs(5)
    for _ in range(5):
        t = rng.uniform(0, 1, 5)
        obs = []
        for ti in t:
            u = math.cos(rate * ti) * np.eye(2) + 1j * math.sin(rate * ti) * SIGMA_Y
            obs.append(u.conj().T @ SIGMA_Z @ u)
        direct = sum(
            signs[i] * 0.5 * np.trace(rho @ (obs[i] @ obs[(i + 1) % 5] + obs[(i + 1) % 5] @ obs[i])).real
            for i in range(5)
        )
        assert oracles.temporal_times_score(t, signs) == pytest.approx(direct, abs=1e-12)


def test_contextual_cone_score_matches_joint_correlators():
    rng = np.random.default_rng(6)
    signs = oracles.canonical_signs(5)
    theta0 = math.acos(math.sqrt(1 / math.sqrt(5)))
    assert oracles.contextual_cone_score((theta0, 0.0), signs) == pytest.approx(
        oracles.CONTEXTUAL_OPTIMUM, abs=1e-12
    )
    for _ in range(5):
        theta, phi = rng.uniform(math.pi / 4 + 0.05, 3 * math.pi / 4 - 0.05), rng.uniform(0, math.pi)
        c, s = math.cos(theta), math.sin(theta)
        step = math.acos(-(c / s) ** 2)
        vs = [np.array([s * math.cos(j * step), s * math.sin(j * step), c]) for j in range(4)]
        v5 = np.cross(vs[3], vs[0])
        vs.append(v5 / np.linalg.norm(v5))
        xs = [2 * np.outer(v, v) - np.eye(3) for v in vs]
        psi = np.array([math.sin(phi), 0.0, math.cos(phi)])
        direct = sum(signs[i] * psi @ xs[i] @ xs[(i + 1) % 5] @ psi for i in range(5))
        assert oracles.contextual_cone_score((theta, phi), signs) == pytest.approx(direct, abs=1e-12)


# Each workload check rejects a corrupted answer.


def test_optimize_check_rejects_shifted_value():
    angles = [4 * math.pi / 5 * i for i in range(5)]
    good = ("bloch-angles", 7, angles, oracles.FIVE_CYCLE_OPTIMUM)
    assert checks.check_optimize([good]) == []
    shifted = good[:3] + (good[3] + 1e-4,)
    assert checks.check_optimize([shifted])
    below = good[:3] + (good[3] - 1e-8,)
    assert any("below" in e for e in checks.check_optimize([below]))


def feasible_case_with_witness():
    rng = np.random.default_rng(7)
    n = 5
    weights = rng.dirichlet(np.ones(1 << n))
    distribution = {i: float(w) for i, w in enumerate(weights)}
    cells = oracles.witness_cells(distribution, n)
    x = np.array([1.0, -1.0])
    correlators = [float(np.einsum("ab,a,b->", cells[i], x, x)) for i in range(n)]
    singles = [float(cells[i].sum(axis=1) @ x) for i in range(n)]
    signs = oracles.canonical_signs(n)
    case = {"name": "dirichlet", "signs": signs, "correlators": correlators, "singles": singles}
    return case, (True, distribution, oracles.classical_bound(signs))


def test_feasibility_check_accepts_a_true_witness():
    case, output = feasible_case_with_witness()
    assert checks.check_feasibility([case], [[output], [output]]) == []


def test_feasibility_check_rejects_flipped_verdict():
    case, output = feasible_case_with_witness()
    assert checks.check_feasibility([case], [[(False, None, output[2])]])


def test_feasibility_check_rejects_perturbed_witness_weight():
    case, (verdict, distribution, bound) = feasible_case_with_witness()
    perturbed = dict(distribution)
    perturbed[3] += 1e-6
    perturbed[4] -= 1e-6  # keeps the sum at 1, moves the cells
    errors = checks.check_feasibility_case(case, (verdict, perturbed, bound))
    assert any("pair cells" in e for e in errors)


def test_feasibility_check_rejects_wrong_bound_and_unrepeated_output():
    case, output = feasible_case_with_witness()
    assert checks.check_feasibility([case], [[(True, output[1], output[2] - 2)]])
    other = (True, {0: 1.0}, output[2])
    assert any("repeated" in e for e in checks.check_feasibility([case], [[output], [other]]))


def report(lhs):
    return "\n".join([
        "# qcycle report v1", "# argv = anything", "command = evaluate", "builder = chained-7",
        f"lhs = {lhs!r}", "classical_bound = -5", "violated = true",
    ]) + "\n"


def test_cli_check_rejects_shifted_lhs_and_changed_body():
    cmd = {"name": "evaluate chained-7", "kind": "report", "expect_code": 0,
           "expected": {"lhs": oracles.chained_value(7), "classical_bound": -5, "violated": True}}
    good = report(oracles.chained_value(7))
    assert checks.check_cli([cmd], [[0], [0]], [[good], [good.replace("anything", "else")]]) == []
    assert checks.check_cli([cmd], [[0]], [[report(oracles.chained_value(7) + 1e-4)]])
    changed = good.replace("builder = chained-7", "builder = chained-07")
    assert checks.check_cli([cmd], [[0], [0]], [[good], [changed]])


def test_cli_check_of_histories_probabilities():
    fields = [f"p_{''.join(p)} = 0.125" for p in itertools.product("pm", repeat=3)]
    text = "\n".join(fields + ["lhs = -1.5", "decomposition_value = -0.5"]) + "\n"
    expected = {"lhs": -1.5, "decomposition_value": -0.5, "p_sum": 1.0}
    assert checks.check_report("histories", text, expected) == []
    assert checks.check_report("histories", text.replace("0.125", "0.126", 1), expected)


def test_scan_csv_check():
    rows = [(n, oracles.chained_value(n), 2 - n) for n in (3, 4)]
    text = "parameter,lhs_value,classical_bound\n" + "".join(f"{n},{v!r},{b}\n" for n, v, b in rows)
    assert checks.check_scan_csv("scan", text, rows) == []
    assert checks.check_scan_csv("scan", text.replace(",-1\n", ",-2\n"), rows)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.catalogue()
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "ops_per_kref", "latency_p50_ref", "latency_p90_ref", "peak_rss_mb"
    ]
    assert [w["name"] for w in spec["workloads"]] == ["optimize", "feasibility", "cli"]


def test_gauge_samples_during_work_and_accounts_for_it():
    calls = []
    with reference.Gauge(lambda: calls.append(sum(range(2000)))) as gauge:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
        t1 = time.perf_counter()
    assert len(gauge.durations) == len(calls) >= 5
    assert gauge.inside(t0, t1) == pytest.approx(sum(gauge.durations))
    assert gauge.inside(t1, t1 + 1.0) == 0.0
    assert min(gauge.durations) <= gauge.call_seconds(t0, t1) <= max(gauge.durations)


def test_reference_kernels_repeat_their_result():
    for kernel in reference.KERNELS.values():
        assert kernel() == kernel()
