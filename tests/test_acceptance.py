"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Each criterion carries its tolerance and wall-clock budget inline;
CLI-phrased criteria go through the real command-line entry point in-process.
"""

import itertools
import math
import time

import numpy as np
import pytest

from conftest import (
    completions,
    random_family,
    random_marginal_set,
    random_qubit_observable,
    random_state,
)
from quantum_oracles import correlation_sequential, marginal_probability
from witness_oracle import witness_correlators
from qcycle.cli import main
from qcycle.histories import decoherence_functional, lg_decomposition
from qcycle.jpd import correlators_to_marginals, jpd_feasible
from qcycle.quantum import anticommutator_correlation
from qcycle.report import parse_structured
from qcycle.scenario import (
    CorrelationVector,
    CycleScenario,
    canonical_scenario,
    classical_bound,
    inequality_lhs,
)
from qcycle.search import default_space_and_evaluator, minimize_lhs

FIVE_CYCLE_OPTIMUM = -4.045085  # -5 cos(pi/5) to the printed precision
PER_TERM = -0.809017
CONTEXTUAL_OPTIMUM = 5.0 - 4.0 * math.sqrt(5.0)


class Budget:
    def __init__(self, seconds: float):
        self.limit = seconds
        self.started = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def check(self) -> str:
        """Assert the budget held; the time used, as each criterion line ends: ``in X.XXs of Ys``."""
        elapsed = self.elapsed()
        assert elapsed < self.limit, f"budget {self.limit}s exceeded: {elapsed:.2f}s"
        return f"in {elapsed:.2f}s of {self.limit:g}s"


def run_structured(capsys, *argv):
    code = main([*argv, "--format", "structured"])
    out = capsys.readouterr().out
    assert code == 0, f"CLI exited {code}"
    return parse_structured(out)


def report(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, detail


def test_criterion_1_classical_bounds(capsys):
    budget = Budget(5.0)
    fields = run_structured(capsys, "bound", "--n", "5")
    assert fields["classical_bound"] == "-3"
    fields = run_structured(capsys, "bound", "--n", "3", "--signs", "+1", "+1", "+1")
    assert fields["classical_bound"] == "-1"
    for n in range(3, 17):
        assert classical_bound(canonical_scenario(n)) == -n + 2
    spent = budget.check()
    capsys.readouterr()
    with capsys.disabled():
        report("criterion 1", True, f"bounds exact for n=3..16 {spent}")


def test_criterion_2_temporal_optimum(capsys):
    budget = Budget(1.0)
    fields = run_structured(capsys, "evaluate", "kcbs-temporal")
    lhs = float(fields["lhs"])
    correlators = [float(v) for v in fields["correlators"].split()]
    ok = abs(lhs - FIVE_CYCLE_OPTIMUM) <= 1e-6 and all(
        abs(c - PER_TERM) <= 1e-6 for c in correlators
    )
    spent = budget.check()
    capsys.readouterr()
    with capsys.disabled():
        report("criterion 2", ok, f"lhs={lhs:.9f} {spent}")


def test_criterion_3_contextual_optimum(capsys):
    budget = Budget(1.0)
    fields = run_structured(capsys, "evaluate", "kcbs-contextual")
    lhs = float(fields["lhs"])
    norms = [float(v) for v in fields["adjacent_commutator_norms"].split()]
    ok = abs(lhs - CONTEXTUAL_OPTIMUM) <= 1e-6 and max(norms) <= 1e-10
    spent = budget.check()
    capsys.readouterr()
    with capsys.disabled():
        report("criterion 3", ok, f"lhs={lhs:.9f}, max commutator {max(norms):.1e}, {spent}")


def test_criterion_4_spatial_equivalence(capsys):
    budget = Budget(1.0)
    spatial = run_structured(capsys, "evaluate", "kcbs-spatial")
    temporal = run_structured(capsys, "evaluate", "kcbs-temporal")
    gap = abs(float(spatial["lhs"]) - float(temporal["lhs"]))
    pairs = [float(v) for v in spatial["perfect_pairs"].split()]
    ok = gap <= 1e-9 and all(abs(p - 1.0) <= 1e-10 for p in pairs)
    spent = budget.check()
    capsys.readouterr()
    with capsys.disabled():
        report("criterion 4", ok, f"|spatial-temporal|={gap:.1e}, worst pair dev {max(abs(p-1) for p in pairs):.1e}, {spent}")


def test_criterion_5_chained_curve(capsys):
    budget = Budget(5.0)
    worst = 0.0
    for n in range(3, 13):
        fields = run_structured(capsys, "evaluate", f"chained-{n}")
        lhs = float(fields["lhs"])
        worst = max(worst, abs(lhs - n * math.cos(math.pi * (n - 1) / n)))
        assert worst <= 1e-8
        assert int(fields["classical_bound"]) == -n + 2
        assert fields["violated"] == "true"
    # Up to the cycle cap the error grows about linearly with n (1.8e-11 at
    # n = 10 000), so the tolerance scales with n.
    worst_per_node = 0.0
    for n in (100, 1000, 10_000):
        fields = run_structured(capsys, "evaluate", f"chained-{n}")
        error = abs(float(fields["lhs"]) - n * math.cos(math.pi * (n - 1) / n))
        assert error <= 1e-14 * n, (n, error)
        worst_per_node = max(worst_per_node, error / n)
        assert int(fields["classical_bound"]) == -n + 2
        assert fields["violated"] == "true"
    spent = budget.check()
    capsys.readouterr()
    with capsys.disabled():
        report("criterion 5", True, f"n=3..12 within {worst:.1e} of closed form, n=100..10^4 within "
               f"{worst_per_node:.1e}*n, {spent}")


def test_criterion_6_lp_consistency(capsys):
    budget = Budget(60.0)
    temporal = run_structured(capsys, "feasibility", "kcbs-temporal")
    assert temporal["feasible"] == "false"
    boundary = correlators_to_marginals(
        CorrelationVector(canonical_scenario(5), (-3.0 / 5.0,) * 5)
    )
    witness = jpd_feasible(boundary)
    assert witness.feasible and witness.max_constraint_residual <= 1e-7

    rng = np.random.default_rng(2026)
    feasible_count = 0
    for _ in range(500):
        n = int(rng.integers(3, 7))
        m = random_marginal_set(rng, n)
        verdict = jpd_feasible(m)
        if not verdict.feasible:
            continue
        feasible_count += 1
        corr = witness_correlators(verdict, n)
        for signs in itertools.product((1, -1), repeat=n):
            scen = CycleScenario(n, signs)
            lhs = inequality_lhs(CorrelationVector(scen, corr))
            assert lhs >= classical_bound(scen) - 1e-7
    spent = budget.check()
    capsys.readouterr()
    with capsys.disabled():
        report(
            "criterion 6", True,
            f"temporal infeasible, boundary witness residual {witness.max_constraint_residual:.1e}, "
            f"{feasible_count}/500 feasible sets sound, {spent}",
        )


def test_criterion_7_histories_identities(capsys):
    budget = Budget(30.0)
    rng = np.random.default_rng(999)
    worst_total = worst_last = worst_marginal = 0.0
    violations = witnesses = 0
    for _ in range(1000):
        fam = random_family(rng)
        d = decoherence_functional(fam)
        re = d.real
        worst_total = max(worst_total, abs(d.trace().real - 1.0))
        for k, l in itertools.product((1, -1), repeat=2):
            e, g = completions((k, l, None))
            worst_last = max(worst_last, abs(2 * re[e, g]))
        for pos in range(3):
            for k, m in itertools.product((1, -1), repeat=2):
                pattern = [k, m]
                pattern.insert(pos, None)
                e, g = completions(pattern)
                gap = marginal_probability(fam, pattern) - (re[e, e] + re[g, g] + 2 * re[e, g])
                worst_marginal = max(worst_marginal, abs(gap))
        dec = lg_decomposition(fam)
        if dec.lhs < -1.0 - 1e-6:
            violations += 1
            if any(abs(v) > 1e-6 for _, _, v, _ in dec.pair_classification):
                witnesses += 1
    ok = (
        worst_total <= 1e-10
        and worst_last <= 1e-12
        and worst_marginal <= 1e-10
        and violations > 50
        and witnesses == violations
    )
    spent = budget.check()
    capsys.readouterr()
    with capsys.disabled():
        report(
            "criterion 7", ok,
            f"completeness {worst_total:.1e}, last-slot {worst_last:.1e}, marginal {worst_marginal:.1e}, "
            f"{witnesses}/{violations} violations witnessed, {spent}",
        )


def test_criterion_8_oracle_agreement(capsys):
    budget = Budget(10.0)
    rng = np.random.default_rng(515)
    worst = 0.0
    for _ in range(1000):
        rho = random_state(rng)
        x, y = random_qubit_observable(rng), random_qubit_observable(rng)
        seq, _ = correlation_sequential(rho, x, y)
        worst = max(worst, abs(seq - anticommutator_correlation(rho, x, y)))
    ok = worst <= 1e-10
    spent = budget.check()
    capsys.readouterr()
    with capsys.disabled():
        report("criterion 8", ok, f"max |sequential - symmetrized| = {worst:.1e} over 1000 draws, {spent}")


def test_criterion_9_optimizer_recovery(capsys):
    budget = Budget(60.0)
    scenario = canonical_scenario(5)
    results = {}
    for kind, target in (
        ("temporal-times", FIVE_CYCLE_OPTIMUM),
        ("contextual-cone", CONTEXTUAL_OPTIMUM),
    ):
        space, evaluator = default_space_and_evaluator(kind)
        values = [
            minimize_lhs(space, scenario, evaluator, seed=seed, starts=64)[1]
            for seed in range(10)
        ]
        spread = max(values) - min(values)
        off_target = max(abs(v - target) for v in values)
        assert spread <= 1e-6, f"{kind}: seed spread {spread:.1e}"
        assert off_target <= 1e-6, f"{kind}: off target by {off_target:.1e}"
        results[kind] = (spread, off_target)
    spent = budget.check()
    capsys.readouterr()
    with capsys.disabled():
        report(
            "criterion 9", True,
            "10-seed spreads "
            + ", ".join(f"{k} {s:.1e} (off {o:.1e})" for k, (s, o) in results.items())
            + f", {spent}",
        )
