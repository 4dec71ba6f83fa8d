import itertools
import math
import time

import numpy as np
import pytest

from conftest import near_facet_marginal_set, random_marginal_set
from facet_oracle import closest_facet, enumerated_facet_excess
from marginal_oracle import ordered_marginal_checks
from witness_oracle import witness_correlators
from qcycle import jpd
from qcycle.errors import PreconditionError, ResourceLimitError, VerificationError
from qcycle.jpd import (
    FEASIBILITY_TOL,
    OUTCOMES,
    WITNESS_RESIDUAL_TOL,
    MarginalSet,
    _pair_constraint_matrix,
    _phase1_simplex,
    correlators_to_marginals,
    jpd_feasible,
    witness_to_text,
)
from qcycle.quantum import build
from qcycle.scenario import (
    CorrelationVector,
    CycleScenario,
    canonical_scenario,
    classical_bound,
    inequality_lhs,
)


def uniform_marginals(n):
    return MarginalSet(n, np.full((n, 2, 2), 0.25))


def marginals_from_mixture(n, assignments, weights):
    """Exact pair marginals of an explicit mixture of +-1 assignments."""
    cells = np.zeros((n, 2, 2))
    for x, w in zip(assignments, weights):
        for i in range(n):
            a = 0 if x[i] == 1 else 1
            b = 0 if x[(i + 1) % n] == 1 else 1
            cells[i, a, b] += w
    return MarginalSet(n, cells)


def boundary_mixture(n=5):
    """Uniform mixture of the cyclic shifts (and flips) of (+,-,+,-,+).

    Each assignment scores sum x_i x_{i+1} = -n+2; the mixture has unbiased
    singles and every correlator equal to (-n+2)/n.
    """
    base = [1 if i % 2 == 0 else -1 for i in range(n)]
    assignments = []
    for shift in range(n):
        shifted = [base[(i + shift) % n] for i in range(n)]
        assignments.append(shifted)
        assignments.append([-v for v in shifted])
    weights = [1.0 / len(assignments)] * len(assignments)
    return assignments, weights


def lp_rows(m):
    """The feasibility LP of m: constraint matrix and right-hand side."""
    return _pair_constraint_matrix(m.n), np.concatenate(([1.0], m.cells.ravel()))


def pair_single(m, i: int) -> float:
    """<X_i> implied by pair (i, i+1) of the MarginalSet m."""
    row = m.cells[i].sum(axis=1)
    return float(row[0] - row[1])


def pair_correlator(m, i: int) -> float:
    """<X_i X_{i+1 mod n}> of the MarginalSet m."""
    c = m.cells[i]
    return float(c[0, 0] + c[1, 1] - c[0, 1] - c[1, 0])


def correlators_of(m):
    return [pair_correlator(m, i) for i in range(m.n)]


def all_sign_patterns_hold(witness, n):
    corr = witness_correlators(witness, n)
    for signs in itertools.product((1, -1), repeat=n):
        scen = CycleScenario(n, signs)
        lhs = inequality_lhs(CorrelationVector(scen, corr))
        if lhs < classical_bound(scen) - 1e-7:
            return False
    return True


def loop_cells(values, singles) -> np.ndarray:
    """Cell by cell, the loop ``correlators_to_marginals`` replaced by one broadcast."""
    n = len(values)
    cells = np.empty((n, 2, 2))
    for i in range(n):
        si, sj, cij = singles[i], singles[(i + 1) % n], values[i]
        for a, xi in enumerate(OUTCOMES):
            for b, xj in enumerate(OUTCOMES):
                p = (1.0 + xi * si + xj * sj + xi * xj * cij) / 4.0
                if p < -1e-12:
                    raise PreconditionError(
                        f"moment combination gives negative cell p={p:.3e} at pair {i}"
                    )
                cells[i, a, b] = max(p, 0.0)
    return cells


def fuzzed_cells(rng, n: int) -> np.ndarray:
    """Pair cells for a MarginalSet, valid or carrying one to three seeded faults.

    Valid sets have shared singles and correlators in their physical range,
    a fifth of them at an end of it, so some cells are zero up to round-off.
    The faults: a cell set within 2e-12 of zero (signed zeros included); a
    pair sum moved to just inside or just past 1 +- 1e-9; NaN or +-inf in one
    cell, or +inf and -inf in one pair; a cell made negative with its pair
    still summing to 1; mass moved inside a pair so that a node's two single
    marginals disagree by about NO_DISTURBANCE_TOL or by much more.
    """
    singles = rng.uniform(-0.3, 0.3, size=n)
    sj = np.roll(singles, -1)
    lo, hi = -1.0 + np.abs(singles + sj), 1.0 - np.abs(singles - sj)
    ends = np.where(rng.random(n) < 0.5, lo, hi)
    values = np.where(rng.random(n) < 0.2, ends, rng.uniform(lo, hi))
    faults = [] if rng.random() < 0.3 else list(
        rng.choice(6, size=int(rng.integers(1, 4)), p=(0.25, 0.25, 0.08, 0.04, 0.13, 0.25))
    )
    if 0 in faults:  # near zero: the pair's smallest cell is exactly 0 before round-off
        i = int(rng.integers(n))
        values[i] = ends[i]
    cells = loop_cells(tuple(values), tuple(singles))
    for fault in faults:
        i, a, b = int(rng.integers(n)), int(rng.integers(2)), int(rng.integers(2))
        if fault == 0:
            a, b = np.unravel_index(np.argmin(cells[i]), (2, 2))
            cells[i, a, b] = rng.choice([0.0, -0.0, -1e-12, np.nextafter(-1e-12, -1.0),
                                         rng.uniform(-2e-12, 2e-12), rng.uniform(-1e-12, 0.0)])
        elif fault == 1:
            # 1e-9 off by a thousandth, or by a few ulps of 1.
            step = rng.choice([rng.uniform(-1e-12, 1e-12), int(rng.integers(-4, 5)) * 2.0**-52])
            cells[i, a, b] += rng.choice([-1.0, 1.0]) * (1e-9 + step)
        elif fault == 2:
            cells[i, a, b] = rng.choice([np.nan, np.inf, -np.inf])
        elif fault == 3:
            cells[i, a, b], cells[i, 1 - a, 1 - b] = np.inf, -np.inf
        elif fault == 4 and np.isfinite(cells[i, a, b]):
            drop = cells[i, a, b] + 10.0 ** rng.uniform(-11.9, -1)
            cells[i, a, b] -= drop
            cells[i, 1 - a, b] += drop
        elif fault == 5 and np.isfinite(cells[i]).all():
            move = min(cells[i, 0, 1], rng.choice([1e-7 * (1.0 + rng.uniform(-1e-3, 1e-3)),
                                                    rng.uniform(1e-3, 0.2)]))
            cells[i, 0, 1] -= move
            cells[i, 1, 1] += move
    return cells


def validation_outcome(make):
    """The stored cells' bytes, or the class and message of what ``make()`` raises."""
    try:
        return make().tobytes()
    except PreconditionError as exc:
        return type(exc), str(exc)


class TestCorrelatorsToMarginals:
    def test_cells_match_the_loop_oracle_bit_for_bit(self):
        # Correlators at the ends of their physical range put cells at zero
        # or at a round-off below it, which both routes clip the same way.
        rng = np.random.default_rng(12)
        for k in range(600):
            n = int(rng.integers(3, 17))
            biased = k % 2 == 0
            singles = rng.uniform(-0.4, 0.4, size=n) if biased else np.zeros(n)
            sj = np.roll(singles, -1)
            lo, hi = -1.0 + np.abs(singles + sj), 1.0 - np.abs(singles - sj)
            values = np.where(rng.random(n) < 0.2, np.where(rng.random(n) < 0.5, lo, hi),
                              rng.uniform(lo, hi))
            corr = CorrelationVector(CycleScenario(n, (1,) * n), tuple(values))
            m = correlators_to_marginals(corr, tuple(singles) if biased else None)
            expected = MarginalSet(n, loop_cells(corr.values, tuple(float(s) for s in singles)))
            assert m.cells.tobytes() == expected.cells.tobytes()

    def test_unphysical_moments_name_the_first_pair(self):
        corr = CorrelationVector(canonical_scenario(5), (0.0, -1.0, 0.0, -1.0, 0.0))
        singles = (0.0, 0.5, 0.5, 0.5, 0.5)
        with pytest.raises(PreconditionError) as expected:
            loop_cells(corr.values, singles)
        with pytest.raises(PreconditionError) as exc:
            correlators_to_marginals(corr, singles)
        assert str(exc.value) == str(expected.value)
        assert str(exc.value).endswith("at pair 1")

    def test_perfect_correlation(self):
        m = correlators_to_marginals(CorrelationVector(canonical_scenario(3), (1.0,) * 3))
        assert m.cells[0, 0, 0] == pytest.approx(0.5)
        assert m.cells[0, 0, 1] == pytest.approx(0.0)
        assert m.cells[0, 1, 1] == pytest.approx(0.5)

    def test_kcbs_cells(self):
        c = -0.809017
        m = correlators_to_marginals(CorrelationVector(canonical_scenario(5), (c,) * 5))
        assert m.cells[2, 0, 0] == pytest.approx((1 + c) / 4, abs=1e-15)
        assert m.cells[2, 0, 1] == pytest.approx((1 - c) / 4, abs=1e-15)

    def test_zero_correlator_uniform(self):
        m = correlators_to_marginals(CorrelationVector(canonical_scenario(4), (0.0,) * 4))
        assert np.allclose(m.cells, 0.25)

    def test_moments_recovered(self):
        corr = CorrelationVector(canonical_scenario(5), (0.3, -0.2, 0.0, 0.5, -0.4))
        singles = (0.1, -0.1, 0.2, 0.0, -0.3)
        m = correlators_to_marginals(corr, singles)
        for i in range(5):
            assert pair_correlator(m, i) == pytest.approx(corr.values[i], abs=1e-12)
            assert pair_single(m, i) == pytest.approx(singles[i], abs=1e-12)

    def test_unphysical_moments_rejected(self):
        corr = CorrelationVector(canonical_scenario(3), (1.0, 0.0, 0.0))
        with pytest.raises(PreconditionError):
            correlators_to_marginals(corr, (0.5, -0.5, 0.0))

    def test_contextual_builder_moments_are_physical(self):
        result = build("kcbs-contextual")
        m = correlators_to_marginals(result.correlations, result.singles)
        # Adjacent projectors are orthogonal, so the (+,+) cell vanishes.
        assert m.cells[0, 0, 0] == pytest.approx(0.0, abs=1e-12)


class TestMarginalSetValidation:
    def test_pair_sum_enforced(self):
        cells = np.full((3, 2, 2), 0.3)
        with pytest.raises(PreconditionError):
            MarginalSet(3, cells)

    def test_negative_cell_rejected(self):
        cells = np.full((3, 2, 2), 0.25)
        cells[0, 0, 0] = -0.01
        cells[0, 0, 1] = 0.51
        with pytest.raises(PreconditionError):
            MarginalSet(3, cells)

    def test_no_disturbance_enforced(self):
        # Pair (0,1) says <X_1> = 0.8 while pair (1,2) says <X_1> = 0.
        cells = np.full((3, 2, 2), 0.25)
        cells[0] = np.array([[0.45, 0.0], [0.45, 0.1]])
        with pytest.raises(PreconditionError) as exc:
            MarginalSet(3, cells)
        assert "single-observable" in str(exc.value)

    def test_no_disturbance_names_the_first_node(self):
        # Pairs (0,1) and (2,3) each give their right node <X> = 0.6 while the
        # next pair gives 0: nodes 1 and 3 both fail, and node 1 is reported.
        cells = np.full((4, 2, 2), 0.25)
        cells[0] = cells[2] = np.array([[0.5, 0.0], [0.3, 0.2]])
        with pytest.raises(PreconditionError) as exc:
            MarginalSet(4, cells)
        assert str(exc.value) == "inconsistent single-observable marginals at node 1"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_cell_rejected(self, bad):
        cells = np.full((3, 2, 2), 0.25)
        cells[1, 0, 1] = bad
        with pytest.raises(PreconditionError) as exc:
            MarginalSet(3, cells)
        assert "finite" in str(exc.value)

    def test_matches_the_ordered_check_oracle(self):
        # Valid, near-zero, near-normalization, non-finite, negative,
        # disturbing and combined faults at n = 3..16, in four memory
        # layouts: the same exception class and message as the checks run
        # one at a time, or byte-identical stored cells.
        rng = np.random.default_rng(41)
        seen = {}
        for n in range(3, 17):
            for k in range(80):
                cells = fuzzed_cells(rng, n)
                strided = np.repeat(cells, 2, axis=0)[::2]
                given = (cells, np.asfortranarray(cells), cells.tolist(), strided)[k % 4]
                before = cells.tobytes()
                with np.errstate(invalid="ignore"):  # +inf and -inf in one pair sum to NaN
                    expected = validation_outcome(lambda: ordered_marginal_checks(n, given))
                    outcome = validation_outcome(lambda: MarginalSet(n, given).cells)
                assert outcome == expected, (n, k)
                assert cells.tobytes() == before
                key = "valid" if isinstance(expected, bytes) else expected[1].split(" at node")[0]
                seen[key] = seen.get(key, 0) + 1
        assert len(seen) == 5 and min(seen.values()) >= 40, seen

    def test_stored_cells_are_read_only_and_clipped(self):
        cells = np.full((3, 2, 2), 0.25)
        cells[0] = [[0.5, -0.0], [-1e-12, 0.5]]
        m = MarginalSet(3, cells)
        assert not m.cells.flags.writeable and m.cells is not cells
        assert m.cells[0].tobytes() == np.array([[0.5, 0.0], [0.0, 0.5]]).tobytes()


class TestJpdFeasible:
    def test_uniform_is_feasible(self):
        witness = jpd_feasible(uniform_marginals(5))
        assert witness.feasible
        assert witness.max_constraint_residual <= 1e-7
        assert sum(witness.distribution.values()) == pytest.approx(1.0, abs=1e-9)

    def test_temporal_kcbs_is_infeasible(self):
        result = build("kcbs-temporal")
        m = correlators_to_marginals(result.correlations, result.singles)
        witness = jpd_feasible(m)
        assert not witness.feasible
        assert witness.distribution is None
        assert witness.max_constraint_residual > 1e-3

    def test_boundary_is_feasible(self):
        corr = CorrelationVector(canonical_scenario(5), (-0.6,) * 5)
        witness = jpd_feasible(correlators_to_marginals(corr))
        assert witness.feasible
        assert witness.max_constraint_residual <= 1e-7

    def test_boundary_mixture_oracle(self):
        # The explicit 10-assignment mixture realizes the boundary marginals;
        # the LP must agree and its witness must reproduce the correlators.
        assignments, weights = boundary_mixture()
        m = marginals_from_mixture(5, assignments, weights)
        for i in range(5):
            assert pair_correlator(m, i) == pytest.approx(-0.6, abs=1e-12)
            assert pair_single(m, i) == pytest.approx(0.0, abs=1e-12)
        witness = jpd_feasible(m)
        assert witness.feasible
        assert np.allclose(witness_correlators(witness, 5), -0.6, atol=1e-7)

    def test_deeper_violation_flips_infeasible(self):
        values = (-0.6 - 1e-3,) + (-0.6,) * 4
        corr = CorrelationVector(canonical_scenario(5), values)
        assert not jpd_feasible(correlators_to_marginals(corr)).feasible

    def test_cap_enforced(self):
        with pytest.raises(ResourceLimitError):
            jpd_feasible(uniform_marginals(17))

    def test_witness_reproduces_marginals(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = random_marginal_set(rng, 4)
            witness = jpd_feasible(m)
            if not witness.feasible:
                continue
            corr = witness_correlators(witness, 4)
            for i in range(4):
                assert corr[i] == pytest.approx(pair_correlator(m, i), abs=1e-7)


class TestDegenerateWitness:
    """Bland's rule cycled on these degenerate feasible sets: round-off pushed
    basic values below 0, and the negative minimum ratios broke its ties."""

    @pytest.mark.parametrize("c", [-0.6, -0.5, -0.2, 0.0])
    def test_equal_correlators_at_n12_get_a_witness(self, c):
        m = correlators_to_marginals(CorrelationVector(canonical_scenario(12), (c,) * 12))
        started = time.perf_counter()
        witness = jpd_feasible(m)
        assert time.perf_counter() - started < 10.0
        assert witness.feasible
        assert witness.max_constraint_residual <= WITNESS_RESIDUAL_TOL
        assert min(witness.distribution.values()) >= -1e-9
        assert witness_correlators(witness, 12) == pytest.approx((c,) * 12, abs=1e-9)


class TestSoundnessAndAgreement:
    def test_feasible_implies_all_cycle_inequalities(self):
        rng = np.random.default_rng(11)
        feasible_count = 0
        for _ in range(120):
            n = int(rng.integers(3, 7))
            m = random_marginal_set(rng, n)
            witness = jpd_feasible(m)
            if witness.feasible:
                feasible_count += 1
                assert all_sign_patterns_hold(witness, n)
        assert feasible_count > 10  # the generator must exercise both verdicts

    def test_scipy_oracle_agrees(self):
        linprog = pytest.importorskip("scipy.optimize").linprog

        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(3, 7))
            m = random_marginal_set(rng, n)
            ours = jpd_feasible(m)
            a, b = lp_rows(m)
            res = linprog(np.zeros(a.shape[1]), A_eq=a, b_eq=b, bounds=(0, None), method="highs")
            assert ours.feasible == res.success

    def test_mixing_toward_uniform_preserves_feasibility(self):
        rng = np.random.default_rng(19)
        lambdas = np.linspace(0.0, 1.0, 11)
        for _ in range(20):
            n = int(rng.integers(3, 6))
            m = random_marginal_set(rng, n)
            uniform = np.full((n, 2, 2), 0.25)
            verdicts = []
            for lam in lambdas:
                mixed = MarginalSet(n, (1 - lam) * m.cells + lam * uniform)
                verdicts.append(jpd_feasible(mixed).feasible)
            # Once feasible along the path to the uniform point, stays feasible.
            first = verdicts.index(True)
            assert all(verdicts[first:])

    def test_converse_evidence_recorded(self, capsys):
        # One-directional check only: infeasible sets are expected to violate
        # some sign-pattern inequality, but that converse is recorded, not
        # asserted.
        rng = np.random.default_rng(23)
        infeasible = violating = 0
        for _ in range(120):
            n = int(rng.integers(3, 7))
            m = random_marginal_set(rng, n)
            witness = jpd_feasible(m)
            if witness.feasible:
                continue
            infeasible += 1
            corr = tuple(pair_correlator(m, i) for i in range(n))
            for signs in itertools.product((1, -1), repeat=n):
                scen = CycleScenario(n, signs)
                if inequality_lhs(CorrelationVector(scen, corr)) < classical_bound(scen) - 1e-9:
                    violating += 1
                    break
        print(f"converse evidence: {violating}/{infeasible} infeasible sets violate a cycle inequality")
        assert infeasible > 10


class TestClosedFormVerdict:
    def test_closed_form_matches_lp_oracles(self):
        # Sets at least 1e-6 from every facet, on both sides, n = 3..10,
        # biased and unbiased: the verdict equals the in-repo simplex called
        # directly on every set and, when importable, scipy's linprog.
        try:
            from scipy.optimize import linprog
        except ImportError:
            linprog = None
        rng = np.random.default_rng(29)
        verdicts = {True: 0, False: 0}
        for n in range(3, 11):
            cases = [random_marginal_set(rng, n) for _ in range(2)]
            for k in range(8):
                excess = (1 if k % 2 else -1) * 10.0 ** rng.uniform(-6, math.log10(0.5))
                cases.append(near_facet_marginal_set(rng, n, excess, biased=k % 4 < 2))
            for m in cases:
                witness = jpd_feasible(m)
                assert abs(witness.facet_excess) >= 1e-6 and m.cells.min() >= 1e-6
                a, b = lp_rows(m)
                phase1, _ = _phase1_simplex(a, b)
                assert witness.feasible == (phase1 <= FEASIBILITY_TOL), (n, witness.facet_excess, phase1)
                if linprog is not None:
                    res = linprog(np.zeros(a.shape[1]), A_eq=a, b_eq=b, bounds=(0, None), method="highs")
                    assert witness.feasible == res.success
                verdicts[witness.feasible] += 1
        assert min(verdicts.values()) >= 30

    def test_facet_matches_enumeration(self):
        rng = np.random.default_rng(31)
        for n in range(3, 11):
            for _ in range(6):
                m = random_marginal_set(rng, n)
                witness = jpd_feasible(m)
                c = np.array(correlators_of(m))
                g = np.array(witness.facet_signs)
                assert g.shape == (n,) and set(g) <= {1, -1}
                assert np.count_nonzero(g < 0) % 2 == 1
                assert witness.facet_excess == pytest.approx(enumerated_facet_excess(c), abs=1e-12)
                assert float(g @ c) - (n - 2) == pytest.approx(witness.facet_excess, abs=1e-12)

    def test_near_facet_fuzz(self):
        # |excess| from 1e-14 to 1e-7 on both sides of a facet: the verdict is
        # the closed form, every feasible set gets a witness that re-verifies,
        # and no VerificationError is raised.
        rng = np.random.default_rng(37)
        counts = {"infeasible": 0, "near_boundary": 0, "feasible": 0, "phase1_above_tol": 0}
        for n in range(3, 11):
            for k in range(16):
                excess = (1 if k % 2 else -1) * 10.0 ** rng.uniform(-14, -7)
                m = near_facet_marginal_set(rng, n, excess, biased=k % 4 < 2)
                oracle = enumerated_facet_excess(correlators_of(m))
                try:
                    witness = jpd_feasible(m)
                except VerificationError as exc:
                    pytest.fail(f"n={n} excess={oracle:.3e}: {exc}")
                # Summation order alone moves the excess by a few ulps of n.
                assert witness.facet_excess == pytest.approx(oracle, abs=1e-14)
                excess = witness.facet_excess
                assert witness.feasible == (excess <= FEASIBILITY_TOL)
                if witness.feasible:
                    assert witness.max_constraint_residual <= 1e-7
                    assert witness.near_boundary == (excess > 1e-12)
                    counts["near_boundary" if witness.near_boundary else "feasible"] += 1
                    # A phase-1 optimum above FEASIBILITY_TOL on a feasible
                    # set: a verdict read off the LP would say infeasible.
                    counts["phase1_above_tol"] += witness.phase1_objective > FEASIBILITY_TOL
                else:
                    assert witness.distribution is None and witness.phase1_objective is None
                    counts["infeasible"] += 1
        assert min(counts["infeasible"], counts["near_boundary"], counts["feasible"]) >= 10, counts
        assert counts["phase1_above_tol"] >= 1, counts

    def test_closest_facet_matches_the_oracle_bit_for_bit(self):
        # Correlators on a grid of exact quarters give exact zeros and, with
        # an even negative count, ties on min|c_i| where the lowest index
        # flips; uniform draws give neither.
        # Both parities of the negative count, biased and unbiased singles.
        rng = np.random.default_rng(43)
        grid = np.array([-0.5, -0.25, 0.0, 0.25, 0.5])
        seen = {"zero": 0, "tie": 0, "even": 0, "odd": 0}
        for k in range(600):
            n = int(rng.integers(3, 17))
            values = rng.uniform(-0.5, 0.5, size=n) if k % 3 == 0 else rng.choice(grid, size=n)
            singles = tuple(rng.choice((-0.25, 0.0, 0.25), size=n)) if k % 2 else None
            corr = CorrelationVector(CycleScenario(n, (1,) * n), tuple(values))
            m = correlators_to_marginals(corr, singles)
            signs, excess = jpd._closest_facet(m)
            expected_signs, expected_excess = closest_facet(m)
            assert signs == expected_signs and all(type(g) is int for g in signs)
            assert type(excess) is float and excess.hex() == expected_excess.hex()
            c = np.array(correlators_of(m))
            size, even = np.abs(c), np.count_nonzero(c < 0) % 2 == 0
            seen["zero"] += bool((c == 0.0).any())
            seen["tie"] += even and np.count_nonzero(size == size.min()) > 1
            seen["even" if even else "odd"] += 1
        assert min(seen.values()) >= 100, seen

    def test_temporal_kcbs_facet(self):
        result = build("kcbs-temporal")
        witness = jpd_feasible(correlators_to_marginals(result.correlations, result.singles))
        assert witness.facet_signs == (-1,) * 5
        assert witness.facet_excess == pytest.approx(5 * math.cos(math.pi / 5) - 3, abs=1e-12)
        assert witness.max_constraint_residual == witness.facet_excess

    def test_infeasible_builds_no_lp(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built the LP for an infeasible set")

        monkeypatch.setattr(jpd, "_pair_constraint_matrix", refuse)
        monkeypatch.setattr(jpd, "_phase1_simplex", refuse)
        corr = CorrelationVector(canonical_scenario(11), (-1.0,) * 11)
        witness = jpd_feasible(correlators_to_marginals(corr))
        assert not witness.feasible
        assert witness.facet_excess == pytest.approx(2.0)

    def test_zero_correlators_facet(self):
        # All c_i = 0: g = +1 has no -1s, so the first entry flips.
        witness = jpd_feasible(uniform_marginals(4))
        assert witness.facet_signs == (-1, 1, 1, 1)
        assert witness.facet_excess == -2.0
        assert witness.feasible and not witness.near_boundary


class TestWitnessExport:
    def test_nonzero_entries_only(self):
        corr = CorrelationVector(canonical_scenario(5), (-0.6,) * 5)
        witness = jpd_feasible(correlators_to_marginals(corr))
        text = witness_to_text(witness, 5)
        lines = [l for l in text.splitlines() if l.startswith("w[")]
        assert lines
        total = 0.0
        for line in lines:
            total += float(line.split("=")[1])
        assert total == pytest.approx(1.0, abs=1e-9)
        assert "feasible = true" in text

    def test_infeasible_export(self):
        result = build("kcbs-temporal")
        witness = jpd_feasible(correlators_to_marginals(result.correlations, result.singles))
        text = witness_to_text(witness, 5)
        assert "feasible = false" in text
        assert "facet_signs = -1 -1 -1 -1 -1" in text
        assert "phase1_objective" not in text
        assert not [l for l in text.splitlines() if l.startswith("w[")]

    def test_export_reverifies_from_its_own_text(self):
        # Feasible sets at n = 3..10: the w[...] weights read back from the
        # text rebuild the pair cells, are nonnegative and sum to 1; an
        # infeasible export carries no weights.
        rng = np.random.default_rng(53)
        for n in range(3, 11):
            for k in range(5):
                feasible = k < 4
                excess = (-1 if feasible else 1) * 10.0 ** rng.uniform(-6, math.log10(0.5))
                m = near_facet_marginal_set(rng, n, excess, biased=k % 2 == 0)
                witness = jpd_feasible(m)
                assert witness.feasible == feasible
                fields = dict(
                    line.split(" = ", 1) for line in witness_to_text(witness, n).splitlines()
                    if not line.startswith("#")
                )
                assert int(fields["n"]) == n
                assert fields["feasible"] == ("true" if feasible else "false")
                assert tuple(int(g) for g in fields["facet_signs"].split()) == witness.facet_signs
                assert float(fields["facet_excess"]) == witness.facet_excess
                weights = {int(key[2:-1]): float(v) for key, v in fields.items() if key.startswith("w[")}
                if not feasible:
                    assert not weights
                    continue
                cells = np.zeros((n, 2, 2))
                for x, w in weights.items():
                    bits = [(x >> b) & 1 for b in range(n)]
                    for i in range(n):
                        cells[i, bits[i], bits[(i + 1) % n]] += w
                assert np.abs(cells - m.cells).max() <= WITNESS_RESIDUAL_TOL
                assert min(weights.values()) >= -1e-9
                assert abs(sum(weights.values()) - 1.0) <= 1e-9
