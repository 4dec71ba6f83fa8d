import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bound_oracle import enumerated_bound
from qcycle.errors import PreconditionError, ResourceLimitError
from qcycle.scenario import (
    CYCLE_CAP,
    CorrelationVector,
    CycleScenario,
    ScenarioFile,
    canonical_scenario,
    classical_bound,
    inequality_lhs,
    scenario_from_text,
    scenario_to_text,
)


class TestInequalityLhs:
    def test_extremal_correlations(self):
        c = CorrelationVector(canonical_scenario(5), (-1.0,) * 5)
        assert inequality_lhs(c) == -5.0

    def test_symmetric_violation_value(self):
        c = CorrelationVector(canonical_scenario(5), (-0.809017,) * 5)
        assert inequality_lhs(c) == pytest.approx(-4.045085, abs=1e-9)

    def test_four_cycle_wrap_sign(self):
        # Canonical n=4 carries a -1 wrap sign; (-1,-1,-1,+1) scores -4,
        # below the classical -2.
        c = CorrelationVector(canonical_scenario(4), (-1.0, -1.0, -1.0, 1.0))
        assert inequality_lhs(c) == -4.0

    def test_out_of_range_correlator_rejected(self):
        with pytest.raises(PreconditionError):
            CorrelationVector(canonical_scenario(3), (0.0, 0.0, 1.5))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_correlator_rejected(self, bad):
        with pytest.raises(PreconditionError):
            CorrelationVector(canonical_scenario(3), (0.0, bad, 0.0))


class TestClassicalBound:
    def test_five_cycle(self):
        assert classical_bound(canonical_scenario(5)) == -3

    def test_three_cycle_all_plus(self):
        assert classical_bound(CycleScenario(3, (1, 1, 1))) == -1

    def test_four_cycle_canonical(self):
        assert classical_bound(canonical_scenario(4)) == -2

    @pytest.mark.parametrize("n", range(3, 13))
    def test_canonical_matches_closed_form(self, n):
        assert classical_bound(canonical_scenario(n)) == -n + 2

    @pytest.mark.parametrize("n", range(3, 11))
    def test_every_sign_pattern_matches_enumeration(self, n):
        for bits in range(1 << n):
            signs = tuple(-1 if (bits >> i) & 1 else 1 for i in range(n))
            assert classical_bound(CycleScenario(n, signs)) == enumerated_bound(signs)

    @pytest.mark.parametrize("n", range(11, 19))
    def test_random_sign_patterns_match_enumeration(self, n):
        # Each draw is checked with its first sign flipped too, so both
        # parity classes appear at every n.
        rng = np.random.default_rng(n)
        for _ in range(3):
            signs = [int(s) for s in rng.choice((-1, 1), size=n)]
            for pattern in (signs, [-signs[0]] + signs[1:]):
                assert classical_bound(CycleScenario(n, tuple(pattern))) == enumerated_bound(pattern)

    @pytest.mark.parametrize("n", [25, CYCLE_CAP])
    def test_bound_past_the_enumeration_range_follows_the_parity_rule(self, n):
        # The O(n) rule has no cap of its own: past n = 24, where enumeration
        # stops being practical, it still gives -n+2 for the canonical
        # pattern, and -n once one flipped sign makes prod(-s_i) = 1.
        canonical = canonical_scenario(n)
        assert classical_bound(canonical) == -n + 2
        flipped = CycleScenario(n, (-canonical.signs[0],) + canonical.signs[1:])
        assert classical_bound(flipped) == -n
        # All minus: y_i = +1 for every term satisfies prod(y_i) = 1.
        assert classical_bound(CycleScenario(n, (-1,) * n)) == -n

    def test_cap_enforced(self):
        with pytest.raises(ResourceLimitError, match=f"cycle capped at {CYCLE_CAP} nodes"):
            canonical_scenario(CYCLE_CAP + 1)

    def test_too_small_cycle_rejected(self):
        with pytest.raises(PreconditionError):
            CycleScenario(2, (1, 1))

    @given(seed=st.integers(0, 10_000), n=st.integers(3, 10))
    @settings(max_examples=60, deadline=None)
    def test_gauge_parity_rule(self, seed, n):
        # Flipping x_i -> e_i x_i maps sign patterns within a parity class,
        # so only the product of signs matters: the bound is -n when all
        # terms can be made -1 simultaneously, which needs prod(signs) =
        # (-1)^n, and -n+2 otherwise (one frustrated edge costs exactly 2).
        rng = np.random.default_rng(seed)
        signs = tuple(int(s) for s in rng.choice((-1, 1), size=n))
        expected = -n if np.prod(signs) == (-1) ** n else -n + 2
        assert classical_bound(CycleScenario(n, signs)) == expected

    @given(seed=st.integers(0, 10_000), n=st.integers(3, 10), shift=st.integers(0, 9))
    @settings(max_examples=60, deadline=None)
    def test_cyclic_relabeling_invariance(self, seed, n, shift):
        rng = np.random.default_rng(seed)
        signs = tuple(int(s) for s in rng.choice((-1, 1), size=n))
        rotated = tuple(signs[(i + shift) % n] for i in range(n))
        assert classical_bound(CycleScenario(n, signs)) == classical_bound(
            CycleScenario(n, rotated)
        )

    @pytest.mark.parametrize("n", (4, 6, 8, 10))
    def test_even_cycle_even_minus_count_reaches_minus_n(self, n):
        # For even cycles an even number of -1 signs is gauge-equivalent to
        # the all-plus pattern, whose alternating assignment scores -n.
        rng = np.random.default_rng(n)
        signs = np.ones(n, dtype=int)
        flip = rng.choice(n, size=2, replace=False)
        signs[flip] = -1
        assert classical_bound(CycleScenario(n, tuple(signs))) == -n


class TestScenarioFile:
    def test_round_trip(self):
        doc = ScenarioFile(
            CycleScenario(4, (1, 1, -1, -1)),
            builder="chained-4",
            correlators=(0.25, -0.125, 0.0, 1.0),
            singles=(0.0, 0.1, -0.1, 0.0),
        )
        assert scenario_from_text(scenario_to_text(doc)) == doc

    def test_round_trip_minimal(self):
        doc = ScenarioFile(canonical_scenario(7))
        assert scenario_from_text(scenario_to_text(doc)) == doc

    def test_comments_and_blank_lines_ignored(self):
        text = "# heading\n\nn = 3\nsigns = +1 +1 +1  # trailing\n"
        doc = scenario_from_text(text)
        assert doc.scenario == CycleScenario(3, (1, 1, 1))

    def test_missing_keys_rejected(self):
        with pytest.raises(PreconditionError):
            scenario_from_text("n = 3\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(PreconditionError):
            scenario_from_text("n = 3\nsigns = +1 +1 +1\nnot a key value\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(PreconditionError):
            scenario_from_text("n = 3\nn = 4\nsigns = +1 +1 +1\n")

    def test_wrong_length_correlators_rejected(self):
        with pytest.raises(PreconditionError):
            scenario_from_text("n = 3\nsigns = +1 +1 +1\ncorrelators = 0.0 0.0\n")
