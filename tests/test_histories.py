import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    completions,
    count_constructions,
    random_family,
    random_mixed_state,
    random_pure_state,
    random_qubit_observable,
    random_state,
)
from quantum_oracles import family_from_protocol, marginal_probability
from qcycle import histories
from qcycle.errors import PreconditionError, VerificationError
from qcycle.histories import (
    CORRELATOR_PAIRS,
    FULL_HISTORIES,
    PAIR_OUTCOMES,
    STAR,
    HistoryFamily,
    _pair_marginals,
    chain_operator,
    classify_consistency,
    decoherence_functional,
    family_from_bloch_angles,
    lg_decomposition,
)
from qcycle.linalg import (
    SIGMA_X,
    SIGMA_Z,
    Observable,
    dag,
    identity,
    max_abs,
    maximally_mixed,
    pure_state,
)
from qcycle.quantum import temporal_kcbs_protocol, xz_observable
from qcycle.scenario import TemporalProtocol

LG_ANGLES = (0.0, 2 * math.pi / 3, 4 * math.pi / 3)


def identity_slot(dim=2):
    """The trivial measurement I: P+ = I and P- = 0."""
    return Observable(identity(dim))


def interference(d, pattern) -> float:
    """2 Re D between the two completions of a one-star pattern."""
    e, g = completions(pattern)
    return 2 * d[e, g].real


def three_step_luders(family, outcomes):
    """Independent oracle: explicit measure-collapse-measure-collapse walk."""
    rho = family.state.matrix.copy()
    prob = 1.0
    for slot, k in enumerate(outcomes):
        p = family.projector(slot, k)
        branch = np.trace(p @ rho).real
        if branch <= 1e-15:
            return 0.0
        rho = p @ rho @ p / branch
        prob *= branch
    return prob


class TestChainOperator:
    def test_degenerate_family_gives_identity(self):
        fam = HistoryFamily(maximally_mixed(2), (identity_slot(), identity_slot(), identity_slot()))
        assert max_abs(chain_operator(fam, (1, 1, 1)) - identity(2)) == 0.0

    def test_single_projector_slot(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        fam = HistoryFamily(
            maximally_mixed(2), (Observable(2 * p0 - identity(2)), identity_slot(), identity_slot())
        )
        assert max_abs(chain_operator(fam, (1, 1, 1)) - p0) == 0.0

    def test_z_then_x_chain(self):
        # C = |+><+| |0><0| has squared-norm trace 1/4 on the mixed state.
        fam = HistoryFamily(
            maximally_mixed(2), (Observable(SIGMA_Z), Observable(SIGMA_X), identity_slot())
        )
        c = chain_operator(fam, (1, 1, 1))
        plus = np.array([1, 1]) / math.sqrt(2)
        expected = np.outer(plus, plus) @ np.diag([1.0, 0.0])
        assert max_abs(c - expected) < 1e-12
        assert decoherence_functional(fam)[0, 0].real == pytest.approx(0.25, abs=1e-12)

    def test_star_rejected(self):
        fam = family_from_bloch_angles(LG_ANGLES)
        with pytest.raises(PreconditionError):
            chain_operator(fam, (None, 1, 1))


class TestHistoryProbability:
    def test_identity_slots_give_one(self):
        fam = HistoryFamily(maximally_mixed(2), (identity_slot(), identity_slot(), identity_slot()))
        assert decoherence_functional(fam)[0, 0].real == pytest.approx(1.0, abs=1e-12)

    def test_lg_completeness(self):
        fam = family_from_bloch_angles(LG_ANGLES)
        assert decoherence_functional(fam).trace().real == pytest.approx(1.0, abs=1e-12)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=80, deadline=None)
    def test_completeness_random(self, seed):
        fam = random_family(np.random.default_rng(seed))
        assert decoherence_functional(fam).trace().real == pytest.approx(1.0, abs=1e-10)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_luders_oracle(self, seed):
        fam = random_family(np.random.default_rng(seed))
        d = decoherence_functional(fam)
        for i, h in enumerate(FULL_HISTORIES):
            assert d[i, i].real == pytest.approx(three_step_luders(fam, h), abs=1e-10)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_final_projector_is_redundant(self, seed):
        # Tr(P3 C rho C^dag P3) = Tr(P3 C rho C^dag) by idempotence under the
        # trace, so dropping the trailing projector changes nothing.
        fam = random_family(np.random.default_rng(seed))
        d = decoherence_functional(fam)
        for i, (k, l, m) in enumerate(FULL_HISTORIES):
            partial = fam.projector(1, l) @ fam.projector(0, k)
            alt = np.trace(
                fam.projector(2, m) @ partial @ fam.state.matrix @ dag(partial)
            ).real
            assert d[i, i].real == pytest.approx(alt, abs=1e-12)


class TestConsistency:
    def test_commuting_slots_are_consistent(self):
        z = Observable(SIGMA_Z)
        fam = HistoryFamily(maximally_mixed(2), (z, z, z))
        e, g = completions((None, 1, 1))
        assert decoherence_functional(fam)[e, g].real == pytest.approx(0.0, abs=1e-14)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_symmetric(self, seed):
        re = decoherence_functional(random_family(np.random.default_rng(seed))).real
        assert max_abs(re - re.T) <= 1e-12

    def test_classification_thresholds(self):
        assert classify_consistency(5e-11) == "consistent"
        assert classify_consistency(5e-8) == "marginally inconsistent"
        assert classify_consistency(1e-3) == "inconsistent"


class TestInterference:
    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_last_slot_vanishes(self, seed):
        d = decoherence_functional(random_family(np.random.default_rng(seed)))
        for k, l in itertools.product((1, -1), repeat=2):
            assert abs(interference(d, (k, l, None))) <= 1e-12

    def test_commuting_slots_have_no_interference(self):
        z = Observable(SIGMA_Z)
        d = decoherence_functional(HistoryFamily(pure_state([0.6, 0.8]), (z, z, z)))
        for pattern in ((None, 1, 1), (1, None, 1), (None, 1, -1), (1, None, -1)):
            assert abs(interference(d, pattern)) <= 1e-12

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=80, deadline=None)
    def test_marginal_identity(self, seed):
        # p(pattern with star) = p(+ filled) + p(- filled) + I(pattern),
        # both sides computed by independent routes.
        fam = random_family(np.random.default_rng(seed))
        d = decoherence_functional(fam)
        for pos in range(3):
            for k, m in itertools.product((1, -1), repeat=2):
                pattern = [k, m]
                pattern.insert(pos, None)
                e, g = completions(pattern)
                lhs = marginal_probability(fam, pattern)
                rhs = d[e, e].real + d[g, g].real + interference(d, pattern)
                assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_wrong_star_count_rejected(self):
        # D is indexed by full histories only: a chain with any star is refused.
        fam = family_from_bloch_angles(LG_ANGLES)
        for pattern in ((1, 1, None), (None, 1, None), (None, None, None)):
            with pytest.raises(PreconditionError):
                chain_operator(fam, pattern)


class TestDecoherenceFunctional:
    def test_complex_diagonal_rejected(self):
        # A valid family always has a real diagonal; a non-Hermitian "state"
        # behind the same projectors must trip the probability check.
        fam = family_from_bloch_angles(LG_ANGLES)
        fake = SimpleNamespace(
            projector=fam.projector,
            state=SimpleNamespace(matrix=np.diag([0.5, 0.5 + 1e-3j])),
        )
        with pytest.raises(VerificationError):
            decoherence_functional(fake)


class TestLgDecomposition:
    def test_reads_one_decoherence_functional(self):
        # Probabilities are the diagonal of D; each interference term is twice
        # the pair value at the pattern's own completions, never in the last slot.
        state = random_state(np.random.default_rng(3))
        fam = HistoryFamily(state, tuple(xz_observable(a) for a in (0.4, 1.3, 2.6)))
        d = decoherence_functional(fam)
        dec = lg_decomposition(fam)
        assert list(dec.probabilities) == list(FULL_HISTORIES)
        for i, h in enumerate(FULL_HISTORIES):
            assert dec.probabilities[h] == d[i, i].real
        assert len(dec.interference) == len(dec.pair_classification) == 8
        for (pattern, term), (pe, pg, value, _) in zip(dec.interference.items(), dec.pair_classification):
            e, g = completions(pattern)
            assert pattern[2] is not None
            assert (pe, pg) == (FULL_HISTORIES[e], FULL_HISTORIES[g])
            assert value == d[e, g].real
            assert term == 2 * value

    def test_each_chain_formed_once(self, monkeypatch):
        calls = []

        def counted(family, history, _chain=histories.chain_operator):
            calls.append(tuple(history))
            return _chain(family, history)

        monkeypatch.setattr(histories, "chain_operator", counted)
        lg_decomposition(family_from_bloch_angles(LG_ANGLES))
        assert sorted(calls) == sorted(FULL_HISTORIES)

    def test_equal_observables(self):
        fam = family_from_bloch_angles((0.7, 0.7, 0.7))
        dec = lg_decomposition(fam)
        assert np.allclose(dec.correlators, 1.0, atol=1e-12)
        assert dec.lhs == pytest.approx(3.0, abs=1e-12)
        assert all(abs(v) < 1e-12 for v in dec.interference.values())
        assert all(label == "consistent" for _, _, _, label in dec.pair_classification)

    def test_lg_configuration_violates(self):
        dec = lg_decomposition(family_from_bloch_angles(LG_ANGLES))
        assert dec.lhs == pytest.approx(-1.5, abs=1e-12)
        assert max(abs(v) for v in dec.interference.values()) > 0.01
        assert any(label == "inconsistent" for _, _, _, label in dec.pair_classification)

    def test_correlator_routes_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            fam = random_family(rng)
            dec = lg_decomposition(fam)
            assert np.allclose(dec.correlators, dec.correlators_anticommutator, atol=1e-9)

    def test_decomposition_equals_lhs_plus_one(self):
        # The diagonal-plus-interference rewriting is an exact affine shift.
        rng = np.random.default_rng(9)
        for _ in range(200):
            dec = lg_decomposition(random_family(rng))
            assert dec.decomposition_value == pytest.approx(dec.lhs + 1.0, abs=1e-10)

    def test_violation_requires_inconsistent_pair(self):
        rng = np.random.default_rng(21)
        found = 0
        for _ in range(400):
            dec = lg_decomposition(random_family(rng))
            if dec.lhs < -1.0 - 1e-6:
                found += 1
                assert any(abs(v) > 1e-6 for _, _, v, _ in dec.pair_classification)
        assert found > 20

    def test_validated_objects_per_call(self):
        # The anticommutator route reads the family's own observables, so a
        # decomposition validates nothing; a family build makes one
        # Observable per slot and its State, afresh on every call.
        fam = family_from_bloch_angles(LG_ANGLES)
        for _ in range(2):
            assert count_constructions(lambda: lg_decomposition(fam)) == (0, 0)
            assert count_constructions(lambda: family_from_bloch_angles(LG_ANGLES)) == (3, 1)

    def test_optimizer_found_violation_has_interference(self):
        # Push the family to the strongest violation and check the witness
        # interference is present there too.
        from qcycle.search import nelder_mead

        def objective(batch):
            return np.array([lg_decomposition(family_from_bloch_angles(a)).lhs for a in batch])

        x, value = nelder_mead(objective, np.array([[0.1, 2.0, 4.0]]), np.full(3, 0.3))
        assert value[0] == pytest.approx(-1.5, abs=1e-8)
        dec = lg_decomposition(family_from_bloch_angles(x[0]))
        assert any(abs(v) > 1e-3 for _, _, v, _ in dec.pair_classification)


class TestFamilyBuilders:
    def test_from_protocol_matches_angles(self):
        base = temporal_kcbs_protocol()
        protocol = TemporalProtocol(
            base.initial_state, base.axis, base.angular_rate, (0.0, 0.25, 0.5), base.measured
        )
        fam = family_from_protocol(protocol)
        angles = tuple(2 * base.angular_rate * t for t in protocol.times)
        ref = family_from_bloch_angles(angles)
        for got, want in zip(fam.observables, ref.observables):
            assert max_abs(got.matrix - want.matrix) < 1e-12

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle_rejected(self, bad):
        with pytest.raises(PreconditionError):
            family_from_bloch_angles((0.0, bad, 1.0))

    def test_from_protocol_requires_three_times(self):
        with pytest.raises(PreconditionError):
            family_from_protocol(temporal_kcbs_protocol())

    @pytest.mark.parametrize("bad", [None, 0, 2])
    def test_projector_rejects_bad_outcome(self, bad):
        # None would otherwise fall through to the minus projector.
        fam = family_from_bloch_angles(LG_ANGLES)
        with pytest.raises(PreconditionError):
            fam.projector(0, bad)

    def test_slot_dimension_mismatch_rejected(self):
        qubit, qutrit = Observable(SIGMA_Z), identity_slot(3)
        with pytest.raises(PreconditionError, match="dimensions differ"):
            HistoryFamily(maximally_mixed(2), (qubit, qutrit, qubit))
        with pytest.raises(PreconditionError, match="dimensions differ"):
            HistoryFamily(maximally_mixed(3), (qutrit, qutrit, qubit))

    @pytest.mark.parametrize("count", [0, 2, 4])
    def test_slot_count_other_than_three_rejected(self, count):
        with pytest.raises(PreconditionError, match="exactly 3"):
            HistoryFamily(maximally_mixed(2), (Observable(SIGMA_Z),) * count)

    def test_projector_is_the_observables(self):
        fam = family_from_bloch_angles(LG_ANGLES)
        for slot, obs in enumerate(fam.observables):
            assert fam.projector(slot, 1) is obs.proj_plus
            assert fam.projector(slot, -1) is obs.proj_minus


class TestStackedPairMarginals:
    """The 12 starred marginals of one stacked chain product equal the per-pattern oracle byte for byte."""

    @pytest.mark.parametrize("make_state", [random_pure_state, random_mixed_state], ids=["pure", "mixed"])
    def test_marginals_and_correlators_match_the_oracle(self, make_state):
        rng = np.random.default_rng(404)
        for _ in range(60):
            fam = HistoryFamily(make_state(rng), tuple(random_qubit_observable(rng) for _ in range(3)))
            expected = []
            for a, b in CORRELATOR_PAIRS:
                row = []
                for ka, kb in PAIR_OUTCOMES:
                    pattern = [STAR] * 3
                    pattern[a], pattern[b] = ka, kb
                    row.append(marginal_probability(fam, pattern))
                expected.append(row)
            assert np.array(_pair_marginals(fam)).tobytes() == np.array(expected).tobytes()
            # <X_a X_b> = p(+,+) - p(+,-) - p(-,+) + p(-,-), summed in that order from 0.0.
            correlators = [0.0 + pp - pm - mp + mm for pp, pm, mp, mm in expected]
            assert np.array(lg_decomposition(fam).correlators).tobytes() == np.array(correlators).tobytes()

    def test_imaginary_part_beyond_tolerance_rejected(self):
        fam = family_from_bloch_angles(LG_ANGLES)
        fake = SimpleNamespace(
            projector=fam.projector,
            state=SimpleNamespace(matrix=np.diag([0.5, 0.5 + 1e-3j]), dim=2),
        )
        with pytest.raises(VerificationError, match="imaginary part"):
            _pair_marginals(fake)
