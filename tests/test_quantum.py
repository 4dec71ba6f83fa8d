import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_constructions, random_qubit_observable, random_state, random_unit3
from quantum_oracles import (
    anticommutator,
    anticommutator_correlation,
    bipartite_single,
    commutator_norm,
    correlation_joint,
    correlation_sequential,
    correlation_spatial,
    heisenberg_observable,
    kron,
    real_trace,
    repeat_agreement_probability,
    temporal_correlations_schrodinger,
)
from qcycle.errors import PreconditionError, VerificationError
from qcycle.linalg import (
    SIGMA_X,
    SIGMA_Z,
    Observable,
    identity,
    max_abs,
    maximally_mixed,
    observable_stack,
    pure_state,
    real_traces,
)
from qcycle.quantum import (
    _bipartite_result,
    build,
    builder_cycle_length,
    chained_configuration,
    contextual_kcbs_configuration,
    contextual_means,
    product_means,
    spatial_kcbs_configuration,
    symmetrized_means,
    temporal_kcbs_protocol,
    temporal_means,
    xz_observable,
)
from qcycle.scenario import (
    BipartiteConfig,
    TemporalProtocol,
    classical_bound,
    inequality_lhs,
)

FIVE_CYCLE_OPTIMUM = -5.0 * math.cos(math.pi / 5.0)  # -4.045084971874737
CONTEXTUAL_OPTIMUM = 5.0 - 4.0 * math.sqrt(5.0)  # -3.944271909999159


def pentagram_observables():
    """The contextual configuration's state and its stack as one ``Observable`` per slice, for the oracles."""
    state, stack = contextual_kcbs_configuration()
    return state, [Observable(m) for m in stack]


class TestCorrelationJoint:
    def test_self_correlation(self):
        z = Observable(SIGMA_Z)
        assert correlation_joint(maximally_mixed(2), z, z) == pytest.approx(1.0, abs=1e-12)

    def test_product_observables_on_00(self):
        rho = pure_state([1, 0, 0, 0])
        za = Observable(kron(SIGMA_Z, identity(2)))
        zb = Observable(kron(identity(2), SIGMA_Z))
        assert correlation_joint(rho, za, zb) == pytest.approx(1.0, abs=1e-12)

    def test_pentagram_term(self):
        # By symmetry each adjacent term is one fifth of the total 5-4*sqrt(5).
        state, obs = pentagram_observables()
        term = correlation_joint(state, obs[0], obs[1])
        assert term == pytest.approx(CONTEXTUAL_OPTIMUM / 5.0, abs=1e-12)

    def test_non_commuting_rejected(self, monkeypatch):
        # A cycle with a non-commuting adjacent pair has no joint context,
        # so the contextual builder refuses it.
        cycle = (maximally_mixed(2), observable_stack([SIGMA_Z] * 4 + [SIGMA_X]))
        monkeypatch.setattr("qcycle.quantum.contextual_kcbs_configuration", lambda: cycle)
        with pytest.raises(PreconditionError, match="no joint context"):
            build("kcbs-contextual")


class TestCorrelationSequential:
    def test_repeated_measurement(self):
        z = Observable(SIGMA_Z)
        value, table = correlation_sequential(maximally_mixed(2), z, z)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert table.p_first[1] == pytest.approx(0.5, abs=1e-12)
        assert table.p_second_given_first[(1, 1)] == pytest.approx(1.0, abs=1e-12)

    def test_adjacent_time_pair(self):
        # The Heisenberg partner of sigma_z one time step into the five-time
        # protocol sits at Bloch angle 4*pi/5.
        z = Observable(SIGMA_Z)
        partner = Observable(
            math.cos(4 * math.pi / 5) * SIGMA_Z - math.sin(4 * math.pi / 5) * SIGMA_X
        )
        value, _ = correlation_sequential(maximally_mixed(2), z, partner)
        assert value == pytest.approx(math.cos(4 * math.pi / 5), abs=1e-12)

    def test_orthogonal_axes_give_zero(self):
        x = Observable(SIGMA_X)
        z = Observable(SIGMA_Z)
        value, table = correlation_sequential(pure_state([1, 0]), x, z)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert table.p_first[1] == pytest.approx(0.5, abs=1e-12)

    def test_dead_branch_contributes_zero(self):
        z = Observable(SIGMA_Z)
        value, table = correlation_sequential(pure_state([1, 0]), z, z)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert table.p_first[-1] == 0.0
        assert table.p_second_given_first[(1, -1)] == 0.0

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_matches_anticommutator_formula(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_state(rng)
        x, y = random_qubit_observable(rng), random_qubit_observable(rng)
        seq, _ = correlation_sequential(rho, x, y)
        assert seq == pytest.approx(anticommutator_correlation(rho, x, y), abs=1e-10)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_order_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_state(rng)
        x, y = random_qubit_observable(rng), random_qubit_observable(rng)
        forward, _ = correlation_sequential(rho, x, y)
        backward, _ = correlation_sequential(rho, y, x)
        assert forward == pytest.approx(backward, abs=1e-10)

    def test_commuting_reduction(self):
        # Commuting pair: joint, sequential and symmetrized values coincide.
        state, obs = pentagram_observables()
        joint = correlation_joint(state, obs[2], obs[3])
        seq, _ = correlation_sequential(state, obs[2], obs[3])
        anti = anticommutator_correlation(state, obs[2], obs[3])
        assert joint == pytest.approx(seq, abs=1e-10)
        assert joint == pytest.approx(anti, abs=1e-10)


class TestAnticommutatorCorrelation:
    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_equal_observables_give_one(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_state(rng)
        x = random_qubit_observable(rng)
        assert anticommutator_correlation(rho, x, x) == pytest.approx(1.0, abs=1e-12)

    @given(phi=st.floats(0, 2 * math.pi))
    @settings(max_examples=60, deadline=None)
    def test_rotated_pair_gives_cosine(self, phi):
        z = Observable(SIGMA_Z)
        rotated = xz_observable(phi)
        value = anticommutator_correlation(maximally_mixed(2), z, rotated)
        assert value == pytest.approx(math.cos(phi), abs=1e-12)


class TestNonInvasiveness:
    def test_commuting_pairs_repeat_perfectly(self):
        state, obs = pentagram_observables()
        for i in range(5):
            p = repeat_agreement_probability(state, obs[i], obs[(i + 1) % 5])
            assert p == pytest.approx(1.0, abs=1e-10)
        za = Observable(kron(SIGMA_Z, identity(2)))
        zb = Observable(kron(identity(2), SIGMA_Z))
        assert repeat_agreement_probability(
            pure_state([1, 0, 0, 0]), za, zb
        ) == pytest.approx(1.0, abs=1e-12)

    def test_non_commuting_pair_disturbs(self):
        x = Observable(SIGMA_X)
        z = Observable(SIGMA_Z)
        assert repeat_agreement_probability(maximally_mixed(2), z, x) < 1.0 - 1e-3


class TestTemporalProtocol:
    def test_protocol_fields(self):
        p = temporal_kcbs_protocol()
        assert max_abs(p.initial_state.matrix - identity(2) / 2) == 0.0
        assert p.axis == (0.0, 1.0, 0.0)
        assert p.angular_rate == pytest.approx(8 * math.pi / 5)
        assert p.times == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert max_abs(p.measured.matrix - SIGMA_Z) == 0.0

    def test_adjacent_correlators(self):
        corr = temporal_means(temporal_kcbs_protocol())[0]
        for value in corr.values:
            assert value == pytest.approx(-math.cos(math.pi / 5), abs=1e-12)
        assert inequality_lhs(corr) == pytest.approx(FIVE_CYCLE_OPTIMUM, abs=1e-12)

    def test_classical_bound_of_scenario(self):
        corr = temporal_means(temporal_kcbs_protocol())[0]
        assert classical_bound(corr.scenario) == -3

    def test_schrodinger_oracle_agrees(self):
        p = temporal_kcbs_protocol()
        heisenberg, _ = temporal_means(p)
        schrodinger = temporal_correlations_schrodinger(p)
        assert np.allclose(heisenberg.values, schrodinger.values, atol=1e-12)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_schrodinger_oracle_agrees_on_random_protocols(self, seed):
        rng = np.random.default_rng(seed)
        times = tuple(sorted(rng.uniform(0, 1, size=4)))
        if len(set(times)) < 4:
            return
        p = TemporalProtocol(
            initial_state=random_state(rng),
            axis=random_unit3(rng),
            angular_rate=rng.uniform(-10, 10),
            times=times,
            measured=random_qubit_observable(rng),
        )
        assert np.allclose(
            temporal_means(p)[0].values,
            temporal_correlations_schrodinger(p).values,
            atol=1e-10,
        )

    def test_singles_unbiased(self):
        assert np.allclose(temporal_means(temporal_kcbs_protocol())[1], 0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_stack_matches_the_per_time_oracle_byte_for_byte(self, seed):
        # The Heisenberg stack equals one heisenberg_observable per time, so the
        # correlators and singles equal the per-term oracles to the last bit.
        rng = np.random.default_rng([seed, 20])
        p = temporal_kcbs_protocol() if seed == 0 else TemporalProtocol(
            random_state(rng), random_unit3(rng), rng.uniform(-10, 10),
            tuple(np.cumsum(rng.uniform(0.1, 1.0, size=int(rng.integers(3, 8))))), random_qubit_observable(rng),
        )
        obs = [heisenberg_observable(p, t) for t in p.times]
        corr, singles = temporal_means(p)
        rho = p.initial_state.matrix
        pairs = zip(obs, obs[1:] + obs[:1])
        assert as_bytes(corr.values) == as_bytes([anticommutator_correlation(p.initial_state, x, y) for x, y in pairs])
        assert as_bytes(singles) == as_bytes([real_trace(rho @ o.matrix) for o in obs])

    def test_times_must_increase(self):
        with pytest.raises(PreconditionError):
            TemporalProtocol(
                maximally_mixed(2),
                (0, 1, 0),
                1.0,
                (0.0, 0.5, 0.5),
                Observable(SIGMA_Z),
            )


class TestContextualConfiguration:
    def test_matches_frozen_fixture(self):
        # Regression pins against convention drift: the first pentagram
        # observable and the axis state, stored in the matrix_dump format.
        from pathlib import Path

        from matrix_dump import format_matrix, parse_matrix

        data = Path(__file__).parent / "data"
        state, obs = contextual_kcbs_configuration()
        frozen = (data / "pentagram_x0.txt").read_text()
        assert format_matrix(obs[0]) == frozen
        assert max_abs(parse_matrix(frozen) - obs[0]) == 0.0
        assert format_matrix(state.matrix) == (data / "pentagram_state.txt").read_text()

    def test_adjacent_commutators_vanish(self):
        _, obs = contextual_kcbs_configuration()
        for i in range(5):
            assert commutator_norm(obs[i], obs[(i + 1) % 5]) <= 1e-10

    def test_optimum(self):
        state, obs = contextual_kcbs_configuration()
        corr, _, _ = contextual_means(state, obs)
        assert inequality_lhs(corr) == pytest.approx(CONTEXTUAL_OPTIMUM, abs=1e-12)

    def test_observables_square_to_identity(self):
        _, obs = contextual_kcbs_configuration()
        for x in obs:
            assert max_abs(x @ x - identity(3)) < 1e-12


class TestSpatialConfiguration:
    def test_perfect_correlations(self):
        for value in build("kcbs-spatial").perfect_pairs:
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_optimum_matches_temporal(self):
        corr = build("kcbs-spatial").correlations
        assert inequality_lhs(corr) == pytest.approx(FIVE_CYCLE_OPTIMUM, abs=1e-12)
        assert classical_bound(corr.scenario) == -3

    def test_xz_settings_give_cosine(self):
        # <phi+| M(a) x M(b) |phi+> = cos(a - b); checked over a small grid.
        state = spatial_kcbs_configuration().state
        for a, b in ((0.3, 1.1), (2.0, 0.5), (4.0, 4.0)):
            cfg = BipartiteConfig(
                state, observable_stack([xz_observable(a).matrix]), observable_stack([xz_observable(b).matrix]),
                ((0, 0, 1),),
            )
            assert correlation_spatial(cfg, 0, 0) == pytest.approx(
                math.cos(a - b), abs=1e-12
            )

    def test_orthogonal_settings_uncorrelated(self):
        state = spatial_kcbs_configuration().state
        cfg = BipartiteConfig(state, observable_stack([SIGMA_Z]), observable_stack([SIGMA_X]), ((0, 0, 1),))
        assert correlation_spatial(cfg, 0, 0) == pytest.approx(0.0, abs=1e-12)

    def test_index_out_of_range(self):
        cfg = spatial_kcbs_configuration()
        with pytest.raises(PreconditionError):
            correlation_spatial(cfg, 0, 5)

    def test_tsirelson_equivalence_entrywise(self):
        # The full 5x5 temporal correlator matrix equals the spatial one.
        protocol = temporal_kcbs_protocol()
        obs = [heisenberg_observable(protocol, t) for t in protocol.times]
        cfg = spatial_kcbs_configuration()
        for i in range(5):
            for j in range(5):
                temporal = anticommutator_correlation(
                    protocol.initial_state, obs[i], obs[j]
                )
                spatial = correlation_spatial(cfg, i, j)
                assert abs(temporal - spatial) <= 1e-10


class TestChainedConfiguration:
    @pytest.mark.parametrize(
        "n,bound", [(3, -1), (4, -2), (5, -3)]
    )
    def test_small_cycles(self, n, bound):
        corr = build(f"chained-{n}").correlations
        assert inequality_lhs(corr) == pytest.approx(
            n * math.cos(math.pi * (n - 1) / n), abs=1e-12
        )
        assert classical_bound(corr.scenario) == bound

    @pytest.mark.parametrize("n", range(3, 16))
    def test_closed_form_both_parities(self, n):
        # The printed odd-n settings do reach n*cos(pi*(n-1)/n) exactly,
        # m = 0 forcing the first setting to the z-axis notwithstanding.
        corr = build(f"chained-{n}").correlations
        assert inequality_lhs(corr) == pytest.approx(
            n * math.cos(math.pi * (n - 1) / n), abs=1e-9
        )

    @pytest.mark.parametrize("n", (3, 5, 7, 9))
    def test_odd_perfect_correlations(self, n):
        for value in build(f"chained-{n}").perfect_pairs:
            assert value == pytest.approx(1.0, abs=1e-10)

    def test_too_small_rejected(self):
        with pytest.raises(PreconditionError):
            chained_configuration(2)


class TestBuilders:
    def test_unknown_builder_rejected(self):
        with pytest.raises(PreconditionError):
            build("kcbs-imaginary")

    @pytest.mark.parametrize("name", ["chained-5\n", "chained-\u0665", "chained-", "chained-+5"])
    def test_malformed_chained_name_rejected(self, name):
        # A trailing newline used to pass the pattern and put an empty line
        # into the report body; other scripts' digits passed it too.
        with pytest.raises(PreconditionError, match="unknown builder"):
            build(name)

    def test_temporal_result(self):
        result = build("kcbs-temporal")
        assert inequality_lhs(result.correlations) == pytest.approx(
            FIVE_CYCLE_OPTIMUM, abs=1e-12
        )
        assert np.allclose(result.singles, 0.0, atol=1e-12)

    def test_contextual_singles(self):
        # <X_j> = 2 cos^2(theta) - 1 = 2/sqrt(5) - 1 on the axis state.
        result = build("kcbs-contextual")
        expected = 2.0 / math.sqrt(5.0) - 1.0
        assert np.allclose(result.singles, expected, atol=1e-12)
        assert result.adjacent_commutator_norms is not None
        assert max(result.adjacent_commutator_norms) <= 1e-10

    def test_spatial_result(self):
        result = build("kcbs-spatial")
        assert result.perfect_pairs is not None
        assert np.allclose(result.perfect_pairs, 1.0, atol=1e-12)
        assert np.allclose(result.singles, 0.0, atol=1e-12)

    @pytest.mark.parametrize("n", (4, 7))
    def test_chained_singles_unbiased(self, n):
        result = build(f"chained-{n}")
        assert np.allclose(result.singles, 0.0, atol=1e-12)


def stacked_settings(fn) -> list[int]:
    """The number of settings in each ``observable_stack`` the builders validate while ``fn()`` runs."""
    sizes = []

    def counted(matrices, _stack=observable_stack):
        stack = _stack(matrices)
        sizes.append(len(stack))
        return stack

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("qcycle.quantum.observable_stack", counted)
        fn()
    return sizes


class TestValidatedObjectCounts:
    """Every build constructs and validates its objects afresh: nothing is
    cached or skipped. A build validates its settings as stacks, one per
    party (one shared stack for odd chained cycles), and builds no
    per-setting ``Observable``; the temporal protocol's one ``Observable`` is
    its measured observable, whose Heisenberg stack serves both the
    correlators and the singles.
    """

    @pytest.mark.parametrize(
        "name, counts",
        [("kcbs-contextual", (0, 1)), ("kcbs-temporal", (1, 1)), ("kcbs-spatial", (0, 1))]
        + [(f"chained-{n}", (0, 1)) for n in range(3, 25)],
    )
    def test_observables_and_states_per_build(self, name, counts):
        for _ in range(2):
            assert count_constructions(lambda: build(name)) == counts

    @pytest.mark.parametrize(
        "name", ["kcbs-contextual", "kcbs-temporal", "kcbs-spatial"] + [f"chained-{n}" for n in range(3, 25)]
    )
    def test_settings_validated_as_stacks_per_build(self, name):
        n = builder_cycle_length(name)
        stacks = [n // 2, n // 2] if name.startswith("chained") and n % 2 == 0 else [n]
        for _ in range(2):
            assert stacked_settings(lambda: build(name)) == stacks


def random_local_observable(rng, dim: int) -> np.ndarray:
    """2|v><v| - I for a random complex unit vector v: Hermitian, squares to I."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= math.sqrt((v.conj() @ v).real)
    return 2.0 * np.outer(v, v.conj()) - identity(dim)


def commuting_pair(rng, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Two +-1 observables U D U^dag with random sign diagonals D in one random eigenbasis U."""
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    x, y = (u @ np.diag(rng.choice((1.0, -1.0), size=dim)) @ u.conj().T for _ in range(2))
    return x, y


def as_bytes(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


class TestStackedProductMeans:
    """The stacked kron-matmul-trace routes equal the per-term oracles byte for byte."""

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)], ids=["qubit-qubit", "qubit-qutrit", "qutrit-qubit"])
    @pytest.mark.parametrize("terms", [1, 2, 3, 5, 13, 40])
    def test_random_configurations(self, dims, terms):
        da, db = dims
        rng = np.random.default_rng([da, db, terms])
        for _ in range(5):
            alice = observable_stack([random_local_observable(rng, da) for _ in range(int(rng.integers(1, 6)))])
            bob = observable_stack([random_local_observable(rng, db) for _ in range(int(rng.integers(1, 6)))])
            pairing = tuple(
                (int(rng.integers(len(alice))), int(rng.integers(len(bob))), int(rng.choice((1, -1))))
                for _ in range(terms)
            )
            cfg = BipartiteConfig(random_state(rng, da * db), alice, bob, pairing)
            expected = [correlation_spatial(cfg, i, j) for i, j, _ in pairing]
            a = np.stack([alice[i] for i, _, _ in pairing])
            b = np.stack([bob[j] for _, j, _ in pairing])
            assert as_bytes(product_means(cfg.state.matrix, a, b)) == as_bytes(expected)
            nodes = [
                ("A", int(rng.integers(len(alice)))) if rng.random() < 0.5 else ("B", int(rng.integers(len(bob))))
                for _ in range(terms)
            ]
            if terms < 3:  # a cycle scenario needs three terms
                continue
            result = _bipartite_result("random", cfg, nodes, True)
            assert as_bytes(result.correlations.values) == as_bytes(expected)
            assert as_bytes(result.singles) == as_bytes([bipartite_single(cfg, party, idx) for party, idx in nodes])
            shared = range(min(len(alice), len(bob)))
            assert as_bytes(result.perfect_pairs) == as_bytes([correlation_spatial(cfg, i, i) for i in shared])
            assert _bipartite_result("random", cfg, nodes, False).perfect_pairs is None

    def test_imaginary_part_beyond_tolerance_rejected(self):
        a = np.stack([SIGMA_Z, identity(2)])
        b = np.stack([identity(2), SIGMA_X])
        rho = np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex)
        assert product_means(rho, a, b) == [0.5, 0.0]
        rho[3, 3] = 2e-10j  # Tr(rho (Z x I)) picks up -2e-10j
        with pytest.raises(VerificationError, match="imaginary part"):
            product_means(rho, a, b)
        rho[3, 3] = 0.5e-10j  # within 1e-10: accepted, real part returned
        assert product_means(rho, a, b)[0] == 0.5


class TestRealTraces:
    """``real_traces`` of every stacked product equals the per-term oracles byte for byte."""

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("terms", [1, 2, 3, 7, 16, 40])
    def test_random_stacks(self, dim, terms):
        rng = np.random.default_rng([dim, terms, 16])
        for _ in range(3):
            rho = random_state(rng, dim).matrix
            pairs = [commuting_pair(rng, dim) for _ in range(terms)]
            xs, ys = [a for a, _ in pairs], [b for _, b in pairs]
            x, y = np.stack(xs), np.stack(ys)
            rx = rho @ x
            assert as_bytes(real_traces(rx)) == as_bytes([real_trace(rho @ m) for m in xs])
            assert as_bytes(real_traces(rx @ y)) == as_bytes([real_trace(rho @ a @ b) for a, b in zip(xs, ys)])
            xs, ys = ([random_local_observable(rng, dim) for _ in range(terms)] for _ in range(2))
            x, y = np.stack(xs), np.stack(ys)
            anti = [0.5 * real_trace(rho @ anticommutator(a, b)) for a, b in zip(xs, ys)]
            assert as_bytes(symmetrized_means(rho, x, y)) == as_bytes(anti)
            if dim == 4:  # rho on a qubit pair
                a = np.stack([random_local_observable(rng, 2) for _ in range(terms)])
                b = np.stack([random_local_observable(rng, 2) for _ in range(terms)])
                expected = [real_trace(rho @ kron(p, q)) for p, q in zip(a, b)]
                assert as_bytes(product_means(rho, a, b)) == as_bytes(expected)

    def test_returns_one_float_per_slice(self):
        assert real_traces(np.zeros((0, 2, 2), dtype=complex)) == []
        assert real_traces(np.stack([identity(3), 2 * identity(3)])) == [3.0, 6.0]

    def test_imaginary_part_beyond_tolerance_rejected(self):
        stack = np.stack([identity(2), identity(2)]).astype(complex)
        stack[1, 0, 0] += 2e-10j
        with pytest.raises(VerificationError, match="imaginary part 2.000e-10 beyond 1e-10"):
            real_traces(stack)
        stack[1, 0, 0] = 1 + 1e-10j  # exactly at the bound: accepted
        assert real_traces(stack) == [2.0, 2.0]
