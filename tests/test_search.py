import math

import numpy as np
import pytest

from qcycle import search
from qcycle.errors import PreconditionError, ResourceLimitError
from qcycle.quantum import build
from qcycle.scenario import canonical_scenario, inequality_lhs
from qcycle.search import (
    SEARCH_START_CAP,
    SPACE_KINDS,
    SearchSpace,
    check_start_cap,
    contextual_cone_evaluator,
    contextual_cone_vectors,
    default_space_and_evaluator,
    lhs_objective,
    minimize_lhs,
    nelder_mead,
    scan_chained,
    scan_seeds,
    temporal_times_evaluator,
    temporal_times_space,
)

import search_oracles

FIVE_CYCLE_OPTIMUM = -5.0 * math.cos(math.pi / 5.0)
CONTEXTUAL_OPTIMUM = 5.0 - 4.0 * math.sqrt(5.0)
PENTAGRAM_HALF_ANGLE = math.acos(math.sqrt(1.0 / math.sqrt(5.0)))
DEGENERATE_HALF_ANGLE = math.acos(1.0 / math.sqrt(3.0))

# Each evaluator at the parameters of its validated builder. The spatial
# builder settings sit at Bloch angles -4*pi*i/5.
PROTOCOL_POINTS = {
    "temporal-times": ("kcbs-temporal", [0.0, 0.25, 0.5, 0.75, 1.0]),
    "bloch-angles": ("kcbs-spatial", [-4 * math.pi * i / 5 for i in range(5)]),
    "contextual-cone": ("kcbs-contextual", [PENTAGRAM_HALF_ANGLE, 0.0]),
}


def box(space):
    lows = np.array([lo for lo, _ in space.bounds])
    highs = np.array([hi for _, hi in space.bounds])
    return lows, highs


def assert_compatible_cycles(vs):
    assert np.allclose(np.linalg.norm(vs, axis=2), 1.0, atol=1e-12)
    adjacent = np.einsum("bij,bij->bi", vs, np.roll(vs, -1, axis=1))
    assert np.max(np.abs(adjacent)) < 1e-10


class TestSearchSpace:
    def test_dimension_must_match_bounds(self):
        with pytest.raises(PreconditionError):
            SearchSpace("temporal-times", 3, ((0.0, 1.0),) * 2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(PreconditionError):
            SearchSpace("annealing", 2, ((0.0, 1.0),) * 2)

    def test_contextual_cone_is_two_dimensional(self):
        with pytest.raises(PreconditionError):
            SearchSpace("contextual-cone", 3, ((0.0, 1.0),) * 3)


class TestEvaluators:
    def test_temporal_matches_builder_at_protocol_times(self):
        self.assert_matches_builder("temporal-times")

    def test_bloch_matches_spatial_builder(self):
        self.assert_matches_builder("bloch-angles")

    def test_contextual_matches_builder_at_pentagram(self):
        self.assert_matches_builder("contextual-cone")

    @staticmethod
    def assert_matches_builder(kind):
        builder, params = PROTOCOL_POINTS[kind]
        _, evaluator = default_space_and_evaluator(kind)
        c = evaluator(np.array([params, params]))
        assert c.shape == (2, 5)
        assert np.allclose(c, build(builder).correlations.values, atol=1e-12)

    @pytest.mark.parametrize("kind", SPACE_KINDS)
    def test_matches_scalar_oracle_at_random_points(self, kind):
        space, evaluator = default_space_and_evaluator(kind)
        lows, highs = box(space)
        points = np.random.default_rng(11).uniform(lows, highs, size=(200, space.dimension))
        if kind == "contextual-cone":
            # Half-angles where the fourth cone vector meets the first.
            points[:2, 0] = (DEGENERATE_HALF_ANGLE, math.pi - DEGENERATE_HALF_ANGLE)
        batch = evaluator(points)
        oracle = np.array([search_oracles.ORACLES[kind](p).values for p in points])
        assert batch.shape == (200, 5)
        assert np.max(np.abs(batch - oracle)) <= 1e-12

    @pytest.mark.parametrize("kind", SPACE_KINDS)
    def test_one_point_is_a_batch_of_one(self, kind):
        _, params = PROTOCOL_POINTS[kind]
        _, evaluator = default_space_and_evaluator(kind)
        c = evaluator(np.array(params))
        assert c.shape == (1, 5)
        assert np.array_equal(c[0], evaluator(np.array([params]))[0])

    @pytest.mark.parametrize("theta", np.linspace(math.pi / 4, 3 * math.pi / 4, 9))
    def test_cone_cycle_always_compatible(self, theta):
        # Adjacent vectors stay exactly orthogonal across the whole box, so
        # every evaluated point is a valid compatible cycle.
        vs = contextual_cone_vectors(theta)
        assert vs.shape == (1, 5, 3)
        assert_compatible_cycles(vs)

    def test_cone_degenerate_closure(self):
        # cos^2 = 1/3 makes the fourth vector coincide with the first; the
        # completion must still return a valid orthogonal closure.
        assert_compatible_cycles(
            contextual_cone_vectors([DEGENERATE_HALF_ANGLE, math.pi - DEGENERATE_HALF_ANGLE])
        )

    def test_cone_values_in_range(self):
        rng = np.random.default_rng(0)
        params = rng.uniform((math.pi / 4, 0.0), (3 * math.pi / 4, math.pi), size=(50, 2))
        c = contextual_cone_evaluator(params)
        assert np.all(np.abs(c) <= 1 + 1e-12)


def scored(kind):
    space, evaluator = default_space_and_evaluator(kind)
    lows, highs = box(space)
    return lhs_objective(canonical_scenario(5), evaluator), lows, highs


class TestNelderMead:
    def test_quadratic_bowl(self):
        x, value = nelder_mead(
            lambda p: np.sum((p - 1.5) ** 2, axis=1), np.zeros((1, 3)), np.full(3, 0.5)
        )
        assert value[0] < 1e-12
        assert np.allclose(x[0], 1.5, atol=1e-5)

    @pytest.mark.parametrize("kind", SPACE_KINDS)
    def test_lockstep_starts_are_independent(self, kind):
        objective, lows, highs = scored(kind)
        x0 = np.random.default_rng(5).uniform(lows, highs, size=(16, lows.size))
        steps = 0.1 * (highs - lows)
        x, value = nelder_mead(objective, x0, steps)
        for k in range(16):
            alone_x, alone_value = nelder_mead(objective, x0[k:k + 1], steps)
            assert np.max(np.abs(alone_x[0] - x[k])) <= 1e-12
            assert abs(alone_value[0] - value[k]) <= 1e-12

    @pytest.mark.parametrize("max_iter", [7, 600])
    @pytest.mark.parametrize("kind", SPACE_KINDS)
    def test_each_start_follows_the_scalar_decisions(self, kind, max_iter):
        # The same objective through the one-start scalar simplex: identical
        # moves give identical points, whether a start converges or is cut
        # off at max_iter.
        objective, lows, highs = scored(kind)
        x0 = np.random.default_rng(6).uniform(lows, highs, size=(8, lows.size))
        steps = 0.1 * (highs - lows)
        x, value = nelder_mead(objective, x0, steps, max_iter=max_iter)
        for k in range(8):
            ref_x, ref_value = search_oracles.nelder_mead(
                lambda p: float(objective(p[None, :])[0]), x0[k], steps, max_iter=max_iter
            )
            assert np.array_equal(ref_x, x[k])
            assert ref_value == value[k]

    @pytest.mark.parametrize("max_iter", [7, 600])
    def test_nan_objective_follows_the_scalar_decisions(self, max_iter):
        # NaN compares false everywhere: a NaN trial point is never taken
        # and a start whose whole simplex is NaN shrinks until max_iter.
        objective, lows, highs = scored("contextual-cone")

        def holed(batch):
            values = objective(batch)
            values[batch[:, 1] > 2.0] = np.nan
            return values

        x0 = np.random.default_rng(8).uniform(lows, highs, size=(12, 2))
        x0[0] = (1.0, 2.5)  # every vertex of this simplex scores NaN
        steps = 0.1 * (highs - lows)
        x, value = nelder_mead(holed, x0, steps, max_iter=max_iter)
        assert np.isnan(value).sum() >= 1 and not np.isnan(value).all()
        for k in range(12):
            ref_x, ref_value = search_oracles.nelder_mead(
                lambda p: float(holed(p[None, :])[0]), x0[k], steps, max_iter=max_iter
            )
            assert np.array_equal(ref_x, x[k], equal_nan=True)
            assert np.array_equal(ref_value, value[k], equal_nan=True)

    def test_one_call_per_iteration_plus_one_per_shrink(self):
        # Two parameters and four starts that cannot converge in 30
        # iterations: each iteration scores 3 trial points for every start
        # (12 rows), and an iteration in which some start shrinks adds one
        # call of at most 2 * 4 = 8 rows.
        objective, lows, highs = scored("contextual-cone")
        rows = []

        def counted(batch):
            rows.append(len(batch))
            return objective(batch)

        x0 = np.random.default_rng(9).uniform(lows, highs, size=(4, 2))
        nelder_mead(counted, x0, 0.1 * (highs - lows), max_iter=30)
        assert rows[0] == 4 * 3
        steps = rows[1:]
        trials = [k for k, r in enumerate(steps) if r == 12]
        shrinks = [k for k, r in enumerate(steps) if r != 12]
        assert len(trials) == 30
        assert shrinks and all(steps[k] % 2 == 0 and steps[k] <= 8 for k in shrinks)
        # A shrink call always follows the trial call of its own iteration.
        assert steps[0] == 12 and all(steps[k - 1] == 12 for k in shrinks)


# Exact results of minimize_lhs(..., starts=64), (space, seed) -> (x as
# float.hex, value as float.hex). Any change to how the optimizer batches
# its evaluations must leave every start's trajectory, and so these, exact.
GOLDEN_OPTIMA = {
    ("temporal-times", 0): (
        ("0x1.408bd94196fc2p-1", "0x1.8117b2b37e35ap-2", "0x1.808bd95c6ce3ep-1",
         "0x1.008bd8f88e77ap-1", "0x1.0117b28a273bcp-2"),
        "-0x1.02e2ac13ef8dfp+2",
    ),
    ("temporal-times", 1): (
        ("0x1.cdf46defbec99p-3", "-0x1.320b9181fd59ep-3", "0x1.9be8deaafddf2p-4",
         "0x1.66fa375f5ae4ep-2", "0x1.337d1bb234f93p-1"),
        "-0x1.02e2ac13ef8e4p+2",
    ),
    ("temporal-times", 2): (
        ("-0x1.61d799d42ab00p-5", "0x1.a9e2861204a31p-1", "0x1.14f1431749384p+0",
         "0x1.4f1432ec19bfap-4", "0x1.53c50c88690cap-2"),
        "-0x1.02e2ac13ef8e2p+2",
    ),
    ("bloch-angles", 0): (
        ("0x1.adfdf2faebc7fp-1", "0x1.ad32743368fc2p+1", "0x1.7772b5cf0aec8p+2",
         "0x1.0c58f893f63acp+1", "-0x1.ac66f4fb6516dp+0"),
        "-0x1.02e2ac13ef8e8p+2",
    ),
    ("bloch-angles", 1): (
        ("0x1.df14fa5707471p+1", "0x1.9063f8faec3ffp+2", "0x1.3e3b7edd3df36p+1",
         "0x1.3ff73b178e78cp+2", "0x1.3ac405b8d3cd4p+0"),
        "-0x1.02e2ac13ef8e8p+2",
    ),
    ("bloch-angles", 2): (
        ("0x1.677b46c5bc9dep+2", "0x1.d8d434a4f4859p+0", "0x1.170e88e1daf24p+2",
         "0x1.2e4279e67ab3ep-1", "0x1.8d4395fceb18ap+1"),
        "-0x1.02e2ac13ef8e8p+2",
    ),
    ("contextual-cone", 0): (
        ("0x1.ad3371eac4d56p-1", "0x1.921fb4f944f5ap+1"),
        "-0x1.f8dde6e5fd29ap+1",
    ),
    ("contextual-cone", 1): (
        ("0x1.ad3371db271bep-1", "0x1.921fb51007b6ap+1"),
        "-0x1.f8dde6e5fd29cp+1",
    ),
    ("contextual-cone", 2): (
        ("0x1.ad3371f17b646p-1", "-0x1.8c13f74e34cdcp-26"),
        "-0x1.f8dde6e5fd2a0p+1",
    ),
}


class TestMinimizeLhs:
    @pytest.mark.parametrize("kind, seed", sorted(GOLDEN_OPTIMA))
    def test_golden_trajectory(self, kind, seed):
        space, evaluator = default_space_and_evaluator(kind)
        x, value = minimize_lhs(space, canonical_scenario(5), evaluator, seed=seed, starts=64)
        golden_x, golden_value = GOLDEN_OPTIMA[kind, seed]
        assert [float(t).hex() for t in x] == list(golden_x)
        assert value.hex() == golden_value

    def test_monotone_improvement(self):
        # The result never exceeds any seeded start evaluation.
        space, evaluator = default_space_and_evaluator("contextual-cone")
        scenario = canonical_scenario(5)
        _, value = minimize_lhs(space, scenario, evaluator, seed=4, starts=16)
        lows, highs = box(space)
        starts = np.random.default_rng(4).uniform(lows, highs, size=(16, 2))
        for start in starts:
            assert value <= inequality_lhs(search_oracles.contextual_cone(start)) + 1e-12

    @pytest.mark.parametrize("kind", SPACE_KINDS)
    def test_calls_the_evaluator_as_nelder_mead_does(self, kind):
        # The seeds are scored once, as vertex 0 of their simplices: no
        # call of minimize_lhs's own goes before or after nelder_mead's.
        space, evaluator = default_space_and_evaluator(kind)
        scenario = canonical_scenario(5)
        rows = []

        def counted(batch):
            rows.append(len(batch))
            return evaluator(batch)

        minimize_lhs(space, scenario, counted, seed=1, starts=16)
        searched, rows[:] = rows[:], []
        lows, highs = box(space)
        x0 = np.random.default_rng(1).uniform(lows, highs, size=(16, space.dimension))
        nelder_mead(lhs_objective(scenario, counted), x0, 0.1 * (highs - lows))
        assert searched == rows

    def test_ties_go_to_the_lowest_start(self):
        # A flat objective ties every start; the first drawn start wins.
        space = temporal_times_space()

        def flat(batch):
            return np.zeros((len(batch), 5))

        x, value = minimize_lhs(space, canonical_scenario(5), flat, seed=3, starts=8)
        first = np.random.default_rng(3).uniform(*box(space), size=(8, 5))[0]
        assert value == 0.0
        assert np.array_equal(x, first)

    def test_deterministic_given_seed(self):
        space, evaluator = default_space_and_evaluator("contextual-cone")
        scenario = canonical_scenario(5)
        a = minimize_lhs(space, scenario, evaluator, seed=2, starts=16)
        b = minimize_lhs(space, scenario, evaluator, seed=2, starts=16)
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]

    def test_seed_stability_contextual(self):
        space, evaluator = default_space_and_evaluator("contextual-cone")
        scenario = canonical_scenario(5)
        values = [
            minimize_lhs(space, scenario, evaluator, seed=s, starts=32)[1]
            for s in range(3)
        ]
        assert max(values) - min(values) < 1e-6
        assert values[0] == pytest.approx(CONTEXTUAL_OPTIMUM, abs=1e-6)

    def test_temporal_recovery(self):
        space, evaluator = default_space_and_evaluator("temporal-times")
        _, value = minimize_lhs(space, canonical_scenario(5), evaluator, seed=0, starts=32)
        assert value == pytest.approx(FIVE_CYCLE_OPTIMUM, abs=1e-6)

    def test_bloch_recovery(self):
        space, evaluator = default_space_and_evaluator("bloch-angles")
        _, value = minimize_lhs(space, canonical_scenario(5), evaluator, seed=0, starts=32)
        assert value == pytest.approx(FIVE_CYCLE_OPTIMUM, abs=1e-6)

    def test_setting_ordering_of_the_three_tests(self):
        # temporal (-4.045) < contextual (-3.944) < classical (-3).
        space_t, ev_t = default_space_and_evaluator("temporal-times")
        space_c, ev_c = default_space_and_evaluator("contextual-cone")
        scenario = canonical_scenario(5)
        _, temporal = minimize_lhs(space_t, scenario, ev_t, seed=1, starts=32)
        _, contextual = minimize_lhs(space_c, scenario, ev_c, seed=1, starts=32)
        assert abs(temporal - FIVE_CYCLE_OPTIMUM) < 1e-4
        assert abs(contextual - CONTEXTUAL_OPTIMUM) < 1e-4
        assert temporal < contextual < -3.0

    def test_starts_over_the_cap_rejected_before_drawing(self, monkeypatch):
        # 10^12 starts would ask the rng for 36 TiB; the cap must refuse
        # them before the rng or the simplex is reached.
        def unreachable(*args, **kwargs):
            raise AssertionError("allocated past the start cap")

        monkeypatch.setattr(search.np.random, "default_rng", unreachable)
        monkeypatch.setattr(search, "nelder_mead", unreachable)
        space, evaluator = default_space_and_evaluator("temporal-times")
        for starts in (SEARCH_START_CAP + 1, 10**12):
            with pytest.raises(ResourceLimitError, match="starts x seeds"):
                minimize_lhs(space, canonical_scenario(5), evaluator, starts=starts)

    def test_mismatched_scenario_rejected(self):
        space = temporal_times_space()
        with pytest.raises(PreconditionError):
            minimize_lhs(space, canonical_scenario(4), temporal_times_evaluator, starts=2)


class TestScans:
    def test_chained_rows_match_closed_form(self):
        rows = scan_chained(3, 8)
        assert len(rows) == 6
        for n, lhs, bound in rows:
            assert lhs == pytest.approx(n * math.cos(math.pi * (n - 1) / n), abs=1e-9)
            assert bound == -n + 2

    def test_cap_counts_starts_times_seeds(self):
        check_start_cap(SEARCH_START_CAP)
        check_start_cap(256, 256)
        for starts, seeds in ((SEARCH_START_CAP + 1, 1), (256, 257), (1, SEARCH_START_CAP + 1)):
            with pytest.raises(ResourceLimitError):
                check_start_cap(starts, seeds)

    def test_seed_scan_checks_the_cap_before_building(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("built past the start cap")

        monkeypatch.setattr(search, "default_space_and_evaluator", unreachable)
        monkeypatch.setattr(search, "minimize_lhs", unreachable)
        with pytest.raises(ResourceLimitError):
            scan_seeds("temporal-times", range(10**9), starts=1)
        with pytest.raises(ResourceLimitError):
            scan_seeds("temporal-times", range(2**63), starts=1)
        with pytest.raises(ResourceLimitError):
            scan_seeds("bloch-angles", range(1), starts=10**12)

    def test_seed_rows(self):
        rows = scan_seeds("contextual-cone", range(2), starts=16)
        assert [seed for seed, _, _ in rows] == [0, 1]
        for _, value, bound in rows:
            assert value == pytest.approx(CONTEXTUAL_OPTIMUM, abs=1e-6)
            assert bound == -3
