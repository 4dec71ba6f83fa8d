"""Derivative-free minimization of cycle-inequality values.

Rediscovers the extremal quantum values as optima of explicit configuration
families instead of trusting closed forms. Three parameter spaces are built
in:

* ``temporal-times``: the n measurement times of the five-time qubit
  protocol (rotation rate fixed); the objective is periodic in each time, so
  unconstrained simplex moves are lossless.
* ``bloch-angles``: n xz-plane angles shared by both parties on the
  maximally entangled state, which enforces the perfect-correlation
  constraint for every parameter value.
* ``contextual-cone``: cone half-angle and state angle for a cycle of five
  rank-1 qutrit projectors. The azimuth step is derived from the half-angle
  so that consecutive vectors are exactly orthogonal, and the fifth vector is
  completed orthogonal to both neighbours, so every evaluated point is a
  valid compatible cycle; a naive cone with free step would leave validity
  and bottom out at the sequential-measurement value instead of the
  compatible-cycle one.

Batch contract: every evaluator takes a (B, dim) batch of parameters (a 1-D
point is a batch of one) and returns (B, n) correlators, computed by numpy
broadcasting from cached closed-form constants; the validated-object route
(``CorrelationVector``, ``su2_rotation`` per point) is the test oracle only.

The optimizer is a multi-start Nelder-Mead simplex run in lockstep: all
starts, seeded uniformly over the box from one rng, move together as
(starts, dim+1, dim) arrays. One evaluator call per iteration scores the
three trial points of every active start (3*S rows), one more the starts
that shrink. Each start picks its move by masks and freezes on its own
convergence test, so it takes exactly the steps it would take alone. The
best result wins, ties going to the lowest start index: a seed pins it.

Per iteration the loop makes a fixed, small number of numpy calls, whatever
S is: one argsort of the (S, dim+1) values, then one flat ``take`` each for
the sorted values and vertices (precomputed row offsets turn the per-row
order into flat indices); the convergence test on the value spread, with the
simplex size measured only for the starts that pass it; the centroid as
sequential adds over the sorted head (the adds np.add.reduce makes over that
axis); the three trials as centroid + k * (centroid - worst); the one
evaluator call; the move masks, whose sum is the chosen trial's row; and one
flat ``take`` each for that trial point and value. Only starts that
converge or shrink pay for index arrays. The evaluators work in place in
one or two buffers; the cone builds its vectors component-major, so each
ufunc runs on contiguous rows. Every floating-point operation is the one the
straightforward expression makes, so trajectories are bit-identical to it.
``SEARCH_START_CAP`` bounds starts x seeds per call, ``CYCLE_CAP`` a chained scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import PreconditionError, ResourceLimitError
from .linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, real_traces, su2_rotation
from .quantum import build, product_means, spatial_kcbs_configuration, temporal_kcbs_protocol
from .scenario import (
    CycleScenario,
    canonical_scenario,
    check_cycle_cap,
    classical_bound,
    inequality_lhs,
)

SPACE_KINDS = ("temporal-times", "bloch-angles", "contextual-cone")

# Most start runs (starts x seeds) one minimize_lhs or scan_seeds call may ask
# for. At 65 536 starts a single bloch-angles run, the slowest space, took
# 23.5 s (0.36 ms a start) and peaked at 144 MB on a 2-core host; larger
# requests end in ResourceLimitError before anything is allocated.
SEARCH_START_CAP = 65_536

Evaluator = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SearchSpace:
    kind: str
    dimension: int
    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.kind not in SPACE_KINDS:
            raise PreconditionError(f"unknown search space kind {self.kind!r}")
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        object.__setattr__(self, "bounds", bounds)
        if len(bounds) != self.dimension:
            raise PreconditionError("one bound interval per dimension required")
        if self.kind == "contextual-cone" and self.dimension != 2:
            raise PreconditionError("contextual-cone has 2 parameters")
        if any(hi <= lo for lo, hi in bounds):
            raise PreconditionError("empty bound interval")


def temporal_times_space() -> SearchSpace:
    return SearchSpace("temporal-times", 5, ((0.0, 1.0),) * 5)


def bloch_angles_space() -> SearchSpace:
    return SearchSpace("bloch-angles", 5, ((0.0, 2.0 * math.pi),) * 5)


def contextual_cone_space() -> SearchSpace:
    # The azimuth step solving the orthogonality condition exists only for
    # half-angles in [pi/4, 3*pi/4]; the evaluator clamps to this box.
    return SearchSpace(
        "contextual-cone", 2, ((math.pi / 4.0, 3.0 * math.pi / 4.0), (0.0, math.pi))
    )


class _Constants(NamedTuple):
    temporal_rate: float
    temporal_offset: float
    temporal_amplitude: float
    phi_plus_xz: tuple[float, float, float, float]  # T_xx, T_xz, T_zx, T_zz


@lru_cache(maxsize=1)
def _constants() -> _Constants:
    """Closed-form coefficients of the temporal and Bloch evaluators.

    Temporal: a +-1 qubit observable is m0*I + m.sigma with either m0 = 0 or
    m = 0, so (1/2)Tr(rho{A, B}) = m0^2 + a.b for every state. Conjugation
    by su2_rotation(axis, rate*t) turns m about the axis by 2*rate*t, so the
    Bloch vector at time t is par + perp(t) with perp(t) turned by that
    angle, and adjacent correlators are m0^2 + |par|^2 + |perp|^2 cos(2*rate*dt).
    par and perp come from the Heisenberg observables at rotation angles 0
    and pi/2 (the latter flips perp).

    Bloch: the xz-plane setting at angle a is (sin a, cos a).(sigma_x,
    sigma_z), so <M_i x M_j> is u_i^T T u_j with T the xz block of the
    state's correlation tensor.
    """
    protocol = temporal_kcbs_protocol()
    measured = protocol.measured.matrix
    paulis = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])

    def heisenberg_bloch(angle: float) -> np.ndarray:
        u = su2_rotation(protocol.axis, angle)
        h = u.conj().T @ measured @ u
        return np.array([0.5 * t for t in real_traces(h @ paulis)])

    start, flipped = heisenberg_bloch(0.0), heisenberg_bloch(0.5 * math.pi)
    par, perp = 0.5 * (start + flipped), 0.5 * (start - flipped)
    m0 = 0.5 * real_traces(measured[None])[0]
    rho = spatial_kcbs_configuration().state.matrix
    # T_xx, T_xz, T_zx, T_zz: sigma_x, sigma_x, sigma_z, sigma_z against x, z, x, z.
    tensor = tuple(product_means(rho, paulis[[0, 0, 2, 2]], paulis[[0, 2, 0, 2]]))
    return _Constants(
        2.0 * protocol.angular_rate, m0 * m0 + float(par @ par), float(perp @ perp), tensor
    )


@lru_cache(maxsize=None)
def _next(n: int, k: int = 1) -> np.ndarray:
    """Index i + k mod n of every column i: a cached gather in place of np.roll."""
    index = np.roll(np.arange(n), -k)
    index.flags.writeable = False
    return index


def _batch(params) -> np.ndarray:
    """(B, dim) float array; a 1-D point is a batch of one."""
    x = np.asarray(params, dtype=float)
    if x.ndim < 2:
        x = x.reshape(1, -1)  # np.atleast_2d's rule, without its Python wrapper
    elif x.ndim != 2:
        raise PreconditionError("parameters must be one point or a (B, dim) batch")
    return x


def temporal_times_evaluator(params) -> np.ndarray:
    """(B, n) five-cycle correlators of the fixed-rate protocol at arbitrary times.

    Closed form of the Heisenberg-observable route (see ``_constants``); the
    test suite pins it against the validated-object route.
    """
    times = _batch(params)
    k = _constants()
    # offset + amplitude * cos(rate * gaps), one buffer updated in place.
    c = times.take(_next(times.shape[1]), axis=1)
    c -= times
    c *= k.temporal_rate
    np.cos(c, out=c)
    c *= k.temporal_amplitude
    c += k.temporal_offset
    return c


def bloch_angles_evaluator(params) -> np.ndarray:
    """(B, n) correlators of shared xz-plane settings on |phi+>, canonical pairing.

    Sharing the settings between the parties keeps <A_i B_i> = 1 for every
    parameter value, so the whole box satisfies the perfect-correlation
    constraint of the doubled-measurement scenario.
    """
    angles = _batch(params)
    t_ss, t_sc, t_cs, t_cc = _constants().phi_plus_xz
    s, c = np.sin(angles), np.cos(angles)
    following = _next(angles.shape[1])
    s_next, c_next = s.take(following, axis=1), c.take(following, axis=1)
    # t_ss*s*s_next + t_sc*s*c_next + t_cs*c*s_next + t_cc*c*c_next, left to right.
    out = t_ss * s
    out *= s_next
    term = np.multiply(t_sc, s)
    term *= c_next
    out += term
    np.multiply(t_cs, c, out=term)
    term *= s_next
    out += term
    np.multiply(t_cc, c, out=term)
    term *= c_next
    out += term
    return out


def contextual_cone_vectors(cone_half_angles) -> np.ndarray:
    """(B, 5, 3) compatible cycles of unit vectors, one per half-angle.

    The first four sit on the cone with the azimuth step that makes
    consecutive vectors orthogonal; the fifth is the unit vector orthogonal
    to both the fourth and the first, closing the cycle exactly.
    """
    theta = np.atleast_1d(np.asarray(cone_half_angles, dtype=float))
    return np.ascontiguousarray(_cone_components(theta).transpose(2, 1, 0))


_LATER_TURNS = np.arange(1.0, 4.0)[:, None]  # azimuth multiples of the step for vectors 1..3
_LATER_TURNS.flags.writeable = False


def _cone_components(theta: np.ndarray) -> np.ndarray:
    """(3, 5, B) x, y and z components of the cone cycles of 1-D half-angles ``theta``.

    Component-major, so every ufunc below runs on contiguous rows. Vector 0
    sits at azimuth 0, where cos and sin are exactly 1 and 0, so its
    components are s and s * 0.0 without the trigonometric calls.
    """
    # min(max(.)) is np.clip's own rule, without its Python wrapper.
    theta = np.minimum(np.maximum(theta, math.pi / 4.0), 3.0 * math.pi / 4.0)
    c, s = np.cos(theta), np.sin(theta)
    step = np.arccos(np.minimum(np.maximum(-(c * c) / (s * s), -1.0), 1.0))
    azimuth = _LATER_TURNS * step
    components = np.empty((3, 5, theta.size))
    x, y, z = components
    x[0] = s
    np.multiply(s, 0.0, out=y[0])
    np.multiply(s, np.cos(azimuth), out=x[1:4])
    np.multiply(s, np.sin(azimuth, out=azimuth), out=y[1:4])
    z[:4] = c
    closing = components[:, 4]
    _cross(components[:, 3], components[:, 0], closing)
    norm = _norm(closing)
    degenerate = np.flatnonzero(norm < 1e-12)
    if degenerate.size:
        # v3 parallel to v0: any unit vector orthogonal to v0 closes the cycle.
        first = components[:, 0, degenerate]
        seed = np.where(np.abs(first[0]) > 0.9, [[0.0], [1.0], [0.0]], [[1.0], [0.0], [0.0]])
        closing[:, degenerate] = _cross(first, seed, np.empty(first.shape))
        norm = _norm(closing)
    closing /= norm
    return components


def _cross(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a x b of (3, B) component-major arrays, each component's products in np.cross's order."""
    (ax, ay, az), (bx, by, bz) = a, b
    np.multiply(ay, bz, out=out[0])
    out[0] -= az * by
    np.multiply(az, bx, out=out[1])
    out[1] -= ax * bz
    np.multiply(ax, by, out=out[2])
    out[2] -= ay * bx
    return out


def _norm(v: np.ndarray) -> np.ndarray:
    """(B,) Euclidean norms of (3, B) component-major vectors: sqrt((x*x + y*y) + z*z)."""
    squares = v * v
    total = squares[0] + squares[1]
    total += squares[2]
    return np.sqrt(total, out=total)


def contextual_cone_evaluator(params) -> np.ndarray:
    """(B, 5) joint correlators of the compatible cone cycle with an xz-plane state.

    Every adjacent projector pair is orthogonal by construction, so the joint
    correlator reduces to 1 - 2<v_i|rho|v_i> - 2<v_j|rho|v_j>.
    """
    x = _batch(params)
    vx, _, vz = _cone_components(x[:, 0])
    state_angle = x[:, 1]
    weights = vx * np.sin(state_angle)
    weights += vz * np.cos(state_angle)
    np.square(weights, out=weights)
    weights *= 2.0  # each doubled weight formed once, for i and for i - 1
    out = 1.0 - weights
    out -= weights.take(_next(5), axis=0)
    return out.T.copy()


def default_space_and_evaluator(kind: str) -> tuple[SearchSpace, Evaluator]:
    if kind == "temporal-times":
        return temporal_times_space(), temporal_times_evaluator
    if kind == "bloch-angles":
        return bloch_angles_space(), bloch_angles_evaluator
    if kind == "contextual-cone":
        return contextual_cone_space(), contextual_cone_evaluator
    raise PreconditionError(f"unknown search space kind {kind!r}")


def nelder_mead(
    f: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    initial_step: np.ndarray,
    *,
    max_iter: int = 600,
    f_tol: float = 1e-13,
    x_tol: float = 1e-7,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize f from every row of x0 at once; returns (S, dim) points, (S,) values.

    ``f`` maps a (B, dim) batch to B values. The S simplices move in lockstep:
    one call per iteration scores centroid + k * (centroid - worst) for k = 1,
    2 and -0.5 (exactly 0.5 * (worst - centroid)) at every active start, one
    more the starts that shrink. Each start picks its move by its own masks, so
    it takes exactly the steps of a lone scalar run. A start freezes once its
    value spread is <= f_tol and its size <= x_tol, or after max_iter iterations.
    """
    x0 = _batch(x0)
    starts, dim = x0.shape
    points = np.repeat(x0[:, None, :], dim + 1, axis=1)
    points[:, 1:, :] += np.diag(initial_step)
    values = f(points.reshape(-1, dim)).reshape(starts, dim + 1)
    out_points, out_values = np.empty((starts, dim)), np.empty(starts)
    ids = np.arange(starts)
    # Flat offsets of each active start's first vertex and first trial row:
    # the first S entries serve S active starts, since frozen ones are dropped.
    vertex_offsets, trial_offsets = (ids * (dim + 1))[:, None], ids * 3
    moves = np.array([1.0, 2.0, -0.5])[:, None]  # reflect, expand, contract

    for _ in range(max_iter):
        order = np.argsort(values, axis=1, kind="stable")
        order += vertex_offsets[: ids.size]
        values, points = values.take(order), points.reshape(-1, dim).take(order, axis=0)
        done = values[:, -1] - values[:, 0] <= f_tol
        if np.count_nonzero(done):
            near = np.flatnonzero(done)
            simplex = points[near]
            size = np.abs(simplex[:, 1:] - simplex[:, :1]).reshape(near.size, -1).max(axis=1)
            converged = size <= x_tol
            if np.count_nonzero(converged):
                # Sorted rows: a converged start's best vertex is column 0.
                frozen = near[converged]
                out_points[ids[frozen]], out_values[ids[frozen]] = points[frozen, 0], values[frozen, 0]
                done[near] = converged
                keep = np.flatnonzero(~done)
                ids, points, values = ids[keep], points[keep], values[keep]
                if not ids.size:
                    break
        # Vertex by vertex: the same sequential adds as np.add.reduce over axis 1.
        centroid = points[:, 0] + points[:, 1] if dim > 1 else points[:, 0].copy()
        for k in range(2, dim):
            centroid += points[:, k]
        centroid /= dim
        trials = moves * (centroid - points[:, -1])[:, None]
        trials += centroid[:, None]
        trials = trials.reshape(-1, dim)
        ft = f(trials).reshape(-1)
        fr, fe, fc = ft[0::3], ft[1::3], ft[2::3]
        expand = fr < values[:, 0]
        contract = ~(expand | (fr < values[:, -2]))
        shrink = contract & ~(fc < values[:, -1])
        # Row of the chosen trial: reflection 0, expansion 1, contraction 2.
        pick = (expand & (fe < fr)) + 2 * contract
        pick += trial_offsets[: ids.size]
        worst, f_worst = trials.take(pick, axis=0), ft.take(pick)
        if np.count_nonzero(shrink):
            shrinking = np.flatnonzero(shrink)
            simplex = points[shrinking]
            best = simplex[:, :1]
            shrunk = simplex[:, 1:] - best  # best + 0.5 * (vertex - best)
            shrunk *= 0.5
            shrunk += best
            f_shrunk = f(shrunk.reshape(-1, dim)).reshape(-1, dim)
            points[shrinking, 1:], values[shrinking, 1:] = shrunk, f_shrunk
            # A shrinking start keeps its shrunk worst vertex, not the contraction.
            worst[shrinking], f_worst[shrinking] = shrunk[:, -1], f_shrunk[:, -1]
        points[:, -1], values[:, -1] = worst, f_worst
    best = np.argmin(values, axis=1)
    rows = np.arange(ids.size)
    out_points[ids], out_values[ids] = points[rows, best], values[rows, best]
    return out_points, out_values


def lhs_objective(scenario: CycleScenario, evaluator: Evaluator) -> Callable[[np.ndarray], np.ndarray]:
    """(B, dim) parameters -> (B,) inequality values of ``scenario``."""
    signs = np.asarray(scenario.signs, dtype=float)

    def objective(batch: np.ndarray) -> np.ndarray:
        correlators = np.asarray(evaluator(batch))
        if correlators.ndim != 2 or correlators.shape[1] != scenario.n:
            raise PreconditionError(
                f"evaluator returned correlators of shape {correlators.shape}, "
                f"expected (B, {scenario.n})"
            )
        # Row-wise product-sums, not a BLAS product whose rounding depends on
        # the batch size: a start's run must not depend on who shares its call.
        return np.add.reduce(correlators * signs, axis=1)

    return objective


def minimize_lhs(
    space: SearchSpace,
    scenario: CycleScenario,
    evaluator: Evaluator,
    *,
    seed: int = 0,
    starts: int = 64,
) -> tuple[np.ndarray, float]:
    """Multi-start simplex search for the minimal inequality value.

    All starts are drawn uniformly over the box from ``seed`` and run in
    lockstep; the result never exceeds the best seed evaluation (each seed is
    a vertex of its simplex, and Nelder-Mead never drops a best vertex), ties
    go to the lowest start index, and a seed fixes the result exactly. More
    than ``SEARCH_START_CAP`` starts raise ResourceLimitError before any is
    drawn.
    """
    if starts < 1:
        raise PreconditionError("need at least one start")
    if seed < 0:
        raise PreconditionError(f"seeds are non-negative integers, got {seed}")
    check_start_cap(starts)
    objective = lhs_objective(scenario, evaluator)
    rng = np.random.default_rng(seed)
    lows, highs = np.array(space.bounds).T
    x0 = rng.uniform(lows, highs, size=(starts, space.dimension))
    x, fx = nelder_mead(objective, x0, 0.1 * (highs - lows))
    best = int(np.argmin(fx))
    return x[best], float(fx[best])


def scan_chained(n_min: int, n_max: int):
    """Rows (n, quantum value, classical bound) for the chained family.

    The cycle cap is checked on the sum of n, the nodes it builds, first.
    """
    check_cycle_cap((n_min + n_max) * max(n_max - n_min + 1, 0) // 2)
    rows = []
    for n in range(n_min, n_max + 1):
        result = build(f"chained-{n}")
        rows.append((n, inequality_lhs(result.correlations), classical_bound(result.scenario)))
    return rows


def check_start_cap(starts: int, seeds: int = 1) -> None:
    """Raise ResourceLimitError when starts x seeds exceeds ``SEARCH_START_CAP``."""
    if starts * seeds > SEARCH_START_CAP:
        raise ResourceLimitError(
            f"optimizer capped at starts x seeds <= {SEARCH_START_CAP}, got {starts} x {seeds}"
        )


def _seed_count(seeds: Sequence[int]) -> int:
    """``len(seeds)``, also for a range of 2**63 or more seeds, where ``len`` overflows."""
    if isinstance(seeds, range):
        return max(0, -((seeds.start - seeds.stop) // seeds.step))
    return len(seeds)


def scan_seeds(kind: str, seeds: Sequence[int], *, starts: int = 64):
    """Rows (seed, best value, classical bound) of repeated optimizer runs.

    The start cap is checked for all seeds together before anything is built.
    """
    check_start_cap(starts, _seed_count(seeds))
    space, evaluator = default_space_and_evaluator(kind)
    scenario = canonical_scenario(5)
    bound = classical_bound(scenario)
    rows = []
    for seed in seeds:
        _, value = minimize_lhs(space, scenario, evaluator, seed=int(seed), starts=starts)
        rows.append((int(seed), value, bound))
    return rows
