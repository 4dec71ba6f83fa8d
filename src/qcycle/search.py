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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import PreconditionError
from .linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, kron, su2_rotation, trace
from .quantum import build, spatial_kcbs_configuration, temporal_kcbs_protocol
from .scenario import (
    CycleScenario,
    canonical_scenario,
    check_enumeration_cap,
    classical_bound,
    inequality_lhs,
)

SPACE_KINDS = ("temporal-times", "bloch-angles", "contextual-cone")

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


def temporal_times_space(n: int = 5) -> SearchSpace:
    return SearchSpace("temporal-times", n, ((0.0, 1.0),) * n)


def bloch_angles_space(n: int = 5) -> SearchSpace:
    return SearchSpace("bloch-angles", n, ((0.0, 2.0 * math.pi),) * n)


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
    phi_plus_xz: np.ndarray


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

    def heisenberg_bloch(angle: float) -> np.ndarray:
        u = su2_rotation(protocol.axis, angle)
        h = u.conj().T @ measured @ u
        return np.array([0.5 * trace(h @ s).real for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)])

    start, flipped = heisenberg_bloch(0.0), heisenberg_bloch(0.5 * math.pi)
    par, perp = 0.5 * (start + flipped), 0.5 * (start - flipped)
    m0 = 0.5 * trace(measured).real
    rho = spatial_kcbs_configuration().state.matrix
    xz = (SIGMA_X, SIGMA_Z)
    tensor = np.array([[trace(rho @ kron(a, b)).real for b in xz] for a in xz])
    tensor.flags.writeable = False
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
    x = np.atleast_2d(np.asarray(params, dtype=float))
    if x.ndim != 2:
        raise PreconditionError("parameters must be one point or a (B, dim) batch")
    return x


def temporal_times_evaluator(params) -> np.ndarray:
    """(B, n) five-cycle correlators of the fixed-rate protocol at arbitrary times.

    Closed form of the Heisenberg-observable route (see ``_constants``); the
    test suite pins it against the validated-object route.
    """
    times = _batch(params)
    k = _constants()
    gaps = times[:, _next(times.shape[1])] - times
    return k.temporal_offset + k.temporal_amplitude * np.cos(k.temporal_rate * gaps)


def bloch_angles_evaluator(params) -> np.ndarray:
    """(B, n) correlators of shared xz-plane settings on |phi+>, canonical pairing.

    Sharing the settings between the parties keeps <A_i B_i> = 1 for every
    parameter value, so the whole box satisfies the perfect-correlation
    constraint of the doubled-measurement scenario.
    """
    angles = _batch(params)
    t = _constants().phi_plus_xz
    s, c = np.sin(angles), np.cos(angles)
    s_next, c_next = s[:, _next(angles.shape[1])], c[:, _next(angles.shape[1])]
    return t[0, 0] * s * s_next + t[0, 1] * s * c_next + t[1, 0] * c * s_next + t[1, 1] * c * c_next


def contextual_cone_vectors(cone_half_angles) -> np.ndarray:
    """(B, 5, 3) compatible cycles of unit vectors, one per half-angle.

    The first four sit on the cone with the azimuth step that makes
    consecutive vectors orthogonal; the fifth is the unit vector orthogonal
    to both the fourth and the first, closing the cycle exactly.
    """
    theta = np.clip(np.atleast_1d(np.asarray(cone_half_angles, dtype=float)),
                    math.pi / 4.0, 3.0 * math.pi / 4.0)
    c, s = np.cos(theta), np.sin(theta)
    step = np.arccos(np.clip(-(c * c) / (s * s), -1.0, 1.0))
    azimuth = np.arange(4) * step[:, None]
    vs = np.empty((theta.size, 5, 3))
    vs[:, :4, 0] = s[:, None] * np.cos(azimuth)
    vs[:, :4, 1] = s[:, None] * np.sin(azimuth)
    vs[:, :4, 2] = c[:, None]
    cross = _cross(vs[:, 3], vs[:, 0])
    norm = np.sqrt(np.add.reduce(cross * cross, axis=1))
    degenerate = norm < 1e-12
    if degenerate.any():
        # v3 parallel to v0: any unit vector orthogonal to v0 closes the cycle.
        seed = np.where(np.abs(vs[degenerate, :1, 0]) > 0.9, [0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
        cross[degenerate] = _cross(vs[degenerate, 0], seed)
        norm = np.sqrt(np.add.reduce(cross * cross, axis=1))
    vs[:, 4] = cross / norm[:, None]
    return vs


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a x b of (B, 3) arrays, each component's products in np.cross's order."""
    return a[:, _next(3)] * b[:, _next(3, 2)] - a[:, _next(3, 2)] * b[:, _next(3)]


def contextual_cone_evaluator(params) -> np.ndarray:
    """(B, 5) joint correlators of the compatible cone cycle with an xz-plane state.

    Every adjacent projector pair is orthogonal by construction, so the joint
    correlator reduces to 1 - 2<v_i|rho|v_i> - 2<v_j|rho|v_j>.
    """
    x = _batch(params)
    vs = contextual_cone_vectors(x[:, 0])
    state_angle = x[:, 1:2]
    weights = (vs[:, :, 0] * np.sin(state_angle) + vs[:, :, 2] * np.cos(state_angle)) ** 2
    return 1.0 - 2.0 * weights - 2.0 * weights[:, _next(5)]


def default_space_and_evaluator(kind: str, n: int = 5) -> tuple[SearchSpace, Evaluator]:
    if kind == "temporal-times":
        return temporal_times_space(n), temporal_times_evaluator
    if kind == "bloch-angles":
        return bloch_angles_space(n), bloch_angles_evaluator
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
    ids = rows = np.arange(starts)
    moves = np.array([1.0, 2.0, -0.5])[:, None]  # reflect, expand, contract

    def freeze(mask):
        best = np.argmin(values[mask], axis=1)
        out_points[ids[mask]], out_values[ids[mask]] = points[mask, best], values[mask, best]

    for _ in range(max_iter):
        order = np.argsort(values, axis=1, kind="stable")
        points, values = points[rows[:, None], order], values[rows[:, None], order]
        done = values[:, -1] - values[:, 0] <= f_tol
        if done.any():
            done[done] = np.max(np.abs(points[done, 1:] - points[done, :1]), axis=(1, 2)) <= x_tol
            if done.any():
                freeze(done)
                keep = ~done
                ids, points, values = ids[keep], points[keep], values[keep]
                rows = rows[: ids.size]
                if not ids.size:
                    break
        centroid = np.add.reduce(points[:, :-1], axis=1) / dim
        trials = centroid[:, None] + moves * (centroid - points[:, -1])[:, None]
        ft = f(trials.reshape(-1, dim)).reshape(-1, 3)
        fr, fe, fc = ft.T
        expand = fr < values[:, 0]
        contract = ~expand & ~(fr < values[:, -2])
        choice = np.where(expand & (fe < fr), 1, 2 * contract)
        shrink = contract & ~(fc < values[:, -1])
        worst, f_worst = trials[rows, choice], ft[rows, choice]
        if shrink.any():
            best = points[shrink, :1]
            shrunk = best + 0.5 * (points[shrink, 1:] - best)
            points[shrink, 1:] = shrunk
            values[shrink, 1:] = f(shrunk.reshape(-1, dim)).reshape(-1, dim)
            # A shrinking start keeps its shrunk worst vertex, not the contraction.
            worst[shrink], f_worst[shrink] = points[shrink, -1], values[shrink, -1]
        points[:, -1], values[:, -1] = worst, f_worst
    freeze(np.ones(ids.size, bool))
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
    go to the lowest start index, and a seed fixes the result exactly.
    """
    if starts < 1:
        raise PreconditionError("need at least one start")
    if seed < 0:
        raise PreconditionError(f"seeds are non-negative integers, got {seed}")
    objective = lhs_objective(scenario, evaluator)
    rng = np.random.default_rng(seed)
    lows, highs = np.array(space.bounds).T
    x0 = rng.uniform(lows, highs, size=(starts, space.dimension))
    x, fx = nelder_mead(objective, x0, 0.1 * (highs - lows))
    best = int(np.argmin(fx))
    return x[best], float(fx[best])


def scan_chained(n_min: int, n_max: int):
    """Rows (n, quantum value, classical bound) for the chained family.

    The bound's cap is checked for ``n_max`` before anything is built.
    """
    check_enumeration_cap(n_max)
    rows = []
    for n in range(n_min, n_max + 1):
        result = build(f"chained-{n}")
        rows.append((n, inequality_lhs(result.correlations), classical_bound(result.scenario)))
    return rows


def scan_seeds(kind: str, seeds, *, n: int = 5, starts: int = 64):
    """Rows (seed, best value, classical bound) of repeated optimizer runs."""
    space, evaluator = default_space_and_evaluator(kind, n)
    scenario = canonical_scenario(5 if kind == "contextual-cone" else n)
    bound = classical_bound(scenario)
    rows = []
    for seed in seeds:
        _, value = minimize_lhs(space, scenario, evaluator, seed=int(seed), starts=starts)
        rows.append((int(seed), value, bound))
    return rows
