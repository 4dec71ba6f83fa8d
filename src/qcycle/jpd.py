"""Joint-probability-distribution feasibility for cycle marginals.

Decides whether a single distribution over all 2^n deterministic assignments
reproduces the given adjacent-pair marginals. For the n-cycle the answer has
a closed form (Araújo, Quintino, Budroni, Terra Cunha and Cabello, PRA 88,
022118 (2013)): a joint distribution exists iff every pair cell is
nonnegative, which ``MarginalSet`` enforces, and no odd-parity facet
sum(g_i c_i) <= n - 2 is violated, where g ranges over sign vectors with an
odd number of -1s and c_i = <X_i X_{i+1}>. The verdict is that O(n) rule.
A feasible set then gets an explicit witness distribution from the linear
program over assignment weights: nonnegative variables q(x), a
normalization row, and one row per pair and outcome combination, solved by
an in-repo dense phase-1 simplex with Bland's rule (anti-cycling).
``MarginalSet`` checks in a fixed order; a set that passes pays for one min,
one pair sum and one max, and only a failing set tests each for its message.

Outcome encoding: assignment index x in [0, 2^n); bit b of x set means
observable b takes the value -1, clear means +1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, ResourceLimitError, VerificationError
from .scenario import CorrelationVector

LP_VARIABLE_CAP = 16
FEASIBILITY_TOL = 1e-9
WITNESS_RESIDUAL_TOL = 1e-7
NO_DISTURBANCE_TOL = 1e-7
PIVOT_TOL = 1e-11

OUTCOMES = (1, -1)
_X = np.array(OUTCOMES, dtype=float)
_XX = np.outer(_X, _X)


@dataclass(frozen=True)
class MarginalSet:
    """Adjacent-pair distributions p(x_i, x_{i+1 mod n}) for an n-cycle.

    ``cells[i, a, b]`` is p(X_i = OUTCOMES[a], X_{i+1 mod n} = OUTCOMES[b]).
    Checks, in order: shape (n, 2, 2), n >= 3, finite, no cell below -1e-12,
    pair sums within 1e-9 of 1, no-disturbance on the cells clipped at zero.
    Only a failing set tests them one by one, for the first failure's message.
    """

    n: int
    cells: np.ndarray

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=float)
        if cells.shape != (self.n, 2, 2):
            raise PreconditionError(f"cells must have shape ({self.n}, 2, 2)")
        if self.n < 3:
            raise PreconditionError("need a cycle of at least 3 observables")
        sums = cells.sum(axis=(1, 2))
        if not (cells.min() >= -1e-12 and abs(sums - 1.0).max() <= 1e-9):  # NaN fails both
            if not np.isfinite(cells).all():
                raise PreconditionError("pair probabilities must be finite")
            if (cells < -1e-12).any():
                raise PreconditionError("negative pair probability")
            raise PreconditionError("each pair distribution must sum to 1")
        cells = np.maximum(cells, 0.0)
        cells.setflags(write=False)
        object.__setattr__(self, "cells", cells)
        # No-disturbance keeps bookkeeping faults apart from genuine infeasibility.
        # Row i of ``pairs`` is p(++), p(+-), p(-+), p(--) of pair (i, i+1), so
        # left[i] and right[i - 1] both read p(X_i = +1); np.roll would cost
        # more than the whole check on short arrays.
        pairs = cells.reshape(-1, 4)
        left = pairs[:, 0] + pairs[:, 1]
        right = pairs[:, 0] + pairs[:, 2]
        gap = abs(left - np.concatenate((right[-1:], right[:-1])))
        if gap.max() > NO_DISTURBANCE_TOL:
            node = np.argmax(gap > NO_DISTURBANCE_TOL)
            raise PreconditionError(f"inconsistent single-observable marginals at node {node}")


def correlators_to_marginals(c: CorrelationVector, singles=None) -> MarginalSet:
    """The unique pair distributions with the given first and second moments.

    Cell formula p(x_i, x_j) = (1 + x_i s_i + x_j s_j + x_i x_j c_ij) / 4.
    Singles default to unbiased. Any cell below -1e-12 means the moment
    combination is unphysical and is rejected; ``MarginalSet`` clips tiny
    negative round-off to zero.
    """
    n = c.scenario.n
    if singles is None:
        singles = (0.0,) * n
    singles = tuple(float(s) for s in singles)
    if len(singles) != n:
        raise PreconditionError("need one single-observable mean per node")
    if not all(abs(s) <= 1.0 + 1e-12 for s in singles):  # also rejects nan
        raise PreconditionError("single-observable means must be finite and lie in [-1, 1]")
    # cells[i, a, b] for x_i = OUTCOMES[a], x_j = OUTCOMES[b], j = i + 1 mod n,
    # in the cell formula's order with its last two steps in place.
    si, sj, cij = np.array((singles, singles[1:] + singles[:1], c.values))[:, :, None, None]
    cells = 1.0 + _X[:, None] * si + _X * sj
    cells += _XX * cij
    cells /= 4.0
    if cells.min() < -1e-12:
        first = np.flatnonzero(cells < -1e-12)[0]
        raise PreconditionError(
            f"moment combination gives negative cell p={cells.flat[first]:.3e} at pair {first // 4}"
        )
    return MarginalSet(n, cells)


@dataclass(frozen=True)
class JpdWitness:
    """Feasibility verdict with an explicit distribution when one exists.

    ``facet_signs`` is the odd-parity sign vector g maximising sum(g_i c_i)
    and ``facet_excess`` is that maximum minus (n - 2): the signed distance
    of the closest facet, positive when it is violated. ``distribution``
    maps assignment indices to weights (nonzero entries only).
    ``max_constraint_residual`` is re-verified directly from the witness,
    independently of the solver; for infeasible sets, where no LP is built,
    it is the facet excess. ``phase1_objective`` is the simplex optimum of a
    feasible set and None otherwise. ``near_boundary`` flags a facet excess
    inside (1e-12, FEASIBILITY_TOL], reported as feasible-within-tolerance
    rather than silently rounded.
    """

    feasible: bool
    distribution: dict[int, float] | None
    max_constraint_residual: float
    phase1_objective: float | None
    facet_signs: tuple[int, ...]
    facet_excess: float
    near_boundary: bool = False


def _closest_facet(m: MarginalSet) -> tuple[tuple[int, ...], float]:
    """(g, excess) of the odd-parity facet sum(g_i c_i) <= n - 2 nearest to m.

    The maximum of sum(g_i c_i) over all sign vectors is sum|c_i|, at g_i =
    sign(c_i) (+1 for c_i = 0); when that g has an even number of -1s, the
    odd-parity maximum flips the entry of smallest |c_i| (lowest index on
    ties) and loses 2 min|c_i|.
    """
    pairs = m.cells.reshape(-1, 4)
    # <X_i X_{i+1}> = p(++) + p(--) - p(+-) - p(-+), summed in that order, for every pair.
    c = pairs[:, 0] + pairs[:, 3] - pairs[:, 1] - pairs[:, 2]
    size = abs(c)
    total = float(size.sum())
    signs = [-1 if x < 0 else 1 for x in c.tolist()]
    if signs.count(-1) % 2 == 0:
        k = int(size.argmin())
        signs[k] = -signs[k]
        total -= 2.0 * float(size[k])
    return tuple(signs), total - (m.n - 2)


def _pair_constraint_matrix(n: int) -> np.ndarray:
    """Rows of the LP: one normalization row plus 4 rows per adjacent pair.

    The pair rows run in (i, x_i, x_j) order over ``OUTCOMES``, the order of
    ``MarginalSet.cells.ravel()``, so the right-hand side is 1 followed by
    the raveled cells.
    """
    size = 1 << n
    idx = np.arange(size, dtype=np.int64)
    sign = 1 - 2 * ((idx[:, None] >> np.arange(n, dtype=np.int64)) & 1)  # (size, n)
    rows = [np.ones(size)]
    for i in range(n):
        j = (i + 1) % n
        for xi in OUTCOMES:
            for xj in OUTCOMES:
                rows.append(((sign[:, i] == xi) & (sign[:, j] == xj)).astype(float))
    return np.vstack(rows)


def _phase1_simplex(a: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimize the sum of artificial variables for A x = b, x >= 0, b >= 0.

    Returns (phase-1 optimum, x). Bland's rule (lowest-index entering column,
    lowest-index basic variable among tied leaving rows) guarantees
    termination in exact arithmetic, where basic values stay >= 0; so each
    pivot sets those that round-off pushed below 0 back to 0.
    """
    m, n = a.shape
    if np.any(b < 0):
        raise PreconditionError("phase-1 simplex expects a nonnegative rhs")
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b
    basis = list(range(n, n + m))
    # Reduced-cost row for objective sum(artificials) with the artificial basis.
    tableau[m, :] = -tableau[:m, :].sum(axis=0)
    tableau[m, n : n + m] = 0.0
    max_iter = 200 * (m + n)
    for _ in range(max_iter):
        candidates = np.nonzero(tableau[m, : n + m] < -PIVOT_TOL)[0]
        if candidates.size == 0:
            break
        col = int(candidates[0])
        column = tableau[:m, col]
        positive = np.nonzero(column > PIVOT_TOL)[0]
        if positive.size == 0:
            raise VerificationError("phase-1 objective unbounded; malformed tableau")
        ratios = tableau[positive, -1] / column[positive]
        best = ratios.min()
        ties = positive[np.nonzero(ratios <= best + 1e-15)[0]]
        row = int(min(ties, key=lambda r: basis[r]))
        pivot_value = tableau[row, col]
        tableau[row, :] /= pivot_value
        for r in range(m + 1):
            if r != row and tableau[r, col] != 0.0:
                tableau[r, :] -= tableau[r, col] * tableau[row, :]
        rhs = tableau[:m, -1]
        rhs[rhs < 0.0] = 0.0
        basis[row] = col
    else:
        raise VerificationError("simplex iteration cap exceeded")
    x = np.zeros(n)
    for r, col in enumerate(basis):
        if col < n:
            x[col] = tableau[r, -1]
    return float(-tableau[m, -1]), x


def check_lp_cap(n: int) -> None:
    """Raise ResourceLimitError when the 2^n-variable LP exceeds the cap."""
    if n > LP_VARIABLE_CAP:
        raise ResourceLimitError(f"LP feasibility capped at n <= {LP_VARIABLE_CAP}, got {n}")


def jpd_feasible(m: MarginalSet) -> JpdWitness:
    """Decide whether a joint distribution reproduces all pair marginals.

    The verdict is the closed-form facet rule: infeasible iff the closest
    odd-parity facet is exceeded by more than FEASIBILITY_TOL, and then no
    LP is built. A feasible set runs the simplex only to build its witness,
    which is accepted once its own residual and weights re-verify.
    """
    check_lp_cap(m.n)
    facet, excess = _closest_facet(m)
    if excess > FEASIBILITY_TOL:
        return JpdWitness(False, None, excess, None, facet, excess)
    a = _pair_constraint_matrix(m.n)
    b = np.concatenate(([1.0], m.cells.ravel()))
    phase1, q = _phase1_simplex(a, b)
    residual = float(np.max(np.abs(a @ q - b)))
    if residual > WITNESS_RESIDUAL_TOL:
        raise VerificationError(f"witness residual {residual:.3e} exceeds {WITNESS_RESIDUAL_TOL:.0e}")
    if np.any(q < -1e-9):
        raise VerificationError("witness has a negative weight beyond tolerance")
    distribution = {int(i): float(w) for i, w in enumerate(q) if abs(w) > 1e-15}
    return JpdWitness(
        True, distribution, residual, phase1, facet, excess, near_boundary=excess > 1e-12
    )


def witness_to_text(witness: JpdWitness, n: int) -> str:
    """Structured text export: nonzero assignment weights by bitmask."""
    lines = [
        "# qcycle jpd witness v2",
        "# bit b of the assignment index set means x_b = -1",
        f"n = {n}",
        f"feasible = {'true' if witness.feasible else 'false'}",
        "facet_signs = " + " ".join(f"{g:+d}" for g in witness.facet_signs),
        f"facet_excess = {witness.facet_excess!r}",
    ]
    if witness.distribution is not None:
        lines.append(f"max_residual = {witness.max_constraint_residual!r}")
        lines.append(f"phase1_objective = {witness.phase1_objective!r}")
        for i in sorted(witness.distribution):
            lines.append(f"w[{i}] = {witness.distribution[i]!r}")
    return "\n".join(lines) + "\n"
