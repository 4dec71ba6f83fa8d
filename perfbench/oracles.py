"""Closed forms and an external LP, computed apart from qcycle.

Nothing here imports qcycle. Outcome encoding follows the program's
documented witness format: bit b of an assignment index set means
observable b takes the value -1.
"""

from __future__ import annotations

import math

import numpy as np

OUTCOMES = (1, -1)


def pair_cells(correlators, singles) -> np.ndarray:
    """p(x_i, x_{i+1}) = (1 + x_i s_i + x_{i+1} s_{i+1} + x_i x_{i+1} c_i) / 4.

    Shape (n, 2, 2), indexed by OUTCOMES positions.
    """
    c = np.asarray(correlators, dtype=float)
    s = np.asarray(singles, dtype=float)
    x = np.array(OUTCOMES, dtype=float)
    si, sj = s[:, None, None], np.roll(s, -1)[:, None, None]
    return (1.0 + x[:, None] * si + x[None, :] * sj + np.outer(x, x) * c[:, None, None]) / 4.0


def max_odd_parity_sum(correlators) -> float:
    """max of sum(g_i c_i) over sign vectors g with an odd number of -1s."""
    a = np.abs(np.asarray(correlators, dtype=float))
    negatives = int(np.sum(np.asarray(correlators) < 0))
    if negatives % 2 == 1:
        return float(a.sum())
    return float(a.sum() - 2.0 * a.min())


def cycle_feasible(correlators, singles) -> bool:
    """Araujo et al. (PRA 88, 022118): every pair cell >= 0 and the odd-parity
    facets sum(g_i c_i) <= n - 2 all hold."""
    n = len(correlators)
    return bool(pair_cells(correlators, singles).min() >= 0.0) and (
        max_odd_parity_sum(correlators) <= n - 2
    )


def facet_margin(correlators, singles) -> float:
    """Smallest pair cell or distance of the correlator sum to n - 2,
    whichever is less: a set with margin m > 0 has every cell >= m and lies
    m away from every odd-parity facet, on either side."""
    n = len(correlators)
    return min(
        float(pair_cells(correlators, singles).min()),
        abs(max_odd_parity_sum(correlators) - (n - 2)),
    )


def scipy_feasible(cells: np.ndarray) -> bool:
    """LP over the 2^n assignment weights solved by scipy's HiGHS."""
    from scipy.optimize import linprog

    n = cells.shape[0]
    idx = np.arange(1 << n)
    value = np.where((idx[:, None] >> np.arange(n)) & 1, -1, 1)  # (2^n, n)
    rows, rhs = [np.ones(idx.size)], [1.0]
    for i in range(n):
        j = (i + 1) % n
        for a, xa in enumerate(OUTCOMES):
            for b, xb in enumerate(OUTCOMES):
                rows.append(((value[:, i] == xa) & (value[:, j] == xb)).astype(float))
                rhs.append(float(cells[i, a, b]))
    res = linprog(
        np.zeros(idx.size), A_eq=np.array(rows), b_eq=np.array(rhs),
        bounds=(0, None), method="highs",
    )
    if res.status not in (0, 2):
        raise RuntimeError(f"scipy linprog ended with status {res.status}: {res.message}")
    return res.status == 0


def witness_cells(distribution: dict[int, float], n: int) -> np.ndarray:
    """Pair cells implied by assignment weights {index: weight}."""
    cells = np.zeros((n, 2, 2))
    for index, weight in distribution.items():
        x = [(index >> b) & 1 for b in range(n)]  # 0 -> +1, 1 -> -1
        for i in range(n):
            cells[i, x[i], x[(i + 1) % n]] += weight
    return cells


def classical_bound(signs) -> int:
    """min over deterministic assignments of sum(s_i x_i x_{i+1}):
    -n when prod(-s_i) = 1, else -n + 2."""
    n = len(signs)
    return -n if math.prod(-int(s) for s in signs) == 1 else -n + 2


def canonical_signs(n: int) -> tuple[int, ...]:
    return (1,) * (n - 1) + ((-1) ** (n - 1),)


def chained_value(n: int) -> float:
    """Quantum value n*cos(pi*(n-1)/n) of the chained configuration."""
    return n * math.cos(math.pi * (n - 1) / n)


FIVE_CYCLE_OPTIMUM = -5.0 * math.cos(math.pi / 5.0)
CONTEXTUAL_OPTIMUM = 5.0 - 4.0 * math.sqrt(5.0)


def bloch_angles_score(angles, signs) -> float:
    """sum s_i cos(a_i - a_{i+1}): shared xz-plane settings on |phi+>."""
    n = len(angles)
    return sum(signs[i] * math.cos(angles[i] - angles[(i + 1) % n]) for i in range(n))


def temporal_times_score(times, signs) -> float:
    """sum s_i cos(16*pi/5 * (t_{i+1} - t_i)): the Bloch vector turns at
    16*pi/5 per unit time and the initial state is maximally mixed."""
    n = len(times)
    rate = 16.0 * math.pi / 5.0
    return sum(signs[i] * math.cos(rate * (times[(i + 1) % n] - times[i])) for i in range(n))


def contextual_cone_score(params, signs) -> float:
    """Joint correlators 1 - 2w_i - 2w_{i+1} of five orthogonal-neighbour
    unit vectors on a cone, with w_i = <v_i|psi>^2.

    The cone is rebuilt here from its definition: four vectors at half-angle
    theta spaced by the azimuth step that makes neighbours orthogonal, and a
    fifth orthogonal to the fourth and the first. The vectors are checked to
    form a compatible cycle before they are scored.
    """
    theta = min(max(float(params[0]), math.pi / 4.0), 3.0 * math.pi / 4.0)
    phi = float(params[1])
    c, s = math.cos(theta), math.sin(theta)
    step = math.acos(min(max(-(c / s) ** 2, -1.0), 1.0))
    vs = [np.array([s * math.cos(j * step), s * math.sin(j * step), c]) for j in range(4)]
    fifth = np.cross(vs[3], vs[0])
    if np.linalg.norm(fifth) < 1e-12:
        raise ValueError("degenerate cone: fourth vector parallel to the first")
    vs.append(fifth / np.linalg.norm(fifth))
    for i in range(5):
        if abs(float(vs[i] @ vs[(i + 1) % 5])) > 1e-9:
            raise ValueError(f"cone vectors {i} and {(i + 1) % 5} are not orthogonal")
    psi = np.array([math.sin(phi), 0.0, math.cos(phi)])
    w = [float(v @ psi) ** 2 for v in vs]
    return sum(signs[i] * (1.0 - 2.0 * w[i] - 2.0 * w[(i + 1) % 5]) for i in range(5))
