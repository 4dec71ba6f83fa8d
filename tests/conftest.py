"""Shared random generators for the test suite (all explicitly seeded)."""

from __future__ import annotations

import numpy as np
import pytest

from qcycle.histories import FULL_HISTORIES, HistoryFamily
from qcycle.jpd import MarginalSet
from qcycle.linalg import Observable, State, bloch_observable, pure_state


def random_unit3(rng) -> tuple[float, float, float]:
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return tuple(v)


def random_qubit_observable(rng) -> Observable:
    return bloch_observable(random_unit3(rng))


def random_pure_state(rng, dim: int = 2) -> State:
    return pure_state(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def random_mixed_state(rng, dim: int = 2) -> State:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return State(rho / np.trace(rho).real)


def random_state(rng, dim: int = 2) -> State:
    return random_pure_state(rng, dim) if rng.random() < 0.5 else random_mixed_state(rng, dim)


def random_family(rng) -> HistoryFamily:
    state = random_state(rng)
    return HistoryFamily(state, tuple(random_qubit_observable(rng) for _ in range(3)))


def completions(pattern) -> tuple[int, int]:
    """Indices in FULL_HISTORIES of a one-star pattern with the star set to +1 and to -1."""
    return tuple(
        FULL_HISTORIES.index(tuple(value if o is None else o for o in pattern))
        for value in (1, -1)
    )


def random_marginal_set(rng, n: int) -> MarginalSet:
    """Valid pair marginals: shared singles, correlators in the physical range."""
    singles = rng.uniform(-0.3, 0.3, size=n)
    cells = np.empty((n, 2, 2))
    for i in range(n):
        si, sj = singles[i], singles[(i + 1) % n]
        lo = -1.0 + abs(si + sj)
        hi = 1.0 - abs(si - sj)
        c = rng.uniform(lo, hi)
        for a, xi in enumerate((1, -1)):
            for b, xj in enumerate((1, -1)):
                cells[i, a, b] = (1.0 + xi * si + xj * sj + xi * xj * c) / 4.0
    return MarginalSet(n, cells)


def near_facet_marginal_set(rng, n: int, excess: float, biased: bool) -> MarginalSet:
    """Pair marginals that exceed a random odd-parity facet by ``excess``.

    With g an odd-parity sign vector and slacks summing to 2 - excess, the
    correlators c = g * (1 - slack) give sum(g_i c_i) = n - 2 + excess, and
    that g is the maximising facet because every slack stays below 1. A
    negative ``excess`` lies inside the facet. Biased singles stay within
    0.4 of the neighbouring slacks, which keeps every cell nonnegative.
    """
    gamma = np.ones(n)
    flips = 2 * int(rng.integers(0, (n + 1) // 2)) + 1
    gamma[rng.choice(n, size=flips, replace=False)] = -1.0
    while True:
        slack = (2.0 - excess) * rng.dirichlet(np.full(n, 4.0))
        if slack.max() < 1.0:
            break
    c = gamma * (1.0 - slack)
    room = np.minimum(slack, np.roll(slack, 1))
    singles = rng.uniform(-0.4, 0.4, size=n) * room if biased else np.zeros(n)
    cells = np.empty((n, 2, 2))
    for i in range(n):
        si, sj = singles[i], singles[(i + 1) % n]
        for a, xi in enumerate((1, -1)):
            for b, xj in enumerate((1, -1)):
                cells[i, a, b] = (1.0 + xi * si + xj * sj + xi * xj * c[i]) / 4.0
    return MarginalSet(n, cells)


def count_constructions(fn) -> tuple[int, int]:
    """(Observable, State) constructions made while ``fn()`` runs."""
    counts = {Observable: 0, State: 0}
    with pytest.MonkeyPatch.context() as mp:
        for cls in counts:
            def counted(self, *args, _init=cls.__init__, _cls=cls, **kwargs):
                counts[_cls] += 1
                _init(self, *args, **kwargs)

            mp.setattr(cls, "__init__", counted)
        fn()
    return counts[Observable], counts[State]
