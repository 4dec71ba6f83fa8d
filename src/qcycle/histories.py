"""Consistent-histories analysis of three sequential +-1 measurements.

A history family fixes an initial state and three slot observables, the
same validated ``linalg.Observable`` the other scenarios measure, each
already in the Heisenberg picture at its own time, so the module is purely
kinematic; a slot's projectors are its observable's.
``family_from_bloch_angles`` builds the xz-plane qubit families that
``qcycle histories`` reports on. A full history is an outcome tuple
(k, l, m) of +1s and -1s; a pattern may carry None (a star) for a slot that
is hypothetically not measured.

Everything rests on one object, the decoherence functional
D(a, b) = Tr(C_a rho C_b^dag) over the 8 full histories, where the chain
operator C = P3 P2 P1 multiplies the chosen projectors latest-first. Its
diagonal holds the history probabilities; two histories are consistent when
Re D(e, g) vanishes; and the interference term of a starred pattern is
2 Re D between its two completions, which is exactly how far the starred
marginal fails to equal the sum of the fine-grained probabilities.

``lg_decomposition`` assembles the full account for the three-measurement
inequality <X1 X2> + <X2 X3> + <X1 X3> >= -1 from one D: correlators through
two independent routes (the 12 starred marginals that omit the unmeasured
slot, formed in one stacked chain product, and the symmetrized products of
the slot observables), all interference terms, the equivalent
diagonal-plus-interference form, and the consistency classification of the
history pairs that can carry the violation. The per-pattern
``marginal_probability`` is the test oracle in ``tests/quantum_oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, VerificationError
from .linalg import Observable, State, identity, maximally_mixed
from .quantum import anticommutator_correlation, xz_observable

SLOTS = 3
CONSISTENT_TOL = 1e-10
MARGINAL_TOL = 1e-6

STAR = None

FULL_HISTORIES = tuple((k, l, m) for k in (1, -1) for l in (1, -1) for m in (1, -1))


@dataclass(frozen=True)
class HistoryFamily:
    """Initial state plus the three slot observables, earliest first."""

    state: State
    observables: tuple[Observable, ...]

    def __post_init__(self):
        if len(self.observables) != SLOTS:
            raise PreconditionError(
                f"family needs exactly {SLOTS} observables, got {len(self.observables)}"
            )
        if any(o.dim != self.state.dim for o in self.observables):
            raise PreconditionError("slot observable and state dimensions differ")

    def projector(self, slot: int, outcome: int) -> np.ndarray:
        return self.observables[slot].projector(outcome)


def family_from_bloch_angles(angles, state: State | None = None) -> HistoryFamily:
    """Three xz-plane qubit measurements at the given Bloch angles."""
    if len(angles) != SLOTS:
        raise PreconditionError(f"need {SLOTS} angles")
    if not all(math.isfinite(a) for a in angles):
        raise PreconditionError(f"Bloch angles must be finite, got {tuple(angles)}")
    if state is None:
        state = maximally_mixed(2)
    return HistoryFamily(state, tuple(xz_observable(a) for a in angles))


def chain_operator(family: HistoryFamily, history) -> np.ndarray:
    """C = P3 P2 P1 for a full history (k, l, m); later slots act leftmost."""
    k, l, m = history
    return family.projector(2, m) @ family.projector(1, l) @ family.projector(0, k)


def decoherence_functional(family: HistoryFamily) -> np.ndarray:
    """D[a, b] = Tr(C_a rho C_b^dag) over ``FULL_HISTORIES``, an (8, 8) complex array.

    Each chain operator is formed once. The diagonal entries are history
    probabilities, so an imaginary part beyond 1e-10 there is an error.
    """
    chains = np.stack([chain_operator(family, h) for h in FULL_HISTORIES])
    adjoints = chains.conj().transpose(0, 2, 1)
    d = ((chains @ family.state.matrix)[:, None] @ adjoints[None]).trace(axis1=2, axis2=3)
    worst = np.abs(d.diagonal().imag).max()
    if worst > 1e-10:
        raise VerificationError(f"history probability has imaginary part {worst:.3e} beyond 1e-10")
    return d


def classify_consistency(value: float) -> str:
    """Three-way label so near-threshold values stay visible."""
    v = abs(value)
    if v <= CONSISTENT_TOL:
        return "consistent"
    if v <= MARGINAL_TOL:
        return "marginally inconsistent"
    return "inconsistent"


# Slot pairs (earlier, later) of the three correlators <X1 X2>, <X2 X3>, <X1 X3>,
# and the outcomes of each pair's four starred marginals in summation order.
CORRELATOR_PAIRS = ((0, 1), (1, 2), (0, 2))
PAIR_OUTCOMES = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _pair_marginals(family: HistoryFamily) -> list[list[float]]:
    """Starred marginals p(ka, kb) of each slot pair in ``CORRELATOR_PAIRS``, in ``PAIR_OUTCOMES`` order.

    Each marginal omits the unused slot: its chain is P_b P_a and its
    probability Tr(C rho C^dag). All 12 chains are formed in one stacked
    product; an imaginary part beyond 1e-10 is an error.
    """
    first = np.stack([family.projector(a, ka) for a, _ in CORRELATOR_PAIRS for ka, _ in PAIR_OUTCOMES])
    second = np.stack([family.projector(b, kb) for _, b in CORRELATOR_PAIRS for _, kb in PAIR_OUTCOMES])
    chains = second @ (first @ identity(family.state.dim))
    traces = ((chains @ family.state.matrix) @ chains.conj().transpose(0, 2, 1)).trace(axis1=1, axis2=2)
    worst = np.abs(traces.imag).max()
    if worst > 1e-10:
        raise VerificationError(f"marginal probability has imaginary part {worst:.3e} beyond 1e-10")
    p = traces.real.tolist()
    return [p[k : k + len(PAIR_OUTCOMES)] for k in range(0, len(p), len(PAIR_OUTCOMES))]


def _completion(pattern, value: int) -> int:
    """Index in ``FULL_HISTORIES`` of ``pattern`` with its star set to ``value``."""
    return FULL_HISTORIES.index(tuple(value if o is STAR else o for o in pattern))


# (starred pattern, e, g): the pattern's interference term is 2 Re D[e, g]
# between its completions e (star = +1) and g (star = -1).
INTERFERENCE_TABLE = tuple(
    (p, _completion(p, 1), _completion(p, -1))
    for k in (1, -1)
    for p in ((STAR, k, k), (k, STAR, k), (STAR, k, -k), (k, STAR, -k))
)


@dataclass(frozen=True)
class LgDecomposition:
    """Full interference account of a three-measurement family."""

    probabilities: dict[tuple[int, int, int], float]
    correlators: tuple[float, float, float]
    correlators_anticommutator: tuple[float, float, float]
    lhs: float
    interference: dict[tuple[int | None, int | None, int | None], float]
    decomposition_value: float
    pair_classification: tuple[tuple[tuple[int, int, int], tuple[int, int, int], float, str], ...]


def lg_decomposition(family: HistoryFamily) -> LgDecomposition:
    """Evaluate the three-measurement inequality and its interference form.

    The correlators come from starred marginals and, independently, from the
    symmetrized products of the slot observables; the two routes must agree.
    The returned ``decomposition_value`` is
    sum_k (4 p(k,k,k) + I(*,k,k) + I(k,*,k) - I(*,k,-k) - I(k,*,-k)),
    which equals lhs + 1 and is nonnegative exactly when the inequality holds.
    """
    re = decoherence_functional(family).real.tolist()
    probabilities = {h: re[i][i] for i, h in enumerate(FULL_HISTORIES)}
    correlators = []
    for marginals in _pair_marginals(family):
        total = 0.0
        for (ka, kb), p in zip(PAIR_OUTCOMES, marginals):
            total += ka * kb * p
        correlators.append(total)
    c12, c23, c13 = correlators
    rho, obs = family.state, family.observables
    anti = (
        anticommutator_correlation(rho, obs[0], obs[1]),
        anticommutator_correlation(rho, obs[1], obs[2]),
        anticommutator_correlation(rho, obs[0], obs[2]),
    )
    interference = {}
    pairs = []
    for pattern, e, g in INTERFERENCE_TABLE:
        value = re[e][g]
        interference[pattern] = 2.0 * value
        pairs.append((FULL_HISTORIES[e], FULL_HISTORIES[g], value, classify_consistency(value)))
    decomposition = 0.0
    for k in (1, -1):
        decomposition += 4.0 * probabilities[(k, k, k)]
        decomposition += interference[(STAR, k, k)] + interference[(k, STAR, k)]
        decomposition -= interference[(STAR, k, -k)] + interference[(k, STAR, -k)]
    return LgDecomposition(
        probabilities=probabilities,
        correlators=(c12, c23, c13),
        correlators_anticommutator=anti,
        lhs=c12 + c23 + c13,
        interference=interference,
        decomposition_value=decomposition,
        pair_classification=tuple(pairs),
    )
