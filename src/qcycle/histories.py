"""Consistent-histories analysis of three sequential +-1 measurements.

A history family fixes an initial state and three projective measurement
slots, each already in the Heisenberg picture at its own time, so the module
is purely kinematic. A history assigns +1 or -1 to each slot; a star marks a
slot that is hypothetically not measured (summed out by completeness).

Chain operators multiply the chosen projectors latest-first; the probability
of a full history is Tr(C rho C^dag). Two histories are consistent when
Re Tr(C_e rho C_g^dag) vanishes; the interference term of a starred pattern
is twice that overlap between its two completions and measures exactly how
far the starred marginal fails to equal the sum of the fine-grained
probabilities.

``lg_decomposition`` assembles the full account for the three-measurement
inequality <X1 X2> + <X2 X3> + <X1 X3> >= -1: correlators through two
independent routes, all interference terms, the equivalent
diagonal-plus-interference form, and the consistency classification of the
history pairs that can carry the violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .linalg import (
    Observable,
    State,
    as_matrix,
    bloch_observable,
    dag,
    identity,
    is_hermitian,
    max_abs,
    maximally_mixed,
    real_trace,
)
from .quantum import anticommutator_correlation, heisenberg_observable
from .scenario import TemporalProtocol

SLOTS = 3
CONSISTENT_TOL = 1e-10
MARGINAL_TOL = 1e-6

STAR = None


@dataclass(frozen=True)
class History:
    """Outcomes for the three slots; None stands for a summed-out slot."""

    outcomes: tuple[int | None, int | None, int | None]

    def __post_init__(self):
        outcomes = tuple(self.outcomes)
        object.__setattr__(self, "outcomes", outcomes)
        if len(outcomes) != SLOTS:
            raise PreconditionError(f"history needs exactly {SLOTS} outcomes")
        for o in outcomes:
            if o not in (1, -1, STAR):
                raise PreconditionError(f"outcome must be +1, -1 or None, got {o!r}")
        if sum(o is STAR for o in outcomes) > 1:
            raise PreconditionError("at most one summed-out slot is supported")

    @property
    def star_count(self) -> int:
        return sum(o is STAR for o in self.outcomes)

    def filled(self, value: int) -> "History":
        if self.star_count != 1:
            raise PreconditionError("no summed-out slot to fill")
        return History(tuple(value if o is STAR else o for o in self.outcomes))

    def label(self) -> str:
        return "(" + ",".join("*" if o is STAR else f"{o:+d}"[0] for o in self.outcomes) + ")"


def _coerce(h) -> History:
    return h if isinstance(h, History) else History(tuple(h))


FULL_HISTORIES = tuple(
    History((k, l, m)) for k in (1, -1) for l in (1, -1) for m in (1, -1)
)


@dataclass(frozen=True)
class HistoryFamily:
    """Initial state plus three projector pairs (P_plus, P_minus) per slot."""

    state: State
    slots: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        if len(self.slots) != SLOTS:
            raise PreconditionError(f"family needs exactly {SLOTS} slots")
        eye = identity(self.state.dim)
        frozen = []
        for p_plus, p_minus in self.slots:
            p, q = as_matrix(p_plus).copy(), as_matrix(p_minus).copy()
            for proj in (p, q):
                if not is_hermitian(proj, 1e-10):
                    raise PreconditionError("projector is not Hermitian")
                if max_abs(proj @ proj - proj) > 1e-10:
                    raise PreconditionError("projector is not idempotent")
            if max_abs(p + q - eye) > 1e-10:
                raise PreconditionError("slot projectors do not sum to identity")
            if max_abs(p @ q) > 1e-10:
                raise PreconditionError("slot projectors are not orthogonal")
            p.setflags(write=False)
            q.setflags(write=False)
            frozen.append((p, q))
        object.__setattr__(self, "slots", tuple(frozen))

    def projector(self, slot: int, outcome: int) -> np.ndarray:
        return self.slots[slot][0] if outcome == 1 else self.slots[slot][1]

    def observable(self, slot: int) -> Observable:
        p, q = self.slots[slot]
        return Observable(p - q, p, q)


def family_from_observables(state: State, observables) -> HistoryFamily:
    return HistoryFamily(state, tuple((o.proj_plus, o.proj_minus) for o in observables))


def family_from_bloch_angles(angles, state: State | None = None) -> HistoryFamily:
    """Three xz-plane qubit measurements at the given Bloch angles."""
    if len(angles) != SLOTS:
        raise PreconditionError(f"need {SLOTS} angles")
    if not all(math.isfinite(a) for a in angles):
        raise PreconditionError(f"Bloch angles must be finite, got {tuple(angles)}")
    if state is None:
        state = maximally_mixed(2)
    obs = [
        bloch_observable((math.sin(a), 0.0, math.cos(a))) for a in angles
    ]
    return family_from_observables(state, obs)


def family_from_protocol(protocol: TemporalProtocol) -> HistoryFamily:
    """Heisenberg-picture slots at the protocol's three times."""
    if protocol.n != SLOTS:
        raise PreconditionError("protocol must have exactly 3 times")
    obs = [heisenberg_observable(protocol, t) for t in protocol.times]
    return family_from_observables(protocol.initial_state, obs)


def chain_operator(family: HistoryFamily, history) -> np.ndarray:
    """C = P3 P2 P1 for a fully specified history (later slots act leftmost)."""
    h = _coerce(history)
    if h.star_count != 0:
        raise PreconditionError("chain operator needs a fully specified history")
    k, l, m = h.outcomes
    return family.projector(2, m) @ family.projector(1, l) @ family.projector(0, k)


def history_probability(family: HistoryFamily, history) -> float:
    """Tr(C rho C^dag) for a fully specified history."""
    c = chain_operator(family, history)
    return real_trace(c @ family.state.matrix @ dag(c))


def marginal_probability(family: HistoryFamily, pattern) -> float:
    """Probability with a starred slot hypothetically unmeasured (omitted)."""
    h = _coerce(pattern)
    chain = identity(family.state.dim)
    for slot in range(SLOTS):
        o = h.outcomes[slot]
        if o is STAR:
            continue
        chain = family.projector(slot, o) @ chain
    return real_trace(chain @ family.state.matrix @ dag(chain))


def consistency(family: HistoryFamily, e, g) -> float:
    """Re Tr(C_e rho C_g^dag); the pair is consistent when this vanishes."""
    ce = chain_operator(family, e)
    cg = chain_operator(family, g)
    return float((ce @ family.state.matrix @ dag(cg)).trace().real)


def interference_term(family: HistoryFamily, pattern) -> float:
    """2 Re Tr(C_+ rho C_-^dag) between the two completions of one star.

    This is the defect in the marginal identity: the starred marginal equals
    the sum of the two completions plus this term. A star in the last slot
    gives exactly zero because the final projectors are orthogonal.
    """
    h = _coerce(pattern)
    if h.star_count != 1:
        raise PreconditionError("interference needs exactly one summed-out slot")
    return 2.0 * consistency(family, h.filled(1), h.filled(-1))


def classify_consistency(value: float) -> str:
    """Three-way label so near-threshold values stay visible."""
    v = abs(value)
    if v <= CONSISTENT_TOL:
        return "consistent"
    if v <= MARGINAL_TOL:
        return "marginally inconsistent"
    return "inconsistent"


def _pair_correlator_via_marginals(family: HistoryFamily, slot_a: int, slot_b: int) -> float:
    """<X_a X_b> from starred-marginal probabilities of the unused slot."""
    unused = ({0, 1, 2} - {slot_a, slot_b}).pop()
    total = 0.0
    for ka in (1, -1):
        for kb in (1, -1):
            outcomes: list[int | None] = [STAR, STAR, STAR]
            outcomes[slot_a] = ka
            outcomes[slot_b] = kb
            outcomes[unused] = STAR
            total += ka * kb * marginal_probability(family, History(tuple(outcomes)))
    return total


INTERFERENCE_PATTERNS = tuple(
    History(p)
    for k in (1, -1)
    for p in ((STAR, k, k), (k, STAR, k), (STAR, k, -k), (k, STAR, -k))
)

HISTORY_PAIRS = tuple(
    (History(e), History(g))
    for k in (1, -1)
    for e, g in (
        ((1, k, k), (-1, k, k)),
        ((k, 1, k), (k, -1, k)),
        ((1, k, -k), (-1, k, -k)),
        ((k, 1, -k), (k, -1, -k)),
    )
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
    pair_classification: tuple[tuple[str, str, float, str], ...]


def lg_decomposition(family: HistoryFamily) -> LgDecomposition:
    """Evaluate the three-measurement inequality and its interference form.

    The correlators come from starred marginals and, independently, from the
    symmetrized products of the slot observables; the two routes must agree.
    The returned ``decomposition_value`` is
    sum_k (4 p(k,k,k) + I(*,k,k) + I(k,*,k) - I(*,k,-k) - I(k,*,-k)),
    which equals lhs + 1 and is nonnegative exactly when the inequality holds.
    """
    probabilities = {
        h.outcomes: history_probability(family, h) for h in FULL_HISTORIES
    }
    c12 = _pair_correlator_via_marginals(family, 0, 1)
    c23 = _pair_correlator_via_marginals(family, 1, 2)
    c13 = _pair_correlator_via_marginals(family, 0, 2)
    rho = family.state
    obs = [family.observable(i) for i in range(SLOTS)]
    anti = (
        anticommutator_correlation(rho, obs[0], obs[1]),
        anticommutator_correlation(rho, obs[1], obs[2]),
        anticommutator_correlation(rho, obs[0], obs[2]),
    )
    interference = {
        p.outcomes: interference_term(family, p) for p in INTERFERENCE_PATTERNS
    }
    decomposition = 0.0
    for k in (1, -1):
        decomposition += 4.0 * probabilities[(k, k, k)]
        decomposition += interference[(STAR, k, k)] + interference[(k, STAR, k)]
        decomposition -= interference[(STAR, k, -k)] + interference[(k, STAR, -k)]
    pairs = []
    for e, g in HISTORY_PAIRS:
        value = consistency(family, e, g)
        pairs.append((e.label(), g.label(), value, classify_consistency(value)))
    return LgDecomposition(
        probabilities=probabilities,
        correlators=(c12, c23, c13),
        correlators_anticommutator=anti,
        lhs=c12 + c23 + c13,
        interference=interference,
        decomposition_value=decomposition,
        pair_classification=tuple(pairs),
    )
