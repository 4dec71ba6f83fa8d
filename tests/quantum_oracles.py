"""Independent oracles for the correlators in ``qcycle.quantum``.

``trace``, ``real_trace``, ``kron``, ``anticommutator`` and
``commutator_norm`` work on one matrix or pair at a time; every correlator
oracle below is built on them, apart from the stacked products and
``linalg.real_traces`` the package uses. ``correlation_joint`` is Tr(rho X Y)
of one commuting pair and ``anticommutator_correlation`` Tr(rho {X, Y})/2 of
one pair. ``correlation_sequential`` simulates measuring one observable and
then another with the Lüders state update, the operational route that
``anticommutator_correlation`` gives in closed form.
``temporal_correlations_schrodinger`` simulates the temporal protocol
step by step in the Schrödinger picture (evolve, Lüders collapse, evolve,
measure), apart from the Heisenberg route the package uses.
``repeat_agreement_probability`` measures the operational non-invasiveness
behind joint measurability. ``heisenberg_observable`` evolves the measured
observable to one time, the per-time oracle of the stack ``temporal_means``
forms, and ``family_from_protocol`` builds a history family from a
three-time protocol through those observables.
``correlation_spatial``, ``bipartite_single`` and ``marginal_probability``
compute one bipartite correlator, one bipartite single and one starred
history marginal at a time, the oracles of the stacked routes in
``qcycle.quantum`` and ``lg_decomposition``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qcycle.errors import PreconditionError, VerificationError
from qcycle.histories import SLOTS, STAR, HistoryFamily
from qcycle.linalg import Observable, State, as_matrix, dag, identity, max_abs, su2_rotation
from qcycle.quantum import COMMUTING_TOL
from qcycle.scenario import BipartiteConfig, CorrelationVector, TemporalProtocol, canonical_scenario

DEAD_BRANCH = 1e-14


def trace(m) -> complex:
    return complex(as_matrix(m).trace())


def real_trace(m, tol: float = 1e-10) -> float:
    """Trace that must be real within ``tol``."""
    t = trace(m)
    if abs(t.imag) > tol:
        raise VerificationError(f"trace has imaginary part {t.imag:.3e} beyond {tol:.0e}")
    return t.real


def kron(a, b) -> np.ndarray:
    """Kronecker product: block (i, j) of the result is a[i, j] * b.

    The broadcast product that ``np.kron`` forms, without its axis handling.
    """
    a, b = as_matrix(a), as_matrix(b)
    out = a[:, None, :, None] * b[None, :, None, :]
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def anticommutator(a, b) -> np.ndarray:
    a, b = as_matrix(a), as_matrix(b)
    return a @ b + b @ a


def commutator_norm(a, b) -> float:
    """Max-abs entry of the commutator [a, b]."""
    a, b = as_matrix(a), as_matrix(b)
    return max_abs(a @ b - b @ a)


def correlation_joint(rho: State, x: Observable, y: Observable) -> float:
    """Tr(rho X Y) for a commuting pair measured in one context.

    A non-commuting pair has no joint context and is rejected.
    """
    if commutator_norm(x.matrix, y.matrix) > COMMUTING_TOL:
        raise PreconditionError("observables do not commute; no joint context exists")
    return real_trace(rho.matrix @ x.matrix @ y.matrix)


def anticommutator_correlation(rho: State, x: Observable, y: Observable) -> float:
    """Tr(rho {X, Y})/2, the two-point correlator of sequential +-1 measurements."""
    return 0.5 * real_trace(rho.matrix @ anticommutator(x.matrix, y.matrix))


@dataclass(frozen=True)
class SequentialOutcomeTable:
    """First-measurement probabilities and second-given-first conditionals."""

    p_first: dict[int, float]
    p_second_given_first: dict[tuple[int, int], float]

    def __post_init__(self):
        for k in (1, -1):
            if not -1e-12 <= self.p_first[k] <= 1 + 1e-12:
                raise PreconditionError("first-measurement probability out of [0, 1]")
        if abs(self.p_first[1] + self.p_first[-1] - 1.0) > 1e-12:
            raise PreconditionError("first-measurement probabilities do not sum to 1")
        for k in (1, -1):
            if self.p_first[k] <= DEAD_BRANCH:
                continue
            s = self.p_second_given_first[(1, k)] + self.p_second_given_first[(-1, k)]
            if abs(s - 1.0) > 1e-12:
                raise PreconditionError("conditional probabilities do not sum to 1")


def correlation_sequential(
    rho: State, first: Observable, second: Observable
) -> tuple[float, SequentialOutcomeTable]:
    """Simulate measuring ``first`` then ``second`` with Lüders state update.

    Returns p(+)q(+|+) + p(-)q(-|-) - p(+)q(-|+) - p(-)q(+|-) together with
    the outcome table. Branches of zero probability contribute zero and their
    conditionals are reported as 0.
    """
    if rho.dim != first.dim or rho.dim != second.dim:
        raise PreconditionError("state and observable dimensions differ")
    p_first: dict[int, float] = {}
    cond: dict[tuple[int, int], float] = {}
    value = 0.0
    for k in (1, -1):
        pk_proj = first.projector(k)
        pk = real_trace(pk_proj @ rho.matrix)
        pk = min(max(pk, 0.0), 1.0)
        p_first[k] = pk
        if pk <= DEAD_BRANCH:
            cond[(1, k)] = 0.0
            cond[(-1, k)] = 0.0
            continue
        post = pk_proj @ rho.matrix @ pk_proj / pk
        for l in (1, -1):
            q = real_trace(second.projector(l) @ post)
            q = min(max(q, 0.0), 1.0)
            cond[(l, k)] = q
            value += k * l * pk * q
    return value, SequentialOutcomeTable(p_first, cond)


def correlation_spatial(cfg: BipartiteConfig, i: int, j: int) -> float:
    """Tr(rho (A_i x B_j)) for a bipartite configuration."""
    if not (0 <= i < len(cfg.alice) and 0 <= j < len(cfg.bob)):
        raise PreconditionError(f"observable index ({i}, {j}) out of range")
    return real_trace(cfg.state.matrix @ kron(cfg.alice[i], cfg.bob[j]))


def bipartite_single(cfg: BipartiteConfig, party: str, idx: int) -> float:
    """Tr(rho (A_idx x I)) for party "A", Tr(rho (I x B_idx)) for party "B"."""
    eye_a, eye_b = identity(cfg.alice.shape[1]), identity(cfg.bob.shape[1])
    op = kron(cfg.alice[idx], eye_b) if party == "A" else kron(eye_a, cfg.bob[idx])
    return real_trace(cfg.state.matrix @ op)


def marginal_probability(family: HistoryFamily, pattern) -> float:
    """Probability of a pattern whose starred (None) slots go unmeasured (omitted)."""
    if len(pattern) != SLOTS:
        raise PreconditionError(f"pattern needs exactly {SLOTS} outcomes")
    chain = identity(family.state.dim)
    for slot, o in enumerate(pattern):
        if o is not STAR:
            chain = family.projector(slot, o) @ chain
    return real_trace(chain @ family.state.matrix @ dag(chain))


def repeat_agreement_probability(rho: State, x: Observable, y: Observable) -> float:
    """Probability that measuring X, then Y, then X again repeats the X outcome.

    Equals 1 for commuting pairs, which is the operational non-invasiveness
    behind joint measurability.
    """
    agree = 0.0
    for k in (1, -1):
        pk = x.projector(k)
        for l in (1, -1):
            chain = pk @ y.projector(l) @ pk
            agree += real_trace(chain @ rho.matrix @ dag(chain))
    return agree


def temporal_correlations_schrodinger(protocol: TemporalProtocol) -> CorrelationVector:
    """Adjacent-pair correlators by explicit evolve-measure-collapse simulation.

    Evolves the state to the first time, applies the Lüders update for the
    fixed measured observable, evolves on to the second time and measures
    again.
    """
    rho0 = protocol.initial_state.matrix
    n = protocol.n

    def pair_correlator(ta: float, tb: float) -> float:
        ua = su2_rotation(protocol.axis, protocol.angular_rate * ta)
        w = su2_rotation(protocol.axis, protocol.angular_rate * tb) @ dag(ua)
        rho_a = ua @ rho0 @ dag(ua)
        value = 0.0
        for k in (1, -1):
            pk_proj = protocol.measured.projector(k)
            pk = real_trace(pk_proj @ rho_a)
            if pk <= DEAD_BRANCH:
                continue
            post = w @ (pk_proj @ rho_a @ pk_proj) @ dag(w)
            for l in (1, -1):
                value += k * l * real_trace(protocol.measured.projector(l) @ post)
        return value

    times = protocol.times
    values = []
    for i in range(n):
        a, b = times[i], times[(i + 1) % n]
        values.append(pair_correlator(min(a, b), max(a, b)))
    return CorrelationVector(canonical_scenario(n), tuple(values))


def heisenberg_observable(protocol: TemporalProtocol, t: float) -> Observable:
    """The measured observable evolved to time t: U(t)^dag X U(t)."""
    u = su2_rotation(protocol.axis, protocol.angular_rate * t)
    return Observable(dag(u) @ protocol.measured.matrix @ u)


def family_from_protocol(protocol: TemporalProtocol) -> HistoryFamily:
    """Heisenberg-picture slots at the protocol's three times."""
    if protocol.n != SLOTS:
        raise PreconditionError("protocol must have exactly 3 times")
    obs = tuple(heisenberg_observable(protocol, t) for t in protocol.times)
    return HistoryFamily(protocol.initial_state, obs)
