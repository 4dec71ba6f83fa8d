"""Quantum correlators and the standard violating configurations.

Three routes produce adjacent-pair correlators:

* joint measurement of commuting observables, Tr(rho X Y);
* sequential projective (Lüders) measurement, evaluated in its closed
  form: for +-1 observables it is the symmetrized Tr(rho {X, Y})/2 whether
  or not the pair commutes (the step-by-step Lüders simulation is the test
  oracle in ``tests/quantum_oracles.py``);
* bipartite product observables, Tr(rho (A x B)), for every term of a
  configuration at once: one stacked kron, matrix product and trace (the
  per-pair route is the test oracle in ``tests/quantum_oracles.py``).

Temporal correlators are evaluated in the Heisenberg picture.

Builders construct the maximally violating configurations for the five-cycle
in each setting (``kcbs-contextual``, ``kcbs-temporal``, ``kcbs-spatial``)
and the chained configuration for any cycle length 3 <= N <= ``CYCLE_CAP``
(``chained-N``), its length read off the name by ``builder_cycle_length``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, VerificationError
from .linalg import (
    SIGMA_Z,
    Observable,
    State,
    anticommutator,
    bell_phi_plus,
    bloch_observable,
    commutator_norm,
    dag,
    identity,
    max_abs,
    maximally_mixed,
    pure_state,
    real_trace,
    su2_rotation,
)
from .scenario import (
    CYCLE_CAP,
    BipartiteConfig,
    CorrelationVector,
    CycleScenario,
    TemporalProtocol,
    canonical_scenario,
    check_cycle_cap,
)

COMMUTING_TOL = 1e-9


def expectation(rho: State, x: Observable) -> float:
    """Single-observable mean Tr(rho X)."""
    return real_trace(rho.matrix @ x.matrix)


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


def _product_means(rho: np.ndarray, a: np.ndarray, b: np.ndarray) -> list[float]:
    """Tr(rho (a_k x b_k)) for stacks ``a`` (K, dA, dA) and ``b`` (K, dB, dB).

    Each slice takes the floating-point operations of
    ``real_trace(rho @ kron(a_k, b_k))``: ``kron``'s broadcast product, one
    matrix product and the diagonal sum, with the same 1e-10 bound on the
    imaginary part.
    """
    k, da, db = a.shape[0], a.shape[1], b.shape[1]
    ops = (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(k, da * db, da * db)
    traces = (rho @ ops).trace(axis1=1, axis2=2)
    worst = max_abs(traces.imag)
    if worst > 1e-10:
        raise VerificationError(f"trace has imaginary part {worst:.3e} beyond 1e-10")
    return traces.real.tolist()


def _party_stack(observables: tuple[Observable, ...]) -> np.ndarray:
    """(len + 1, d, d) matrices of one party; the last entry is the identity."""
    return np.stack([*(o.matrix for o in observables), identity(observables[0].dim)])


def heisenberg_observable(protocol: TemporalProtocol, t: float) -> Observable:
    """The measured observable evolved to time t: U(t)^dag X U(t)."""
    u = su2_rotation(protocol.axis, protocol.angular_rate * t)
    return Observable(dag(u) @ protocol.measured.matrix @ u)


def temporal_correlations(protocol: TemporalProtocol) -> CorrelationVector:
    """Adjacent-pair correlators of the protocol, Heisenberg picture."""
    obs = [heisenberg_observable(protocol, t) for t in protocol.times]
    n = protocol.n
    values = [
        anticommutator_correlation(protocol.initial_state, obs[i], obs[(i + 1) % n])
        for i in range(n)
    ]
    return CorrelationVector(canonical_scenario(n), tuple(values))


def temporal_singles(protocol: TemporalProtocol) -> tuple[float, ...]:
    return tuple(
        expectation(protocol.initial_state, heisenberg_observable(protocol, t))
        for t in protocol.times
    )


def spatial_correlations(cfg: BipartiteConfig) -> CorrelationVector:
    """<A_i B_j> for every pairing term, in pairing order."""
    alice, bob = _party_stack(cfg.alice), _party_stack(cfg.bob)
    i = [i for i, _, _ in cfg.pairing]
    j = [j for _, j, _ in cfg.pairing]
    values = _product_means(cfg.state.matrix, alice[i], bob[j])
    return CorrelationVector(cfg.scenario(), tuple(values))


def perfect_pair_values(cfg: BipartiteConfig) -> tuple[float, ...]:
    """<A_i B_i> for the shared indices, the perfect-correlation diagnostics."""
    shared = min(len(cfg.alice), len(cfg.bob))
    alice, bob = _party_stack(cfg.alice), _party_stack(cfg.bob)
    return tuple(_product_means(cfg.state.matrix, alice[:shared], bob[:shared]))


# Builders.


def temporal_kcbs_protocol() -> TemporalProtocol:
    """Five sigma_z measurements on a maximally mixed qubit under y-rotation.

    Rotation rate 8*pi/5 and times (0, 1/4, 1/2, 3/4, 1) place adjacent
    Bloch vectors at angle 4*pi/5, giving five correlators of -cos(pi/5) and
    the minimal five-cycle value -5*cos(pi/5) = -4.045085.
    """
    return TemporalProtocol(
        initial_state=maximally_mixed(2),
        axis=(0.0, 1.0, 0.0),
        angular_rate=8.0 * math.pi / 5.0,
        times=(0.0, 0.25, 0.5, 0.75, 1.0),
        measured=Observable(SIGMA_Z),
    )


def pentagram_vectors(cone_half_angle: float | None = None) -> np.ndarray:
    """Five real unit vectors on a cone with azimuth step 4*pi/5.

    At the default half-angle, cos^2(theta) = cos(pi/5)/(1 + cos(pi/5)) =
    1/sqrt(5), cyclically adjacent vectors are exactly orthogonal.
    """
    if cone_half_angle is None:
        cone_half_angle = math.acos(math.sqrt(1.0 / math.sqrt(5.0)))
    c, s = math.cos(cone_half_angle), math.sin(cone_half_angle)
    step = 4.0 * math.pi / 5.0
    return np.array(
        [(s * math.cos(j * step), s * math.sin(j * step), c) for j in range(5)]
    )


def contextual_kcbs_configuration() -> tuple[State, tuple[Observable, ...]]:
    """Qutrit pentagram: X_j = 2|v_j><v_j| - I and the symmetry-axis state.

    Adjacent projectors are orthogonal, so adjacent observables commute and
    the five correlators are jointly measurable; the sum attains 5 - 4*sqrt(5).
    """
    vs = pentagram_vectors()
    eye = identity(3)
    observables = tuple(
        Observable(2.0 * np.outer(v, v) - eye) for v in vs
    )
    return pure_state([0.0, 0.0, 1.0]), observables


def contextual_correlations(
    state: State, observables: tuple[Observable, ...]
) -> CorrelationVector:
    """Adjacent joint correlators of a compatible cycle of observables."""
    n = len(observables)
    values = tuple(
        correlation_joint(state, observables[i], observables[(i + 1) % n])
        for i in range(n)
    )
    return CorrelationVector(canonical_scenario(n), values)


def xz_observable(angle: float) -> Observable:
    """M(angle) = cos(angle) sigma_z + sin(angle) sigma_x."""
    return bloch_observable((math.sin(angle), 0.0, math.cos(angle)))


def spatial_kcbs_configuration() -> BipartiteConfig:
    """|phi+> with both parties measuring sigma_i = R_i sigma_z R_i^dag.

    R_i rotates by 2*pi*i/5 about y, so sigma_i lies in the xz-plane at Bloch
    angle -4*pi*i/5. The pairing tests <A_0 B_1> + ... + <A_4 B_0> and the
    shared settings give <A_i B_i> = 1 on |phi+>.
    """
    sigmas = []
    for i in range(5):
        r = su2_rotation((0.0, 1.0, 0.0), 2.0 * math.pi * i / 5.0)
        sigmas.append(Observable(r @ SIGMA_Z @ dag(r)))
    pairing = tuple((i, (i + 1) % 5, 1) for i in range(5))
    return BipartiteConfig(bell_phi_plus(), tuple(sigmas), tuple(sigmas), pairing)


def chained_configuration(n: int) -> BipartiteConfig:
    """|phi+> configuration violating the canonical n-cycle inequality.

    Even n splits the cycle between the parties (n/2 settings each); odd n
    doubles the measurements (n settings each) with perfectly correlated
    shared settings. Both reach n*cos(pi*(n-1)/n).
    """
    if n < 3:
        raise PreconditionError(f"chained configuration needs n >= 3, got {n}")
    state = bell_phi_plus()
    signs = canonical_scenario(n).signs
    if n % 2 == 0:
        half = n // 2
        alice = tuple(
            bloch_observable((-math.sin(2 * m * math.pi / n), 0.0, math.cos(2 * m * math.pi / n)))
            for m in range(half)
        )
        bob = tuple(
            bloch_observable(
                (math.sin((2 * m + 1) * math.pi / n), 0.0, -math.cos((2 * m + 1) * math.pi / n))
            )
            for m in range(half)
        )
        pairing = []
        for k in range(n - 1):
            if k % 2 == 0:
                pairing.append((k // 2, k // 2, signs[k]))
            else:
                pairing.append(((k + 1) // 2, (k - 1) // 2, signs[k]))
        pairing.append((0, half - 1, signs[n - 1]))
        return BipartiteConfig(state, alice, bob, tuple(pairing))
    settings = tuple(
        xz_observable((math.pi - math.pi / n) * m) for m in range(n)
    )
    pairing = tuple((i, (i + 1) % n, signs[i]) for i in range(n))
    return BipartiteConfig(state, settings, settings, pairing)


@dataclass(frozen=True)
class BuilderResult:
    """A named configuration evaluated to its correlators and marginals."""

    name: str
    scenario: CycleScenario
    correlations: CorrelationVector
    singles: tuple[float, ...]
    perfect_pairs: tuple[float, ...] | None
    adjacent_commutator_norms: tuple[float, ...] | None


# Matched whole on ASCII digits: no trailing newline or other script's digits.
_CHAINED_RE = re.compile(r"chained-([0-9]+)")

BUILDER_NAMES = ("kcbs-contextual", "kcbs-temporal", "kcbs-spatial", "chained-N")


def _bipartite_singles(cfg: BipartiteConfig, node_obs: list[tuple[str, int]]) -> tuple[float, ...]:
    """Per-cycle-node single-observable means <A_i x I> or <I x B_j> of a bipartite configuration."""
    alice, bob = _party_stack(cfg.alice), _party_stack(cfg.bob)
    eye_a, eye_b = len(cfg.alice), len(cfg.bob)  # the identity's index in each stack
    i = [idx if party == "A" else eye_a for party, idx in node_obs]
    j = [eye_b if party == "A" else idx for party, idx in node_obs]
    return tuple(_product_means(cfg.state.matrix, alice[i], bob[j]))


def builder_cycle_length(name: str) -> int:
    """Cycle length of a named configuration, checked against ``CYCLE_CAP`` before any build."""
    if name in ("kcbs-contextual", "kcbs-temporal", "kcbs-spatial"):
        return 5
    m = _CHAINED_RE.fullmatch(name)
    if not m:
        raise PreconditionError(
            f"unknown builder {name!r}; expected one of {', '.join(BUILDER_NAMES)}"
        )
    digits = m.group(1).lstrip("0") or "0"
    # A count with more digits than the cap is past it; int() refuses over 4300 digits.
    n = int(digits) if len(digits) <= len(str(CYCLE_CAP)) else math.inf
    check_cycle_cap(n)
    return n


def build(name: str) -> BuilderResult:
    """Evaluate a named configuration: kcbs-{contextual,temporal,spatial} or chained-N."""
    n = builder_cycle_length(name)
    if name == "kcbs-temporal":
        protocol = temporal_kcbs_protocol()
        corr = temporal_correlations(protocol)
        return BuilderResult(
            name, corr.scenario, corr, temporal_singles(protocol), None, None
        )
    if name == "kcbs-contextual":
        state, observables = contextual_kcbs_configuration()
        corr = contextual_correlations(state, observables)
        singles = tuple(expectation(state, x) for x in observables)
        comms = tuple(
            commutator_norm(observables[i].matrix, observables[(i + 1) % 5].matrix)
            for i in range(5)
        )
        return BuilderResult(name, corr.scenario, corr, singles, None, comms)
    if name == "kcbs-spatial":
        cfg = spatial_kcbs_configuration()
        corr = spatial_correlations(cfg)
        singles = _bipartite_singles(cfg, [("A", i) for i in range(5)])
        return BuilderResult(
            name, corr.scenario, corr, singles, perfect_pair_values(cfg), None
        )
    cfg = chained_configuration(n)
    corr = spatial_correlations(cfg)
    if n % 2 == 0:
        nodes = [("A", k // 2) if k % 2 == 0 else ("B", (k - 1) // 2) for k in range(n)]
        perfect = None
    else:
        nodes = [("A", i) for i in range(n)]
        perfect = perfect_pair_values(cfg)
    singles = _bipartite_singles(cfg, nodes)
    return BuilderResult(name, corr.scenario, corr, singles, perfect, None)
