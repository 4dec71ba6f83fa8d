"""Quantum correlators and the standard violating configurations.

Every correlator and single is an expectation value Tr(rho O). Each builder
forms the products of its whole configuration as one (K, d, d) stack and
reads them through ``linalg.real_traces``:

* joint measurement of a commuting cycle: Tr((rho X) Y) for the correlators
  and Tr(rho X) for the singles, after one stacked commutator XY - YX gives
  the norms that reject a pair with no joint context and are reported;
* sequential projective (Lüders) measurement, in its closed form: for +-1
  observables it is the symmetrized Tr(rho (XY + YX))/2 whether or not the
  pair commutes (``symmetrized_means``, also the anticommutator route of
  ``histories``); temporal observables are in the Heisenberg picture, each
  built once for its correlators and its single;
* bipartite product observables, Tr(rho (A x B)): correlators, node singles
  and perfect pairs from one ``product_means`` call.

The per-term routes, the step-by-step Lüders simulation among them, are the
test oracles in ``tests/quantum_oracles.py``.

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

from .errors import PreconditionError
from .linalg import (
    SIGMA_Z,
    Observable,
    State,
    bell_phi_plus,
    bloch_observable,
    dag,
    identity,
    maximally_mixed,
    pure_state,
    real_traces,
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


def product_means(rho: np.ndarray, a: np.ndarray, b: np.ndarray) -> list[float]:
    """Tr(rho (a_k x b_k)) for stacks ``a`` (K, dA, dA) and ``b`` (K, dB, dB).

    Each Kronecker product a_k x b_k is the broadcast product ``np.kron``
    forms; one stacked matrix product with rho and ``real_traces`` follow.
    """
    k, da, db = a.shape[0], a.shape[1], b.shape[1]
    ops = (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(k, da * db, da * db)
    return real_traces(rho @ ops)


def symmetrized_means(rho: np.ndarray, x: np.ndarray, y: np.ndarray) -> list[float]:
    """Tr(rho (x_k y_k + y_k x_k))/2 for stacks ``x`` and ``y`` (K, d, d).

    The two-point correlator of sequential +-1 measurements (Lüders).
    """
    return [0.5 * v for v in real_traces(rho @ (x @ y + y @ x))]


def _party_stack(observables: tuple[Observable, ...]) -> np.ndarray:
    """(len + 1, d, d) matrices of one party; the last entry is the identity."""
    return np.stack([*(o.matrix for o in observables), identity(observables[0].dim)])


def _cycle_stacks(observables) -> tuple[np.ndarray, np.ndarray]:
    """The observables' matrices and, slice for slice, their cyclic successors'."""
    x = np.stack([o.matrix for o in observables])
    return x, np.roll(x, -1, axis=0)


def heisenberg_observable(protocol: TemporalProtocol, t: float) -> Observable:
    """The measured observable evolved to time t: U(t)^dag X U(t)."""
    u = su2_rotation(protocol.axis, protocol.angular_rate * t)
    return Observable(dag(u) @ protocol.measured.matrix @ u)


def temporal_means(protocol: TemporalProtocol) -> tuple[CorrelationVector, tuple[float, ...]]:
    """Adjacent-pair correlators and singles of the protocol, Heisenberg picture.

    Each time's Heisenberg observable is built once and serves both.
    """
    x, y = _cycle_stacks([heisenberg_observable(protocol, t) for t in protocol.times])
    rho = protocol.initial_state.matrix
    corr = CorrelationVector(canonical_scenario(protocol.n), tuple(symmetrized_means(rho, x, y)))
    return corr, tuple(real_traces(rho @ x))


def contextual_means(
    state: State, observables: tuple[Observable, ...]
) -> tuple[CorrelationVector, tuple[float, ...], tuple[float, ...]]:
    """Adjacent joint correlators, singles and adjacent commutator norms of a cycle.

    A pair whose commutator norm exceeds ``COMMUTING_TOL`` has no joint
    context, and the cycle is rejected.
    """
    x, y = _cycle_stacks(observables)
    norms = tuple(np.abs(x @ y - y @ x).max(axis=(1, 2)).tolist())
    if max(norms) > COMMUTING_TOL:
        raise PreconditionError("observables do not commute; no joint context exists")
    rx = state.matrix @ x
    corr = CorrelationVector(canonical_scenario(len(observables)), tuple(real_traces(rx @ y)))
    return corr, tuple(real_traces(rx)), norms


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


def pentagram_vectors() -> np.ndarray:
    """Five real unit vectors on a cone with azimuth step 4*pi/5.

    At the half-angle with cos^2(theta) = cos(pi/5)/(1 + cos(pi/5)) =
    1/sqrt(5), cyclically adjacent vectors are exactly orthogonal.
    """
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


def _bipartite_result(
    name: str, cfg: BipartiteConfig, nodes: list[tuple[str, int]], perfect: bool
) -> BuilderResult:
    """A bipartite configuration's values from one ``product_means`` call.

    The stack holds, in order: <A_i B_j> per pairing term; per cycle node
    <A_i x I> or <I x B_j> (``nodes`` lists ("A", i) or ("B", j)); and, when
    ``perfect``, <A_i B_i> for the shared indices, the perfect-correlation
    diagnostics.
    """
    alice, bob = _party_stack(cfg.alice), _party_stack(cfg.bob)
    eye_a, eye_b = len(cfg.alice), len(cfg.bob)  # the identity's index in each stack
    shared = list(range(min(eye_a, eye_b))) if perfect else []
    i = [a for a, _, _ in cfg.pairing] + [k if party == "A" else eye_a for party, k in nodes] + shared
    j = [b for _, b, _ in cfg.pairing] + [eye_b if party == "A" else k for party, k in nodes] + shared
    values = product_means(cfg.state.matrix, alice[i], bob[j])
    terms, singles_end = len(cfg.pairing), len(cfg.pairing) + len(nodes)
    corr = CorrelationVector(cfg.scenario(), tuple(values[:terms]))
    pairs = tuple(values[singles_end:]) if perfect else None
    return BuilderResult(name, corr.scenario, corr, tuple(values[terms:singles_end]), pairs, None)


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
        corr, singles = temporal_means(temporal_kcbs_protocol())
        return BuilderResult(name, corr.scenario, corr, singles, None, None)
    if name == "kcbs-contextual":
        corr, singles, norms = contextual_means(*contextual_kcbs_configuration())
        return BuilderResult(name, corr.scenario, corr, singles, None, norms)
    if name == "kcbs-spatial":
        return _bipartite_result(name, spatial_kcbs_configuration(), [("A", i) for i in range(5)], True)
    cfg = chained_configuration(n)
    if n % 2 == 0:
        nodes = [("A", k // 2) if k % 2 == 0 else ("B", (k - 1) // 2) for k in range(n)]
    else:
        nodes = [("A", i) for i in range(n)]
    return _bipartite_result(name, cfg, nodes, n % 2 == 1)
