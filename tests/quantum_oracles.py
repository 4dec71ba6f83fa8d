"""Independent oracles for the correlators in ``qcycle.quantum``.

``temporal_correlations_schrodinger`` simulates the temporal protocol
step by step in the Schrödinger picture (evolve, Lüders collapse, evolve,
measure), apart from the Heisenberg route the package uses.
``repeat_agreement_probability`` measures the operational non-invasiveness
behind joint measurability.
"""

from __future__ import annotations

from qcycle.linalg import Observable, State, dag, real_trace, su2_rotation
from qcycle.quantum import DEAD_BRANCH
from qcycle.scenario import CorrelationVector, TemporalProtocol, canonical_scenario


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
