"""Scalar oracles for the batch optimizer route in ``qcycle.search``.

One point at a time through the validated objects: Heisenberg observables
from ``su2_rotation``, explicit Kronecker products and cone vectors, each
result wrapped in a ``CorrelationVector``. ``nelder_mead`` is the one-start
simplex whose decision sequence every lockstep start must reproduce.
"""

from __future__ import annotations

import math

import numpy as np

from qcycle.linalg import SIGMA_X, SIGMA_Z, su2_rotation
from qcycle.quantum import spatial_kcbs_configuration, temporal_kcbs_protocol
from qcycle.scenario import CorrelationVector, canonical_scenario


def temporal_times(params) -> CorrelationVector:
    """Five-cycle correlators of the fixed-rate protocol at arbitrary times."""
    base = temporal_kcbs_protocol()
    rho, measured = base.initial_state.matrix, base.measured.matrix
    times = np.asarray(params, dtype=float)
    n = times.size
    obs = []
    for t in times:
        u = su2_rotation(base.axis, base.angular_rate * t)
        obs.append(u.conj().T @ measured @ u)
    values = tuple(
        0.5 * np.trace(rho @ (obs[i] @ obs[(i + 1) % n] + obs[(i + 1) % n] @ obs[i])).real
        for i in range(n)
    )
    return CorrelationVector(canonical_scenario(n), values)


def bloch_angles(params) -> CorrelationVector:
    """Shared xz-plane settings on |phi+> over the canonical pairing."""
    phi_plus = spatial_kcbs_configuration().state.matrix
    angles = np.asarray(params, dtype=float)
    n = angles.size
    settings = [math.cos(a) * SIGMA_Z + math.sin(a) * SIGMA_X for a in angles]
    values = tuple(
        np.trace(phi_plus @ np.kron(settings[i], settings[(i + 1) % n])).real
        for i in range(n)
    )
    return CorrelationVector(canonical_scenario(n), values)


def cone_vectors(cone_half_angle: float) -> np.ndarray:
    """A compatible cycle of five unit vectors for one half-angle."""
    theta = min(max(cone_half_angle, math.pi / 4.0), 3.0 * math.pi / 4.0)
    c, s = math.cos(theta), math.sin(theta)
    ratio = -(c * c) / (s * s)
    step = math.acos(min(max(ratio, -1.0), 1.0))
    vs = [
        np.array([s * math.cos(j * step), s * math.sin(j * step), c]) for j in range(4)
    ]
    cross = np.cross(vs[3], vs[0])
    norm = np.linalg.norm(cross)
    if norm < 1e-12:
        seed = np.array([1.0, 0.0, 0.0])
        if abs(np.dot(seed, vs[0])) > 0.9:
            seed = np.array([0.0, 1.0, 0.0])
        cross = np.cross(vs[0], seed)
        norm = np.linalg.norm(cross)
    vs.append(cross / norm)
    return np.array(vs)


def contextual_cone(params) -> CorrelationVector:
    """Joint correlators of the compatible cone cycle with an xz-plane state."""
    theta, state_angle = float(params[0]), float(params[1])
    vs = cone_vectors(theta)
    psi = np.array([math.sin(state_angle), 0.0, math.cos(state_angle)])
    weights = (vs @ psi) ** 2
    values = tuple(
        1.0 - 2.0 * weights[i] - 2.0 * weights[(i + 1) % 5] for i in range(5)
    )
    return CorrelationVector(canonical_scenario(5), values)


ORACLES = {
    "temporal-times": temporal_times,
    "bloch-angles": bloch_angles,
    "contextual-cone": contextual_cone,
}


def nelder_mead(f, x0, initial_step, *, max_iter=600, f_tol=1e-13, x_tol=1e-7):
    """Minimize a scalar f by simplex reflection/expansion/contraction/shrink."""
    dim = x0.size
    points = [np.array(x0, dtype=float)]
    for i in range(dim):
        step = np.array(x0, dtype=float)
        step[i] += initial_step[i]
        points.append(step)
    values = [f(p) for p in points]
    for _ in range(max_iter):
        order = np.argsort(values, kind="stable")
        points = [points[i] for i in order]
        values = [values[i] for i in order]
        spread = values[-1] - values[0]
        size = max(np.max(np.abs(p - points[0])) for p in points[1:])
        if spread <= f_tol and size <= x_tol:
            break
        centroid = np.mean(points[:-1], axis=0)
        worst = points[-1]
        reflected = centroid + (centroid - worst)
        fr = f(reflected)
        if fr < values[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            fe = f(expanded)
            if fe < fr:
                points[-1], values[-1] = expanded, fe
            else:
                points[-1], values[-1] = reflected, fr
        elif fr < values[-2]:
            points[-1], values[-1] = reflected, fr
        else:
            contracted = centroid + 0.5 * (worst - centroid)
            fc = f(contracted)
            if fc < values[-1]:
                points[-1], values[-1] = contracted, fc
            else:
                best = points[0]
                points = [best] + [best + 0.5 * (p - best) for p in points[1:]]
                values = [values[0]] + [f(p) for p in points[1:]]
    best = int(np.argmin(values))
    return points[best], values[best]
