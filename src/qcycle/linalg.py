"""Dense complex linear algebra for small Hilbert spaces (dim <= 64).

All operations work on square complex128 numpy arrays, never mutate their
inputs, and return fresh arrays or floats. Every quantity handled here is of
order one, so tolerances are absolute.

The rotation convention is fixed by ``su2_rotation``: with
R = su2_rotation(axis, theta) = exp(i*theta*(axis.sigma)), conjugation
R^dag M R rotates the Bloch vector of M by the angle 2*theta about ``axis``
(for axis = y this sends sigma_z to cos(2t) sigma_z + sin(2t) sigma_x, and
the inverse conjugation R M R^dag to cos(2t) sigma_z - sin(2t) sigma_x).
Every builder in the package uses this one convention.

Two frozen types carry validated inputs. ``Observable(m)`` is a +-1
measurement: it checks once that m is Hermitian with m^2 = I and derives its
spectral projectors (I +- m)/2 on first use, so every scenario (contextual,
temporal, bipartite, consistent histories) reads the same object. ``State``
is a density matrix.

Expectation values are traces of stacked products: callers form the
(K, d, d) products Tr(rho O) needs (rho X, rho X Y, rho {X, Y}, rho (A x B))
in one broadcast matrix product and ``real_traces`` sums their diagonals, the
one place where a real trace's imaginary part is checked. The per-term
products are the test oracles in ``tests/quantum_oracles.py``.

The helpers use ndarray methods and broadcasting rather than numpy's
module-level wrappers (``np.trace``, ``np.max``, ``np.linalg.norm``), whose
argument handling costs more than the arithmetic on 2x2 and 4x4 matrices.
Each does the same floating-point operations as the wrapper it replaces, so
every result is bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PreconditionError, VerificationError

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

HERMITIAN_TOL = 1e-12
OBSERVABLE_TOL = 1e-10
PSD_TOL = 1e-10
UNIT_TOL = 1e-12


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise PreconditionError(f"expected a square matrix, got shape {a.shape}")
    # Counting finite entries skips the ufunc reduction behind ndarray.all.
    if np.count_nonzero(np.isfinite(a)) != a.size:
        raise PreconditionError("matrix contains NaN or Inf entries")
    return a


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


_FROZEN_IDENTITIES: dict[int, np.ndarray] = {}


def _frozen_identity(dim: int) -> np.ndarray:
    """A read-only ``identity(dim)`` shared by every caller, made once per dimension."""
    eye = _FROZEN_IDENTITIES.get(dim)
    if eye is None:
        eye = _FROZEN_IDENTITIES[dim] = _freeze(identity(dim))
    return eye


def dag(m) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(m).conj().T.copy()


def max_abs(m) -> float:
    m = np.asarray(m)
    return float(np.abs(m).max()) if m.size else 0.0


def real_traces(products: np.ndarray) -> list[float]:
    """Traces of a (K, d, d) stack of products, each of which must be real.

    Every real expectation value Tr(rho O) in the package goes through here:
    an imaginary part beyond 1e-10 is a ``VerificationError``. Each trace is
    the diagonal sum that ``ndarray.trace`` makes of that slice alone.
    """
    traces = products.trace(axis1=1, axis2=2)
    worst = max_abs(traces.imag)
    if worst > 1e-10:
        raise VerificationError(f"trace has imaginary part {worst:.3e} beyond 1e-10")
    return traces.real.tolist()


def _unit_vector3(v) -> np.ndarray:
    """A real 3-vector of unit norm; NaN or Inf entries fail the norm test."""
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape != (3,):
        raise PreconditionError(f"expected a 3-vector, got shape {v.shape}")
    norm = math.sqrt(v.dot(v))  # np.linalg.norm's own sum for a real vector
    if not abs(norm - 1.0) <= UNIT_TOL:
        raise PreconditionError(f"vector has norm {norm!r}, expected 1")
    return v


def su2_rotation(axis, angle: float) -> np.ndarray:
    """exp(i*angle*(axis.sigma)) via cos(angle)*I + i*sin(angle)*(axis.sigma)."""
    n = _unit_vector3(axis)
    if not math.isfinite(angle):
        raise PreconditionError(f"rotation angle must be finite, got {float(angle)!r}")
    ns = n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z
    return math.cos(angle) * I2 + 1j * math.sin(angle) * ns


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _frozen_matrix(m) -> np.ndarray:
    """``as_matrix(m)`` made read-only without touching the caller's array.

    ``as_matrix`` hands back the caller's own ndarray (or a view of it) when
    it is already complex; that one is copied, so freezing never reaches the
    caller and the caller keeps no writable way into the frozen matrix.
    """
    a = as_matrix(m)
    if a is m or a.base is not None:
        a = a.copy()
    return _freeze(a)


@dataclass(frozen=True)
class Observable:
    """A Hermitian observable with m^2 = I and its spectral projectors.

    The projectors (I +- m)/2 are derived from ``matrix`` on first use and
    then kept: the closed form holds for any +-1 spectrum, so the two checks
    on ``matrix`` validate them too.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _frozen_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        if max_abs(m - m.conj().T) > HERMITIAN_TOL:
            raise PreconditionError("observable matrix is not Hermitian")
        if max_abs(m @ m - _frozen_identity(m.shape[0])) > OBSERVABLE_TOL:
            raise PreconditionError("observable does not square to the identity")

    @cached_property
    def proj_plus(self) -> np.ndarray:
        return _freeze((_frozen_identity(self.dim) + self.matrix) / 2.0)

    @cached_property
    def proj_minus(self) -> np.ndarray:
        return _freeze((_frozen_identity(self.dim) - self.matrix) / 2.0)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def projector(self, outcome: int) -> np.ndarray:
        if outcome == 1:
            return self.proj_plus
        if outcome == -1:
            return self.proj_minus
        raise PreconditionError(f"outcome must be +1 or -1, got {outcome!r}")


def bloch_observable(n) -> Observable:
    """Qubit observable n.sigma for a unit Bloch vector n."""
    n = _unit_vector3(n)
    return Observable(n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z)


@dataclass(frozen=True)
class State:
    """Density matrix: Hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _frozen_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        if max_abs(m - m.conj().T) > HERMITIAN_TOL:
            raise PreconditionError("state is not Hermitian")
        t = complex(m.trace())
        if abs(t - 1.0) > HERMITIAN_TOL:
            raise PreconditionError(f"state has trace {t!r}, expected 1")
        lowest = np.linalg.eigvalsh(m)[0]
        if lowest < -PSD_TOL:
            raise PreconditionError(f"state has negative eigenvalue {lowest:.3e}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def pure_state(vec) -> State:
    """|v><v| for a (re)normalized ket."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    re, im = v.real, v.imag
    norm = math.sqrt(re.dot(re) + im.dot(im))  # np.linalg.norm's own sum
    if norm < 1e-12:
        raise PreconditionError("cannot normalize the zero vector")
    v = v / norm
    return State(np.outer(v, v.conj()))


def maximally_mixed(dim: int) -> State:
    return State(identity(dim) / dim)


def bell_phi_plus() -> State:
    """(|00> + |11>)/sqrt(2) as a density matrix."""
    return pure_state([1.0, 0.0, 0.0, 1.0])
