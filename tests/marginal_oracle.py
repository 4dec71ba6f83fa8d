"""Oracle for ``qcycle.jpd.MarginalSet`` validation: every check, one at a time.

The checks run in the order ``MarginalSet`` promises, each by its own numpy
call, so the first one that fails names the error: shape, cycle length,
finite cells, no cell below -1e-12, each pair summing to 1 within 1e-9, then
(after clipping round-off negatives to zero) the first node whose two
implied single marginals differ by more than ``NO_DISTURBANCE_TOL``.
"""

from __future__ import annotations

import numpy as np

from qcycle.errors import PreconditionError
from qcycle.jpd import NO_DISTURBANCE_TOL


def ordered_marginal_checks(n, cells) -> np.ndarray:
    """The validated cells ``MarginalSet(n, cells)`` stores, or its PreconditionError."""
    cells = np.asarray(cells, dtype=float)
    if cells.shape != (n, 2, 2):
        raise PreconditionError(f"cells must have shape ({n}, 2, 2)")
    if n < 3:
        raise PreconditionError("need a cycle of at least 3 observables")
    if not np.all(np.isfinite(cells)):
        raise PreconditionError("pair probabilities must be finite")
    if np.any(cells < -1e-12):
        raise PreconditionError("negative pair probability")
    sums = cells.sum(axis=(1, 2))
    if np.any(np.abs(sums - 1.0) > 1e-9):
        raise PreconditionError("each pair distribution must sum to 1")
    cells = np.clip(cells, 0.0, None)
    # left[i] and right[i - 1] are both p(X_i = +1), read off pairs (i, i+1) and (i-1, i).
    left = cells[:, 0, 0] + cells[:, 0, 1]
    right = cells[:, 0, 0] + cells[:, 1, 0]
    gap = np.abs(left - np.concatenate((right[-1:], right[:-1])))
    if gap.max() > NO_DISTURBANCE_TOL:
        node = np.argmax(gap > NO_DISTURBANCE_TOL)
        raise PreconditionError(f"inconsistent single-observable marginals at node {node}")
    return cells
