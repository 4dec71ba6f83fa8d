"""Oracle that reads a ``qcycle.jpd`` witness distribution back into correlators.

Sums w(x) x_i x_{i+1} over the nonzero assignment weights of a feasible
verdict, apart from the LP rows that produced them; bit b of an assignment
index set means x_b = -1.
"""

from __future__ import annotations

import numpy as np

from qcycle.errors import PreconditionError
from qcycle.jpd import JpdWitness


def witness_correlators(witness: JpdWitness, n: int) -> tuple[float, ...]:
    """Adjacent-pair correlators implied by a witness distribution."""
    if witness.distribution is None:
        raise PreconditionError("no distribution to read correlators from")
    idx = np.fromiter(witness.distribution.keys(), dtype=np.int64)
    w = np.fromiter(witness.distribution.values(), dtype=float)
    sign = 1 - 2 * ((idx[:, None] >> np.arange(n, dtype=np.int64)) & 1)
    return tuple(float(np.sum(w * sign[:, i] * sign[:, (i + 1) % n])) for i in range(n))
