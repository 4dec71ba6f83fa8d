"""Brute-force oracle for the odd-parity facets of the n-cycle polytope.

Enumerates every sign vector g with an odd number of -1s and takes the
largest sum(g_i c_i); pair marginals with nonnegative cells admit a joint
distribution iff that maximum is at most n - 2 (Araujo et al., PRA 88,
022118 (2013)).
"""

from __future__ import annotations

import numpy as np


def enumerated_facet_excess(correlators) -> float:
    """max over odd-parity g in {+1, -1}^n of sum(g_i c_i), minus (n - 2)."""
    c = np.asarray(correlators, dtype=float)
    n = c.size
    idx = np.arange(1 << n, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(n, dtype=np.int64)) & 1
    g = (1 - 2 * bits[bits.sum(axis=1) % 2 == 1]).astype(float)
    return float((g @ c).max()) - (n - 2)
