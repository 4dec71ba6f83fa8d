"""Oracles for the odd-parity facets of the n-cycle polytope.

``enumerated_facet_excess`` enumerates every sign vector g with an odd number
of -1s and takes the largest sum(g_i c_i); pair marginals with nonnegative
cells admit a joint distribution iff that maximum is at most n - 2 (Araujo et
al., PRA 88, 022118 (2013)). ``closest_facet`` is the closed form element by
element, the reference for ``qcycle.jpd._closest_facet`` bit for bit.
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


def closest_facet(m) -> tuple[tuple[int, ...], float]:
    """(g, excess) of the odd-parity facet nearest to the MarginalSet m, one numpy scalar at a time.

    g_i = sign(c_i) (+1 for c_i = 0) reaches sum|c_i|; when g has an even
    number of -1s, the lowest-index entry of smallest |c_i| flips and the sum
    loses 2 min|c_i|.
    """
    cells = m.cells
    c = cells[:, 0, 0] + cells[:, 1, 1] - cells[:, 0, 1] - cells[:, 1, 0]
    size = np.abs(c)
    gamma = np.where(c < 0, -1, 1)
    total = float(size.sum())
    if np.count_nonzero(gamma < 0) % 2 == 0:
        k = int(np.argmin(size))
        gamma[k] = -gamma[k]
        total -= 2.0 * float(size[k])
    return tuple(int(g) for g in gamma), total - (m.n - 2)
