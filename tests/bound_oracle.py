"""Brute-force oracle for ``qcycle.scenario.classical_bound``.

Enumerates every deterministic +-1 assignment of the n cycle observables and
takes the smallest signed sum. x and -x score the same, so x_0 is pinned to
+1 and 2^(n-1) assignments remain.
"""

from __future__ import annotations

import numpy as np


def enumerated_bound(signs) -> int:
    """min over x in {+1, -1}^n with x_0 = +1 of sum(signs[i] * x_i * x_{i+1 mod n})."""
    s = np.asarray(signs, dtype=np.int32)
    n = s.size
    idx = np.arange(1 << (n - 1), dtype=np.int32)
    x = np.ones((idx.size, n), dtype=np.int8)
    x[:, 1:] = 1 - 2 * ((idx[:, None] >> np.arange(n - 1, dtype=np.int32)) & 1)
    terms = x * np.roll(x, -1, axis=1)
    return int((terms @ s).min())
