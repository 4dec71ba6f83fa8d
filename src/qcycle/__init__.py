"""Numerical laboratory for n-cycle correlation inequalities.

Builds the standard quantum configurations violating the five-cycle (KCBS),
three-measurement (Leggett-Garg) and chained inequalities in contextual,
temporal and spatial readings, evaluates the inequalities against
closed-form classical bounds, decides joint-probability-distribution
existence by the odd-parity facet rule (with a witness distribution from
linear programming when one exists), and decomposes temporal violations
into consistent-histories interference terms.
"""

from .errors import PreconditionError, ResourceLimitError, VerificationError

__version__ = "0.1.0"

__all__ = [
    "PreconditionError",
    "ResourceLimitError",
    "VerificationError",
    "__version__",
]
