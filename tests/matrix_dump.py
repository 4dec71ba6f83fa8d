"""Text format of the frozen matrix fixtures in ``tests/data``.

One row per line, entries as re+im*i with 17 significant digits, so a
matrix round-trips through text with every binary64 bit intact.
"""

from __future__ import annotations

import re

import numpy as np

from qcycle.errors import PreconditionError
from qcycle.linalg import as_matrix

_ENTRY_RE = re.compile(r"^([+-]?\d\.\d{16}e[+-]\d{2,3})([+-]\d\.\d{16}e[+-]\d{2,3})i$")


def format_matrix(m) -> str:
    m = as_matrix(m)
    rows = []
    for row in m:
        rows.append(" ".join(f"{z.real:.16e}{z.imag:+.16e}i" for z in row))
    return "\n".join(rows) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    rows = []
    for line in text.strip().splitlines():
        entries = []
        for tok in line.split():
            mobj = _ENTRY_RE.match(tok)
            if mobj is None:
                raise PreconditionError(f"cannot parse matrix entry {tok!r}")
            entries.append(complex(float(mobj.group(1)), float(mobj.group(2))))
        rows.append(entries)
    return as_matrix(np.array(rows, dtype=complex))
