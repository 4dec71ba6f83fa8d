"""Report bodies pinned byte for byte against ``data/golden_bodies.txt``.

The body of a structured report is every line that does not start with
``#`` (the timestamp, elapsed time and argv headers are volatile). The file
holds one block per command: a ``$ <argv>`` line, then the body. Every
correlator is printed with ``repr``, so a change in the last bit of any
floating-point result shows here.

Regenerate the file (only for an intended change of output, to be listed in
CHANGES.md) from the repository root:

    PYTHONPATH=src python tests/test_golden_bodies.py
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

from qcycle.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden_bodies.txt"

BUILDERS = ("kcbs-contextual", "kcbs-temporal", "kcbs-spatial")

COMMANDS = (
    [("evaluate", b) for b in BUILDERS]
    + [("evaluate", f"chained-{n}") for n in range(3, 25)]
    + [("bound", "--n", str(n)) for n in range(3, 21)]
    + [("feasibility", b) for b in BUILDERS]
    + [("feasibility", f"chained-{n}") for n in range(3, 12)]
    + [
        ("histories",),
        ("histories", "--angles", "0.1", "0.2", "0.3"),
        ("histories", "--angles", "-0.5", "1.2", "2.9"),
        ("histories", "--angles", "0.7853981633974483", "-2.356194490192345", "3.0"),
        ("scan", "--builder", "chained", "--min", "3", "--max", "12"),
    ]
)


def body(argv) -> str:
    """Exit code 0 and the non-``#`` lines of the structured report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--format", "structured"])
    assert code == 0, argv
    return "".join(l for l in out.getvalue().splitlines(True) if not l.startswith("#"))


def read_golden() -> dict[str, str]:
    blocks: dict[str, str] = {}
    key = None
    for line in GOLDEN.read_text().splitlines(True):
        if line.startswith("#"):
            continue
        if line.startswith("$ "):
            key = line[2:].rstrip("\n")
            blocks[key] = ""
        else:
            blocks[key] += line
    return blocks


def write_golden() -> None:
    parts = [
        "# Structured report bodies (non-'#' lines) of qcycle commands, one '$ argv' block each.\n",
        f"# Recorded with numpy {np.__version__}; read by tests/test_golden_bodies.py.\n",
    ]
    for argv in COMMANDS:
        parts.append(f"$ {' '.join(argv)}\n")
        parts.append(body(argv))
    GOLDEN.write_text("".join(parts))


def test_golden_file_covers_every_command():
    assert list(read_golden()) == [" ".join(argv) for argv in COMMANDS]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_body_matches_golden(argv):
    assert body(argv) == read_golden()[" ".join(argv)]


if __name__ == "__main__":
    write_golden()
    sys.stdout.write(f"wrote {len(COMMANDS)} bodies to {GOLDEN}\n")
