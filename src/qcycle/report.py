"""Run reports and their text serializations.

The structured format is line-delimited ``key = value``; arrays are
space-separated, floats use shortest round-trip repr, booleans are
``true``/``false``. Volatile data (timestamp, elapsed time, argv echo) lives
in leading ``#`` header lines so the body is byte-identical for identical
seed and arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone

VIOLATION_MARGIN = 1e-9


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return " ".join(format_value(v) for v in value)
    return str(value)


@dataclass
class RunReport:
    """Ordered key/value report plus volatile header data."""

    command: str
    argv: tuple[str, ...]
    fields: list[tuple[str, object]] = field(default_factory=list)
    elapsed_s: float = 0.0

    def add(self, key: str, value) -> None:
        self.fields.append((key, value))

    def structured(self) -> str:
        lines = [
            "# qcycle report v1",
            f"# timestamp = {datetime.now(timezone.utc).isoformat()}",
            f"# elapsed_s = {self.elapsed_s:.6f}",
            f"# argv = {' '.join(self.argv)}",
            f"command = {self.command}",
        ]
        for key, value in self.fields:
            lines.append(f"{key} = {format_value(value)}")
        return "\n".join(lines) + "\n"

    def text(self) -> str:
        lines = [f"[{self.command}]"]
        for key, value in self.fields:
            lines.append(f"  {key:<24} {format_value(value)}")
        lines.append(f"  {'elapsed_s':<24} {self.elapsed_s:.6f}")
        return "\n".join(lines) + "\n"


def parse_structured(text: str) -> dict[str, str]:
    """Read a structured report back into raw string values."""
    fields: dict[str, str] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(" = ")
        fields[key] = value
    return fields


def violated(lhs: float, bound: float) -> bool:
    return lhs < bound - VIOLATION_MARGIN


def csv_lines(header: tuple[str, ...], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    return "\n".join(lines) + "\n"
