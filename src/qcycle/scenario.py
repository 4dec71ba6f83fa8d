"""Measurement scenarios for n-cycle correlation inequalities.

A cycle scenario is n dichotomic observables of which only cyclically
adjacent pairs are co-measurable, together with the sign of each term in the
tested inequality sum(signs[i] * <X_i X_{i+1 mod n}>). The canonical pattern
is all +1 except the wrap term, which carries (-1)^(n-1).

The classical (joint-distribution) bound depends only on the sign parity:
-n when prod(-signs[i]) = 1 and -n+2 otherwise (Araujo, Quintino, Budroni,
Terra Cunha and Cabello, PRA 88, 022118 (2013)), so it is -n+2 for the
canonical pattern, at O(n) cost for any n. ``CYCLE_CAP`` bounds the cycle
nodes one command builds from a number, checked before anything is built.

Sign patterns are explicit rather than hard-coded so the three-observable
Leggett-Garg inequality (all-plus, n=3) and the general chained form share
one evaluator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import PreconditionError, ResourceLimitError
from .linalg import Observable, State

# Most cycle nodes one command builds from a number (chained-N, bound --n, the
# n range of a chained scan). On a 2-core host build("chained-10000") takes
# 0.19-0.28 s, a scan of 3..140 (9867 nodes) 0.24-0.32 s, both at 45 MB peak RSS.
CYCLE_CAP = 10_000


@dataclass(frozen=True)
class CycleScenario:
    """An n-cycle of dichotomic observables plus the tested sign pattern."""

    n: int
    signs: tuple[int, ...]

    def __post_init__(self):
        if self.n < 3:
            raise PreconditionError(f"cycle needs n >= 3 observables, got {self.n}")
        signs = tuple(int(s) for s in self.signs)
        object.__setattr__(self, "signs", signs)
        if len(signs) != self.n or any(s not in (-1, 1) for s in signs):
            raise PreconditionError("signs must be n values in {+1, -1}")


def check_cycle_cap(nodes: int | float) -> None:
    """Raise ResourceLimitError past ``CYCLE_CAP`` nodes; ``math.inf`` is a count too long for int."""
    if nodes > CYCLE_CAP:
        shown = nodes if nodes < 10**18 else "more than 10**18"  # str() refuses over 4300 digits
        raise ResourceLimitError(f"cycle capped at {CYCLE_CAP} nodes, got {shown}")


def canonical_scenario(n: int) -> CycleScenario:
    """All-plus signs except a (-1)^(n-1) wrap term; the cap is checked first."""
    check_cycle_cap(n)
    return CycleScenario(n, (1,) * (n - 1) + ((-1) ** (n - 1),))


@dataclass(frozen=True)
class CorrelationVector:
    """The n adjacent-pair correlators <X_i X_{i+1 mod n}> of a scenario."""

    scenario: CycleScenario
    values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if len(values) != self.scenario.n:
            raise PreconditionError("need one correlator per cycle edge")
        if not all(math.isfinite(v) for v in values):
            raise PreconditionError("correlators must be finite")
        if any(abs(v) > 1.0 + 1e-9 for v in values):
            raise PreconditionError("correlators must lie in [-1, 1]")


def inequality_lhs(c: CorrelationVector) -> float:
    """Signed sum of the correlators, the left-hand side of the inequality."""
    return float(np.dot(c.scenario.signs, c.values))


def classical_bound(scenario: CycleScenario) -> int:
    """Minimum of the signed sum over all deterministic +-1 assignments.

    With y_i = x_i x_{i+1} the sum is sum(s_i y_i), and since each x_i appears
    in two terms the only constraint on y is prod(y_i) = 1. So the minimum is
    -n when y_i = -s_i is allowed (prod(-s_i) = 1) and -n+2 otherwise, with
    one frustrated term. Canonical sign patterns give -n+2.
    """
    n = scenario.n
    return -n if math.prod(scenario.signs) == (-1) ** n else -n + 2


@dataclass(frozen=True)
class TemporalProtocol:
    """One observable measured at a sequence of times under SU(2) evolution.

    ``angular_rate`` is the coefficient of t in the rotation exponent, so the
    evolution operator at time t is su2_rotation(axis, angular_rate * t).
    """

    initial_state: State
    axis: tuple[float, float, float]
    angular_rate: float
    times: tuple[float, ...]
    measured: Observable

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "axis", tuple(float(a) for a in self.axis))
        if len(times) < 3:
            raise PreconditionError("temporal protocol needs at least 3 times")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise PreconditionError("times must be strictly increasing")
        if self.initial_state.dim != self.measured.dim:
            raise PreconditionError("state and observable dimensions differ")

    @property
    def n(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class BipartiteConfig:
    """A shared state with each party's settings stack and the tested pairings.

    ``alice`` and ``bob`` are (k, d, d) stacks from ``linalg.observable_stack``.
    ``pairing`` lists (alice_index, bob_index, sign) per inequality term; the
    correlator of term k is <A_i B_j> = Tr(rho (A_i x B_j)).
    """

    state: State
    alice: np.ndarray
    bob: np.ndarray
    pairing: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "pairing", tuple((int(i), int(j), int(s)) for i, j, s in self.pairing))
        if self.state.dim != self.alice.shape[1] * self.bob.shape[1]:
            raise PreconditionError("state dimension must be dim_A * dim_B")
        for i, j, s in self.pairing:
            if not (0 <= i < len(self.alice) and 0 <= j < len(self.bob)):
                raise PreconditionError(f"pairing index ({i}, {j}) out of range")
            if s not in (-1, 1):
                raise PreconditionError("pairing signs must be +-1")

    def scenario(self) -> CycleScenario:
        return CycleScenario(len(self.pairing), tuple(s for _, _, s in self.pairing))


# Scenario description files: plain key = value lines, '#' comments ignored.
# Keys: n, signs (required); builder, correlators, singles (optional).
# Writing then parsing reproduces the same ScenarioFile.


@dataclass(frozen=True)
class ScenarioFile:
    """Parsed contents of a scenario description file."""

    scenario: CycleScenario
    builder: str | None = None
    correlators: tuple[float, ...] | None = None
    singles: tuple[float, ...] | None = None


def scenario_to_text(doc: ScenarioFile) -> str:
    lines = ["# qcycle scenario v1"]
    lines.append(f"n = {doc.scenario.n}")
    lines.append("signs = " + " ".join(f"{s:+d}" for s in doc.scenario.signs))
    if doc.builder is not None:
        lines.append(f"builder = {doc.builder}")
    if doc.correlators is not None:
        lines.append("correlators = " + " ".join(repr(v) for v in doc.correlators))
    if doc.singles is not None:
        lines.append("singles = " + " ".join(repr(v) for v in doc.singles))
    return "\n".join(lines) + "\n"


def _parse_field(fields: dict[str, str], key: str, kind, *, many: bool = False):
    """One value (or a list of values) of ``kind`` from a scenario field."""
    try:
        if many:
            return [kind(tok) for tok in fields[key].split()]
        return kind(fields[key])
    except ValueError:
        raise PreconditionError(
            f"scenario key {key!r} needs {kind.__name__} values, got {fields[key]!r}"
        ) from None


def scenario_from_text(text: str) -> ScenarioFile:
    fields: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise PreconditionError(f"malformed scenario line {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in fields:
            raise PreconditionError(f"duplicate scenario key {key!r}")
        fields[key] = value
    if "n" not in fields or "signs" not in fields:
        raise PreconditionError("scenario file needs 'n' and 'signs'")
    n = _parse_field(fields, "n", int)
    signs = tuple(_parse_field(fields, "signs", int, many=True))
    scen = CycleScenario(n, signs)
    correlators = None
    if "correlators" in fields:
        correlators = tuple(_parse_field(fields, "correlators", float, many=True))
        if len(correlators) != n:
            raise PreconditionError("correlators length must equal n")
    singles = None
    if "singles" in fields:
        singles = tuple(_parse_field(fields, "singles", float, many=True))
        if len(singles) != n:
            raise PreconditionError("singles length must equal n")
    return ScenarioFile(scen, fields.get("builder"), correlators, singles)


def load_scenario(path) -> ScenarioFile:
    try:
        # utf-8-sig drops a leading byte-order mark, which would otherwise prefix the first key.
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionError(f"cannot read scenario file {str(path)!r}: {exc}") from None
    return scenario_from_text(text)


def save_scenario(doc: ScenarioFile, path) -> None:
    Path(path).write_text(scenario_to_text(doc))
