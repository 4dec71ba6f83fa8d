"""The three workloads: their seeded inputs, warm-up, ops and checks.

A workload's ``round_ops(r)`` returns the same list of ops, by shape, in
every round, so each run attempts whole rounds of the same operations.
Inputs come only from the workload seed; the program sees only them.
"""

from __future__ import annotations

import io
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from functools import partial

import numpy as np

import checks
import oracles
from tracing import SPACES

MARGIN = 0.01
STARTS = 64
FEASIBILITY_NS = tuple(range(5, 12))
SETS_PER_CELL = 48
KCBS = ("kcbs-contextual", "kcbs-temporal", "kcbs-spatial")
KCBS_LHS = {
    "kcbs-contextual": oracles.CONTEXTUAL_OPTIMUM,
    "kcbs-temporal": oracles.FIVE_CYCLE_OPTIMUM,
    "kcbs-spatial": oracles.FIVE_CYCLE_OPTIMUM,
}


def marginal_case(rng, n: int, feasible: bool, biased: bool) -> tuple[list, list]:
    """Correlators and singles of an n-cycle at least MARGIN from every facet,
    on the requested side. Uniform draws are almost all feasible, so an
    infeasible set is drawn near a random odd-parity facet and pushed past it.
    """
    while True:
        if feasible:
            c = rng.uniform(-1.0, 1.0, n)
            s = rng.uniform(-0.5, 0.5, n) if biased else np.zeros(n)
        else:
            gamma = np.ones(n)
            flips = 2 * int(rng.integers(0, (n + 1) // 2)) + 1
            gamma[rng.choice(n, size=flips, replace=False)] = -1.0
            # sum(gamma * c) = n - 2 + excess; every slack >= 4.5 * MARGIN
            # keeps the cells of the unbiased set off zero.
            floor = 4.5 * MARGIN
            total = 2.0 - rng.uniform(0.05, 0.5)
            slack = floor + rng.dirichlet(np.ones(n)) * (total - n * floor)
            c = gamma * (1.0 - slack)
            room = np.minimum(slack, np.roll(slack, 1))
            s = rng.uniform(-0.4, 0.4, n) * room if biased else np.zeros(n)
        if oracles.facet_margin(c, s) >= MARGIN and oracles.cycle_feasible(c, s) == feasible:
            return [float(v) for v in c], [float(v) for v in s]


def random_signs(rng, n: int) -> tuple[int, ...]:
    return tuple(int(v) for v in rng.choice((1, -1), size=n))


class Optimize:
    """minimize_lhs on the five-cycle, one fresh seed per space per round.

    A call on the cone costs a tenth of one on the other spaces, so the
    latency percentiles are taken over rounds, one call per space each.
    """

    reference = "mixed"
    latency_per_round = True

    def __init__(self, qc, seed: int, workdir):
        self.qc = qc
        self.rng = np.random.default_rng([seed, 1])
        self.scenario = qc.scenario.canonical_scenario(5)
        self.spaces = {kind: qc.search.default_space_and_evaluator(kind) for kind in SPACES}

    def prepare(self) -> None:
        # The first evaluation of a space fills a module-level cache.
        for space, evaluator in self.spaces.values():
            evaluator(np.array([(lo + hi) / 2.0 for lo, hi in space.bounds]))

    def round_ops(self, r: int):
        return [(kind, partial(self._op, kind, int(self.rng.integers(2**31)))) for kind in SPACES]

    def _op(self, kind: str, seed: int):
        space, evaluator = self.spaces[kind]
        x, value = self.qc.search.minimize_lhs(space, self.scenario, evaluator, seed=seed, starts=STARTS)
        return kind, seed, [float(v) for v in x], float(value)

    def may_fail(self, index: int) -> bool:
        return False

    def check(self, records) -> list[str]:
        return checks.check_optimize([rec.output for rec in records if rec.ok])


class Feasibility:
    """correlators_to_marginals -> jpd_feasible -> classical_bound over a
    balanced seeded population plus the builders' own marginals."""

    reference = "mixed"
    latency_per_round = False

    def __init__(self, qc, seed: int, workdir):
        self.qc = qc
        rng = np.random.default_rng([seed, 2])
        cases = []
        for n in FEASIBILITY_NS:
            for k in range(SETS_PER_CELL):
                for feasible in (True, False):
                    c, s = marginal_case(rng, n, feasible, biased=k % 2 == 0)
                    verdict = "feasible" if feasible else "infeasible"
                    cases.append(
                        {"name": f"n{n}.{verdict}.{k}", "signs": random_signs(rng, n),
                         "correlators": c, "singles": s}
                    )
        for name in KCBS + tuple(f"chained-{n}" for n in range(3, 12)):
            result = qc.quantum.build(name)
            cases.append(
                {"name": name, "signs": result.scenario.signs,
                 "correlators": list(result.correlations.values), "singles": list(result.singles)}
            )
        self.cases = cases
        sc = qc.scenario
        self.inputs = [
            (
                sc.CorrelationVector(sc.CycleScenario(len(case["signs"]), case["signs"]), case["correlators"]),
                case["singles"] if any(case["singles"]) else None,
            )
            for case in cases
        ]

    def prepare(self) -> None:
        # One op of each (n, verdict) cell: the first simplex tableau of each
        # size is slower (fresh allocations) than every later one.
        for i in range(0, 2 * SETS_PER_CELL * len(FEASIBILITY_NS), 2 * SETS_PER_CELL):
            self._op(i)
            self._op(i + 1)

    def round_ops(self, r: int):
        return [(case["name"], partial(self._op, i)) for i, case in enumerate(self.cases)]

    def _op(self, i: int):
        jpd = self.qc.jpd
        corr, singles = self.inputs[i]
        witness = jpd.jpd_feasible(jpd.correlators_to_marginals(corr, singles))
        bound = self.qc.scenario.classical_bound(corr.scenario)
        return witness.feasible, witness.distribution, bound

    def may_fail(self, index: int) -> bool:
        return False

    def check(self, records) -> list[str]:
        rounds: dict[int, list] = {}
        for rec in records:
            rounds.setdefault(rec.round, []).append(rec.output if rec.ok else None)
        return checks.check_feasibility(self.cases, [rounds[r] for r in sorted(rounds)])


class UnexpectedExit(Exception):
    pass


def _scenario_text(n, signs, correlators=None, singles=None, n_text=None) -> str:
    lines = [f"n = {n_text if n_text is not None else n}", "signs = " + " ".join(f"{s:+d}" for s in signs)]
    if correlators is not None:
        lines.append("correlators = " + " ".join(repr(v) for v in correlators))
    if singles is not None:
        lines.append("singles = " + " ".join(repr(v) for v in singles))
    return "\n".join(lines) + "\n"


class Cli:
    """In-process qcycle.cli.main over a fixed mix of subcommands, writing
    structured reports under QCYCLE_OUT_DIR."""

    reference = "blend"
    latency_per_round = False

    def __init__(self, qc, seed: int, workdir):
        self.qc = qc
        self.out = workdir
        os.environ["QCYCLE_OUT_DIR"] = str(self.out)
        self.sink = io.StringIO()
        rng = np.random.default_rng([seed, 3])
        cmds = []

        def add(argv, kind="report", expected=None, expect_code=0):
            cmds.append({"name": " ".join(argv), "argv": argv, "kind": kind,
                         "expected": expected, "expect_code": expect_code})

        for name in KCBS:
            add(["evaluate", name], expected={"lhs": KCBS_LHS[name], "classical_bound": -3, "violated": True})
        for n in range(3, 25):
            add(["evaluate", f"chained-{n}"],
                expected={"lhs": oracles.chained_value(n), "classical_bound": 2 - n, "violated": True})
        for n in range(3, 21):
            add(["bound", "--n", str(n)],
                expected={"n": n, "classical_bound": oracles.classical_bound(oracles.canonical_signs(n))})
            signs = random_signs(rng, n)
            add(["bound", "--n", str(n), "--signs", *(f"{s:+d}" for s in signs)],
                expected={"n": n, "classical_bound": oracles.classical_bound(signs)})
        for name in KCBS + tuple(f"chained-{n}" for n in range(3, 12)):
            lhs = KCBS_LHS[name] if name in KCBS else oracles.chained_value(int(name.split("-")[1]))
            n = 5 if name in KCBS else int(name.split("-")[1])
            add(["feasibility", name],
                expected={"feasible": False, "lhs": lhs, "classical_bound": 2 - n, "violated": True})
        for k, n in enumerate((5, 6, 7, 8, 9, 10, 11, 11)):
            feasible = k % 2 == 0
            c, s = marginal_case(rng, n, feasible, biased=k % 4 < 2)
            signs = random_signs(rng, n)
            path = self.out / f"scenario-{k}.txt"
            path.write_text(_scenario_text(n, signs, c, s))
            lhs = checks.lhs_of(signs, c)
            bound = oracles.classical_bound(signs)
            add(["feasibility", str(path)], expected={
                "feasible": feasible, "lhs": lhs, "classical_bound": bound,
                "violated": lhs < bound - checks.VIOLATION_MARGIN})
        for _ in range(6):
            a, b, c = (float(v) for v in rng.uniform(0.0, 2.0 * math.pi, 3))
            lhs = math.cos(a - b) + math.cos(b - c) + math.cos(a - c)
            add(["histories", "--angles", repr(a), repr(b), repr(c)],
                expected={"lhs": lhs, "decomposition_value": lhs + 1.0, "p_sum": 1.0})
        for _ in range(2):
            lo = int(rng.integers(3, 10))
            add(["scan", "--builder", "chained", "--param", "n", "--min", str(lo), "--max", str(lo + 3)],
                kind="csv", expected=[(n, oracles.chained_value(n), 2 - n) for n in range(lo, lo + 4)])
        nan_file = self.out / "malformed-nan.txt"
        nan_file.write_text(_scenario_text(5, (1,) * 5, [float("nan")] + [-0.5] * 4))
        fractional = self.out / "malformed-fractional-n.txt"
        fractional.write_text(_scenario_text(5, (1,) * 5, n_text="5.5"))
        add(["feasibility", str(nan_file)], kind=None, expect_code=2)
        add(["bound", "--file", str(fractional)], kind=None, expect_code=2)
        add(["bound", "--file", str(self.out / "missing.txt")], kind=None, expect_code=2)
        self.commands = cmds

    def prepare(self) -> None:
        for argv in (["evaluate", "chained-3"], ["bound", "--n", "3"], ["feasibility", "chained-3"],
                     ["histories"], ["scan", "--builder", "chained", "--min", "3", "--max", "3"]):
            self._op([*argv, "--format", "structured", "--out", "warmup.txt"], 0)

    def _out_name(self, r: int, k: int) -> str:
        return f"r{r}-c{k}.txt"

    def round_ops(self, r: int):
        return [
            (cmd["argv"][0],
             partial(self._op, [*cmd["argv"], "--format", "structured", "--out", self._out_name(r, k)],
                     cmd["expect_code"]))
            for k, cmd in enumerate(self.commands)
        ]

    def _op(self, argv, expect_code):
        with redirect_stdout(self.sink), redirect_stderr(self.sink):
            try:
                code = self.qc.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        self.sink.seek(0)
        self.sink.truncate()
        if code != expect_code:
            raise UnexpectedExit(f"exit {code}, expected {expect_code}")
        return code

    def may_fail(self, index: int) -> bool:
        """Only the malformed inputs, which fail today by a fault in the
        program: an exception escapes main instead of exit 2."""
        return self.commands[index]["kind"] is None

    def check(self, records) -> list[str]:
        n_rounds = max((rec.round for rec in records), default=-1) + 1
        codes = [[None] * len(self.commands) for _ in range(n_rounds)]
        texts = [[None] * len(self.commands) for _ in range(n_rounds)]
        for rec in records:
            codes[rec.round][rec.index] = rec.output if rec.ok else None
            path = self.out / self._out_name(rec.round, rec.index)
            if path.is_file():
                texts[rec.round][rec.index] = path.read_text()
        return checks.check_cli(self.commands, codes, texts)


WORKLOADS = {"optimize": Optimize, "feasibility": Feasibility, "cli": Cli}
