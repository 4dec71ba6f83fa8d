"""Command-line interface.

Subcommands: ``evaluate``, ``bound``, ``feasibility``, ``histories`` and
``scan``. Every subcommand accepts ``--format text|structured`` and
``--out PATH``; relative output paths resolve against ``QCYCLE_OUT_DIR`` when
that variable is set. ``bound`` reads its scenario from ``--n`` (with
optional ``--signs``) or from ``--file``, never from both.

Exit codes: 0 success, 2 usage error (an output path that cannot be written
included), 3 resource cap exceeded (``CYCLE_CAP``, ``check_lp_cap``,
``SEARCH_START_CAP``), 4 internal verification failure.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import time
from functools import lru_cache
from pathlib import Path

from . import __version__
from .errors import PreconditionError, ResourceLimitError, VerificationError
from .histories import family_from_bloch_angles, lg_decomposition
from .jpd import check_lp_cap, correlators_to_marginals, jpd_feasible, witness_to_text
from .quantum import BUILDER_NAMES, build, builder_cycle_length
from .report import RunReport, csv_lines, violated
from .scenario import (
    CorrelationVector,
    CycleScenario,
    canonical_scenario,
    classical_bound,
    inequality_lhs,
    load_scenario,
)
# minimize_lhs is not called here; perfbench/tracing.py patches qcycle.cli.minimize_lhs.
from .search import minimize_lhs, scan_chained, scan_seeds

USAGE_ERROR = 2
RESOURCE_ERROR = 3
VERIFICATION_ERROR = 4


def _out_path(raw: str) -> Path:
    path = Path(raw)
    base = os.environ.get("QCYCLE_OUT_DIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def _write(raw: str, text: str) -> Path:
    """Write an output file; a path that cannot be written is a usage error."""
    path = _out_path(raw)
    try:
        path.write_text(text)
    except OSError as exc:
        raise PreconditionError(f"cannot write {path}: {exc.strerror or exc}") from exc
    return path


def _emit(report: RunReport, args) -> None:
    rendered = report.structured() if args.format == "structured" else report.text()
    if args.out:
        _write(args.out, rendered)
    else:
        sys.stdout.write(rendered)


def _scenario_fields(report: RunReport, scenario: CycleScenario) -> None:
    report.add("n", scenario.n)
    report.add("signs", tuple(f"{s:+d}" for s in scenario.signs))


def cmd_evaluate(args) -> int:
    started = time.perf_counter()
    result = build(args.builder)
    lhs = inequality_lhs(result.correlations)
    bound = classical_bound(result.scenario)
    report = RunReport("evaluate", args.argv)
    report.add("tool_version", __version__)
    report.add("builder", result.name)
    _scenario_fields(report, result.scenario)
    report.add("correlators", result.correlations.values)
    report.add("singles", result.singles)
    if result.perfect_pairs is not None:
        report.add("perfect_pairs", result.perfect_pairs)
    if result.adjacent_commutator_norms is not None:
        report.add("adjacent_commutator_norms", result.adjacent_commutator_norms)
    report.add("lhs", lhs)
    report.add("classical_bound", bound)
    report.add("violated", violated(lhs, bound))
    report.elapsed_s = time.perf_counter() - started
    _emit(report, args)
    return 0


def cmd_bound(args) -> int:
    started = time.perf_counter()
    if args.file:
        if args.n is not None or args.signs is not None:
            raise PreconditionError("bound takes --file or --n [--signs], not both")
        doc = load_scenario(args.file)
        scenario = doc.scenario
        source = str(args.file)
    else:
        if args.n is None:
            raise PreconditionError("bound needs --n or --file")
        if args.signs:
            scenario = CycleScenario(args.n, tuple(args.signs))
        else:
            scenario = canonical_scenario(args.n)
        source = "command line"
    bound = classical_bound(scenario)
    report = RunReport("bound", args.argv)
    report.add("tool_version", __version__)
    report.add("source", source)
    _scenario_fields(report, scenario)
    report.add("classical_bound", bound)
    report.elapsed_s = time.perf_counter() - started
    _emit(report, args)
    return 0


def _marginals_for(args):
    """MarginalSet plus provenance fields from a builder name or file.

    An input that ``builder_cycle_length`` accepts is a builder name; any
    other input is a scenario file path. A file that names a builder scores
    the builder's correlators and singles under the file's own signs, so it
    may give neither of those.
    """
    builder, scenario = args.input, None
    try:
        n = builder_cycle_length(builder)
    except PreconditionError:
        if not os.path.isfile(args.input):  # False, not OSError, for a name too long
            raise PreconditionError(
                f"{args.input!r} is neither a builder ({', '.join(BUILDER_NAMES)}) "
                "nor a scenario file"
            ) from None
        doc = load_scenario(args.input)
        if doc.builder is None:
            if doc.correlators is None:
                raise PreconditionError("scenario file needs correlators or a builder")
            corr = CorrelationVector(doc.scenario, doc.correlators)
            return correlators_to_marginals(corr, doc.singles), corr, f"file:{args.input}"
        for key in ("correlators", "singles"):
            if getattr(doc, key) is not None:
                raise PreconditionError(
                    f"scenario file names builder {doc.builder!r}, which gives its own {key}; "
                    f"drop the {key!r} key"
                )
        builder, scenario = doc.builder, doc.scenario
        n = builder_cycle_length(builder)
        if n != scenario.n:
            raise PreconditionError(
                f"scenario file has n = {scenario.n}, but builder {builder!r} has cycle length {n}"
            )
    check_lp_cap(n)
    result = build(builder)
    corr = result.correlations
    if scenario is not None:
        corr = CorrelationVector(scenario, corr.values)
    return correlators_to_marginals(corr, result.singles), corr, result.name


def cmd_feasibility(args) -> int:
    started = time.perf_counter()
    marginals, corr, name = _marginals_for(args)
    witness = jpd_feasible(marginals)
    lhs = inequality_lhs(corr)
    bound = classical_bound(corr.scenario)
    report = RunReport("feasibility", args.argv)
    report.add("tool_version", __version__)
    report.add("input", name)
    _scenario_fields(report, corr.scenario)
    report.add("correlators", corr.values)
    report.add("lhs", lhs)
    report.add("classical_bound", bound)
    report.add("violated", violated(lhs, bound))
    report.add("feasible", witness.feasible)
    report.add("facet_signs", tuple(f"{g:+d}" for g in witness.facet_signs))
    report.add("facet_excess", witness.facet_excess)
    if witness.feasible:
        report.add("max_residual", witness.max_constraint_residual)
        report.add("phase1_objective", witness.phase1_objective)
    report.add("near_boundary", witness.near_boundary)
    if args.witness:
        path = _write(args.witness, witness_to_text(witness, corr.scenario.n))
        report.add("witness_path", str(path))
    report.elapsed_s = time.perf_counter() - started
    _emit(report, args)
    return 0


def cmd_histories(args) -> int:
    started = time.perf_counter()
    angles = tuple(args.angles) if args.angles else (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)
    family = family_from_bloch_angles(angles)
    dec = lg_decomposition(family)
    report = RunReport("histories", args.argv)
    report.add("tool_version", __version__)
    report.add("bloch_angles", angles)
    for outcomes, value in dec.probabilities.items():
        report.add(f"p_{_label(outcomes)}", value)
    report.add("correlator_12", dec.correlators[0])
    report.add("correlator_23", dec.correlators[1])
    report.add("correlator_13", dec.correlators[2])
    report.add("correlator_12_anticommutator", dec.correlators_anticommutator[0])
    report.add("correlator_23_anticommutator", dec.correlators_anticommutator[1])
    report.add("correlator_13_anticommutator", dec.correlators_anticommutator[2])
    report.add("lhs", dec.lhs)
    report.add("classical_bound", -1)
    report.add("violated", violated(dec.lhs, -1.0))
    report.add("decomposition_value", dec.decomposition_value)
    for outcomes, value in dec.interference.items():
        report.add(f"interference_{_label(outcomes)}", value)
    for e, g, value, label in dec.pair_classification:
        report.add(f"pair_{_label(e)}_{_label(g)}", (value, label))
    report.elapsed_s = time.perf_counter() - started
    _emit(report, args)
    return 0


def _label(outcomes) -> str:
    """Report-key label of an outcome pattern: p for +1, m for -1, s for a star."""
    return "".join("s" if o is None else ("p" if o == 1 else "m") for o in outcomes)


def cmd_scan(args) -> int:
    started = time.perf_counter()
    if args.builder:
        if args.builder != "chained":
            raise PreconditionError("scan supports the 'chained' builder family")
        if args.param not in (None, "n"):
            raise PreconditionError("the chained family scans over parameter 'n'")
        rows = scan_chained(int(args.min), int(args.max))
    elif args.space:
        if args.param not in (None, "seed"):
            raise PreconditionError("search spaces scan over parameter 'seed'")
        seeds = range(int(args.min), int(args.max) + 1)
        rows = scan_seeds(args.space, seeds, starts=args.starts)
    else:
        raise PreconditionError("scan needs --builder or --space")
    content = csv_lines(("parameter", "lhs_value", "classical_bound"), rows)
    if args.out:
        _write(args.out, content)
        sys.stdout.write(f"wrote {len(rows)} rows in {time.perf_counter() - started:.3f}s\n")
    else:
        sys.stdout.write(content)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcycle",
        description="Cycle-inequality laboratory: evaluate quantum configurations, "
        "bound them classically, test joint-distribution feasibility.",
    )
    parser.add_argument("--version", action="version", version=f"qcycle {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "structured"), default="text")
        p.add_argument("--out", help="write the report to this path")

    p_eval = sub.add_parser("evaluate", help="build a configuration and evaluate its inequality")
    p_eval.add_argument("builder", help="kcbs-contextual | kcbs-temporal | kcbs-spatial | chained-N")
    common(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_bound = sub.add_parser("bound", help="classical bound of a cycle scenario from its sign parity")
    p_bound.add_argument("--n", type=int)
    p_bound.add_argument("--signs", type=int, nargs="+")
    p_bound.add_argument("--file", help="scenario description file")
    common(p_bound)
    p_bound.set_defaults(func=cmd_bound)

    p_feas = sub.add_parser(
        "feasibility",
        help="joint-distribution feasibility from the odd-parity facets; "
        "a feasible set gets a witness distribution by linear programming",
    )
    p_feas.add_argument("input", help="builder name or scenario file path")
    p_feas.add_argument("--witness", help="export the witness distribution to this path")
    common(p_feas)
    p_feas.set_defaults(func=cmd_feasibility)

    p_hist = sub.add_parser("histories", help="interference decomposition of a three-measurement family")
    p_hist.add_argument("--angles", type=float, nargs=3, help="three xz-plane Bloch angles")
    # argparse's own pattern takes only -1 and -.5 as negative numbers, so
    # -1e-1 and -inf would read as unknown options; every negative float
    # starts with -digit, -.digit, -inf or -nan.
    p_hist._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)
    common(p_hist)
    p_hist.set_defaults(func=cmd_histories)

    p_scan = sub.add_parser("scan", help="sweep one parameter and emit CSV rows")
    p_scan.add_argument("--builder", help="builder family to sweep (chained)")
    p_scan.add_argument("--space", choices=("temporal-times", "bloch-angles", "contextual-cone"))
    p_scan.add_argument("--param", help="parameter to sweep (default: n with --builder, seed with --space)")
    p_scan.add_argument("--min", type=int, required=True)
    p_scan.add_argument("--max", type=int, required=True)
    p_scan.add_argument("--starts", type=int, default=64)
    common(p_scan)
    p_scan.set_defaults(func=cmd_scan)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # Built once per process: a build costs over a millisecond, and parsing
    # leaves the parser unchanged, so every main call can share it.
    return make_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(argv)
    args.argv = tuple(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return RESOURCE_ERROR
    except VerificationError as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return VERIFICATION_ERROR


if __name__ == "__main__":
    sys.exit(main())
