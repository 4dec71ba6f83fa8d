import contextlib
import io
import math
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcycle.cli import main
from qcycle.report import parse_structured
from qcycle.scenario import CYCLE_CAP, CycleScenario, ScenarioFile, canonical_scenario, save_scenario
from qcycle.search import SEARCH_START_CAP

# A chained-N name of more digits than Python's int() accepts (4300).
HUGE_DIGITS = "9" * 5000


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def exit_code(argv) -> tuple[int, str]:
    """Exit code and stderr of one in-process call; argparse errors exit through SystemExit."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def structured(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--format", "structured")
    assert code == 0
    return parse_structured(out)


class TestEvaluate:
    def test_temporal(self, capsys):
        fields = structured(capsys, "evaluate", "kcbs-temporal")
        assert abs(float(fields["lhs"]) - (-4.045084971874737)) < 1e-12
        assert fields["classical_bound"] == "-3"
        assert fields["violated"] == "true"
        assert len(fields["correlators"].split()) == 5

    def test_contextual(self, capsys):
        fields = structured(capsys, "evaluate", "kcbs-contextual")
        assert abs(float(fields["lhs"]) - (5 - 4 * math.sqrt(5))) < 1e-12
        norms = [float(v) for v in fields["adjacent_commutator_norms"].split()]
        assert max(norms) <= 1e-10

    def test_chained(self, capsys):
        fields = structured(capsys, "evaluate", "chained-4")
        assert abs(float(fields["lhs"]) - 4 * math.cos(3 * math.pi / 4)) < 1e-12
        assert fields["classical_bound"] == "-2"

    def test_unknown_builder_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "evaluate", "kcbs-unknown")
        assert code == 2

    def test_text_format(self, capsys):
        code, out = run_cli(capsys, "evaluate", "kcbs-temporal")
        assert code == 0
        assert "lhs" in out and "violated" in out

    def test_argv_header_echoes_main_arguments(self, capsys):
        code, out = run_cli(capsys, "evaluate", "chained-5", "--format", "structured")
        assert code == 0
        assert "# argv = evaluate chained-5 --format structured" in out.splitlines()

    def test_chained_cap_checked_before_building(self, capsys, monkeypatch):
        n = CYCLE_CAP
        fields = structured(capsys, "evaluate", f"chained-{n}")
        assert abs(float(fields["lhs"]) - n * math.cos(math.pi * (n - 1) / n)) <= 1e-10
        assert fields["classical_bound"] == str(2 - n)

        def refuse(n):
            raise AssertionError(f"built a chained configuration of {n} nodes past the cap")

        monkeypatch.setattr("qcycle.quantum.chained_configuration", refuse)
        started = time.perf_counter()
        code, err = exit_code(("evaluate", f"chained-{CYCLE_CAP + 1}"))
        assert time.perf_counter() - started < 1.0
        assert code == 3
        assert err == f"resource limit: cycle capped at {CYCLE_CAP} nodes, got {CYCLE_CAP + 1}\n"

    @pytest.mark.parametrize("command", ["evaluate", "feasibility"])
    def test_name_of_over_4300_digits_ends_in_exit_3(self, command, monkeypatch):
        def refuse(n):
            raise AssertionError(f"built a chained configuration of {n} nodes past the cap")

        monkeypatch.setattr("qcycle.quantum.chained_configuration", refuse)
        started = time.perf_counter()
        code, err = exit_code((command, f"chained-{HUGE_DIGITS}"))
        assert time.perf_counter() - started < 1.0
        assert code == 3
        assert err == f"resource limit: cycle capped at {CYCLE_CAP} nodes, got more than 10**18\n"

    def test_leading_zeros_still_parse(self, capsys):
        padded = structured(capsys, "evaluate", "chained-007")
        plain = structured(capsys, "evaluate", "chained-7")
        assert padded["builder"] == "chained-007"
        assert padded["lhs"] == plain["lhs"] and padded["n"] == "7"


class TestBound:
    def test_canonical_five(self, capsys):
        fields = structured(capsys, "bound", "--n", "5")
        assert fields["classical_bound"] == "-3"

    def test_explicit_signs(self, capsys):
        fields = structured(capsys, "bound", "--n", "3", "--signs", "+1", "+1", "+1")
        assert fields["classical_bound"] == "-1"

    def test_from_file(self, capsys, tmp_path):
        path = tmp_path / "scenario.txt"
        save_scenario(ScenarioFile(canonical_scenario(6)), path)
        fields = structured(capsys, "bound", "--file", str(path))
        assert fields["classical_bound"] == "-4"

    @pytest.mark.parametrize(
        "extra",
        [("--n", "9", "--signs", *["1"] * 9), ("--n", "5"), ("--signs", *["-1"] * 5)],
        ids=["n-and-signs", "n", "signs"],
    )
    def test_file_with_n_or_signs_is_usage_error(self, tmp_path, extra):
        # The file's scenario used to be reported and --n/--signs dropped without a word.
        path = tmp_path / "scenario.txt"
        save_scenario(ScenarioFile(canonical_scenario(5)), path)
        for argv in (("bound", *extra, "--file", str(path)), ("bound", "--file", str(path), *extra)):
            assert exit_code(argv) == (2, "error: bound takes --file or --n [--signs], not both\n")

    def test_resource_cap_exit_code(self, capsys):
        fields = structured(capsys, "bound", "--n", str(CYCLE_CAP))
        assert fields["classical_bound"] == str(2 - CYCLE_CAP)
        code, _ = run_cli(capsys, "bound", "--n", str(CYCLE_CAP + 1))
        assert code == 3

    def test_missing_arguments(self, capsys):
        code, _ = run_cli(capsys, "bound")
        assert code == 2

    def test_huge_n_is_capped_before_its_signs_are_built(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"built the {n} signs of a scenario past the cap")

        monkeypatch.setattr("qcycle.scenario.CycleScenario", refuse)
        started = time.perf_counter()
        code, err = exit_code(("bound", "--n", str(10**12)))
        assert time.perf_counter() - started < 1.0
        assert code == 3
        assert err == f"resource limit: cycle capped at {CYCLE_CAP} nodes, got {10**12}\n"


class TestFeasibility:
    def test_temporal_infeasible(self, capsys):
        fields = structured(capsys, "feasibility", "kcbs-temporal")
        assert fields["feasible"] == "false"
        assert fields["violated"] == "true"

    def test_boundary_feasible_with_witness(self, capsys, tmp_path):
        path = tmp_path / "boundary.txt"
        save_scenario(
            ScenarioFile(canonical_scenario(5), correlators=(-0.6,) * 5), path
        )
        witness_path = tmp_path / "witness.txt"
        fields = structured(
            capsys, "feasibility", str(path), "--witness", str(witness_path)
        )
        assert fields["feasible"] == "true"
        assert float(fields["max_residual"]) <= 1e-7
        assert abs(float(fields["facet_excess"])) <= 1e-12
        assert fields["near_boundary"] == "false"
        text = witness_path.read_text()
        weights = [float(l.split("=")[1]) for l in text.splitlines() if l.startswith("w[")]
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)

    def test_all_zero_correlators_feasible(self, capsys, tmp_path):
        path = tmp_path / "zero.txt"
        save_scenario(ScenarioFile(canonical_scenario(7), correlators=(0.0,) * 7), path)
        fields = structured(capsys, "feasibility", str(path))
        assert fields["feasible"] == "true"

    def test_lp_cap_checked_before_building(self, capsys, monkeypatch, tmp_path):
        def refuse(name):
            raise AssertionError(f"built {name} past the LP cap")

        monkeypatch.setattr("qcycle.quantum.build", refuse)
        monkeypatch.setattr("qcycle.cli.build", refuse)
        path = tmp_path / "chained.txt"
        save_scenario(ScenarioFile(canonical_scenario(3000), builder="chained-3000"), path)
        for source in ("chained-3000", str(path)):
            code, _ = run_cli(capsys, "feasibility", source)
            assert code == 3

    def test_pivot_option_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["feasibility", "kcbs-temporal", "--pivot", "bland"])
        assert exc.value.code == 2

    def test_infeasible_report_shows_facet(self, capsys):
        fields = structured(capsys, "feasibility", "kcbs-temporal")
        assert fields["facet_signs"] == "-1 -1 -1 -1 -1"
        assert float(fields["facet_excess"]) == pytest.approx(5 * math.cos(math.pi / 5) - 3, abs=1e-12)
        assert "phase1_objective" not in fields and "max_residual" not in fields

    def test_chained_infeasible_up_to_the_cap(self, capsys):
        # The verdict needs no LP: n = 12..16 end well inside the time a
        # 2^n-column simplex takes (seconds at n = 15 and 16).
        started = time.perf_counter()
        for n in range(12, 17):
            fields = structured(capsys, "feasibility", f"chained-{n}")
            assert fields["feasible"] == "false"
            signs = fields["facet_signs"].split()
            assert len(signs) == n and signs.count("-1") % 2 == 1
            excess = n * math.cos(math.pi / n) - (n - 2)
            assert float(fields["facet_excess"]) == pytest.approx(excess, abs=1e-12)
        assert time.perf_counter() - started < 0.5

    def test_suffixless_scenario_file(self, capsys, tmp_path, monkeypatch):
        # Any input that is not a builder name is a scenario path, with or
        # without a suffix or a directory part.
        monkeypatch.chdir(tmp_path)
        save_scenario(ScenarioFile(canonical_scenario(5), correlators=(-0.6,) * 5), "scen")
        fields = structured(capsys, "feasibility", "scen")
        assert fields["input"] == "file:scen"
        assert fields["feasible"] == "true"

    def test_builder_name_wins_over_a_file_of_that_name(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        save_scenario(ScenarioFile(canonical_scenario(5), correlators=(-0.6,) * 5), "kcbs-temporal")
        fields = structured(capsys, "feasibility", "kcbs-temporal")
        assert fields["input"] == "kcbs-temporal"
        assert fields["feasible"] == "false"

    def test_unknown_name_names_both_readings(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["feasibility", "kcbs-nonesuch"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: 'kcbs-nonesuch' is neither a builder")
        assert "chained-N" in err and "nor a scenario file" in err

    def test_builder_file_is_scored_under_its_own_signs(self, capsys, tmp_path):
        path = tmp_path / "temporal-flipped.txt"
        save_scenario(ScenarioFile(CycleScenario(5, (-1,) * 5), builder="kcbs-temporal"), path)
        fields = structured(capsys, "feasibility", str(path))
        canonical = structured(capsys, "feasibility", "kcbs-temporal")
        assert fields["n"] == "5" and fields["signs"] == "-1 -1 -1 -1 -1"
        assert fields["correlators"] == canonical["correlators"]
        # Five correlators of -cos(pi/5) under all-minus signs: lhs 5 cos(pi/5),
        # and the all-minus parity gives the bound -5; nothing is violated.
        assert float(fields["lhs"]) == pytest.approx(5 * math.cos(math.pi / 5), abs=1e-12)
        assert fields["classical_bound"] == "-5"
        assert fields["violated"] == "false"
        # The verdict reads the marginals alone, which the signs do not touch.
        assert fields["feasible"] == canonical["feasible"] == "false"

    def test_builder_file_of_another_length_is_usage_error(self, capsys, tmp_path, monkeypatch):
        def refuse(name):
            raise AssertionError(f"built {name} for a file of another length")

        monkeypatch.setattr("qcycle.cli.build", refuse)
        path = tmp_path / "mismatch.txt"
        save_scenario(ScenarioFile(CycleScenario(7, (-1,) * 7), builder="kcbs-temporal"), path)
        code = main(["feasibility", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: scenario file has n = 7, but builder 'kcbs-temporal' has cycle length 5\n"

    @pytest.mark.parametrize(
        "key, values", [("singles", "0.5 0.5 0.5 0.5 0.5"), ("correlators", "-0.6 -0.6 -0.6 -0.6 -0.6")]
    )
    def test_builder_file_with_its_own_data_is_usage_error(self, capsys, tmp_path, monkeypatch, key, values):
        # The builder supplies both moments, so a file giving either would
        # have one of its two sources dropped.
        def refuse(name):
            raise AssertionError(f"built {name} for a file that conflicts with it")

        monkeypatch.setattr("qcycle.cli.build", refuse)
        path = tmp_path / "conflict.txt"
        path.write_text(f"n = 5\nsigns = +1 +1 +1 +1 +1\nbuilder = kcbs-temporal\n{key} = {values}\n")
        code = main(["feasibility", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (
            f"error: scenario file names builder 'kcbs-temporal', which gives its own {key}; "
            f"drop the {key!r} key\n"
        )

    def test_builder_file_past_the_cycle_cap_ends_in_exit_3(self, capsys, tmp_path, monkeypatch):
        def refuse(n):
            raise AssertionError(f"built a chained configuration of {n} nodes past the cap")

        monkeypatch.setattr("qcycle.quantum.chained_configuration", refuse)
        path = tmp_path / "huge.txt"
        path.write_text(f"n = 5\nsigns = +1 +1 +1 +1 +1\nbuilder = chained-{HUGE_DIGITS}\n")
        started = time.perf_counter()
        code, err = exit_code(("feasibility", str(path)))
        assert time.perf_counter() - started < 1.0
        assert code == 3
        assert err.startswith("resource limit: cycle capped") and "Traceback" not in err

    def test_name_too_long_for_a_path_is_usage_error(self):
        code, err = exit_code(("feasibility", "x" * 5000))
        assert code == 2
        assert "is neither a builder" in err and "Traceback" not in err

    def test_file_without_data_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bare.txt"
        save_scenario(ScenarioFile(canonical_scenario(5)), path)
        code, _ = run_cli(capsys, "feasibility", str(path))
        assert code == 2


class TestMalformedInput:
    def test_non_finite_correlator_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("n = 5\nsigns = +1 +1 +1 +1 +1\ncorrelators = nan -0.5 -0.5 -0.5 -0.5\n")
        code, _ = run_cli(capsys, "feasibility", str(path))
        assert code == 2

    def test_non_finite_single_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "nan-single.txt"
        path.write_text(
            "n = 5\nsigns = +1 +1 +1 +1 +1\ncorrelators = -0.5 -0.5 -0.5 -0.5 -0.5\n"
            "singles = nan 0 0 0 0\n"
        )
        code, _ = run_cli(capsys, "feasibility", str(path))
        assert code == 2

    def test_fractional_n_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "fractional.txt"
        path.write_text("n = 5.5\nsigns = +1 +1 +1 +1 +1\n")
        code, _ = run_cli(capsys, "bound", "--file", str(path))
        assert code == 2

    @pytest.mark.parametrize("argv", [("bound", "--file"), ("feasibility",)])
    def test_byte_order_mark_is_not_part_of_the_first_key(self, capsys, tmp_path, monkeypatch, argv):
        # An editor's UTF-8 BOM before "n = 5" used to read as the key "\ufeffn".
        text = "n = 5\nsigns = -1 -1 -1 -1 -1\ncorrelators = -0.6 -0.6 -0.6 -0.6 -0.6\n"
        bodies = []
        for folder, encoding in (("plain", "utf-8"), ("bom", "utf-8-sig")):
            (tmp_path / folder).mkdir()
            (tmp_path / folder / "scen.txt").write_text(text, encoding=encoding)
            monkeypatch.chdir(tmp_path / folder)
            code, out = run_cli(capsys, *argv, "scen.txt", "--format", "structured")
            assert code == 0, out
            bodies.append([line for line in out.splitlines() if not line.startswith("#")])
        assert (tmp_path / "bom" / "scen.txt").read_bytes().startswith(b"\xef\xbb\xbfn = 5")
        assert bodies[0] == bodies[1] and bodies[0]

    @pytest.mark.parametrize("argv", [("bound", "--file"), ("feasibility",)])
    def test_missing_file_is_usage_error(self, capsys, tmp_path, argv):
        code, _ = run_cli(capsys, *argv, str(tmp_path / "missing.txt"))
        assert code == 2

    @pytest.mark.parametrize("angle", ["inf", "-inf", "nan"])
    def test_non_finite_angle_is_usage_error(self, capsys, angle):
        try:
            code = main(["histories", "--angles", angle, "0", "0"])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        # "-inf" too is read as a value, not as an unknown option.
        assert captured.err.startswith("error: Bloch angles must be finite")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, option",
        [(("evaluate", "kcbs-temporal"), "--out"), (("feasibility", "kcbs-spatial"), "--witness")],
    )
    def test_unwritable_output_path_is_usage_error(self, capsys, tmp_path, argv, option):
        target = tmp_path / "no" / "such" / "dir" / "x.txt"
        code = main([*argv, option, str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: cannot write") and str(target) in captured.err
        assert not target.parent.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("bound", "--n", "3", "--signs", "1", "1", "x"),
            ("bound", "--n", "3", "--signs", "+1", "+1", "+1.0"),
            ("evaluate", "kcbs-temporal", "--seed", "-1"),
            ("scan", "--space", "temporal-times", "--param", "seed", "--min", "-1", "--max", "-1",
             "--starts", "2"),
        ],
        ids=["sign-word", "sign-float", "evaluate-seed", "scan-seed-range"],
    )
    def test_non_integer_sign_and_negative_seed_are_usage_errors(self, argv):
        code, err = exit_code(argv)
        assert code == 2
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "low, high, starts",
        [(0, 0, 10**12), (0, 10**6, 1), (0, 2**63 - 1, 64), (0, 255, 257)],
        ids=["huge-starts", "huge-seed-range", "seed-range-past-len", "just-over-the-cap"],
    )
    def test_start_runs_over_the_cap_end_in_exit_3(self, low, high, starts):
        # The cap is checked before the rng draws a single start: without
        # it, 10^12 starts died allocating 36 TiB with a traceback.
        started = time.perf_counter()
        code, err = exit_code(("scan", "--space", "temporal-times", "--param", "seed",
                               "--min", str(low), "--max", str(high), "--starts", str(starts)))
        assert time.perf_counter() - started < 1.0
        assert code == 3
        assert err.startswith("resource limit:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("evaluate", "kcbs-temporal"),
            ("bound", "--n", "5"),
            ("feasibility", "kcbs-temporal"),
            ("histories",),
            ("scan", "--builder", "chained", "--min", "3", "--max", "4"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_seed_option_is_a_usage_error(self, argv):
        # Seeds are read only as the --min/--max range of scan --param seed.
        code, err = exit_code((*argv, "--seed", "1"))
        assert code == 2
        assert "unrecognized arguments: --seed 1" in err and "Traceback" not in err

    def test_negative_signs_still_parse(self, capsys):
        fields = structured(capsys, "bound", "--n", "3", "--signs", "-1", "+1", "1")
        assert fields["signs"] == "-1 +1 +1"
        assert fields["classical_bound"] == "-3"


SIGN_TOKENS = ("1", "-1", "+1", "0", "2", "-2", "x", "+1.0", "1e0", "", "01", "1_0")
SEED_TOKENS = st.one_of(
    st.integers(-3, 2**70).map(str),
    st.sampled_from(("x", "1.5", "-0", "+3", "", "1e3", "-inf")),
)
SEARCH_SPACES = ("temporal-times", "bloch-angles", "contextual-cone")


@st.composite
def bound_argv(draw):
    # Mostly well-formed signs, and n mostly their count, so that some lists
    # reach the bound instead of all ending in a usage error.
    token = st.one_of(st.sampled_from(("1", "-1", "+1")), st.sampled_from(SIGN_TOKENS))
    signs = draw(st.lists(token, min_size=3, max_size=6))
    n = draw(st.one_of(st.just(len(signs)), st.integers(-2, 30)))
    return ["bound", "--n", str(n), "--signs", *signs]


@st.composite
def seed_argv(draw):
    """A subcommand with the removed --seed option, which must end in exit 2."""
    command = draw(st.sampled_from((["bound", "--n", "5"], ["evaluate", "kcbs-temporal"], ["histories"])))
    return [*command, "--seed", draw(SEED_TOKENS)]


# Mostly runnable start counts; the rest end in the start cap (exit 3) or a
# usage error (exit 2) before a start is drawn.
STARTS_TOKENS = st.one_of(
    st.integers(-1, 4).map(str),
    st.integers(SEARCH_START_CAP + 1, 2**70).map(str),
    st.sampled_from(("x", "1.5", "", "1e3", "-0")),
)


@st.composite
def scan_argv(draw):
    """A seed scan over at most two seeds with at most 4 starts, or a request
    that the start cap or the parser must refuse: a huge --starts or a seed
    range far wider than the cap."""
    low = draw(st.integers(-3, 3))
    high = low + draw(st.one_of(st.integers(-1, 1), st.integers(SEARCH_START_CAP, 2**70)))
    return ["scan", "--space", draw(st.sampled_from(SEARCH_SPACES)), "--param", "seed",
            "--min", str(low), "--max", str(high), "--starts", draw(STARTS_TOKENS)]


# Digits of a chained-N name: runnable lengths, some with leading zeros,
# lengths past the LP cap, past the cycle cap, past int()'s 4300 digits, none.
CHAINED_DIGITS = (
    st.integers(0, 60).map(str),
    st.tuples(st.integers(1, 4), st.integers(0, 12)).map(lambda z: "0" * z[0] + str(z[1])),
    st.integers(CYCLE_CAP + 1, 2**70).map(str),
    st.integers(4301, 5000).map(lambda k: "9" * k),
    st.just(""),
)


@st.composite
def builder_argv(draw):
    # A drawn kind of digits, so each kind appears in a run of 60 examples.
    digits = draw(draw(st.sampled_from(CHAINED_DIGITS)))
    return [draw(st.sampled_from(("evaluate", "feasibility"))), f"chained-{digits}"]


def first_max_past_the_cap(low: int) -> int:
    """The smallest --max whose chained scan from ``low`` sums past CYCLE_CAP nodes."""
    high, total = low, low
    while total <= CYCLE_CAP:
        high += 1
        total += high
    return high


@st.composite
def chained_scan_argv(draw):
    """A short chained scan, or one whose node total lies just or far past the cap."""
    low = draw(st.integers(-3, 12))
    high = draw(st.one_of(
        st.integers(low - 1, low + 2),
        st.integers(0, 3).map(lambda k: first_max_past_the_cap(low) + k),
        st.integers(2**20, 2**70),
    ))
    return ["scan", "--builder", "chained", "--param", "n", "--min", str(low), "--max", str(high)]


class TestArgvFuzz:
    @given(bound=bound_argv(), seed=seed_argv(), scan=scan_argv(), builder=builder_argv(),
           chained=chained_scan_argv())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_every_argv_ends_in_a_documented_exit(self, bound, seed, scan, builder, chained):
        for argv, exits in ((bound, (0, 2, 3)), (seed, (2,)), (scan, (0, 2, 3)), (builder, (0, 2, 3)),
                            (chained, (0, 2, 3))):
            code, err = exit_code(argv)
            assert code in exits, (argv, code, err)
            assert "Traceback" not in err


class TestHistories:
    def test_default_lg_configuration(self, capsys):
        fields = structured(capsys, "histories")
        assert abs(float(fields["lhs"]) - (-1.5)) < 1e-12
        assert fields["violated"] == "true"
        assert abs(float(fields["decomposition_value"]) - (-0.5)) < 1e-12
        probs = [float(fields[k]) for k in fields if k.startswith("p_")]
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)
        pairs = [k for k in fields if k.startswith("pair_")]
        assert len(pairs) == 8
        assert any("inconsistent" in fields[k] for k in pairs)

    @pytest.mark.parametrize("written", ["-1e-1", "-1E-1", "-.1e0"])
    def test_negative_angle_with_exponent(self, capsys, written):
        def body(*angles):
            code, out = run_cli(capsys, "histories", "--angles", *angles, "--format", "structured")
            assert code == 0
            return [line for line in out.splitlines() if not line.startswith("#")]

        assert body(written, "0", "-2.5e0") == body("-0.1", "0", "-2.5")

    def test_custom_angles_consistent_case(self, capsys):
        fields = structured(capsys, "histories", "--angles", "0.5", "0.5", "0.5")
        assert abs(float(fields["lhs"]) - 3.0) < 1e-12
        assert fields["violated"] == "false"
        for key in fields:
            if key.startswith("interference_"):
                assert abs(float(fields[key])) < 1e-12


class TestScan:
    def test_chained_csv(self, capsys):
        code, out = run_cli(
            capsys, "scan", "--builder", "chained", "--param", "n", "--min", "3", "--max", "8"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "parameter,lhs_value,classical_bound"
        assert len(lines) == 7
        n, lhs, bound = lines[1].split(",")
        assert n == "3" and bound == "-1"
        assert abs(float(lhs) - 3 * math.cos(2 * math.pi / 3)) < 1e-9

    def test_seed_scan(self, capsys):
        code, out = run_cli(
            capsys,
            "scan", "--space", "contextual-cone", "--param", "seed",
            "--min", "0", "--max", "1", "--starts", "16",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        for line in lines[1:]:
            _, value, bound = line.split(",")
            assert abs(float(value) - (5 - 4 * math.sqrt(5))) < 1e-6
            assert bound == "-3"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, _ = run_cli(
            capsys,
            "scan", "--builder", "chained", "--param", "n",
            "--min", "3", "--max", "5", "--out", str(target),
        )
        assert code == 0
        assert target.read_text().startswith("parameter,lhs_value,classical_bound")

    def test_chained_cap_checked_before_building(self, capsys, monkeypatch):
        # 3 + 4 + ... + 140 = 9867 nodes fit under the cap; adding 141 does not.
        code, out = run_cli(capsys, "scan", "--builder", "chained", "--min", "3", "--max", "140")
        assert code == 0
        assert len(out.splitlines()) == 1 + 138

        def refuse(name):
            raise AssertionError(f"built {name} before checking the cycle cap")

        monkeypatch.setattr("qcycle.quantum.build", refuse)
        monkeypatch.setattr("qcycle.search.build", refuse)
        started = time.perf_counter()
        code = main(["scan", "--builder", "chained", "--min", "3", "--max", "141"])
        assert time.perf_counter() - started < 1.0
        assert code == 3
        assert capsys.readouterr().err == f"resource limit: cycle capped at {CYCLE_CAP} nodes, got 10008\n"

    def test_bad_param_is_usage_error(self, capsys):
        code, _ = run_cli(
            capsys, "scan", "--builder", "chained", "--param", "q", "--min", "1", "--max", "2"
        )
        assert code == 2


class TestReportDeterminism:
    def test_structured_body_is_byte_identical(self, capsys):
        _, first = run_cli(capsys, "evaluate", "kcbs-spatial", "--format", "structured")
        _, second = run_cli(capsys, "evaluate", "kcbs-spatial", "--format", "structured")

        def body(text):
            return "\n".join(l for l in text.splitlines() if not l.startswith("#"))

        assert body(first) == body(second)
        assert body(first) != ""

    def test_consecutive_calls_share_no_state(self, capsys, tmp_path):
        # The parser is built once per process; options of one call must not
        # carry over into the next.
        target = tmp_path / "report.txt"
        code, out = run_cli(capsys, "evaluate", "kcbs-temporal", "--out", str(target))
        assert code == 0 and out == "" and target.exists()
        target.unlink()
        code, out = run_cli(capsys, "evaluate", "kcbs-temporal")
        assert code == 0 and "lhs" in out
        assert not target.exists()
        custom = structured(capsys, "histories", "--angles", "0.1", "0.2", "0.3")
        default = structured(capsys, "histories")
        assert custom["bloch_angles"].split()[0] == "0.1"
        assert float(default["bloch_angles"].split()[0]) == 0.0

    def test_out_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("QCYCLE_OUT_DIR", str(tmp_path))
        code, _ = run_cli(
            capsys, "evaluate", "kcbs-temporal", "--format", "structured", "--out", "report.txt"
        )
        assert code == 0
        assert (tmp_path / "report.txt").exists()


class TestSubprocessEntry:
    def test_module_invocation_and_version(self):
        out = subprocess.run(
            [sys.executable, "-m", "qcycle", "--version"],
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.startswith("qcycle ")

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qcycle", "evaluate", "nope"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "unknown builder" in proc.stderr

    def test_selftest_is_a_usage_error(self):
        # The invariant battery lives in the test suite, not in the program.
        proc = subprocess.run(
            [sys.executable, "-m", "qcycle", "selftest"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "invalid choice: 'selftest'" in proc.stderr and "Traceback" not in proc.stderr
