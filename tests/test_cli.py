import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import click
import numpy as np
import pytest
import yaml
from click.testing import CliRunner

import intervalhinf
from conftest import perfbench_population
from intervalhinf import cli, errors
from intervalhinf.cli import _guard, fmt, format_polynomial, load_problem, main, report_to_dict
from intervalhinf.errors import ProblemFileError
from intervalhinf.theorem import AnalysisOptions, analyze

REPO = Path(__file__).resolve().parent.parent
PROBLEMS = REPO / "problems"
GOLDEN_DIR = REPO / "tests" / "golden"

GOLDEN = math.sqrt((3 + 2 * math.sqrt(3)) / 3)


def run(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestProblemFiles:
    def test_shipped_files_parse(self):
        for name in ("point_plant.yaml", "widened_family.yaml", "unstable_family.yaml"):
            prob = load_problem(str(PROBLEMS / name))
            assert prob.kf.degree > prob.kg.degree

    def test_libyaml_and_safe_loader_give_the_same_problems(self, tmp_path, monkeypatch):
        # the shipped files and benchmark-style files of every analyze-families shape
        population = perfbench_population()
        paths = sorted(PROBLEMS.glob("*.yaml"))
        for k, fam in enumerate(population.analyze_families(4111, 8)):
            paths.append(write(tmp_path, f"family{k}.yaml", population.family_yaml(fam, k, 50)))
        if yaml.__with_libyaml__:
            assert cli._FAST_LOADER is yaml.CSafeLoader
        fast = [load_problem(str(path)) for path in paths]
        monkeypatch.setattr(cli, "_FAST_LOADER", yaml.SafeLoader)
        assert [load_problem(str(path)) for path in paths] == fast

    def test_crossed_bounds_reported_with_field_path(self, tmp_path):
        path = write(tmp_path, "bad.yaml",
                     "numerator:\n  - [1, 1]\ndenominator:\n  - [2, 1]\n  - [1, 1]\n")
        with pytest.raises(ProblemFileError, match=r"denominator\[0\]"):
            load_problem(str(path))

    def test_missing_key(self, tmp_path):
        path = write(tmp_path, "bad.yaml", "denominator:\n  - [1, 1]\n  - [1, 1]\n")
        with pytest.raises(ProblemFileError, match="numerator"):
            load_problem(str(path))

    def test_unknown_option(self, tmp_path):
        for option, message in (("wat: 3", "options.wat"),
                                ("hurwitz_tol: -3", "options.hurwitz_tol: unknown option")):
            path = write(tmp_path, "bad.yaml",
                         "numerator:\n  - [1, 1]\ndenominator:\n  - [1, 1]\n  - [1, 1]\n"
                         f"options:\n  {option}\n")
            with pytest.raises(ProblemFileError, match=message):
                load_problem(str(path))

    def test_degree_order(self, tmp_path):
        path = write(tmp_path, "bad.yaml",
                     "numerator:\n  - [1, 1]\n  - [1, 1]\ndenominator:\n  - [1, 1]\n  - [1, 1]\n")
        with pytest.raises(ProblemFileError, match="strictly below"):
            load_problem(str(path))

    def test_nonpositive_leading(self, tmp_path):
        path = write(tmp_path, "bad.yaml",
                     "numerator:\n  - [1, 1]\ndenominator:\n  - [1, 1]\n  - [0, 1]\n")
        with pytest.raises(ProblemFileError, match="leading"):
            load_problem(str(path))

    def test_options_must_be_a_mapping(self, tmp_path):
        # only null means "no options"; an empty or false value of another type is rejected
        box = "numerator:\n  - [1, 1]\ndenominator:\n  - [1, 1]\n  - [1, 1]\n"
        for value in ("[1]", "[]", "false", "0", '""'):
            path = write(tmp_path, "bad.yaml", f"{box}options: {value}\n")
            with pytest.raises(ProblemFileError, match="^options: expected a mapping$"):
                load_problem(str(path))
        for value in ("", "null", "{}"):
            path = write(tmp_path, "ok.yaml", f"{box}options: {value}\n")
            assert load_problem(str(path)).options == AnalysisOptions()

    def test_options_are_applied(self, tmp_path):
        path = write(tmp_path, "ok.yaml",
                     "numerator:\n  - [1, 1]\ndenominator:\n  - [1, 1]\n  - [1, 1]\n"
                     "options:\n  seed: 9\n  oracle_samples: 11\n")
        prob = load_problem(str(path))
        assert prob.options.seed == 9
        assert prob.options.oracle_samples == 11
        # counts are taken whole or rejected with the field named, never truncated;
        # out-of-range values are rejected at load, before any work runs
        for option in ("theta_points: 720.9", "seed: 2.5", "oracle_samples: true",
                       "oracle_samples: -5", "grid_points: 1.5", "theta_points: 0",
                       "grid_points: 1", "omega_max: .inf", "omega_max: .nan",
                       "omega_max: 0", "omega_max: -2.5", "omega_max: true",
                       'omega_max: "1e3"', f"omega_max: {10 ** 400}"):
            path = write(tmp_path, "bad.yaml",
                         "numerator:\n  - [1, 1]\ndenominator:\n  - [1, 1]\n  - [1, 1]\n"
                         f"options:\n  {option}\n")
            field = option.split(":")[0]
            with pytest.raises(ProblemFileError, match=f"options.{field}: expected"):
                load_problem(str(path))


FAMILIES = "numerator:\n  - [1, 1]\ndenominator:\n  - [1, 1]\n"


class TestInputErrors:
    # (command and flags, problem file text, the one stderr message); FILE in the flags
    # stands for the problem file, and {path} in the message for its path
    CASES = {
        "bounds not a list": (("vertices", "FILE"), "numerator:\n  - [1, 1]\ndenominator: 3\n",
                              "denominator: expected a non-empty list of [lower, upper] pairs"),
        "empty bounds": (("vertices", "FILE"), "numerator: []\ndenominator:\n  - [1, 1]\n",
                         "numerator: expected a non-empty list of [lower, upper] pairs"),
        "entry not a pair": (("vertices", "FILE"), FAMILIES + "  - [1, 2, 3]\n",
                             "denominator[1]: expected a [lower, upper] pair"),
        "non-numeric bound": (("vertices", "FILE"), FAMILIES + "  - [one, 2]\n",
                              "denominator[1]: bounds must be numbers"),
        "infinite bound": (("vertices", "FILE"), FAMILIES + "  - [1, .inf]\n",
                           "denominator[1]: bounds must be finite"),
        "400-digit bound": (("vertices", "FILE"), FAMILIES + f"  - [1, 1{'0' * 400}]\n",
                            "denominator[1]: bounds must be finite"),
        "invalid YAML": (("vertices", "FILE"), "numerator: [1, 2\n",
                         "{path}: invalid YAML: while parsing a flow sequence\n"
                         '  in "{path}", line 1, column 12\n'
                         "expected ',' or ']', but got '<stream end>'\n"
                         '  in "{path}", line 2, column 1'),
        "top level not a mapping": (("vertices", "FILE"), "- 1\n",
                                    "{path}: top level must be a mapping"),
        "unknown top-level key": (("vertices", "FILE"), FAMILIES + "  - [1, 1]\nsolver: qr\n",
                                  "{path}: unknown keys ['solver']"),
        "non-numeric --num": (("norm", "--num", "a,b", "--den", "1,1"), None,
                              "--num: expected comma-separated numbers"),
        "file and --num": (("norm", "FILE", "--num", "1"), FAMILIES + "  - [1, 1]\n",
                           "give either a problem file or --num/--den, not both"),
        "--num alone": (("norm", "--num", "1"), None,
                        "norm needs a problem file or both --num and --den"),
        "--sweep without POINTS": (("valueset", "FILE", "--delta", "0.5", "--sweep", "5"),
                                   FAMILIES + "  - [1, 1]\n",
                                   "--sweep: expected MAX:POINTS, e.g. 100:500"),
        # the CLI only parses --sweep; the sweep checks MAX and POINTS at its call
        "--sweep of one point": (("valueset", "FILE", "--delta", "0.5", "--sweep", "10:1"),
                                 FAMILIES + "  - [1, 1]\n", "points: expected an integer >= 2"),
        **{f"--sweep MAX {spec}": (("valueset", "FILE", "--delta", "0.5", "--sweep", spec),
                                   FAMILIES + "  - [1, 1]\n",
                                   "omega_max: expected a finite float > 0")
           for spec in ("nan:10", "inf:10", "0:10")},
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exit_2_with_one_error_message(self, tmp_path, case):
        args, text, message = self.CASES[case]
        path = write(tmp_path, "problem.yaml", text or "")
        res = run(*(path if arg == "FILE" else arg for arg in args))
        assert res.exit_code == 2
        assert res.stderr == f"error: {message.format(path=path)}\n"
        assert res.stdout == ""


class TestVertices:
    def test_point_file_lists_identical_vertices(self):
        res = run("vertices", PROBLEMS / "point_plant.yaml")
        assert res.exit_code == 0
        assert res.output.count("1 + s + s^2") == 0  # denominator has no constant term
        assert res.output.count("s + s^2") == 4

    def test_degree_two_box(self, tmp_path):
        path = write(tmp_path, "box.yaml",
                     "numerator:\n  - [1, 1]\ndenominator:\n"
                     "  - [1, 2]\n  - [3, 4]\n  - [5, 6]\n")
        res = run("vertices", path)
        assert res.exit_code == 0
        assert "f11: 1 + 3 s + 6 s^2" in res.output
        assert "f12: 1 + 4 s + 6 s^2" in res.output
        assert "f21: 2 + 3 s + 5 s^2" in res.output
        assert "f22: 2 + 4 s + 5 s^2" in res.output

    def test_machine_format(self, tmp_path):
        path = write(tmp_path, "box.yaml",
                     "numerator:\n  - [1, 1]\ndenominator:\n"
                     "  - [1, 2]\n  - [3, 4]\n  - [5, 6]\n")
        res = run("vertices", path, "--format", "machine")
        doc = json.loads(res.output)
        assert doc["denominator"]["11"] == [1.0, 3.0, 6.0]
        assert doc["numerator"]["22"] == [1.0]

    def test_malformed_bounds_exit_2(self, tmp_path):
        path = write(tmp_path, "bad.yaml",
                     "numerator:\n  - [1, 1]\ndenominator:\n  - [2, 1]\n  - [1, 1]\n")
        res = run("vertices", path)
        assert res.exit_code == 2
        assert "denominator[0]" in res.output


class TestAnalyze:
    def test_worked_example_reports_golden(self):
        res = run("analyze", PROBLEMS / "point_plant.yaml")
        assert res.exit_code == 0
        reported = float(res.output.split("worst-case sensitivity norm: ")[1].split("\n")[0])
        assert reported == pytest.approx(GOLDEN, abs=1e-6)

    def test_unstable_family_exits_3(self):
        res = run("analyze", PROBLEMS / "unstable_family.yaml")
        assert res.exit_code == 3
        assert "UNSTABLE" in res.output
        assert "worst-case" not in res.output

    def test_seed_determinism(self):
        a = run("analyze", PROBLEMS / "point_plant.yaml", "--seed", "42")
        b = run("analyze", PROBLEMS / "point_plant.yaml", "--seed", "42")
        assert a.output == b.output

    def test_output_round_trips(self, tmp_path):
        out = tmp_path / "report.json"
        res = run("analyze", PROBLEMS / "point_plant.yaml", "--output", out)
        assert res.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["worst_norm"] == pytest.approx(GOLDEN, rel=1e-9)
        assert doc["argmax_tuple"] == "1111"
        # machine stdout equals the written document
        res2 = run("analyze", PROBLEMS / "point_plant.yaml", "--format", "machine")
        assert json.loads(res2.output) == doc

    def test_tolerance_below_float_spacing_ends(self):
        # the bracket stops at adjacent floats instead of bisecting forever
        res = run("analyze", PROBLEMS / "point_plant.yaml", "--tol", "1e-300",
                  "--theta-points", "36")
        assert res.exit_code == 0, res.output

    def test_numpy_seed_serialises(self):
        prob = replace(load_problem(str(PROBLEMS / "point_plant.yaml")), options=AnalysisOptions(
            seed=np.int64(5), oracle_samples=10, theta_points=36))
        doc = json.loads(json.dumps(report_to_dict(analyze(prob))))
        assert doc["seed"] == doc["oracle"]["seed"] == 5

    def test_numerical_failure_exits_4(self, tmp_path):
        # near-instability: the bisection cannot bracket the family norm
        path = write(tmp_path, "resonant.yaml",
                     "numerator:\n  - [1, 1]\ndenominator:\n"
                     "  - [1, 1]\n  - [1.0e-10, 1.0e-10]\n  - [1, 1]\n"
                     "options:\n  oracle_samples: 0\n")
        res = run("analyze", path, "--theta-points", "36")
        assert res.exit_code == 4


class TestNorm:
    def test_direct_rational_function(self):
        res = run("norm", "--num", "0,1,1", "--den", "1,1,1")
        assert res.exit_code == 0
        value = float(res.output.split("exact: ")[1].split()[0])
        assert value == pytest.approx(GOLDEN, abs=1e-6)
        omega = float(res.output.split("omega ")[1].split("\n")[0])
        assert omega == pytest.approx(math.sqrt((1 + math.sqrt(3)) / 2), abs=1e-5)

    def test_identity(self):
        res = run("norm", "--num", "1,1", "--den", "1,1")
        assert "exact: 1 " in res.output

    def test_attained_at_infinity(self):
        res = run("norm", "--num", "1,1", "--den", "2,1")
        assert "attained at infinity" in res.output

    def test_point_file_builds_sensitivity(self):
        res = run("norm", PROBLEMS / "point_plant.yaml")
        assert res.exit_code == 0
        value = float(res.output.split("exact: ")[1].split()[0])
        assert value == pytest.approx(GOLDEN, abs=1e-6)

    def test_interval_file_rejected(self):
        res = run("norm", PROBLEMS / "widened_family.yaml")
        assert res.exit_code == 2

    def test_constant_ratio(self):
        res = run("norm", "--num", "1", "--den", "2")
        assert res.exit_code == 0
        assert res.output.startswith("exact: 0.5  attained near omega 0\n")

    def test_unstable_loop_exits_3(self):
        res = run("norm", "--num", "1", "--den", "-1,1")
        assert res.exit_code == 3

    def test_zero_denominator_exits_2(self):
        for num in ("0", "1", "0,0"):
            res = run("norm", "--num", num, "--den", "0,0")
            assert res.exit_code == 2
            assert res.output == "error: rational function needs a nonzero denominator\n"

    def test_overflowing_magnitudes_give_the_true_norm(self):
        # |num(j w)|^2 and |den(j w)|^2 overflow unless the rows are scaled first; 1e200 /
        # (1e200 + 2s) peaks at 1 at omega = 0
        res = run("norm", "--num", "1e200", "--den", "1e200,2")
        assert res.exit_code == 0
        assert res.output.startswith("exact: 1  attained near omega 0\n")

    def test_point_file_matches_golden(self):
        # pins the exact line and the grid line of the worked plant
        res = run("norm", PROBLEMS / "point_plant.yaml")
        assert res.exit_code == 0
        assert res.output == (GOLDEN_DIR / "point_plant.norm.txt").read_text(encoding="utf-8")


class TestValueset:
    def test_point_family_single_vertex_rows(self):
        res = run("valueset", PROBLEMS / "point_plant.yaml",
                  "--delta", "0.5", "--theta", "1.0", "--omega", "1.0")
        assert res.exit_code == 0
        lines = res.output.strip().split("\n")
        assert lines[0] == "omega,vertex_index,re,im,provenance"
        assert len(lines) == 2

    def test_sweep_appends_margin_column(self):
        res = run("valueset", PROBLEMS / "point_plant.yaml",
                  "--delta", "0.5", "--theta", "0.7", "--sweep", "10:5")
        lines = res.output.strip().split("\n")
        assert lines[0] == "omega,vertex_index,re,im,provenance,margin"

    def test_theta_zero_rectangle(self):
        res = run("valueset", PROBLEMS / "widened_family.yaml",
                  "--delta", "0.5", "--theta", "0.0", "--omega", "1.3")
        rows = res.output.strip().split("\n")[1:]
        assert 1 <= len(rows) <= 4

    def test_sweep_row_count(self):
        res = run("valueset", PROBLEMS / "point_plant.yaml",
                  "--delta", "0.5", "--theta", "0.7", "--sweep", "10:25")
        rows = res.output.strip().split("\n")[1:]
        assert len(rows) == 25  # point family: one vertex per frequency
        assert all(row.count(",") == 5 for row in rows)

    def test_delta_out_of_range_exits_2(self):
        res = run("valueset", PROBLEMS / "point_plant.yaml",
                  "--delta", "1.5", "--omega", "1.0")
        assert res.exit_code == 2

    def test_non_finite_inputs_exit_2(self):
        for flags in (("--omega", "nan"), ("--omega", "inf"), ("--theta", "nan", "--omega", "1"),
                      ("--sweep", "nan:10"), ("--sweep", "inf:10"),
                      ("--theta", "inf", "--sweep", "10:10")):
            res = run("valueset", PROBLEMS / "widened_family.yaml", "--delta", "0.5", *flags)
            assert res.exit_code == 2, flags
            assert "finite" in res.output
            assert "omega,vertex_index" not in res.output  # no CSV rows before the error

    def test_overflowing_vertex_values_exit_4(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for flags in (("--omega", "1e200"), ("--sweep", "1e200:5")):
                res = run("valueset", PROBLEMS / "widened_family.yaml",
                          "--delta", "0.5", "--theta", "0.9", *flags)
                assert res.exit_code == 4, flags
                assert res.stderr.startswith("numerical failure: vertex values at omega=")
                assert res.stderr.endswith(" are not finite\n")
                assert "omega,vertex_index" not in res.output

    def test_needs_omega_or_sweep(self):
        for flags in ((), ("--omega", "3", "--sweep", "10:2")):
            res = run("valueset", PROBLEMS / "point_plant.yaml", "--delta", "0.5", *flags)
            assert res.exit_code == 2, flags
            assert res.output == "error: valueset needs exactly one of --omega and --sweep\n"


class TestOracle:
    def test_vertex_injection_keeps_delta_nonnegative(self):
        res = run("oracle", PROBLEMS / "point_plant.yaml", "--samples", "50")
        assert res.exit_code == 0
        delta = float(res.output.split("delta ")[1].split(")")[0])
        assert delta >= -1e-12

    def test_zero_samples(self):
        res = run("oracle", PROBLEMS / "point_plant.yaml", "--samples", "0")
        assert res.exit_code == 0
        assert "samples: 0" in res.output
        for command, flag, value in (("oracle", "--samples", "-5"),
                                     ("analyze", "--samples", "-5"),
                                     ("analyze", "--theta-points", "0"),
                                     ("analyze", "--tol", "nan"),
                                     ("analyze", "--tol", "inf"),
                                     ("analyze", "--tol", "0")):
            res = run(command, PROBLEMS / "point_plant.yaml", flag, value)
            assert res.exit_code == 2
            assert flag in res.output

    def test_seed_reproducibility(self):
        a = run("oracle", PROBLEMS / "widened_family.yaml", "--samples", "100", "--seed", "5")
        b = run("oracle", PROBLEMS / "widened_family.yaml", "--samples", "100", "--seed", "5")
        assert a.output == b.output


class TestGoldens:
    # command and flags per golden kind; the files are named <problem>.<kind>.txt
    CASES = {
        "vertices": ("vertices", "--format", "machine"),
        "oracle": ("oracle", "--samples", "300", "--seed", "42"),
        "valueset": ("valueset", "--delta", "0.5", "--theta", "0.7", "--sweep", "30:400"),
        # every float of the report to its last bit; the text goldens round to 9 digits
        "analyze-machine": ("analyze", "--seed", "42", "--format", "machine"),
    }

    def test_outputs_match_goldens(self):
        for name in ("widened_family", "point_plant"):
            for kind, (command, *flags) in self.CASES.items():
                res = run(command, PROBLEMS / f"{name}.yaml", *flags)
                assert res.exit_code == 0
                golden = (GOLDEN_DIR / f"{name}.{kind}.txt").read_text(encoding="utf-8")
                assert res.output == golden, f"{name}.{kind}"


class TestDigits:
    # one valid invocation per command; --digits is appended
    COMMANDS = (
        ("vertices", PROBLEMS / "widened_family.yaml"),
        ("analyze", PROBLEMS / "point_plant.yaml", "--samples", "0", "--theta-points", "36"),
        ("norm", "--num", "0,1,1", "--den", "1,1,1"),
        ("valueset", PROBLEMS / "point_plant.yaml", "--delta", "0.5", "--omega", "1"),
        ("oracle", PROBLEMS / "point_plant.yaml", "--samples", "0"),
    )

    def test_below_one_exits_2_before_any_output(self):
        for args in self.COMMANDS:
            assert run(*args, "--digits", "1").exit_code == 0, args[0]
            for digits in ("0", "-1"):
                res = run(*args, "--digits", digits)
                assert res.exit_code == 2, (args[0], digits)
                assert "--digits" in res.stderr
                assert res.stdout == ""


class TestExitCodes:
    # README's table: input errors exit 2, instability 3, numerical failures 4
    EXPECTED = {
        errors.DegreeOrderError: (2, "error"),
        errors.DeltaRangeError: (2, "error"),
        errors.ProblemFileError: (2, "error"),
        ValueError: (2, "error"),
        errors.UnstableClosedLoopError: (3, "unstable"),
        errors.UnstableDenominatorError: (3, "unstable"),
        errors.UnstableFamilyError: (3, "unstable"),
        errors.DegenerateLeadingError: (4, "numerical failure"),
        errors.HullMismatchError: (4, "numerical failure"),
        errors.NoConvergenceError: (4, "numerical failure"),
        errors.NoUpperBracketError: (4, "numerical failure"),
        errors.ZeroPolynomialError: (4, "numerical failure"),
    }

    def test_each_error_class_maps_to_its_code_and_prefix(self):
        assert set(errors.IntervalHinfError.__subclasses__()) == set(self.EXPECTED) - {ValueError}
        for cls, (code, prefix) in self.EXPECTED.items():
            @click.command()
            @_guard
            def failing():
                raise cls("what went wrong")

            res = CliRunner().invoke(failing, [])
            assert res.exit_code == code, cls.__name__
            assert res.stderr == f"{prefix}: what went wrong\n", cls.__name__
            assert res.stdout == ""


class TestReadme:
    def test_root_exports_the_analysis_api(self):
        assert sorted(intervalhinf.__all__) == ["AnalysisOptions", "AnalysisProblem",
                                                "AnalysisReport", "IntervalPolynomial",
                                                "__version__", "analyze"]

    def test_library_use_example_runs(self, capsys):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        example = readme.split("## Library use")[1].split("```python\n")[1].split("```")[0]
        exec(example, {})
        report = analyze(load_problem(str(PROBLEMS / "widened_family.yaml")))
        assert capsys.readouterr().out == f"{report.worst_norm} {report.argmax_tuple.label}\n"


class TestFormatting:
    def test_fmt_digits(self):
        assert fmt(math.pi, 9) == "3.14159265"
        for digits in range(1, 18):
            assert [fmt(x, digits) for x in (math.inf, -math.inf, math.nan, -0.0)] == [
                "inf", "-inf", "nan", "-0"]

    def test_format_polynomial(self):
        assert format_polynomial((1.0, -2.0, 0.0, 3.5)) == "1 - 2 s + 3.5 s^3"
        assert format_polynomial((0.0,)) == "0"
        assert format_polynomial((-1.0, 1.0)) == "-1 + s" or \
            format_polynomial((-1.0, 1.0)) == "-1 + 1 s"
