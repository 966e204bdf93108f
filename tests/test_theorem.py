import math

import numpy as np
import pytest

from conftest import fail_on_row, random_stable_family
from intervalhinf import hinf, interval, stability, theorem
from intervalhinf.errors import (NoConvergenceError, TheoremPreconditionGapError,
                                 UnstableDenominatorError, UnstableFamilyError)
from intervalhinf.hinf import check_gamma_equivalence
from intervalhinf.interval import IntervalPolynomial, sample_many, vertex_rows
from intervalhinf.poly import RealPolynomial
from intervalhinf.stability import roots_batch
from intervalhinf.theorem import (
    AnalysisOptions,
    AnalysisProblem,
    analyze,
    closed_loop_family_stable,
    max_sensitivity_sixteen,
    max_sensitivity_twelve,
    monte_carlo_oracle,
)
from intervalhinf.valueset import TWELVE_TUPLES

GOLDEN = math.sqrt((3 + 2 * math.sqrt(3)) / 3)

CANONICAL_ORDER = ["1111", "1212", "2222", "2121", "1112", "1222",
               "2221", "2111", "1211", "2212", "2122", "1121"]


def point_problem(**opts):
    return AnalysisProblem(
        kg=IntervalPolynomial([1], [1]),
        kf=IntervalPolynomial([0, 1, 1], [0, 1, 1]),
        options=AnalysisOptions(**opts),
    )


def family_problem(kg, kf, **opts):
    return AnalysisProblem(kg=kg, kf=kf, options=AnalysisOptions(**opts))


class TestAnalysisOptions:
    @pytest.mark.parametrize("field, value, what", [
        ("seed", True, "a non-negative integer"),
        ("seed", -1, "a non-negative integer"),
        ("seed", "5", "a non-negative integer"),
        ("oracle_samples", -1, "a non-negative integer"),
        ("oracle_samples", 2.5, "a non-negative integer"),
        ("theta_points", 0, "an integer >= 1"),
        ("theta_points", np.bool_(True), "an integer >= 1"),
        ("grid_points", 1, "an integer >= 2"),
        ("grid_points", math.inf, "an integer >= 2"),
        ("bisection_tol", 0.0, "a finite float > 0"),
        ("bisection_tol", math.nan, "a finite float > 0"),
        ("omega_max", True, "a finite float > 0"),
        ("omega_max", "1e3", "a finite float > 0"),
        ("omega_max", -math.inf, "a finite float > 0"),
        ("omega_max", 10 ** 400, "a finite float > 0"),
    ])
    def test_bad_values_raise_at_construction(self, field, value, what):
        with pytest.raises(ValueError, match=f"^{field}: expected {what}$"):
            AnalysisOptions(**{field: value})

    def test_values_are_normalised(self):
        options = AnalysisOptions(theta_points=720.0, seed=np.int64(5), oracle_samples=np.uint8(3),
                                  omega_max=np.float64(50), bisection_tol=1)
        assert [(type(v), v) for v in (options.theta_points, options.seed,
                                       options.oracle_samples)] == [(int, 720), (int, 5), (int, 3)]
        assert [(type(v), v) for v in (options.omega_max, options.bisection_tol)] == [
            (float, 50.0), (float, 1.0)]


class TestTwelveTuples:
    def test_canonical_listing(self):
        assert [t.label for t in TWELVE_TUPLES] == CANONICAL_ORDER

    def test_distinct_and_complement(self):
        tuples = TWELVE_TUPLES
        assert len(set(tuples)) == 12
        all_labels = {f"{i}{j}{k}{l}" for i in "12" for j in "12" for k in "12" for l in "12"}
        assert all_labels - {t.label for t in tuples} == {"1122", "2211", "1221", "2112"}


class TestClosedLoopFamilyStable:
    def test_point_stable(self):
        assert closed_loop_family_stable(point_problem())

    def test_point_unstable(self):
        prob = AnalysisProblem(
            kg=IntervalPolynomial([1], [1]),
            kf=IntervalPolynomial([0, -1, 1], [0, -1, 1]),
        )
        assert not closed_loop_family_stable(prob)

    def test_random_families_verify_the_vertex_identity(self):
        # the identity assertion inside the call must never fire
        rng = np.random.default_rng(83)
        for _ in range(100):
            kg, kf = random_stable_family(rng, n_min=2, n_max=5, margin=1e-3)
            assert closed_loop_family_stable(family_problem(kg, kf))


class TestMaxSensitivityTwelve:
    def test_point_family_recovers_golden(self):
        report = max_sensitivity_twelve(point_problem())
        assert report.worst_norm == pytest.approx(GOLDEN, rel=1e-9)
        assert report.argmax_tuple.label == "1111"  # ties resolve to list order
        assert len(report.per_tuple_norms) == 12
        for value in report.per_tuple_norms.values():
            assert value == pytest.approx(GOLDEN, rel=1e-9)

    def test_worst_dominates_every_tuple(self):
        rng = np.random.default_rng(89)
        kg, kf = random_stable_family(rng)
        report = max_sensitivity_twelve(family_problem(kg, kf))
        assert all(report.worst_norm >= v for v in report.per_tuple_norms.values())

    def test_unstable_family_raises(self):
        prob = AnalysisProblem(
            kg=IntervalPolynomial([1], [1]),
            kf=IntervalPolynomial([0, -1, 1], [0, -1, 1]),
        )
        with pytest.raises(UnstableFamilyError):
            max_sensitivity_twelve(prob)

    def test_constant_term_widened_family(self):
        # width only in the denominator constant term
        prob = AnalysisProblem(
            kg=IntervalPolynomial([1], [1]),
            kf=IntervalPolynomial([1.0, 1, 1], [1.2, 1, 1]),
        )
        report = max_sensitivity_twelve(prob)
        sixteen = max_sensitivity_sixteen(prob)
        assert report.worst_norm == pytest.approx(sixteen, rel=1e-9)
        assert report.worst_norm >= 1.0


class TestMaxSensitivitySixteen:
    def test_point_families_match_any_tuple(self):
        prob = point_problem()
        assert max_sensitivity_sixteen(prob) == pytest.approx(GOLDEN, rel=1e-9)

    def test_never_below_twelve(self):
        rng = np.random.default_rng(97)
        for _ in range(5):
            kg, kf = random_stable_family(rng)
            prob = family_problem(kg, kf)
            twelve = max_sensitivity_twelve(prob).worst_norm
            assert max_sensitivity_sixteen(prob) >= twelve - 1e-15


class TestMonteCarloOracle:
    def test_vertex_injection_reaches_the_maximum(self):
        prob = point_problem(seed=42, oracle_samples=50)
        report = max_sensitivity_twelve(prob)
        oracle = monte_carlo_oracle(prob)
        assert oracle.oracle_max >= report.worst_norm - 1e-12
        assert oracle.oracle_max <= report.worst_norm * (1 + 1e-6)

    def test_zero_samples_keeps_probes(self):
        prob = point_problem(seed=1, oracle_samples=0)
        oracle = monte_carlo_oracle(prob)
        assert oracle.samples == 0
        assert oracle.oracle_max == pytest.approx(GOLDEN, rel=1e-9)

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(101)
        kg, kf = random_stable_family(rng)
        prob = family_problem(kg, kf, seed=7, oracle_samples=300)
        assert monte_carlo_oracle(prob) == monte_carlo_oracle(prob)

    def test_dominance_on_random_family(self):
        rng = np.random.default_rng(103)
        kg, kf = random_stable_family(rng)
        prob = family_problem(kg, kf, seed=11, oracle_samples=500)
        worst = max_sensitivity_twelve(prob).worst_norm
        oracle = monte_carlo_oracle(prob)
        assert oracle.oracle_max <= worst * (1 + 1e-9)
        assert oracle.oracle_max >= worst - 1e-12


def widened_problem(**opts):
    kg = IntervalPolynomial([0.4, 0.1], [0.6, 0.2])
    kf = IntervalPolynomial([0.9, 2.7, 3.4, 2.0, 1.0], [1.1, 3.3, 4.0, 2.4, 1.0])
    return family_problem(kg, kf, **opts)


def unstable_den_at(row, batch):
    """hinf_norm_batch (or its _norm_arrays core) with the denominator of one row made
    non-Hurwitz."""
    def wrapper(nums, dens):
        dens = np.array(dens)
        dens[row, 0] = -1.0
        return batch(nums, dens)
    return wrapper


class TestOracleBatching:
    def test_norms_share_a_few_kernel_calls(self, monkeypatch):
        # 65 probes and 500 draws: one margin batch plus one call per
        # stationarity length, not one per sample
        calls = []

        def counted(coeffs, **kwargs):
            calls.append(len(coeffs))
            return roots_batch(coeffs, **kwargs)

        monkeypatch.setattr(stability, "roots_batch", counted)
        oracle = monte_carlo_oracle(widened_problem(seed=42, oracle_samples=500))
        assert oracle.samples == 500 and oracle.skipped == 0
        assert len(calls) < 10

    @pytest.mark.parametrize("row, where", [(3, "oracle probe 3"), (70, "oracle draw 5")])
    def test_failure_names_the_probe_or_draw(self, monkeypatch, row, where):
        # the oracle reads its norms as arrays from hinf_norm_batch's core
        monkeypatch.setattr(theorem, "_norm_arrays", unstable_den_at(row, theorem._norm_arrays))
        with pytest.raises(UnstableDenominatorError, match=f"^{where}: "):
            monte_carlo_oracle(widened_problem(seed=42, oracle_samples=20))

    def test_verdict_failure_names_the_draw(self, monkeypatch):
        prob = widened_problem(seed=42, oracle_samples=20)
        rng = np.random.default_rng(42)  # the oracle's draws: 20 numerators, then 20 denominators
        g, f = sample_many(prob.kg, 20, rng)[5], sample_many(prob.kf, 20, rng)[5]
        f[: len(g)] += g
        fail_on_row(monkeypatch, f)
        with pytest.raises(NoConvergenceError, match="^oracle draw 5: stub$"):
            monte_carlo_oracle(prob)

    def test_vertex_norm_failure_names_the_tuple(self, monkeypatch):
        monkeypatch.setattr(theorem, "hinf_norm_batch",
                            unstable_den_at(2, theorem.hinf_norm_batch))
        with pytest.raises(UnstableDenominatorError, match="^tuple 2222: "):
            max_sensitivity_twelve(widened_problem())


class TestGammaSandwich:
    def test_argmax_vertex_flips_at_the_norm(self):
        # check_gamma_equivalence on the argmax pair: false below the max, true above
        rng = np.random.default_rng(107)
        done = 0
        while done < 5:
            kg, kf = random_stable_family(rng)
            prob = family_problem(kg, kf)
            report = max_sensitivity_twelve(prob)
            if report.worst_norm < 1.15:
                continue
            t = report.argmax_tuple
            g = RealPolynomial(vertex_rows(kg)[t.g_row])
            f = RealPolynomial(vertex_rows(kf)[t.f_row])
            assert check_gamma_equivalence(g, f, report.worst_norm * 1.05) is True
            assert check_gamma_equivalence(g, f, report.worst_norm * 0.95) is False
            done += 1


class TestAnalyze:
    def test_point_worked_example(self):
        report = analyze(point_problem(seed=42, oracle_samples=200))
        assert report.family_stable
        assert report.worst_norm == pytest.approx(GOLDEN, rel=1e-9)
        assert report.sixteen_tuple_max == pytest.approx(GOLDEN, rel=1e-9)
        assert report.oracle.oracle_max == pytest.approx(GOLDEN, rel=1e-9)
        assert report.bisection_norm == pytest.approx(GOLDEN, abs=1e-3)

    def test_unstable_family_reports_stability_only(self):
        prob = AnalysisProblem(
            kg=IntervalPolynomial([1], [1]),
            kf=IntervalPolynomial([0, -1, 1], [0, -1, 1]),
        )
        report = analyze(prob)
        assert not report.family_stable
        assert report.worst_norm is None
        assert report.oracle is None

    def test_repeat_run_is_identical(self):
        rng = np.random.default_rng(109)
        kg, kf = random_stable_family(rng, n_min=2, n_max=4)
        prob = family_problem(kg, kf, seed=42, oracle_samples=300)
        assert analyze(prob) == analyze(prob)

    def test_each_piece_of_work_runs_once(self, monkeypatch):
        # one stability gate and the sixteen vertex norms, the twelve read from them
        calls = {"gate": 0, "norms": 0}
        in_oracle = []

        def counted(name, fn, weight=lambda *args: 1):
            def wrapper(*args, **kwargs):
                if not in_oracle:
                    calls[name] += weight(*args)
                return fn(*args, **kwargs)
            return wrapper

        def oracle(*args, **kwargs):
            in_oracle.append(True)
            try:
                return monte_carlo_oracle(*args, **kwargs)
            finally:
                in_oracle.pop()

        monkeypatch.setattr(theorem, "closed_loop_family_stable",
                            counted("gate", theorem.closed_loop_family_stable))
        monkeypatch.setattr(theorem, "hinf_norm_batch",
                            counted("norms", theorem.hinf_norm_batch,
                                    lambda nums, dens: len(nums)))
        monkeypatch.setattr(theorem, "monte_carlo_oracle", oracle)
        report = analyze(widened_problem(seed=42, oracle_samples=20, theta_points=90))
        assert report.family_stable
        assert calls == {"gate": 1, "norms": 16}

    def test_one_routh_call_per_caller(self, monkeypatch):
        # the gate's 4 matched sums, the 16 vertex closed loops, and each norm
        # batch's distinct denominators are each tested in one call
        calls = []
        for module in (interval, theorem, hinf):
            def recorded(rows, name=module.__name__.rsplit(".", 1)[1]):
                calls.append((name, len(rows)))
                return stability.is_hurwitz_real(rows)
            monkeypatch.setattr(module, "is_hurwitz_real", recorded)
        analyze(widened_problem(seed=42, oracle_samples=20, theta_points=90))
        assert calls[:3] == [("interval", 4), ("theorem", 16), ("hinf", 16)]
        assert calls[3][0] == "hinf" and 16 < calls[3][1] <= 65 + 20
        assert calls[4:] == [("interval", 4)]  # the bisection's own gate

    def test_precondition_gap_names_the_first_failing_tuple(self, monkeypatch):
        def two_fail(rows):
            verdicts = np.ones(len(rows), dtype=bool)
            verdicts[[9, 5]] = False
            return verdicts

        monkeypatch.setattr(theorem, "is_hurwitz_real", two_fail)
        with pytest.raises(TheoremPreconditionGapError,
                           match=f"^mixed vertex sum for tuple {CANONICAL_ORDER[5]} is not"):
            max_sensitivity_twelve(widened_problem())

    @pytest.mark.parametrize("count", [2.5, True, 0])
    def test_theta_points_are_checked_before_any_work(self, monkeypatch, count):
        def gate(prob):
            raise AssertionError("the stability gate ran")

        monkeypatch.setattr(theorem, "closed_loop_family_stable", gate)
        with pytest.raises(ValueError, match="^theta_points: expected an integer >= 1$"):
            analyze(point_problem(theta_points=count))

    def test_problem_validation(self):
        with pytest.raises(ValueError, match="strictly below"):
            AnalysisProblem(kg=IntervalPolynomial([1, 1], [1, 1]),
                            kf=IntervalPolynomial([1, 1], [1, 1]))
        with pytest.raises(ValueError, match="leading"):
            AnalysisProblem(kg=IntervalPolynomial([1], [1]),
                            kf=IntervalPolynomial([1, 0], [1, 1]))
