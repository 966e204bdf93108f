import math
from pathlib import Path

import numpy as np
import pytest

from conftest import (oracle_rows, perfbench_population, random_stable_family, random_stable_plant,
                      reference_norm_below, reference_oracle, resonant_family)
from intervalhinf import hinf, interval, stability, theorem
from intervalhinf.cli import load_problem
from intervalhinf.errors import UnstableDenominatorError, UnstableFamilyError
from intervalhinf.hinf import check_gamma_equivalence
from intervalhinf.interval import IntervalPolynomial, vertex_rows
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
from intervalhinf.valueset import ALL_SIXTEEN, TWELVE_TUPLES, tuple_rows

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
    """hinf_norm_batch with the denominator of one row made non-Hurwitz."""
    def wrapper(nums, dens):
        dens = np.array(dens)
        dens[row, 0] = -1.0
        return batch(nums, dens)
    return wrapper


def screened_families():
    """(name, problem) of random, resonant, point and one-side-point families and
    widened_family."""
    rng = np.random.default_rng(113)
    cases = [(f"random {k}", family_problem(*random_stable_family(rng), seed=k,
                                            oracle_samples=500 if k % 2 else 2000))
             for k in range(6)]
    cases += [(f"resonant {k}", family_problem(*resonant_family(rng), seed=k, oracle_samples=500))
              for k in range(4)]
    for k in range(3):
        g, f = random_stable_plant(rng)
        cases.append((f"point {k}", family_problem(IntervalPolynomial(g.coeffs, g.coeffs),
                                                   IntervalPolynomial(f.coeffs, f.coeffs),
                                                   seed=k, oracle_samples=500)))
    cases += [("point golden", point_problem(seed=42, oracle_samples=500)),
              ("widened", widened_problem(seed=42, oracle_samples=2000))]
    for k, side in enumerate(["numerator", "numerator", "denominator"]):
        # one side a point, a vertex of its box: that side's midpoint probes repeat vertex rows
        kg, kf = random_stable_family(rng)
        vertex = vertex_rows(kg if side == "numerator" else kf)[k]
        point = IntervalPolynomial(vertex, vertex)
        kg, kf = (point, kf) if side == "numerator" else (kg, point)
        cases.append((f"{side} point {k}", family_problem(kg, kf, seed=k,
                                                          oracle_samples=300 + 100 * k)))
    return cases


class TestOracleScreen:
    @pytest.mark.parametrize("probes", ["all", "centre"])
    @pytest.mark.parametrize("name, prob", screened_families())
    def test_equals_the_exact_norm_of_every_kept_row(self, monkeypatch, name, prob, probes):
        # with the box centre as the only probe, draws beat its norm and reach the exact route
        if probes == "centre":
            gs, fs = theorem._probe_pairs(prob)
            monkeypatch.setattr(theorem, "_probe_pairs", lambda prob: (gs[-1:], fs[-1:]))
        assert monte_carlo_oracle(prob) == reference_oracle(prob)

    @pytest.mark.parametrize("name, prob", screened_families())
    def test_the_screen_takes_each_row_once_and_no_vertex_row(self, monkeypatch, name, prob):
        # the oracle dedupes its rows once: no row reaches hinf_norm_below twice, and
        # none that repeats a vertex probe, whose norm the vertex maximum already holds
        _, fs, dens = oracle_rows(prob)
        pairs = [row.tobytes() for row in np.hstack([fs, dens])]
        screen, screened = theorem.hinf_norm_below, []

        def below(nums, dens, gamma):
            screened.extend(row.tobytes() for row in np.hstack([nums, dens]))
            return screen(nums, dens, gamma)

        monkeypatch.setattr(theorem, "hinf_norm_below", below)
        assert monte_carlo_oracle(prob) == reference_oracle(prob)
        assert len(set(screened)) == len(screened) and not set(screened) & set(pairs[:16])
        if " point " in name:  # one side a point: its midpoint probes repeat vertex rows
            assert set(pairs[16:65]) & set(pairs[:16])

    def test_draws_above_the_centre_probe_reach_the_exact_route(self, monkeypatch):
        # with the box centre as the only probe, T is its norm: draws beat it, are left by
        # the screen, and one of them sets the maximum and the argmax
        prob = widened_problem(seed=42, oracle_samples=500)
        gs, fs = theorem._probe_pairs(prob)
        monkeypatch.setattr(theorem, "_probe_pairs", lambda prob: (gs[-1:], fs[-1:]))
        batch, sizes = theorem.hinf_norm_batch, []

        def norms(nums, dens):
            sizes.append(len(nums))
            return batch(nums, dens)

        monkeypatch.setattr(theorem, "hinf_norm_batch", norms)
        oracle = monte_carlo_oracle(prob)
        assert sizes[0] == 1 and 0 < sizes[1] < 500
        assert (oracle.argmax_g, oracle.argmax_f) != (tuple(gs[-1]), tuple(fs[-1]))
        assert oracle == reference_oracle(prob)


def frequency_scaled(prob, a, base=2.0):
    """prob with coefficient k of both families times base^(a k), p(s) -> p(base^a s): every
    norm is unchanged. With base 2 this is exact in floats, and coefficient k of each level
    row moves by 2^(2a k)."""
    def scaled(family):
        power = base ** (a * np.arange(len(family.lower), dtype=float))
        return IntervalPolynomial(np.array(family.lower) * power, np.array(family.upper) * power)

    return AnalysisProblem(kg=scaled(prob.kg), kf=scaled(prob.kf), options=prob.options)


class TestOracleScreenKernel:
    def test_clears_what_the_root_rule_clears_on_benchmark_families(self):
        # the oracle's draws of the analyze-families workload, at each family's probe maximum:
        # every draw the root rule clears is cleared, and none whose exact norm reaches T
        population = perfbench_population()
        for k, fam in enumerate(population.analyze_families(2401, 40)):
            prob = family_problem(IntervalPolynomial(fam.g_lower, fam.g_upper),
                                  IntervalPolynomial(fam.f_lower, fam.f_upper),
                                  seed=2401, oracle_samples=500)
            _, fs, dens = oracle_rows(prob)
            kept = np.flatnonzero(stability.hurwitz_batch(dens))
            probes, drawn = kept[kept < 65], kept[kept >= 65]
            peak = hinf.hinf_norm_batch(fs[probes], dens[probes])[0].max()
            cleared = hinf.hinf_norm_below(fs[drawn], dens[drawn], peak)
            assert (cleared >= reference_norm_below(fs[drawn], dens[drawn], peak)).all(), k
            rows = drawn[cleared]
            assert (hinf.hinf_norm_batch(fs[rows], dens[rows])[0] < peak).all(), k

    @pytest.mark.parametrize("a", [-10, -3, 3, 7, 10])
    def test_frequency_scaled_family_keeps_the_oracle(self, monkeypatch, a):
        # each row is centred on its own frequency scale, so at a = 7 and 10, level rows that
        # span 2^56 and 2^80 still clear every draw and every non-vertex probe; at a = -10 the
        # exact norms, which once raised DegenerateLeadingError, cut their stationarity rows
        # at their own roundoff
        prob = frequency_scaled(widened_problem(seed=42, oracle_samples=500), a)
        batch, sizes = theorem.hinf_norm_batch, []

        def norms(nums, dens):
            sizes.append(len(nums))
            return batch(nums, dens)

        monkeypatch.setattr(theorem, "hinf_norm_batch", norms)
        assert monte_carlo_oracle(prob) == reference_oracle(prob)
        if a >= 7:
            assert sizes == [16]  # the vertex probes alone: no other row is left to it


def recorded_calls(monkeypatch):
    """Row counts of the oracle's hinf_norm_batch calls, and the number of its screen calls."""
    batch, screen, calls = theorem.hinf_norm_batch, theorem.hinf_norm_below, {"norms": [],
                                                                               "screens": 0}

    def norms(nums, dens):
        calls["norms"].append(len(nums))
        return batch(nums, dens)

    def below(nums, dens, gamma):
        calls["screens"] += 1
        return screen(nums, dens, gamma)

    monkeypatch.setattr(theorem, "hinf_norm_batch", norms)
    monkeypatch.setattr(theorem, "hinf_norm_below", below)
    return calls


class TestOracleProbes:
    def test_the_first_sixteen_probes_are_all_sixteen_tuples_in_order(self):
        # monte_carlo_oracle reads the norm of probe k < 16 as that of ALL_SIXTEEN[k]; on
        # families whose 16 vertex pairs are distinct, any reordering of the probes fails this
        rng = np.random.default_rng(127)
        done = 0
        while done < 5:
            kg, kf = random_stable_family(rng)
            gs, fs = theorem._probe_pairs(family_problem(kg, kf))
            if len(np.unique(np.hstack([gs[:16], fs[:16]]), axis=0)) < 16:
                continue  # a constant numerator has two vertices, not four
            done += 1
            g_rows, f_rows = tuple_rows(kg, kf, ALL_SIXTEEN)
            width = gs.shape[1]
            assert np.array_equal(gs[:16], g_rows[:, :width]) and not g_rows[:, width:].any()
            assert np.array_equal(fs[:16], f_rows)


class TestOracleReusesVertexNorms:
    @pytest.mark.parametrize("name, prob", screened_families() + [
        (f"widened scaled 2^{a}k", frequency_scaled(widened_problem(seed=42, oracle_samples=500),
                                                    a)) for a in (3, 7, 10)])
    def test_oracle_inside_analyze_equals_the_oracle_alone(self, name, prob):
        # analyze hands the oracle its sixteen vertex norms, keyed by tuple; the result
        # is the oracle's own, and the exact norm of every row
        oracle = analyze(prob).oracle
        assert oracle == monte_carlo_oracle(prob) == reference_oracle(prob)

    def test_analyze_takes_no_norm_in_the_oracle_here(self, monkeypatch):
        # every vertex probe's norm is known, and the screen clears every other row
        prob = widened_problem(seed=42, oracle_samples=500)
        calls = recorded_calls(monkeypatch)
        oracle = analyze(prob).oracle
        assert calls == {"norms": [16], "screens": 1}  # the vertex norms, then the screen
        assert oracle == reference_oracle(prob)

    def test_a_known_norm_is_read_not_computed(self, monkeypatch):
        # the sixteen vertex norms, keyed by tuple, are taken as given: a false value for
        # ALL_SIXTEEN[2] shows in the result, and no vertex probe takes an exact norm
        prob = widened_problem(seed=42, oracle_samples=20)
        gs, fs, dens = oracle_rows(prob)
        known = dict(zip(ALL_SIXTEEN, hinf.hinf_norm_batch(fs[:16], dens[:16])[0].tolist()))
        known[ALL_SIXTEEN[2]] = 7.0
        calls = recorded_calls(monkeypatch)
        oracle = monte_carlo_oracle(prob, known)
        assert oracle.oracle_max == 7.0
        assert (oracle.argmax_g, oracle.argmax_f) == (tuple(gs[2]), tuple(fs[2]))
        assert calls["norms"] == []

    @pytest.mark.parametrize("name, prob", [case for case in screened_families()
                                            if case[0].startswith("point")])
    def test_point_family_takes_only_its_vertex_norms(self, monkeypatch, name, prob):
        # every probe and draw of a point family is byte-equal to the first vertex row (565
        # copies at 500 samples), so the oracle values that one row: no screen call, and one
        # exact norm (none inside analyze, which knows the sixteen)
        calls = recorded_calls(monkeypatch)
        assert monte_carlo_oracle(prob) == reference_oracle(prob)
        assert calls == {"norms": [1], "screens": 0}
        calls["norms"].clear()
        assert analyze(prob).oracle == reference_oracle(prob)
        assert calls == {"norms": [16], "screens": 0}  # analyze's own vertex norms


class TestOracleBatching:
    def test_norms_share_a_few_kernel_calls(self, monkeypatch):
        # 65 probes and 500 draws: one call per stationarity length of the 16 vertex probes'
        # norms, and none for the screen, not one per sample
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
        # the screen clears every draw of this family, so the row is kept from it and reaches
        # the exact route, whose error names it; a cleared draw's error would not surface
        prob = widened_problem(seed=42, oracle_samples=20)
        _, nums, dens = oracle_rows(prob)
        target = dens[row]
        screen, batch = theorem.hinf_norm_below, theorem.hinf_norm_batch
        assert screen(nums[65:], dens[65:], monte_carlo_oracle(prob).oracle_max).all()

        def kept_from_screen(nums, dens, gamma):
            return screen(nums, dens, gamma) & ~(dens == target).all(axis=1)

        def unstable_target(nums, dens):
            dens = np.array(dens)
            dens[(dens == target).all(axis=1), 0] = -1.0
            return batch(nums, dens)

        monkeypatch.setattr(theorem, "hinf_norm_below", kept_from_screen)
        monkeypatch.setattr(theorem, "hinf_norm_batch", unstable_target)
        with pytest.raises(UnstableDenominatorError, match=f"^{where}: "):
            monte_carlo_oracle(prob)

    def test_unstable_family_raises(self):
        # no closed loop of this family is stable: the oracle alone runs the stability gate
        # and refuses it, rather than returning a maximum over no valued row
        prob = load_problem(str(Path(__file__).parent.parent / "problems" / "unstable_family.yaml"))
        with pytest.raises(UnstableFamilyError, match="^matched vertex sums are not all Hurwitz$"):
            monte_carlo_oracle(prob)

    def test_the_oracle_alone_runs_the_gate_once(self, monkeypatch):
        # without vertex norms the oracle runs the stability gate itself, once; given them,
        # its caller has run it (analyze does), so it runs none
        calls = []
        gate = theorem.closed_loop_family_stable
        monkeypatch.setattr(theorem, "closed_loop_family_stable",
                            lambda prob: calls.append(prob) or gate(prob))
        prob = widened_problem(seed=42, oracle_samples=20)
        alone = monte_carlo_oracle(prob)
        assert len(calls) == 1
        _, fs, dens = oracle_rows(prob)
        known = dict(zip(ALL_SIXTEEN, hinf.hinf_norm_batch(fs[:16], dens[:16])[0].tolist()))
        assert monte_carlo_oracle(prob, known) == alone
        assert len(calls) == 1

    def test_a_closed_loop_inside_the_dead_zone_is_valued(self):
        # the closed loop s + 5e-10 passes the gate, whose Routh test has no dead zone, but
        # its root lies in (-HURWITZ_TOL, 0), which the Hermite filter rejects: every row was
        # once skipped, for a maximum of -inf. Now each is valued, at the vertex maximum
        prob = family_problem(IntervalPolynomial([5e-10], [5e-10]),
                              IntervalPolynomial([0, 1], [0, 1]), seed=3, oracle_samples=50)
        assert closed_loop_family_stable(prob)
        assert not stability.hurwitz_batch(np.array([[5e-10, 1.0]]))[0]
        oracle = monte_carlo_oracle(prob)
        assert oracle.skipped == 0
        assert oracle.oracle_max == max_sensitivity_twelve(prob).worst_norm == pytest.approx(1.0)

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

    def test_frequency_scaled_widened_family_keeps_every_value(self):
        # p(s) -> p(s / k) moves every frequency and no norm. At k = 2^10, 2^20 and 2^30, exact
        # in floats, the worst norm, the oracle maximum and the bisection keep their bits; at
        # k = 30 and 100 they stay within 1e-9. Before each stationarity row was cut at its own
        # roundoff, k = 100 printed worst 1 at infinity and 2^10 exited 4
        def values(prob):
            report = analyze(prob)
            return report.worst_norm, report.oracle.oracle_max, report.bisection_norm

        prob = widened_problem(seed=42, oracle_samples=500)
        want = values(prob)
        for a in (10, 20, 30):
            assert values(frequency_scaled(prob, -a)) == want, a
        for k in (30.0, 100.0):
            assert values(frequency_scaled(prob, -1, k)) == pytest.approx(want, rel=1e-9), k

    def test_repeat_run_is_identical(self):
        rng = np.random.default_rng(109)
        kg, kf = random_stable_family(rng, n_min=2, n_max=4)
        prob = family_problem(kg, kf, seed=42, oracle_samples=300)
        assert analyze(prob) == analyze(prob)

    def test_each_piece_of_work_runs_once(self, monkeypatch):
        # one stability gate and the sixteen vertex norms, the twelve read from them: the
        # oracle reads the sixteen, its screen clears every other row here, and the bisection
        # plans from the twelve-vertex maximum, so no other row takes an exact norm
        calls = {"gate": 0, "norms": 0}

        def counted(name, fn, weight=lambda *args: 1):
            def wrapper(*args, **kwargs):
                calls[name] += weight(*args)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(theorem, "closed_loop_family_stable",
                            counted("gate", theorem.closed_loop_family_stable))
        for module in (theorem, hinf):
            monkeypatch.setattr(module, "hinf_norm_batch",
                                counted("norms", module.hinf_norm_batch,
                                        lambda nums, dens: len(nums)))
        report = analyze(widened_problem(seed=42, oracle_samples=20, theta_points=90))
        assert report.family_stable
        assert calls == {"gate": 1, "norms": 16}

    def test_one_routh_call_per_caller(self, monkeypatch):
        # the gate's 4 matched sums and the 16 vertex norms' denominators are each tested in
        # one call; the gate settles every other closed loop as a member of the family, so
        # none is tested again before its norm. The oracle reads the vertex norms, and its
        # screen leaves no other row here unless it is made to clear none: one norm call then
        # takes the 61 distinct rows of the 49 other probes and the 20 draws (two of the six
        # midpoints of each family's four vertices are its centre). The bisection runs no gate
        # of its own: its crossing test certifies the twelve g + f rows, the four matched sums
        # among them. It plans from the twelve-vertex maximum analyze passes, so it takes no
        # norm. theorem's names are recorded too, were it to test a closed loop itself
        calls = []
        for module, name in ((interval, "is_hurwitz_real"), (theorem, "is_hurwitz_real"),
                             (theorem, "hurwitz_batch"), (hinf, "is_hurwitz_real")):
            def recorded(rows, caller=module.__name__.rsplit(".", 1)[1],
                         test=getattr(stability, name)):
                calls.append((caller, len(rows)))
                return test(rows)
            monkeypatch.setattr(module, name, recorded, raising=False)
        batch = theorem.hinf_norm_batch

        def norms(nums, dens):
            calls.append(("norms", len(nums)))
            return batch(nums, dens)

        monkeypatch.setattr(theorem, "hinf_norm_batch", norms)
        for drawn in ([], [("norms", 61), ("hinf", 61)]):
            if drawn:
                monkeypatch.setattr(theorem, "hinf_norm_below",
                                    lambda nums, dens, gamma: np.zeros(len(nums), dtype=bool))
            calls.clear()
            analyze(widened_problem(seed=42, oracle_samples=20, theta_points=90))
            assert calls == [("interval", 4), ("norms", 16), ("hinf", 16), *drawn]

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
