import math
import re
import warnings

import numpy as np
import pytest

from conftest import (decline_crossings, fail_on_row, perfbench_population, random_stable_plant,
                      resonant_family)
from intervalhinf import hinf, stability
from intervalhinf.errors import (
    DegenerateLeadingError,
    DegreeOrderError,
    DeltaRangeError,
    NoConvergenceError,
    UnstableClosedLoopError,
    UnstableDenominatorError,
)
from intervalhinf.hinf import (
    NormResult,
    RationalFunction,
    check_gamma_equivalence,
    family_norm_bisection,
    hinf_norm_batch,
    hinf_norm_exact,
    hinf_norm_grid,
    sensitivity,
)
from intervalhinf.interval import IntervalPolynomial
from intervalhinf.poly import RealPolynomial, eval_at_jomega, magnitude_squared
from intervalhinf.stability import hurwitz_batch, roots_batch
from intervalhinf.valueset import TWELVE_TUPLES, perturbed_vertex_rows, tuple_rows

GOLDEN = math.sqrt((3 + 2 * math.sqrt(3)) / 3)
GOLDEN_OMEGA = math.sqrt((1 + math.sqrt(3)) / 2)


def worked_sensitivity():
    return sensitivity(RealPolynomial([1]), RealPolynomial([0, 1, 1]))


class TestSensitivity:
    def test_first_order(self):
        s = sensitivity(RealPolynomial([1]), RealPolynomial([1, 1]))
        assert s.num.coeffs == (1.0, 1.0)
        assert s.den.coeffs == (2.0, 1.0)

    def test_worked_example(self):
        s = worked_sensitivity()
        assert s.num.coeffs == (0.0, 1.0, 1.0)
        assert s.den.coeffs == (1.0, 1.0, 1.0)

    def test_rejects_improper_plant(self):
        with pytest.raises(DegreeOrderError):
            sensitivity(RealPolynomial([1, 1]), RealPolynomial([1, 1]))

    def test_rejects_unstable_loop(self):
        with pytest.raises(UnstableClosedLoopError):
            sensitivity(RealPolynomial([1]), RealPolynomial([0, -1, 1]))

    def test_norm_at_least_one(self):
        # sensitivity of a strictly proper loop can never dip below 1
        rng = np.random.default_rng(43)
        for _ in range(50):
            g, f = random_stable_plant(rng)
            assert hinf_norm_exact(sensitivity(g, f)).value >= 1.0 - 1e-12


class TestExactNorm:
    def test_identity_attained_at_zero(self):
        one = RealPolynomial([1, 1])
        res = hinf_norm_exact(RationalFunction(num=one, den=one))
        assert res.value == pytest.approx(1.0)
        assert res.attained_at == 0.0

    def test_golden_value(self):
        res = hinf_norm_exact(worked_sensitivity())
        assert res.value == pytest.approx(GOLDEN, rel=1e-9)
        assert res.attained_at == pytest.approx(GOLDEN_OMEGA, rel=1e-9)

    def test_monotone_ratio_attained_at_infinity(self):
        rf = RationalFunction(num=RealPolynomial([1, 1]), den=RealPolynomial([2, 1]))
        res = hinf_norm_exact(rf)
        assert res.value == pytest.approx(1.0)
        assert math.isinf(res.attained_at)

    def test_candidates_never_beat_value(self):
        res = hinf_norm_exact(worked_sensitivity())
        assert all(mag <= res.value + 1e-15 for _, mag in res.candidates)

    def test_spread_plant_reaches_its_grid_peak_without_warnings(self):
        # norm-spread's degree-14 spread plant 845 at seed 3002, whose stationarity roots once
        # overflowed their residual check with a RuntimeWarning
        population = perfbench_population()
        case = population.norm_cases(3002, 1200)[845]
        assert case.kind == "spread" and case.degree == 14
        rf = RationalFunction(num=RealPolynomial(case.num), den=RealPolynomial(case.den))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = hinf_norm_exact(rf).value
        assert value >= population.product_form_peak(case) * (1 - 1e-9)

    def test_constant_ratio_is_flat(self):
        # a degree-0 denominator is Hurwitz whatever its sign; 1e200 / 1e200 squares to inf / inf,
        # but a constant ratio has no stationarity row to overflow
        for num, den, value in (([1], [2], 0.5), ([1], [-2], 0.5), ([0], [3], 0.0),
                                ([1e200], [1e200], 1.0)):
            rf = RationalFunction(num=RealPolynomial(num), den=RealPolynomial(den))
            res = hinf_norm_exact(rf)
            assert res == NormResult(value, 0.0, ((0.0, value), (math.inf, value)))
            assert hinf_norm_grid(rf, 100.0, 50) == value

    def test_unstable_denominator_rejected(self):
        rf = RationalFunction(num=RealPolynomial([1]), den=RealPolynomial([-1, 1]))
        with pytest.raises(UnstableDenominatorError):
            hinf_norm_exact(rf)

    def test_improper_rejected_at_construction(self):
        with pytest.raises(DegreeOrderError):
            RationalFunction(num=RealPolynomial([1, 1, 1]), den=RealPolynomial([1, 1]))

    def test_zero_denominator_rejected_at_construction(self):
        for num in ([0], [1], [0, 0]):
            with pytest.raises(ValueError, match="^rational function needs a nonzero denominator$"):
                RationalFunction(num=RealPolynomial(num), den=RealPolynomial([0, 0]))


UNSTABLE = [-1.0, 1.0, 1.0]
DEGENERATE = [1.5000000000001, 2.0, 1.0]  # its stationarity leading term cancels
OVERFLOW = ([1e200, 1.0, 0.0], [1e200, 2.0, 0.0])  # finite rows whose M(x) rows overflow


def padded(coeffs, width):
    row = np.zeros(width)
    row[: len(coeffs)] = coeffs
    return row


class TestNormBatch:
    def test_each_row_equals_its_row_alone(self, monkeypatch):
        # degrees 2-8 give several stationarity lengths, the degree-3 ones more than one
        # roots_batch chunk; f and f + g share their top coefficients, so rows of one padded
        # width trim to different lengths. Duplicates, a num = den row (no stationary point),
        # a peak at omega = 0, a peak at the limit at infinity, an all-pass row whose omega = 0
        # and infinity candidates tie, and norm-spread's degree-14 spread plant ride along;
        # == on NormResult compares every float
        rng = np.random.default_rng(67)
        width = 15
        nums, dens, degrees = [], [], set()
        for k in range(320):
            g, f = random_stable_plant(rng, n_min=3 if k < 200 else 2,
                                       n_max=3 if k < 200 else 8)
            rf = sensitivity(g, f)
            nums.append(padded(rf.num.coeffs, width))
            dens.append(padded(rf.den.coeffs, width))
            degrees.add(f.degree)
        for k in (0, 5, 5, 17):
            nums.append(nums[k])
            dens.append(dens[k])
        spread = perfbench_population().norm_cases(3002, 1200)[845]
        special = {"num = den": ([1.0, 2.0, 1.0], [1.0, 2.0, 1.0]),
                   "peak at 0": ([2.0, 1.0], [1.0, 1.0]),
                   "peak at inf": ([1.0, 1.0], [2.0, 1.0]),
                   "tie": ([2.0, -3.0, 1.0], [2.0, 3.0, 1.0]),
                   "spread": (spread.num, spread.den)}
        for num, den in special.values():
            nums.append(padded(num, width))
            dens.append(padded(den, width))
        order = rng.permutation(len(nums))
        nums, dens = np.array(nums)[order], np.array(dens)[order]
        assert degrees == set(range(2, 9))

        sizes, lengths = [], set()
        def sized(coeffs):
            sizes.append(len(coeffs))
            lengths.add(coeffs.shape[1])
            return roots_batch(coeffs)

        monkeypatch.setattr(stability, "roots_batch", sized)
        batch = hinf_norm_batch(nums, dens)
        assert max(sizes) == hinf._NORM_CHUNK and len(sizes) > 2
        assert len(lengths) >= 8
        alone = [hinf_norm_batch(n[None, :], d[None, :])[0] for n, d in zip(nums, dens)]
        assert batch == alone
        where = np.argsort(order)  # each row's position in the permuted batch
        got = {name: batch[where[k]] for k, name in enumerate(special, len(order) - len(special))}
        assert got["num = den"].value == 1.0
        assert (got["peak at 0"].value, got["peak at 0"].attained_at) == (2.0, 0.0)
        assert (got["peak at inf"].value, got["peak at inf"].attained_at) == (1.0, math.inf)
        # the limit at infinity wins only if strictly larger: the smaller frequency wins the tie
        assert got["tie"].candidates == ((0.0, 1.0), (math.inf, 1.0))
        assert (got["tie"].value, got["tie"].attained_at) == (1.0, 0.0)
        assert got["spread"].value >= perfbench_population().product_form_peak(spread) * (1 - 1e-9)

    def test_empty_batch(self):
        assert hinf_norm_batch(np.zeros((0, 3)), np.zeros((0, 3))) == []

    def test_constant_rows(self):
        # width-1 rows give width-1 magnitude-squared rows and no stationarity coefficient
        nums, dens = [[1.0], [3.0], [0.0], [1.0]], [[2.0], [-2.0], [5.0], [2.0]]
        batch = hinf_norm_batch(nums, dens)
        assert [(r.value, r.attained_at) for r in batch] == [(0.5, 0.0), (1.5, 0.0), (0.0, 0.0),
                                                             (0.5, 0.0)]
        assert batch == [hinf_norm_batch([n], [d])[0] for n, d in zip(nums, dens)]

    def test_one_routh_call_over_the_distinct_denominators(self, monkeypatch):
        # and one magnitude_squared call per operand, over the distinct row pairs
        seen, squared = [], []

        def recorded(rows):
            seen.append(np.asarray(rows).tolist())
            return stability.is_hurwitz_real(rows)

        def recorded_squares(rows):
            squared.append(np.asarray(rows).tolist())
            return magnitude_squared(rows)

        monkeypatch.setattr(hinf, "is_hurwitz_real", recorded)
        monkeypatch.setattr(hinf, "magnitude_squared", recorded_squares)
        nums = [[0.0, 1.0, 1.0]] * 4
        dens = [[1.0, 1.0, 1.0], [2.0, 1.0, 1.0], [1.0, 1.0, 1.0], [3.0, 1.0, 1.0]]
        hinf_norm_batch(nums, dens)
        assert len(seen) == 1 and sorted(seen[0]) == sorted([dens[0], dens[1], dens[3]])
        assert len(squared) == 2 and squared[0] == [nums[0]] * 3 and squared[1] == seen[0]

    @pytest.mark.parametrize("row, column, value, message", [
        (3, None, 0.0, "zero denominator"),
        (2, 1, math.nan, "non-finite coefficient"),
        (4, 0, math.inf, "non-finite coefficient"),
        (5, -1, -math.inf, "non-finite coefficient"),
    ])
    def test_malformed_row_is_rejected_before_any_work(self, monkeypatch, row, column,
                                                      value, message):
        # a malformed row wins over a lower row that would raise UnstableDenominatorError
        def no_work(*args):
            raise AssertionError("work started on malformed input")

        monkeypatch.setattr(hinf, "is_hurwitz_real", no_work)
        monkeypatch.setattr(hinf, "magnitude_squared", no_work)
        nums = np.array([[0.0, 1.0, 1.0]] * 6)
        dens = np.array([[1.0 + 0.1 * k, 1.0, 1.0] for k in range(6)])
        dens[1] = UNSTABLE
        if column is None:  # otherwise an even row's numerator, an odd row's denominator
            dens[row] = value
        else:
            (nums if row % 2 == 0 else dens)[row, column] = value
        with pytest.raises(ValueError, match=f"^row {row}: {message}$"):
            hinf_norm_batch(nums, dens)

    @pytest.mark.parametrize("bad, row, error", [
        ({3: UNSTABLE, 5: UNSTABLE}, 3, UnstableDenominatorError),
        ({3: DEGENERATE, 5: DEGENERATE}, 3, DegenerateLeadingError),
        # a root failure and a Routh failure: the lower row wins either way
        ({2: DEGENERATE, 4: UNSTABLE}, 2, DegenerateLeadingError),
        ({2: UNSTABLE, 4: DEGENERATE}, 2, UnstableDenominatorError),
        # an overflowing stationarity row, alone and against root and Routh failures
        ({3: OVERFLOW, 5: OVERFLOW}, 3, NoConvergenceError),
        ({2: OVERFLOW, 3: UNSTABLE, 4: DEGENERATE}, 2, NoConvergenceError),
        ({2: UNSTABLE, 4: OVERFLOW}, 2, UnstableDenominatorError),
        ({2: DEGENERATE, 4: OVERFLOW}, 2, DegenerateLeadingError),
    ])
    def test_failure_names_the_lowest_failing_row(self, bad, row, error):
        nums = [[0.0, 1.0, 1.0]] * 6
        dens = [[1.0 + 0.1 * k, 1.0, 1.0] for k in range(6)]
        for k, den in bad.items():
            nums[k], dens[k] = den if isinstance(den, tuple) else (nums[k], den)
        message = "stationarity polynomial is not finite" if error is NoConvergenceError else ""
        with pytest.raises(error, match=f"^row {row}: {message}") as info:
            hinf_norm_batch(nums, dens)
        assert info.value.row == row
        assert type(info.value.__cause__) is error
        # the scalar wrapper raises the row's own error, without the row
        with pytest.raises(error) as info:
            hinf_norm_exact(RationalFunction(RealPolynomial(nums[row]),
                                             RealPolynomial(dens[row])))
        assert info.value.row is None
        assert not str(info.value).startswith("row")


class TestGridNorm:
    def test_identity(self):
        one = RealPolynomial([1, 1])
        assert hinf_norm_grid(RationalFunction(one, one), 10.0, 100) == pytest.approx(1.0)

    def test_rejects_bad_arguments(self):
        rf = worked_sensitivity()
        for omega_max in (math.inf, math.nan, -math.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match="^omega_max: expected a finite float > 0$"):
                hinf_norm_grid(rf, omega_max, 10)
        for points in (True, 2.5, 1, 0, -3, "10"):
            with pytest.raises(ValueError, match="^points: expected an integer >= 2$"):
                hinf_norm_grid(rf, 10.0, points)
        with pytest.raises(ValueError, match="^points: "):  # points is checked first
            hinf_norm_grid(rf, math.nan, 1)
        assert hinf_norm_grid(rf, 10.0, 2) >= 1.0

    def test_golden_with_dense_grid(self):
        val = hinf_norm_grid(worked_sensitivity(), 100.0, 10**6)
        assert val == pytest.approx(GOLDEN, abs=1e-6)

    def test_never_exceeds_exact(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            g, f = random_stable_plant(rng)
            rf = sensitivity(g, f)
            exact = hinf_norm_exact(rf).value
            grid = hinf_norm_grid(rf, 50.0, 2000)
            assert grid <= exact + 1e-12

    def test_exact_matches_dense_grid_on_random_plants(self):
        # relative 1e-5 agreement at 1e6 points; omega_max derived from the
        # Cauchy bound with a 10x margin since stationary frequencies can sit
        # beyond the root bound itself
        rng = np.random.default_rng(53)
        for _ in range(200):
            g, f = random_stable_plant(rng)
            rf = sensitivity(g, f)
            den = np.asarray(rf.den.coeffs)
            cauchy = 1.0 + np.abs(den[:-1]).max() / abs(den[-1])
            exact = hinf_norm_exact(rf).value
            grid = hinf_norm_grid(rf, 10.0 * float(cauchy), 10**6)
            assert grid == pytest.approx(exact, rel=1e-5)

    def test_negative_frequency_symmetry(self):
        rf = worked_sensitivity()
        rng = np.random.default_rng(59)
        for _ in range(20):
            om = float(rng.uniform(0, 10))
            num, den = np.abs(eval_at_jomega([rf.num.coeffs, rf.den.coeffs], [[om, -om]] * 2))
            assert num[0] / den[0] == pytest.approx(num[1] / den[1], rel=1e-12)


class TestGammaEquivalence:
    def test_true_above_worked_norm(self):
        assert check_gamma_equivalence(RealPolynomial([1]), RealPolynomial([0, 1, 1]), 1.6)

    def test_false_below_worked_norm(self):
        assert not check_gamma_equivalence(RealPolynomial([1]), RealPolynomial([0, 1, 1]), 1.3)

    def test_huge_gamma_always_true(self):
        assert check_gamma_equivalence(RealPolynomial([1]), RealPolynomial([0, 1, 1]), 1e6)

    def test_gamma_must_exceed_one(self):
        with pytest.raises(DeltaRangeError):
            check_gamma_equivalence(RealPolynomial([1]), RealPolynomial([0, 1, 1]), 1.0)

    def test_unstable_loop_rejected(self):
        with pytest.raises(UnstableClosedLoopError,
                           match="^f \\+ g is not Hurwitz; sensitivity undefined$"):
            check_gamma_equivalence(RealPolynomial([1]), RealPolynomial([0, -1, 1]), 2.0)

    def test_plant_must_be_strictly_proper(self):
        for g, f in (([1, 1, 1], [1, 1]), ([1, 1], [2, 1])):
            with pytest.raises(DegreeOrderError, match="^plant must be strictly proper"):
                check_gamma_equivalence(RealPolynomial(g), RealPolynomial(f), 2.0)
        with pytest.raises(ValueError, match="^theta_count: "):  # theta is checked first
            check_gamma_equivalence(RealPolynomial([1, 1]), RealPolynomial([2, 1]), 2.0,
                                    theta_count=0)

    @pytest.mark.parametrize("count", [2.5, True, 0])
    def test_theta_count_must_be_a_positive_integer(self, count):
        with pytest.raises(ValueError, match="^theta_count: expected an integer >= 1$"):
            check_gamma_equivalence(RealPolynomial([1]), RealPolynomial([0, 1, 1]), 2.0,
                                    theta_count=count)

    def test_agrees_with_direct_comparison(self):
        # gamma drawn 10% on both sides of the true norm, margin >= 1e-2
        rng = np.random.default_rng(61)
        done = 0
        while done < 50:
            g, f = random_stable_plant(rng)
            norm = hinf_norm_exact(sensitivity(g, f)).value
            if norm < 1.12:
                continue
            assert check_gamma_equivalence(g, f, norm * 1.1) is True
            assert check_gamma_equivalence(g, f, norm * 0.9) is False
            done += 1


class TestFamilyNormBisection:
    def test_point_family_recovers_golden(self):
        kg = IntervalPolynomial([1], [1])
        kf = IntervalPolynomial([0, 1, 1], [0, 1, 1])
        val = family_norm_bisection(kg, kf, tol=1e-4, theta_count=720)
        assert val == pytest.approx(GOLDEN, abs=1e-3)
        assert val == 1.4678649907665102  # pinned bitwise

    def test_widened_family_is_pinned(self):
        kg = IntervalPolynomial([0.4, 0.1], [0.6, 0.2])
        kf = IntervalPolynomial([0.9, 2.7, 3.4, 2.0, 1.0], [1.1, 3.3, 4.0, 2.4, 1.0])
        assert family_norm_bisection(kg, kf, tol=1e-4, theta_count=720) == 1.6908264163247984

    def test_unit_norm_plant_lands_in_tol_band(self):
        kg = IntervalPolynomial([1], [1])
        kf = IntervalPolynomial([1, 1], [1, 1])
        val = family_norm_bisection(kg, kf, tol=1e-4, theta_count=360)
        assert 1.0 <= val <= 1.0 + 2e-4

    def test_tolerance_below_float_spacing_stops_at_adjacent_floats(self, monkeypatch):
        # at tol 1e-300 the bracket narrows to adjacent floats and stops there; a step cap
        # turns a bracket that never closes into a failure instead of a hang
        steps, on_grid = [], hinf._hurwitz_on_grid

        def capped(*args):
            steps.append(args)
            assert len(steps) < 200, "bisection does not end"
            return on_grid(*args)

        coarse = family_norm_bisection(*POINT, tol=1e-15, theta_count=36)
        monkeypatch.setattr(hinf, "_hurwitz_on_grid", capped)
        assert family_norm_bisection(*POINT, tol=1e-300, theta_count=36) == coarse

    def test_tolerance_must_be_finite_and_positive(self):
        kg = IntervalPolynomial([1], [1])
        kf = IntervalPolynomial([0, 1, 1], [0, 1, 1])
        for tol in (math.nan, math.inf, 0.0, -1e-4):
            with pytest.raises(ValueError, match="^tol: expected a finite float > 0$"):
                family_norm_bisection(kg, kf, tol=tol)

    @pytest.mark.parametrize("count", [2.5, True, 0])
    def test_theta_count_must_be_a_positive_integer(self, count):
        with pytest.raises(ValueError, match="^theta_count: expected an integer >= 1$"):
            family_norm_bisection(*POINT, theta_count=count)

    def test_unstable_family_rejected(self):
        from intervalhinf.errors import UnstableFamilyError

        kg = IntervalPolynomial([1], [1])
        kf = IntervalPolynomial([0, -1, 1], [0, -1, 1])
        with pytest.raises(UnstableFamilyError):
            family_norm_bisection(kg, kf)

    def test_near_instability_exhausts_the_bracket(self):
        from intervalhinf.errors import NoUpperBracketError

        # resonance peak far above the gamma cap: the doubling search must give up
        kg = IntervalPolynomial([1], [1])
        kf = IntervalPolynomial([1, 1e-10, 1], [1, 1e-10, 1])
        with pytest.raises(NoUpperBracketError):
            family_norm_bisection(kg, kf, tol=1e-3, theta_count=36)


class TestThetaGridFailures:
    def test_bisection_names_tuple_and_theta(self, monkeypatch):
        decline_crossings(monkeypatch)  # so the step reaches the chunk holding the row
        kg = IntervalPolynomial([0.4, 0.1], [0.6, 0.2])
        kf = IntervalPolynomial([0.9, 2.7, 3.4, 2.0, 1.0], [1.1, 3.3, 4.0, 2.4, 1.0])
        theta = hinf._theta_grid(720)[2]
        g_rows, f_rows = tuple_rows(kg, kf, TWELVE_TUPLES[5:6])
        fail_on_row(monkeypatch, perturbed_vertex_rows(g_rows, f_rows, 0.5, np.array([theta]))[0])
        with pytest.raises(NoConvergenceError,
                           match=f"^tuple 1222 at theta={re.escape(str(theta))}: stub$"):
            family_norm_bisection(kg, kf)

    def test_overflow_names_tuple_and_theta(self):
        # no crossing test is built for a pair whose Hermite matrices overflow; hurwitz_batch
        # names the lowest such row, here the first theta of the first chunk
        g_rows, f_rows = np.zeros((1, 9)), np.full((1, 9), 1e200)
        thetas = hinf._theta_grid(720)
        with np.errstate(all="ignore"), pytest.raises(
                NoConvergenceError, match=f"^tuple 1111 at theta={re.escape(str(thetas[0]))}: "
                "Hermite matrix is not finite: Eigenvalues did not converge$"):
            hinf._hurwitz_on_grid(hinf.level_crossings(g_rows, f_rows), g_rows, f_rows, 0.5,
                                  thetas, TWELVE_TUPLES[:1])

    def test_gamma_equivalence_names_theta(self, monkeypatch):
        decline_crossings(monkeypatch)  # so the step reaches the chunk holding the row
        g, f = RealPolynomial([1]), RealPolynomial([0, 1, 1])
        theta = hinf._theta_grid(720)[100]  # in the third 48-theta chunk
        fail_on_row(monkeypatch, np.array([1.0, 0.0, 0.0]) + (1 + np.exp(1j * theta) / 2)
                    * np.array([0.0, 1.0, 1.0]))
        with pytest.raises(NoConvergenceError, match=f"^theta={re.escape(str(theta))}: stub$"):
            check_gamma_equivalence(g, f, 2.0)


def bisection_steps(monkeypatch, kg, kf):
    """(crossings, *args) of every _hurwitz_on_grid step of family_norm_bisection."""
    steps, on_grid = [], hinf._hurwitz_on_grid

    def recorded(*args):
        steps.append(args)
        return on_grid(*args)

    with monkeypatch.context() as patched:
        patched.setattr(hinf, "_hurwitz_on_grid", recorded)
        family_norm_bisection(kg, kf, tol=1e-4, theta_count=720)
    return steps


def probe_batches(monkeypatch, crossings, g_rows, f_rows, delta, thetas):
    """The rows _crossing_verdict sends to hurwitz_batch, and its verdict."""
    batches = []

    def recorded(rows):
        batches.append(rows)
        return hurwitz_batch(rows)

    with monkeypatch.context() as patched:
        patched.setattr(hinf, "hurwitz_batch", recorded)
        verdict = hinf._crossing_verdict(crossings, g_rows, f_rows, delta, thetas)
    return batches, verdict


WIDENED = (IntervalPolynomial([0.4, 0.1], [0.6, 0.2]),
           IntervalPolynomial([0.9, 2.7, 3.4, 2.0, 1.0], [1.1, 3.3, 4.0, 2.4, 1.0]))
POINT = (IntervalPolynomial([1.0], [1.0]), IntervalPolynomial([0.0, 1.0, 1.0], [0.0, 1.0, 1.0]))
UNIT = (IntervalPolynomial([0.0, 1.0], [0.0, 1.0]),  # |S| = |(1 + s)^2 / (1 + 3s + s^2)| <= 1
        IntervalPolynomial([1.0, 2.0, 1.0], [1.0, 2.0, 1.0]))


class TestLevelCrossings:
    def test_decided_steps_agree_with_the_grid(self, monkeypatch):
        # every bisection step of the shipped families, two analyze-families seeds and
        # degree 6-10 resonant families is decided unless its crossing test declines, and
        # each verdict is the reference's: hurwitz_batch on the whole grid
        families = [POINT, WIDENED]
        for seed in (4111, 4112):
            families += [(IntervalPolynomial(fam.g_lower, fam.g_upper),
                          IntervalPolynomial(fam.f_lower, fam.f_upper))
                         for fam in perfbench_population().analyze_families(seed, 8)]
        rng = np.random.default_rng(5)
        families += [resonant_family(rng) for _ in range(12)]
        outcomes = {(True, False): 0, (True, True): 0, (False, True): 0, None: 0}
        for kg, kf in families:
            for crossings, *args in bisection_steps(monkeypatch, kg, kf):
                assert crossings is not None  # every g + f is confirmed Hurwitz
                found = crossings(args[2])
                verdict = hinf._crossing_verdict(crossings, *args)
                assert (verdict is None) == (found is None)
                if verdict is None:
                    outcomes[None] += 1
                    continue
                outcomes[verdict, len(found[0]) > 0] += 1
                assert hinf._hurwitz_on_grid(None, *args) is verdict
        assert outcomes[True, False] > 100 and outcomes[False, True] > 100
        assert outcomes[True, True] > 0 and outcomes[None] < 5

    def test_angles_off_by_most_of_a_grid_step_keep_every_verdict(self, monkeypatch):
        # the four probes around a crossing angle hold a row of every arc that holds a grid
        # theta even for an angle that is off by up to a grid step: with every angle shifted
        # by +-0.9 steps, each decided verdict is still that of hurwitz_batch on the whole grid
        families = [POINT, WIDENED] + [
            (IntervalPolynomial(fam.g_lower, fam.g_upper),
             IntervalPolynomial(fam.f_lower, fam.f_upper))
            for fam in perfbench_population().analyze_families(4111, 8)]
        step = 2.0 * np.pi / 720
        decided = 0
        for kg, kf in families:
            for crossings, *args in bisection_steps(monkeypatch, kg, kf):
                reference = hinf._hurwitz_on_grid(None, *args)
                for shift in (0.9 * step, -0.9 * step):

                    def shifted(delta, shift=shift):
                        found = crossings(delta)
                        return None if found is None else (found[0], found[1] + shift)

                    verdict = hinf._crossing_verdict(shifted, *args)
                    if verdict is not None:
                        assert verdict is reference
                        decided += 1
        assert decided > 300

    def test_stable_probes_decide_a_step_with_crossings(self, monkeypatch):
        # at gamma = 1.4678895, just below the point plant's norm 1.46788983, the circle
        # crosses the axis, but the unstable arcs between crossing angles hold no grid theta:
        # one probe batch decides the step stable, as the whole grid does
        g_rows, f_rows = tuple_rows(*POINT, TWELVE_TUPLES[:1])
        thetas, delta = hinf._theta_grid(720), 1 / 1.4678895
        assert 1 / delta < GOLDEN
        crossings = hinf.level_crossings(g_rows, f_rows)
        assert len(crossings(delta)[0]) == 4
        batches, verdict = probe_batches(monkeypatch, crossings, g_rows, f_rows, delta, thetas)
        assert verdict is True and len(batches) == 1
        assert hinf._hurwitz_on_grid(None, g_rows, f_rows, delta, thetas) is True

    @pytest.mark.parametrize("decline_every", [0, 3])
    def test_all_stable_bisection_batches_only_declined_steps(self, monkeypatch, decline_every):
        # |S| <= 1, so no row on any disk |c| <= delta < 1 crosses the axis: every step is
        # certified stable by its root solve alone. With every k-th step's crossing test
        # declined, hurwitz_batch sees exactly those steps' whole grids, chunk by chunk, in order
        steps, declined, batched = [], [], []
        on_grid, built = hinf._hurwitz_on_grid, hinf.level_crossings

        def step(*args):
            steps.append(on_grid(*args))
            return steps[-1]

        def declining(g_rows, f_rows):
            crossings = built(g_rows, f_rows)

            def found(delta):
                if decline_every and len(steps) % decline_every == decline_every - 1:
                    declined.append(delta)
                    return None
                return crossings(delta)

            return found

        def batch(rows):
            batched.append(rows)
            return hurwitz_batch(rows)

        monkeypatch.setattr(hinf, "_hurwitz_on_grid", step)
        monkeypatch.setattr(hinf, "level_crossings", declining)
        monkeypatch.setattr(hinf, "hurwitz_batch", batch)
        assert family_norm_bisection(*UNIT, tol=1e-4, theta_count=720) == 1.0000305185780944
        assert len(steps) > 10 and all(steps)
        assert len(declined) == (len(steps) // 3 if decline_every else 0)
        g_rows, f_rows = tuple_rows(*UNIT, TWELVE_TUPLES)
        thetas = hinf._theta_grid(720)
        expected = [perturbed_vertex_rows(g_rows, f_rows, delta,
                                          thetas[start : start + hinf._THETA_CHUNK])
                    for delta in declined for start in range(0, 720, hinf._THETA_CHUNK)]
        assert len(batched) == len(expected)
        assert all(np.array_equal(seen, rows) for seen, rows in zip(batched, expected))

    @pytest.mark.parametrize("family, pinned", [(POINT, 1.4678649907665102),
                                                (WIDENED, 1.6908264163247984)])
    def test_declined_steps_keep_the_pins(self, monkeypatch, family, pinned):
        assert family_norm_bisection(*family, tol=1e-4, theta_count=720) == pinned
        decline_crossings(monkeypatch)
        assert family_norm_bisection(*family, tol=1e-4, theta_count=720) == pinned

    def test_undecidable_levels_decline_without_warnings(self, monkeypatch):
        g_rows, f_rows = tuple_rows(*WIDENED, TWELVE_TUPLES)
        near_one = 1.0 - 1e-13
        # at delta near 1 the level rows' leading coefficients are roundoff: roots_batch would
        # raise DegenerateLeadingError, and the test declines before solving them
        a = stability._taylor_shift(g_rows + f_rows)
        b = stability._taylor_shift(f_rows)
        with pytest.raises(DegenerateLeadingError):
            roots_batch(magnitude_squared(a) - near_one**2 * magnitude_squared(b))
        huge = np.full((1, 9), 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert stability.level_crossings(g_rows, f_rows)(near_one) is None
            # an overflowing pair's Hermite matrices cannot confirm g + f Hurwitz: no test
            assert stability.level_crossings(np.zeros((1, 9)), huge) is None
            assert stability.level_crossings(huge, huge) is None

            def failing(coeffs):
                raise DegenerateLeadingError("stub")

            monkeypatch.setattr(stability, "roots_batch", failing)
            assert stability.level_crossings(g_rows, f_rows)(0.5) is None

    def test_crossing_at_zero_frequency_declines(self):
        # g + (1 + c) f = (0.5 + c) + (1 + c) s has its root at s = 0 for c = -0.5, on the
        # circle |c| = 0.5: a crossing at omega = 0 that the x >= 0 root filter can miss
        crossings = stability.level_crossings(np.array([[-0.5, 0.0]]), np.array([[1.0, 1.0]]))
        assert crossings(0.5) is None
        assert len(crossings(0.4)[0]) == 0 and len(crossings(0.6)[0]) == 2

    def test_probe_rows_are_grid_rows_next_to_a_crossing(self, monkeypatch):
        # each probed row is bitwise a perturbed_vertex_rows row of the full grid, of the pair
        # the crossing test names, at a grid theta within two grid steps of a crossing angle
        thetas = hinf._theta_grid(720)
        step = thetas[1] - thetas[0]
        probed = 0
        for kg, kf in (POINT, WIDENED):
            g_rows, f_rows = tuple_rows(kg, kf, TWELVE_TUPLES)
            crossings = hinf.level_crossings(g_rows, f_rows)
            for args in bisection_steps(monkeypatch, kg, kf):
                delta = args[3]
                batches, _ = probe_batches(monkeypatch, crossings, g_rows, f_rows, delta, thetas)
                pairs, angles = crossings(delta)
                assert len(batches) == (len(pairs) > 0)
                grid = perturbed_vertex_rows(g_rows, f_rows, delta, thetas)
                lowest = {row.tobytes(): i for i, row in reversed(list(enumerate(grid)))}
                for row in batches[0] if batches else ():
                    k, p = divmod(lowest[row.tobytes()], len(g_rows))
                    gaps = np.abs((thetas[k] - angles[pairs == p] + np.pi) % (2 * np.pi) - np.pi)
                    assert gaps.min() <= 2 * step
                    probed += 1
        assert probed > 50

    def test_failing_probe_row_names_tuple_and_theta(self, monkeypatch):
        # gamma = 1.5 is below the widened family's norm: a probe decides the step, and a
        # failing verdict on the first probed row names its tuple and theta
        thetas = hinf._theta_grid(720)
        g_rows, f_rows = tuple_rows(*WIDENED, TWELVE_TUPLES)
        crossings = hinf.level_crossings(g_rows, f_rows)
        batches, verdict = probe_batches(monkeypatch, crossings, g_rows, f_rows, 1 / 1.5, thetas)
        assert verdict is False
        target = batches[0][0]
        grid = perturbed_vertex_rows(g_rows, f_rows, 1 / 1.5, thetas)
        k, p = divmod(int(np.flatnonzero((grid == target).all(axis=1))[0]), len(g_rows))
        fail_on_row(monkeypatch, target)
        with pytest.raises(NoConvergenceError, match=f"^tuple {TWELVE_TUPLES[p].label} at "
                           f"theta={re.escape(str(thetas[k]))}: stub$"):
            hinf._hurwitz_on_grid(crossings, g_rows, f_rows, 1 / 1.5, thetas,
                                  TWELVE_TUPLES)
