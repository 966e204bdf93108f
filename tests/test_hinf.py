import dataclasses
import math
import re
import warnings
from collections import Counter

import numpy as np
import pytest

from conftest import (decline_crossings, fail_on_row, perfbench_population, random_stable_plant,
                      reference_norm_below, resonant_family, roots_calls)
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
    RationalFunction,
    check_gamma_equivalence,
    family_norm_bisection,
    hinf_norm_batch,
    hinf_norm_exact,
    hinf_norm_grid,
    sensitivity,
)
from intervalhinf.interval import IntervalPolynomial, vertex_rows
from intervalhinf.poly import RealPolynomial, eval_at_jomega, magnitude_squared
from intervalhinf.stability import hurwitz_batch, roots_batch
from intervalhinf.theorem import AnalysisProblem, max_sensitivity_twelve
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

    def test_shorter_row_is_zero_padded(self):
        # g has more coefficients than f, its extra ones zero: f + g keeps g's length, and each
        # coefficient is the sum of the two zero-padded rows
        g, f = RealPolynomial([1.5, -2.0, 0.0, 0.0, 0.0]), RealPolynomial([0.25, 3.0, 1.0])
        s = sensitivity(g, f)
        assert s.num == f
        assert s.den.coeffs == (1.75, 1.0, 1.0, 0.0, 0.0) and s.den.degree == 2

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
            assert (res.value, res.attained_at) == (value, 0.0)
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
OVERFLOW = ([1e200, 1.0, 0.0], [1e200, 2.0, 0.0])  # finite rows whose unscaled M(x) rows overflow
STUB = ([0.0, 1.0, 1.0], [1.25, 1.0, 1.0])  # a pair whose stationarity solve fail_on_row fails


def padded(coeffs, width):
    row = np.zeros(width)
    row[: len(coeffs)] = coeffs
    return row


def assert_rows_alone(batch, nums, dens):
    """Each row of hinf_norm_batch's two arrays is bitwise that of its row pair alone."""
    alone = [hinf_norm_batch([n], [d]) for n, d in zip(nums, dens)]
    for got, column in zip(batch, zip(*alone)):
        assert got.dtype == float and got.tobytes() == np.concatenate(column).tobytes()


class TestNormBatch:
    def test_each_row_equals_its_row_alone(self, monkeypatch):
        # degrees 2-8 give several stationarity lengths, the degree-3 ones more than one
        # roots_batch chunk; f and f + g share their top coefficients, so rows of one padded
        # width trim to different lengths. Duplicates, a num = den row (no stationary point),
        # a peak at omega = 0, a peak at the limit at infinity, an all-pass row whose omega = 0
        # and infinity candidates tie, and norm-spread's degree-14 spread plant ride along;
        # the arrays are compared bit for bit
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
        assert_rows_alone(batch, nums, dens)
        where = np.argsort(order)  # each row's position in the permuted batch
        got = {name: (batch[0][where[k]], batch[1][where[k]])
               for k, name in enumerate(special, len(order) - len(special))}
        assert got["num = den"][0] == 1.0
        assert got["peak at 0"] == (2.0, 0.0)
        assert got["peak at inf"] == (1.0, math.inf)
        # the limit at infinity wins only if strictly larger: the smaller frequency wins the
        # tie, here of the omega = 0 candidate with the limit, both exactly 1
        tie = [padded(c, width)[None, :] for c in special["tie"]]
        mags, limit = hinf._magnitudes(*tie, np.zeros((1, 1)), np.array([2]), np.array([2]))
        assert mags.tolist() == [[1.0]] and limit.tolist() == [1.0]
        assert got["tie"] == (1.0, 0.0)
        assert got["spread"][0] >= perfbench_population().product_form_peak(spread) * (1 - 1e-9)

    def test_empty_batch(self):
        values, attained = hinf_norm_batch(np.zeros((0, 3)), np.zeros((0, 3)))
        assert values.shape == attained.shape == (0,)
        assert values.dtype == attained.dtype == float

    def test_constant_rows(self):
        # width-1 rows give width-1 magnitude-squared rows and no stationarity coefficient
        nums, dens = [[1.0], [3.0], [0.0], [1.0]], [[2.0], [-2.0], [5.0], [2.0]]
        batch = hinf_norm_batch(nums, dens)
        assert batch[0].tolist() == [0.5, 1.5, 0.0, 0.5] and batch[1].tolist() == [0.0] * 4
        assert_rows_alone(batch, nums, dens)

    def test_one_routh_call_over_the_distinct_denominators(self, monkeypatch):
        # and one magnitude_squared call over the distinct row pairs, num rows stacked on den
        # rows, each row scaled by the power of two that puts its largest coefficient in
        # [0.5, 1)
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
        scaled = {(1.0, 1.0, 1.0): [0.5, 0.5, 0.5], (2.0, 1.0, 1.0): [0.5, 0.25, 0.25],
                  (3.0, 1.0, 1.0): [0.75, 0.25, 0.25]}
        assert len(squared) == 1
        assert squared[0] == [[0.0, 0.5, 0.5]] * 3 + [scaled[tuple(den)] for den in seen[0]]

    def test_one_row_equals_its_row_in_a_large_batch(self):
        # a B = 1 call skips the distinct-row sort and runs a one-row Routh table and
        # stationarity stack; each of 565 rows of degree 1-14, padded to width 16, equals it
        rng = np.random.default_rng(3203)
        nums, dens = sensitivity_rows([random_stable_plant(rng, n_min=1, n_max=14)
                                       for _ in range(565)], 16)
        assert_rows_alone(hinf_norm_batch(nums, dens), nums, dens)

    def test_overflowing_magnitudes_are_scaled_away(self):
        # |num(j w)|^2 and |den(j w)|^2 of OVERFLOW overflow unscaled; the true norm is 1 at 0
        values, attained = hinf_norm_batch(*([row] for row in OVERFLOW))
        assert values.tolist() == [1.0] and attained.tolist() == [0.0]

    def test_norm_does_not_depend_on_the_scale(self):
        # a power of two leaves every row bitwise; 1e+-150 once underflowed to the limit at
        # infinity and overflowed to an error, and now moves the norm by roundoff only
        rng = np.random.default_rng(71)
        nums, dens = sensitivity_rows([random_stable_plant(rng, n_max=8) for _ in range(40)], 9)
        values, attained = hinf_norm_batch(nums, dens)
        for k in (-900, -300, 300, 900):
            got = hinf_norm_batch(np.ldexp(nums, k), np.ldexp(dens, k))
            assert got[0].tobytes() == values.tobytes() and got[1].tobytes() == attained.tobytes()
        for scale in (1e-150, 1e150):
            got = hinf_norm_batch(nums * scale, dens * scale)
            np.testing.assert_allclose(got[0], values, rtol=1e-12, atol=0)

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
        # a stationarity solve that fails alone, alone and against root and Routh failures
        ({3: STUB, 5: STUB}, 3, NoConvergenceError),
        ({2: STUB, 3: UNSTABLE, 4: DEGENERATE}, 2, NoConvergenceError),
        ({2: UNSTABLE, 4: STUB}, 2, UnstableDenominatorError),
        ({2: DEGENERATE, 4: STUB}, 2, DegenerateLeadingError),
    ])
    def test_failure_names_the_lowest_failing_row(self, monkeypatch, bad, row, error):
        nums = [[0.0, 1.0, 1.0]] * 6
        dens = [[1.0 + 0.1 * k, 1.0, 1.0] for k in range(6)]
        for k, den in bad.items():
            nums[k], dens[k] = den if isinstance(den, tuple) else (nums[k], den)
        if STUB in bad.values():  # the stationarity row that the STUB pair solves alone
            (value, _), calls = roots_calls(monkeypatch, hinf_norm_batch, *([r] for r in STUB))
            assert value[0] > 1.0 and len(calls) == 1
            fail_on_row(monkeypatch, calls[0][0])
        message = "stub" if error is NoConvergenceError else ""
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


def sensitivity_rows(pairs, width):
    """num and den rows (B, width) of f/(f + g) for (g, f) RealPolynomial pairs."""
    rfs = [sensitivity(g, f) for g, f in pairs]
    return (np.array([padded(rf.num.coeffs, width) for rf in rfs]),
            np.array([padded(rf.den.coeffs, width) for rf in rfs]))


def screened_populations():
    """(name, nums, dens, peaks): random and resonant sensitivities with their exact norms,
    and norm-spread's spread plants with the product-form reference peak, which also holds
    where the exact route raises."""
    rng = np.random.default_rng(73)
    random = sensitivity_rows([random_stable_plant(rng, n_max=8) for _ in range(150)], 9)
    pairs = []
    for _ in range(8):
        kg, kf = resonant_family(rng)
        gs, fs = vertex_rows(kg, len(kf.lower)), vertex_rows(kf)
        pairs += [(RealPolynomial(g), RealPolynomial(f)) for g in gs for f in fs]
    resonant = sensitivity_rows(pairs, 11)
    population = perfbench_population()
    spread = [case for case in population.norm_cases(3002, 400) if case.kind == "spread"][:60]
    width = max(len(case.den) for case in spread)
    return [("random", *random, hinf_norm_batch(*random)[0]),
            ("resonant", *resonant, hinf_norm_batch(*resonant)[0]),
            ("spread", np.array([padded(case.num, width) for case in spread]),
             np.array([padded(case.den, width) for case in spread]),
             np.array([population.product_form_peak(case) for case in spread]))]


class TestNormBelow:
    @pytest.mark.parametrize("name, nums, dens, peaks", screened_populations())
    def test_clears_only_rows_below_gamma(self, name, nums, dens, peaks):
        # at gammas through the peaks, just above each and far above them all, every row it
        # clears peaks below gamma. At twice the largest peak it clears every sensitivity; a
        # spread plant's level row, whose coefficients span the square of its root spread,
        # can hold frequency scales that PIECE_DEPTH halvings do not separate, and is then
        # left to the exact route
        for gamma in [*np.quantile(peaks, [0.0, 0.25, 0.5, 0.75, 1.0]),
                      *(peaks[:20] * (1 + 1e-9)), *(peaks[:20] * (1 + 1e-3)), peaks.max() * 2]:
            cleared = hinf.hinf_norm_below(nums, dens, gamma)
            assert cleared.dtype == bool and cleared.shape == (len(nums),)
            assert (peaks[cleared] < gamma).all()
        assert cleared.all() if name != "spread" else cleared.mean() > 0.5

    @pytest.mark.parametrize("name, nums, dens, peaks", screened_populations()[:2])
    def test_never_clears_a_row_at_its_own_norm_or_one(self, name, nums, dens, peaks):
        # a sensitivity tends to 1 at infinity, so gamma = 1 clears none
        assert not hinf.hinf_norm_below(nums, dens, 1.0).any()
        for k in range(0, len(nums), 3):
            assert not hinf.hinf_norm_below(nums, dens, peaks[k])[k]

    @pytest.mark.parametrize("name, nums, dens, peaks", screened_populations()[:2])
    def test_clears_every_row_the_root_rule_clears(self, name, nums, dens, peaks):
        # within about 1e-6 of a row's own peak, its level row has a near-double root that
        # PIECE_DEPTH halvings cannot separate from the axis, so gammas stop at 1e-3 above
        for gamma in [*np.quantile(peaks, [0.0, 0.25, 0.5, 0.75, 1.0]),
                      *(peaks[:40] * (1 + 1e-3)), peaks.max() * 2]:
            cleared = hinf.hinf_norm_below(nums, dens, gamma)
            assert (cleared >= reference_norm_below(nums, dens, gamma)).all()
            assert (peaks[cleared] < gamma).all()

    def test_peaks_at_zero_and_at_infinity_and_constant_rows(self):
        below = hinf.hinf_norm_below
        # 2/(1 + s)... peaks 2 at omega = 0; (1 + s)/(2 + s) tends to its peak 1 at infinity
        assert below([[2.0, 1.0]], [[1.0, 1.0]], 2.0 * (1 + 1e-3)).tolist() == [True]
        assert below([[2.0, 1.0]], [[1.0, 1.0]], 2.0 * (1 + 1e-8)).tolist() == [False]
        assert below([[1.0, 1.0]], [[2.0, 1.0]], 1.001).tolist() == [True]
        assert below([[1.0, 1.0]], [[2.0, 1.0]], 1.0).tolist() == [False]
        # constants: 1/2, 0/5 and 3/-2, at gammas above 1/2 and at it
        nums, dens = [[1.0], [0.0], [3.0]], [[2.0], [5.0], [-2.0]]
        assert below(nums, dens, 0.6).tolist() == [True, True, False]
        assert below(nums, dens, 0.5).tolist() == [False, True, False]
        assert below(np.zeros((0, 3)), np.zeros((0, 3)), 2.0).shape == (0,)
        # rows that are not finite, or a zero denominator, clear nothing and warn nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not below([[math.nan, 1.0], [1.0, 1.0]], [[1.0, 1.0], [0.0, 0.0]], 2.0).any()
            assert not below([[math.inf, 1.0]], [[1.0, 1.0]], 2.0).any()

    def test_verdict_does_not_depend_on_the_scale(self):
        # one power of two per pair keeps num/den, so 1e+-150 rows keep every verdict
        name, nums, dens, peaks = screened_populations()[0]
        gamma = float(np.median(peaks))
        cleared = hinf.hinf_norm_below(nums, dens, gamma)
        assert 0 < cleared.sum() < len(nums)
        for scale in (2.0 ** -900, 1e-150, 1e150, 2.0 ** 900):
            assert (hinf.hinf_norm_below(nums * scale, dens * scale, gamma) == cleared).all()

    def test_no_root_solve_and_a_degenerate_row_is_left_to_the_exact_route(self, monkeypatch):
        # 200 degree-3 rows and, at row 100, a stable one whose |den|^2 leading term is 1e-14
        # of the rest: its exact norm raises, and its level row's two frequency scales, 2^16
        # apart, are more than PIECE_DEPTH halvings can separate, so it is not cleared. Every
        # other row is, and no row is solved for roots
        rng = np.random.default_rng(79)
        nums, dens = sensitivity_rows([random_stable_plant(rng, n_min=3, n_max=3)
                                       for _ in range(200)], 4)
        gamma = 2.0 * hinf_norm_batch(nums, dens)[0].max()
        nums[100], dens[100] = [0.5, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1e-7]
        with pytest.raises(DegenerateLeadingError):
            hinf_norm_batch(nums[100:101], dens[100:101])
        cleared, calls = roots_calls(monkeypatch, hinf.hinf_norm_below, nums, dens, gamma)
        assert calls == [] and not cleared[100] and cleared.sum() == 199


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
        # at tol 1e-300 the bracket narrows to adjacent floats and stops there; a step cap on
        # every run of the loop, the plan's replay included, turns a bracket that never
        # closes into a failure instead of a hang
        bisect = hinf._bisect

        def capped(verdict, tol):
            steps = []

            def counted(gamma):
                steps.append(gamma)
                assert len(steps) < 200, "bisection does not end"
                return verdict(gamma)

            return bisect(counted, tol)

        coarse = family_norm_bisection(*POINT, tol=1e-15, theta_count=36)
        monkeypatch.setattr(hinf, "_bisect", capped)
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
                "Hermite matrix is not finite$"):
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


def reference_bisection(kg, kf, tol=1e-4, theta_count=720, steps=None):
    """The reference for family_norm_bisection: the same bisection rule with no plan, each step
    one _hurwitz_on_grid call in turn; (crossings, *args) of each step are appended to `steps`
    if given."""
    thetas = hinf._theta_grid(theta_count)
    g_rows, f_rows = tuple_rows(kg, kf, TWELVE_TUPLES)
    crossings = hinf.level_crossings(g_rows, f_rows)

    def step(gamma):
        args = (crossings, g_rows, f_rows, 1.0 / gamma, thetas, TWELVE_TUPLES)
        if steps is not None:
            steps.append(args)
        return hinf._hurwitz_on_grid(*args)

    hi = 2.0
    while not step(hi):
        hi *= 2.0
        assert hi <= hinf.GAMMA_CAP
    lo = 1.0 + 1e-9
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if step(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def bisection_steps(kg, kf):
    """(crossings, *args) of every _hurwitz_on_grid step of the reference bisection."""
    steps = []
    reference_bisection(kg, kf, steps=steps)
    return steps


def probe_batches(monkeypatch, crossings, g_rows, f_rows, delta, thetas):
    """The rows _crossing_verdict sends to hurwitz_batch for one delta, and its verdict."""
    batches = []

    def recorded(rows):
        batches.append(rows)
        return hurwitz_batch(rows)

    with monkeypatch.context() as patched:
        patched.setattr(hinf, "hurwitz_batch", recorded)
        verdict = hinf._crossing_verdict(crossings, g_rows, f_rows, [delta], thetas)[0]
    return batches, verdict


def rewired(crossings, answer):
    """A copy of the crossing test `crossings` whose answers pass through
    answer(deltas, found), found being the test's own answers."""
    class Rewired(type(crossings)):
        def __call__(self, deltas):
            return answer(deltas, super().__call__(deltas))

    return Rewired(*(getattr(crossings, field.name) for field in dataclasses.fields(crossings)))


def family_of(fam):
    """(kg, kf) of a perfbench population family."""
    return (IntervalPolynomial(fam.g_lower, fam.g_upper),
            IntervalPolynomial(fam.f_lower, fam.f_upper))


WIDENED = (IntervalPolynomial([0.4, 0.1], [0.6, 0.2]),
           IntervalPolynomial([0.9, 2.7, 3.4, 2.0, 1.0], [1.1, 3.3, 4.0, 2.4, 1.0]))
POINT = (IntervalPolynomial([1.0], [1.0]), IntervalPolynomial([0.0, 1.0, 1.0], [0.0, 1.0, 1.0]))
UNIT = (IntervalPolynomial([0.0, 1.0], [0.0, 1.0]),  # |S| = |(1 + s)^2 / (1 + 3s + s^2)| <= 1
        IntervalPolynomial([1.0, 2.0, 1.0], [1.0, 2.0, 1.0]))


class TestLevelCrossings:
    def test_one_unstable_pair_gives_no_test(self):
        # the test needs every g + f Hurwitz: one pair whose g + f has a negative coefficient,
        # among eleven stable pairs, leaves no test to build
        g_rows, f_rows = tuple_rows(*WIDENED, TWELVE_TUPLES)
        assert stability.level_crossings(g_rows, f_rows) is not None
        f_rows = f_rows.copy()
        f_rows[5, 2] = -f_rows[5, 2]
        assert hurwitz_batch(g_rows + f_rows).tolist() == [True] * 5 + [False] + [True] * 6
        assert stability.level_crossings(g_rows, f_rows) is None

    def test_decided_steps_agree_with_the_grid(self):
        # every bisection step of the shipped families, two analyze-families seeds and
        # degree 6-10 resonant families is decided unless its crossing test declines, and
        # each verdict is the reference's: hurwitz_batch on the whole grid
        families = [POINT, WIDENED]
        for seed in (4111, 4112):
            families += [family_of(fam) for fam in perfbench_population().analyze_families(seed, 8)]
        rng = np.random.default_rng(5)
        families += [resonant_family(rng) for _ in range(12)]
        outcomes = {(True, False): 0, (True, True): 0, (False, True): 0, None: 0}
        for kg, kf in families:
            for crossings, g_rows, f_rows, delta, *args in bisection_steps(kg, kf):
                assert crossings is not None  # every g + f is confirmed Hurwitz
                decided, steps, _, _ = crossings([delta])
                verdict = hinf._crossing_verdict(crossings, g_rows, f_rows, [delta], *args)[0]
                assert (verdict is None) == (not decided[0])
                if verdict is None:
                    outcomes[None] += 1
                    continue
                outcomes[verdict, bool((steps == 0).any())] += 1
                assert hinf._hurwitz_on_grid(None, g_rows, f_rows, delta, *args) is verdict
        assert outcomes[True, False] > 100 and outcomes[False, True] > 100
        assert outcomes[True, True] > 0 and outcomes[None] < 5

    def test_angles_off_by_most_of_a_grid_step_keep_every_verdict(self):
        # the four probes around a crossing angle hold a row of every arc that holds a grid
        # theta even for an angle that is off by up to a grid step: with every angle shifted
        # by +-0.9 steps, each decided verdict is still that of hurwitz_batch on the whole grid
        families = [POINT, WIDENED] + [
            family_of(fam) for fam in perfbench_population().analyze_families(4111, 8)]
        step = 2.0 * np.pi / 720
        decided = 0
        for kg, kf in families:
            for crossings, g_rows, f_rows, delta, *args in bisection_steps(kg, kf):
                reference = hinf._hurwitz_on_grid(None, g_rows, f_rows, delta, *args)
                for shift in (0.9 * step, -0.9 * step):

                    def moved(deltas, found, shift=shift):
                        decided, steps, pairs, angles = found
                        return decided, steps, pairs, angles + shift

                    verdict = hinf._crossing_verdict(rewired(crossings, moved), g_rows, f_rows,
                                                     [delta], *args)[0]
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
        decided, steps, _, _ = crossings([delta])
        assert decided.tolist() == [True] and (steps == 0).sum() == 4
        batches, verdict = probe_batches(monkeypatch, crossings, g_rows, f_rows, delta, thetas)
        assert verdict is True and len(batches) == 1
        assert hinf._hurwitz_on_grid(None, g_rows, f_rows, delta, thetas) is True

    @pytest.mark.parametrize("decline_every", [0, 3])
    def test_all_stable_bisection_batches_only_declined_steps(self, monkeypatch, decline_every):
        # |S| <= 1, so no row on any disk |c| <= delta < 1 crosses the axis: every step is
        # certified stable by its root solve alone. With every k-th step's crossing test
        # declined, hurwitz_batch sees exactly those steps' whole grids, chunk by chunk, in order
        steps = bisection_steps(*UNIT)
        assert len(steps) > 10 and all(hinf._hurwitz_on_grid(*args) for args in steps)
        declined = [args[3] for k, args in enumerate(steps)
                    if decline_every and k % decline_every == decline_every - 1]
        batched = []
        built = hinf.level_crossings

        def decline(deltas, found):
            decided, steps, pairs, angles = found
            decided = decided & ~np.isin(deltas, declined)
            keep = decided[steps]  # a declined delta has no crossings
            return decided, steps[keep], pairs[keep], angles[keep]

        def declining(g_rows, f_rows):
            return rewired(built(g_rows, f_rows), decline)

        def batch(rows):
            batched.append(rows)
            return hurwitz_batch(rows)

        monkeypatch.setattr(hinf, "level_crossings", declining)
        monkeypatch.setattr(hinf, "hurwitz_batch", batch)
        assert family_norm_bisection(*UNIT, tol=1e-4, theta_count=720) == 1.0000305185780944
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
            decided, steps, _, _ = stability.level_crossings(g_rows, f_rows)([near_one])
            assert decided.tolist() == [False] and len(steps) == 0
            # an overflowing pair's Hermite matrices cannot confirm g + f Hurwitz: no test
            assert stability.level_crossings(np.zeros((1, 9)), huge) is None
            assert stability.level_crossings(huge, huge) is None

            def failing(coeffs):
                raise DegenerateLeadingError("stub")

            monkeypatch.setattr(stability, "roots_batch", failing)
            decided, steps, _, _ = stability.level_crossings(g_rows, f_rows)([0.5, 0.6])
            assert decided.tolist() == [False, False] and len(steps) == 0

    def test_crossing_at_zero_frequency_declines(self):
        # g + (1 + c) f = (0.5 + c) + (1 + c) s has its root at s = 0 for c = -0.5, on the
        # circle |c| = 0.5: a crossing at omega = 0 that the x >= 0 root filter can miss
        crossings = stability.level_crossings(np.array([[-0.5, 0.0]]), np.array([[1.0, 1.0]]))
        decided, steps, _, _ = crossings([0.4, 0.5, 0.6])
        assert decided.tolist() == [True, False, True]
        assert [(steps == d).sum() for d in range(3)] == [0, 0, 2]

    def test_probe_rows_are_grid_rows_next_to_a_crossing(self, monkeypatch):
        # each probed row is bitwise a perturbed_vertex_rows row of the full grid, of the pair
        # the crossing test names, at a grid theta within two grid steps of a crossing angle
        thetas = hinf._theta_grid(720)
        step = thetas[1] - thetas[0]
        probed = 0
        for kg, kf in (POINT, WIDENED):
            g_rows, f_rows = tuple_rows(kg, kf, TWELVE_TUPLES)
            crossings = hinf.level_crossings(g_rows, f_rows)
            for args in bisection_steps(kg, kf):
                delta = args[3]
                batches, _ = probe_batches(monkeypatch, crossings, g_rows, f_rows, delta, thetas)
                decided, _, pairs, angles = crossings([delta])
                assert decided[0] and len(batches) == (len(pairs) > 0)
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


def planned_families():
    """The shipped-like families, two analyze-families seeds, a grid miss on which the
    prediction goes wrong late (seed 109), a peak at omega = 0 whose last steps decline (seed
    2003) and degree 6-10 resonant families."""
    population = perfbench_population()
    families = [POINT, WIDENED, UNIT]
    for seed in (4111, 4112):
        families += [family_of(fam) for fam in population.analyze_families(seed, 8)]
    families.append(family_of(population.analyze_families(109, 12)[11]))
    families.append(family_of(population.analyze_families(2003, 18)[17]))
    rng = np.random.default_rng(5)
    return families + [resonant_family(rng) for _ in range(12)]


class TestPlannedBisection:
    @pytest.mark.parametrize("prediction",
                             ["computed", "too high", "too low", "absent", "above the cap"])
    def test_equals_the_step_by_step_reference(self, monkeypatch, prediction):
        # the predicted threshold, the twelve-vertex maximum, orders the work and never
        # decides a verdict: right, passed in wrong either way, missing (its norms raise) or
        # above GAMMA_CAP (the plan runs up to the cap and stops there), the result is the
        # reference's bit for bit
        on_grid = hinf._hurwitz_on_grid
        factor = {"too high": 1.001, "too low": 0.999}.get(prediction)
        if prediction == "absent":
            def failing(num_rows, den_rows):
                raise NoConvergenceError("stub")

            monkeypatch.setattr(hinf, "hinf_norm_batch", failing)
        alone = []
        monkeypatch.setattr(hinf, "_hurwitz_on_grid",
                            lambda *args: alone.append(args[3]) or on_grid(*args))
        routes = []  # (steps taken alone, steps) per family
        for kg, kf in planned_families():
            alone.clear()
            nu = None
            if factor is not None:
                g_rows, f_rows = tuple_rows(kg, kf, TWELVE_TUPLES)
                nu = factor * hinf.hinf_norm_batch(f_rows, g_rows + f_rows)[0].max()
            elif prediction == "above the cap":
                nu = 2.0**40
            value = family_norm_bisection(kg, kf, vertex_max=nu)
            taken, steps = list(alone), []
            assert value == reference_bisection(kg, kf, steps=steps)
            # the steps decided alone are the reference's last steps
            assert taken == [args[3] for args in steps][len(steps) - len(taken) :]
            routes.append((len(taken), len(steps)))
        if prediction == "absent":
            assert all(taken == steps for taken, steps in routes)
        elif prediction == "computed":
            assert routes[0][0] == routes[2][0] == 0  # POINT and UNIT: every step planned
            assert sum(taken == 0 for taken, _ in routes) > len(routes) / 2
            assert 0 < routes[19][0] < routes[19][1] and routes[20][0] > 0  # seeds 109, 2003
        else:
            assert sum(0 < taken < steps for taken, steps in routes) > 10

    def test_one_probe_batch_holds_the_rows_of_the_one_delta_batches(self, monkeypatch):
        # the plan builds the probe rows of all its deltas with one perturbed_vertex_rows call,
        # a delta per theta: its one probe batch holds exactly the rows, bitwise and as a
        # multiset, of the probe batches its deltas get one by one, with the same verdicts
        verdict, plans = hinf._crossing_verdict, []

        def recorded(crossings, g_rows, f_rows, deltas, *args):
            if len(deltas) > 1:
                plans.append((crossings, g_rows, f_rows, deltas, *args))
            return verdict(crossings, g_rows, f_rows, deltas, *args)

        with monkeypatch.context() as patched:
            patched.setattr(hinf, "_crossing_verdict", recorded)
            for kg, kf in planned_families():
                family_norm_bisection(kg, kf)
        assert len(plans) == len(planned_families())
        compared = 0
        for crossings, g_rows, f_rows, deltas, thetas in plans:
            batches = []
            with monkeypatch.context() as patched:
                patched.setattr(hinf, "hurwitz_batch",
                                lambda rows: batches.append(rows) or hurwitz_batch(rows))
                together = verdict(crossings, g_rows, f_rows, deltas, thetas)
            alone = [probe_batches(monkeypatch, crossings, g_rows, f_rows, delta, thetas)
                     for delta in deltas]
            assert together == [step for _, step in alone]
            assert len(batches) <= 1
            assert (Counter(row.tobytes() for rows in batches for row in rows)
                    == Counter(row.tobytes() for rows, _ in alone for batch in rows
                               for row in batch))
            compared += len(batches)
        assert compared > 20

    def test_a_passed_vertex_maximum_gives_the_same_gamma(self, monkeypatch):
        # analyze passes the twelve-vertex maximum it already has; called alone, the bisection
        # computes it with one hinf_norm_batch call on its twelve pairs. Either way the
        # bisection takes the same gamma, bit for bit
        batch, calls = hinf.hinf_norm_batch, []
        monkeypatch.setattr(hinf, "hinf_norm_batch",
                            lambda nums, dens: calls.append(len(nums)) or batch(nums, dens))
        for kg, kf in planned_families():
            nu = max_sensitivity_twelve(AnalysisProblem(kg, kf)).worst_norm
            calls.clear()
            passed = family_norm_bisection(kg, kf, vertex_max=nu)
            assert calls == []
            assert family_norm_bisection(kg, kf) == passed
            assert calls == [12]

    def test_batched_crossings_equal_per_delta_calls(self):
        # the crossing test answers an array of delta as it answers each delta alone: the same
        # pairs and thetas bit for bit, and the same deltas declined
        declined = 0
        for kg, kf in planned_families():
            steps = bisection_steps(kg, kf)
            crossings = steps[0][0]
            deltas = [args[3] for args in steps] + [1.0 - 1e-13]  # delta near 1 declines
            decided, steps, pairs, angles = crossings(deltas)
            assert decided[steps].all()  # a declined delta has no crossings
            for d, delta in enumerate(deltas):
                alone = crossings([delta])
                assert decided[d] == alone[0][0]
                if not decided[d]:
                    declined += 1
                    continue
                mine = steps == d
                assert pairs.dtype == alone[2].dtype and angles.dtype == alone[3].dtype
                assert pairs[mine].tobytes() == alone[2].tobytes()
                assert angles[mine].tobytes() == alone[3].tobytes()
        assert declined > len(planned_families())  # the omega = 0 peak's steps as well

    def test_a_failing_level_row_declines_only_its_delta(self, monkeypatch):
        # one level row that raises fails the shared root solve; each delta is then solved
        # alone, so only the delta holding that row declines
        g_rows, f_rows = tuple_rows(*WIDENED, TWELVE_TUPLES)
        crossings = hinf.level_crossings(g_rows, f_rows)
        deltas = [0.3, 1 / 1.5, 0.55]
        expected = [crossings([delta]) for delta in deltas]
        assert all(alone[0][0] for alone in expected)
        target = (crossings.ma - (deltas[1] * deltas[1]) * crossings.mb)[4]
        solve = stability.roots_batch

        def failing(coeffs):
            if (coeffs == target).all(axis=1).any():
                raise NoConvergenceError("stub")
            return solve(coeffs)

        monkeypatch.setattr(stability, "roots_batch", failing)
        decided, steps, pairs, angles = crossings(deltas)
        assert decided.tolist() == [True, False, True] and not (steps == 1).any()
        for d in (0, 2):
            mine = steps == d
            assert np.array_equal(pairs[mine], expected[d][2])
            assert np.array_equal(angles[mine], expected[d][3])

    def test_a_right_prediction_decides_every_step_together(self, monkeypatch):
        # the point plant: every step is planned, the crossing test is asked once for all of
        # their deltas (one root solve), and the probe rows of the steps with crossings go to
        # one hurwitz_batch call; no step is decided alone
        count = len(bisection_steps(*POINT))
        asked, batches, alone = [], [], []
        built, on_grid = hinf.level_crossings, hinf._hurwitz_on_grid

        def counted(g_rows, f_rows):
            return rewired(built(g_rows, f_rows),
                           lambda deltas, found: asked.append(len(deltas)) or found)

        monkeypatch.setattr(hinf, "level_crossings", counted)
        monkeypatch.setattr(hinf, "hurwitz_batch",
                            lambda rows: batches.append(len(rows)) or hurwitz_batch(rows))
        monkeypatch.setattr(hinf, "_hurwitz_on_grid", lambda *args: alone.append(args) or
                            on_grid(*args))
        assert family_norm_bisection(*POINT) == 1.4678649907665102
        assert asked == [count] and len(batches) == 1 and alone == []

    def test_a_declined_planned_step_is_not_asked_again(self, monkeypatch):
        # the peak at omega = 0: the plan asks the crossing test once, for all 20 of its
        # deltas, and the one it declines goes straight to the whole grid without asking the
        # test again; hurwitz_batch gets the plan's probe batch and that step's 15 theta chunks
        kg, kf = family_of(perfbench_population().analyze_families(2003, 18)[17])
        asked, declined, batches = [], [], []
        built = hinf.level_crossings

        def counted(deltas, found):
            asked.append(len(deltas))
            declined.append(int((~found[0]).sum()))
            return found

        monkeypatch.setattr(hinf, "level_crossings",
                            lambda g_rows, f_rows: rewired(built(g_rows, f_rows), counted))
        monkeypatch.setattr(hinf, "hurwitz_batch",
                            lambda rows: batches.append(len(rows)) or hurwitz_batch(rows))
        assert family_norm_bisection(kg, kf) == 5.613643646581144
        assert asked == [20] and declined == [1]
        assert len(batches) == 16 and sum(batches) == 8848

    def test_errors_are_raised_at_the_step_that_raises_alone(self, monkeypatch):
        # a probe row that fails when solved alone fails the plan's shared probe call; the
        # steps then go one by one, and the error is the reference bisection's, naming the
        # tuple and theta of that row. fail_on_row sends every Hermite verdict to roots, under
        # which no crossing test is built, so both bisections get the test built before it
        steps = bisection_steps(*WIDENED)
        crossings = steps[0][0]
        args = next(args for args in steps if len(crossings([args[3]])[1]))
        batches, _ = probe_batches(monkeypatch, *args[:5])
        fail_on_row(monkeypatch, batches[0][0])
        monkeypatch.setattr(hinf, "level_crossings", lambda g_rows, f_rows: crossings)
        with pytest.raises(NoConvergenceError, match="^tuple [12]{4} at theta=") as reference:
            reference_bisection(*WIDENED)
        verdict, raised = hinf._crossing_verdict, []

        def recorded(crossings, g_rows, f_rows, deltas, *args):
            try:
                return verdict(crossings, g_rows, f_rows, deltas, *args)
            except NoConvergenceError:
                raised.append(len(deltas))
                raise

        monkeypatch.setattr(hinf, "_crossing_verdict", recorded)
        with pytest.raises(NoConvergenceError, match=f"^{re.escape(str(reference.value))}$"):
            family_norm_bisection(*WIDENED)
        assert raised[0] > 1  # the plan's shared probe call, then the step alone
        assert raised[1:] == [1]
