import math
import re

import numpy as np
import pytest

from conftest import fail_on_row, random_stable_plant
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
from intervalhinf.interval import IntervalPolynomial
from intervalhinf.poly import RealPolynomial, eval_at_jomega
from intervalhinf.stability import roots_batch
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


def padded(coeffs, width):
    row = np.zeros(width)
    row[: len(coeffs)] = coeffs
    return row


class TestNormBatch:
    def test_each_row_equals_its_row_alone(self, monkeypatch):
        # degrees 2-8 give several stationarity lengths, the degree-3 ones more
        # than one roots_batch chunk; duplicates and a num = den row (no
        # stationary point) ride along; == on NormResult compares every float
        rng = np.random.default_rng(67)
        nums, dens, degrees = [], [], set()
        for k in range(320):
            g, f = random_stable_plant(rng, n_min=3 if k < 200 else 2,
                                       n_max=3 if k < 200 else 8)
            rf = sensitivity(g, f)
            nums.append(padded(rf.num.coeffs, 9))
            dens.append(padded(rf.den.coeffs, 9))
            degrees.add(f.degree)
        for k in (0, 5, 5, 17):
            nums.append(nums[k])
            dens.append(dens[k])
        nums.append(padded([1.0, 2.0, 1.0], 9))
        dens.append(nums[-1])
        order = rng.permutation(len(nums))
        nums, dens = np.array(nums)[order], np.array(dens)[order]
        assert degrees == set(range(2, 9))

        sizes = []
        def sized(coeffs):
            sizes.append(len(coeffs))
            return roots_batch(coeffs)

        monkeypatch.setattr(stability, "roots_batch", sized)
        batch = hinf_norm_batch(nums, dens)
        assert max(sizes) == hinf._NORM_CHUNK and len(sizes) > 2
        alone = [hinf_norm_batch(n[None, :], d[None, :])[0] for n, d in zip(nums, dens)]
        assert batch == alone
        assert batch[list(order).index(len(order) - 1)].value == 1.0

    def test_empty_batch(self):
        assert hinf_norm_batch(np.zeros((0, 3)), np.zeros((0, 3))) == []

    def test_one_routh_call_over_the_distinct_denominators(self, monkeypatch):
        seen = []

        def recorded(rows):
            seen.append(np.asarray(rows).tolist())
            return stability.is_hurwitz_real(rows)

        monkeypatch.setattr(hinf, "is_hurwitz_real", recorded)
        nums = [[0.0, 1.0, 1.0]] * 4
        dens = [[1.0, 1.0, 1.0], [2.0, 1.0, 1.0], [1.0, 1.0, 1.0], [3.0, 1.0, 1.0]]
        hinf_norm_batch(nums, dens)
        assert len(seen) == 1 and sorted(seen[0]) == sorted([dens[0], dens[1], dens[3]])

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
    ])
    def test_failure_names_the_lowest_failing_row(self, bad, row, error):
        nums = [[0.0, 1.0, 1.0]] * 6
        dens = [[1.0 + 0.1 * k, 1.0, 1.0] for k in range(6)]
        for k, den in bad.items():
            dens[k] = den
        with pytest.raises(error, match=f"^row {row}: ") as info:
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
            with pytest.raises(ValueError, match="omega_max"):
                hinf_norm_grid(rf, omega_max, 10)
        for points in (True, 2.5, 1, 0, -3, "10"):
            with pytest.raises(ValueError, match="points"):
                hinf_norm_grid(rf, 10.0, points)
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
        with pytest.raises(UnstableClosedLoopError):
            check_gamma_equivalence(RealPolynomial([1]), RealPolynomial([0, -1, 1]), 2.0)

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

    def test_unit_norm_plant_lands_in_tol_band(self):
        kg = IntervalPolynomial([1], [1])
        kf = IntervalPolynomial([1, 1], [1, 1])
        val = family_norm_bisection(kg, kf, tol=1e-4, theta_count=360)
        assert 1.0 <= val <= 1.0 + 2e-4

    def test_tolerance_must_be_finite_and_positive(self):
        kg = IntervalPolynomial([1], [1])
        kf = IntervalPolynomial([0, 1, 1], [0, 1, 1])
        for tol in (math.nan, math.inf, 0.0, -1e-4):
            with pytest.raises(ValueError, match="tolerance"):
                family_norm_bisection(kg, kf, tol=tol)

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
        kg = IntervalPolynomial([0.4, 0.1], [0.6, 0.2])
        kf = IntervalPolynomial([0.9, 2.7, 3.4, 2.0, 1.0], [1.1, 3.3, 4.0, 2.4, 1.0])
        theta = hinf._theta_grid(720)[2]
        g_rows, f_rows = tuple_rows(kg, kf, TWELVE_TUPLES[5:6])
        fail_on_row(monkeypatch, perturbed_vertex_rows(g_rows, f_rows, 0.5, np.array([theta]))[0])
        with pytest.raises(NoConvergenceError,
                           match=f"^tuple 1222 at theta={re.escape(str(theta))}: stub$"):
            family_norm_bisection(kg, kf)

    def test_gamma_equivalence_names_theta(self, monkeypatch):
        g, f = RealPolynomial([1]), RealPolynomial([0, 1, 1])
        theta = hinf._theta_grid(720)[100]  # in the third 48-theta chunk
        fail_on_row(monkeypatch, np.array([1.0, 0.0, 0.0]) + (1 + np.exp(1j * theta) / 2)
                    * np.array([0.0, 1.0, 1.0]))
        with pytest.raises(NoConvergenceError, match=f"^theta={re.escape(str(theta))}: stub$"):
            check_gamma_equivalence(g, f, 2.0)
