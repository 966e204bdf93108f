import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import reference_multiply_rows
from intervalhinf.hinf import (check_gamma_equivalence, family_norm_bisection, hinf_norm_grid,
                               sensitivity)
from intervalhinf.interval import IntervalPolynomial
from intervalhinf.poly import (RealPolynomial, distinct_rows, eval_at_jomega, eval_many,
                               magnitude_squared, multiply_rows)
from intervalhinf.stability import is_hurwitz_complex, roots_complex
from intervalhinf.valueset import (family_complex_stability, octagon, sweep_octagons,
                                  zero_exclusion_sweep)

coeff = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
coeff_lists = st.lists(coeff, min_size=1, max_size=9)


def scalar_eval_at_jomega(coeffs: tuple, omega: float) -> complex:
    """The one-polynomial evaluator rows replaced, kept as the reference."""
    def horner(cs, s):
        acc = cs[-1]
        for c in reversed(cs[:-1]):
            acc = acc * s + c
        return acc

    u = -(omega * omega)
    return complex(horner(coeffs[0::2], u), omega * horner(coeffs[1::2] or (0.0,), u))


class TestEvalAtJOmega:
    def test_linear(self):
        assert eval_at_jomega([[1, 1]], [[1.0]]).tolist() == [[1 + 1j]]

    def test_pure_square(self):
        assert eval_at_jomega([[0, 0, 1]], [[2.0]]).tolist() == [[-4 + 0j]]

    def test_cubic(self):
        assert eval_at_jomega([[4, 3, 2, 1]], [[1.0]])[0, 0] == pytest.approx(2 + 2j)

    def test_complex_polynomial_uses_horner(self):
        # complex coefficients are a row for the batched Horner evaluation
        omega = 0.75
        value = eval_many(np.array([[1 - 1j, 2j]]), np.array([[1j * omega]]))[0, 0]
        assert value == pytest.approx(2j * (1j * omega) + (1 - 1j))

    @given(coeff_lists, st.floats(-1e3, 1e3, allow_nan=False))
    def test_conjugate_symmetry(self, coeffs, omega):
        left, right = eval_at_jomega([coeffs, coeffs], [[-omega], [omega]])[:, 0]
        assert left == pytest.approx(right.conjugate(), rel=1e-12, abs=1e-300)

    def test_rows_equal_scalar_reference(self):
        # 2,016 seeded rows of width 1-16 (trailing and interior zeros, -0.0
        # coefficients, constants) at 6 frequencies each, among them +0.0 and
        # -0.0: every real and imaginary part is bitwise the reference's
        rng = np.random.default_rng(9901)
        checked = 0
        for width in range(1, 17):
            rows = rng.uniform(-5, 5, (126, width))
            rows[rng.random(rows.shape) < 0.2] = 0.0
            rows[rng.random(rows.shape) < 0.05] = -0.0
            rows[:10, 1:] = 0.0  # constants padded to the width
            omegas = np.hstack([np.zeros((126, 1)), np.full((126, 1), -0.0),
                                rng.uniform(-3, 3, (126, 2)),
                                10.0 ** rng.uniform(-8, 3, (126, 2)) * rng.choice([1, -1], (126, 2))])
            got = eval_at_jomega(rows, omegas)
            want = np.array([[scalar_eval_at_jomega(tuple(row.tolist()), om) for om in oms]
                             for row, oms in zip(rows, omegas.tolist())])
            assert got.shape == (126, 6)
            assert (got.view(np.uint64) == want.view(np.uint64)).all(), width
            checked += got.size
        assert checked == 2016 * 6


def horner(row: list, z):
    """Python Horner from the top coefficient, the reference for eval_many."""
    acc = row[-1]
    for c in reversed(row[:-1]):
        acc = acc * z + c
    return acc


class TestEvalMany:
    def test_real_rows_at_real_points_stay_real(self):
        # float64 out, and each value bitwise the Python float Horner's
        rng = np.random.default_rng(2001)
        rows, points = rng.uniform(-5, 5, (40, 8)), rng.uniform(-3, 3, (40, 5))
        rows[:5, 1:] = 0.0
        got = eval_many(rows, points)
        want = np.array([[horner(row, x) for x in xs]
                         for row, xs in zip(rows.tolist(), points.tolist())])
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    def test_stacked_rows_broadcast_against_points(self):
        # (2, B, d+1) rows at (B, k) points: each stack is its (B, d+1) call, bitwise
        rng = np.random.default_rng(2002)
        rows = rng.uniform(-5, 5, (2, 6, 5))
        points = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        got = eval_many(rows, points)
        assert got.shape == (2, 6, 3) and got.dtype == complex
        for stack, part in zip(rows, got):
            assert part.tobytes() == eval_many(stack, points).tobytes()
            want = [[horner(row, z) for z in zs] for row, zs in zip(stack.tolist(), points.tolist())]
            np.testing.assert_allclose(part, want, rtol=1e-13)

    def test_vertex_rows_at_frequencies_equal_the_broadcast_call(self):
        # (4, d+1) rows at (F,) points on the jw axis are bitwise the out-of-place kernel
        # called with the points broadcast to (4, F)
        rng = np.random.default_rng(2003)
        rows, z = rng.uniform(-5, 5, (4, 7)), 1j * np.sinh(np.linspace(-6, 6, 501))
        zb = np.broadcast_to(z, (4, len(z)))
        want = np.broadcast_to(rows[:, -1:], zb.shape).astype(complex)
        for k in range(rows.shape[1] - 2, -1, -1):
            want = want * zb + rows[:, k : k + 1]
        assert eval_many(rows, z).tobytes() == want.tobytes()


class TestEvenOddSplit:
    # p(jw) = alpha(-w^2) + jw beta(-w^2): alpha holds the even, beta the odd coefficients
    def test_quadratic(self):
        # alpha(u) = 1 + 3u, beta(u) = 2
        assert eval_at_jomega([[1, 2, 3]], [[2.0]])[0, 0] == complex(1 - 3 * 4, 2 * 2)

    def test_pure_quintic(self):
        # alpha = 0, beta(u) = u^2
        z = eval_at_jomega([[0, 0, 0, 0, 0, 1]], [[2.0]])[0, 0]
        assert z == 32j
        assert math.copysign(1.0, z.real) == 1.0

    def test_constant(self):
        # the missing odd half counts as 0.0: Im = omega * 0.0 keeps omega's sign
        z = eval_at_jomega([[7]], [[2.0, -2.0]])[0]
        assert z.tolist() == [7, 7]
        assert np.signbit(z.imag).tolist() == [False, True]
        assert magnitude_squared([[7]]).tolist() == [[49.0]]


class TestMagnitudeSquared:
    def test_first_order(self):
        assert magnitude_squared([[1, 1]]).tolist() == [[1.0, 1.0]]

    def test_second_order(self):
        assert magnitude_squared([[1, 1, 1]]).tolist() == [[1.0, -1.0, 1.0]]

    def test_no_constant_term(self):
        assert magnitude_squared([[0, 1, 1]]).tolist() == [[0.0, 1.0, 1.0]]

    def test_degree_preserved(self):
        p = RealPolynomial([3, -2, 0, 5])
        assert RealPolynomial(magnitude_squared([p.coeffs])[0]).degree == p.degree

    def test_matches_evaluation_on_random_inputs(self):
        # |p(jw)|^2 == M(w^2) within relative 1e-12, 1000 seeded draws in one batch; each
        # row's M is bitwise the M of that row alone
        rng = np.random.default_rng(101)
        rows, omegas = np.zeros((1000, 9)), np.zeros((1000, 1))
        for row, omega in zip(rows, omegas):
            deg = int(rng.integers(0, 9))
            row[: deg + 1] = rng.uniform(-5, 5, deg + 1)
            omega[0] = rng.uniform(-10, 10)
        direct = np.abs(eval_at_jomega(rows, omegas)[:, 0]) ** 2
        batch = magnitude_squared(rows)
        for row, omega, value, m in zip(rows, omegas[:, 0], direct, batch):
            assert np.array_equal(m, magnitude_squared(row[None, :])[0])
            viaM = np.polynomial.polynomial.polyval(omega * omega, m)
            assert viaM == pytest.approx(value, rel=1e-12, abs=1e-12)


class TestMultiplyRows:
    def test_equals_loop_reference_and_convolve(self):
        # each coefficient sums p_i * q_(k-i) in ascending i, bitwise as the loop reference, and
        # row by row as the row alone; np.convolve sums in another order, so it agrees within
        # 1e-14 of the product of the coefficients' magnitudes
        rng = np.random.default_rng(103)
        for a, b in ((1, 1), (1, 4), (3, 7), (8, 8), (15, 15)):
            p = rng.normal(size=(40, a)) * 10.0 ** rng.uniform(-3, 3, (40, a))
            q = rng.normal(size=(40, b)) * 10.0 ** rng.uniform(-3, 3, (40, b))
            out = multiply_rows(p, q)
            assert out.tobytes() == reference_multiply_rows(p, q).tobytes()
            for row, x, y in zip(out, p, q):
                assert row.tobytes() == multiply_rows(x[None, :], y[None, :])[0].tobytes()
                bound = 1e-14 * np.convolve(np.abs(x), np.abs(y))
                assert (np.abs(row - np.convolve(x, y)) <= bound).all()

    def test_complex_rows_follow_the_same_loop(self):
        # complex rows take the same layout and summation order as real ones, in complex
        rng = np.random.default_rng(109)
        for a, b in ((1, 3), (5, 5), (9, 4)):
            p = rng.normal(size=(30, a)) + 1j * rng.normal(size=(30, a))
            for q in (rng.normal(size=(30, b)) + 1j * rng.normal(size=(30, b)),
                      rng.normal(size=(30, b))):
                out = multiply_rows(p, q)
                assert out.dtype == complex
                assert out.tobytes() == reference_multiply_rows(p, q).tobytes()


    @pytest.mark.parametrize("count", [1, 2, 24, 565, 1130])
    def test_batch_last_layout_equals_the_shifted_row_loop(self, count):
        # bitwise the loop over shifted rows at every batch size, from one row to the oracle's
        # batches, real and complex, with +-0.0 among the coefficients
        rng = np.random.default_rng(count)
        for a, b in ((1, 1), (1, 4), (4, 1), (7, 7), (15, 15), (29, 14), (14, 29)):
            p, q = rng.normal(size=(2, count, max(a, b)))
            p, q = p[:, :a], q[:, :b]
            p[rng.random(p.shape) < 0.2] = -0.0
            q[rng.random(q.shape) < 0.2] = 0.0
            q[rng.random(q.shape) < 0.1] = -0.0
            for x, y in ((p, q), (p + 1j * p[:, ::-1], q), (p, q - 1j * q[:, ::-1])):
                out = multiply_rows(x, y)
                assert out.shape == (count, a + b - 1) and out.dtype == np.result_type(x, y)
                assert out.tobytes() == reference_multiply_rows(x, y).tobytes()


class TestDistinctRows:
    def test_one_row_is_its_own_first_without_a_sort(self):
        # the one-row return has the dtype np.unique's indices have for any larger batch
        first, inverse = distinct_rows(np.array([[1.0, 2.0, 3.0]]))
        many = distinct_rows(np.array([[1.0, 2.0, 3.0], [0.0, 2.0, 3.0], [1.0, 2.0, 3.0]]))
        assert first.tolist() == inverse.tolist() == [0]
        assert many[0].tolist() == [1, 0] and many[1].tolist() == [1, 0, 1]
        assert first.dtype == inverse.dtype == many[0].dtype == many[1].dtype == np.intp


class TestArithmetic:
    def test_degree_tracks_trailing_zeros(self):
        assert RealPolynomial([1, 2, 0, 0]).degree == 1
        assert RealPolynomial([0]).degree == -1


class TestValidation:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            RealPolynomial([1.0, math.inf])
        with pytest.raises(ValueError):
            roots_complex([1.0, complex(0, math.nan)])
        with pytest.raises(ValueError):
            is_hurwitz_complex([complex(math.inf, 0), 1.0])


PLANT = (RealPolynomial([1]), RealPolynomial([0, 1, 1]))
POINT = (IntervalPolynomial([1], [1]), IntervalPolynomial([0, 1, 1], [0, 1, 1]))
WIDENED = (IntervalPolynomial([0.4, 0.1], [0.6, 0.2]),
           IntervalPolynomial([0.9, 2.7, 3.4, 2.0, 1.0], [1.1, 3.3, 4.0, 2.4, 1.0]))

# each direct entry point's count and width arguments, applied by poly.check_count and
# poly.check_width: (argument, least count or None for a width, a good value, the call)
ARGUMENTS = {
    "grid points": ("points", 2, 50, lambda v: hinf_norm_grid(sensitivity(*PLANT), 10.0, v)),
    "grid omega_max": ("omega_max", None, 10,
                       lambda v: hinf_norm_grid(sensitivity(*PLANT), v, 50)),
    "gamma theta_count": ("theta_count", 1, 36,
                          lambda v: check_gamma_equivalence(*PLANT, 1.5, theta_count=v)),
    "bisection theta_count": ("theta_count", 1, 36,
                              lambda v: family_norm_bisection(*POINT, 1e-3, theta_count=v)),
    "bisection tol": ("tol", None, 1, lambda v: family_norm_bisection(*POINT, v, 36)),
    "sweep_octagons points": ("points", 2, 20,
                              lambda v: list(sweep_octagons(*WIDENED, 0.5, 0.7, 30.0, v))),
    "sweep_octagons omega_max": ("omega_max", None, 30,
                                 lambda v: list(sweep_octagons(*WIDENED, 0.5, 0.7, v, 20))),
    "zero_exclusion_sweep points": ("points", 2, 50,
                                    lambda v: zero_exclusion_sweep(*WIDENED, 0.5, 0.7, 100.0, v)),
    "zero_exclusion_sweep omega_max": ("omega_max", None, 100,
                                       lambda v: zero_exclusion_sweep(*WIDENED, 0.5, 0.7, v, 50)),
}


def outcome(call, value):
    """The call's result, or the message of the ValueError it raised."""
    try:
        return call(value)
    except ValueError as err:
        return str(err)


# entry points that take a float: (the call, what it gives for inf); an int too large for a
# float must give the same
HUGE = {
    "RealPolynomial": (lambda v: RealPolynomial([v]), "non-finite coefficient at power 0: inf"),
    "RealPolynomial negative": (lambda v: RealPolynomial([1, -v]),
                                "non-finite coefficient at power 1: -inf"),
    "IntervalPolynomial": (lambda v: IntervalPolynomial([v], [v]), "non-finite bound at power 0"),
    "octagon omega": (lambda v: octagon(*WIDENED, 0.5, 0.3, v), "omega must be finite, got inf"),
    "family_complex_stability theta": (lambda v: family_complex_stability(*WIDENED, 0.5, v),
                                       "theta must be finite, got inf"),
    "sweep_octagons theta": (lambda v: list(sweep_octagons(*WIDENED, 0.5, v, 30.0, 20)),
                             "theta must be finite, got inf"),
    "zero_exclusion_sweep theta": (lambda v: zero_exclusion_sweep(*WIDENED, 0.5, v, 100.0, 50),
                                   "theta must be finite, got inf"),
    "check_gamma_equivalence gamma": (lambda v: check_gamma_equivalence(*PLANT, v), True),
}


@pytest.mark.parametrize("entry", HUGE)
def test_int_too_large_for_a_float_counts_as_inf(entry):
    call, expected = HUGE[entry]
    assert outcome(call, math.inf) == expected
    assert outcome(call, 10**400) == expected


class TestCountAndWidth:
    @pytest.mark.parametrize("entry", ARGUMENTS)
    def test_integer_types_give_the_int_result(self, entry):
        _, least, good, call = ARGUMENTS[entry]
        expected = call(good)
        for value in (np.int64(good), float(good), np.float64(good)):
            assert call(value) == expected, repr(value)

    @pytest.mark.parametrize("entry", ARGUMENTS)
    def test_bad_values_raise_the_shared_message(self, entry):
        name, least, _, call = ARGUMENTS[entry]
        if least is None:
            bad, message = (0, -1, math.nan, math.inf, 10**400, True, "1"), "a finite float > 0"
        else:
            bad, message = (True, 2.5, least - 1, "3"), f"an integer >= {least}"
        for value in bad:
            with pytest.raises(ValueError, match=f"^{name}: expected {message}$"):
                call(value)
