import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from intervalhinf.poly import RealPolynomial, add, eval_at_jomega, eval_many, magnitude_squared
from intervalhinf.stability import is_hurwitz_complex, roots_complex

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
        assert magnitude_squared([7]).tolist() == [49.0, 0.0]


class TestMagnitudeSquared:
    def test_first_order(self):
        assert magnitude_squared([1, 1]).tolist() == [1.0, 1.0]

    def test_second_order(self):
        assert magnitude_squared([1, 1, 1]).tolist() == [1.0, -1.0, 1.0]

    def test_no_constant_term(self):
        assert magnitude_squared([0, 1, 1]).tolist() == [0.0, 1.0, 1.0]

    def test_degree_preserved(self):
        p = RealPolynomial([3, -2, 0, 5])
        assert RealPolynomial(magnitude_squared(p.coeffs)).degree == p.degree

    def test_matches_evaluation_on_random_inputs(self):
        # |p(jw)|^2 == M(w^2) within relative 1e-12, 1000 seeded draws
        rng = np.random.default_rng(101)
        rows, omegas = np.zeros((1000, 9)), np.zeros((1000, 1))
        for row, omega in zip(rows, omegas):
            deg = int(rng.integers(0, 9))
            row[: deg + 1] = rng.uniform(-5, 5, deg + 1)
            omega[0] = rng.uniform(-10, 10)
        direct = np.abs(eval_at_jomega(rows, omegas)[:, 0]) ** 2
        for row, omega, value in zip(rows, omegas[:, 0], direct):
            viaM = np.polynomial.polynomial.polyval(omega * omega, magnitude_squared(row))
            assert viaM == pytest.approx(value, rel=1e-12, abs=1e-12)


class TestArithmetic:
    def test_add(self):
        assert add(RealPolynomial([1, 1]), RealPolynomial([-1, 1])).coeffs == (0.0, 2.0)

    def test_add_mixed_lengths(self):
        out = add(RealPolynomial([1]), RealPolynomial([0, 0, 3]))
        assert out.coeffs == (1.0, 0.0, 3.0)

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
