import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from intervalhinf.poly import RealPolynomial, add, eval_at_jomega, eval_many, magnitude_squared
from intervalhinf.stability import is_hurwitz_complex, roots_complex

coeff = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
coeff_lists = st.lists(coeff, min_size=1, max_size=9)


class TestEvalAtJOmega:
    def test_linear(self):
        assert eval_at_jomega(RealPolynomial([1, 1]), 1.0) == 1 + 1j

    def test_pure_square(self):
        assert eval_at_jomega(RealPolynomial([0, 0, 1]), 2.0) == -4 + 0j

    def test_cubic(self):
        p = RealPolynomial([4, 3, 2, 1])
        assert eval_at_jomega(p, 1.0) == pytest.approx(2 + 2j)

    def test_complex_polynomial_uses_horner(self):
        # complex coefficients are a row for the batched Horner evaluation
        omega = 0.75
        value = eval_many(np.array([[1 - 1j, 2j]]), np.array([[1j * omega]]))[0, 0]
        assert value == pytest.approx(2j * (1j * omega) + (1 - 1j))

    @given(coeff_lists, st.floats(-1e3, 1e3, allow_nan=False))
    def test_conjugate_symmetry(self, coeffs, omega):
        p = RealPolynomial(coeffs)
        left = eval_at_jomega(p, -omega)
        right = eval_at_jomega(p, omega).conjugate()
        assert left == pytest.approx(right, rel=1e-12, abs=1e-300)


class TestEvenOddSplit:
    # p(jw) = alpha(-w^2) + jw beta(-w^2): alpha holds the even, beta the odd coefficients
    def test_quadratic(self):
        # alpha(u) = 1 + 3u, beta(u) = 2
        assert eval_at_jomega(RealPolynomial([1, 2, 3]), 2.0) == complex(1 - 3 * 4, 2 * 2)

    def test_pure_quintic(self):
        # alpha = 0, beta(u) = u^2
        z = eval_at_jomega(RealPolynomial([0, 0, 0, 0, 0, 1]), 2.0)
        assert z == 32j
        assert math.copysign(1.0, z.real) == 1.0

    def test_constant(self):
        # the missing odd half counts as 0.0: Im = omega * 0.0 keeps omega's sign
        for omega in (2.0, -2.0):
            z = eval_at_jomega(RealPolynomial([7]), omega)
            assert z == 7
            assert math.copysign(1.0, z.imag) == math.copysign(1.0, omega)
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
        for _ in range(1000):
            deg = int(rng.integers(0, 9))
            p = RealPolynomial(rng.uniform(-5, 5, deg + 1))
            omega = float(rng.uniform(-10, 10))
            direct = abs(eval_at_jomega(p, omega)) ** 2
            viaM = np.polynomial.polynomial.polyval(omega * omega, magnitude_squared(p.coeffs))
            assert viaM == pytest.approx(direct, rel=1e-12, abs=1e-12)


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
