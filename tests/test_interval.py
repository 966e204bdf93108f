import numpy as np
import pytest

from intervalhinf.interval import (
    IntervalPolynomial,
    kharitonov_vertices,
    sample_many,
    vertex_rows,
)
from intervalhinf.poly import eval_at_jomega, eval_many


def box(lower, upper):
    return IntervalPolynomial(lower, upper)


def vertex_values(family, omega):
    """p11, p12, p21, p22 at j*omega, evaluated from the vertex rows."""
    return eval_many(vertex_rows(family), np.full((4, 1), 1j * omega))[:, 0]


def value_box(family, omega):
    """(re_lo, re_hi, im_lo, im_hi) of the rectangle the four vertex values span."""
    v = vertex_values(family, omega)
    return v.real.min(), v.real.max(), v.imag.min(), v.imag.max()


def in_box(family, coeffs):
    """Coefficientwise membership of each row in the family's bound arrays."""
    return ((np.array(family.lower) <= coeffs) & (coeffs <= np.array(family.upper))).all(axis=-1)


class TestKharitonovVertices:
    def test_point_intervals_collapse(self):
        k = box([1, 2, 3], [1, 2, 3])
        ks = kharitonov_vertices(k)
        for v in ks.all_vertices():
            assert v.coeffs == (1.0, 2.0, 3.0)

    def test_degree_two_box(self):
        ks = kharitonov_vertices(box([1, 3, 5], [2, 4, 6]))
        assert ks.p11.coeffs == (1.0, 3.0, 6.0)
        assert ks.p12.coeffs == (1.0, 4.0, 6.0)
        assert ks.p21.coeffs == (2.0, 3.0, 5.0)
        assert ks.p22.coeffs == (2.0, 4.0, 5.0)

    def test_degree_three_unit_box(self):
        ks = kharitonov_vertices(box([0, 0, 0, 0], [1, 1, 1, 1]))
        assert ks.p11.coeffs == (0.0, 0.0, 1.0, 1.0)
        assert ks.p11.coeffs[0::2] == (0.0, 1.0)  # alpha^(1)
        assert ks.p11.coeffs[1::2] == (0.0, 1.0)  # beta^(1)

    def test_vertices_are_members(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            lo = rng.uniform(-3, 3, int(rng.integers(1, 8)))
            hi = lo + rng.uniform(0, 2, len(lo))
            k = box(lo, hi)
            assert in_box(k, vertex_rows(k)).all()


class TestValueRectangle:
    def test_point_intervals_give_single_point(self):
        k = box([1, 2, 3], [1, 2, 3])
        z = eval_at_jomega([[1, 2, 3]], [[1.3]])[0, 0]
        for v in vertex_values(k, 1.3):
            assert v == pytest.approx(z)

    def test_omega_zero_keeps_constant_term_only(self):
        assert value_box(box([1, 3, 5], [2, 4, 6]), 0.0) == (1.0, 2.0, 0.0, 0.0)

    def test_corners_are_vertex_evaluations_both_signs(self):
        # p11, p12 share alpha^(1) and p21, p22 alpha^(2); p11, p21 share
        # beta^(1) and p12, p22 beta^(2): the values are the rectangle's corners
        rng = np.random.default_rng(5)
        for _ in range(100):
            lo = rng.uniform(-3, 3, int(rng.integers(1, 8)))
            hi = lo + rng.uniform(0, 2, len(lo))
            k = box(lo, hi)
            omega = float(rng.uniform(-4, 4))
            re_lo, re_hi, im_lo, im_hi = value_box(k, omega)
            corners = [complex(re_lo, im_lo), complex(re_hi, im_lo),
                       complex(re_hi, im_hi), complex(re_lo, im_hi)]
            vertices = kharitonov_vertices(k).all_vertices()
            p11, p12, p21, p22 = evals = eval_at_jomega([v.coeffs for v in vertices],
                                                        np.full((4, 1), omega))[:, 0]
            for z in evals:
                assert min(abs(z - c) for c in corners) <= 1e-12 * max(1.0, abs(z))
            assert (p11.real, p21.real) == (p12.real, p22.real)
            assert (p11.imag, p12.imag) == (p21.imag, p22.imag)

    def test_monte_carlo_membership(self):
        # 1000 random members' evaluations stay inside the rectangle
        rng = np.random.default_rng(7)
        k = box([0.5, -1, 2, 0.1], [1.5, 1, 3, 0.4])
        for omega in (0.0, 0.7, -2.2, 5.0):
            re_lo, re_hi, im_lo, im_hi = value_box(k, omega)
            z = eval_at_jomega(sample_many(k, 250, rng), np.full((250, 1), omega))
            assert (re_lo - 1e-12 <= z.real).all() and (z.real <= re_hi + 1e-12).all()
            assert (im_lo - 1e-12 <= z.imag).all() and (z.imag <= im_hi + 1e-12).all()

    def test_halves_bounded_by_alternating_extremes(self):
        # alpha(-w^2) and beta(-w^2) of members between the vertex extremes, 1000 seeded draws
        rng = np.random.default_rng(11)
        k = box([0.5, -1, 2, 0.1, 0.3], [1.5, 1, 3, 0.4, 0.9])
        for coeffs in sample_many(k, 1000, rng):
            omega = float(rng.uniform(-5, 5))
            re_lo, re_hi, im_lo, im_hi = value_box(k, omega)
            z = eval_at_jomega([coeffs], [[omega]])[0, 0]  # alpha + j omega beta
            assert re_lo - 1e-12 <= z.real <= re_hi + 1e-12
            slack = 1e-12 * abs(omega)
            assert im_lo - slack <= z.imag <= im_hi + slack

    def test_negative_omega_mirrors_positive(self):
        k = box([0.5, -1, 2], [1.5, 1, 3])
        for omega in (0.4, 1.7, 3.0):
            pos = value_box(k, omega)
            neg = value_box(k, -omega)
            assert neg[:2] == pos[:2]
            assert neg[2:] == (-pos[3], -pos[2])


class TestSample:
    def test_point_family_is_deterministic(self):
        k = box([1, 2], [1, 2])
        assert sample_many(k, 1, np.random.default_rng(0)).tolist() == [[1.0, 2.0]]
        assert sample_many(k, 1, np.random.default_rng(999)).tolist() == [[1.0, 2.0]]

    def test_same_seed_same_draw(self):
        k = box([0, 0, 0], [1, 1, 1])
        a = sample_many(k, 1, np.random.default_rng(42))
        b = sample_many(k, 1, np.random.default_rng(42))
        assert a.tolist() == b.tolist()

    def test_draws_stay_in_box(self):
        rng = np.random.default_rng(13)
        k = box([-1, 0.5, -2], [1, 0.6, 7])
        assert in_box(k, sample_many(k, 200, rng)).all()


class TestSumFamily:
    def test_matched_vertex_identity_on_random_families(self):
        # the Kharitonov vertices of the coefficientwise interval sum equal the matched
        # vertex sums, which is why sum_family_hurwitz tests only the latter
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(0, n))
            flo = rng.uniform(-3, 3, n + 1)
            fhi = flo + rng.uniform(0, 2, n + 1)
            glo = rng.uniform(-3, 3, m + 1)
            ghi = glo + rng.uniform(0, 2, m + 1)
            kf, kg = box(flo, fhi), box(glo, ghi)
            pad = np.zeros(n - m)
            interval_sum = box(np.append(glo, pad) + flo, np.append(ghi, pad) + fhi)
            matched = vertex_rows(kg, n + 1) + vertex_rows(kf)
            assert np.array_equal(vertex_rows(interval_sum), matched)


class TestValidation:
    def test_rejects_crossed_bounds(self):
        with pytest.raises(ValueError, match="power 1"):
            box([0, 2], [1, 1])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            box([0, 1], [1])
