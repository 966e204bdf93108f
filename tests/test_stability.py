import numpy as np
import pytest

from conftest import np_root_margin
from intervalhinf import stability
from intervalhinf.errors import (DegenerateLeadingError, IntervalHinfError, NoConvergenceError,
                                 ZeroPolynomialError)
from intervalhinf.poly import RealPolynomial
from intervalhinf.stability import (
    HURWITZ_TOL,
    hurwitz_batch,
    is_hurwitz_complex,
    is_hurwitz_real,
    roots_batch,
    roots_complex,
)


def known_root_rows(rng, degree, spread, count):
    """Rows built from constructed roots: (rows, Hurwitz truth, pinned mask).

    Root magnitudes are log-uniform over 10^-spread..10^spread, at angles at
    least 0.05 rad inside the left half plane, times a random unit leading
    coefficient. About 30 % of rows get one root pinned 1e-9 to 1e-6 to either
    side of Re = -HURWITZ_TOL; half of the other rows get one root mirrored
    into the right half plane.
    """
    mags = 10.0 ** rng.uniform(-spread, spread, (count, degree))
    roots = mags * np.exp(1j * rng.uniform(np.pi / 2 + 0.05, 1.5 * np.pi - 0.05, (count, degree)))
    pinned = rng.random(count) < 0.3
    gaps = 10.0 ** rng.uniform(-9, -6, count) * rng.choice([-1.0, 1.0], count)
    roots[pinned, 0] = -HURWITZ_TOL + gaps[pinned] + 1j * roots[pinned, 0].imag
    mirrored = ~pinned & (rng.random(count) < 0.5)
    roots[mirrored, 0] = -roots[mirrored, 0].conj()
    rows = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (count, 1)))
    for r in roots.T:  # multiply by (s - r), ascending
        pad = np.zeros((count, 1))
        rows = np.hstack([pad, rows]) - r[:, None] * np.hstack([rows, pad])
    return rows, (roots.real < -HURWITZ_TOL).all(axis=1), pinned


class TestRouth:
    def test_first_order_stable(self):
        assert is_hurwitz_real(RealPolynomial([1, 1])).is_hurwitz

    def test_axis_roots_rejected(self):
        # (s+1)(s^2+1) has a pair on the imaginary axis
        assert not is_hurwitz_real(RealPolynomial([1, 1, 1, 1])).is_hurwitz

    def test_right_half_plane_pair(self):
        assert not is_hurwitz_real(RealPolynomial([1, -1, 1])).is_hurwitz

    def test_negative_leading_is_normalized(self):
        assert is_hurwitz_real(RealPolynomial([-2, -3, -1])).is_hurwitz

    def test_zero_polynomial_raises(self):
        with pytest.raises(ZeroPolynomialError):
            is_hurwitz_real(RealPolynomial([0, 0]))

    def test_verdict_carries_method(self):
        v = is_hurwitz_real(RealPolynomial([2, 3, 1]))
        assert v.method == "routh" and v.margin is None


class TestRootsComplex:
    def test_linear(self):
        rs = roots_complex([1 - 1j, 1])
        assert rs.roots[0] == pytest.approx(-1 + 1j)

    def test_factorable_quadratic(self):
        rs = roots_complex([2, 3, 1])
        assert sorted(r.real for r in rs.roots) == pytest.approx([-2.0, -1.0])
        assert rs.residual < 1e-10

    def test_double_root(self):
        rs = roots_complex([-1, -2j, 1])  # (s - j)^2
        for r in rs.roots:
            assert r == pytest.approx(1j, abs=1e-6)
        assert rs.residual < 1e-10

    def test_root_count_matches_degree(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            deg = int(rng.integers(1, 9))
            coeffs = rng.uniform(-5, 5, deg + 1) + 1j * rng.uniform(-5, 5, deg + 1)
            coeffs[-1] += 6.0  # keep the leading coefficient healthy
            rs = roots_complex(coeffs)
            assert len(rs.roots) == deg
            assert rs.residual < 1e-9

    def test_conjugate_closed_for_real_input(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            deg = int(rng.integers(2, 9))
            coeffs = rng.uniform(-5, 5, deg + 1)
            coeffs[-1] = np.sign(coeffs[-1] or 1.0) * (abs(coeffs[-1]) + 0.5)
            roots = list(roots_complex(coeffs).roots)
            while roots:
                r = roots.pop()
                match = min(roots, key=lambda q: abs(q - r.conjugate()), default=None)
                if abs(r.imag) < 1e-9:
                    continue
                assert match is not None
                assert abs(match - r.conjugate()) < 1e-9 * max(1.0, abs(r))
                roots.remove(match)

    def test_product_roots_are_union(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            dp, dq = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            p = rng.uniform(-2, 2, dp + 1) + 1j * rng.uniform(-2, 2, dp + 1)
            q = rng.uniform(-2, 2, dq + 1) + 1j * rng.uniform(-2, 2, dq + 1)
            p[-1] += 3.0
            q[-1] += 3.0
            combined = sorted(
                roots_complex(np.convolve(p, q)).roots,
                key=lambda z: (z.real, z.imag),
            )
            separate = sorted(
                list(roots_complex(p).roots) + list(roots_complex(q).roots),
                key=lambda z: (z.real, z.imag),
            )
            for a, b in zip(combined, separate):
                assert abs(a - b) < 1e-8 * max(1.0, abs(b))

    def test_zero_polynomial_raises(self):
        with pytest.raises(ZeroPolynomialError):
            roots_complex([0])

    def test_constant_raises(self):
        with pytest.raises(ValueError, match="degree"):
            roots_complex([2j, 0])
        with pytest.raises(ValueError, match="degree"):
            is_hurwitz_complex([3.0])

    def test_degenerate_leading_raises(self):
        with pytest.raises(DegenerateLeadingError):
            roots_complex([1.0, 1e-15])


class TestHurwitzComplex:
    def test_simple_stable(self):
        v = is_hurwitz_complex([1, 1])
        assert v.is_hurwitz and v.margin == pytest.approx(1.0)

    def test_axis_root_rejected(self):
        v = is_hurwitz_complex([-1j, 1])  # root at +j
        assert not v.is_hurwitz
        assert v.margin == pytest.approx(0.0, abs=1e-9)

    def test_constructed_left_half_plane(self):
        # (s+1)(s+1-j) = s^2 + (2-j)s + (1-j)
        v = is_hurwitz_complex([1 - 1j, 2 - 1j, 1])
        assert v.is_hurwitz and v.method == "roots"


class TestRouthRootsAgreement:
    def test_thousand_random_polynomials(self):
        # routes agree outside a 1e-7 root-margin dead zone
        rng = np.random.default_rng(37)
        borderline = 0
        for _ in range(1000):
            deg = int(rng.integers(1, 9))
            coeffs = rng.uniform(-5, 5, deg + 1)
            if abs(coeffs[-1]) < 0.1:  # discard near-singular leading coefficients
                coeffs[-1] = 0.1 * np.sign(coeffs[-1] or 1.0)
            p = RealPolynomial(coeffs)
            margin = np_root_margin(coeffs)
            if abs(margin) < 1e-7:
                borderline += 1
                continue
            routh = is_hurwitz_real(p).is_hurwitz
            roots = is_hurwitz_complex(coeffs, tol=1e-9).is_hurwitz
            assert routh == roots, f"disagreement on {coeffs} (margin {margin})"
        assert borderline < 50


class TestHurwitzBatch:
    def test_simple_rows(self):
        rows = np.array([[2, 3, 1], [1, -1, 1], [1 - 1j, 2 - 1j, 1], [-1j, 0, 1], [1, 0, 1],
                         [2, 3, 1]])
        assert hurwitz_batch(rows).tolist() == [True, False, True, False, False, True]

    def test_dead_zone_edge(self):
        # root at -c: Hurwitz exactly when c > HURWITZ_TOL
        rows = np.array([[c, 1.0] for c in (1e-8, 1.0000001e-9, 0.9999999e-9, 1e-10, 0.0)])
        assert hurwitz_batch(rows).tolist() == [True, True, False, False, False]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="n >= 1"):
            hurwitz_batch(np.ones((3, 1)))
        with pytest.raises(ValueError, match="finite"):
            hurwitz_batch(np.array([[1.0, np.nan]]))

    def test_fallback_failure_names_its_row(self, monkeypatch):
        def failing(coeffs, **kwargs):
            raise NoConvergenceError("stub")

        monkeypatch.setattr(stability, "HERMITE_ROUNDOFF", np.inf)  # every row falls back
        monkeypatch.setattr(stability, "roots_batch", failing)
        with pytest.raises(NoConvergenceError, match="^row 0: stub$") as info:
            hurwitz_batch(np.array([[2.0, 3.0, 1.0], [2.0, 3.0, 1.0]]))
        assert info.value.row == 0 and str(info.value.__cause__) == "stub"

    @pytest.mark.parametrize("spread", [1, 2])
    def test_known_roots_agree_with_construction(self, monkeypatch, spread):
        # 2,000 rows per degree 4..14; the verdict equals the constructed
        # truth on every row, and only pinned rows are left to roots. A
        # pinned row whose roots cannot be found raises, naming its row.
        solved = []

        def recorded(coeffs, **kwargs):
            solved.append(np.asarray(coeffs)[0].tobytes())
            return roots_batch(coeffs, **kwargs)

        monkeypatch.setattr(stability, "roots_batch", recorded)
        rng = np.random.default_rng(4100 + spread)
        for degree in range(4, 15):
            rows, truth, pinned = known_root_rows(rng, degree, spread, 2000)
            solved.clear()
            got = np.zeros(len(rows), dtype=bool)
            raised, start = [], 0
            while start < len(rows):
                try:
                    got[start:] = hurwitz_batch(rows[start:])
                    break
                except IntervalHinfError as err:
                    k = start + err.row
                    assert str(err).startswith(f"row {err.row}: ")
                    if k > start:  # every row below the named one has a verdict
                        got[start:k] = hurwitz_batch(rows[start:k])
                    raised.append(k)
                    start = k + 1
            index = {row.tobytes(): i for i, row in enumerate(rows)}
            fell_back = sorted({index[b] for b in solved})
            assert pinned[fell_back].all(), (degree, [i for i in fell_back if not pinned[i]])
            assert pinned[raised].all()
            decided = np.ones(len(rows), dtype=bool)
            decided[raised] = False
            wrong = np.flatnonzero(decided & (got != truth))
            assert len(wrong) == 0, (degree, wrong)
