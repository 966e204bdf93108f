import itertools
import math

import numpy as np
import pytest

from conftest import (decline_crossings, np_root_margin, oracle_rows, perfbench_population,
                      reference_residuals, reference_routh)
from intervalhinf import hinf, stability
from intervalhinf.errors import (DegenerateLeadingError, IntervalHinfError, NoConvergenceError,
                                 ZeroPolynomialError)
from intervalhinf.interval import IntervalPolynomial
from intervalhinf.poly import distinct_rows, eval_many
from intervalhinf.stability import (
    HURWITZ_TOL,
    cut_roots,
    hurwitz_batch,
    is_hurwitz_complex,
    is_hurwitz_real,
    roots_batch,
    roots_complex,
    solve_rows,
)
from intervalhinf.theorem import AnalysisOptions, AnalysisProblem


def known_root_rows(rng, degree, spread, count, real=False, pin=(-9, -6)):
    """Rows built from constructed roots: (rows, Hurwitz truth, pinned mask).

    Root magnitudes are log-uniform over 10^-spread..10^spread, at angles at
    least 0.05 rad inside the left half plane, times a random unit leading
    coefficient. About 30 % of rows get one root pinned 10^pin[0] to 10^pin[1]
    to either side of Re = -HURWITZ_TOL; half of the other rows get one root
    mirrored into the right half plane.

    real=True closes the roots under conjugation, so each row is real: the
    roots drawn are the upper members of conjugate pairs, the first pair is the
    one pinned or mirrored, one negative real root is added at odd degree, and
    the leading coefficient is a random sign times 10^(-1..1).
    """
    drawn = degree // 2 if real else degree
    top = np.pi - 0.05 if real else 1.5 * np.pi - 0.05
    mags = 10.0 ** rng.uniform(-spread, spread, (count, drawn))
    roots = mags * np.exp(1j * rng.uniform(np.pi / 2 + 0.05, top, (count, drawn)))
    pinned = rng.random(count) < 0.3
    gaps = 10.0 ** rng.uniform(*pin, count) * rng.choice([-1.0, 1.0], count)
    roots[pinned, 0] = -HURWITZ_TOL + gaps[pinned] + 1j * roots[pinned, 0].imag
    mirrored = ~pinned & (rng.random(count) < 0.5)
    roots[mirrored, 0] = -roots[mirrored, 0].conj()
    truth = (roots.real < -HURWITZ_TOL).all(axis=1)
    if real:
        rows = rng.choice([-1.0, 1.0], (count, 1)) * 10.0 ** rng.uniform(-1, 1, (count, 1))
        pairs = [np.stack([np.abs(r) ** 2, -2.0 * r.real, np.ones(count)], axis=1)
                 for r in roots.T]
        reals = -(10.0 ** rng.uniform(-spread, spread, (count, degree % 2)))
        for factor in pairs + [np.stack([-r, np.ones(count)], axis=1) for r in reals.T]:
            rows = np.stack([np.convolve(a, b) for a, b in zip(rows, factor)])
        return rows, truth, pinned
    rows = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (count, 1)))
    for r in roots.T:  # multiply by (s - r), ascending
        pad = np.zeros((count, 1))
        rows = np.hstack([pad, rows]) - r[:, None] * np.hstack([rows, pad])
    return rows, truth, pinned


DEAD_ZONE_PIN = (-14, -9)  # real rows pinned this close hold Hermite dead-zone rows at every degree
_EIGVALSH = np.linalg.eigvalsh  # bound at import, so counting wrappers never see the reference


def scaled_hermite(coeffs):
    """Unit-diagonal Hermite matrices of the distinct rows as hurwitz_batch builds them,
    with distinct_rows' (first, inverse)."""
    rows = np.ascontiguousarray(coeffs, dtype=complex)
    first, inverse = distinct_rows(rows)
    K = stability._hermite_matrix(stability._taylor_shift(rows[first]))
    d = np.sqrt(np.abs(K.real.diagonal(axis1=1, axis2=2)))
    d[d == 0.0] = 1.0
    return K / (d[:, :, None] * d[:, None, :]), first, inverse


def eigvalsh_verdicts(coeffs):
    """hurwitz_batch's rule before the Cholesky confirmation, kept as the reference: the
    sign of every smallest eigenvalue, dead-zone rows by their roots from cut_roots (a root
    at 0 is not Hurwitz), lowest failure named."""
    rows = np.ascontiguousarray(coeffs, dtype=complex)
    scaled, first, inverse = scaled_hermite(rows)
    lam = _EIGVALSH(scaled)[:, 0]
    stable = lam > 0.0
    dead = np.flatnonzero(np.abs(lam) <= stability.HERMITE_ROUNDOFF)
    for u in sorted(dead, key=first.__getitem__):
        k = int(first[u])
        roots, zero, failed = cut_roots(rows[k : k + 1], np.zeros((1, rows.shape[1])))
        for _, err in failed:
            located = type(err)(f"row {k}: {err}")
            located.row = k
            raise located from err
        stable[u] = not zero[0] and np.nanmax(roots.real) < -HURWITZ_TOL
    return stable[inverse]


def smallest_eigenvalues(rows):
    scaled, _, inverse = scaled_hermite(rows)
    return _EIGVALSH(scaled)[:, 0][inverse]


def verdicts_or_errors(verdict, rows):
    """Each row's verdict by `verdict`, resuming past every row whose roots raise; such a
    row gets its error's type and message instead."""
    out, start = [], 0
    while start < len(rows):
        try:
            return out + verdict(rows[start:]).tolist()
        except IntervalHinfError as err:
            k = start + err.row
            out += verdict(rows[start:k]).tolist() if k > start else []
            out.append((type(err).__name__, str(err)))
            start = k + 1
    return out


@pytest.fixture
def memo_roots(monkeypatch):
    """roots_batch solving each distinct row once, so the reference and hurwitz_batch share it."""
    solve, memo = stability.roots_batch, {}

    def solved(coeffs):
        key = np.asarray(coeffs).tobytes()
        if key not in memo:
            try:
                memo[key] = solve(coeffs)
            except IntervalHinfError as err:
                memo[key] = err
        if isinstance(memo[key], IntervalHinfError):
            raise type(memo[key])(str(memo[key]))
        return memo[key]

    monkeypatch.setattr(stability, "roots_batch", solved)


@pytest.fixture
def counted(monkeypatch):
    """Calls hurwitz_batch makes to stability._positive_pivots, as (matrices, shift) each, and
    the number it makes to stability.roots_batch."""
    calls = {"pivots": [], "roots": 0}
    pivots, roots = stability._positive_pivots, stability.roots_batch

    def counting_pivots(K, shift):
        calls["pivots"].append((len(K), shift))
        return pivots(K, shift)

    def counting_roots(coeffs):
        calls["roots"] += 1
        return roots(coeffs)

    monkeypatch.setattr(stability, "_positive_pivots", counting_pivots)
    monkeypatch.setattr(stability, "roots_batch", counting_roots)
    return calls


SHIPPED_FAMILIES = {  # (kg, kf, pinned bisection value) of the shipped problems
    "point_plant": (IntervalPolynomial([1.0], [1.0]),
                    IntervalPolynomial([0.0, 1.0, 1.0], [0.0, 1.0, 1.0]), 1.4678649907665102),
    "widened_family": (IntervalPolynomial([0.4, 0.1], [0.6, 0.2]),
                       IntervalPolynomial([0.9, 2.7, 3.4, 2.0, 1.0],
                                          [1.1, 3.3, 4.0, 2.4, 1.0]), 1.6908264163247984),
}


def scalar_routh(coeffs, zero_pivots=None) -> bool:
    """The one-polynomial Routh test rows replaced, kept as the reference; a zero
    pivot is noted in `zero_pivots` when given."""
    d = max((i for i, c in enumerate(coeffs) if c != 0), default=-1)
    if d == -1:
        raise ZeroPolynomialError("stability of the zero polynomial is undefined")
    if d == 0:
        return True

    # an exact power of two puts the largest coefficient in [0.5, 1), as the batch does
    e = math.frexp(max(abs(float(c)) for c in coeffs))[1]
    desc = [math.ldexp(float(coeffs[i]), -e) for i in range(d, -1, -1)]
    if desc[0] < 0:
        desc = [-c for c in desc]

    width = (d + 2) // 2
    row_hi = desc[0::2] + [0.0] * (width - len(desc[0::2]))
    row_lo = desc[1::2] + [0.0] * (width - len(desc[1::2]))
    first_column = [row_hi[0], row_lo[0]]
    for _ in range(d - 1):
        pivot = row_lo[0]
        if pivot == 0.0:
            if zero_pivots is not None:
                zero_pivots.append(d)
            return False
        nxt = [
            (pivot * row_hi[i + 1] - row_hi[0] * row_lo[i + 1]) / pivot
            for i in range(width - 1)
        ] + [0.0]
        row_hi, row_lo = row_lo, nxt
        first_column.append(nxt[0])
    return all(entry > 0.0 for entry in first_column[: d + 1])


class TestRouth:
    def test_first_order_stable(self):
        assert is_hurwitz_real([[1, 1]]).tolist() == [True]

    def test_axis_roots_rejected(self):
        # (s+1)(s^2+1) has a pair on the imaginary axis
        assert is_hurwitz_real([[1, 1, 1, 1]]).tolist() == [False]

    def test_right_half_plane_pair(self):
        assert is_hurwitz_real([[1, -1, 1]]).tolist() == [False]

    def test_negative_leading_is_normalized(self):
        assert is_hurwitz_real([[-2, -3, -1]]).tolist() == [True]

    def test_zero_polynomial_raises(self):
        with pytest.raises(ZeroPolynomialError):
            is_hurwitz_real([[0, 0]])
        with pytest.raises(ZeroPolynomialError):
            is_hurwitz_real([[2, 3, 1], [0, 0, 0]])

    def test_rows_keep_their_own_degree(self):
        # one batch: a constant, a negative constant, trailing zeros, and the rows above
        rows = [[7, 0, 0, 0], [-3, 0, 0, 0], [2, 3, 1, 0], [1, -1, 1, 0], [1, 1, 1, 1],
                [-2, -3, -1, 0], [1, 1, 0, 0]]
        assert is_hurwitz_real(rows).tolist() == [True, True, True, False, False, True, True]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="finite"):
            is_hurwitz_real([[1.0, np.nan]])
        with pytest.raises(ValueError, match="rows"):
            is_hurwitz_real([1.0, 1.0])
        assert is_hurwitz_real(np.zeros((0, 3))).tolist() == []

    def test_rows_equal_scalar_reference(self):
        # 24,000 seeded rows of degree 0-14 padded to 17 columns: uniform, small-integer
        # (zero pivots), negative-leading, decade-spread and overflowing (1e+-300)
        # coefficients; verdicts identical
        rng = np.random.default_rng(8801)
        rows = np.zeros((24_000, 17))
        for row in rows:
            d = int(rng.integers(0, 15))
            kind = int(rng.integers(0, 5))
            if kind == 0:
                c = rng.uniform(-5, 5, d + 1)
            elif kind == 1:
                c = rng.integers(-2, 3, d + 1).astype(float)
            elif kind == 2:
                c = -rng.uniform(0.1, 5, d + 1)
            else:
                spread = 4 if kind == 3 else 300
                c = 10.0 ** rng.uniform(-spread, spread, d + 1) * rng.choice([1.0, -1.0], d + 1)
            c[-1] = c[-1] or 1.0
            row[: d + 1] = c
        zero_pivots = []
        reference = [scalar_routh(row, zero_pivots) for row in rows]
        assert is_hurwitz_real(rows).tolist() == reference
        assert len(zero_pivots) > 500 and set(zero_pivots) == set(range(2, 15))
        assert 0.1 < np.mean(reference) < 0.9
        assert (rows[:, 0] == 0).sum() > 500 and (rows.max(axis=1) <= 0).sum() > 5000

    @pytest.mark.parametrize("count", [1, 565])
    def test_in_place_table_equals_the_row_array_reference(self, monkeypatch, count):
        # 12,000 rows of degree 0-15 with trailing zeros, so mixed degrees, and small-integer
        # (zero pivots), negative-leading and decade-spread coefficients, in batches of 565 or
        # 2,000 rows alone: the verdicts and every first-column entry of the in-place table
        # (its one np.zeros array, kept here) equal the row-array recursion's bytes
        tables = []

        class KeepTable:  # numpy, but keeps what np.zeros returns
            def __getattr__(self, name):
                return getattr(np, name)

            def zeros(self, *args, **kwargs):
                tables.append(np.zeros(*args, **kwargs))
                return tables[-1]

        monkeypatch.setattr(stability, "np", KeepTable())
        rng = np.random.default_rng(3200 + count)
        zero_pivots, verdicts = [], []
        for _ in range(12_000 // count if count > 1 else 2000):
            rows = np.zeros((count, 17))
            for row in rows:
                d = int(rng.integers(0, 16))
                kind = int(rng.integers(0, 4))
                if kind == 0:
                    c = rng.integers(-2, 3, d + 1).astype(float)
                elif kind == 1:
                    c = -rng.uniform(0.1, 5, d + 1)
                else:
                    c = rng.uniform(-5, 5, d + 1) * 10.0 ** rng.uniform(-4 * kind, 4 * kind, d + 1)
                c[-1] = c[-1] or 1.0
                row[: d + 1] = c
                scalar_routh(row, zero_pivots)
            tables.clear()
            got = is_hurwitz_real(rows)
            want, column = reference_routh(rows)
            assert len(tables) == 1 and got.tobytes() == want.tobytes()
            assert tables[0][: column.shape[1], 0].T.tobytes() == column.tobytes()
            verdicts.append(want)
        assert len(zero_pivots) > 50 and 0.05 < np.concatenate(verdicts).mean() < 0.95

    def test_verdict_does_not_depend_on_the_scale(self):
        # a stable row and (s + 1)(s^2 + 1), whose zero pivot must stay exactly 0, times s from
        # 1e-300 to 1e300: each row is scaled by an exact power of two first, so no pivot
        # overflows or underflows
        stable, unstable = np.array([1, 3.3, 4, 2.4, 1]), np.array([1, 1, 1, 1, 0])
        scales = 10.0 ** np.arange(-300, 301, 10)
        assert is_hurwitz_real(stable * scales[:, None]).all()
        assert not is_hurwitz_real(unstable * scales[:, None]).any()
        for s in scales:
            assert is_hurwitz_real([stable * s, -unstable * s]).tolist() == [True, False]


class TestRootsBatch:
    def test_a_degree_one_complex_row_alone_keeps_its_batch_residual(self):
        # the two-pass residual of one such row alone differed from the same row's in a batch
        # in about 4 of 10 rows (a one-element complex Horner); the stacked pass evaluates at
        # least two elements, so each row's roots and residual are its own at any batch size
        rows = np.random.default_rng(5).normal(size=(300, 2, 2)) @ np.array([1.0, 1j])
        roots, res = roots_batch(rows)
        alone = [roots_batch(row[None, :]) for row in rows]
        assert roots.tobytes() == np.concatenate([r for r, _ in alone]).tobytes()
        assert res.tobytes() == np.concatenate([r for _, r in alone]).tobytes()
        with np.errstate(all="ignore"):
            two_pass = [reference_residuals(row[None, :], r)[0]
                        for row, (r, _) in zip(rows, alone)]
        assert (np.array(two_pass) != res).sum() > 50

    def test_each_row_equals_its_row_alone(self):
        # a real batch (all-real roots, complex pairs, real roots spread over 1e+-2) and a
        # complex batch of known_root_rows, degree 10: every row's roots and residual are
        # bitwise those of the row solved alone
        rng = np.random.default_rng(4121)
        uniform = rng.uniform(-5, 5, (20, 11))
        uniform[:, -1] += 6.0
        real = np.vstack([[np.poly(-rng.uniform(0.2, 3.0, 10))[::-1] for _ in range(20)],
                          uniform,
                          [np.poly(-10.0 ** rng.uniform(-2, 2, 10))[::-1] for _ in range(20)]])
        real = real[rng.permutation(len(real))]
        complex_rows = known_root_rows(rng, 10, 2, 60)[0]
        for batch in (real, complex_rows):
            roots, res = roots_batch(batch)
            for k, row in enumerate(batch):
                alone_roots, alone_res = roots_batch(row[None, :])
                assert roots[k].tobytes() == alone_roots[0].tobytes(), k
                assert res[k].tobytes() == alone_res[0].tobytes(), k
            all_real = (roots.imag == 0.0).all(axis=1)
            assert all_real.any() == (batch is real) and not all_real.all()


    def test_residuals_equal_two_pass_reference(self):
        # the one eval_many call over [c, |c|] at [z, |z|] runs the two-pass Horner
        # recurrences in the same order: bitwise equal at B = 1, 40 and 565, also where
        # sum_k |c_k||z|^k overflows (its real part is then NaN, read as inf) and where a row's
        # value is inf or NaN. The reference runs on two copies of the batch: numpy's in-place
        # complex multiply rounds a one-element array (one degree-1 complex row) apart from any
        # longer one
        rng = np.random.default_rng(4127)
        overflowed = 0
        for count, d in itertools.product((1, 40, 565), (1, 2, 5, 9, 14, 15)):
            for _ in range(max(1, 40 // count)):
                real = (rng.uniform(-5, 5, (count, d + 1))
                        * 10.0 ** rng.uniform(-3, 3, (count, d + 1)))
                real[rng.random(count) < 0.2] *= 1e300
                complex_rows = real + 1j * rng.uniform(-5, 5, (count, d + 1))
                points = ((rng.normal(size=(count, d)) + 1j * rng.normal(size=(count, d)))
                          * 10.0 ** rng.uniform(-3, 3, (count, d)))
                points[rng.random(count) < 0.2] *= 1e200
                for coeffs in (real, complex_rows):
                    with np.errstate(all="ignore"):
                        got = stability._residuals(coeffs, points)
                        want = reference_residuals(np.vstack([coeffs, coeffs]),
                                                   np.vstack([points, points]))[:count]
                        scale = eval_many(np.abs(coeffs), np.abs(points))
                    assert got.tobytes() == want.tobytes()
                    overflowed += int(np.isinf(scale).any())
        assert overflowed > 20
        # at z = 1e200 the top terms cancel, so |p(z)| = 5 while the scale overflows, and two
        # Horner steps later the one-pass real part is NaN: read as inf, the residual is 0
        coeffs, z = np.array([[5.0, 0.0, 0.0, -1e200, 1.0]]), np.full((1, 4), 1e200 + 0j)
        with np.errstate(all="ignore"):
            assert stability._residuals(coeffs, z).tolist() == [0.0]
            assert reference_residuals(coeffs, z).tolist() == [0.0]


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
        assert v.is_hurwitz and v.margin == pytest.approx(1.0)


class TestSolveRows:
    def test_failing_rows_are_nan_and_named_in_order(self, monkeypatch):
        # 40 degree-6 rows; rows 3 and 31 fail alone by the numerics (a leading coefficient
        # below LEADING_FLOOR), row 17 by a stub residual failure: the batch is solved again
        # row by row, and every other row's roots are bitwise its own
        rng = np.random.default_rng(4123)
        rows = rng.uniform(-5, 5, (40, 7))
        rows[:, -1] += 6.0
        rows[[3, 31], -1] = 1e-13
        solve = stability.roots_batch

        def failing(coeffs):
            if (coeffs == rows[17]).all(axis=1).any():
                raise NoConvergenceError("stub")
            return solve(coeffs)

        monkeypatch.setattr(stability, "roots_batch", failing)
        roots, failed = solve_rows(rows)
        assert [(k, type(err)) for k, err in failed] == [
            (3, DegenerateLeadingError), (17, NoConvergenceError), (31, DegenerateLeadingError)]
        assert str(failed[1][1]) == "stub"
        assert roots.shape == (40, 6) and roots.dtype == complex
        for k, row in enumerate(rows):
            if k in (3, 17, 31):
                assert np.isnan(roots[k]).all()
            else:
                assert roots[k].tobytes() == solve(row[None, :])[0][0].tobytes(), k

    def test_a_batch_that_solves_is_one_call(self, monkeypatch):
        calls = []
        solve = stability.roots_batch
        monkeypatch.setattr(stability, "roots_batch",
                            lambda coeffs: calls.append(len(coeffs)) or solve(coeffs))
        rows = np.array([[2.0, 3.0, 1.0], [1.0, -1.0, 1.0], [1j, 0.0, 1.0]])
        roots, failed = solve_rows(rows)
        assert calls == [3] and failed == []
        assert roots.tobytes() == solve(rows)[0].tobytes()


SCALES = [0.3, 1.0, 3.0, 2.0 ** 40, 2.0 ** -40]


def halfline(rows):
    """positive_on_halfline of rows with Mbar = |coefficient|: a roundoff bound of
    LEVEL_ROUNDOFF (d+1) eps |coefficient|."""
    rows = np.array(rows, dtype=float)
    return stability.positive_on_halfline(rows, np.abs(rows))


def real_rows(*root_lists):
    """Ascending real rows, one per list, of (x + 2 r) times the monic polynomial with those
    roots, r the first root's modulus; a complex root brings its conjugate."""
    out = []
    for roots in root_lists:
        roots = list(roots) + [complex(r).conjugate() for r in roots if complex(r).imag]
        out.append(np.real(np.poly(roots + [-2 * abs(roots[0])]))[::-1])
    return out


class TestCutRoots:
    def test_ends_within_their_noise_are_cut(self):
        # x^2 (x - 1)(x - 2) with roundoff at both ends, and a row left with one coefficient:
        # each end at or below its noise counts as 0, so the low zeros are the root 0, divided
        # out, and a row with no coefficient left has no roots but vanishes at 0
        rows = np.array([[1e-17, -2e-18, 2.0, -3.0, 1.0, 1e-16],
                         [3.0, 1e-16, 0.0, 0.0, 0.0, 0.0],
                         [1e-16, 0.0, 0.0, 0.0, 0.0, 0.0]])
        roots, zero, failed = cut_roots(rows, np.full(rows.shape, 1e-15))
        assert failed == [] and zero.tolist() == [True, False, True]
        assert roots.shape == (3, 5) and np.isnan(roots[:, 2:]).all() and np.isnan(roots[1:]).all()
        assert sorted(roots[0, :2].real) == pytest.approx([1.0, 2.0], rel=1e-14)

    def test_a_weak_leading_coefficient_is_solved_in_a_scaled_variable(self):
        # (z + 1)(z + 1e13), real and rotated complex: its leading coefficient is 1e-13 of the
        # largest, below LEADING_FLOOR, so roots_batch refuses it; solved in z / 2^44, exactly
        # scaled, its roots come back. A row whose leading coefficient passes keeps the bits
        # roots_batch gives it
        weak = np.array([[1e13, 1e13 + 1.0, 1.0]])
        with pytest.raises(DegenerateLeadingError):
            roots_batch(weak)
        for row in (weak, weak * np.exp(0.3j)):
            roots, zero, failed = cut_roots(row, np.zeros(row.shape))
            assert failed == [] and not zero[0]
            assert sorted(roots[0].real) == pytest.approx([-1e13, -1.0], rel=1e-12)
            assert np.abs(roots[0].imag).max() <= 1e-12 * np.abs(roots[0]).max()
        plain = np.array([[2.0, -3.0, 1.0], [1.0, 1.0, 1.0]])
        roots, _, _ = cut_roots(plain, np.zeros(plain.shape))
        assert roots.tobytes() == roots_batch(plain)[0].tobytes()

    def test_failing_rows_are_named_in_row_order(self, monkeypatch):
        # rows of two cut lengths, solved length by length; each failing row is named once,
        # lowest first, and its roots are NaN
        rows = np.array([[2.0, 3.0, 1.0, 0.0], [6.0, 11.0, 6.0, 1.0], [2.0, 3.0, 1.0, 0.0],
                         [1.0, 2.0, 1.0, 0.0]])
        solve, stubbed = stability.roots_batch, ([6.0, 11.0, 6.0, 1.0], [1.0, 2.0, 1.0])

        def failing(coeffs):
            if any(np.array_equal(row, bad) for row in coeffs for bad in stubbed):
                raise NoConvergenceError("stub")
            return solve(coeffs)

        monkeypatch.setattr(stability, "roots_batch", failing)
        roots, _, failed = cut_roots(rows, np.zeros(rows.shape))
        assert [(row, str(err)) for row, err in failed] == [(1, "stub"), (3, "stub")]
        assert np.isnan(roots[[1, 3]]).all() and not np.isnan(roots[[0, 2], :2]).any()


class TestPositiveOnHalfline:
    @pytest.mark.parametrize("r", SCALES)
    def test_roots_on_the_axis_fail_and_a_pair_just_off_it_clears(self, r):
        # two simple roots at r and 1.25 r (r = 1 puts one at the end shared by both pieces),
        # a double root at r, and a pair at angle 1e-3 from the positive axis
        rows = real_rows([r, 1.25 * r], [r, r], [r * np.exp(1e-3j)])
        assert halfline(rows).tolist() == [False, False, True]

    def test_a_deep_valley_clears_and_a_shallow_dip_below_zero_fails(self):
        valley, dip = np.array([[1.0, 0.0, -2.0, 0.0, 1.0]] * 2)  # (x^2 - 1)^2
        valley[2] += 2e-6  # its minimum at x = 1 is 2e-6
        dip[2] -= 2e-6
        assert halfline([valley, dip]).tolist() == [True, False]

    def test_a_power_of_two_scale_keeps_every_verdict(self):
        rows = np.array([row for r in SCALES for row in real_rows(
            [r, 1.25 * r], [r, r], [r * np.exp(1e-3j)], [r * np.exp(0.5j)])])
        verdicts = halfline(rows)
        assert verdicts.sum() == 2 * len(SCALES)
        for scale in (2.0 ** -600, 2.0 ** 600):
            assert (halfline(rows * scale) == verdicts).all()

    def test_a_row_that_is_not_finite_is_false_without_a_warning(self):
        rows = [[math.nan, 1.0, 1.0], [1.0, math.inf, 1.0], [1.0, 1.0, -math.inf], [1.0, 0.0, 1.0]]
        assert halfline(rows).tolist() == [False, False, False, True]
        bound = np.zeros((1, 3))
        bound[0, 1] = math.nan
        assert not stability.positive_on_halfline([[1.0, 0.0, 1.0]], bound).any()
        assert halfline(np.zeros((0, 4))).shape == (0,)
        with pytest.raises(ValueError):
            halfline([[1.0], [2.0]])

    @pytest.mark.parametrize("d", [1, 3, 6])
    def test_matrices_give_bernstein_coefficients_and_halves(self, d):
        # on [0, 1], b_i = sum_k C(i, k) / C(d, k) a_k; the halves are the coefficients of
        # a(x / 2) and a((1 + x) / 2), each on [0, 1]
        from numpy.polynomial import Polynomial

        to_bernstein, halves = stability._bernstein_matrices(d)
        a = np.random.default_rng(d).uniform(-1.0, 1.0, d + 1)
        b = [sum(math.comb(i, k) / math.comb(d, k) * a[k] for k in range(i + 1))
             for i in range(d + 1)]
        assert np.allclose(a @ to_bernstein, b, rtol=0.0, atol=1e-14)
        left, right = (Polynomial(a)(Polynomial([lo, 0.5])).coef for lo in (0.0, 0.5))
        assert np.allclose(a @ to_bernstein @ halves,
                           np.concatenate([left @ to_bernstein, right @ to_bernstein]),
                           rtol=0.0, atol=1e-14)


class TestRouthRootsAgreement:
    def test_thousand_random_polynomials(self):
        # routes agree outside a 1e-7 root-margin dead zone
        rng = np.random.default_rng(37)
        rows, margins = np.zeros((1000, 9)), []
        for row in rows:
            deg = int(rng.integers(1, 9))
            coeffs = rng.uniform(-5, 5, deg + 1)
            if abs(coeffs[-1]) < 0.1:  # discard near-singular leading coefficients
                coeffs[-1] = 0.1 * np.sign(coeffs[-1] or 1.0)
            row[: deg + 1] = coeffs
            margins.append(np_root_margin(coeffs))
        clear = np.abs(margins) >= 1e-7
        for coeffs, routh in zip(rows[clear], is_hurwitz_real(rows[clear])):
            roots = is_hurwitz_complex(coeffs).is_hurwitz
            assert routh == roots, f"disagreement on {coeffs}"
        assert (~clear).sum() < 50


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
        # 2,000 rows per degree 4..14; no row raises, the verdict equals the constructed truth
        # on every row, and only pinned rows are left to roots. Rows are recorded as
        # cut_roots gets them, before a row with a weak leading coefficient is scaled: at
        # spread 2 such rows once raised DegenerateLeadingError.
        solved = []

        def recorded(rows, noise):
            solved.append(np.asarray(rows)[0].tobytes())
            return cut_roots(rows, noise)

        monkeypatch.setattr(stability, "cut_roots", recorded)
        rng = np.random.default_rng(4100 + spread)
        for degree in range(4, 15):
            rows, truth, pinned = known_root_rows(rng, degree, spread, 2000)
            solved.clear()
            got = hurwitz_batch(rows)
            index = {row.tobytes(): i for i, row in enumerate(rows)}
            fell_back = sorted({index[b] for b in solved})
            assert pinned[fell_back].all(), (degree, [i for i in fell_back if not pinned[i]])
            wrong = np.flatnonzero(got != truth)
            assert len(wrong) == 0, (degree, wrong)


class TestCholeskyConfirmation:
    @pytest.mark.parametrize("spread", [1, 2])
    def test_verdicts_equal_eigvalsh_reference(self, memo_roots, counted, spread):
        # known_root_rows of degree 4..14 in whole batches, then the rows the reference calls
        # stable by sign alone in sub-batches of 48: identical verdicts, and no row raises; a
        # sub-batch whose eigenvalues all clear 10 * HERMITE_ROUNDOFF is confirmed by one
        # pivot test, less HERMITE_ROUNDOFF on the diagonal, and goes no further
        rng = np.random.default_rng(4100 + spread)
        for degree in range(4, 15):
            rows = known_root_rows(rng, degree, spread, 2000)[0]
            got = verdicts_or_errors(hurwitz_batch, rows)
            assert got == verdicts_or_errors(eigvalsh_verdicts, rows), degree
            assert all(isinstance(verdict, bool) for verdict in got), degree  # none raises
            lam = smallest_eigenvalues(rows)
            clear = lam > 10 * stability.HERMITE_ROUNDOFF
            near = ~clear & (lam > stability.HERMITE_ROUNDOFF)
            assert clear.sum() > 500 and near.sum() < clear.sum()
            for by_sign, confirmed in ((rows[clear], True), (rows[near], False)):
                for start in range(0, len(by_sign), 48):
                    sub = by_sign[start : start + 48]
                    assert eigvalsh_verdicts(sub).all()
                    counted.update(pivots=[], roots=0)
                    assert hurwitz_batch(sub).all()
                    assert not confirmed or counted == {
                        "pivots": [(len(sub), -stability.HERMITE_ROUNDOFF)], "roots": 0}, degree

    @pytest.mark.parametrize("name", ["point_plant", "widened_family"])
    def test_bisection_chunks_equal_eigvalsh_reference(self, monkeypatch, name):
        # with the level-crossing test declined, every theta chunk the bisection tests, at the
        # delta sequence the reference's verdicts lead to, gets the reference's verdicts from
        # hurwitz_batch; the bisection value is the one pinned in test_hinf
        kg, kf, pinned = SHIPPED_FAMILIES[name]
        chunks = {"all stable": 0, "unstable": 0}

        def compared(rows):
            reference = eigvalsh_verdicts(rows)
            assert hurwitz_batch(rows).tolist() == reference.tolist()
            chunks["all stable" if reference.all() else "unstable"] += 1
            return reference

        decline_crossings(monkeypatch)
        monkeypatch.setattr(hinf, "hurwitz_batch", compared)
        assert hinf.family_norm_bisection(kg, kf, tol=1e-4, theta_count=720) == pinned
        assert chunks["all stable"] > 0 and chunks["unstable"] > 0

    def test_all_stable_batch_does_no_extra_work(self, counted):
        rows = known_root_rows(np.random.default_rng(4103), 8, 1, 2000)[0]
        clear = rows[smallest_eigenvalues(rows) > 10 * stability.HERMITE_ROUNDOFF]
        assert len(clear) > 500
        assert hurwitz_batch(clear).tolist() == [True] * len(clear)
        assert counted == {"pivots": [(len(clear), -stability.HERMITE_ROUNDOFF)], "roots": 0}

    def test_other_batches_keep_the_reference_verdicts(self, counted):
        # among 80 clear rows: one unstable row, or the dead-zone row of lowest or of highest
        # eigenvalue (one verdict each). The batch fails the pivot test less HERMITE_ROUNDOFF,
        # only the odd row takes the pivot test plus HERMITE_ROUNDOFF, and only the dead-zone
        # row reaches its roots. A row whose 2x2 Hermite matrix overflows to NaN, which the
        # reference calls unstable, is named in a NoConvergenceError
        rows = known_root_rows(np.random.default_rng(4103), 8, 1, 2000)[0]
        lam = smallest_eigenvalues(rows)
        clear = rows[lam > 10 * stability.HERMITE_ROUNDOFF][:80]
        unstable = rows[lam < -10 * stability.HERMITE_ROUNDOFF][:1]
        in_dead_zone = np.abs(lam) <= stability.HERMITE_ROUNDOFF
        dead = rows[in_dead_zone][np.argsort(lam[in_dead_zone])[[0, -1]]]  # lowest, highest
        assert lam[in_dead_zone].max() > 0.5 * stability.HERMITE_ROUNDOFF
        cases = [(np.vstack([clear[:40], unstable, clear[40:]]), 40, False, 0),
                 (np.vstack([clear[:40], dead[:1], clear[40:]]), 40, False, 1),
                 (np.vstack([clear[:40], dead[1:], clear[40:]]), 40, True, 1)]
        eps = stability.HERMITE_ROUNDOFF
        for batch, k, verdict, roots in cases:
            reference = eigvalsh_verdicts(batch)
            counted.update(pivots=[], roots=0)
            assert hurwitz_batch(batch).tolist() == reference.tolist()
            assert np.delete(reference, k).all() and reference[k] == verdict
            assert counted == {"pivots": [(81, -eps), (1, eps)], "roots": roots}
        overflow = np.array([[2.0, 3.0, 1.0], [1.0, 3e200, 1e200], [1.0, 2.0, 1.0]])
        with np.errstate(all="ignore"):
            assert eigvalsh_verdicts(overflow).tolist() == [True, False, True]
            counted.update(pivots=[], roots=0)
            with pytest.raises(NoConvergenceError) as info:
                hurwitz_batch(overflow)
        assert str(info.value) == "row 1: Hermite matrix is not finite" and info.value.row == 1
        assert counted == {"pivots": [(3, -eps)], "roots": 0}

    def test_overflowing_hermite_matrix_names_its_row(self):
        # a Hermite matrix that overflowed to NaN has no pivot signs; the lowest such row is
        # named in a NoConvergenceError (exit 4) whose cause is the unlocated error
        stable = np.poly(-np.arange(1.0, 9.0))[::-1]
        huge = np.full(9, 1e200)
        for rows, k in ((huge[None, :], 0), (np.vstack([stable, huge, stable, huge]), 1)):
            with np.errstate(all="ignore"), pytest.raises(NoConvergenceError) as info:
                hurwitz_batch(rows)
            assert str(info.value) == f"row {k}: Hermite matrix is not finite"
            assert info.value.row == k and info.value.exit_code == 4
            cause = info.value.__cause__
            assert type(cause) is NoConvergenceError and cause.row is None
            assert str(cause) == "Hermite matrix is not finite" and cause.__cause__ is None

    def test_underflowing_row_raises_without_a_warning(self):
        # the Hermite entries of a row scaled by 1e-160 underflow and their scaling overflows;
        # pytest makes a warning an error, so the NoConvergenceError must come alone
        with pytest.raises(NoConvergenceError, match="^row 0: Hermite matrix is not finite$"):
            hurwitz_batch(np.array([[1.0, 3.3, 4.0, 2.4, 1.0]]) * 1e-160)


class TestRealRowsAndPivots:
    def test_pivot_signs_follow_the_smallest_eigenvalue(self):
        # random Hermitian matrices, real and complex, n = 2..14, moved so their smallest
        # eigenvalues straddle 0: at either shift, pivots all positive exactly where the
        # smallest eigenvalue of K + shift I is positive, wherever it clears roundoff. A
        # matrix that is not finite fails, also one whose only infinite entry is a pivot
        rng, eps = np.random.default_rng(4203), stability.HERMITE_ROUNDOFF
        for n in range(2, 15):
            for imag in (0.0, 1.0):
                M = rng.standard_normal((200, n, n)) + imag * 1j * rng.standard_normal((200, n, n))
                K = M @ M.conj().transpose(0, 2, 1)
                lowest = _EIGVALSH(K)[:, 0] * rng.uniform(0.5, 1.5, 200)
                K = K - lowest[:, None, None] * np.eye(n)
                for shift in (-eps, eps):
                    lam = _EIGVALSH(K + shift * np.eye(n))[:, 0]
                    clear = np.abs(lam) > 1e-9 * np.abs(K).max(axis=(1, 2))
                    assert clear.sum() > 150, n
                    got = stability._positive_pivots(K, shift)
                    assert (got[clear] == (lam[clear] > 0.0)).all(), (n, imag, shift)
                    assert 0 < got.sum() < 200
        bad = np.tile(np.eye(3), (3, 1, 1))
        bad[0, 1, 1] = bad[2, 2, 2] = np.inf
        bad[1, 0, 2] = bad[1, 2, 0] = np.nan
        assert not stability._positive_pivots(bad, -eps).any()

    def test_real_hermite_matrices_are_the_real_part_of_the_complex_build(self):
        # real rows build real matrices, bitwise the real part of the complex build of the
        # same rows, whose imaginary part is all zeros; the unit-diagonal scaling keeps that
        rng = np.random.default_rng(4200)
        for degree in range(2, 15):
            rows = rng.standard_normal((500, degree + 1)) * 10.0 ** rng.uniform(-3, 3, (500, 1))
            if degree >= 4:
                known = known_root_rows(rng, degree, 2, 200, True, DEAD_ZONE_PIN)[0]
                rows = np.vstack([rows, known])
            real = stability._hermite_matrix(stability._taylor_shift(rows))
            built = stability._hermite_matrix(stability._taylor_shift(rows.astype(complex)))
            assert real.dtype == float and not built.imag.any(), degree
            assert real.tobytes() == built.real.tobytes(), degree
            real, built = stability._unit_diagonal(real), stability._unit_diagonal(built)
            assert real.tobytes() == built.real.tobytes() and not built.imag.any(), degree

    @pytest.mark.parametrize("seed", [2401, 2611, 4001])
    def test_oracle_rows_take_the_same_verdicts_real_or_complex(self, seed):
        # the oracle's real closed-loop rows of analyze-families workloads: the same verdicts
        # as those rows as complex, and as the eigenvalue reference
        population = perfbench_population()
        for fam in population.analyze_families(seed, 8):
            prob = AnalysisProblem(IntervalPolynomial(fam.g_lower, fam.g_upper),
                                   IntervalPolynomial(fam.f_lower, fam.f_upper),
                                   AnalysisOptions(seed=7, oracle_samples=500))
            dens = oracle_rows(prob)[2]
            verdict = hurwitz_batch(dens).tolist()
            assert verdict == hurwitz_batch(dens.astype(complex)).tolist()
            assert verdict == eigvalsh_verdicts(dens).tolist()

    def test_real_rows_take_the_same_verdicts_real_or_complex(self, memo_roots):
        # conjugate-closed known roots of degree 4..14, dead-zone rows among them: the real
        # rows, the same rows as complex and the eigenvalue reference give identical verdicts
        # and errors, and every verdict is the constructed one where the rows decide
        rng = np.random.default_rng(4201)
        for degree in range(4, 15):
            rows, truth, pinned = known_root_rows(rng, degree, 1, 300, True, DEAD_ZONE_PIN)
            dead = np.abs(smallest_eigenvalues(rows)) <= stability.HERMITE_ROUNDOFF
            assert dead.any() and pinned[dead].all(), degree
            got = verdicts_or_errors(hurwitz_batch, rows)
            assert got == verdicts_or_errors(hurwitz_batch, rows.astype(complex)), degree
            assert got == verdicts_or_errors(eigvalsh_verdicts, rows), degree
            decided = [v == t for v, t, p in zip(got, truth, pinned) if not p]
            assert all(decided), degree

    @pytest.mark.parametrize("kind", ["unstable", "dead zone"])
    def test_a_verdict_does_not_depend_on_its_batch(self, counted, kind):
        # twelve confirmed rows with one unstable or one dead-zone row, real and as complex:
        # the batch fails the pivot test less HERMITE_ROUNDOFF, only the odd row is tested
        # again plus HERMITE_ROUNDOFF, and each row's verdict, from its own pivots (the
        # dead-zone row's from its roots), is the one it gets alone
        rng, eps = np.random.default_rng(4202), stability.HERMITE_ROUNDOFF
        for degree in range(4, 15):
            rows = known_root_rows(rng, degree, 1, 300, True, DEAD_ZONE_PIN)[0]
            lam = smallest_eigenvalues(rows)
            odd = (lam < -10 * stability.HERMITE_ROUNDOFF if kind == "unstable"
                   else np.abs(lam) <= stability.HERMITE_ROUNDOFF)
            clear = rows[lam > 10 * stability.HERMITE_ROUNDOFF][:12]
            assert odd.any() and len(clear) == 12, degree
            real = np.vstack([clear[:6], rows[odd][:1], clear[6:]])
            for batch in (real, real.astype(complex)):
                counted.update(pivots=[], roots=0)
                verdicts = hurwitz_batch(batch).tolist()
                assert counted == {"pivots": [(13, -eps), (1, eps)],
                                   "roots": int(kind == "dead zone")}, degree
                assert verdicts == [hurwitz_batch(row[None, :])[0] for row in batch], degree
                assert verdicts[:6] + verdicts[7:] == [True] * 12
                assert kind == "dead zone" or verdicts[6] is False
