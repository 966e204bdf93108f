"""Hurwitz stability verdicts.

Routh over real coefficient rows, all rows at once. Batches of real or
complex coefficient rows get Hermite's criterion, real rows in real
arithmetic: a row is Hurwitz exactly when its Hermite matrix is positive
definite. One vectorised elimination without pivoting gives the pivot
signs of every row of a batch, with no eigenvalue solve: all positive
less a roundoff margin on the diagonal confirms a row, a matrix that is
not finite is an error, and the other rows are tested again plus the
margin. For
rows g + (1 + delta e^{j theta}) f over real (g, f) pairs, the level
polynomial |shift(g + f)|^2 - delta^2 |shift(f)|^2 in x = w^2 finds every
delta e^{j theta} on a circle at which a row has an imaginary-axis root,
so one root solve gives the arcs of the circle on which each pair's rows
are all Hurwitz or none is, for a whole array of delta in flat arrays.
Roots, the eigenvalues of batched companion matrices, serve root sets, the
norms' stationary points, those level polynomials, the value-set edges and
the rare rows whose Hermite verdict is within roundoff of the boundary;
solve_rows names each row of a batch that fails alone, and near_nonnegative
is the one rule for a level polynomial's roots on [0, inf). The norm
screen's level polynomials need only their sign there: positive_on_halfline
reads it from Bernstein coefficients, by matrix products and halving, with
no root solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb
from typing import Sequence

import numpy as np

from .errors import (DegenerateLeadingError, IntervalHinfError, NoConvergenceError,
                     ZeroPolynomialError)
from .poly import (ZERO_DEGREE, check_finite, degrees, distinct_rows, eval_at_jomega,
                   eval_many, magnitude_squared, scale_exponents)

__all__ = [
    "StabilityVerdict",
    "RootSet",
    "is_hurwitz_real",
    "roots_complex",
    "is_hurwitz_complex",
    "hurwitz_batch",
    "solve_rows",
    "near_nonnegative",
    "positive_on_halfline",
    "level_crossings",
    "LevelCrossings",
    "HURWITZ_TOL",
]

HURWITZ_TOL = 1e-9          # dead zone: Hurwitz means every root has Re < -HURWITZ_TOL
HERMITE_ROUNDOFF = 1e-12    # scaled Hermite eigenvalues this near 0 have no trusted sign
ACCEPT_RESIDUAL = 1e-9      # normalized backward error bound
LEADING_FLOOR = 1e-12       # |leading| / max|coeff| degeneracy threshold
CROSSING_TOL = 1e-6         # level-polynomial roots this near [0, inf), relative, are crossings
PIECE_DEPTH = 12            # halvings of a Bernstein piece before positive_on_halfline gives up


@dataclass(frozen=True)
class StabilityVerdict:
    is_hurwitz: bool
    margin: float            # -max Re(root)


@dataclass(frozen=True)
class RootSet:
    roots: tuple[complex, ...]
    residual: float          # max over roots of |p(z)| / sum_k |c_k||z|^k


def is_hurwitz_real(rows: np.ndarray) -> np.ndarray:
    """Routh verdict of each real ascending row (B, n+1): Hurwitz iff the first d + 1
    first-column entries of its Routh array are positive, d the row's own degree.

    Leading coefficients are normalized positive, and each row is scaled by an exact power of
    two that puts its largest coefficient in [0.5, 1), so a verdict does not depend on the
    row's scale. A zero in the first column is conclusive "not Hurwitz"; there is no epsilon
    continuation because the target set is the open left half plane. A degree-0 row is Hurwitz.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or not np.isfinite(rows).all():
        raise ValueError("Routh test needs finite (B, n+1) coefficient rows")
    deg = degrees(rows)
    if (deg == ZERO_DEGREE).any():
        raise ZeroPolynomialError("stability of the zero polynomial is undefined")
    n = int(deg.max(initial=0))
    back = deg[:, None] - np.arange(n + 1)  # descending, left-aligned
    desc = np.where(back >= 0, rows[np.arange(len(rows))[:, None], np.maximum(back, 0)], 0.0)
    np.negative(desc, out=desc, where=desc[:, :1] < 0)
    desc = np.ldexp(desc, -scale_exponents(desc))

    # Routh rows 0..n (and a row 1 for constant rows), batch last, filled in place
    table = np.zeros((max(n, 1) + 1, (n + 2) // 2, len(rows)))
    table[0], table[1, : (n + 1) // 2] = desc[:, 0::2].T, desc[:, 1::2].T
    heads, tails, cross = table[:, :1], table[:, 1:], np.empty(table.shape[1:])[1:]
    # a shorter row's padding stays +-0 unless a zero or non-finite pivot already failed it
    with np.errstate(all="ignore"):
        for hi0, hi, lo0, lo, nxt in zip(heads, tails, heads[1:], tails[1:], table[2:, :-1]):
            np.multiply(lo0, hi, out=nxt)  # (lo0 * hi - hi0 * lo) / lo0, the pivot lo0
            nxt -= np.multiply(hi0, lo, out=cross)
            nxt /= lo0
    return ((table[: n + 1, 0].T > 0.0) | (np.arange(n + 1) > deg[:, None])).all(axis=1)


def _residuals(coeffs: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """max over each row's roots z of |p(z)| / sum_k |c_k||z|^k, in one eval_many call: the sum
    is the real part of |c| at the complex |z|, the real Horner's bits, or NaN where it is inf."""
    both = eval_many(np.concatenate([coeffs, np.abs(coeffs)]),
                     np.concatenate([roots, np.abs(roots)]))
    value, scale = np.abs(both[: len(coeffs)]), both[len(coeffs) :].real
    scale[np.isnan(scale)] = np.inf
    return (value / np.maximum(scale, np.finfo(float).tiny)).max(axis=1)


def roots_batch(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All roots of a batch of same-degree polynomials, as eigenvalues of their monic
    companion matrices, with each row's residual.

    coeffs: (B, d+1) real or complex, ascending by power, leading column nonzero. Real rows
    take LAPACK's real eigenvalue path and complex rows its complex one; each matrix is solved
    on its own, so a row's roots and residual do not depend on its batch. A row whose residual
    is above ACCEPT_RESIDUAL (or not a number), or a batch LAPACK cannot solve, raises
    NoConvergenceError.
    """
    coeffs = np.asarray(coeffs)
    coeffs = coeffs.astype(complex if np.iscomplexobj(coeffs) else float, copy=False)
    n_poly, width = coeffs.shape
    d = width - 1
    if d < 1:
        raise ValueError("root extraction needs degree >= 1")
    lead = np.abs(coeffs[:, -1])
    top = np.abs(coeffs).max(axis=1)
    if (lead <= LEADING_FLOOR * top).any():
        raise DegenerateLeadingError("leading coefficient below degeneracy threshold")

    companion = np.zeros((n_poly, d, d), dtype=coeffs.dtype)
    companion[:, 0] = -coeffs[:, -2::-1] / coeffs[:, -1:]
    companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    try:
        roots = np.linalg.eigvals(companion).astype(complex)  # real when every root is
    except np.linalg.LinAlgError as err:
        raise NoConvergenceError(f"companion eigenvalues failed: {err}") from err
    with np.errstate(all="ignore"):
        res = _residuals(coeffs, roots)
    if not (res <= ACCEPT_RESIDUAL).all():
        raise NoConvergenceError(f"root residual {res.max():.3e} above {ACCEPT_RESIDUAL:g}")
    return roots, res


def solve_rows(coeffs: np.ndarray) -> tuple[np.ndarray, list[tuple[int, IntervalHinfError]]]:
    """roots_batch's roots of each same-degree row, and (row, error) of each row that fails
    alone, in row order: a batch that fails is solved again row by row, and a failing row's
    roots are NaN. Each matrix is solved on its own, so every row's roots are its own."""
    try:
        return roots_batch(coeffs)[0], []
    except IntervalHinfError as err:
        if len(coeffs) == 1:
            return np.full((1, coeffs.shape[1] - 1), np.nan, dtype=complex), [(0, err)]
    solved = [solve_rows(row[None, :]) for row in coeffs]
    return (np.concatenate([roots for roots, _ in solved]),
            [(i, err) for i, (_, failed) in enumerate(solved) for _, err in failed])


def near_nonnegative(roots: np.ndarray) -> np.ndarray:
    """True for each root within CROSSING_TOL of [0, inf), relative to its modulus: the real
    roots x = omega^2 >= 0 of a level polynomial. A NaN root is never near."""
    return (np.abs(roots.imag) <= CROSSING_TOL * np.abs(roots)) & (roots.real >= 0.0)


@cache
def _bernstein_matrices(d: int) -> tuple[np.ndarray, np.ndarray]:
    """For degree d: the (d+1, d+1) matrix whose transpose takes ascending coefficients to
    Bernstein coefficients on [0, 1], and the (d+1, 2d+2) matrix that takes a piece's
    Bernstein coefficients to those of its two halves, side by side (de Casteljau at 1/2).
    Every entry is nonnegative. Read-only: every caller shares them."""
    k = np.arange(d + 1)
    choose = np.array([[comb(i, j) for j in k] for i in k], dtype=float)  # comb is 0 above i
    to_bernstein = (choose / choose[d]).T
    left = choose / 2.0 ** k[:, None]             # left_i = sum_j C(i, j) b_j / 2^i
    right = left[::-1, ::-1]                      # the mirror image: right_i = left_{d-i} reversed
    halves = np.hstack([left.T, right.T])
    for m in (to_bernstein, halves):
        m.setflags(write=False)
    return to_bernstein, halves


def positive_on_halfline(level_rows: np.ndarray, bound_rows: np.ndarray) -> np.ndarray:
    """True for each ascending row P (K, d+1), d >= 1, that is positive on all of [0, inf) by
    more than its roundoff bound; False decides nothing.

    bound_rows (K, d+1) are nonnegative bounds on the error of each coefficient. Each row is
    first centred on its own frequency scale, x -> 2^e x with e = rint(log2|P_0 / P_d| / d)
    (0 if that is not finite), which is exact. Its Bernstein coefficients on [0, 1], and
    those of its reversal x^d P(1/x) on [0, 1], which cover [1, inf], decide each piece: every
    coefficient above the bound's (carried through the same nonnegative matrices) clears it,
    and an end coefficient, the value at an end, at or below it fails the row. Undecided
    pieces are halved by de Casteljau; a row with a piece still undecided after PIECE_DEPTH
    halvings, or with a coefficient that is not finite, is False. This is the Bernstein
    range test of Garloff (1986) and Zettler-Garloff (1998): matrix products, no root solve.
    """
    level = np.asarray(level_rows, dtype=float)
    bound = np.asarray(bound_rows, dtype=float)
    count, width = level.shape
    if width < 2:
        raise ValueError("positive_on_halfline needs rows of degree >= 1")
    to_bernstein, halves = _bernstein_matrices(width - 1)
    with np.errstate(all="ignore"):  # a row that is not finite is False
        e = np.rint(np.log2(np.abs(level[:, 0] / level[:, -1])) / (width - 1))
        e = np.where(np.isfinite(e), e, 0.0).astype(np.int64)[:, None] * np.arange(width)
        level, bound = np.ldexp(level, e), np.ldexp(bound, e)
        verdict = np.isfinite(level).all(axis=1) & np.isfinite(bound).all(axis=1)
        owner = np.tile(np.flatnonzero(verdict), 2)
        coeffs = np.concatenate([level[verdict], level[verdict, ::-1]]) @ to_bernstein
        margin = np.concatenate([bound[verdict], bound[verdict, ::-1]]) @ to_bernstein
        for depth in range(PIECE_DEPTH + 1):
            above = coeffs > margin
            verdict[owner[~(above[:, 0] & above[:, -1])]] = False
            left = ~above.all(axis=1) & verdict[owner]
            if depth == PIECE_DEPTH or not left.any():
                verdict[owner[left]] = False
                break
            coeffs = (coeffs[left] @ halves).reshape(-1, width)
            margin = (margin[left] @ halves).reshape(-1, width)
            owner = np.repeat(owner[left], 2)
    return verdict


def roots_complex(coeffs: Sequence[complex]) -> RootSet:
    """Roots of one polynomial, given ascending coefficients, via the batched kernel."""
    c = [complex(v) for v in coeffs]
    check_finite(c)
    d = int(degrees(np.array([c]))[0])
    if d == ZERO_DEGREE:
        raise ZeroPolynomialError("the zero polynomial has no defined root set")
    if d < 1:
        raise ValueError("root extraction needs degree >= 1")
    roots, res = roots_batch(np.array(c[: d + 1])[None, :])
    return RootSet(roots=tuple(complex(z) for z in roots[0]), residual=float(res[0]))


def is_hurwitz_complex(coeffs: Sequence[complex]) -> StabilityVerdict:
    """True iff every root sits strictly left of -HURWITZ_TOL; margin = -max Re."""
    rs = roots_complex(coeffs)
    margin = -max(r.real for r in rs.roots)
    return StabilityVerdict(is_hurwitz=bool(margin > HURWITZ_TOL), margin=margin)


def _taylor_shift(coeffs: np.ndarray) -> np.ndarray:
    """Rows of p(s - h), h = HURWITZ_TOL, from rows of p(s), ascending, by q <- q*(s - h) + a_i."""
    q = np.zeros_like(coeffs)
    for a in coeffs.T[::-1]:
        q = np.concatenate([a[:, None], q[:, :-1]], axis=1) - HURWITZ_TOL * q
    return q


def _hermite_matrix(x: np.ndarray) -> np.ndarray:
    """(B, n, n) Hermite matrices K of rows x (degree n, ascending), in x's dtype: real rows
    give real matrices. K_ik multiplies s^i conj(w)^k in
    (x(s) conj x(w) - x#(s) conj x#(w)) / (s + conj w), where p#(s) = conj p(-conj s). Solved
    top row first from N_ik = P_ik - (-1)^(i+k) conj P_ik = K_(i-1,k) + K_(i,k-1), with
    P_ik = x_i conj x_k."""
    n = x.shape[1] - 1
    sign = (-1.0) ** np.add.outer(np.arange(n + 1), np.arange(n + 1))
    P = x[:, :, None] * x[:, None, :].conj()
    N = P - sign * P.conj()
    K = np.zeros((len(x), n, n), dtype=x.dtype)
    K[:, n - 1] = N[:, n, :n]
    for i in range(n - 1, 0, -1):
        K[:, i - 1, 0] = N[:, i, 0]
        K[:, i - 1, 1:] = N[:, i, 1:n] - K[:, i, : n - 1]
    return K


def _unit_diagonal(K: np.ndarray) -> np.ndarray:
    """K scaled in place to unit diagonal (every caller passes fresh matrices), times the
    reciprocal of d_i d_k: bitwise what dividing a complex K gives, so a real K scales to
    its real part, and a product d_i d_k below the normal range leaves K not finite."""
    d = np.sqrt(np.abs(K.real.diagonal(axis1=1, axis2=2)))
    d[d == 0.0] = 1.0
    K *= 1.0 / (d[:, :, None] * d[:, None, :])
    return K


def _positive_pivots(K: np.ndarray, shift: float) -> np.ndarray:
    """True for each Hermitian matrix of K + shift I that is finite and whose pivots all stay
    positive in Gaussian elimination without pivoting. Pivots are ratios of leading principal
    minors, so they do exactly when the matrix is positive definite, and while they do the
    elimination is a Cholesky factorization, which is backward stable. Pivot j is the diagonal
    entry j once j steps are done; after a pivot that is not positive, the rest are moot."""
    n = K.shape[1]
    A = np.array(K.transpose(1, 2, 0), order="C")  # a copy, batch last: long inner loops
    A[np.arange(n), np.arange(n)] += shift
    with np.errstate(all="ignore"):  # a failed row may divide by zero; its verdict is kept
        for j in range(n - 1):
            rest = A[j + 1 :, j + 1 :]
            rest -= A[j + 1 :, j : j + 1] * (A[j : j + 1, j + 1 :] / A[j, j].real)
    return np.isfinite(K).all(axis=(1, 2)) & (A.real.diagonal() > 0.0).all(axis=1)


def hurwitz_batch(coeffs: np.ndarray) -> np.ndarray:
    """True for each row whose roots all have Re < -HURWITZ_TOL, by Hermite's criterion.

    coeffs: (B, n+1) real or complex, ascending, n >= 1, leading column nonzero; real rows are
    tested in real arithmetic. The test is the smallest eigenvalue of the Hermite matrix of
    p(s - HURWITZ_TOL) at unit diagonal, read from pivot signs. A row whose pivots stay
    positive less HERMITE_ROUNDOFF on the diagonal is Hurwitz; if every row's do, that one
    elimination of the batch decides it. Otherwise, if any scaled matrix is not finite (its
    entries overflowed), the lowest such row is named in a NoConvergenceError. Else a row
    whose pivots do not stay positive plus HERMITE_ROUNDOFF is not Hurwitz. The rest, within
    HERMITE_ROUNDOFF of the boundary, are decided by their roots, each solved alone as a
    complex row, and a failure there is that of the lowest such row, re-raised with `row` set
    and named in the message. A row's verdict does not depend on its batch. Byte-identical
    rows are tested once.
    """
    rows = np.ascontiguousarray(coeffs, dtype=complex if np.iscomplexobj(coeffs) else float)
    if rows.ndim != 2 or rows.shape[1] < 2 or not np.isfinite(rows).all():
        raise ValueError("Hurwitz test needs finite (B, n+1) coefficient rows with n >= 1")
    first, inverse = distinct_rows(rows)
    with np.errstate(all="ignore"):  # an overflow shows as a matrix that is not finite
        scaled = _unit_diagonal(_hermite_matrix(_taylor_shift(rows[first])))
    stable = _positive_pivots(scaled, -HERMITE_ROUNDOFF)
    if stable.all():
        return stable[inverse]
    overflowed = ~np.isfinite(scaled).all(axis=(1, 2))
    if overflowed.any():
        k = int(first[overflowed].min())
        cause = NoConvergenceError("Hermite matrix is not finite")
        located = NoConvergenceError(f"row {k}: {cause}")
        located.row = k
        raise located from cause
    unsure = np.flatnonzero(~stable)[_positive_pivots(scaled[~stable], HERMITE_ROUNDOFF)]
    for u in sorted(unsure, key=first.__getitem__):
        k = int(first[u])
        try:
            stable[u] = (roots_batch(rows[k : k + 1].astype(complex))[0].real.max()
                         < -HURWITZ_TOL)
        except IntervalHinfError as err:
            located = type(err)(f"row {k}: {err}")
            located.row = k
            raise located from err
    return stable[inverse]


@dataclass(frozen=True, eq=False)
class LevelCrossings:
    """The level-crossing test of level_crossings over P distinct (g, f) row pairs: `pairs`
    holds the first index of each, a = shift(g + f) and b = shift(f) their rows, ma and mb
    magnitude_squared(a) and magnitude_squared(b)."""

    pairs: np.ndarray
    a: np.ndarray
    b: np.ndarray
    ma: np.ndarray
    mb: np.ndarray

    def __call__(self, deltas) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(decided, steps, pairs, thetas): decided (D,) False where the test declines a
        delta; each crossing of a decided delta is one entry of steps (its index into deltas),
        pairs and thetas, every +theta first, then every -theta, by delta, then pair.

        The level rows of every delta that passes the checks share one solve_rows call, and a
        row that fails alone declines only its own delta. Every kernel works row by row, so
        each delta's entries equal those of asking for it alone.
        """
        deltas = np.asarray(deltas, dtype=float)
        with np.errstate(all="ignore"):  # anything that overflows decides nothing
            level = self.ma - (deltas * deltas)[:, None, None] * self.mb
            ok = (np.isfinite(level).all(axis=(1, 2))
                  & (level[..., -1] > CROSSING_TOL * self.ma[:, -1]).all(axis=1)
                  & (np.abs(level[..., 0]) > CROSSING_TOL * self.ma[:, 0]).all(axis=1))
            x = np.full(level[..., 1:].shape, np.nan, dtype=complex)
            if ok.any():
                roots, failed = solve_rows(level[ok].reshape(-1, level.shape[2]))
                x[ok] = roots.reshape(-1, *x.shape[1:])
                ok[np.flatnonzero(ok)[[row // len(self.pairs) for row, _ in failed]]] = False
            # NaN roots are never near; a declined delta's crossings are dropped below
            i, u, k = np.nonzero(near_nonnegative(x))  # by delta, then pair
            at = eval_at_jomega(np.stack([self.a[u], self.b[u]]),
                                np.sqrt(x.real[i, u, k])[:, None])[..., 0]
            theta = np.angle(-at[0] * at[1].conj())
            unsure = np.bincount(i, weights=~np.isfinite(theta), minlength=len(deltas))
            # no crossing decides a delta only while level(0) > 0 at every pair
            decided = ok & (unsure == 0) & ((np.bincount(i, minlength=len(deltas)) > 0)
                                            | (level[..., 0] > 0.0).all(axis=1))
        keep = decided[i]
        i, p, t = i[keep], self.pairs[u[keep]], theta[keep]
        return decided, np.concatenate([i, i]), np.concatenate([p, p]), np.concatenate([t, -t])


def level_crossings(g_rows: np.ndarray, f_rows: np.ndarray) -> LevelCrossings | None:
    """The crossing test of the rows g + (1 + delta e^{j theta}) f over the real (g, f) row
    pairs (P, n+1). Called with an array of deltas, it gives in flat arrays the delta index,
    pair index and theta of each imaginary-axis crossing of every delta it decides, and which
    deltas it decides. None instead of a test unless hurwitz_batch's first pivot test confirms
    every g + f Hurwitz.

    With a = shift(g + f) and b = shift(f), the Taylor shift of hurwitz_batch, a + c b has the
    root j omega exactly when c = -a(j omega) / b(j omega). On the circle |c| = delta the
    crossings are the roots x = omega^2 >= 0 of the level polynomial M_a - delta^2 M_b (M as
    in magnitude_squared, built once per pair), at theta = +-arg(-a(j omega) conj b(j omega)).
    While its leading coefficient is positive, every row keeps its degree, and its roots move
    continuously with c. So between two consecutive crossing thetas of a pair, its rows on the
    circle are all Hurwitz or none is; and if the level polynomial is positive at x = 0 and
    has no root within CROSSING_TOL of [0, inf), no row on the whole disk |c| <= delta has a
    root on the axis, and every row is Hurwitz, as a is. The rows of all deltas are solved in
    one solve_rows call. A level row that fails alone, a row that is not finite, or a leading
    coefficient (delta near 1) or value at x = 0 (a crossing at or near omega = 0, which the
    root filter can miss) within CROSSING_TOL of 0 relative to M_a's decides nothing for that
    delta.
    """
    first, _ = distinct_rows(np.hstack([g_rows, f_rows]))
    a = _taylor_shift(g_rows[first] + f_rows[first])
    b = _taylor_shift(f_rows[first])
    with np.errstate(all="ignore"):  # an overflow shows as a matrix or row that is not finite
        if not _positive_pivots(_unit_diagonal(_hermite_matrix(a)), -HERMITE_ROUNDOFF).all():
            return None
        return LevelCrossings(first, a, b, magnitude_squared(a), magnitude_squared(b))
