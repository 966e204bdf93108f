"""Hurwitz stability verdicts.

Routh over real coefficient rows, all rows at once. Batches of complex
coefficient rows get Hermite's criterion: a row is Hurwitz exactly when
its Hermite matrix is positive definite, which one batched eigenvalue
call decides without iterating. Roots, from a batched simultaneous-
correction (Aberth-Ehrlich style) iteration, serve root sets and the rare
rows whose Hermite verdict is within roundoff of the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (DegenerateLeadingError, IntervalHinfError, NoConvergenceError,
                     ZeroPolynomialError)
from .poly import ZERO_DEGREE, check_finite, degrees, distinct_rows, eval_many

__all__ = [
    "StabilityVerdict",
    "RootSet",
    "is_hurwitz_real",
    "roots_complex",
    "is_hurwitz_complex",
    "hurwitz_batch",
    "HURWITZ_TOL",
]

HURWITZ_TOL = 1e-9          # dead zone: Hurwitz means every root has Re < -HURWITZ_TOL
HERMITE_ROUNDOFF = 1e-12    # scaled Hermite eigenvalues this near 0 have no trusted sign
MAX_ITER = 200
CORRECTION_TOL = 1e-13      # relative to the starting radius
ACCEPT_RESIDUAL = 1e-9      # normalized backward error bound
LEADING_FLOOR = 1e-12       # |leading| / max|coeff| degeneracy threshold


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

    Leading coefficients are normalized positive. A zero in the first column is
    conclusive "not Hurwitz"; there is no epsilon continuation because the target
    set is the open left half plane. A degree-0 row is Hurwitz.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or not np.isfinite(rows).all():
        raise ValueError("Routh test needs finite (B, n+1) coefficient rows")
    deg = degrees(rows)
    if (deg == ZERO_DEGREE).any():
        raise ZeroPolynomialError("stability of the zero polynomial is undefined")
    n = int(deg.max(initial=0))
    back = deg[:, None] - np.arange(n + 1)  # descending, left-aligned
    desc = np.where(back >= 0, np.take_along_axis(rows, np.maximum(back, 0), axis=1), 0.0)
    desc[desc[:, 0] < 0] *= -1.0

    hi, lo = desc[:, 0::2], np.zeros((len(rows), (n + 2) // 2))
    lo[:, : (n + 1) // 2] = desc[:, 1::2]
    first_column = [hi[:, 0], lo[:, 0]]
    # a shorter row's padding stays +-0 unless a zero or non-finite pivot already failed it
    with np.errstate(all="ignore"):
        for _ in range(n - 1):
            pivot = lo[:, :1]
            nxt = np.zeros_like(hi)
            nxt[:, :-1] = (pivot * hi[:, 1:] - hi[:, :1] * lo[:, 1:]) / pivot
            hi, lo = lo, nxt
            first_column.append(nxt[:, 0])
    positive = np.stack(first_column[: n + 1], axis=1) > 0.0
    return (positive | (np.arange(n + 1) > deg[:, None])).all(axis=1)


def _start_circle(radius: np.ndarray, degree: int, phase: float) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(degree) / degree + phase
    return radius[:, None] * np.exp(1j * angles)[None, :]


def _iterate(coeffs: np.ndarray, z: np.ndarray,
             radius: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Simultaneous-correction sweep; returns (roots, converged mask)."""
    n_poly, d = z.shape
    dcoeffs = coeffs[:, 1:] * np.arange(1, d + 1)
    converged = np.zeros(n_poly, dtype=bool)
    diag = np.arange(d)
    for _ in range(MAX_ITER):
        act = ~converged
        if not act.any():
            break
        za = z[act]
        with np.errstate(all="ignore"):
            pv = eval_many(coeffs[act], za)
            dv = eval_many(dcoeffs[act], za)
            newton = pv / dv
            diff = za[:, :, None] - za[:, None, :]
            diff[:, diag, diag] = np.inf
            repel = (1.0 / diff).sum(axis=2)
            w = newton / (1.0 - newton * repel)
            # fall back where the Aberth denominator or Newton ratio degenerated
            w = np.where(np.isfinite(w), w, newton)
            w = np.where(np.isfinite(w), w, 0.37 * radius[act, None] * np.exp(0.5j))
        za = za - w
        z[act] = za
        step_ok = np.abs(w).max(axis=1) < CORRECTION_TOL * radius[act]
        idx = np.flatnonzero(act)
        converged[idx[step_ok]] = True
    return z, converged


def _residuals(coeffs: np.ndarray, roots: np.ndarray) -> np.ndarray:
    pv = np.abs(eval_many(coeffs, roots))
    mags = np.abs(coeffs)
    az = np.abs(roots)
    scale = np.broadcast_to(mags[:, -1:], roots.shape).copy()
    for k in range(coeffs.shape[1] - 2, -1, -1):
        scale = scale * az + mags[:, k : k + 1]
    scale = np.maximum(scale, np.finfo(float).tiny)
    return (pv / scale).max(axis=1)


def roots_batch(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All roots of a batch of same-degree polynomials.

    coeffs: (B, d+1) complex, ascending by power, leading column nonzero.
    Starts on a perturbed circle of Cauchy-bound radius, iterates until the
    largest correction drops below CORRECTION_TOL * radius or the cap hits,
    then restarts stalled rows once from a rotated circle. Rows that still
    miss the residual bound raise NoConvergenceError.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=complex)
    n_poly, width = coeffs.shape
    d = width - 1
    if d < 1:
        raise ValueError("root extraction needs degree >= 1")
    lead = np.abs(coeffs[:, -1])
    top = np.abs(coeffs).max(axis=1)
    if (lead <= LEADING_FLOOR * top).any():
        raise DegenerateLeadingError("leading coefficient below degeneracy threshold")

    radius = 1.0 + np.abs(coeffs[:, :-1]).max(axis=1) / lead
    z = _start_circle(radius, d, phase=0.41)
    z, converged = _iterate(coeffs, z, radius)
    res = _residuals(coeffs, z)

    retry = ~converged & (res > ACCEPT_RESIDUAL)
    if retry.any():
        idx = np.flatnonzero(retry)
        z2 = _start_circle(radius[idx], d, phase=0.41 + np.pi / (2 * d))
        z2, conv2 = _iterate(coeffs[idx], z2, radius[idx])
        res2 = _residuals(coeffs[idx], z2)
        z[idx] = z2
        res[idx] = res2
        if (~conv2 & (res2 > ACCEPT_RESIDUAL)).any():
            raise NoConvergenceError(
                f"root iteration failed after restart (residual {res2.max():.3e})"
            )
    return z, res


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


def is_hurwitz_complex(coeffs: Sequence[complex],
                       tol: float = HURWITZ_TOL) -> StabilityVerdict:
    """True iff every root sits strictly left of -tol; margin = -max Re."""
    rs = roots_complex(coeffs)
    margin = -max(r.real for r in rs.roots)
    return StabilityVerdict(is_hurwitz=bool(margin > tol), margin=margin)


def _taylor_shift(coeffs: np.ndarray, h: float) -> np.ndarray:
    """Rows of p(s - h) from rows of p(s), ascending, by Horner steps q <- q*(s - h) + a_i."""
    q = np.zeros_like(coeffs)
    for a in coeffs.T[::-1]:
        q = np.concatenate([a[:, None], q[:, :-1]], axis=1) - h * q
    return q


def _hermite_matrix(a: np.ndarray) -> np.ndarray:
    """(B, n, n) Hermite matrices of rows a (degree n, ascending): K_ik multiplies s^i conj(w)^k
    in (p(s) conj p(w) - p#(s) conj p#(w)) / (s + conj w), where p#(s) = conj p(-conj s). Solved
    top row first from N_ik = a_i conj a_k - (-1)^(i+k) conj a_i a_k = K_(i-1,k) + K_(i,k-1)."""
    n = a.shape[1] - 1
    sign = (-1.0) ** np.add.outer(np.arange(n + 1), np.arange(n + 1))
    N = a[:, :, None] * a[:, None, :].conj() - sign * a[:, :, None].conj() * a[:, None, :]
    K = np.zeros((len(a), n, n), dtype=complex)
    K[:, n - 1] = N[:, n, :n]
    for i in range(n - 1, 0, -1):
        K[:, i - 1, 0] = N[:, i, 0]
        K[:, i - 1, 1:] = N[:, i, 1:n] - K[:, i, : n - 1]
    return K


def hurwitz_batch(coeffs: np.ndarray) -> np.ndarray:
    """True for each row whose roots all have Re < -HURWITZ_TOL, by Hermite's criterion.

    coeffs: (B, n+1), ascending, n >= 1, leading column nonzero. The test is the smallest
    eigenvalue of the Hermite matrix of p(s - HURWITZ_TOL) at unit diagonal; rows where it is
    within HERMITE_ROUNDOFF of 0 are decided by their roots, each solved alone, and a failure
    there is that of the lowest such row, re-raised with `row` set and named in the message.
    Byte-identical rows are tested once.
    """
    rows = np.ascontiguousarray(coeffs, dtype=complex)
    if rows.ndim != 2 or rows.shape[1] < 2 or not np.isfinite(rows).all():
        raise ValueError("Hurwitz test needs finite (B, n+1) coefficient rows with n >= 1")
    first, inverse = distinct_rows(rows)
    K = _hermite_matrix(_taylor_shift(rows[first], HURWITZ_TOL))
    d = np.sqrt(np.abs(K.real.diagonal(axis1=1, axis2=2)))
    d[d == 0.0] = 1.0
    lam = np.linalg.eigvalsh(K / (d[:, :, None] * d[:, None, :]))[:, 0]
    stable = lam > 0.0
    for u in sorted(np.flatnonzero(np.abs(lam) <= HERMITE_ROUNDOFF), key=first.__getitem__):
        k = int(first[u])
        try:
            stable[u] = roots_batch(rows[k : k + 1])[0].real.max() < -HURWITZ_TOL
        except IntervalHinfError as err:
            located = type(err)(f"row {k}: {err}")
            located.row = k
            raise located from err
    return stable[inverse]
