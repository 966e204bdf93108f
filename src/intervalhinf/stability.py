"""Hurwitz stability verdicts.

Real polynomials get a Routh array test; complex polynomials go through
root extraction with a simultaneous-correction (Aberth-Ehrlich style)
iteration. The batched kernel is shared by every caller that needs root
real parts, so one numeric engine serves verdicts, margins and sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateLeadingError, NoConvergenceError, ZeroPolynomialError
from .poly import ZERO_DEGREE, RealPolynomial, check_finite, eval_many, last_nonzero

__all__ = [
    "StabilityVerdict",
    "RootSet",
    "is_hurwitz_real",
    "roots_complex",
    "is_hurwitz_complex",
    "HURWITZ_TOL",
]

HURWITZ_TOL = 1e-9          # dead zone for root-based verdicts
MAX_ITER = 200
CORRECTION_TOL = 1e-13      # relative to the starting radius
ACCEPT_RESIDUAL = 1e-9      # normalized backward error bound
LEADING_FLOOR = 1e-12       # |leading| / max|coeff| degeneracy threshold


@dataclass(frozen=True)
class StabilityVerdict:
    is_hurwitz: bool
    margin: float | None     # -max Re(root); None for Routh-only verdicts
    method: str              # "routh" or "roots"


@dataclass(frozen=True)
class RootSet:
    roots: tuple[complex, ...]
    residual: float          # max over roots of |p(z)| / sum_k |c_k||z|^k


def is_hurwitz_real(p: RealPolynomial) -> StabilityVerdict:
    """Routh array verdict: Hurwitz iff every first-column entry is positive.

    The leading coefficient is normalized positive first. A zero anywhere
    in the first column is conclusive "not Hurwitz"; there is no epsilon
    continuation because the target set is the open left half plane.
    """
    d = p.degree
    if d == ZERO_DEGREE:
        raise ZeroPolynomialError("stability of the zero polynomial is undefined")
    if d == 0:
        return StabilityVerdict(is_hurwitz=True, margin=None, method="routh")

    desc = [p.coeffs[i] for i in range(d, -1, -1)]
    if desc[0] < 0:
        desc = [-c for c in desc]

    width = (d + 2) // 2
    row_hi = desc[0::2] + [0.0] * (width - len(desc[0::2]))
    row_lo = desc[1::2] + [0.0] * (width - len(desc[1::2]))
    first_column = [row_hi[0], row_lo[0]]
    for _ in range(d - 1):
        pivot = row_lo[0]
        if pivot == 0.0:
            return StabilityVerdict(is_hurwitz=False, margin=None, method="routh")
        nxt = [
            (pivot * row_hi[i + 1] - row_hi[0] * row_lo[i + 1]) / pivot
            for i in range(width - 1)
        ] + [0.0]
        row_hi, row_lo = row_lo, nxt
        first_column.append(nxt[0])
    ok = all(entry > 0.0 for entry in first_column[: d + 1])
    return StabilityVerdict(is_hurwitz=ok, margin=None, method="routh")


def _start_circle(radius: np.ndarray, degree: int, phase: float) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(degree) / degree + phase
    return radius[:, None] * np.exp(1j * angles)[None, :]


def _iterate(coeffs: np.ndarray, z: np.ndarray, radius: np.ndarray,
             max_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """Simultaneous-correction sweep; returns (roots, converged mask)."""
    n_poly, d = z.shape
    dcoeffs = coeffs[:, 1:] * np.arange(1, d + 1)
    converged = np.zeros(n_poly, dtype=bool)
    diag = np.arange(d)
    for _ in range(max_iter):
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


def roots_batch(coeffs: np.ndarray, *, max_iter: int = MAX_ITER,
                accept_residual: float = ACCEPT_RESIDUAL) -> tuple[np.ndarray, np.ndarray]:
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
    z, converged = _iterate(coeffs, z, radius, max_iter)
    res = _residuals(coeffs, z)

    retry = ~converged & (res > accept_residual)
    if retry.any():
        idx = np.flatnonzero(retry)
        z2 = _start_circle(radius[idx], d, phase=0.41 + np.pi / (2 * d))
        z2, conv2 = _iterate(coeffs[idx], z2, radius[idx], max_iter)
        res2 = _residuals(coeffs[idx], z2)
        z[idx] = z2
        res[idx] = res2
        if (~conv2 & (res2 > accept_residual)).any():
            raise NoConvergenceError(
                f"root iteration failed after restart (residual {res2.max():.3e})"
            )
    return z, res


def roots_complex(coeffs: Sequence[complex]) -> RootSet:
    """Roots of one polynomial, given ascending coefficients, via the batched kernel."""
    c = [complex(v) for v in coeffs]
    check_finite(c)
    d = last_nonzero(c)
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
    return StabilityVerdict(is_hurwitz=bool(margin > tol), margin=margin, method="roots")


def max_real_parts_batch(coeffs: np.ndarray) -> np.ndarray:
    """Max root real part per row; shared fast path for theta sweeps."""
    roots, _ = roots_batch(coeffs)
    return roots.real.max(axis=1)
