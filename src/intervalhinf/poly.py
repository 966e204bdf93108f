"""Real polynomials at the API edge and imaginary-axis evaluation.

Inside the package a polynomial is a dense ascending coefficient array,
batched as (B, d+1) rows wherever a hot path needs many of them;
`RealPolynomial` is the one validated type that public functions accept
and return. Trailing zeros are legal and never change semantics (each
row's degree is tracked explicitly). Real coefficient rows are evaluated
on the imaginary axis through their even/odd split, which keeps the real
and imaginary parts separately conditioned.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "RealPolynomial",
    "eval_at_jomega",
    "magnitude_squared",
]

ZERO_DEGREE = -1  # degree sentinel for the zero polynomial


def as_float(value) -> float:
    """float(value), with a number too large for a float taken as +-inf, not OverflowError."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def check_finite(coeffs: Sequence[complex]) -> None:
    for i, c in enumerate(coeffs):
        if not (math.isfinite(c.real) and math.isfinite(complex(c).imag)):
            raise ValueError(f"non-finite coefficient at power {i}: {c!r}")


def check_count(name: str, value, least: int) -> int:
    """value as an int if it is a whole number >= least, else ValueError("<name>: expected
    <what>"). An integral float such as YAML's 720.0 and a numpy integer are taken; booleans,
    strings and fractions are refused."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        what = "a non-negative integer" if least == 0 else f"an integer >= {least}"
        raise ValueError(f"{name}: expected {what}")
    return int(value)


def check_width(name: str, value) -> float:
    """value as a float if it is a finite real > 0, else ValueError("<name>: expected a finite
    float > 0"). Booleans and strings are refused."""
    # compared, not converted: an int too large for a float fails here, not in float()
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not 0.0 < value <= sys.float_info.max):
        raise ValueError(f"{name}: expected a finite float > 0")
    return float(value)


@dataclass(frozen=True)
class RealPolynomial:
    """Real-coefficient polynomial, coeffs[i] multiplying s**i."""

    coeffs: tuple[float, ...]

    def __init__(self, coeffs: Iterable[float]):
        object.__setattr__(self, "coeffs", tuple(as_float(c) for c in coeffs) or (0.0,))
        check_finite(self.coeffs)

    @property
    def degree(self) -> int:
        d = len(self.coeffs) - 1
        while d > ZERO_DEGREE and self.coeffs[d] == 0:
            d -= 1
        return d


def degrees(rows: np.ndarray) -> np.ndarray:
    """Each row's index of its highest nonzero coefficient, ZERO_DEGREE for a zero row."""
    nonzero = rows != 0
    top = rows.shape[1] - 1 - nonzero[:, ::-1].argmax(axis=1)
    return np.where(nonzero.any(axis=1), top, ZERO_DEGREE)


def distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First index of each byte-distinct row, and each row's position among those."""
    if len(rows) == 1:  # nothing to sort
        return np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp)
    rows = np.ascontiguousarray(rows)
    _, first, inverse = np.unique(rows.view(f"V{rows.shape[1] * rows.itemsize}").ravel(),
                                  return_index=True, return_inverse=True)
    return first, inverse


def scale_exponents(rows: np.ndarray) -> np.ndarray:
    """(B, 1) exponents e that put the largest |coefficient| of each row (B, d+1) in [0.5, 1)
    once scaled by np.ldexp(rows, -e), exact unless a coefficient falls below the normal range;
    0 for a zero row."""
    return np.frexp(np.abs(rows).max(axis=1))[1][:, None]


def eval_many(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The package's one polynomial evaluation: ascending rows (..., d+1) at points (..., k),
    broadcasting, by Horner in place in np.result_type(coeffs, z), so real rows at real points
    stay real."""
    acc = np.empty(np.broadcast(coeffs[..., :1], z).shape, dtype=np.result_type(coeffs, z))
    acc[...] = coeffs[..., -1:]
    for k in range(coeffs.shape[-1] - 2, -1, -1):
        acc *= z
        acc += coeffs[..., k : k + 1]
    return acc


def eval_at_jomega(rows: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Values of real ascending rows (..., d+1) at s = j*omega, frequencies (..., k) broadcasting.

    Row p(s) = alpha(s^2) + s*beta(s^2) gives Re = alpha(-omega^2) and Im = omega *
    beta(-omega^2), each half by eval_many; a constant's odd half is 0.0, so Im keeps
    omega's sign.
    """
    rows, omega = np.asarray(rows, dtype=float), np.asarray(omega, dtype=float)
    u = -(omega * omega)
    odd = rows[..., 1::2] if rows.shape[-1] > 1 else np.zeros(rows.shape[:-1] + (1,))
    out = eval_many(rows[..., 0::2], u).astype(complex)
    out.imag = eval_many(odd, u) * omega
    return out


def multiply_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Ascending coefficient rows (B, a+b-1) of the products of rows p (B, a) and q (B, b),
    real or complex, in np.result_type(p, q).

    The outer products are laid out batch last, (a, a+b, B), with p's k-th power shifted k
    places, so summing over p's powers adds each anti-diagonal of every pair in ascending
    order of p's powers, padding zeros included, with the batch as the long inner loop.
    """
    count, a = p.shape
    b = q.shape[1]
    skewed = np.zeros((a, a + b, count), dtype=np.result_type(p, q))
    np.multiply(p.T[:, None, :], q.T[None, :, :], out=skewed[:, :b])
    skewed.shape = (a * (a + b), count)
    return skewed[: a * (a + b - 1)].reshape(a, a + b - 1, count).sum(axis=0).T


def magnitude_squared(rows: np.ndarray) -> np.ndarray:
    """Ascending rows (B, n+1) of M with M(omega^2) = |p(j*omega)|^2, for real rows p (B, n+1).

    M(x) = alpha(-x)^2 + x * beta(-x)^2 for the even/odd halves of p: with q_i = p_i signed by
    (-1)^floor(i/2), M is every other coefficient of q * q, one multiply_rows call for the
    batch. Its degree in x equals deg(p).
    """
    rows = np.asarray(rows, dtype=float)
    signed = rows * (1 - (np.arange(rows.shape[1]) & 2))
    return multiply_rows(signed, signed)[:, 0::2]


@cache
def _even_diagonals(width: int) -> np.ndarray:
    """(width^2, width) 0/1 matrix that sums entry (i, j) of a flattened (width, width) outer
    product into column k where i + j = 2k. Read-only: every caller shares it."""
    i, j = np.divmod(np.arange(width * width), width)
    even = np.flatnonzero((i + j) % 2 == 0)
    out = np.zeros((width * width, width))
    out[even, (i + j)[even] // 2] = 1.0
    out.setflags(write=False)
    return out


def magnitude_bounds(rows: np.ndarray) -> np.ndarray:
    """Ascending rows (B, n+1) of Mbar, every other coefficient of |p| * |p|, for real rows p
    (B, n+1): magnitude_squared's coefficients with every term taken in absolute value, so
    |M| <= Mbar, and the scale of M's roundoff."""
    a = np.abs(np.asarray(rows, dtype=float))
    count, width = a.shape
    return (a[:, :, None] * a[:, None, :]).reshape(count, width * width) @ _even_diagonals(width)
