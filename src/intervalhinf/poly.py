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
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "RealPolynomial",
    "eval_at_jomega",
    "magnitude_squared",
    "add",
]

ZERO_DEGREE = -1  # degree sentinel for the zero polynomial


def check_finite(coeffs: Sequence[complex]) -> None:
    for i, c in enumerate(coeffs):
        if not (math.isfinite(c.real) and math.isfinite(complex(c).imag)):
            raise ValueError(f"non-finite coefficient at power {i}: {c!r}")


@dataclass(frozen=True)
class RealPolynomial:
    """Real-coefficient polynomial, coeffs[i] multiplying s**i."""

    coeffs: tuple[float, ...]

    def __init__(self, coeffs: Iterable[float]):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in coeffs) or (0.0,))
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
    rows = np.ascontiguousarray(rows)
    _, first, inverse = np.unique(rows.view(f"V{rows.shape[1] * rows.itemsize}").ravel(),
                                  return_index=True, return_inverse=True)
    return first, inverse


def eval_many(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Horner evaluation of ascending coefficient rows (B, d+1) at points z (B, k)."""
    acc = np.broadcast_to(coeffs[:, -1:], z.shape).astype(complex)
    for k in range(coeffs.shape[1] - 2, -1, -1):
        acc = acc * z + coeffs[:, k : k + 1]
    return acc


def eval_at_jomega(rows: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Values of real ascending rows (B, d+1) at s = j*omega for frequencies (B, k).

    Row p(s) = alpha(s^2) + s*beta(s^2) gives Re = alpha(-omega^2) and Im = omega *
    beta(-omega^2), each half by Horner from its top coefficient; a constant's
    odd half is 0.0, so Im keeps omega's sign.
    """
    rows, omega = np.asarray(rows, dtype=float), np.asarray(omega, dtype=float)
    u = -(omega * omega)
    out = np.empty(np.broadcast_shapes((len(rows), 1), u.shape), dtype=complex)
    odd = rows[:, 1::2] if rows.shape[1] > 1 else np.zeros((len(rows), 1))
    acc = np.empty(out.shape)
    for half, part in ((rows[:, 0::2], out.real), (odd, out.imag)):
        acc[...] = half[:, -1:]
        for k in range(half.shape[1] - 2, -1, -1):
            acc *= u
            acc += half[:, k : k + 1]
        part[...] = acc
    out.imag *= omega
    return out


def magnitude_squared(coeffs: Sequence[float]) -> np.ndarray:
    """Ascending coefficients of M with M(omega^2) = |p(j*omega)|^2.

    M(x) = alpha(-x)^2 + x * beta(-x)^2 for the even/odd halves of p's
    ascending coefficients; its degree in x equals deg(p) whenever the
    leading coefficient is nonzero.
    """
    a = np.array(coeffs[0::2], dtype=float)  # alpha(-x)
    b = np.array(coeffs[1::2] if len(coeffs) > 1 else [0.0], dtype=float)  # beta(-x)
    a[1::2] *= -1.0
    b[1::2] *= -1.0
    m = np.convolve(a, a)
    xb2 = np.concatenate([[0.0], np.convolve(b, b)])
    n = max(len(m), len(xb2))
    return np.pad(m, (0, n - len(m))) + np.pad(xb2, (0, n - len(xb2)))


def add(p: RealPolynomial, q: RealPolynomial) -> RealPolynomial:
    """Coefficientwise sum, the shorter operand zero-padded."""
    n = max(len(p.coeffs), len(q.coeffs))
    pc = p.coeffs + (0.0,) * (n - len(p.coeffs))
    qc = q.coeffs + (0.0,) * (n - len(q.coeffs))
    return RealPolynomial(a + b for a, b in zip(pc, qc))
