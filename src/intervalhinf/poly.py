"""Real polynomials at the API edge and imaginary-axis evaluation.

Inside the package a polynomial is a dense ascending coefficient array,
batched as (B, d+1) rows wherever a hot path needs many of them;
`RealPolynomial` is the one validated type that public functions accept
and return. Trailing zeros are legal and never change semantics (degree
is tracked explicitly). Real polynomials are evaluated on the imaginary
axis through their even/odd split, which keeps the real and imaginary
parts separately conditioned.
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


def last_nonzero(coeffs: Sequence[complex]) -> int:
    """Index of the highest nonzero coefficient, ZERO_DEGREE if there is none."""
    for i in range(len(coeffs) - 1, -1, -1):
        if coeffs[i] != 0:
            return i
    return ZERO_DEGREE


@dataclass(frozen=True)
class RealPolynomial:
    """Real-coefficient polynomial, coeffs[i] multiplying s**i."""

    coeffs: tuple[float, ...]

    def __init__(self, coeffs: Iterable[float]):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in coeffs) or (0.0,))
        check_finite(self.coeffs)

    @property
    def degree(self) -> int:
        return last_nonzero(self.coeffs)

    @property
    def leading(self) -> float:
        d = self.degree
        return 0.0 if d == ZERO_DEGREE else self.coeffs[d]


def _horner(coeffs: Sequence, s):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * s + c
    return acc


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


def eval_at_jomega(p: RealPolynomial, omega: float) -> complex:
    """Evaluate p at s = j*omega as Re = alpha(-omega^2), Im = omega * beta(-omega^2).

    p(s) = alpha(s^2) + s*beta(s^2): alpha carries a0, a2, ... and beta
    a1, a3, ...; a constant's odd half is 0.0, so Im keeps omega's sign.
    """
    u = -(omega * omega)
    return complex(_horner(p.coeffs[0::2], u),
                   omega * _horner(p.coeffs[1::2] or (0.0,), u))


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
