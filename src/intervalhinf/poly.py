"""Dense polynomial arithmetic and imaginary-axis evaluation.

Coefficients are stored dense and ascending by power; trailing zeros are
legal and never change semantics (degree is tracked explicitly). Real
polynomials are evaluated on the imaginary axis through their even/odd
split, which keeps the real and imaginary parts separately conditioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

__all__ = [
    "RealPolynomial",
    "ComplexPolynomial",
    "EvenPolynomial",
    "eval_at_jomega",
    "even_odd_split",
    "magnitude_squared",
    "add",
    "scale",
    "derivative",
]

ZERO_DEGREE = -1  # degree sentinel for the zero polynomial


def _as_tuple(coeffs: Iterable[complex], cast) -> tuple:
    out = tuple(cast(c) for c in coeffs)
    return out if out else (cast(0),)


def _check_finite(coeffs: Sequence[complex]) -> None:
    for i, c in enumerate(coeffs):
        if not (math.isfinite(c.real) and math.isfinite(complex(c).imag)):
            raise ValueError(f"non-finite coefficient at power {i}: {c!r}")


def _last_nonzero(coeffs: Sequence[complex]) -> int:
    for i in range(len(coeffs) - 1, -1, -1):
        if coeffs[i] != 0:
            return i
    return ZERO_DEGREE


@dataclass(frozen=True)
class RealPolynomial:
    """Real-coefficient polynomial, coeffs[i] multiplying s**i."""

    coeffs: tuple[float, ...]

    def __init__(self, coeffs: Iterable[float]):
        object.__setattr__(self, "coeffs", _as_tuple(coeffs, float))
        _check_finite(self.coeffs)

    @property
    def degree(self) -> int:
        return _last_nonzero(self.coeffs)

    @property
    def leading(self) -> float:
        d = self.degree
        return 0.0 if d == ZERO_DEGREE else self.coeffs[d]

    def eval(self, s: complex) -> complex:
        return _horner(self.coeffs, s)

    def __call__(self, s: complex) -> complex:
        return self.eval(s)


@dataclass(frozen=True)
class ComplexPolynomial:
    """Complex-coefficient polynomial, coeffs[i] multiplying s**i."""

    coeffs: tuple[complex, ...]

    def __init__(self, coeffs: Iterable[complex]):
        object.__setattr__(self, "coeffs", _as_tuple(coeffs, complex))
        _check_finite(self.coeffs)

    @property
    def degree(self) -> int:
        return _last_nonzero(self.coeffs)

    @property
    def leading(self) -> complex:
        d = self.degree
        return 0j if d == ZERO_DEGREE else self.coeffs[d]

    def eval(self, s: complex) -> complex:
        return _horner(self.coeffs, s)

    def __call__(self, s: complex) -> complex:
        return self.eval(s)


@dataclass(frozen=True)
class EvenPolynomial:
    """Polynomial in a single squared variable.

    Two conventions share this carrier: the even/odd halves alpha, beta
    coming out of ``even_odd_split`` are polynomials in u = s**2 (evaluate
    at u = -omega**2 on the imaginary axis), while ``magnitude_squared``
    results live in x = omega**2 directly (evaluate at x >= 0).
    """

    coeffs: tuple[float, ...]

    def __init__(self, coeffs: Iterable[float]):
        object.__setattr__(self, "coeffs", _as_tuple(coeffs, float))
        _check_finite(self.coeffs)

    @property
    def degree(self) -> int:
        return _last_nonzero(self.coeffs)

    def eval(self, x: float) -> float:
        return _horner(self.coeffs, x)

    def __call__(self, x: float) -> float:
        return self.eval(x)


AnyPolynomial = Union[RealPolynomial, ComplexPolynomial, EvenPolynomial]


def _horner(coeffs: Sequence, s):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * s + c
    return acc


def eval_many(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Horner evaluation of ascending coefficient rows (B, d+1) at points z (B, k)."""
    acc = np.broadcast_to(coeffs[:, -1:], z.shape).astype(complex)
    for k in range(coeffs.shape[1] - 2, -1, -1):
        acc = acc * z + coeffs[:, k : k + 1]
    return acc


def eval_at_jomega(p: RealPolynomial | ComplexPolynomial, omega: float) -> complex:
    """Evaluate p at s = j*omega.

    Real polynomials go through the split Re = alpha(-omega^2),
    Im = omega * beta(-omega^2); complex ones use direct Horner.
    """
    if isinstance(p, RealPolynomial):
        alpha, beta = even_odd_split(p)
        u = -(omega * omega)
        return complex(alpha.eval(u), omega * beta.eval(u))
    return p.eval(1j * omega)


def even_odd_split(p: RealPolynomial) -> tuple[EvenPolynomial, EvenPolynomial]:
    """Split p(s) = alpha(s^2) + s*beta(s^2) into its even/odd halves.

    alpha carries a0, a2, a4, ...; beta carries a1, a3, a5, ... Both are
    returned as polynomials in u = s^2; no sign substitution is stored.
    """
    return EvenPolynomial(p.coeffs[0::2]), EvenPolynomial(p.coeffs[1::2])


def magnitude_squared(p: RealPolynomial) -> EvenPolynomial:
    """Even polynomial M with M(omega^2) = |p(j*omega)|^2.

    M(x) = alpha(-x)^2 + x * beta(-x)^2; its degree in x equals deg(p)
    whenever the leading coefficient is nonzero.
    """
    alpha, beta = even_odd_split(p)
    signs_a = np.array([(-1.0) ** k for k in range(len(alpha.coeffs))])
    signs_b = np.array([(-1.0) ** k for k in range(len(beta.coeffs))])
    a = np.asarray(alpha.coeffs) * signs_a  # alpha(-x)
    b = np.asarray(beta.coeffs) * signs_b   # beta(-x)
    m = np.convolve(a, a)
    xb2 = np.concatenate([[0.0], np.convolve(b, b)])
    n = max(len(m), len(xb2))
    m = np.pad(m, (0, n - len(m)))
    xb2 = np.pad(xb2, (0, n - len(xb2)))
    return EvenPolynomial(m + xb2)


def add(p: AnyPolynomial, q: AnyPolynomial) -> AnyPolynomial:
    """Coefficientwise sum; complex wins when the kinds are mixed."""
    n = max(len(p.coeffs), len(q.coeffs))
    pc = p.coeffs + (0,) * (n - len(p.coeffs))
    qc = q.coeffs + (0,) * (n - len(q.coeffs))
    summed = tuple(a + b for a, b in zip(pc, qc))
    if isinstance(p, EvenPolynomial) and isinstance(q, EvenPolynomial):
        return EvenPolynomial(summed)
    if isinstance(p, ComplexPolynomial) or isinstance(q, ComplexPolynomial):
        return ComplexPolynomial(summed)
    return RealPolynomial(summed)


def scale(p: RealPolynomial | ComplexPolynomial, c: complex) -> ComplexPolynomial:
    """Multiply every coefficient by the complex scalar c."""
    return ComplexPolynomial(tuple(complex(c) * v for v in p.coeffs))


def derivative(p: AnyPolynomial) -> AnyPolynomial:
    """Formal derivative in the polynomial's own variable."""
    d = tuple(i * p.coeffs[i] for i in range(1, len(p.coeffs)))
    return type(p)(d)
