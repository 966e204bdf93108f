"""Interval polynomial families and their Kharitonov vertices.

A family is a coefficient box: independent closed intervals, one per
power of s. The four vertex polynomials arise from the alternating
lower/upper pattern on the even and odd coefficient subsequences, and
the family's value set at any fixed frequency is the axis-aligned
rectangle spanned by those vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DegreeOrderError
from .poly import RealPolynomial
from .stability import is_hurwitz_real

__all__ = [
    "IntervalPolynomial",
    "KharitonovSet",
    "kharitonov_vertices",
    "sample_many",
    "sum_family",
]


@dataclass(frozen=True)
class IntervalPolynomial:
    """Coefficient box [lower_i, upper_i], ascending by power of s."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __init__(self, lower: Iterable[float], upper: Iterable[float]):
        lo = tuple(float(v) for v in lower)
        hi = tuple(float(v) for v in upper)
        if len(lo) != len(hi):
            raise ValueError(f"bound lengths differ: {len(lo)} vs {len(hi)}")
        if not lo:
            raise ValueError("interval polynomial needs at least one coefficient")
        for i, (a, b) in enumerate(zip(lo, hi)):
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError(f"non-finite bound at power {i}")
            if a > b:
                raise ValueError(f"lower > upper at power {i}: [{a}, {b}]")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def degree(self) -> int:
        return len(self.lower) - 1

    @property
    def is_point(self) -> bool:
        return self.lower == self.upper


@dataclass(frozen=True)
class KharitonovSet:
    """The four vertex polynomials p_ij = alpha^(i)(s^2) + s*beta^(j)(s^2)."""

    p11: RealPolynomial
    p12: RealPolynomial
    p21: RealPolynomial
    p22: RealPolynomial

    def all_vertices(self) -> tuple[RealPolynomial, ...]:
        return (self.p11, self.p12, self.p21, self.p22)


VERTEX_LABELS = ("11", "12", "21", "22")  # vertex p_ij sits in row 2*(i-1) + (j-1)

# (i == 2, j == 2) per row: even powers follow alpha^(i), odd powers
# beta^(j), and index 2 flips the lower/upper alternation.
_SECOND_INDEX = np.array([[False, False], [False, True], [True, False], [True, True]])


def vertex_rows(family: IntervalPolynomial, width: int | None = None) -> np.ndarray:
    """(4, width) coefficients of the vertices p11, p12, p21, p22, ascending.

    alpha^(1) takes lower, upper, lower, ... over the even coefficients
    starting at the constant term and alpha^(2) is its complement; beta^(1)
    and beta^(2) do the same over the odd coefficients. Columns past the
    family's degree are zero, so numerator rows pad to the denominator width.
    """
    lo, hi = np.asarray(family.lower), np.asarray(family.upper)
    k = np.arange(len(lo))
    upper = ((k // 2) % 2 == 1) ^ _SECOND_INDEX[:, k % 2]
    rows = np.zeros((4, len(lo) if width is None else width))
    rows[:, : len(lo)] = np.where(upper, hi, lo)
    return rows


def kharitonov_vertices(family: IntervalPolynomial) -> KharitonovSet:
    """The four Kharitonov vertex polynomials of a coefficient box, from `vertex_rows`."""
    return KharitonovSet(*(RealPolynomial(r) for r in vertex_rows(family)))


def sample_many(family: IntervalPolynomial, count: int,
                rng: np.random.Generator) -> np.ndarray:
    """(count, n+1) array of members; columns with zero width stay exact."""
    lo = np.asarray(family.lower)
    hi = np.asarray(family.upper)
    out = rng.uniform(lo, hi, size=(count, len(lo)))
    fixed = hi <= lo
    if fixed.any():
        out[:, fixed] = lo[fixed]
    return out


def sum_family(kg: IntervalPolynomial, kf: IntervalPolynomial) -> IntervalPolynomial:
    """Coefficientwise interval sum of a numerator and denominator family.

    Requires deg(kg) < deg(kf); the result's Kharitonov vertices equal the
    matched vertex sums g_ij + f_ij because the alternation patterns align
    position by position.
    """
    m, n = kg.degree, kf.degree
    if m >= n:
        raise DegreeOrderError(
            f"numerator family degree {m} must be below denominator degree {n}"
        )
    pad = n - m
    lo = tuple(a + b for a, b in zip(kg.lower + (0.0,) * pad, kf.lower))
    hi = tuple(a + b for a, b in zip(kg.upper + (0.0,) * pad, kf.upper))
    return IntervalPolynomial(lo, hi)


def sum_family_hurwitz(kg: IntervalPolynomial, kf: IntervalPolynomial) -> bool:
    """Hurwitz test of the four matched vertex sums g_ij + f_ij.

    Their stability certifies the whole closed-loop family, because they
    are exactly the Kharitonov vertices of the coefficientwise interval sum;
    that identity is re-verified here on every call.
    """
    matched = vertex_rows(kg, len(kf.lower)) + vertex_rows(kf)
    mismatch = (matched != vertex_rows(sum_family(kg, kf))).any(axis=1)
    if mismatch.any():
        raise AssertionError(
            f"matched vertex sum ({VERTEX_LABELS[mismatch.argmax()]}) disagrees "
            "with the sum family vertex"
        )
    return bool(is_hurwitz_real(matched).all())
