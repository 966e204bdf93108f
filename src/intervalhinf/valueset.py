"""Value-set geometry of the perturbed closed-loop family.

At a fixed frequency the family g + (1 + delta*e^{j theta}) f traces a
convex polygon with at most eight corners: the Minkowski sum of the
numerator rectangle and the rotated-scaled denominator rectangle. The
corners are perturbed vertex evaluations, and which eight tuples can
appear depends only on the signs of omega and of the perturbation angle.
Stability of the whole family at one (delta, theta) reduces to twelve of
those vertex polynomials; sweeping the polygon over omega and testing
that it never touches the origin gives the independent zero-exclusion
route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DeltaRangeError, HullMismatchError
from .interval import IntervalPolynomial, vertex_rows
from .poly import eval_many
from .stability import HURWITZ_TOL, max_real_parts_batch

__all__ = [
    "VertexTuple",
    "ValueSetPolygon",
    "OriginCheck",
    "TWELVE_TUPLES",
    "ALL_SIXTEEN",
    "octagon",
    "origin_excluded",
    "family_complex_stability",
    "zero_exclusion_sweep",
    "sweep_octagons",
]


@dataclass(frozen=True, order=True)
class VertexTuple:
    """Index quadruple (i1 j1 i2 j2): g vertex i1 j1 paired with f vertex i2 j2."""

    i1: int
    j1: int
    i2: int
    j2: int

    def __post_init__(self):
        for v in (self.i1, self.j1, self.i2, self.j2):
            if v not in (1, 2):
                raise ValueError(f"vertex indices must be 1 or 2, got {self!r}")

    @property
    def g_row(self) -> int:
        """Row of the numerator vertex g_{i1 j1} in `interval.vertex_rows`."""
        return 2 * (self.i1 - 1) + (self.j1 - 1)

    @property
    def f_row(self) -> int:
        """Row of the denominator vertex f_{i2 j2} in `interval.vertex_rows`."""
        return 2 * (self.i2 - 1) + (self.j2 - 1)

    @property
    def label(self) -> str:
        return f"{self.i1}{self.j1}{self.i2}{self.j2}"

    @classmethod
    def from_label(cls, label: str) -> VertexTuple:
        if len(label) != 4 or any(ch not in "12" for ch in label):
            raise ValueError(f"vertex tuple label must be four digits of 1/2: {label!r}")
        return cls(*(int(ch) for ch in label))


def _tuples(labels: str) -> tuple[VertexTuple, ...]:
    return tuple(VertexTuple.from_label(l) for l in labels.split())


# Twelve tuples whose perturbed vertex polynomials certify the whole
# family, in the canonical listing order (also the sensitivity-maximum
# search set).
TWELVE_TUPLES = _tuples(
    "1111 1212 2222 2121 1112 1222 2221 2111 1211 2212 2122 1121"
)

ALL_SIXTEEN = tuple(
    VertexTuple(i1, j1, i2, j2)
    for i1 in (1, 2) for j1 in (1, 2) for i2 in (1, 2) for j2 in (1, 2)
)

# Clockwise corner candidates of the eight-edge polygon. Case A applies
# when omega and arg(1 + delta*e^{j theta}) share a sign (mirror pairs
# included); case B covers the opposite pairing. At arg = 0 or omega = 0
# the polygon degenerates and both lists describe it.
CASE_A = _tuples("1111 1112 1212 1222 2222 2221 2121 2111")
CASE_B = _tuples("1111 1211 1212 2212 2222 2122 2121 1121")


@dataclass(frozen=True)
class ValueSetPolygon:
    """Convex value-set polygon at one frequency, vertices in clockwise order."""

    vertices: tuple[tuple[complex, VertexTuple], ...]
    omega: float
    delta: float
    theta: float

    def points(self) -> tuple[complex, ...]:
        return tuple(p for p, _ in self.vertices)

    def provenance(self) -> tuple[VertexTuple, ...]:
        return tuple(t for _, t in self.vertices)


class OriginCheck(NamedTuple):
    excluded: bool
    margin: float


def _check_delta(delta: float) -> None:
    if not (0.0 < delta < 1.0):
        raise DeltaRangeError(f"delta must lie in (0, 1), got {delta}")


def rotation_factor(delta: float, theta: float) -> complex:
    return 1.0 + delta * complex(math.cos(theta), math.sin(theta))


def predicted_tuples(omega: float, delta: float, theta: float) -> tuple[VertexTuple, ...]:
    """The eight tuples that can appear as polygon corners for this configuration."""
    phi = math.atan2(delta * math.sin(theta), 1.0 + delta * math.cos(theta))
    if omega >= 0:
        return CASE_A if phi >= 0 else CASE_B
    return CASE_A if phi <= 0 else CASE_B


def _convex_hull(points: list[complex], scale_: float) -> list[complex]:
    """Monotone chain on deduplicated points; clockwise, strict corners only."""
    tol = 1e-12 * max(scale_, 1.0)
    unique: list[complex] = []
    for p in sorted(points, key=lambda z: (z.real, z.imag)):
        if not unique or abs(p - unique[-1]) > tol:
            unique.append(p)
    if len(unique) <= 2:
        return unique
    cross_tol = 1e-12 * max(scale_, 1.0) ** 2

    def cross(o: complex, a: complex, b: complex) -> float:
        return (a.real - o.real) * (b.imag - o.imag) - (a.imag - o.imag) * (b.real - o.real)

    def half(pts: list[complex]) -> list[complex]:
        out: list[complex] = []
        for p in pts:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= cross_tol:
                out.pop()
            out.append(p)
        return out

    lower_chain = half(unique)
    upper_chain = half(unique[::-1])
    ccw = lower_chain[:-1] + upper_chain[:-1]
    return ccw[::-1]  # clockwise; degenerate all-collinear sets reduce to [first, last]


def _polygon_from_points(point16: np.ndarray, omega: float, delta: float,
                         theta: float) -> ValueSetPolygon:
    predicted = predicted_tuples(omega, delta, theta)
    label_at = {t: point16[k] for k, t in enumerate(ALL_SIXTEEN)}
    pred_pts = [label_at[t] for t in predicted]
    scale_ = max(1.0, float(np.abs(point16).max()))
    hull = _convex_hull([complex(p) for p in point16], scale_)
    tol = 1e-9 * scale_
    tagged = []
    for p in hull:
        dists = [abs(p - q) for q in pred_pts]
        k = int(np.argmin(dists))
        if dists[k] > tol:
            raise HullMismatchError(
                f"hull vertex {p} at omega={omega} is {dists[k]:.3e} away from "
                f"every predicted vertex tuple (tolerance {tol:.3e})"
            )
        tagged.append((p, predicted[k]))
    return ValueSetPolygon(vertices=tuple(tagged), omega=omega, delta=delta, theta=theta)


def _vertex_values(family: IntervalPolynomial, omegas: np.ndarray) -> np.ndarray:
    """(4, len(omegas)) evaluations of p11, p12, p21, p22 at j*omega."""
    return eval_many(vertex_rows(family), np.broadcast_to(1j * omegas, (4, len(omegas))))


def _points16(gv: np.ndarray, fv: np.ndarray, factor: complex) -> np.ndarray:
    """16 perturbed evaluations from the 4 + 4 vertex values at one frequency."""
    # scalar products: numpy's vectorised complex multiply may fuse
    # multiply-adds, which moves hull corners by an ulp
    return np.array([gv[t.g_row] + factor * fv[t.f_row] for t in ALL_SIXTEEN])


def octagon(kg: IntervalPolynomial, kf: IntervalPolynomial, delta: float,
            theta: float, omega: float) -> ValueSetPolygon:
    """Convex hull of the 16 perturbed vertex evaluations at j*omega, with provenance.

    Every hull corner must coincide (to 1e-9 relative) with one of the
    eight case-predicted tuples; a farther corner raises HullMismatchError
    since it would contradict the polygon construction, not the inputs.
    """
    _check_delta(delta)
    om = np.array([float(omega)])
    pts = _points16(_vertex_values(kg, om)[:, 0], _vertex_values(kf, om)[:, 0],
                    rotation_factor(delta, theta))
    return _polygon_from_points(pts, float(omega), delta, theta)


def _segment_distance(p: complex, a: complex, b: complex) -> float:
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(p - a)
    t = max(0.0, min(1.0, ((p - a).real * ab.real + (p - a).imag * ab.imag) / denom))
    return abs(p - (a + t * ab))


def origin_excluded(polygon: ValueSetPolygon) -> OriginCheck:
    """Strict test that 0 lies outside the polygon; margin is signed distance.

    Degenerate polygons (point, segment) have no interior, so the margin
    is the plain distance. Exactly touching the boundary counts as not
    excluded: zero exclusion is an open condition.
    """
    pts = polygon.points()
    if len(pts) == 1:
        margin = abs(pts[0])
    elif len(pts) == 2:
        margin = _segment_distance(0j, pts[0], pts[1])
    else:
        dist = min(
            _segment_distance(0j, pts[k], pts[(k + 1) % len(pts)])
            for k in range(len(pts))
        )
        # clockwise orientation: interior points see every edge cross <= 0
        inside = all(
            (pts[(k + 1) % len(pts)].real - pts[k].real) * (-pts[k].imag)
            - (pts[(k + 1) % len(pts)].imag - pts[k].imag) * (-pts[k].real)
            <= 0.0
            for k in range(len(pts))
        )
        margin = -dist if inside else dist
    return OriginCheck(excluded=margin > 1e-12, margin=margin)


def tuple_rows(kg: IntervalPolynomial, kf: IntervalPolynomial,
               tuples: tuple[VertexTuple, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Numerator and denominator vertex rows of each tuple, both (len(tuples), n + 1)."""
    g = vertex_rows(kg, len(kf.lower))
    f = vertex_rows(kf)
    return g[[t.g_row for t in tuples]], f[[t.f_row for t in tuples]]


def perturbed_vertex_rows(g_rows: np.ndarray, f_rows: np.ndarray, delta: float,
                          thetas: np.ndarray) -> np.ndarray:
    """Perturbed vertex rows g + (1 + delta*e^{j theta}) * f over a theta grid.

    Shape (len(thetas) * len(g_rows), n + 1), theta outer and row pair inner;
    uniform degree n because the leading coefficient is
    (1 + delta*e^{j theta}) * a_n with a_n > 0.
    """
    factors = 1.0 + delta * np.exp(1j * thetas)
    rows = g_rows[None, :, :] + factors[:, None, None] * f_rows[None, :, :]
    return rows.reshape(len(thetas) * len(g_rows), g_rows.shape[1])


def family_complex_stability(kg: IntervalPolynomial, kf: IntervalPolynomial,
                             delta: float, theta: float,
                             tol: float = HURWITZ_TOL) -> bool:
    """Hurwitz verdict for the whole family at one (delta, theta).

    True iff the twelve listed perturbed vertex polynomials are Hurwitz,
    which certifies every member g + (1 + delta*e^{j theta}) f at once.
    """
    _check_delta(delta)
    if kf.lower[-1] <= 0:
        raise ValueError("denominator family needs a strictly positive leading interval")
    g_rows, f_rows = tuple_rows(kg, kf, TWELVE_TUPLES)
    rows = perturbed_vertex_rows(g_rows, f_rows, delta, np.array([theta]))
    return bool((max_real_parts_batch(rows) < -tol).all())


def family_cauchy_bound(kg: IntervalPolynomial, kf: IntervalPolynomial,
                        delta: float) -> float:
    """Root-magnitude bound valid for every member at every theta."""
    n = kf.degree
    bf = np.maximum(np.abs(kf.lower), np.abs(kf.upper))
    bg = np.zeros(n + 1)
    bg[: kg.degree + 1] = np.maximum(np.abs(kg.lower), np.abs(kg.upper))
    numer = (bg[:-1] + 2.0 * bf[:-1]).max()
    denom = (1.0 - delta) * kf.lower[-1]
    return 1.0 + numer / denom


def sweep_octagons(kg: IntervalPolynomial, kf: IntervalPolynomial, delta: float,
                   theta: float, omega_max: float,
                   points: int) -> Iterator[tuple[ValueSetPolygon, OriginCheck]]:
    """Value-set polygons on an asinh-uniform grid over [-omega_max, omega_max]."""
    _check_delta(delta)
    if points < 2:
        raise ValueError("sweep needs at least 2 grid points")
    t = np.linspace(-math.asinh(omega_max), math.asinh(omega_max), points)
    omegas = np.sinh(t)
    gv = _vertex_values(kg, omegas)
    fv = _vertex_values(kf, omegas)
    factor = rotation_factor(delta, theta)
    for k, om in enumerate(omegas):
        poly = _polygon_from_points(_points16(gv[:, k], fv[:, k], factor), float(om),
                                    delta, theta)
        yield poly, origin_excluded(poly)


def zero_exclusion_sweep(kg: IntervalPolynomial, kf: IntervalPolynomial,
                         delta: float, theta: float, omega_max: float,
                         points: int) -> bool:
    """Zero-exclusion route to family stability at one (delta, theta).

    Anchors on one stable member (the 1111 vertex), then requires the origin
    to stay strictly outside the polygon at every grid frequency. A grid can
    miss a crossing between points, so a True here cross-checks rather
    than replaces the twelve-polynomial verdict.
    """
    _check_delta(delta)
    bound = family_cauchy_bound(kg, kf, delta)
    if omega_max < bound:
        raise ValueError(
            f"omega_max {omega_max:g} is below the family root bound {bound:g}; "
            "the sweep would not cover all possible axis crossings"
        )
    anchor = perturbed_vertex_rows(*tuple_rows(kg, kf, (VertexTuple(1, 1, 1, 1),)),
                                   delta, np.array([theta]))
    if max_real_parts_batch(anchor)[0] >= -HURWITZ_TOL:
        return False
    return all(check.excluded for _, check in
               sweep_octagons(kg, kf, delta, theta, omega_max, points))
