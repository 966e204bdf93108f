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
from .stability import hurwitz_batch

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


def _check_args(delta: float, **finite: float) -> None:
    if not (0.0 < delta < 1.0):
        raise DeltaRangeError(f"delta must lie in (0, 1), got {delta}")
    for name, value in finite.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def rotation_factor(delta: float, theta: float) -> complex:
    return 1.0 + delta * complex(math.cos(theta), math.sin(theta))


def predicted_tuples(omega: float, delta: float, theta: float) -> tuple[VertexTuple, ...]:
    """The eight tuples that can appear as polygon corners for this configuration."""
    phi = math.atan2(delta * math.sin(theta), 1.0 + delta * math.cos(theta))
    if omega >= 0:
        return CASE_A if phi >= 0 else CASE_B
    return CASE_A if phi <= 0 else CASE_B


def _check_enclosed(values: np.ndarray, corners: np.ndarray, scale: np.ndarray,
                    omegas: np.ndarray) -> None:
    """Raise HullMismatchError if a value passes an edge line or the corners' box by 1e-9*scale.

    Corners run clockwise; the box bounds point and segment polygons. Edges within
    the 1e-12*scale coincidence tolerance have no reliable direction and are skipped.
    """
    excess = np.maximum.reduce([corners.real.min(1, keepdims=True) - values.real,
                                values.real - corners.real.max(1, keepdims=True),
                                corners.imag.min(1, keepdims=True) - values.imag,
                                values.imag - corners.imag.max(1, keepdims=True)])
    for a, b in zip(corners.T, np.roll(corners, -1, axis=1).T):
        edge = (b - a)[:, None]
        left = ((values - a[:, None]) * edge.conj()).imag  # > 0: outside a clockwise edge
        length = np.abs(edge)
        np.maximum(excess, np.divide(left, length, out=np.zeros_like(left),
                                     where=length > 1e-12 * scale[:, None]), out=excess)
    for k, i in np.argwhere(excess > 1e-9 * scale[:, None])[:1]:
        raise HullMismatchError(f"vertex value {ALL_SIXTEEN[i].label} at omega={omegas[k]} "
                                f"lies {excess[k, i]:.3e} outside the predicted polygon "
                                f"(tolerance {1e-9 * scale[k]:.3e})")


def _corners(ranks: range, points: list[complex], tol: float) -> list[tuple[int, complex]]:
    """One polygon's clockwise (listing rank, point) corners, ending at the smallest (re, im).

    Coincident neighbours merge into the earlier-listed tuple; a corner that
    does not turn clockwise is dropped unless it reverses (a segment's end).
    """
    kept: list[tuple[int, complex]] = []
    for corner in zip(ranks, points):
        if not kept or abs(corner[1] - kept[-1][1]) > tol:
            kept.append(corner)
        kept[-1] = min(kept[-1], corner)
    if len(kept) > 1 and abs(kept[-1][1] - kept[0][1]) <= tol:
        kept[0] = min(kept.pop(), kept[0])
    if len(kept) > 2:
        pts = [p for _, p in kept]
        turns = [((b - a).conjugate() * (c - b), abs(b - a) * abs(c - b))
                 for a, b, c in zip(pts[-1:] + pts[:-1], pts, pts[1:] + pts[:1])]
        kept = [corner for corner, (turn, size) in zip(kept, turns)
                if turn.imag < -1e-12 * size or turn.real < 0.0]
    last = min(range(len(kept)), key=lambda k: (kept[k][1].real, kept[k][1].imag))
    return kept[last + 1:] + kept[: last + 1]


def _polygons(kg: IntervalPolynomial, kf: IntervalPolynomial, delta: float,
              theta: float, omegas: np.ndarray) -> Iterator[ValueSetPolygon]:
    """Value-set polygons at each omega, cornered by the case-predicted tuples.

    The eight predicted tuples run clockwise in listing order for omega >= 0
    and reversed below; they must enclose all sixteen perturbed vertex values.
    """
    z = np.broadcast_to(1j * omegas, (4, len(omegas)))
    gv, fv = eval_many(vertex_rows(kg), z).T, eval_many(vertex_rows(kf), z).T
    values = (gv[:, :, None] + rotation_factor(delta, theta) * fv[:, None, :]).reshape(-1, 16)
    scale = np.maximum(1.0, np.abs(values).max(axis=1))
    listings = (predicted_tuples(0.0, delta, theta), predicted_tuples(-1.0, delta, theta))
    column = [[ALL_SIXTEEN.index(t) for t in listing] for listing in listings]
    negative = omegas < 0
    corners = np.where(negative[:, None], values[:, column[1][::-1]], values[:, column[0]])
    _check_enclosed(values, corners, scale, omegas)
    for omega, neg, points, tol in zip(omegas.tolist(), negative.tolist(),
                                       corners.tolist(), (1e-12 * scale).tolist()):
        ranks = range(7, -1, -1) if neg else range(8)
        vertices = tuple((p, listings[neg][r]) for r, p in _corners(ranks, points, tol))
        yield ValueSetPolygon(vertices, omega, delta, theta)


def octagon(kg: IntervalPolynomial, kf: IntervalPolynomial, delta: float,
            theta: float, omega: float) -> ValueSetPolygon:
    """Value-set polygon of the 16 perturbed vertex evaluations at j*omega, with provenance.

    A vertex value outside the eight case-predicted corners raises HullMismatchError.
    """
    _check_args(delta, theta=theta, omega=omega)
    return next(_polygons(kg, kf, delta, theta, np.array([float(omega)])))


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
                             delta: float, theta: float) -> bool:
    """Hurwitz verdict for the whole family at one (delta, theta).

    True iff the twelve listed perturbed vertex polynomials are Hurwitz,
    which certifies every member g + (1 + delta*e^{j theta}) f at once.
    """
    _check_args(delta, theta=theta)
    if kf.lower[-1] <= 0:
        raise ValueError("denominator family needs a strictly positive leading interval")
    rows = perturbed_vertex_rows(*tuple_rows(kg, kf, TWELVE_TUPLES), delta, np.array([theta]))
    return bool(hurwitz_batch(rows).all())


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
    _check_args(delta, theta=theta, omega_max=omega_max)
    if points < 2:
        raise ValueError("sweep needs at least 2 grid points")
    t = np.linspace(-math.asinh(omega_max), math.asinh(omega_max), points)
    for poly in _polygons(kg, kf, delta, theta, np.sinh(t)):
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
    _check_args(delta, theta=theta, omega_max=omega_max)
    bound = family_cauchy_bound(kg, kf, delta)
    if omega_max < bound:
        raise ValueError(
            f"omega_max {omega_max:g} is below the family root bound {bound:g}; "
            "the sweep would not cover all possible axis crossings"
        )
    anchor = perturbed_vertex_rows(*tuple_rows(kg, kf, (VertexTuple(1, 1, 1, 1),)),
                                   delta, np.array([theta]))
    return bool(hurwitz_batch(anchor)[0]) and all(
        check.excluded for _, check in sweep_octagons(kg, kf, delta, theta, omega_max, points))
