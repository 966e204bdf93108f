"""Value-set geometry of the perturbed closed-loop family.

At a fixed frequency the family g + (1 + delta*e^{j theta}) f traces a
convex polygon with at most eight corners: the Minkowski sum of the
numerator rectangle and the rotated-scaled denominator rectangle. The
corners are perturbed vertex evaluations, and which eight tuples can
appear depends only on the signs of omega and of the perturbation angle.
Stability of the whole family at one (delta, theta) reduces to twelve of
those vertex polynomials; sweeping the polygon over omega and testing
that it never touches the origin gives the independent zero-exclusion
route. A sweep prunes the corners and computes the signed origin margins of
all frequencies in one pass; `origin_excluded` is its one-polygon wrapper.
The sixteen vertex values are g_i + (1 + delta*e^{j theta}) f_j, so their
largest excess over a line is the four g values' largest plus the four rotated
f values': the enclosure check passes over four values per family, not sixteen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DeltaRangeError, HullMismatchError, NoConvergenceError
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
    "check_families",
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


def _check_enclosed(gv: np.ndarray, rf: np.ndarray, values: np.ndarray, corners: np.ndarray,
                    scale: np.ndarray, omegas: np.ndarray) -> None:
    """Raise HullMismatchError if a value g_i + rf_j passes an edge line or the corners' box by
    1e-9*scale. Corners run clockwise; the box bounds point and segment polygons. Edges within
    the 1e-12*scale coincidence tolerance have no reliable direction and are skipped.

    The worst excess is separable: max_ij <g_i + rf_j - a, n> = max_i <g_i, n> + max_j <rf_j, n>
    - <a, n>. Where it reaches half the tolerance, a test of each value decides and names it."""
    c = corners.T
    edge = np.roll(c, -1, axis=0) - c
    length = np.abs(edge)
    normal = np.divide(-1j * edge.conj(), length, out=np.zeros(edge.shape, complex),
                       where=length > 1e-12 * scale)  # conjugated outward unit normals
    worst = np.maximum.reduce([c.real.min(0) - (gv.real.min(1) + rf.real.min(1)),
                               (gv.real.max(1) + rf.real.max(1)) - c.real.max(0),
                               c.imag.min(0) - (gv.imag.min(1) + rf.imag.min(1)),
                               (gv.imag.max(1) + rf.imag.max(1)) - c.imag.max(0),
                               ((gv.T[:, None] * normal).real.max(0) - (c * normal).real
                                + (rf.T[:, None] * normal).real.max(0)).max(0)])
    rows = np.flatnonzero(worst > 0.5e-9 * scale)
    values, corners, scale, omegas = values[rows], corners[rows], scale[rows], omegas[rows]
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


def _next_kept(keep: np.ndarray) -> np.ndarray:
    """Column of the next kept corner after each column, cyclically; every row keeps one."""
    out, after = np.empty(keep.shape, dtype=int), keep.argmax(1)  # wraps to the first kept
    for k in range(keep.shape[1] - 1, -1, -1):
        out[:, k], after = after, np.where(keep[:, k], k, after)
    return out


def _keep_mask(corners: np.ndarray, tol: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """(F, 8) mask of the clockwise corners each polygon keeps.

    Coincident neighbours (within tol, also across the wrap) merge into the earliest-listed
    tuple: the run's first for omega >= 0, its latest below. A corner not turning clockwise
    between its kept neighbours is dropped unless it reverses (a segment's end)."""
    rows, rep, last = np.arange(len(corners)), np.zeros(len(corners), dtype=int), corners[:, 0]
    keep = np.ones(corners.shape, dtype=bool, order="F")  # column k is set before it is read
    for k in range(1, corners.shape[1]):
        new = np.abs(corners[:, k] - last) > tol
        keep[:, k - 1] &= new | ~negative  # below omega = 0, rep is always k - 1
        keep[:, k] = new | negative
        rep, last = np.where(keep[:, k], k, rep), np.where(keep[:, k], corners[:, k], last)
    first = keep.argmax(1)  # rep is the last kept corner, last its value
    wrap = (first != rep) & (np.abs(last - corners[rows, first]) <= tol)
    keep[rows[wrap], np.where(negative, first, rep)[wrap]] = False
    before = np.take_along_axis(corners, keep.shape[1] - 1 - _next_kept(keep[:, ::-1])[:, ::-1], 1)
    ab, bc = corners - before, np.take_along_axis(corners, _next_kept(keep), 1) - corners
    turn, size = ab.conj() * bc, np.abs(ab) * np.abs(bc)
    keep &= (turn.imag < -1e-12 * size) | (turn.real < 0.0) | (keep.sum(1, keepdims=True) <= 2)
    return keep


def _margins(corners: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Signed origin distance of each polygon of kept clockwise corners, shape (F,).

    Negative only inside three or more corners (no edge has 0 on its left);
    a lone corner's zero-length edge gives its modulus."""
    ab = np.take_along_axis(corners, _next_kept(keep), 1) - corners
    length2 = np.abs(ab) ** 2
    along = np.divide(-corners.real * ab.real - corners.imag * ab.imag, length2,
                      out=np.zeros(length2.shape), where=length2 > 0.0)
    dist = np.where(keep, np.abs(corners + np.clip(along, 0.0, 1.0) * ab), np.inf).min(1)
    left = ab.imag * corners.real - ab.real * corners.imag
    inside = (keep.sum(1) > 2) & ((left <= 0.0) | ~keep).all(1)
    return np.where(inside, -dist, dist)


def _value_sets(kg: IntervalPolynomial, kf: IntervalPolynomial, delta: float, theta: float,
                omegas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    """Clockwise predicted corners (F, 8), which must enclose the sixteen vertex values,
    their keep-mask, the margins and the two listings (the one for omega < 0 reversed)."""
    z = np.broadcast_to(1j * omegas, (4, len(omegas)))
    with np.errstate(all="ignore"):
        gv, fv = eval_many(vertex_rows(kg), z).T, eval_many(vertex_rows(kf), z).T
        rf = rotation_factor(delta, theta) * fv
        values = (gv[:, :, None] + rf[:, None, :]).reshape(-1, 16)
        scale = np.maximum(1.0, np.abs(values).max(axis=1))
    for k in np.flatnonzero(~np.isfinite(scale))[:1]:
        raise NoConvergenceError(f"vertex values at omega={omegas[k]} are not finite")
    listings = (predicted_tuples(0.0, delta, theta), predicted_tuples(-1.0, delta, theta)[::-1])
    column = [[4 * t.g_row + t.f_row for t in listing] for listing in listings]
    negative = omegas < 0
    corners = np.where(negative[:, None], values[:, column[1]], values[:, column[0]])
    _check_enclosed(gv, rf, values, corners, scale, omegas)
    keep = _keep_mask(corners, 1e-12 * scale, negative)
    return corners, keep, _margins(corners, keep), listings


def _polygons(kg: IntervalPolynomial, kf: IntervalPolynomial, delta: float, theta: float,
              omegas: np.ndarray) -> Iterator[tuple[ValueSetPolygon, OriginCheck]]:
    """Each omega's polygon, ending at its smallest (re, im) corner, and its origin check."""
    corners, keep, margins, listings = _value_sets(kg, kf, delta, theta, omegas)
    for omega, points, kept, margin in zip(omegas.tolist(), corners.tolist(), keep.tolist(),
                                           margins.tolist()):
        ks = [k for k in range(8) if kept[k]]
        last = ks.index(min(ks, key=lambda k: (points[k].real, points[k].imag)))
        vertices = tuple((points[k], listings[omega < 0][k]) for k in ks[last + 1:] + ks[:last + 1])
        yield ValueSetPolygon(vertices, omega, delta, theta), OriginCheck(margin > 1e-12, margin)


def octagon(kg: IntervalPolynomial, kf: IntervalPolynomial, delta: float,
            theta: float, omega: float) -> ValueSetPolygon:
    """Value-set polygon of the 16 perturbed vertex evaluations at j*omega, with provenance.

    A vertex value outside the eight case-predicted corners raises HullMismatchError.
    """
    _check_args(delta, theta=theta, omega=omega)
    return next(_polygons(kg, kf, delta, theta, np.array([float(omega)])))[0]


def origin_excluded(polygon: ValueSetPolygon) -> OriginCheck:
    """Strict test that 0 lies outside one clockwise polygon; margin is signed distance.

    A point or segment has no interior. Touching the boundary (margin 0) counts as
    not excluded: zero exclusion is an open condition."""
    points = np.array([polygon.points()], dtype=complex)
    margin = float(_margins(points, np.ones(points.shape, dtype=bool))[0])
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


def check_families(kg: IntervalPolynomial, kf: IntervalPolynomial) -> None:
    """Raise ValueError unless deg kg < deg kf and kf's leading interval is strictly positive."""
    if kg.degree >= kf.degree:
        raise ValueError(f"numerator family degree {kg.degree} must be strictly below "
                         f"denominator family degree {kf.degree}")
    if kf.lower[-1] <= 0.0:
        raise ValueError("denominator family needs a strictly positive leading interval, "
                         f"got lower bound {kf.lower[-1]:g}")


def family_complex_stability(kg: IntervalPolynomial, kf: IntervalPolynomial,
                             delta: float, theta: float) -> bool:
    """Hurwitz verdict for the whole family at one (delta, theta).

    True iff the twelve listed perturbed vertex polynomials are Hurwitz,
    which certifies every member g + (1 + delta*e^{j theta}) f at once.
    """
    _check_args(delta, theta=theta)
    check_families(kg, kf)
    rows = perturbed_vertex_rows(*tuple_rows(kg, kf, TWELVE_TUPLES), delta, np.array([theta]))
    return bool(hurwitz_batch(rows).all())


def family_cauchy_bound(kg: IntervalPolynomial, kf: IntervalPolynomial,
                        delta: float) -> float:
    """Root-magnitude bound valid for every member at every theta."""
    _check_args(delta)
    check_families(kg, kf)
    n = kf.degree
    bf = np.maximum(np.abs(kf.lower), np.abs(kf.upper))
    bg = np.zeros(n + 1)
    bg[: kg.degree + 1] = np.maximum(np.abs(kg.lower), np.abs(kg.upper))
    numer = (bg[:-1] + 2.0 * bf[:-1]).max()
    denom = (1.0 - delta) * kf.lower[-1]
    return 1.0 + numer / denom


def _sweep_grid(delta: float, theta: float, omega_max: float, points: int) -> np.ndarray:
    """Asinh-uniform frequencies over [-omega_max, omega_max], after checking the arguments."""
    _check_args(delta, theta=theta, omega_max=omega_max)
    if omega_max <= 0.0:
        raise ValueError(f"omega_max must be positive, got {omega_max}")
    if isinstance(points, bool) or not isinstance(points, int) or points < 2:
        raise ValueError(f"sweep needs an integer number of grid points >= 2, got {points!r}")
    return np.sinh(np.linspace(-math.asinh(omega_max), math.asinh(omega_max), points))


def sweep_octagons(kg: IntervalPolynomial, kf: IntervalPolynomial, delta: float, theta: float,
                   omega_max: float, points: int) -> Iterator[tuple[ValueSetPolygon, OriginCheck]]:
    """Value-set polygons and origin checks on an asinh-uniform grid over [-omega_max,
    omega_max]; the arguments are checked at the call, before the first polygon."""
    return _polygons(kg, kf, delta, theta, _sweep_grid(delta, theta, omega_max, points))


def zero_exclusion_sweep(kg: IntervalPolynomial, kf: IntervalPolynomial,
                         delta: float, theta: float, omega_max: float,
                         points: int) -> bool:
    """Zero-exclusion route to family stability at one (delta, theta).

    Anchors on one stable member (the 1111 vertex), then requires the origin
    to stay strictly outside the polygon at every grid frequency. A grid can
    miss a crossing between points, so a True here cross-checks rather
    than replaces the twelve-polynomial verdict.
    """
    omegas = _sweep_grid(delta, theta, omega_max, points)
    bound = family_cauchy_bound(kg, kf, delta)
    if omega_max < bound:
        raise ValueError(
            f"omega_max {omega_max:g} is below the family root bound {bound:g}; "
            "the sweep would not cover all possible axis crossings"
        )
    anchor = perturbed_vertex_rows(*tuple_rows(kg, kf, (VertexTuple(1, 1, 1, 1),)),
                                   delta, np.array([theta]))
    return bool(hurwitz_batch(anchor)[0]) and bool(
        (_value_sets(kg, kf, delta, theta, omegas)[2] > 1e-12).all())
