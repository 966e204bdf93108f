"""Value-set geometry of the perturbed closed-loop family.

At a fixed frequency the family g + (1 + delta*e^{j theta}) f traces a
convex polygon with at most eight corners: the Minkowski sum of the
numerator rectangle and the rotated-scaled denominator rectangle. The
corners are perturbed vertex evaluations, and which eight tuples can
appear depends only on the signs of omega and of the perturbation angle.
Stability of the whole family at one (delta, theta) reduces to twelve of
those vertex polynomials; testing that the polygon touches the origin at no
real omega gives the independent zero-exclusion route. Its boundary lies on
sixteen edges between the twelve tuples, and the origin is on an edge exactly
at a real root of one polynomial per edge, so `zero_exclusion_sweep` solves
those sixteen in a few batched root calls and needs no frequency grid.

Printed polygons (`octagon`, `sweep_octagons`) are built one frequency at a
time. All sixteen vertex values are first checked against the eight predicted
corners at every frequency; then each polygon merges coincident corners, drops
those that do not turn, and takes its signed origin margin, the same margin
that `origin_excluded` gives for any polygon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DeltaRangeError, HullMismatchError, NoConvergenceError
from .interval import IntervalPolynomial, vertex_rows
from .poly import as_float, check_count, check_width, eval_many, multiply_rows
from .stability import CROSSING_TOL, hurwitz_batch, solve_rows

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

# The sixteen distinct polygon edges: neighbouring corners of either listing, (a, b) with a
# before b. Their twelve ends are TWELVE_TUPLES, and each edge varies only g or only f.
EDGES = tuple(sorted({tuple(sorted(pair)) for listing in (CASE_A, CASE_B)
                      for pair in zip(listing, listing[1:] + listing[:1])}))

# Frequencies per _check_enclosed call of a printed sweep, which bounds its (F, 8, 16) arrays
# (about 3 KB per frequency) whatever the sweep's length.
_ENCLOSURE_BLOCK = 1024


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
        if not math.isfinite(value := as_float(value)):
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
    """Raise HullMismatchError if a vertex value passes an edge line or the corners' box by
    1e-9*scale, naming the first such value. Corners run clockwise; the box bounds point and
    segment polygons. Edges within the 1e-12*scale coincidence tolerance have no reliable
    direction and are skipped."""
    edge = (np.roll(corners, -1, axis=1) - corners)[:, :, None]  # (F, 8, 1)
    length = np.abs(edge)
    left = ((values[:, None] - corners[:, :, None]) * edge.conj()).imag  # > 0: outside an edge
    excess = np.maximum.reduce([corners.real.min(1, keepdims=True) - values.real,
                                values.real - corners.real.max(1, keepdims=True),
                                corners.imag.min(1, keepdims=True) - values.imag,
                                values.imag - corners.imag.max(1, keepdims=True),
                                np.divide(left, length, out=np.zeros_like(left),
                                          where=length > 1e-12 * scale[:, None, None]).max(1)])
    for k, i in np.argwhere(excess > 1e-9 * scale[:, None])[:1]:
        raise HullMismatchError(f"vertex value {ALL_SIXTEEN[i].label} at omega={omegas[k]} "
                                f"lies {excess[k, i]:.3e} outside the predicted polygon "
                                f"(tolerance {1e-9 * scale[k]:.3e})")


def _corner_columns(points: np.ndarray, tol: float, negative: bool) -> list[int]:
    """Columns of the clockwise corners one polygon keeps, ending at its smallest (re, im).

    Coincident neighbours (within tol, also across the wrap) merge into the earliest-listed
    tuple: the run's first for omega >= 0, its latest below. A corner not turning clockwise
    between its kept neighbours is dropped unless it reverses (a segment's end)."""
    kept = [0]
    for k in range(1, len(points)):
        if np.abs(points[k] - points[kept[-1]]) > tol:
            kept.append(k)
        elif negative:
            kept[-1] = k
    if len(kept) > 1 and np.abs(points[kept[-1]] - points[kept[0]]) <= tol:
        del kept[0 if negative else -1]
    if len(kept) > 2:
        corners = points[kept]
        ab, bc = corners - np.roll(corners, 1), np.roll(corners, -1) - corners
        turn, size = ab.conj() * bc, np.abs(ab) * np.abs(bc)
        kept = [k for k, t, s in zip(kept, turn, size) if t.imag < -1e-12 * s or t.real < 0.0]
    last = kept.index(min(kept, key=lambda k: (points[k].real, points[k].imag)))
    return kept[last + 1:] + kept[:last + 1]


def _margin(points: np.ndarray) -> float:
    """Signed origin distance of one polygon of clockwise corners.

    Negative only inside three or more corners (no edge has 0 on its left);
    a lone corner's zero-length edge gives its modulus."""
    ab = np.roll(points, -1) - points
    length2 = np.abs(ab) ** 2
    along = np.divide(-points.real * ab.real - points.imag * ab.imag, length2,
                      out=np.zeros(length2.shape), where=length2 > 0.0)
    dist = np.abs(points + np.clip(along, 0.0, 1.0) * ab).min()
    left = ab.imag * points.real - ab.real * points.imag
    return float(-dist if len(points) > 2 and (left <= 0.0).all() else dist)


def _polygons(kg: IntervalPolynomial, kf: IntervalPolynomial, delta: float, theta: float,
              omegas: np.ndarray) -> Iterator[tuple[ValueSetPolygon, OriginCheck]]:
    """Each omega's polygon and its origin check. The sixteen vertex values are checked
    against the case-predicted corners first, at every omega (in blocks of _ENCLOSURE_BLOCK,
    in order, so the first mismatch is named), before any polygon is made."""
    with np.errstate(all="ignore"):
        gv, fv = (eval_many(vertex_rows(k), 1j * omegas).T for k in (kg, kf))
        values = (gv[:, :, None] + rotation_factor(delta, theta) * fv[:, None, :]).reshape(-1, 16)
        scale = np.maximum(1.0, np.abs(values).max(axis=1))
    for k in np.flatnonzero(~np.isfinite(scale))[:1]:
        raise NoConvergenceError(f"vertex values at omega={omegas[k]} are not finite")
    listings = (predicted_tuples(0.0, delta, theta), predicted_tuples(-1.0, delta, theta)[::-1])
    column = [[4 * t.g_row + t.f_row for t in listing] for listing in listings]
    corners = np.where((omegas < 0)[:, None], values[:, column[1]], values[:, column[0]])
    for start in range(0, len(omegas), _ENCLOSURE_BLOCK):
        block = slice(start, start + _ENCLOSURE_BLOCK)
        _check_enclosed(values[block], corners[block], scale[block], omegas[block])
    for omega, points, tol in zip(omegas.tolist(), corners, (1e-12 * scale).tolist()):
        vertices = tuple((complex(points[k]), listings[omega < 0][k])
                         for k in _corner_columns(points, tol, omega < 0))
        polygon = ValueSetPolygon(vertices, omega, delta, theta)
        yield polygon, origin_excluded(polygon)


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
    margin = _margin(np.array(polygon.points(), dtype=complex))
    return OriginCheck(excluded=margin > 1e-12, margin=margin)


@cache
def _vertex_indices(tuples: tuple[VertexTuple, ...]) -> np.ndarray:
    """(2, len(tuples)) g_row and f_row of each tuple, built once per listing; read-only."""
    indices = np.array([[t.g_row for t in tuples], [t.f_row for t in tuples]], dtype=np.intp)
    indices.setflags(write=False)
    return indices


def tuple_rows(kg: IntervalPolynomial, kf: IntervalPolynomial,
               tuples: tuple[VertexTuple, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Numerator and denominator vertex rows of each tuple, both (len(tuples), n + 1)."""
    g, f = _vertex_indices(tuples)
    return vertex_rows(kg, len(kf.lower))[g], vertex_rows(kf)[f]


def perturbed_vertex_rows(g_rows: np.ndarray, f_rows: np.ndarray, delta: float | np.ndarray,
                          thetas: np.ndarray) -> np.ndarray:
    """Perturbed vertex rows g + (1 + delta*e^{j theta}) * f over a theta grid.

    Shape (len(thetas) * len(g_rows), n + 1), theta outer and row pair inner;
    uniform degree n because the leading coefficient is
    (1 + delta*e^{j theta}) * a_n with a_n > 0. delta is a float or one delta
    per theta: row k of a delta-per-theta call is bitwise the call at
    (delta_k, theta_k), the same float arithmetic.
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


def _check_sweep(delta: float, theta: float, omega_max: float, points: int) -> tuple[float, int]:
    """omega_max and points, checked after delta and theta."""
    _check_args(delta, theta=theta)
    return check_width("omega_max", omega_max), check_count("points", points, 2)


def sweep_octagons(kg: IntervalPolynomial, kf: IntervalPolynomial, delta: float, theta: float,
                   omega_max: float, points: int) -> Iterator[tuple[ValueSetPolygon, OriginCheck]]:
    """Value-set polygons and origin checks on an asinh-uniform grid over [-omega_max,
    omega_max]; the arguments are checked at the call, before the first polygon."""
    omega_max, points = _check_sweep(delta, theta, omega_max, points)
    omegas = np.sinh(np.linspace(-math.asinh(omega_max), math.asinh(omega_max), points))
    return _polygons(kg, kf, delta, theta, omegas)


_J_POWERS = np.array([1, 1j, -1, -1j])  # j**k for k mod 4, exactly
_EPS = np.finfo(float).eps


def _edge_crossing(kg: IntervalPolynomial, kf: IntervalPolynomial, delta: float,
                   theta: float) -> bool:
    """True iff the origin lies on one of the sixteen EDGES at some real omega.

    At omega the edge a-b is p_b + t*d, t in [0, 1], with d = p_a - p_b: g_a - g_b or
    r*(f_a - f_b), r the rotation factor, as the other difference is 0. In powers of the real
    omega, d(j omega) and p_b(j omega) have the rows D and P (coefficient k times j**k), and
    D * conj(P) has the row q of d(j omega) * conj p_b(j omega). The origin is on the edge's
    line where h = Im q has a real root, and on the edge where t = -Re q / |d|^2 is in [0, 1]
    there.

    A coefficient of h within its own roundoff, 4 * len(h) eps times the same coefficient of
    |D| * |P|, counts as 0: unlike a cut relative to the row's largest coefficient, this does
    not depend on the family's frequency scale. A zero lowest power gives the root omega = 0
    exactly. The rest of each h is solved in omega / 2**e, e the least that makes its leading
    coefficient the largest, as its degree is settled; rows of one length share a solve_rows
    call, and a root failure raises the lowest failing edge's error, naming the edge. Roots
    within CROSSING_TOL of the real axis, relative, count as real. A root where
    d(j omega) = 0 gives no t: the edge is then the point p_b, an end of the edges beside it.
    An h with no coefficient left (d(j omega) parallel to p_b(j omega) at every omega, as when
    the edge's two vertices coincide) is skipped.
    """
    g, f = vertex_rows(kg, len(kf.lower)), vertex_rows(kf)
    (ga, fa), (gb, fb) = ((g[gi], f[fi]) for gi, fi in map(_vertex_indices, zip(*EDGES)))
    spin = _J_POWERS[np.arange(ga.shape[1]) % 4]
    r = rotation_factor(delta, theta)
    with np.errstate(all="ignore"):  # an overflow shows as a row that is not finite
        rows = np.stack([((ga - gb) + r * (fa - fb)) * spin, (gb + r * fb) * spin])  # D, P
        h = multiply_rows(rows[0], rows[1].conj()).imag
        noise = multiply_rows(np.abs(rows[0]), np.abs(rows[1])) * (4 * h.shape[1] * _EPS)
    for k in np.flatnonzero(~np.isfinite(noise).all(axis=1))[:1]:
        raise NoConvergenceError(f"edge {EDGES[k][0].label}-{EDGES[k][1].label} "
                                 "polynomial is not finite")
    nonzero = np.abs(h) > noise
    live = nonzero.any(axis=1)
    low, high = nonzero.argmax(axis=1), h.shape[1] - 1 - nonzero[:, ::-1].argmax(axis=1)
    span = np.where(live, high - low, 0)
    omegas = np.full(h.shape, np.nan)  # each row's roots, then omega = 0 in the last column
    omegas[:, -1] = np.where(live & (low > 0), 0.0, np.nan)
    failed = []
    with np.errstate(all="ignore"):  # log2(0) is -inf and ignored; NaN is no root
        for length in sorted(set(span.tolist()) - {0}):
            members = np.flatnonzero(span == length)
            c = np.take_along_axis(h[members], low[members, None] + np.arange(length + 1), axis=1)
            power = np.arange(length + 1) - length  # of each coefficient, less the top's
            bits = np.log2(np.abs(c)) - np.log2(np.abs(c[:, -1:]))
            e = np.ceil((bits[:, :-1] / -power[:-1]).max(axis=1)).astype(int)[:, None]
            z, errors = solve_rows(np.ldexp(c / np.abs(c[:, -1:]), e * power))
            failed += [(int(members[i]), err) for i, err in errors]
            z *= np.exp2(e)
            omegas[members, :length] = np.where(
                np.abs(z.imag) <= CROSSING_TOL * np.abs(z), z.real, np.nan)
        if failed:
            k, err = min(failed, key=lambda failure: failure[0])
            raise type(err)(f"edge {EDGES[k][0].label}-{EDGES[k][1].label}: {err}") from err
        d, p = eval_many(rows, omegas)
        t = -(d * p.conj()).real / (d.real ** 2 + d.imag ** 2)
    return bool(((t >= 0.0) & (t <= 1.0)).any())


def zero_exclusion_sweep(kg: IntervalPolynomial, kf: IntervalPolynomial,
                         delta: float, theta: float, omega_max: float,
                         points: int) -> bool:
    """Zero-exclusion route to family stability at one (delta, theta), at every real omega.

    Every member has the same degree, so the family is Hurwitz iff one member (the 1111
    vertex) is and the origin lies outside the value-set polygon at every real omega. Each
    point of an EDGES segment is the value of a member, as the coefficient boxes are convex,
    and the origin can enter the polygon only across its boundary, which those segments make
    up. So the verdict is exact: the anchor is Hurwitz and no edge holds the origin at any
    real omega. No grid is used; omega_max and points are still checked as before. An edge
    polynomial that overflows, or whose roots do not converge, raises NoConvergenceError
    before any verdict.
    """
    omega_max, _ = _check_sweep(delta, theta, omega_max, points)
    bound = family_cauchy_bound(kg, kf, delta)
    if omega_max < bound:
        raise ValueError(
            f"omega_max {omega_max:g} is below the family root bound {bound:g}; "
            "the sweep would not cover all possible axis crossings"
        )
    anchor = perturbed_vertex_rows(*tuple_rows(kg, kf, (VertexTuple(1, 1, 1, 1),)),
                                   delta, np.array([theta]))
    return not _edge_crossing(kg, kf, delta, theta) and bool(hurwitz_batch(anchor)[0])
