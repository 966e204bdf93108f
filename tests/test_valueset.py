import cmath
import math
import re
import warnings

import numpy as np
import pytest

from conftest import polygon_exterior_distance, random_stable_family, resonant_family
from intervalhinf import valueset
from intervalhinf.errors import DeltaRangeError, HullMismatchError, NoConvergenceError
from intervalhinf.hinf import family_norm_bisection
from intervalhinf.interval import IntervalPolynomial, sample_many, vertex_rows
from intervalhinf.poly import eval_many
from intervalhinf.stability import hurwitz_batch
from intervalhinf.valueset import (
    ALL_SIXTEEN,
    TWELVE_TUPLES,
    OriginCheck,
    ValueSetPolygon,
    VertexTuple,
    family_complex_stability,
    family_cauchy_bound,
    octagon,
    origin_excluded,
    perturbed_vertex_rows,
    predicted_tuples,
    rotation_factor,
    sweep_octagons,
    tuple_rows,
    zero_exclusion_sweep,
)

POINT_KG = IntervalPolynomial([1], [1])
POINT_KF = IntervalPolynomial([0, 1, 1], [0, 1, 1])


def perturbed_row(kg, kf, t, delta, theta):
    """Coefficients of g + (1 + delta*e^{j theta}) f for the vertex pair of tuple t."""
    g_rows, f_rows = tuple_rows(kg, kf, (t,))
    return perturbed_vertex_rows(g_rows, f_rows, delta, np.array([theta]))[0]


def perturbed_value(kg, kf, t, delta, theta, omega):
    """The perturbed vertex polynomial of tuple t evaluated at j*omega."""
    row = perturbed_row(kg, kf, t, delta, theta)
    return eval_many(row[None, :], np.array([[1j * omega]]))[0, 0]


class TestVertexTuple:
    def test_label_round_trip(self):
        t = VertexTuple(1, 2, 2, 1)
        assert t.label == "1221"
        assert VertexTuple.from_label("1221") == t

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            VertexTuple(0, 1, 1, 1)

    def test_twelve_plus_excluded_is_sixteen(self):
        assert len(TWELVE_TUPLES) == 12
        assert len(set(TWELVE_TUPLES)) == 12
        excluded = set(ALL_SIXTEEN) - set(TWELVE_TUPLES)
        assert {t.label for t in excluded} == {"1122", "2211", "1221", "2112"}


class TestPerturbedVertexPolynomial:
    def test_theta_zero_keeps_real_coefficients(self):
        row = perturbed_row(POINT_KG, POINT_KF, VertexTuple(1, 1, 1, 1), 0.5, 0.0)
        assert all(c.imag == 0 for c in row)
        assert row.tolist() == [1 + 0j, 1.5 + 0j, 1.5 + 0j]

    def test_theta_pi_shrinks_scaling(self):
        row = perturbed_row(POINT_KG, POINT_KF, VertexTuple(1, 1, 1, 1), 0.5, math.pi)
        assert row.tolist() == pytest.approx([1 + 0j, 0.5 + 0j, 0.5 + 0j])

    def test_point_first_order(self):
        kf = IntervalPolynomial([1, 1], [1, 1])
        row = perturbed_row(POINT_KG, kf, VertexTuple(2, 2, 2, 2), 0.5, math.pi / 2)
        assert row.tolist() == pytest.approx([2 + 0.5j, 1 + 0.5j])

    def test_delta_range_is_enforced(self):
        for bad in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(DeltaRangeError):
                family_complex_stability(POINT_KG, POINT_KF, bad, 0.0)
            with pytest.raises(DeltaRangeError):
                octagon(POINT_KG, POINT_KF, bad, 0.0, 1.0)


def widened_family():
    kg = IntervalPolynomial([0.4, 0.1], [0.6, 0.2])
    kf = IntervalPolynomial([0.9, 2.7, 3.4, 2.0, 1.0], [1.1, 3.3, 4.0, 2.4, 1.0])
    return kg, kf


# Degree-4 family whose sweep the convex-hull construction rejected with a
# spurious HullMismatchError (a real corner dropped as collinear)
REPRO_KG = IntervalPolynomial([-0.8823524936255659, 1.0832995512416985],
                              [-0.815205715243721, 1.1195572247925523])
REPRO_KF = IntervalPolynomial(
    [1.838669021443878, 6.58333150211603, 8.202707775415126, 4.578367482678724,
     0.9000652771127026],
    [2.4353997985511886, 8.424431270423122, 9.812150527333495, 5.186084882036887,
     1.0999347228872973],
)
REPRO_DELTA, REPRO_THETA = 0.208438459853999, -2.8620505940650713


def sampled_members(kg, kf, delta, theta, omega, count, rng):
    """Values at j*omega of `count` random members g + (1 + delta*e^{j theta}) f."""
    gs = sample_many(kg, count, rng)
    fs = sample_many(kf, count, rng)
    powers = (1j * omega) ** np.arange(kf.degree + 1)
    return gs @ powers[: kg.degree + 1] + rotation_factor(delta, theta) * (fs @ powers)


def vertex_values(kg, kf, delta, theta, omega):
    """The sixteen perturbed vertex values at j*omega, from the coefficient rows."""
    return np.array([perturbed_value(kg, kf, t, delta, theta, omega) for t in ALL_SIXTEEN])


def exterior_distance(values, poly):
    """Largest distance of values outside the polygon, in units of its scale."""
    scale = max(1.0, np.abs(values).max())
    return polygon_exterior_distance(values, poly.points()).max() / scale


def _assert_convex_clockwise(poly):
    pts = poly.points()
    if len(pts) < 3:
        return
    scale = max(1.0, max(abs(p) for p in pts))
    for k in range(len(pts)):
        a, b, c = pts[k], pts[(k + 1) % len(pts)], pts[(k + 2) % len(pts)]
        cross = (b.real - a.real) * (c.imag - a.imag) - (b.imag - a.imag) * (c.real - a.real)
        assert cross <= 1e-10 * scale * scale  # right turns only


class TestOctagon:
    def test_point_family_collapses_to_one_vertex(self):
        poly = octagon(POINT_KG, POINT_KF, 0.5, 1.0, 1.0)
        assert len(poly.vertices) == 1
        point, tup = poly.vertices[0]
        value = perturbed_value(POINT_KG, POINT_KF, tup, 0.5, 1.0, 1.0)
        assert point == pytest.approx(value, rel=1e-12)

    def test_theta_zero_gives_rectangle(self):
        kg, kf = widened_family()
        poly = octagon(kg, kf, 0.5, 0.0, 1.3)
        assert len(poly.vertices) <= 4

    def test_vertices_match_their_perturbed_vertex_rows(self):
        kg, kf = widened_family()
        poly = octagon(kg, kf, 0.4, 0.9, 0.8)
        for point, tup in poly.vertices:
            value = perturbed_value(kg, kf, tup, 0.4, 0.9, 0.8)
            assert point == pytest.approx(value, rel=1e-12)

    def test_minkowski_sampling_oracle(self):
        # 2000 sampled members evaluate inside the hull
        kg, kf = widened_family()
        delta, theta, omega = 0.5, 1.0, 1.0
        poly = octagon(kg, kf, delta, theta, omega)
        vals = sampled_members(kg, kf, delta, theta, omega, 2000, np.random.default_rng(71))
        scale = max(1.0, max(abs(p) for p in poly.points()))
        assert polygon_exterior_distance(vals, poly.points()).max() <= 1e-9 * scale

    def test_pinned_family_keeps_every_corner(self):
        omega = -25.649
        poly = octagon(REPRO_KG, REPRO_KF, REPRO_DELTA, REPRO_THETA, omega)
        vertices = vertex_values(REPRO_KG, REPRO_KF, REPRO_DELTA, REPRO_THETA, omega)
        members = sampled_members(REPRO_KG, REPRO_KF, REPRO_DELTA, REPRO_THETA, omega, 2000,
                                  np.random.default_rng(71))
        assert exterior_distance(vertices, poly) <= 1e-9
        assert exterior_distance(members, poly) <= 1e-9
        assert zero_exclusion_sweep(REPRO_KG, REPRO_KF, REPRO_DELTA, REPRO_THETA,
                                    29.971765747748442, 2000)

    def test_sweep_polygons_contain_every_vertex_value(self):
        # the settings of the committed widened_family valueset golden
        kg, kf = widened_family()
        polys = [poly for poly, _ in sweep_octagons(kg, kf, 0.5, 0.7, 30.0, 400)]
        assert len(polys) == 400
        for poly in polys:
            values = vertex_values(kg, kf, 0.5, 0.7, poly.omega)
            assert exterior_distance(values, poly) <= 1e-9, poly.omega

    def test_wrong_prediction_raises(self, monkeypatch):
        case_a, case_b = valueset.CASE_A, valueset.CASE_B
        monkeypatch.setattr(valueset, "CASE_A", case_b)
        monkeypatch.setattr(valueset, "CASE_B", case_a)
        kg, kf = widened_family()
        for omega, excess, tol in ((-1.3, "5.198e-01", "4.063e-09"),
                                   (0.8, "1.830e-01", "2.444e-09")):
            with pytest.raises(HullMismatchError, match=re.escape(
                    f"vertex value 1111 at omega={omega} lies {excess} outside the predicted "
                    f"polygon (tolerance {tol})")):
                octagon(kg, kf, 0.4, 0.9, omega)
        with pytest.raises(HullMismatchError, match=re.escape(
                "vertex value 1111 at omega=-100.0 lies 1.254e+05 outside the predicted "
                "polygon (tolerance 1.287e-01)")):
            zero_exclusion_sweep(kg, kf, 0.4, 0.9, 100.0, 50)

    def test_non_finite_inputs_rejected(self):
        kg, kf = widened_family()
        for theta, omega in ((0.7, math.nan), (0.7, math.inf), (0.7, -math.inf),
                             (math.nan, 1.0), (math.inf, 1.0)):
            with pytest.raises(ValueError, match="must be finite"):
                octagon(kg, kf, 0.5, theta, omega)
        for theta in (math.nan, math.inf):
            with pytest.raises(ValueError, match="must be finite"):
                family_complex_stability(kg, kf, 0.5, theta)
        for theta, omega_max in ((math.nan, 100.0), (0.3, math.nan), (0.3, math.inf)):
            with pytest.raises(ValueError, match="must be finite"):
                next(sweep_octagons(kg, kf, 0.5, theta, omega_max, 50))
            with pytest.raises(ValueError, match="must be finite"):
                zero_exclusion_sweep(kg, kf, 0.5, theta, omega_max, 50)

    def test_hull_uses_only_predicted_tuples(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            kg, kf = random_stable_family(rng, n_min=2, n_max=5, margin=1e-3)
            delta = float(rng.uniform(0.05, 0.95))
            theta = float(rng.uniform(-math.pi, math.pi))
            bound = family_cauchy_bound(kg, kf, delta)
            omega = float(rng.uniform(-bound, bound))
            poly = octagon(kg, kf, delta, theta, omega)  # raises on mismatch
            predicted = set(predicted_tuples(omega, delta, theta))
            assert set(poly.provenance()) <= predicted
            assert len(poly.vertices) <= 8
            _assert_convex_clockwise(poly)

    def test_mirror_symmetry(self):
        kg, kf = widened_family()
        delta, theta = 0.45, 1.1
        for omega in (0.4, 1.2, 2.7):
            plus = octagon(kg, kf, delta, theta, omega)
            minus = octagon(kg, kf, delta, -theta, -omega)
            assert len(plus.vertices) == len(minus.vertices)
            by_label = {t: p for p, t in minus.vertices}
            for point, tup in plus.vertices:
                assert tup in by_label
                assert by_label[tup] == pytest.approx(point.conjugate(), rel=1e-12)

    def test_edge_orientations_fixed_across_frequencies(self):
        kg, kf = widened_family()
        delta, theta = 0.5, 0.9
        angle_sets = []
        for omega in (0.5, 0.9, 1.6, 2.3):
            poly = octagon(kg, kf, delta, theta, omega)
            if len(poly.vertices) < 8:
                continue  # degenerate collapse: excluded
            pts = poly.points()
            angles = sorted(
                cmath.phase(pts[(k + 1) % len(pts)] - pts[k]) % math.pi
                for k in range(len(pts))
            )
            angle_sets.append(angles)
        assert len(angle_sets) >= 2
        for angles in angle_sets[1:]:
            assert angles == pytest.approx(angle_sets[0], abs=1e-9)


class TestOriginExcluded:
    def test_single_point(self):
        poly = ValueSetPolygon(vertices=((2 + 0.5j, VertexTuple(1, 1, 1, 1)),),
                               omega=0.0, delta=0.5, theta=0.0)
        check = origin_excluded(poly)
        assert check.excluded
        assert check.margin == pytest.approx(math.sqrt(4.25))

    def test_square_containing_origin(self):
        t = VertexTuple(1, 1, 1, 1)
        corners = (1 + 1j, 1 - 1j, -1 - 1j, -1 + 1j)  # clockwise
        poly = ValueSetPolygon(vertices=tuple((c, t) for c in corners),
                               omega=0.0, delta=0.5, theta=0.0)
        check = origin_excluded(poly)
        assert not check.excluded
        assert check.margin == pytest.approx(-1.0)

    def test_segment(self):
        t = VertexTuple(1, 1, 1, 1)
        poly = ValueSetPolygon(vertices=((1 + 0j, t), (1 + 1j, t)),
                               omega=0.0, delta=0.5, theta=0.0)
        check = origin_excluded(poly)
        assert check.excluded
        assert check.margin == pytest.approx(1.0)

    def test_boundary_counts_as_failure(self):
        t = VertexTuple(1, 1, 1, 1)
        poly = ValueSetPolygon(vertices=((0j, t), (1 + 0j, t)),
                               omega=0.0, delta=0.5, theta=0.0)
        assert not origin_excluded(poly).excluded


# Per-polygon corner pruning and origin margin as they were before the
# batched geometry; kept here as the reference the batched path must match.
def reference_corners(ranks, points, tol):
    kept = []
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


def reference_segment_distance(p, a, b):
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(p - a)
    t = max(0.0, min(1.0, ((p - a).real * ab.real + (p - a).imag * ab.imag) / denom))
    return abs(p - (a + t * ab))


def reference_origin_excluded(pts):
    if len(pts) == 1:
        margin = abs(pts[0])
    elif len(pts) == 2:
        margin = reference_segment_distance(0j, pts[0], pts[1])
    else:
        edges = list(zip(pts, pts[1:] + pts[:1]))
        dist = min(reference_segment_distance(0j, a, b) for a, b in edges)
        inside = all((b.real - a.real) * (-a.imag) - (b.imag - a.imag) * (-a.real) <= 0.0
                     for a, b in edges)
        margin = -dist if inside else dist
    return OriginCheck(excluded=margin > 1e-12, margin=margin)


def reference_sweep(kg, kf, delta, theta, omegas):
    """(vertices, OriginCheck) per omega, one polygon at a time."""
    z = np.broadcast_to(1j * omegas, (4, len(omegas)))
    gv, fv = eval_many(vertex_rows(kg), z).T, eval_many(vertex_rows(kf), z).T
    values = (gv[:, :, None] + rotation_factor(delta, theta) * fv[:, None, :]).reshape(-1, 16)
    scale = np.maximum(1.0, np.abs(values).max(axis=1))
    listings = (predicted_tuples(0.0, delta, theta), predicted_tuples(-1.0, delta, theta))
    column = [[ALL_SIXTEEN.index(t) for t in listing] for listing in listings]
    negative = omegas < 0
    corners = np.where(negative[:, None], values[:, column[1][::-1]], values[:, column[0]])
    for neg, points, tol in zip(negative.tolist(), corners.tolist(), (1e-12 * scale).tolist()):
        ranks = range(7, -1, -1) if neg else range(8)
        vertices = tuple((p, listings[neg][r]) for r, p in reference_corners(ranks, points, tol))
        yield vertices, reference_origin_excluded([p for p, _ in vertices])


def sweep_grid(omega_max, points):
    return np.sinh(np.linspace(-math.asinh(omega_max), math.asinh(omega_max), points))


class TestBatchedGeometry:
    """The (F, 8) keep-mask and margins against the per-polygon reference."""

    def test_equivalent_to_per_polygon_reference(self):
        rng = np.random.default_rng(83)
        sweeps = excluded_total = 0
        for i in range(120):
            kg, kf = random_stable_family(rng, n_min=2, n_max=6, margin=1e-3,
                                          width_scale=0.0 if i % 4 == 3 else 0.3)
            delta = float(rng.uniform(0.05, 0.95))
            theta = 0.0 if i % 10 == 5 else float(rng.uniform(-math.pi, math.pi))
            omega_max = 1.05 * family_cauchy_bound(kg, kf, delta)
            omegas = sweep_grid(omega_max, 301)  # odd: omega = 0 is on the grid
            got = list(sweep_octagons(kg, kf, delta, theta, omega_max, 301))
            want = list(reference_sweep(kg, kf, delta, theta, omegas))
            assert [poly.omega for poly, _ in got] == omegas.tolist()
            for (poly, check), (vertices, ref) in zip(got, want, strict=True):
                assert poly.vertices == vertices, poly.omega
                assert check.excluded == ref.excluded, poly.omega
                assert abs(check.margin - ref.margin) <= 1e-13 * max(1.0, abs(ref.margin))
            anchor = perturbed_row(kg, kf, VertexTuple(1, 1, 1, 1), delta, theta)
            verdict = bool(hurwitz_batch(anchor[None, :])[0]) and all(r.excluded for _, r in want)
            assert zero_exclusion_sweep(kg, kf, delta, theta, omega_max, 301) == verdict
            sweeps += 1
            excluded_total += sum(r.excluded for _, r in want)
        assert sweeps >= 100
        assert 0 < excluded_total < sweeps * 301  # both verdicts occur

    @staticmethod
    def _one(corners, negative=False):
        corners = np.array([corners], dtype=complex)
        scale = np.maximum(1.0, np.abs(corners).max(axis=1))
        keep = valueset._keep_mask(corners, 1e-12 * scale, np.array([negative]))
        return keep[0].tolist(), float(valueset._margins(corners, keep)[0])

    def test_all_eight_coincident(self):
        for negative, kept in ((False, 0), (True, 7)):
            keep, margin = self._one([3 - 4j] * 8, negative)
            assert keep == [k == kept for k in range(8)]
            assert margin == 5.0

    def test_coincident_run_keeps_the_earliest_listed(self):
        square = [1 + 1j, 1 + 1j, 1 - 1j, -1 - 1j, -1 - 1j, -1 + 1j, -1 + 1j, -1 + 1j]
        keep, margin = self._one(square, False)
        assert keep == [True, False, True, True, False, True, False, False]
        keep, margin = self._one(square, True)
        assert keep == [False, True, True, False, True, False, False, True]
        assert margin == -1.0

    def test_segment_collinear_with_origin_is_excluded(self):
        keep, margin = self._one([1, 1.5, 2, 3, 3, 2.5, 2, 1])
        assert keep == [True, False, False, True, False, False, False, False]
        assert margin == 1.0
        check = origin_excluded(ValueSetPolygon(((1 + 1j, VertexTuple(1, 1, 1, 1)),
                                                 (2 + 2j, VertexTuple(1, 1, 1, 1))),
                                                omega=0.0, delta=0.5, theta=0.0))
        assert check.excluded and check.margin == pytest.approx(math.sqrt(2.0))

    def test_origin_on_an_edge_is_not_excluded(self):
        keep, margin = self._one([1j, 1 + 1j, 2 + 1j, 2, 2 - 1j, 1 - 1j, -1j, -1j])
        assert keep == [True, False, True, False, True, False, True, False]
        assert margin == 0.0
        check = origin_excluded(ValueSetPolygon(
            tuple((c, VertexTuple(1, 1, 1, 1)) for c in (1j, 2 + 1j, 2 - 1j, -1j)),
            omega=0.0, delta=0.5, theta=0.0))
        assert check == OriginCheck(excluded=False, margin=0.0)

    def test_collinear_middle_corners_are_dropped(self):
        square = [1 + 1j, 1, 1 - 1j, -1j, -1 - 1j, -1, -1 + 1j, 1j]
        keep, margin = self._one(square)
        assert keep == [True, False] * 4
        assert margin == -1.0
        keep, margin = self._one([p + 3 for p in square])
        assert keep == [True, False] * 4
        assert margin == 2.0


class TestFamilyComplexStability:
    def test_point_family_tracks_the_norm_level(self):
        thetas = np.linspace(-math.pi, math.pi, 60, endpoint=False)
        assert all(family_complex_stability(POINT_KG, POINT_KF, 1 / 1.6, th)
                   for th in thetas)
        assert not all(family_complex_stability(POINT_KG, POINT_KF, 1 / 1.3, th)
                       for th in thetas)

    def test_single_unstable_vertex_forces_false(self):
        kg = IntervalPolynomial([1], [1])
        kf = IntervalPolynomial([0, -1, 1], [0, -1, 1])  # s^2 - s
        assert not family_complex_stability(kg, kf, 0.5, 0.3)


class TestZeroExclusionSweep:
    def test_point_first_order_plant(self):
        kg = IntervalPolynomial([1], [1])
        kf = IntervalPolynomial([1, 1], [1, 1])
        assert zero_exclusion_sweep(kg, kf, 0.5, math.pi / 2, 100.0, 801)

    def test_omega_max_below_bound_rejected(self):
        kg = IntervalPolynomial([1], [1])
        kf = IntervalPolynomial([1, 1], [1, 1])
        bound = family_cauchy_bound(kg, kf, 0.5)
        with pytest.raises(ValueError, match="root bound"):
            zero_exclusion_sweep(kg, kf, 0.5, math.pi / 2, bound * 0.5, 801)

    def test_delta_range_is_checked_before_the_root_bound(self):
        # at delta = 1 the root bound divides by zero; the range error comes first
        kg = IntervalPolynomial([1], [1])
        kf = IntervalPolynomial([1, 1], [1, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (1.0, 0.0, -0.3, 1.7):
                with pytest.raises(DeltaRangeError):
                    zero_exclusion_sweep(kg, kf, bad, math.pi / 2, 1.0, 801)
                with pytest.raises(DeltaRangeError):
                    family_cauchy_bound(kg, kf, bad)

    def test_agrees_with_twelve_polynomial_route(self):
        # stability by the twelve perturbed vertices implies an all-clear sweep
        rng = np.random.default_rng(79)
        agreements = 0
        for _ in range(20):
            kg, kf = random_stable_family(rng, n_min=2, n_max=6, margin=1e-3)
            delta = float(rng.uniform(0.1, 0.9))
            theta = float(rng.uniform(-math.pi, math.pi))
            if not family_complex_stability(kg, kf, delta, theta):
                continue
            bound = family_cauchy_bound(kg, kf, delta)
            assert zero_exclusion_sweep(kg, kf, delta, theta, bound * 1.05, 10_000)
            agreements += 1
        assert agreements >= 5

    def test_points_validated_before_any_work(self):
        # an unstable 1111 anchor used to return False before points was looked at
        kg = IntervalPolynomial([1], [1])
        kf = IntervalPolynomial([0, -1, 1], [0, -1, 1])  # s^2 - s
        omega_max = 1.05 * family_cauchy_bound(kg, kf, 0.5)
        assert not zero_exclusion_sweep(kg, kf, 0.5, 0.3, omega_max, 50)
        for bad in (0, 1, -3, 2.5, True, "50"):
            with pytest.raises(ValueError, match="grid points"):
                zero_exclusion_sweep(kg, kf, 0.5, 0.3, omega_max, bad)

    def test_family_preconditions_are_checked(self):
        kg, kf = IntervalPolynomial([1], [1.2]), IntervalPolynomial([1, 2, 1], [1.1, 2.2, 1.1])
        leading = "denominator family needs a strictly positive leading interval, got lower bound"
        cases = (
            (kg, IntervalPolynomial([1, 2, -1], [1.1, 2.2, 1.1]), f"{leading} -1"),
            (kg, IntervalPolynomial([1, 2, 0], [1.1, 2.2, 1.1]), f"{leading} 0"),
            (IntervalPolynomial([0.5, 0.1, -1.6], [0.6, 0.2, -1.5]), kf,
             "numerator family degree 2 must be strictly below denominator family degree 2"),
            (IntervalPolynomial([0.5, 0.1, -1.6, 1], [0.6, 0.2, -1.5, 1]), kf,
             "numerator family degree 3 must be strictly below denominator family degree 2"),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for g, f, message in cases:
                for call in (lambda: zero_exclusion_sweep(g, f, 0.5, 0.3, 100.0, 50),
                             lambda: family_cauchy_bound(g, f, 0.5),
                             lambda: family_complex_stability(g, f, 0.5, 0.0),
                             lambda: family_norm_bisection(g, f)):
                    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                        call()
                with pytest.raises(DeltaRangeError):  # the delta range is checked first
                    zero_exclusion_sweep(g, f, 1.0, 0.3, 100.0, 50)

    def test_overflowing_vertex_values_raise(self):
        kg, kf = widened_family()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoConvergenceError, match=re.escape(
                    "vertex values at omega=-1.000000000000024e+200 are not finite")):
                zero_exclusion_sweep(kg, kf, 0.5, 0.9, 1e200, 50)
            with pytest.raises(NoConvergenceError, match=re.escape(
                    "vertex values at omega=1e+200 are not finite")):
                octagon(kg, kf, 0.5, 0.9, 1e200)
            assert len(octagon(kg, kf, 0.5, 0.9, 1e40).vertices) >= 1  # large but finite

    def test_sweep_octagons_validates_at_the_call(self):
        kg, kf = widened_family()
        for bad in (0, 1, 2.5, False):
            with pytest.raises(ValueError, match="grid points"):
                sweep_octagons(kg, kf, 0.5, 0.7, 30.0, bad)  # no next() needed
        for omega_max in (-5.0, 0.0, -0.0):
            with pytest.raises(ValueError, match=f"^omega_max must be positive, got {omega_max}$"):
                sweep_octagons(kg, kf, 0.5, 0.7, omega_max, 3)
        assert len(list(sweep_octagons(kg, kf, 0.5, 0.7, 30.0, 2))) == 2


# The enclosure check and the next-kept scan as they were when every vertex value was
# tested against every edge; kept here as the references the sweep must match.
def reference_enclosure_message(kg, kf, delta, theta, omegas):
    """The HullMismatchError text the per-value check raises for this sweep, or None."""
    z = np.broadcast_to(1j * omegas, (4, len(omegas)))
    gv, fv = eval_many(vertex_rows(kg), z).T, eval_many(vertex_rows(kf), z).T
    values = (gv[:, :, None] + rotation_factor(delta, theta) * fv[:, None, :]).reshape(-1, 16)
    scale = np.maximum(1.0, np.abs(values).max(axis=1))
    listings = (predicted_tuples(0.0, delta, theta), predicted_tuples(-1.0, delta, theta)[::-1])
    column = [[ALL_SIXTEEN.index(t) for t in listing] for listing in listings]
    corners = np.where((omegas < 0)[:, None], values[:, column[1]], values[:, column[0]])
    return reference_excess_message(values, corners, scale, omegas)


def reference_excess_message(values, corners, scale, omegas):
    excess = np.maximum.reduce([corners.real.min(1, keepdims=True) - values.real,
                                values.real - corners.real.max(1, keepdims=True),
                                corners.imag.min(1, keepdims=True) - values.imag,
                                values.imag - corners.imag.max(1, keepdims=True)])
    for a, b in zip(corners.T, np.roll(corners, -1, axis=1).T):
        edge = (b - a)[:, None]
        left = ((values - a[:, None]) * edge.conj()).imag
        length = np.abs(edge)
        np.maximum(excess, np.divide(left, length, out=np.zeros_like(left),
                                     where=length > 1e-12 * scale[:, None]), out=excess)
    for k, i in np.argwhere(excess > 1e-9 * scale[:, None])[:1]:
        return (f"vertex value {ALL_SIXTEEN[i].label} at omega={omegas[k]} "
                f"lies {excess[k, i]:.3e} outside the predicted polygon "
                f"(tolerance {1e-9 * scale[k]:.3e})")
    return None


def reference_next_kept(keep):
    m = keep.shape[1]
    index = np.where(np.tile(keep, 2), np.arange(2 * m), 2 * m)
    return np.minimum.accumulate(index[:, ::-1], axis=1)[:, ::-1][:, 1:m + 1] % m


def sweep_message(kg, kf, delta, theta, omegas):
    try:
        valueset._value_sets(kg, kf, delta, theta, omegas)
    except HullMismatchError as err:
        return str(err)
    return None


class TestEnclosureCheck:
    def test_raises_exactly_when_the_per_value_check_does(self, monkeypatch):
        rng = np.random.default_rng(89)
        case_a, case_b = valueset.CASE_A, valueset.CASE_B
        raised = passed = 0
        for i in range(100):
            if i % 3 == 2:
                kg, kf = resonant_family(rng, n_min=4, n_max=8)
            else:
                kg, kf = random_stable_family(rng, n_min=2, n_max=6, margin=1e-3,
                                              width_scale=0.0 if i % 5 == 4 else 0.3)
            delta = float(rng.uniform(0.05, 0.95))
            theta = 0.0 if i % 10 == 7 else float(rng.uniform(-math.pi, math.pi))
            omegas = sweep_grid(1.05 * family_cauchy_bound(kg, kf, delta), 201)
            for swapped in (False, True):
                monkeypatch.setattr(valueset, "CASE_A", case_b if swapped else case_a)
                monkeypatch.setattr(valueset, "CASE_B", case_a if swapped else case_b)
                want = reference_enclosure_message(kg, kf, delta, theta, omegas)
                assert sweep_message(kg, kf, delta, theta, omegas) == want, (i, swapped)
                raised += want is not None
                passed += want is None
        assert raised >= 50 and passed >= 100

    def test_each_box_side_is_checked(self):
        # g is a point and rf a segment, so every edge lies on one line and only the
        # corners' box can find the value left out of the corners
        omegas = np.array([0.7])
        for direction in (1, -1, 1j, -1j):
            gv, rf = np.zeros((1, 4), complex), direction * np.array([[0.0, 1.0, 2.0, 3.0]])
            values = (gv[:, :, None] + rf[:, None, :]).reshape(-1, 16)
            scale = np.maximum(1.0, np.abs(values).max(axis=1))
            for columns, message in (([0, 1, 2, 2, 1, 0, 0, 1], "vertex value 1122 at omega=0.7 "
                                      "lies 1.000e+00 outside the predicted polygon "
                                      "(tolerance 3.000e-09)"),
                                     ([0, 1, 3, 3, 2, 0, 0, 1], None)):
                corners = values[:, columns]
                assert reference_excess_message(values, corners, scale, omegas) == message
                try:
                    valueset._check_enclosed(gv, rf, values, corners, scale, omegas)
                except HullMismatchError as err:
                    assert str(err) == message, direction
                else:
                    assert message is None, direction

    def test_next_kept_matches_the_doubled_index_scan(self):
        rng = np.random.default_rng(97)
        for width in range(1, 9):
            keep = rng.random((500, width)) < rng.uniform(0.1, 0.9, (500, 1))
            keep[np.arange(500), rng.integers(0, width, 500)] = True
            got = valueset._next_kept(keep)
            assert got.dtype == reference_next_kept(keep).dtype
            assert np.array_equal(got, reference_next_kept(keep))
