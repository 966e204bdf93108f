import cmath
import math
import warnings

import numpy as np
import pytest

from conftest import polygon_exterior_distance, random_stable_family
from intervalhinf import valueset
from intervalhinf.errors import DeltaRangeError, HullMismatchError
from intervalhinf.interval import IntervalPolynomial, sample_many
from intervalhinf.poly import eval_many
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
        for omega in (-1.3, 0.8):
            with pytest.raises(HullMismatchError, match="outside the predicted polygon"):
                octagon(kg, kf, 0.4, 0.9, omega)
        with pytest.raises(HullMismatchError):
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
