"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The interval-family criteria share one seeded 25-family population.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import (
    np_root_margin,
    polygon_exterior_distance,
    random_stable_family,
    random_stable_plant,
)
from intervalhinf.cli import main
from intervalhinf.hinf import (
    check_gamma_equivalence,
    family_norm_bisection,
    hinf_norm_exact,
    hinf_norm_grid,
    sensitivity,
)
from intervalhinf.interval import sample_many
from intervalhinf.poly import RealPolynomial
from intervalhinf.stability import is_hurwitz_complex, is_hurwitz_real
from intervalhinf.theorem import (
    AnalysisOptions,
    AnalysisProblem,
    max_sensitivity_sixteen,
    max_sensitivity_twelve,
    monte_carlo_oracle,
)
from intervalhinf.valueset import family_cauchy_bound, octagon, predicted_tuples, rotation_factor

REPO = Path(__file__).resolve().parent.parent
PROBLEMS = REPO / "problems"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

GOLDEN_NORM = math.sqrt((3 + 2 * math.sqrt(3)) / 3)


def _ok(number: int, name: str) -> None:
    print(f"[acceptance] criterion {number} ({name}): PASS")


@pytest.fixture(scope="session")
def family_reports(acceptance_families):
    out = []
    for kg, kf in acceptance_families:
        prob = AnalysisProblem(kg=kg, kf=kf, options=AnalysisOptions(seed=20240823))
        out.append((prob, max_sensitivity_twelve(prob)))
    return out


def test_criterion_1_twelve_equals_sixteen(family_reports):
    for prob, report in family_reports:
        sixteen = max_sensitivity_sixteen(prob)
        assert abs(sixteen - report.worst_norm) <= 1e-9 * sixteen, (
            f"twelve {report.worst_norm} vs sixteen {sixteen}"
        )
    _ok(1, "twelve-equals-sixteen on 25 families")


def test_criterion_2_vertex_dominance(family_reports):
    for prob, report in family_reports:
        oracle = monte_carlo_oracle(prob, samples=2000)
        assert oracle.oracle_max <= report.worst_norm * (1 + 1e-9)
        assert oracle.oracle_max >= report.worst_norm - 1e-12
    _ok(2, "2000-sample oracle dominance with vertex injection")


def test_criterion_3_golden_norm():
    rf = sensitivity(RealPolynomial([1]), RealPolynomial([0, 1, 1]))
    exact = hinf_norm_exact(rf).value
    assert exact == pytest.approx(GOLDEN_NORM, rel=1e-9)
    grid = hinf_norm_grid(rf, 100.0, 10**6)
    assert grid == pytest.approx(GOLDEN_NORM, abs=1e-5)
    _ok(3, "golden norm sqrt((3+2*sqrt(3))/3) by both routes")


def test_criterion_4_norms_never_below_one(family_reports):
    assert hinf_norm_exact(
        sensitivity(RealPolynomial([1]), RealPolynomial([0, 1, 1]))
    ).value >= 1 - 1e-12
    for prob, report in family_reports:
        for value in report.per_tuple_norms.values():
            assert value >= 1 - 1e-12
    rng = np.random.default_rng(404)
    for _ in range(100):
        g, f = random_stable_plant(rng)
        assert hinf_norm_exact(sensitivity(g, f)).value >= 1 - 1e-12
    _ok(4, "every computed sensitivity norm >= 1 - 1e-12")


def test_criterion_5_gamma_equivalence():
    rng = np.random.default_rng(505)
    done = 0
    while done < 50:
        g, f = random_stable_plant(rng)
        norm = hinf_norm_exact(sensitivity(g, f)).value
        if norm * 0.9 <= 1.01:  # keep both gammas inside (1, inf) with margin
            continue
        assert check_gamma_equivalence(g, f, norm * 1.1, theta_count=720) is True
        assert check_gamma_equivalence(g, f, norm * 0.9, theta_count=720) is False
        done += 1
    _ok(5, "gamma-equivalence agreement on 50 plants, both sides")


def test_criterion_6_value_set_geometry():
    rng = np.random.default_rng(606)
    for _ in range(500):
        kg, kf = random_stable_family(rng, n_min=2, n_max=5, margin=1e-3)
        delta = float(rng.uniform(0.05, 0.95))
        theta = float(rng.uniform(-math.pi, math.pi))
        bound = family_cauchy_bound(kg, kf, delta)  # every axis crossing lies within it
        omega = float(rng.uniform(-bound, bound))
        poly = octagon(kg, kf, delta, theta, omega)  # HullMismatchError on violation
        assert set(poly.provenance()) <= set(predicted_tuples(omega, delta, theta))
        gs = sample_many(kg, 2000, rng)
        fs = sample_many(kf, 2000, rng)
        powers = (1j * omega) ** np.arange(kf.degree + 1)
        vals = gs @ powers[: kg.degree + 1] + rotation_factor(delta, theta) * (fs @ powers)
        scale = max(1.0, max(abs(p) for p in poly.points()))
        assert polygon_exterior_distance(vals, poly.points()).max() <= 1e-9 * scale
    _ok(6, "hull provenance and Minkowski containment on 500 draws")


def test_criterion_7_stability_engine_agreement():
    rng = np.random.default_rng(707)
    rows, clear = np.zeros((1000, 9)), np.zeros(1000, dtype=bool)
    for k in range(1000):
        deg = int(rng.integers(1, 9))
        coeffs = rng.uniform(-5, 5, deg + 1)
        if abs(coeffs[-1]) < 0.1:
            coeffs[-1] = 0.1 * np.sign(coeffs[-1] or 1.0)
        rows[k, : deg + 1] = coeffs
        clear[k] = abs(np_root_margin(coeffs)) >= 1e-7
    for coeffs, routh in zip(rows[clear], is_hurwitz_real(rows[clear])):
        assert routh == is_hurwitz_complex(coeffs, tol=1e-9).is_hurwitz
    checked = int(clear.sum())
    assert checked > 900
    _ok(7, f"Routh/root agreement on {checked} polynomials, zero disagreements")


def test_criterion_8_bisection_cross_check(family_reports):
    for prob, report in family_reports[:20]:
        estimate = family_norm_bisection(prob.kg, prob.kf, tol=1e-4, theta_count=720)
        assert abs(estimate - report.worst_norm) <= 1e-3, (
            f"bisection {estimate} vs twelve-vertex {report.worst_norm}"
        )
    _ok(8, "bisection matches the twelve-vertex maximum on 20 families")


def test_criterion_9_cli_determinism_and_goldens():
    cases = {
        "point_plant": 0,
        "widened_family": 0,
        "unstable_family": 3,
    }
    for name, expected_code in cases.items():
        args = ["analyze", str(PROBLEMS / f"{name}.yaml"), "--seed", "42"]
        first = CliRunner().invoke(main, args)
        second = CliRunner().invoke(main, args)
        assert first.exit_code == expected_code
        assert second.exit_code == expected_code
        assert first.output == second.output
        golden = (GOLDEN_DIR / f"{name}.analyze.txt").read_text(encoding="utf-8")
        assert first.output == golden
    _ok(9, "byte-identical CLI reports matching the golden files")
