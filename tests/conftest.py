"""Shared generators for seeded random plants and interval families.

Family generation filters on closed-loop root margins computed with
numpy's companion-matrix roots, so the inputs to cross-route agreement
tests do not depend on the code paths under test.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from intervalhinf import hinf, stability, theorem
from intervalhinf.errors import NoConvergenceError
from intervalhinf.interval import IntervalPolynomial


def np_root_margin(coeffs_asc) -> float:
    """-max root real part via numpy, -inf for degenerate input."""
    arr = np.trim_zeros(np.asarray(coeffs_asc, dtype=float)[::-1], "f")
    if len(arr) < 2:
        return np.inf
    return float(-np.roots(arr).real.max())


def stable_center(rng: np.random.Generator, degree: int) -> np.ndarray:
    """Monic ascending coefficients with all roots in the open left half plane."""
    roots = []
    left = degree
    while left > 0:
        if left >= 2 and rng.random() < 0.4:
            re = -rng.uniform(0.3, 1.5)
            im = rng.uniform(0.2, 1.5)
            roots.extend([complex(re, im), complex(re, -im)])
            left -= 2
        else:
            roots.append(complex(-rng.uniform(0.3, 2.0), 0.0))
            left -= 1
    return np.real(np.poly(roots))[::-1].copy()


def random_stable_family(rng: np.random.Generator, *, n_min: int = 3, n_max: int = 6,
                         width_scale: float = 0.3,
                         margin: float = 1e-2) -> tuple[IntervalPolynomial, IntervalPolynomial]:
    """Interval family pair whose sixteen vertex closed loops all clear `margin`."""
    while True:
        n = int(rng.integers(n_min, n_max + 1))
        m = int(rng.integers(0, n))
        f0 = stable_center(rng, n)
        g0 = rng.uniform(-0.35, 0.35, m + 1) * max(np.abs(f0).max(), 1.0) * 0.5
        wf = rng.uniform(0.0, width_scale, n + 1) * np.abs(f0)
        wf[-1] = min(wf[-1], 0.5 * f0[-1])  # leading interval stays positive
        wg = rng.uniform(0.0, width_scale, m + 1) * np.maximum(np.abs(g0), 0.05)
        kf = IntervalPolynomial(f0 - 0.5 * wf, f0 + 0.5 * wf)
        kg = IntervalPolynomial(g0 - 0.5 * wg, g0 + 0.5 * wg)
        if _all_vertex_loops_clear(kg, kf, margin):
            return kg, kf


def resonant_family(rng: np.random.Generator, *, n_min: int = 6, n_max: int = 10,
                    width_scale: float = 0.01,
                    margin: float = 1e-3) -> tuple[IntervalPolynomial, IntervalPolynomial]:
    """Interval family pair of degree n_min..n_max whose denominator centre has lightly damped
    pole pairs (damping 0.03-0.3), so the sensitivity peaks are sharp; its sixteen vertex
    closed loops clear `margin`."""
    while True:
        n = int(rng.integers(n_min, n_max + 1))
        roots: list[complex] = []
        while len(roots) < n:
            if n - len(roots) >= 2:
                wn, zeta = rng.uniform(0.3, 3.0), rng.uniform(0.03, 0.3)
                pole = complex(-zeta * wn, wn * np.sqrt(1.0 - zeta * zeta))
                roots += [pole, pole.conjugate()]
            else:
                roots.append(complex(-rng.uniform(0.3, 2.0), 0.0))
        f0 = np.real(np.poly(roots))[::-1].copy()
        m = int(rng.integers(0, n))
        g0 = rng.uniform(-0.3, 0.3, m + 1) * max(np.abs(f0).max(), 1.0) * 0.2
        wf = rng.uniform(0.0, width_scale, n + 1) * np.abs(f0)
        wf[-1] = 0.0  # monic denominators
        wg = rng.uniform(0.0, width_scale, m + 1) * np.maximum(np.abs(g0), 0.05)
        kf = IntervalPolynomial(f0 - 0.5 * wf, f0 + 0.5 * wf)
        kg = IntervalPolynomial(g0 - 0.5 * wg, g0 + 0.5 * wg)
        if _all_vertex_loops_clear(kg, kf, margin):
            return kg, kf


def _all_vertex_loops_clear(kg: IntervalPolynomial, kf: IntervalPolynomial,
                            margin: float) -> bool:
    from intervalhinf.interval import vertex_rows

    gs, fs = vertex_rows(kg, len(kf.lower)), vertex_rows(kf)
    return not any(np_root_margin(g + f) < margin for g in gs for f in fs)


def np_twelve_margin(kg: IntervalPolynomial, kf: IntervalPolynomial, delta: float,
                     theta: float) -> float:
    """-max root real part over the twelve perturbed vertex polynomials, by numpy's
    companion-matrix eigenvalues."""
    from intervalhinf.interval import vertex_rows
    from intervalhinf.valueset import TWELVE_TUPLES

    gs, fs = vertex_rows(kg, len(kf.lower)), vertex_rows(kf)
    factor = 1.0 + delta * np.exp(1j * theta)
    rows = np.array([gs[t.g_row] + factor * fs[t.f_row] for t in TWELVE_TUPLES])
    companion = np.zeros((12, rows.shape[1] - 1, rows.shape[1] - 1), dtype=complex)
    companion[:, 0] = -rows[:, -2::-1] / rows[:, -1:]
    companion[:, np.arange(1, rows.shape[1] - 1), np.arange(rows.shape[1] - 2)] = 1.0
    return float(-np.linalg.eigvals(companion).real.max())


def near_critical_cases(rng: np.random.Generator, count: int, *,
                        eps: tuple[float, ...] = (1e-2, 1e-3, 1e-4, 1e-5)) -> list[tuple]:
    """(kg, kf, delta, theta) on both sides of the family's stability boundary.

    For a family (every third a resonant one) and a random theta, the first delta in
    (0, 0.98] at which a twelve-vertex root reaches the right half plane is bisected to 1e-14
    relative with numpy roots; a theta with no such delta draws again. Each boundary gives
    delta*(1 - e) and delta*(1 + e) for each e in eps, so a verdict flips within e."""
    out: list[tuple] = []
    drawn = 0
    while len(out) < count:
        drawn += 1
        kg, kf = (resonant_family(rng, n_min=4, n_max=8) if drawn % 3 == 0
                  else random_stable_family(rng, n_min=2, n_max=6))
        theta = float(rng.uniform(-np.pi, np.pi))
        grid = np.linspace(0.02, 0.98, 25)
        unstable = [np_twelve_margin(kg, kf, d, theta) < 0.0 for d in grid]
        if not any(unstable):
            continue
        k = unstable.index(True)
        lo, hi = (float(grid[k - 1]) if k else 0.0), float(grid[k])
        while hi - lo > 1e-14 * hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if np_twelve_margin(kg, kf, mid, theta) > 0.0 else (lo, mid)
        out += [(kg, kf, hi * (1.0 + sign * e), theta) for e in eps for sign in (-1, 1)]
    return out[:count]


def random_stable_plant(rng: np.random.Generator, *, n_min: int = 2, n_max: int = 6,
                        margin: float = 1e-2):
    """A single (g, f) pair with f + g comfortably Hurwitz."""
    from intervalhinf.poly import RealPolynomial

    while True:
        n = int(rng.integers(n_min, n_max + 1))
        m = int(rng.integers(0, n))
        f0 = stable_center(rng, n)
        g0 = rng.uniform(-0.5, 0.5, m + 1) * max(np.abs(f0).max(), 1.0) * 0.5
        closed = f0.copy()
        closed[: m + 1] += g0
        if np_root_margin(closed) >= margin:
            return RealPolynomial(g0), RealPolynomial(f0)


def perfbench_population():
    """perfbench's seeded workload generators and reference answers, loaded by path."""
    name = "perfbench_population"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "population.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses resolve their module by name
        spec.loader.exec_module(module)
    return sys.modules[name]


def fail_on_row(monkeypatch, target):
    """Send every Hurwitz verdict to roots, and make solving `target` alone raise "stub": a
    roots_batch call that holds it raises, so solve_rows solves that batch row by row."""
    solve_alone = stability.roots_batch

    def solve(coeffs, **kwargs):
        if any(np.array_equal(row, target) for row in coeffs):
            raise NoConvergenceError("stub")
        return solve_alone(coeffs, **kwargs)

    monkeypatch.setattr(stability, "HERMITE_ROUNDOFF", np.inf)
    monkeypatch.setattr(stability, "roots_batch", solve)


def roots_calls(monkeypatch, fn, *args):
    """fn(*args), and the rows of every roots_batch call it made, call by call."""
    calls = []
    solve = stability.roots_batch

    def recorded(coeffs, **kwargs):
        calls.append(np.array(coeffs))
        return solve(coeffs, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(stability, "roots_batch", recorded)
        return fn(*args), calls


def oracle_rows(prob):
    """The rows g, f and g + f of the oracle's probes (theorem._probe_pairs), then its draws."""
    from intervalhinf.interval import sample_many

    rng = np.random.default_rng(prob.options.seed)
    gs, fs = theorem._probe_pairs(prob)
    gs = np.vstack([gs, sample_many(prob.kg, prob.options.oracle_samples, rng)])
    fs = np.vstack([fs, sample_many(prob.kf, prob.options.oracle_samples, rng)])
    dens = fs.copy()
    dens[:, : gs.shape[1]] += gs
    return gs, fs, dens


def reference_routh(rows):
    """is_hurwitz_real's verdicts (B,) and first Routh column (B, n+1) by the row-array
    recursion the in-place table replaced: each Routh row a new (B, w) array,
    (pivot * hi[1:] - hi[:1] * lo[1:]) / pivot, and the first column collected step by step."""
    from intervalhinf.poly import degrees, scale_exponents

    rows = np.asarray(rows, dtype=float)
    deg = degrees(rows)
    n = int(deg.max(initial=0))
    back = deg[:, None] - np.arange(n + 1)  # descending, left-aligned
    desc = np.where(back >= 0, rows[np.arange(len(rows))[:, None], np.maximum(back, 0)], 0.0)
    desc[desc[:, 0] < 0] *= -1.0
    desc = np.ldexp(desc, -scale_exponents(desc))
    hi, lo = desc[:, 0::2], np.zeros((len(rows), (n + 2) // 2))
    lo[:, : (n + 1) // 2] = desc[:, 1::2]
    first_column = [hi[:, 0], lo[:, 0]]
    with np.errstate(all="ignore"):
        for _ in range(n - 1):
            pivot = lo[:, :1]
            nxt = np.zeros(hi.shape)
            nxt[:, :-1] = (pivot * hi[:, 1:] - hi[:, :1] * lo[:, 1:]) / pivot
            hi, lo = lo, nxt
            first_column.append(nxt[:, 0])
    column = np.array(first_column[: n + 1]).T
    return ((column > 0.0) | (np.arange(n + 1) > deg[:, None])).all(axis=1), column


def reference_multiply_rows(p, q):
    """poly.multiply_rows by a loop over p's powers: for power k, a zero row with p_k * q at
    columns k to k + b - 1, and the shifted rows, padding zeros included, added in ascending k
    to a zero row, as numpy's sum adds its terms to its identity 0.0 (a sum of -0.0 is 0.0)."""
    count, a = p.shape
    b = q.shape[1]
    total = np.zeros((count, a + b - 1), dtype=np.result_type(p, q))
    for k in range(a):
        shifted = np.zeros(total.shape, dtype=total.dtype)
        shifted[:, k : k + b] = p[:, k : k + 1] * q
        total = total + shifted
    return total


def reference_residuals(coeffs, roots):
    """stability._residuals by two eval_many passes: |p(z)|, and the real Horner of |c| at
    |z|, which overflows to inf."""
    from intervalhinf.poly import eval_many

    value, scale = np.abs(eval_many(coeffs, roots)), eval_many(np.abs(coeffs), np.abs(roots))
    return (value / np.maximum(scale, np.finfo(float).tiny)).max(axis=1)


def reference_norm_below(num_rows, den_rows, gamma):
    """hinf_norm_below by roots instead of Bernstein signs: True where the pair-scaled level
    row gamma^2 M_den - M_num passes the same end rule, its leading coefficient clears
    LEADING_FLOOR, and none of its roots, from one solve_rows call per degree, is
    near_nonnegative; a row that fails its solve or is not finite is False."""
    from intervalhinf.poly import degrees, distinct_rows, magnitude_squared, scale_exponents

    width = np.shape(num_rows)[1]
    pairs = np.hstack([np.asarray(num_rows, dtype=float), np.asarray(den_rows, dtype=float)])
    first, inverse = distinct_rows(pairs)
    with np.errstate(all="ignore"):
        nums, dens = np.hsplit(np.ldexp(pairs[first], -scale_exponents(pairs[first])), [width])
        mn, md = np.zeros((2, len(first), max(nums.shape[1], dens.shape[1])))
        mn[:, : nums.shape[1]] = magnitude_squared(nums)
        md[:, : dens.shape[1]] = magnitude_squared(dens)
        level, size = gamma * gamma * md - mn, gamma * gamma * np.abs(md) + np.abs(mn)
    pair, top = np.arange(len(first)), np.maximum(degrees(nums), degrees(dens)).clip(0)
    lead = level[pair, top]
    clear = ((level[:, 0] > stability.CROSSING_TOL * size[:, 0])
             & (lead > stability.CROSSING_TOL * size[pair, top])
             & (lead > stability.LEADING_FLOOR * np.abs(level).max(axis=1)))
    for degree in sorted(set(top[clear].tolist()) - {0}):
        members = np.flatnonzero(clear & (top == degree))
        roots, failed = stability.solve_rows(level[members, : degree + 1])
        clear[members] = ~stability.near_nonnegative(roots).any(axis=1)
        clear[members[[i for i, _ in failed]]] = False
    return clear[inverse]


def reference_oracle(prob):
    """monte_carlo_oracle without its screen: the exact norm of every probe and draw that the
    Hermite filter keeps, in one hinf_norm_batch call, and the first of equal maxima. The
    oracle has no such filter and reports 0 skipped, so equality with it also asserts that
    the filter skips no row of the family."""
    samples = prob.options.oracle_samples
    gs, fs, dens = oracle_rows(prob)
    kept = np.flatnonzero(stability.hurwitz_batch(dens))
    values = hinf.hinf_norm_batch(fs[kept], dens[kept])[0]
    best = int(kept[values.argmax()]) if len(kept) else 0
    return theorem.OracleResult(
        oracle_max=float(values.max(initial=-np.inf)),
        argmax_g=tuple(float(c) for c in gs[best]),
        argmax_f=tuple(float(c) for c in fs[best]),
        samples=samples,
        skipped=len(dens) - len(kept),
        seed=prob.options.seed,
    )


def decline_crossings(monkeypatch):
    """Build no level-crossing test, so every bisection or gamma-equivalence step sends its
    whole theta grid to hurwitz_batch, chunk by chunk."""
    monkeypatch.setattr(hinf, "level_crossings", lambda g_rows, f_rows: None)


def polygon_exterior_distance(points: np.ndarray, hull) -> np.ndarray:
    """Distance from each point to a clockwise convex hull; 0 when inside."""
    pts = np.asarray(points, dtype=complex)
    hull = list(hull)
    if len(hull) == 1:
        return np.abs(pts - hull[0])

    def seg_dist(a: complex, b: complex) -> np.ndarray:
        ab = b - a
        denom = abs(ab) ** 2
        if denom == 0.0:
            return np.abs(pts - a)
        t = np.clip(((pts - a) * np.conj(ab)).real / denom, 0.0, 1.0)
        return np.abs(pts - (a + t * ab))

    edge_dists = np.stack([seg_dist(hull[k], hull[(k + 1) % len(hull)])
                           for k in range(len(hull))])
    if len(hull) == 2:
        return edge_dists.min(axis=0)
    inside = np.ones(len(pts), dtype=bool)
    for k in range(len(hull)):
        a, b = hull[k], hull[(k + 1) % len(hull)]
        cross = ((pts - a) * np.conj(b - a)).imag  # cross(edge, p - a)
        inside &= cross <= 0.0  # clockwise: interior on the right of each edge
    out = edge_dists.min(axis=0)
    out[inside] = 0.0
    return out


@pytest.fixture(scope="session")
def acceptance_families():
    """25 seeded interval families shared by the theorem-level criteria."""
    rng = np.random.default_rng(20240823)
    return [random_stable_family(rng) for _ in range(25)]
