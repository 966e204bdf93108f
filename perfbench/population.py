"""Seeded workload populations and their reference answers.

Nothing here imports the package under test: families are filtered with
numpy's companion-matrix roots and reference answers come from numpy
alone, so neither the population nor the checks depend on the code the
benchmark times. Every generator is a pure function of its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The twelve vertex tuples (g vertex i1 j1, f vertex i2 j2) that carry the
# family maximum; the sweep check tests exactly these perturbed vertices.
TWELVE = tuple(tuple(int(ch) for ch in label) for label in
               "1111 1212 2222 2121 1112 1222 2221 2111 1211 2212 2122 1121".split())

FAMILY_MARGIN = 1e-2        # every vertex closed loop clears this root margin
PLANT_MARGIN = 5e-2         # "comfortable" margin of the sensitivity plants
SWEEP_POINTS = 2000         # frequencies per zero-exclusion sweep
SWEEP_HURWITZ_MARGIN = 1e-6  # reference calls a perturbed vertex Hurwitz beyond this
GRID_POINTS = 2000          # log grid of the norm reference ...
REFINE_PEAKS = 4            # ... refined around its largest samples
REFINE_POINTS = 200


# ---------------------------------------------------------------- generators

def _stable_center(rng: np.random.Generator, degree: int) -> tuple[np.ndarray, list]:
    """Monic ascending coefficients with all roots in the open left half plane, and the roots."""
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
    return np.real(np.poly(roots))[::-1].copy(), roots


def root_margin(coeffs_asc) -> float:
    """-max root real part by numpy; -inf for a polynomial of degree 0."""
    arr = np.trim_zeros(np.asarray(coeffs_asc)[::-1], "f")
    if len(arr) < 2:
        return -math.inf
    return float(-np.roots(arr).real.max())


def kharitonov(lower, upper) -> list[np.ndarray]:
    """Vertices p11, p12, p21, p22 of a coefficient box (ascending powers).

    p_ij takes the alternation pattern i on the even coefficients and j on
    the odd ones; pattern 1 runs lower, upper, lower, ... from the lowest
    power of its parity class, pattern 2 is its complement.
    """
    lo, hi = np.asarray(lower, float), np.asarray(upper, float)
    k = np.arange(len(lo))
    first = (k // 2) % 2 == 0          # pattern 1 takes the lower bound here
    even = k % 2 == 0
    out = []
    for i in (1, 2):
        for j in (1, 2):
            take_lower = np.where(even, first if i == 1 else ~first,
                                  first if j == 1 else ~first)
            out.append(np.where(take_lower, lo, hi))
    return out


def _vertex_index(i: int, j: int) -> int:
    return (i - 1) * 2 + (j - 1)


def _floats(arr) -> tuple[float, ...]:
    return tuple(float(v) for v in arr)


def _padded_sum(g: np.ndarray, f: np.ndarray) -> np.ndarray:
    out = np.array(f, dtype=complex if np.iscomplexobj(f) else float)
    out[: len(g)] += g
    return out


@dataclass(frozen=True)
class Family:
    """Coefficient boxes of numerator g (degree m) and denominator f (degree n > m)."""

    g_lower: tuple[float, ...]
    g_upper: tuple[float, ...]
    f_lower: tuple[float, ...]
    f_upper: tuple[float, ...]

    @property
    def degree(self) -> int:
        return len(self.f_lower) - 1

    @property
    def is_point(self) -> bool:
        return self.g_lower == self.g_upper and self.f_lower == self.f_upper

    def vertices(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        return kharitonov(self.g_lower, self.g_upper), kharitonov(self.f_lower, self.f_upper)


def stable_family(rng: np.random.Generator, degree: int, point: bool) -> Family:
    """Interval (or point) family whose sixteen vertex closed loops clear FAMILY_MARGIN."""
    while True:
        m = int(rng.integers(0, degree))
        f0, _ = _stable_center(rng, degree)
        g0 = rng.uniform(-0.35, 0.35, m + 1) * max(np.abs(f0).max(), 1.0) * 0.5
        if point:  # zero-width intervals: both bounds are the same float
            fam = Family(_floats(g0), _floats(g0), _floats(f0), _floats(f0))
        else:
            wf = rng.uniform(0.0, 0.3, degree + 1) * np.abs(f0)
            wf[-1] = min(wf[-1], 0.5 * f0[-1])  # leading interval stays positive
            wg = rng.uniform(0.0, 0.3, m + 1) * np.maximum(np.abs(g0), 0.05)
            fam = Family(_floats(g0 - 0.5 * wg), _floats(g0 + 0.5 * wg),
                         _floats(f0 - 0.5 * wf), _floats(f0 + 0.5 * wf))
        gs, fs = fam.vertices()
        if all(root_margin(_padded_sum(g, f)) >= FAMILY_MARGIN for g in gs for f in fs):
            return fam


@dataclass(frozen=True)
class ProblemEntry:
    """One problem file: a shipped one (with its golden render) or a generated one."""

    name: str
    path: str
    family: Family
    golden: str | None = None

    @property
    def kind(self) -> str:
        if self.golden is not None:
            return "shipped"
        return "point" if self.family.is_point else "interval"


def analyze_schedule(index: int) -> tuple[int, bool]:
    """(degree, is_point) of generated family `index`.

    Degrees 3-6 rotate so that every run of four families covers each once,
    and every fourth family is a point family whose degree also rotates.
    The schedule does not depend on the seed, so runs with different seeds
    differ only in coefficients, not in the mix of sizes.
    """
    return 3 + (index + index // 4) % 4, index % 4 == 3


def analyze_families(seed: int, count: int) -> list[Family]:
    rng = np.random.default_rng([seed, 1])
    return [stable_family(rng, *analyze_schedule(i)) for i in range(count)]


@dataclass(frozen=True)
class NormCase:
    """One rational function num/den (ascending coefficients) with its roots."""

    kind: str                 # "sensitivity" or "spread"
    num: tuple[float, ...]
    den: tuple[float, ...]
    num_roots: tuple[complex, ...]
    den_roots: tuple[complex, ...]

    @property
    def degree(self) -> int:
        return len(self.den) - 1


def _sensitivity_case(rng: np.random.Generator, degree: int) -> NormCase:
    """S = f/(f+g) for a strictly proper plant g/f with a comfortable margin."""
    while True:
        m = int(rng.integers(0, degree))
        f0, f_roots = _stable_center(rng, degree)
        g0 = rng.uniform(-0.5, 0.5, m + 1) * max(np.abs(f0).max(), 1.0) * 0.5
        closed = _padded_sum(g0, f0)
        closed_roots = np.roots(closed[::-1])
        if -closed_roots.real.max() >= PLANT_MARGIN:
            return NormCase("sensitivity", _floats(f0), _floats(closed),
                            tuple(f_roots), tuple(closed_roots))


def _spread_case(rng: np.random.Generator, degree: int) -> NormCase:
    """Monic num/den of one degree, real zeros and poles spread over 1e-2..1e2."""
    zeros = -(10.0 ** rng.uniform(-2.0, 2.0, degree))
    poles = -(10.0 ** rng.uniform(-2.0, 2.0, degree))
    num = np.real(np.poly(zeros))[::-1].copy()
    den = np.real(np.poly(poles))[::-1].copy()
    return NormCase("spread", _floats(num), _floats(den),
                    tuple(complex(z) for z in zeros), tuple(complex(p) for p in poles))


def norm_cases(seed: int, count: int) -> list[NormCase]:
    """Alternating kinds; sensitivity degrees cycle 2-8, spread degrees 6-14."""
    rng = np.random.default_rng([seed, 2])
    out = []
    for i in range(count):
        k = i // 2
        if i % 2 == 0:
            out.append(_sensitivity_case(rng, 2 + k % 7))
        else:
            out.append(_spread_case(rng, 6 + k % 9))
    return out


@dataclass(frozen=True)
class SweepCase:
    family: Family
    delta: float
    theta: float


def sweep_cases(seed: int, count: int) -> list[SweepCase]:
    """Interval families of degree 2-6 (cycling) at a random (delta, theta)."""
    rng = np.random.default_rng([seed, 3])
    out = []
    for i in range(count):
        fam = stable_family(rng, 2 + i % 5, point=False)
        out.append(SweepCase(fam, float(rng.uniform(0.1, 0.9)),
                             float(rng.uniform(-math.pi, math.pi))))
    return out


# ---------------------------------------------------------------- references

def _factored_magnitude(w: np.ndarray, zs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """prod_k |jw - z_k| / |jw - p_k| in real arithmetic (equal counts)."""
    dw_z = w[:, None] - zs.imag[None, :]
    dw_p = w[:, None] - ps.imag[None, :]
    ratio = (zs.real ** 2 + dw_z * dw_z) / (ps.real ** 2 + dw_p * dw_p)
    return np.sqrt(np.prod(ratio, axis=1))


def product_form_peak(case: NormCase) -> float:
    """Grid lower bound on sup |num/den| from the factored form.

    Numerator and denominator have equal degree in every population here,
    so |H(jw)| is the leading ratio times the product of the factor ratios,
    which neither overflows nor loses the small factors the way the
    expanded coefficients do. A log grid spanning three decades beyond the
    root magnitudes, plus w = 0 and the limit at infinity, is refined
    around its largest samples; any grid gives a lower bound.
    """
    zs = np.asarray(case.num_roots)
    ps = np.asarray(case.den_roots)
    if len(zs) != len(ps):
        raise ValueError("product-form reference needs equal degrees")
    scales = np.abs(np.concatenate([zs, ps]))
    scales = scales[scales > 0]
    lo = (scales.min() if len(scales) else 1.0) * 1e-3
    hi = (scales.max() if len(scales) else 1.0) * 1e3
    w = np.concatenate([[0.0], np.geomspace(lo, hi, GRID_POINTS)])
    mags = _factored_magnitude(w, zs, ps)
    peak = max(float(mags.max()), 1.0)  # 1.0: every factor ratio tends to 1
    for i in np.argsort(mags)[-REFINE_PEAKS:]:
        fine = np.linspace(w[max(i - 1, 0)], w[min(i + 1, len(w) - 1)], REFINE_POINTS)
        peak = max(peak, float(_factored_magnitude(fine, zs, ps).max()))
    return abs(case.num[-1] / case.den[-1]) * peak


def twelve_hurwitz(case: SweepCase) -> bool | None:
    """True when all twelve perturbed vertex polynomials are clearly Hurwitz.

    None when some root sits within SWEEP_HURWITZ_MARGIN of the axis or to
    its right, where the sweep's verdict is not checked.
    """
    gs, fs = case.family.vertices()
    factor = 1.0 + case.delta * complex(math.cos(case.theta), math.sin(case.theta))
    for i1, j1, i2, j2 in TWELVE:
        p = _padded_sum(gs[_vertex_index(i1, j1)], factor * fs[_vertex_index(i2, j2)])
        if root_margin(p) <= SWEEP_HURWITZ_MARGIN:
            return None
    return True


def family_yaml(fam: Family, seed: int, oracle_samples: int) -> str:
    """Problem-file text for a family; floats round-trip exactly through repr."""
    def block(lower, upper) -> str:
        return "".join(f"  - [{lo!r}, {hi!r}]\n" for lo, hi in zip(lower, upper))

    return ("numerator:\n" + block(fam.g_lower, fam.g_upper)
            + "denominator:\n" + block(fam.f_lower, fam.f_upper)
            + f"options:\n  seed: {seed}\n  oracle_samples: {oracle_samples}\n")


def vertex_peak_reference(fam: Family) -> float:
    """Largest dense-grid sensitivity peak over the twelve vertex plants."""
    gs, fs = fam.vertices()
    peaks = []
    for i1, j1, i2, j2 in TWELVE:
        f = fs[_vertex_index(i2, j2)]
        closed = _padded_sum(gs[_vertex_index(i1, j1)], f)
        peaks.append(product_form_peak(NormCase(
            "vertex", _floats(f), _floats(closed),
            tuple(np.roots(np.trim_zeros(f[::-1], "f"))),
            tuple(np.roots(np.trim_zeros(closed[::-1], "f"))))))
    return max(peaks)


def matched_sums_stable(fam: Family) -> bool:
    """Hurwitz verdict of the four matched vertex sums g_ij + f_ij by numpy."""
    gs, fs = fam.vertices()
    return all(root_margin(_padded_sum(g, f)) > 0.0 for g, f in zip(gs, fs))
