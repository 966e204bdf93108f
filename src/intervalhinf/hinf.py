"""H-infinity norms of stable proper rational functions.

The exact route turns |p(j w)|^2 into an even polynomial ratio in
x = w^2, finds the stationary points of that ratio as roots of a single
polynomial, and re-evaluates every candidate through the transfer
function itself, each stage for a whole batch of rows at once. The
supremum may be approached only as w -> inf, so the at-infinity limit is
always a candidate and NormResult keeps an explicit infinity sentinel.

The gamma-equivalence test and the family bisection ask whether the rows
g + (1 + delta e^{j theta}) f are Hurwitz over a theta grid. Both build the
row pairs' level-crossing test (stability.level_crossings) once and share
one step, decided by one of two routes. The certificate: the test finds
the thetas at which a row on the circle |c| = delta, c = delta e^{j theta},
has an imaginary-axis root. None at all certifies every row of the disk,
so every grid row, without matrix work; otherwise hurwitz_batch on the
grid rows next to each crossing angle decides the step, since between two
crossings a pair's rows are all Hurwitz or none is. The reference: a step
the test declines goes to hurwitz_batch on the whole grid, in chunks of
_THETA_CHUNK thetas, which decides each row and names a failing one.
Neither route uses the norms, so the bisection stays independent of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import stability
from .errors import (
    DegreeOrderError,
    DeltaRangeError,
    IntervalHinfError,
    NoConvergenceError,
    NoUpperBracketError,
    UnstableClosedLoopError,
    UnstableDenominatorError,
    UnstableFamilyError,
)
from .interval import IntervalPolynomial, sum_family_hurwitz
from .poly import (RealPolynomial, add, degrees, distinct_rows, eval_at_jomega, magnitude_squared,
                   multiply_rows)
from .stability import hurwitz_batch, is_hurwitz_real, level_crossings
from .valueset import TWELVE_TUPLES, VertexTuple, check_families, perturbed_vertex_rows, tuple_rows

__all__ = [
    "RationalFunction",
    "NormResult",
    "sensitivity",
    "hinf_norm_exact",
    "hinf_norm_batch",
    "hinf_norm_grid",
    "check_gamma_equivalence",
    "family_norm_bisection",
]

GAMMA_CAP = 2.0 ** 32
_THETA_CHUNK = 48
_NORM_CHUNK = 128  # stationarity rows per roots_batch call; bounds its (rows, d, d) arrays
_TRIM_REL = 1e-14  # stationarity coefficients this small relative to the largest are dropped


def _improper(m: int, n: int) -> DegreeOrderError:
    return DegreeOrderError(f"improper rational function: numerator degree {m} "
                            f"exceeds denominator degree {n}")


@dataclass(frozen=True)
class RationalFunction:
    """num/den with real coefficients; nonzero den and properness checked at construction."""

    num: RealPolynomial
    den: RealPolynomial

    def __post_init__(self):
        if not any(self.den.coeffs):
            raise ValueError("rational function needs a nonzero denominator")
        if self.num.degree > self.den.degree:
            raise _improper(self.num.degree, self.den.degree)


@dataclass(frozen=True)
class NormResult:
    value: float
    attained_at: float  # frequency, or math.inf when approached at infinity
    candidates: tuple[tuple[float, float], ...]  # (frequency, magnitude) pairs


def sensitivity(g: RealPolynomial, f: RealPolynomial) -> RationalFunction:
    """Sensitivity f/(f+g) of the strictly proper plant g/f under unity feedback."""
    if g.degree >= f.degree:
        raise DegreeOrderError(f"plant must be strictly proper: numerator degree {g.degree} "
                               f">= denominator degree {f.degree}")
    closed = add(f, g)
    if not is_hurwitz_real([closed.coeffs])[0]:
        raise UnstableClosedLoopError("f + g is not Hurwitz; sensitivity undefined")
    return RationalFunction(num=f, den=closed)


def _stationarity_rows(num_rows: np.ndarray, den_rows: np.ndarray) -> np.ndarray:
    """Rows of M_num' * M_den - M_num * M_den', d/dx of each M_num/M_den times M_den^2 (a row
    0 if both are constant). Both products sum their terms in the same order, so where M_num
    and M_den share coefficients (f and f + g share all above deg g) they cancel exactly."""
    mn, md = magnitude_squared(num_rows), magnitude_squared(den_rows)
    lhs = multiply_rows(md, mn * np.arange(mn.shape[1]))  # M' kept as i * M_i at x^i,
    rhs = multiply_rows(mn, md * np.arange(md.shape[1]))  # so x^0 is dropped after
    return (lhs - rhs)[:, 1:] if lhs.shape[1] > 1 else np.zeros_like(lhs)


def _chunk_roots(coeffs: np.ndarray) -> tuple[np.ndarray, list[tuple[int, IntervalHinfError]]]:
    """Roots of each same-degree row, and (index, error) of each row that fails alone: a chunk
    that fails is solved again row by row, and a failing row's roots are NaN."""
    try:
        return stability.roots_batch(coeffs)[0], []
    except IntervalHinfError as err:
        if len(coeffs) == 1:
            return np.full((1, coeffs.shape[1] - 1), np.nan, dtype=complex), [(0, err)]
    solved = [_chunk_roots(row[None, :]) for row in coeffs]
    return (np.concatenate([roots for roots, _ in solved]),
            [(i, err) for i, (_, failed) in enumerate(solved) for _, err in failed])


def _magnitudes(num_rows: np.ndarray, den_rows: np.ndarray, omegas: np.ndarray, dn: np.ndarray,
                dd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|num(j omega) / den(j omega)| of each row pair at its frequencies (B, k), NaN at NaN, and
    its limit at inf: |num_m / den_n| for rows of degrees dn = m and dd = n, else 0."""
    rows = np.zeros((2, len(num_rows), max(num_rows.shape[1], den_rows.shape[1])))
    rows[0, :, : num_rows.shape[1]] = num_rows
    rows[1, :, : den_rows.shape[1]] = den_rows
    values = eval_at_jomega(rows, omegas)
    mags = np.hypot(values.real, values.imag)  # rounds as abs() of a Python complex does
    pair = np.arange(len(num_rows))
    limits = np.where(dn == dd, num_rows[pair, dn], 0.0) / den_rows[pair, dd]
    return mags[0] / mags[1], np.abs(limits)


def _norm_arrays(num_rows, den_rows
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """hinf_norm_batch's work as arrays over the byte-distinct row pairs: each input row's
    position among them, and per distinct pair its norm, its candidate frequencies (ascending,
    then NaN), their magnitudes and the limit at inf. Validated and raised as hinf_norm_batch.
    """
    num_rows = np.asarray(num_rows, dtype=float)
    den_rows = np.asarray(den_rows, dtype=float)
    if num_rows.ndim != 2 or den_rows.ndim != 2 or len(num_rows) != len(den_rows):
        raise ValueError("hinf_norm_batch needs (B, m+1) and (B, n+1) coefficient rows")
    pairs = np.concatenate([num_rows, den_rows], axis=1)
    finite = np.isfinite(pairs).all(axis=1)
    malformed = ~finite | ~den_rows.any(axis=1)
    if malformed.any():
        k = int(malformed.argmax())
        what = "zero denominator" if finite[k] else "non-finite coefficient"
        raise ValueError(f"row {k}: {what}")
    first, inverse = distinct_rows(pairs)
    nums, dens = num_rows[first], den_rows[first]
    dn, dd = degrees(nums), degrees(dens)
    stable = is_hurwitz_real(dens)

    failures: list[tuple[int, IntervalHinfError]] = []
    bad = (dn > dd) | ~stable
    if bad.any():
        u = np.flatnonzero(bad)[first[bad].argmin()]
        failures.append((int(first[u]), _improper(dn[u], dd[u]) if dn[u] > dd[u] else
                         UnstableDenominatorError("H-infinity norm needs a Hurwitz denominator")))
    with np.errstate(all="ignore"):  # an overflow shows as a row that is not finite
        stations = _stationarity_rows(nums, dens)
    sizes = np.abs(stations)
    top = sizes.max(axis=1, keepdims=True)
    overflowed = ~np.isfinite(top[:, 0])
    if overflowed.any():
        failures.append((int(first[overflowed].min()),
                         NoConvergenceError("stationarity polynomial is not finite")))
    kept = sizes > _TRIM_REL * top  # none in a row that is not finite: it solves no roots
    kept[:, 0] = True
    lengths = stations.shape[1] - kept[:, ::-1].argmax(axis=1)
    omegas = np.zeros((len(first), lengths.max(initial=1)))  # column 0 is x = 0
    omegas[:, 1:] = np.nan  # no candidate
    for length in sorted(set(lengths.tolist()) - {1}):
        members = np.flatnonzero(lengths == length)
        for start in range(0, len(members), _NORM_CHUNK):
            chunk = members[start : start + _NORM_CHUNK]
            roots, failed = _chunk_roots(stations[chunk, :length])
            failures += [(int(first[chunk[i]]), err) for i, err in failed]
            real = (np.abs(roots.imag) <= 1e-8 * np.abs(roots)) & (roots.real > 0.0)
            omegas[chunk, 1:length] = np.sort(np.sqrt(np.where(real, roots.real, np.nan)), axis=1)
    if failures:
        k, err = min(failures, key=lambda failure: failure[0])
        located = type(err)(f"row {k}: {err}")
        located.row = k
        raise located from err

    mags, gains = _magnitudes(nums, dens, omegas, dn, dd)
    peaks = np.fmax.reduce(mags, axis=1)  # NaN is no peak; column 0 is never NaN
    return inverse, np.where(gains > peaks, gains, peaks), omegas, mags, gains


def hinf_norm_batch(num_rows, den_rows) -> list[NormResult]:
    """Peak magnitude over the imaginary axis of each num/den row pair, in order.

    num_rows (B, m+1) and den_rows (B, n+1) hold ascending coefficients. Candidate squared
    frequencies are the nonnegative real roots of M_num' * M_den - M_num * M_den', plus x = 0,
    plus the x -> inf limit; each finite candidate is re-evaluated through the transfer
    function. Ties go to the smallest frequency, and to a finite one over the limit.

    Malformed input (a non-finite coefficient or a zero denominator) raises ValueError naming
    its lowest row, before any other work. Each stage runs once over all byte-distinct row
    pairs; trimmed stationarity rows of one length share roots_batch calls of at most
    _NORM_CHUNK rows, which solve each companion matrix on its own, so every result equals
    solving its row alone. Any other failure is the lowest failing row's error as solved alone
    (NoConvergenceError if its stationarity row overflows), re-raised with `row` set and named
    in the message. Only the NormResult objects are built row by row, from _norm_arrays.
    """
    inverse, values, omegas, mags, gains = _norm_arrays(num_rows, den_rows)
    norms = []
    for value, om, mag, gain in zip(values.tolist(), omegas, mags, gains.tolist()):
        present = ~np.isnan(om)  # the row's candidates come first, ascending
        candidates = tuple(zip(om[present].tolist(), mag[present].tolist()))
        # the first of equal peaks; none: the limit at inf is above every candidate
        attained = next((w for w, m in candidates if m == value), math.inf)
        norms.append(NormResult(value=value, attained_at=attained,
                                candidates=candidates + ((math.inf, gain),)))
    return [norms[u] for u in inverse]


def hinf_norm_exact(rf: RationalFunction) -> NormResult:
    """Exact H-infinity norm of one rational function: hinf_norm_batch with B = 1.

    Errors are raised as solving the function alone raises them, without a row.
    """
    try:
        return hinf_norm_batch([rf.num.coeffs], [rf.den.coeffs])[0]
    except IntervalHinfError as err:
        raise err.__cause__ from None


def hinf_norm_grid(rf: RationalFunction, omega_max: float, points: int) -> float:
    """Dense-grid lower bound on the peak; the independent check on the exact route.

    Log-spaced frequencies on (0, omega_max] augmented with omega = 0 and
    the at-infinity limit; it never forms the magnitude-squared polynomials.
    """
    if isinstance(points, bool) or not isinstance(points, int) or points < 2:
        raise ValueError(f"grid oracle needs an integer number of points >= 2, got {points!r}")
    if not (math.isfinite(omega_max) and omega_max > 0.0):
        raise ValueError(f"grid oracle needs a finite omega_max > 0, got {omega_max!r}")
    omegas = np.concatenate([[0.0], np.geomspace(omega_max * 1e-12, omega_max, points - 1)])
    num, den = np.array([rf.num.coeffs]), np.array([rf.den.coeffs])
    mags, limit = _magnitudes(num, den, omegas[None, :], degrees(num), degrees(den))
    return float(max(mags.max(), limit[0]))


def _theta_grid(theta_count: int) -> np.ndarray:
    # [-pi, pi) covers the closed interval since the endpoints coincide
    if isinstance(theta_count, bool) or not isinstance(theta_count, int) or theta_count < 1:
        raise ValueError(f"theta grid needs an integer number of points >= 1, got {theta_count!r}")
    return np.linspace(-np.pi, np.pi, theta_count, endpoint=False)


def _hurwitz_rows(rows: np.ndarray, thetas: np.ndarray, pairs: np.ndarray,
                  tuples: tuple[VertexTuple, ...]) -> np.ndarray:
    """hurwitz_batch of perturbed rows, row i at thetas[i] of row pair pairs[i]; a failing
    verdict raises again, naming the theta and, if given, the pair's tuple."""
    try:
        return hurwitz_batch(rows)
    except IntervalHinfError as err:
        where = f"tuple {tuples[pairs[err.row]].label} at " if tuples else ""
        raise type(err)(f"{where}theta={thetas[err.row]}: {err.__cause__}") from err.__cause__


def _crossing_verdict(crossings: Callable[[float], tuple[np.ndarray, np.ndarray] | None] | None,
                      g_rows: np.ndarray, f_rows: np.ndarray, delta: float, thetas: np.ndarray,
                      tuples: tuple[VertexTuple, ...] = ()) -> bool | None:
    """True iff every grid row is Hurwitz, decided from the crossing angles on the circle
    |c| = delta; None if there is no crossing test or it declines.

    No crossing certifies every row of the disk. Otherwise, between two consecutive crossing
    angles of a row pair, its rows on the circle are all Hurwitz or none is. So the step is
    decided by one hurwitz_batch call on the _theta_grid rows within two grid steps of each
    crossing angle of their pair, built by perturbed_vertex_rows as the grid's own rows are:
    they hold a row of every arc that holds a grid theta, even for an angle off by up to one
    grid step."""
    found = None if crossings is None else crossings(delta)
    if found is None:
        return None
    pairs, angles = found
    if not len(pairs):
        return True
    below = np.floor((angles + np.pi) * (len(thetas) / (2.0 * np.pi))).astype(int)
    at = (below + np.arange(-1, 3)[:, None]).ravel() % len(thetas)
    pairs = np.tile(pairs, 4)
    probed, where = np.unique(at, return_inverse=True)
    rows = perturbed_vertex_rows(g_rows, f_rows, delta, thetas[probed])
    return bool(_hurwitz_rows(rows[where * len(g_rows) + pairs], thetas[at], pairs, tuples).all())


def _hurwitz_on_grid(crossings: Callable[[float], tuple[np.ndarray, np.ndarray] | None] | None,
                     g_rows: np.ndarray, f_rows: np.ndarray, delta: float, thetas: np.ndarray,
                     tuples: tuple[VertexTuple, ...] = ()) -> bool:
    """True iff every g + (1 + delta e^{j theta}) f row is Hurwitz at every grid theta;
    a failing verdict raises again, naming the theta and, if given, the row pair's tuple.

    `crossings` is the row pairs' level_crossings, which the caller builds once for every
    delta it tests, or None. A step it decides (_crossing_verdict) costs one root solve and
    at most one hurwitz_batch call on a few rows. A declined step takes the reference route:
    hurwitz_batch on the perturbed rows of the whole grid, in chunks of _THETA_CHUNK thetas."""
    verdict = _crossing_verdict(crossings, g_rows, f_rows, delta, thetas, tuples)
    if verdict is not None:
        return verdict
    pairs = np.tile(np.arange(len(g_rows)), _THETA_CHUNK)
    for start in range(0, len(thetas), _THETA_CHUNK):
        chunk = thetas[start : start + _THETA_CHUNK]
        rows = perturbed_vertex_rows(g_rows, f_rows, delta, chunk)
        if not _hurwitz_rows(rows, np.repeat(chunk, len(g_rows)), pairs, tuples).all():
            return False
    return True


def check_gamma_equivalence(g: RealPolynomial, f: RealPolynomial, gamma: float,
                  theta_count: int = 720) -> bool:
    """Grid version of the gamma-equivalence for a single plant.

    True iff g + (1 + (1/gamma) e^{j theta}) f is Hurwitz at every grid
    theta; up to grid resolution this equals ||f/(f+g)||_inf < gamma.
    Decided as one _hurwitz_on_grid step.
    """
    if not gamma > 1.0:
        raise DeltaRangeError(f"gamma must exceed 1, got {gamma}")
    thetas = _theta_grid(theta_count)
    if not is_hurwitz_real([add(f, g).coeffs])[0]:
        raise UnstableClosedLoopError("f + g must be Hurwitz for the equivalence")
    g_row, f_row = np.zeros((2, 1, max(f.degree, g.degree) + 1))
    g_row[0, : g.degree + 1] = g.coeffs[: g.degree + 1]
    f_row[0, : f.degree + 1] = f.coeffs[: f.degree + 1]
    return _hurwitz_on_grid(level_crossings(g_row, f_row), g_row, f_row, 1.0 / gamma, thetas)


def family_norm_bisection(kg: IntervalPolynomial, kf: IntervalPolynomial,
                          tol: float = 1e-4, theta_count: int = 720) -> float:
    """Family-wide sensitivity peak located by bisection over gamma.

    The twelve perturbed vertex polynomials with delta = 1/gamma are Hurwitz on
    the whole theta grid exactly when the family supremum is below gamma,
    so the transition point is the worst-case norm. Independent of the
    per-vertex stationary-point route by construction. Each step is one
    _hurwitz_on_grid call on the twelve row pairs, whose level_crossings
    test is built once: a step is decided from its crossing angles, and
    only a step that the test declines goes to hurwitz_batch on the whole
    theta grid.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"bisection needs a finite positive tolerance, got {tol}")
    thetas = _theta_grid(theta_count)
    check_families(kg, kf)
    if not sum_family_hurwitz(kg, kf):
        raise UnstableFamilyError("matched vertex sums are not all Hurwitz")
    g_rows, f_rows = tuple_rows(kg, kf, TWELVE_TUPLES)
    crossings = level_crossings(g_rows, f_rows)
    hi = 2.0
    while not _hurwitz_on_grid(crossings, g_rows, f_rows, 1.0 / hi, thetas, TWELVE_TUPLES):
        hi *= 2.0
        if hi > GAMMA_CAP:
            raise NoUpperBracketError(
                f"no stable gamma found below {GAMMA_CAP:g}; family is near instability"
            )
    lo = 1.0 + 1e-9
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are adjacent floats: tol is below their spacing
            break
        if _hurwitz_on_grid(crossings, g_rows, f_rows, 1.0 / mid, thetas, TWELVE_TUPLES):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
