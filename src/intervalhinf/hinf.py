"""H-infinity norms of stable proper rational functions.

The exact route turns |p(j w)|^2 into an even polynomial ratio in
x = w^2, finds the stationary points of that ratio as roots of a single
polynomial, and re-evaluates every candidate through the transfer
function itself. The supremum may be approached only as w -> inf, so the
at-infinity limit is always a candidate and NormResult keeps an explicit
infinity sentinel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import stability
from .errors import (
    DegreeOrderError,
    DeltaRangeError,
    IntervalHinfError,
    NoUpperBracketError,
    UnstableClosedLoopError,
    UnstableDenominatorError,
    UnstableFamilyError,
)
from .interval import IntervalPolynomial, sum_family_hurwitz
from .poly import (RealPolynomial, add, check_finite, degrees, distinct_rows, eval_at_jomega,
                   magnitude_squared)
from .stability import hurwitz_batch, is_hurwitz_real
from .valueset import TWELVE_TUPLES, VertexTuple, perturbed_vertex_rows, tuple_rows

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


def _trimmed(coeffs: np.ndarray) -> np.ndarray:
    top = np.abs(coeffs).max()
    if top == 0.0:
        return coeffs[:1]
    keep = len(coeffs)
    while keep > 1 and abs(coeffs[keep - 1]) <= _TRIM_REL * top:
        keep -= 1
    return coeffs[:keep]


def _stationarity_polynomial(mn: np.ndarray, md: np.ndarray) -> np.ndarray:
    """d/dx of the ratio mn/md up to the positive factor md^2."""
    dmn = mn[1:] * np.arange(1, len(mn))
    dmd = md[1:] * np.arange(1, len(md))
    lhs = np.convolve(dmn, md) if len(dmn) else np.zeros(1)
    rhs = np.convolve(mn, dmd) if len(dmd) else np.zeros(1)
    n = max(len(lhs), len(rhs))
    lhs = np.pad(lhs, (0, n - len(lhs)))
    rhs = np.pad(rhs, (0, n - len(rhs)))
    return _trimmed(lhs - rhs)


def _chunk_roots(coeffs: np.ndarray) -> list:
    """Roots of each same-degree row, or the error solving that row alone raises.

    A chunk that fails is solved again row by row, so the failure lands on
    its own row and the other rows keep their roots.
    """
    try:
        return stability.roots_batch(coeffs)[0].tolist()
    except IntervalHinfError as err:
        if len(coeffs) == 1:
            return [err]
    return [out for row in coeffs for out in _chunk_roots(row[None, :])]


def _magnitudes(num, den, omegas: np.ndarray) -> tuple[np.ndarray, float]:
    """|num(j omega) / den(j omega)| at each frequency from one call, and its limit at inf."""
    rows = np.zeros((2, max(len(num), len(den))))
    rows[0, : len(num)], rows[1, : len(den)] = num, den
    values = eval_at_jomega(rows, omegas[None, :])
    mags = np.hypot(values.real, values.imag)  # rounds as abs() of a Python complex does
    m, n = degrees(rows)
    return mags[0] / mags[1], (float(abs(rows[0, m] / rows[1, n])) if m == n else 0.0)


def _norm_from_roots(num: np.ndarray, den: np.ndarray, roots: list[complex]) -> NormResult:
    xs = [0.0] + [r.real for r in roots if abs(r.imag) <= 1e-8 * abs(r) and r.real > 0.0]
    omegas = sorted(math.sqrt(x) for x in xs)
    mags, gain = _magnitudes(num, den, np.array(omegas))
    candidates = list(zip(omegas, mags.tolist())) + [(math.inf, gain)]

    best_val, best_at = -1.0, 0.0
    for om, mag in candidates:
        if mag > best_val:
            best_val, best_at = mag, om
    return NormResult(value=best_val, attained_at=best_at, candidates=tuple(candidates))


def hinf_norm_batch(num_rows, den_rows) -> list[NormResult]:
    """Peak magnitude over the imaginary axis of each num/den row pair, in order.

    num_rows (B, m+1) and den_rows (B, n+1) hold ascending coefficients.
    Candidate squared frequencies are the nonnegative real roots of
    M_num' * M_den - M_num * M_den', plus x = 0, plus the x -> inf limit;
    each finite candidate is re-evaluated through the transfer function.
    Ties go to the smallest frequency.

    Malformed input (a non-finite coefficient or a zero denominator) raises
    ValueError naming its lowest row, before any other work. Byte-identical
    row pairs are solved once. Stationarity polynomials of one length share
    roots_batch calls of at most _NORM_CHUNK rows, whose iteration is per
    row, so every result equals solving its row alone. Any other failure is
    that of the lowest failing row: the error solving that row alone raises,
    re-raised with `row` set and named in the message.
    """
    num_rows = np.asarray(num_rows, dtype=float)
    den_rows = np.asarray(den_rows, dtype=float)
    if num_rows.ndim != 2 or den_rows.ndim != 2 or len(num_rows) != len(den_rows):
        raise ValueError("hinf_norm_batch needs (B, m+1) and (B, n+1) coefficient rows")
    finite = np.isfinite(num_rows).all(axis=1) & np.isfinite(den_rows).all(axis=1)
    malformed = ~finite | ~den_rows.any(axis=1)
    if malformed.any():
        k = int(malformed.argmax())
        what = "zero denominator" if finite[k] else "non-finite coefficient"
        raise ValueError(f"row {k}: {what}")
    dn, dd = degrees(num_rows), degrees(den_rows)
    first, inverse = distinct_rows(np.hstack([num_rows, den_rows]))
    stable = is_hurwitz_real(den_rows[first])

    failure: tuple[int, IntervalHinfError] | None = None
    stations = {}
    for u in np.argsort(first):  # distinct pairs in input order
        k = int(first[u])
        if dn[k] > dd[k] or not stable[u]:
            failure = (k, _improper(dn[k], dd[k]) if dn[k] > dd[k] else
                       UnstableDenominatorError("H-infinity norm needs a Hurwitz denominator"))
            break  # later rows cannot fail first
        station = _stationarity_polynomial(magnitude_squared(num_rows[k]),
                                           magnitude_squared(den_rows[k]))
        check_finite(station.tolist())
        stations[u] = station

    by_length: dict[int, list[int]] = {}
    for u, station in stations.items():
        if len(station) >= 2:
            by_length.setdefault(len(station), []).append(u)
    roots: dict[int, list] = {}
    for members in by_length.values():
        for start in range(0, len(members), _NORM_CHUNK):
            chunk = members[start : start + _NORM_CHUNK]
            solved = _chunk_roots(np.array([stations[u] for u in chunk], dtype=complex))
            roots.update(zip(chunk, solved))

    norms = {}
    for u in stations:  # input order, all before a failure found above
        k, out = int(first[u]), roots.get(u, [])
        if isinstance(out, IntervalHinfError):
            failure = (k, out)
            break
        norms[u] = _norm_from_roots(num_rows[k], den_rows[k], out)
    if failure is not None:
        k, err = failure
        located = type(err)(f"row {k}: {err}")
        located.row = k
        raise located from err
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
    mags, gain = _magnitudes(rf.num.coeffs, rf.den.coeffs, omegas)
    return float(max(mags.max(), gain))


def _theta_grid(theta_count: int) -> np.ndarray:
    # [-pi, pi) covers the closed interval since the endpoints coincide
    if theta_count < 1:
        raise ValueError("theta grid needs at least one point")
    return np.linspace(-np.pi, np.pi, theta_count, endpoint=False)


def _hurwitz_on_grid(g_rows: np.ndarray, f_rows: np.ndarray, delta: float,
                     thetas: np.ndarray, tuples: tuple[VertexTuple, ...] = ()) -> bool:
    """True iff every g + (1 + delta e^{j theta}) f row is Hurwitz at every grid theta;
    a failing verdict raises again, naming the theta and, if given, the row pair's tuple."""
    for start in range(0, len(thetas), _THETA_CHUNK):
        chunk = thetas[start : start + _THETA_CHUNK]
        try:
            stable = hurwitz_batch(perturbed_vertex_rows(g_rows, f_rows, delta, chunk))
        except IntervalHinfError as err:
            k, pair = divmod(err.row, len(g_rows))
            where = f"tuple {tuples[pair].label} at " if tuples else ""
            raise type(err)(f"{where}theta={chunk[k]}: {err.__cause__}") from err.__cause__
        if not stable.all():
            return False
    return True


def check_gamma_equivalence(g: RealPolynomial, f: RealPolynomial, gamma: float,
                  theta_count: int = 720) -> bool:
    """Grid version of the gamma-equivalence for a single plant.

    True iff g + (1 + (1/gamma) e^{j theta}) f is Hurwitz at every grid
    theta; up to grid resolution this equals ||f/(f+g)||_inf < gamma.
    """
    if not gamma > 1.0:
        raise DeltaRangeError(f"gamma must exceed 1, got {gamma}")
    if not is_hurwitz_real([add(f, g).coeffs])[0]:
        raise UnstableClosedLoopError("f + g must be Hurwitz for the equivalence")
    g_row, f_row = np.zeros((2, 1, max(f.degree, g.degree) + 1))
    g_row[0, : g.degree + 1] = g.coeffs[: g.degree + 1]
    f_row[0, : f.degree + 1] = f.coeffs[: f.degree + 1]
    return _hurwitz_on_grid(g_row, f_row, 1.0 / gamma, _theta_grid(theta_count))


def family_norm_bisection(kg: IntervalPolynomial, kf: IntervalPolynomial,
                          tol: float = 1e-4, theta_count: int = 720) -> float:
    """Family-wide sensitivity peak located by bisection over gamma.

    The twelve perturbed vertex polynomials with delta = 1/gamma are Hurwitz on
    the whole theta grid exactly when the family supremum is below gamma,
    so the transition point is the worst-case norm. Independent of the
    per-vertex stationary-point route by construction.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"bisection needs a finite positive tolerance, got {tol}")
    if not sum_family_hurwitz(kg, kf):
        raise UnstableFamilyError("matched vertex sums are not all Hurwitz")
    thetas = _theta_grid(theta_count)
    g_rows, f_rows = tuple_rows(kg, kf, TWELVE_TUPLES)
    hi = 2.0
    while not _hurwitz_on_grid(g_rows, f_rows, 1.0 / hi, thetas, TWELVE_TUPLES):
        hi *= 2.0
        if hi > GAMMA_CAP:
            raise NoUpperBracketError(
                f"no stable gamma found below {GAMMA_CAP:g}; family is near instability"
            )
    lo = 1.0 + 1e-9
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _hurwitz_on_grid(g_rows, f_rows, 1.0 / mid, thetas, TWELVE_TUPLES):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
