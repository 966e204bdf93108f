"""H-infinity norms of stable proper rational functions.

The exact route turns |p(j w)|^2 into an even polynomial ratio in
x = w^2, finds the stationary points of that ratio as roots of a single
polynomial, and re-evaluates every candidate through the transfer
function itself, each stage for a whole batch of rows at once: rows in,
arrays of norms and frequencies out. Each row is scaled by an exact power
of two first, so a row's scale alone cannot make its products overflow or
underflow, and each stationarity row is cut at its own roundoff
(stability.cut_roots), not at a fraction of its largest coefficient, so no
cut depends on the frequency scale. The supremum may be approached only as
w -> inf, so the at-infinity limit is always a candidate, and the frequency
it is attained at is then the sentinel math.inf. A cheaper question,
whether a row's peak is below a given gamma, is answered in float by
hinf_norm_below from the level polynomial gamma^2 M_den - M_num, of degree
n in x where the stationarity row has degree 2n - 1:
stability.positive_on_halfline decides its sign on [0, inf) from Bernstein
coefficients, without solving for roots. It only ever answers "below" or
"undecided", and hinf_norm_batch stays the only route that computes a norm.

The gamma-equivalence test and the family bisection ask whether the rows
g + (1 + delta e^{j theta}) f are Hurwitz over a theta grid, and decide each
delta the same way (_decide), from the row pairs' level-crossing test
(stability.level_crossings), built once. The test finds the thetas at which
a row on the circle |c| = delta, c = delta e^{j theta}, has an imaginary-axis
root. A level row that the Bernstein screen of hinf_norm_below clears
(stability.positive_on_halfline, the same roundoff rule) has none and is never
solved; only the rows it cannot clear go to the root solve. No crossing at
all certifies every row of the disk without matrix work; otherwise
hurwitz_batch on the grid rows next to the crossing angles decides the delta,
since between two crossings a pair's rows are all Hurwitz or none is: first
the rows of each delta's first crossing, where one unstable row settles the
delta, then, for the deltas still open, the rows of every crossing. A delta
the test declines goes to hurwitz_batch on the whole grid, in chunks of
_THETA_CHUNK thetas. The bisection predicts its steps from the
twelve-vertex maximum, the threshold the paper predicts, and decides them in
rounds, each round's deltas with one root solve, one probe row build and one
probe call; that maximum only orders the steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (DegreeOrderError, DeltaRangeError, IntervalHinfError, NoUpperBracketError,
                     UnstableClosedLoopError, UnstableDenominatorError, UnstableFamilyError,
                     at_row, renamed)
from .interval import IntervalPolynomial, sum_family_hurwitz
from .poly import (RealPolynomial, as_float, check_count, check_width, degrees, distinct_rows,
                   eval_at_jomega, magnitude_bounds, magnitude_squared, multiply_rows,
                   scale_exponents)
from .stability import (CROSSING_TOL, LevelCrossings, cut_roots, hurwitz_batch,
                        is_hurwitz_real, level_crossings, positive_on_halfline)
from .valueset import TWELVE_TUPLES, VertexTuple, check_families, perturbed_vertex_rows, tuple_rows

__all__ = [
    "RationalFunction",
    "NormResult",
    "sensitivity",
    "hinf_norm_exact",
    "hinf_norm_batch",
    "hinf_norm_below",
    "hinf_norm_grid",
    "check_gamma_equivalence",
    "family_norm_bisection",
]

GAMMA_CAP = 2.0 ** 32
_THETA_CHUNK = 48
_EPS = np.finfo(float).eps


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


def sensitivity(g: RealPolynomial, f: RealPolynomial) -> RationalFunction:
    """Sensitivity f/(f+g) of the strictly proper plant g/f under unity feedback."""
    if g.degree >= f.degree:
        raise DegreeOrderError(f"plant must be strictly proper: numerator degree {g.degree} "
                               f">= denominator degree {f.degree}")
    n = max(len(f.coeffs), len(g.coeffs))
    closed = np.pad(f.coeffs, (0, n - len(f.coeffs))) + np.pad(g.coeffs, (0, n - len(g.coeffs)))
    if not is_hurwitz_real([closed])[0]:
        raise UnstableClosedLoopError("f + g is not Hurwitz; sensitivity undefined")
    return RationalFunction(num=f, den=RealPolynomial(closed))


def _stationarity_rows(num_rows: np.ndarray, den_rows: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Rows of M_num' * M_den - M_num * M_den', d/dx of each M_num/M_den times M_den^2 (a row
    0 if both are constant), each row first scaled as hinf_norm_batch says, num rows padded
    and stacked on den rows, and the roundoff of each coefficient: 4 len eps times the same
    two products with every term in absolute value, Mbar_num' * Mbar_den + Mbar_num * Mbar_den'
    (Mbar as in magnitude_bounds). Both products sum their terms in the same order (padding
    adds zeros), so where M_num and M_den share coefficients (f, f + g above deg g) they cancel
    exactly."""
    count, width = len(num_rows), max(num_rows.shape[1], den_rows.shape[1])
    if width == 1:
        return np.zeros((count, 1)), np.zeros((count, 1))
    rows = np.zeros((2 * count, width))
    rows[:count, : num_rows.shape[1]], rows[count:, : den_rows.shape[1]] = num_rows, den_rows
    rows = np.ldexp(rows, -scale_exponents(rows))
    m = np.concatenate([magnitude_squared(rows), magnitude_bounds(rows)])  # M and Mbar, num first
    # [M_den; M_num; Mbar_den; Mbar_num] times [M_num'; M_den'; Mbar_num'; Mbar_den'], M' kept as
    # i * M_i at x^i, so x^0 is dropped after
    flipped = m.reshape(2, 2, count, width)[:, ::-1].reshape(4 * count, width)
    products = multiply_rows(flipped, m * np.arange(width))[:, 1:]
    (rising, falling), bounds = products.reshape(2, 2, count, 2 * width - 2)
    return rising - falling, bounds.sum(axis=0) * (4 * (2 * width - 2) * _EPS)


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


def hinf_norm_batch(num_rows, den_rows) -> tuple[np.ndarray, np.ndarray]:
    """Peak magnitude over the imaginary axis of each num/den row pair, and the frequency it
    is attained at (math.inf for the limit at inf), as two (B,) arrays in row order.

    num_rows (B, m+1) and den_rows (B, n+1) hold ascending coefficients. Candidate squared
    frequencies are the nonnegative real roots of M_num' * M_den - M_num * M_den', plus x = 0,
    plus the x -> inf limit; each finite candidate is re-evaluated through the transfer
    function. Ties go to the smallest frequency, and to a finite one over the limit.

    Malformed input (a non-finite coefficient or a zero denominator) raises ValueError naming
    its lowest row, before any other work. Each stage runs once over all byte-distinct row
    pairs. Each num and den row is scaled by the exact power of two that puts its largest
    coefficient in [0.5, 1) before its stationarity row is formed, which moves no root and
    keeps every finite row's products finite, and the candidates are evaluated on the rows as
    given. The stationarity rows, whose tops cancel to roundoff where M_num and M_den share
    their top terms, as a sensitivity's do, go with each coefficient's roundoff to one
    stability.cut_roots call, which solves each row alone. Any other failure is the lowest
    failing row's error as solved alone, re-raised with `row` set and named in the message.
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
    roots, _, failed = cut_roots(*_stationarity_rows(nums, dens))  # x = 0 is a candidate anyway
    failures += [(int(first[i]), err) for i, err in failed]
    if failures:
        raise at_row(*min(failures, key=lambda failure: failure[0]))
    real = (np.abs(roots.imag) <= 1e-8 * np.abs(roots)) & (roots.real > 0.0)
    omegas = np.zeros((len(first), roots.shape[1] + 1))  # column 0 is x = 0, then NaN or roots
    omegas[:, 1:] = np.sort(np.sqrt(np.where(real, roots.real, np.nan)), axis=1)

    mags, gains = _magnitudes(nums, dens, omegas, dn, dd)
    peaks = np.fmax.reduce(mags, axis=1)  # NaN is no peak; column 0 is never NaN
    values = np.where(gains > peaks, gains, peaks)
    # the candidates come first, ascending: the first of equal peaks, or inf if the limit wins
    peak = mags == values[:, None]
    attained = np.where(peak.any(axis=1), omegas[np.arange(len(omegas)), peak.argmax(axis=1)],
                        math.inf)
    return values[inverse], attained[inverse]


def hinf_norm_below(num_rows, den_rows, gamma: float) -> np.ndarray:
    """True for each num/den row pair whose magnitude stays below gamma on the whole imaginary
    axis and in the limit at inf, as a (B,) array in row order; False decides nothing.

    The float pre-screen of the gamma-iterations (Boyd-Balakrishnan 1990, Bruinsma-Steinbuch
    1990): with both rows of a pair scaled by one exact power of two, the level polynomial
    P = gamma^2 M_den - M_num in x = omega^2 (M as in magnitude_squared) is positive on
    [0, inf) when P(0) and P's leading coefficient, at the pair's larger degree, are above
    CROSSING_TOL relative to gamma^2 |M_den| + |M_num| there, and stability.positive_on_halfline
    finds P positive by more than its roundoff bound, stability.LEVEL_ROUNDOFF (d+1) eps
    times gamma^2 Mbar_den + Mbar_num, Mbar every other coefficient of |p| * |p|. Each pair is
    decided on its own, so the caller passes distinct rows (the oracle dedupes its own); level
    rows of one degree share one call, and no root is solved; a row that is not finite is
    False. Stability is not checked: a norm also needs a Hurwitz denominator.
    """
    width = np.shape(num_rows)[1]
    pairs = np.hstack([np.asarray(num_rows, dtype=float), np.asarray(den_rows, dtype=float)])
    g2 = gamma * gamma
    with np.errstate(all="ignore"):  # a row that is not finite clears nothing
        nums, dens = np.hsplit(np.ldexp(pairs, -scale_exponents(pairs)), [width])
        rows = np.zeros((2 * len(pairs), max(nums.shape[1], dens.shape[1])))
        rows[: len(pairs), : nums.shape[1]], rows[len(pairs) :, : dens.shape[1]] = nums, dens
        mn, md = np.split(magnitude_squared(rows), 2)
        bn, bd = np.split(magnitude_bounds(rows), 2)
        level, size, bound = g2 * md - mn, g2 * np.abs(md) + np.abs(mn), g2 * bd + bn
    pair, top = np.arange(len(pairs)), np.maximum(degrees(nums), degrees(dens)).clip(0)
    clear = ((level[:, 0] > CROSSING_TOL * size[:, 0])
             & (level[pair, top] > CROSSING_TOL * size[pair, top]))
    for degree in sorted(set(top[clear].tolist()) - {0}):
        members = np.flatnonzero(clear & (top == degree))
        clear[members] = positive_on_halfline(level[members, : degree + 1],
                                              bound[members, : degree + 1])
    return clear


def hinf_norm_exact(rf: RationalFunction) -> NormResult:
    """Exact H-infinity norm of one rational function: hinf_norm_batch with B = 1.

    Errors are raised as solving the function alone raises them, without a row.
    """
    try:
        values, attained = hinf_norm_batch([rf.num.coeffs], [rf.den.coeffs])
    except IntervalHinfError as err:
        raise renamed(err)
    return NormResult(value=float(values[0]), attained_at=float(attained[0]))


def hinf_norm_grid(rf: RationalFunction, omega_max: float, points: int) -> float:
    """Dense-grid lower bound on the peak; the independent check on the exact route.

    Log-spaced frequencies on (0, omega_max] augmented with omega = 0 and
    the at-infinity limit; it never forms the magnitude-squared polynomials.
    """
    points = check_count("points", points, 2)
    omega_max = check_width("omega_max", omega_max)
    omegas = np.concatenate([[0.0], np.geomspace(omega_max * 1e-12, omega_max, points - 1)])
    num, den = np.array([rf.num.coeffs]), np.array([rf.den.coeffs])
    mags, limit = _magnitudes(num, den, omegas[None, :], degrees(num), degrees(den))
    return float(max(mags.max(), limit[0]))


def _theta_grid(theta_count: int) -> np.ndarray:
    # [-pi, pi) covers the closed interval since the endpoints coincide
    return np.linspace(-np.pi, np.pi, check_count("theta_count", theta_count, 1), endpoint=False)


def _hurwitz_rows(rows: np.ndarray, thetas: np.ndarray, pairs: np.ndarray,
                  tuples: tuple[VertexTuple, ...]) -> np.ndarray:
    """hurwitz_batch of perturbed rows, row i at thetas[i] of row pair pairs[i]; a failing
    verdict raises again, naming the theta and, if given, the pair's tuple."""
    try:
        return hurwitz_batch(rows)
    except IntervalHinfError as err:
        where = f"tuple {tuples[pairs[err.row]].label} at " if tuples else ""
        raise renamed(err, f"{where}theta={thetas[err.row]}")


def _crossing_verdict(crossings: LevelCrossings | None, g_rows: np.ndarray, f_rows: np.ndarray,
                      deltas: list[float], thetas: np.ndarray,
                      tuples: tuple[VertexTuple, ...] = ()) -> list[bool | None]:
    """For each delta: True iff every grid row is Hurwitz, decided from the crossing angles on
    the circle |c| = delta; None if there is no crossing test or it declines.

    No crossing certifies every row of the disk. Otherwise, between two consecutive crossing
    angles of a row pair, its rows on the circle are all Hurwitz or none is. So a delta is
    decided by the _theta_grid rows within two grid steps of each crossing angle of their pair,
    built by perturbed_vertex_rows as the grid's own rows are: they hold a row of every arc
    that holds a grid theta, even for an angle off by up to one grid step. The probes go in two
    stages on one path. Stage 1 probes the four rows of each delta's first crossing; a row
    that is not Hurwitz is a grid row that is not, so its delta is False. Stage 2 probes every
    crossing of each delta stage 1 left without an unstable row, the whole probe set of that
    delta. In each stage, each distinct (delta, grid theta) probed is built once, by one
    perturbed_vertex_rows call with a delta per theta, and every probe row goes to one
    hurwitz_batch call, which decides each row as it would alone; a step is False if any of
    its probes is."""
    if crossings is None:
        return [None] * len(deltas)
    decided, steps, pairs, angles = crossings(deltas)
    below = np.floor((angles + np.pi) * (len(thetas) / (2.0 * np.pi))).astype(int)
    unstable = np.zeros(len(deltas), dtype=bool)

    def probe(entries: np.ndarray) -> None:
        at = (below[entries] + np.arange(-1, 3)[:, None]).ravel() % len(thetas)
        step, pair = np.tile(steps[entries], 4), np.tile(pairs[entries], 4)
        if len(at):
            probed, where = np.unique(step * len(thetas) + at, return_inverse=True)
            grid = perturbed_vertex_rows(g_rows, f_rows,
                                         np.asarray(deltas)[probed // len(thetas)],
                                         thetas[probed % len(thetas)])
            stable = _hurwitz_rows(grid[where * len(g_rows) + pair], thetas[at], pair, tuples)
            unstable[step[~stable]] = True

    probe(np.unique(steps, return_index=True)[1])  # stage 1: each step's first crossing
    probe(np.flatnonzero(~unstable[steps]))  # stage 2: every crossing of the steps left open
    return np.where(decided, ~unstable, None).tolist()


def _grid_verdict(g_rows: np.ndarray, f_rows: np.ndarray, delta: float, thetas: np.ndarray,
                  tuples: tuple[VertexTuple, ...] = ()) -> bool:
    """True iff every g + (1 + delta e^{j theta}) f row is Hurwitz at every grid theta, by
    hurwitz_batch on the perturbed rows of the whole grid, in chunks of _THETA_CHUNK thetas;
    a failing verdict raises again, naming the theta and, if given, the row pair's tuple."""
    pairs = np.tile(np.arange(len(g_rows)), _THETA_CHUNK)
    for start in range(0, len(thetas), _THETA_CHUNK):
        chunk = thetas[start : start + _THETA_CHUNK]
        rows = perturbed_vertex_rows(g_rows, f_rows, delta, chunk)
        if not _hurwitz_rows(rows, np.repeat(chunk, len(g_rows)), pairs, tuples).all():
            return False
    return True


def _decide(crossings: LevelCrossings | None, g_rows: np.ndarray, f_rows: np.ndarray,
            gammas: list[float], thetas: np.ndarray,
            tuples: tuple[VertexTuple, ...] = ()) -> list[bool]:
    """The _grid_verdict of each delta = 1/gamma, as each gets it alone: one _crossing_verdict
    call (crossings is the row pairs' level_crossings, or None) decides every delta it can,
    and each delta it declines goes to _grid_verdict, in order."""
    deltas = [1.0 / gamma for gamma in gammas]
    verdicts = _crossing_verdict(crossings, g_rows, f_rows, deltas, thetas, tuples)
    return [_grid_verdict(g_rows, f_rows, delta, thetas, tuples) if verdict is None else verdict
            for delta, verdict in zip(deltas, verdicts)]


def check_gamma_equivalence(g: RealPolynomial, f: RealPolynomial, gamma: float,
                  theta_count: int = 720) -> bool:
    """Grid version of the gamma-equivalence for a single plant.

    True iff g + (1 + (1/gamma) e^{j theta}) f is Hurwitz at every grid
    theta; up to grid resolution this equals ||f/(f+g)||_inf < gamma.
    Decided as one _decide step. The plant g/f must be strictly proper
    with f + g Hurwitz, as `sensitivity` requires.
    """
    if not gamma > 1.0:
        raise DeltaRangeError(f"gamma must exceed 1, got {gamma}")
    thetas = _theta_grid(theta_count)
    sensitivity(g, f)
    g_row, f_row = np.zeros((2, 1, f.degree + 1))
    g_row[0, : g.degree + 1] = g.coeffs[: g.degree + 1]
    f_row[0, : f.degree + 1] = f.coeffs[: f.degree + 1]
    return _decide(level_crossings(g_row, f_row), g_row, f_row, [as_float(gamma)], thetas)[0]


def _bisect(verdict: Callable[[float], bool], tol: float) -> float:
    """The gamma bisection, verdict(gamma) True iff the peak is below gamma: gamma doubles from
    2 until a verdict is True, then [1 + 1e-9, hi] halves until it is at most tol wide or two
    adjacent floats, and its midpoint is returned."""
    hi = 2.0
    while not verdict(hi):
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
        if verdict(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def family_norm_bisection(kg: IntervalPolynomial, kf: IntervalPolynomial,
                          tol: float = 1e-4, theta_count: int = 720,
                          vertex_max: float | None = None) -> float:
    """Family-wide sensitivity peak located by bisection over gamma.

    The twelve perturbed vertex polynomials with delta = 1/gamma are Hurwitz on
    the whole theta grid exactly when the family supremum is below gamma,
    so the transition point is the worst-case norm. Independent of the
    per-vertex stationary-point route by construction. The twelve row pairs'
    level_crossings test is built first, and the stability gate runs only if
    it cannot be: the four matched sums are among the twelve g + f rows that
    the test certifies Hurwitz. The steps go in rounds. Each round replays the
    bisection rule on the verdicts known so far, predicting each unknown one as
    gamma > vertex_max, and one _decide call settles every gamma it tested;
    the last replay needs none. vertex_max is the twelve vertex pairs' largest
    norm, which analyze passes and None computes. With no prediction (those
    norms raise) or no crossing test, a round settles its first gamma only, and
    so does a round whose call raised again, so an error is the one its step
    raises alone. Every verdict is the one its step gets alone: vertex_max only
    orders the work, and any value, or none, gives the same gamma.
    """
    tol = check_width("tol", tol)
    thetas = _theta_grid(theta_count)
    check_families(kg, kf)
    g_rows, f_rows = tuple_rows(kg, kf, TWELVE_TUPLES)
    crossings = level_crossings(g_rows, f_rows)
    if crossings is None and not sum_family_hurwitz(kg, kf):
        raise UnstableFamilyError("matched vertex sums are not all Hurwitz")
    nu = vertex_max
    try:
        if nu is None and crossings is not None:
            nu = float(hinf_norm_batch(f_rows, g_rows + f_rows)[0].max())
    except IntervalHinfError:  # no prediction
        pass
    known: dict[float, bool] = {}
    while True:
        unknown: list[float] = []

        def replayed(gamma: float) -> bool:
            if gamma not in known:
                unknown.append(gamma)
            return known.get(gamma, nu is not None and gamma > nu)

        try:
            found = _bisect(replayed, tol)
        except NoUpperBracketError:  # a replay predicted up to the cap
            if not unknown:
                raise
        if not unknown:
            return found
        batch = unknown if nu is not None and crossings is not None else unknown[:1]
        try:
            verdicts = _decide(crossings, g_rows, f_rows, batch, thetas, TWELVE_TUPLES)
        except (IntervalHinfError, ValueError):  # ValueError: a probe row that is not finite
            if len(batch) == 1:
                raise
            batch = batch[:1]  # alone, it raises where its step raises
            verdicts = _decide(crossings, g_rows, f_rows, batch, thetas, TWELVE_TUPLES)
        known.update(zip(batch, verdicts))
