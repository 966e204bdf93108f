"""Worst-case sensitivity peak of an interval feedback system.

The family maximum over the whole coefficient box reduces to twelve
vertex plant pairs. This module wires that reduction end to end: the
matched-vertex stability hypothesis, the twelve-norm maximum, and three
independent cross-checks (all sixteen tuples, Monte-Carlo box sampling,
and the gamma-bisection route). The gate's four matched sums settle the
stability of every member of the closed-loop sum box (Kharitonov), so each
closed loop built here is tested once more only by the norm that values it.
Each vertex norm is computed once per analysis: the sampling reads the
sixteen vertex pairs' norms by tuple, values each distinct probe and draw
once, and takes exact norms of only those that a float level-polynomial
screen cannot place below the vertex maximum; the bisection plans its steps
from the twelve-vertex maximum.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import IntervalHinfError, UnstableFamilyError, renamed
from .hinf import family_norm_bisection, hinf_norm_batch, hinf_norm_below
from .interval import IntervalPolynomial, sample_many, sum_family_hurwitz, vertex_rows
from .poly import check_count, check_width, distinct_rows
from .valueset import ALL_SIXTEEN, TWELVE_TUPLES, VertexTuple, check_families, tuple_rows

__all__ = [
    "AnalysisOptions",
    "AnalysisProblem",
    "AnalysisReport",
    "OracleResult",
    "closed_loop_family_stable",
    "max_sensitivity_twelve",
    "max_sensitivity_sixteen",
    "monte_carlo_oracle",
    "analyze",
]

# All sixteen tuples, the twelve first: hinf_norm_batch names the lowest failing
# row, so a failure names the tuple that max_sensitivity_twelve would name.
_TWELVE_FIRST = TWELVE_TUPLES + tuple(t for t in ALL_SIXTEEN if t not in TWELVE_TUPLES)
_VERTEX_PROBES = 16  # the first rows of _probe_pairs: every g vertex with every f vertex


_LEAST = {"theta_points": 1, "oracle_samples": 0, "seed": 0, "grid_points": 2}  # count -> least


@dataclass(frozen=True)
class AnalysisOptions:
    """Settings of the cross-checks and of `norm`'s grid, checked at construction by
    `poly.check_count` (each count a whole number at or above its least value, stored as an
    int) and `poly.check_width` (each width a finite float > 0); a bad value raises
    ValueError("<field>: expected <what>")."""

    theta_points: int = 720
    oracle_samples: int = 2000
    seed: int = 0
    bisection_tol: float = 1e-4
    omega_max: float = 100.0
    grid_points: int = 100_000

    def __post_init__(self):
        for name, least in _LEAST.items():
            object.__setattr__(self, name, check_count(name, getattr(self, name), least))
        for name in ("bisection_tol", "omega_max"):
            object.__setattr__(self, name, check_width(name, getattr(self, name)))


@dataclass(frozen=True)
class AnalysisProblem:
    """Numerator family kg (degree m), denominator family kf (degree n), m < n."""

    kg: IntervalPolynomial
    kf: IntervalPolynomial
    options: AnalysisOptions = field(default_factory=AnalysisOptions)

    def __post_init__(self):
        check_families(self.kg, self.kf)


@dataclass(frozen=True)
class OracleResult:
    oracle_max: float
    argmax_g: tuple[float, ...]
    argmax_f: tuple[float, ...]
    samples: int
    skipped: int  # always 0: every probe and draw is valued
    seed: int


@dataclass(frozen=True)
class AnalysisReport:
    family_stable: bool
    seed: int
    worst_norm: float | None = None
    argmax_tuple: VertexTuple | None = None
    attained_omega: float | None = None
    per_tuple_norms: dict[VertexTuple, float] | None = None
    sixteen_tuple_max: float | None = None
    oracle: OracleResult | None = None
    bisection_norm: float | None = None


def closed_loop_family_stable(prob: AnalysisProblem) -> bool:
    """The stability gate: `sum_family_hurwitz` of the problem's two families."""
    return sum_family_hurwitz(prob.kg, prob.kf)


def _vertex_norms(g_rows: np.ndarray, f_rows: np.ndarray,
                  tuples: tuple[VertexTuple, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Exact sensitivity norm f/(g + f) of each tuple's vertex pair (tuple_rows) and the
    frequency it is attained at, as hinf_norm_batch's arrays in the tuples' order. Each
    closed loop is a member of the family the gate passed; hinf_norm_batch's own Routh test
    names a failing tuple all the same."""
    try:
        return hinf_norm_batch(f_rows, g_rows + f_rows)
    except IntervalHinfError as err:
        raise renamed(err, f"tuple {tuples[err.row].label}")


def _twelve_report(prob: AnalysisProblem, values: np.ndarray,
                   attained: np.ndarray) -> AnalysisReport:
    """The twelve-tuple report from _vertex_norms arrays that list the TWELVE_TUPLES first."""
    norms = values[: len(TWELVE_TUPLES)].tolist()
    k = norms.index(max(norms))  # the first of equal norms: ties go to the canonical listing
    return AnalysisReport(
        family_stable=True,
        seed=prob.options.seed,
        worst_norm=norms[k],
        argmax_tuple=TWELVE_TUPLES[k],
        attained_omega=float(attained[k]),
        per_tuple_norms=dict(zip(TWELVE_TUPLES, norms)),
    )


def max_sensitivity_twelve(prob: AnalysisProblem) -> AnalysisReport:
    """Family worst-case norm as the maximum over the twelve vertex tuples.

    The stability gate runs first; it settles every tuple's closed loop,
    the mixed-index sums included, as members of the closed-loop family.
    Ties resolve to the earliest tuple in the canonical listing.
    """
    if not closed_loop_family_stable(prob):
        raise UnstableFamilyError("matched vertex sums are not all Hurwitz")
    g_rows, f_rows = tuple_rows(prob.kg, prob.kf, TWELVE_TUPLES)
    return _twelve_report(prob, *_vertex_norms(g_rows, f_rows, TWELVE_TUPLES))


def max_sensitivity_sixteen(prob: AnalysisProblem) -> float:
    """Maximum over all sixteen tuples; must reproduce the twelve-tuple value."""
    if not closed_loop_family_stable(prob):
        raise UnstableFamilyError("matched vertex sums are not all Hurwitz")
    g_rows, f_rows = tuple_rows(prob.kg, prob.kf, ALL_SIXTEEN)
    return float(_vertex_norms(g_rows, f_rows, ALL_SIXTEEN)[0].max())


def _probe_pairs(prob: AnalysisProblem) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic oracle probes: 16 vertex pairs plus midpoint blends.

    Returns the numerator and denominator rows of all 65 pairs. The first 16,
    g-major, are the vertex pairs of ALL_SIXTEEN in its order.
    """
    gs, fs = vertex_rows(prob.kg), vertex_rows(prob.kf)
    a, b = np.triu_indices(4, 1)
    g_mids, f_mids = 0.5 * (gs[a] + gs[b]), 0.5 * (fs[a] + fs[b])
    blocks = [(gs, fs), (g_mids, fs), (gs, f_mids)]
    g_rows = [np.repeat(g, len(f), axis=0) for g, f in blocks]
    f_rows = [np.tile(f, (len(g), 1)) for g, f in blocks]
    g_rows.append(0.5 * (np.array(prob.kg.lower) + np.array(prob.kg.upper))[None, :])
    f_rows.append(0.5 * (np.array(prob.kf.lower) + np.array(prob.kf.upper))[None, :])
    return np.vstack(g_rows), np.vstack(f_rows)


def monte_carlo_oracle(prob: AnalysisProblem,
                       vertex_norms: Mapping[VertexTuple, float] | None = None) -> OracleResult:
    """Box-sampling lower bound on the family maximum.

    Draws options.oracle_samples i.i.d. coefficient vectors from both boxes on
    top of the deterministic probes, so the certified maximum is always witnessed.
    Every probe and draw is a member of the closed-loop family, so the stability
    gate settles them all: without vertex_norms it runs first, and an unstable
    family raises UnstableFamilyError; with them, the caller has run it (analyze
    does). No row is skipped. Each byte-distinct (f, g + f) row is valued once,
    at its first occurrence. Probe k < _VERTEX_PROBES of _probe_pairs is the vertex
    pair of ALL_SIXTEEN[k], and only these vertex probes take exact norms; given
    vertex_norms, all sixteen keyed by tuple, they are read, not computed: analyze
    passes the sixteen it has. The vertex maximum T is attained by a vertex probe.
    The other probes and the draws go to hinf_norm_below at T; a row it clears has
    its norm below T, and only the rows it leaves get exact norms. That screen solves
    no roots: it reads the sign of each row's level polynomial from Bernstein
    coefficients. The result is bitwise that of the exact norm of every row, with
    the first of equal maxima in row order, but the exact-route error of a row that
    is cleared or repeats an earlier row no longer surfaces. A failure names its
    probe or draw.
    """
    if vertex_norms is None and not closed_loop_family_stable(prob):
        raise UnstableFamilyError("matched vertex sums are not all Hurwitz")
    samples = prob.options.oracle_samples
    rng = np.random.default_rng(prob.options.seed)

    gs, fs = _probe_pairs(prob)
    probes, vertices = len(gs), min(_VERTEX_PROBES, len(gs))
    gs = np.vstack([gs, sample_many(prob.kg, samples, rng)])  # g draws before f draws
    fs = np.vstack([fs, sample_many(prob.kf, samples, rng)])
    dens = fs.copy()
    dens[:, : gs.shape[1]] += gs

    def norms(rows: np.ndarray) -> np.ndarray:
        try:
            return hinf_norm_batch(fs[rows], dens[rows])[0]
        except IntervalHinfError as err:
            k = int(rows[err.row])
            raise renamed(err, f"oracle probe {k}" if k < probes else f"oracle draw {k - probes}")

    distinct = np.sort(distinct_rows(np.hstack([fs, dens]))[0])  # row 0: a vertex
    vertex, others = distinct[distinct < vertices], distinct[distinct >= vertices]
    if vertex_norms is None:
        values = norms(vertex)
    else:
        values = np.array([vertex_norms[ALL_SIXTEEN[k]] for k in vertex.tolist()])
    if len(others):  # a cleared row is below T, which a vertex attains
        others = others[~hinf_norm_below(fs[others], dens[others], values.max())]
    if len(others):
        values = np.concatenate([values, norms(others)])

    rows = np.concatenate([vertex, others])  # in the order of their values
    best_k = int(rows[values.argmax()])  # the first of equal maxima
    return OracleResult(
        oracle_max=float(values.max()),
        argmax_g=tuple(float(c) for c in gs[best_k]),
        argmax_f=tuple(float(c) for c in fs[best_k]),
        samples=samples,
        skipped=0,
        seed=prob.options.seed,
    )


def analyze(prob: AnalysisProblem) -> AnalysisReport:
    """Full pipeline: stability gate, twelve-vertex maximum, all cross-checks. Each vertex
    norm is computed once: the oracle reads the sixteen, and the bisection plans its steps
    from the twelve-vertex maximum."""
    if not closed_loop_family_stable(prob):
        return AnalysisReport(family_stable=False, seed=prob.options.seed)
    g_rows, f_rows = tuple_rows(prob.kg, prob.kf, _TWELVE_FIRST)
    values, attained = _vertex_norms(g_rows, f_rows, _TWELVE_FIRST)
    report = _twelve_report(prob, values, attained)
    oracle = monte_carlo_oracle(prob, dict(zip(_TWELVE_FIRST, values.tolist())))
    bisect = family_norm_bisection(
        prob.kg, prob.kf,
        tol=prob.options.bisection_tol,
        theta_count=prob.options.theta_points,
        vertex_max=report.worst_norm,
    )
    return replace(report, sixteen_tuple_max=float(values.max()), oracle=oracle,
                   bisection_norm=bisect)
