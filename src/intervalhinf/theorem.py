"""Worst-case sensitivity peak of an interval feedback system.

The family maximum over the whole coefficient box reduces to twelve
vertex plant pairs. This module wires that reduction end to end: the
matched-vertex stability hypothesis, the twelve-norm maximum, and three
independent cross-checks (all sixteen tuples, Monte-Carlo box sampling,
and the gamma-bisection route).
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import IntervalHinfError, TheoremPreconditionGapError, UnstableFamilyError
from .hinf import NormResult, _norm_arrays, family_norm_bisection, hinf_norm_batch
from .interval import IntervalPolynomial, sample_many, sum_family_hurwitz, vertex_rows
from .stability import hurwitz_batch, is_hurwitz_real
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

# All sixteen tuples, the twelve first: a precondition gap then names the
# tuple that max_sensitivity_twelve would name.
_TWELVE_FIRST = TWELVE_TUPLES + tuple(t for t in ALL_SIXTEEN if t not in TWELVE_TUPLES)


# count field -> its least value and what it must be
_COUNTS = {"theta_points": (1, "an integer >= 1"), "oracle_samples": (0, "a non-negative integer"),
           "seed": (0, "a non-negative integer"), "grid_points": (2, "an integer >= 2")}


@dataclass(frozen=True)
class AnalysisOptions:
    """Settings of the cross-checks and of `norm`'s grid, checked at construction: each count
    a whole number at or above its least value, stored as an int (YAML's 720.0 and numpy
    integers are taken), each width a finite float > 0. Booleans, strings and fractional
    counts raise ValueError("<field>: expected <what>")."""

    theta_points: int = 720
    oracle_samples: int = 2000
    seed: int = 0
    bisection_tol: float = 1e-4
    omega_max: float = 100.0
    grid_points: int = 100_000

    def __post_init__(self):
        for name, (least, what) in _COUNTS.items():
            value = getattr(self, name)
            if isinstance(value, float) and value.is_integer():
                value = int(value)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
                raise ValueError(f"{name}: expected {what}")
            object.__setattr__(self, name, int(value))
        for name in ("bisection_tol", "omega_max"):
            value = getattr(self, name)
            # compared, not converted: an int too large for a float fails here, not in float()
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not 0.0 < value <= sys.float_info.max):
                raise ValueError(f"{name}: expected a finite float > 0")
            object.__setattr__(self, name, float(value))


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
    skipped: int
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


def _vertex_norms(prob: AnalysisProblem,
                  tuples: tuple[VertexTuple, ...]) -> dict[VertexTuple, NormResult]:
    """Exact sensitivity norm f/(g + f) of each tuple's vertex pair, in order,
    every closed loop Hurwitz-checked before any norm."""
    g_rows, f_rows = tuple_rows(prob.kg, prob.kf, tuples)
    dens = g_rows + f_rows
    stable = is_hurwitz_real(dens)
    if not stable.all():
        raise TheoremPreconditionGapError(
            f"mixed vertex sum for tuple {tuples[stable.argmin()].label} is not Hurwitz "
            "although the matched sums are; the vertex reduction hypothesis does not extend"
        )
    try:
        norms = hinf_norm_batch(f_rows, dens)
    except IntervalHinfError as err:
        raise type(err)(f"tuple {tuples[err.row].label}: {err.__cause__}") from err.__cause__
    return dict(zip(tuples, norms))


def _twelve_report(prob: AnalysisProblem,
                   norms: dict[VertexTuple, NormResult]) -> AnalysisReport:
    # max keeps the first of equal norms: ties go to the canonical listing
    argmax = max(TWELVE_TUPLES, key=lambda t: norms[t].value)
    return AnalysisReport(
        family_stable=True,
        seed=prob.options.seed,
        worst_norm=norms[argmax].value,
        argmax_tuple=argmax,
        attained_omega=norms[argmax].attained_at,
        per_tuple_norms={t: norms[t].value for t in TWELVE_TUPLES},
    )


def max_sensitivity_twelve(prob: AnalysisProblem) -> AnalysisReport:
    """Family worst-case norm as the maximum over the twelve vertex tuples.

    Every tuple's closed loop is Hurwitz-checked first, including the
    mixed-index sums the stability hypothesis only implies indirectly.
    Ties resolve to the earliest tuple in the canonical listing.
    """
    if not closed_loop_family_stable(prob):
        raise UnstableFamilyError("matched vertex sums are not all Hurwitz")
    return _twelve_report(prob, _vertex_norms(prob, TWELVE_TUPLES))


def max_sensitivity_sixteen(prob: AnalysisProblem) -> float:
    """Maximum over all sixteen tuples; must reproduce the twelve-tuple value."""
    if not closed_loop_family_stable(prob):
        raise UnstableFamilyError("matched vertex sums are not all Hurwitz")
    return max(r.value for r in _vertex_norms(prob, ALL_SIXTEEN).values())


def _probe_pairs(prob: AnalysisProblem) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic oracle probes: 16 vertex pairs plus midpoint blends.

    Returns the numerator and denominator rows of all 65 pairs.
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


def monte_carlo_oracle(prob: AnalysisProblem) -> OracleResult:
    """Box-sampling lower bound on the family maximum.

    Draws options.oracle_samples i.i.d. coefficient vectors from both boxes on
    top of the deterministic probes, so the certified maximum is always witnessed.
    Samples whose closed loop has a root at Re >= -1e-9 (Hermite verdict)
    are skipped and counted; a failure names its probe or draw.
    """
    samples = prob.options.oracle_samples
    rng = np.random.default_rng(prob.options.seed)

    gs, fs = _probe_pairs(prob)
    probes = len(gs)
    gs = np.vstack([gs, sample_many(prob.kg, samples, rng)])  # g draws before f draws
    fs = np.vstack([fs, sample_many(prob.kf, samples, rng)])

    dens = fs.copy()
    dens[:, : gs.shape[1]] += gs
    kept = np.arange(len(dens))
    try:
        kept = kept[hurwitz_batch(dens)]
        inverse, values = _norm_arrays(fs[kept], dens[kept])[:2]
    except IntervalHinfError as err:
        k = int(kept[err.row])
        where = f"oracle probe {k}" if k < probes else f"oracle draw {k - probes}"
        raise type(err)(f"{where}: {err.__cause__}") from err.__cause__

    values = values[inverse]
    best_k = int(kept[values.argmax()]) if len(kept) else 0  # the first of equal maxima
    return OracleResult(
        oracle_max=float(values.max(initial=-np.inf)),
        argmax_g=tuple(float(c) for c in gs[best_k]),
        argmax_f=tuple(float(c) for c in fs[best_k]),
        samples=samples,
        skipped=len(dens) - len(kept),
        seed=prob.options.seed,
    )


def analyze(prob: AnalysisProblem) -> AnalysisReport:
    """Full pipeline: stability gate, twelve-vertex maximum, all cross-checks."""
    if not closed_loop_family_stable(prob):
        return AnalysisReport(family_stable=False, seed=prob.options.seed)
    norms = _vertex_norms(prob, _TWELVE_FIRST)
    sixteen = max(norms[t].value for t in ALL_SIXTEEN)
    oracle = monte_carlo_oracle(prob)
    bisect = family_norm_bisection(
        prob.kg, prob.kf,
        tol=prob.options.bisection_tol,
        theta_count=prob.options.theta_points,
    )
    return replace(_twelve_report(prob, norms), sixteen_tuple_max=sixteen,
                   oracle=oracle, bisection_norm=bisect)
