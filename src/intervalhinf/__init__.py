"""Worst-case H-infinity sensitivity analysis of interval feedback systems.

The sensitivity peak over a whole coefficient box reduces to twelve
Kharitonov vertex plant pairs; this package implements the reduction
together with the value-set geometry behind it and several independent
cross-checks (grid oracle, Monte-Carlo sampling, gamma bisection,
zero-exclusion sweeps).
"""

from .errors import (
    DegenerateLeadingError,
    DegreeOrderError,
    DeltaRangeError,
    HullMismatchError,
    IntervalHinfError,
    NoConvergenceError,
    NoUpperBracketError,
    ProblemFileError,
    TheoremPreconditionGapError,
    UnstableClosedLoopError,
    UnstableDenominatorError,
    UnstableFamilyError,
    ZeroPolynomialError,
)
from .hinf import (
    NormResult,
    RationalFunction,
    check_gamma_equivalence,
    family_norm_bisection,
    hinf_norm_batch,
    hinf_norm_exact,
    hinf_norm_grid,
    sensitivity,
)
from .interval import (
    IntervalPolynomial,
    KharitonovSet,
    kharitonov_vertices,
    sum_family,
)
from .poly import RealPolynomial, add, eval_at_jomega, magnitude_squared
from .stability import (
    RootSet,
    StabilityVerdict,
    is_hurwitz_complex,
    is_hurwitz_real,
    roots_complex,
)
from .theorem import (
    AnalysisOptions,
    AnalysisProblem,
    AnalysisReport,
    OracleResult,
    analyze,
    closed_loop_family_stable,
    max_sensitivity_sixteen,
    max_sensitivity_twelve,
    monte_carlo_oracle,
    twelve_tuples,
)
from .valueset import (
    ValueSetPolygon,
    VertexTuple,
    family_complex_stability,
    octagon,
    origin_excluded,
    zero_exclusion_sweep,
)

__version__ = "0.1.0"
