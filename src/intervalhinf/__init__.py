"""Worst-case H-infinity sensitivity analysis of interval feedback systems.

The sensitivity peak over a whole coefficient box reduces to twelve
Kharitonov vertex plant pairs; this package implements the reduction
together with the value-set geometry behind it and several independent
cross-checks (grid oracle, Monte-Carlo sampling, gamma bisection,
zero-exclusion sweeps).

The root exports the analysis API; every other name imports from its
module (`intervalhinf.hinf`, `intervalhinf.errors`, ...).
"""

from .interval import IntervalPolynomial
from .theorem import AnalysisOptions, AnalysisProblem, AnalysisReport, analyze

__all__ = ["AnalysisOptions", "AnalysisProblem", "AnalysisReport", "IntervalPolynomial",
           "analyze", "__version__"]

__version__ = "0.1.0"
