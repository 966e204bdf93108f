"""The three workloads: how each builds its inputs, runs one op and checks it.

An op calls the package only through its public functions, looked up on
the module at call time so that the tracer's wrappers see the call.
Checks compare against references from `population`, which never
imports the package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from intervalhinf import cli, hinf, interval, poly, theorem, valueset

import population as pop

GOLDEN_SEED = 42  # the seed the shipped goldens were rendered with
DIGITS = 9        # the CLI's default significant digits


# --------------------------------------------------------- analyze-families

@dataclass(frozen=True)
class AnalyzeOut:
    stable: bool
    worst: float | None
    sixteen: float | None
    oracle: float | None
    bisection: float | None
    text: str
    doc: str


class AnalyzeFamilies:
    """op = cli.load_problem -> theorem.analyze -> cli.render_report / report_to_dict."""

    name = "analyze-families"

    def __init__(self, entries: list[pop.ProblemEntry], seed: int):
        self.entries = entries
        self.seed = seed

    def build(self) -> list[pop.ProblemEntry]:
        for e in self.entries:  # validates every file through the program's loader
            cli.load_problem(e.path)
        return self.entries

    def op(self, entry: pop.ProblemEntry) -> AnalyzeOut:
        prob = cli.load_problem(entry.path)
        prob = theorem.AnalysisProblem(kg=prob.kg, kf=prob.kf,
                                       options=replace(prob.options, seed=self.seed))
        report = theorem.analyze(prob)
        text = cli.render_report(report, DIGITS)
        doc = json.dumps(cli.report_to_dict(report), sort_keys=True)
        oracle = report.oracle.oracle_max if report.oracle is not None else None
        return AnalyzeOut(report.family_stable, report.worst_norm, report.sixteen_tuple_max,
                          oracle, report.bisection_norm, text, doc)

    def check(self, entry: pop.ProblemEntry, out: AnalyzeOut) -> str | None:
        """The acceptance tolerances, a grid lower bound and the goldens."""
        if out.stable != pop.matched_sums_stable(entry.family):
            return "stability-verdict"
        if entry.golden is not None and self.seed == GOLDEN_SEED and out.text != entry.golden:
            return "golden-render"
        if json.loads(out.doc).get("worst_norm") != out.worst:
            return "machine-document"
        if not out.stable:
            return None
        w = out.worst
        if not abs(out.sixteen - w) <= 1e-9 * abs(w):
            return "twelve-vs-sixteen"
        if not (w - 1e-12 <= out.oracle <= w * (1 + 1e-9)):
            return "oracle-vs-twelve"
        if not abs(out.bisection - w) <= 1e-3:
            return "bisection-vs-twelve"
        if not w >= pop.vertex_peak_reference(entry.family) * (1 - 1e-9):
            return "below-grid"
        return None

    @staticmethod
    def known_defect(entry: pop.ProblemEntry, reason: str) -> bool:
        """The 720-point theta grid can miss the peak by more than 1e-3 near norm 1."""
        return reason == "bisection-vs-twelve"

    @staticmethod
    def describe(entry: pop.ProblemEntry) -> tuple[int, str]:
        return entry.family.degree, entry.kind


# -------------------------------------------------------------- norm-spread

class NormSpread:
    """op = one hinf.hinf_norm_exact, the library path of `interval-hinf norm`."""

    name = "norm-spread"

    def __init__(self, cases: list[pop.NormCase], seed: int):
        self.cases = cases

    def build(self) -> list:
        return [hinf.RationalFunction(num=poly.RealPolynomial(c.num),
                                      den=poly.RealPolynomial(c.den)) for c in self.cases]

    def op(self, rf) -> float:
        return float(hinf.hinf_norm_exact(rf).value)

    def check(self, case: pop.NormCase, value: float) -> str | None:
        if not (math.isfinite(value) and value >= pop.product_form_peak(case) * (1 - 1e-9)):
            return "below-grid"
        return None

    @staticmethod
    def known_defect(case: pop.NormCase, reason: str) -> bool:
        """Spread plants are the generator of the open exact-norm defect."""
        return case.kind == "spread"

    @staticmethod
    def describe(case: pop.NormCase) -> tuple[int, str]:
        return case.degree, case.kind


# ----------------------------------------------------------- zero-exclusion

class ZeroExclusion:
    """op = one valueset.zero_exclusion_sweep at SWEEP_POINTS frequencies."""

    name = "zero-exclusion"

    def __init__(self, cases: list[pop.SweepCase], seed: int):
        self.cases = cases

    def build(self) -> list[tuple]:
        out = []
        for c in self.cases:
            f = c.family
            kg = interval.IntervalPolynomial(f.g_lower, f.g_upper)
            kf = interval.IntervalPolynomial(f.f_lower, f.f_upper)
            omega_max = 1.05 * valueset.family_cauchy_bound(kg, kf, c.delta)
            out.append((kg, kf, c.delta, c.theta, omega_max))
        return out

    def op(self, args: tuple) -> bool:
        kg, kf, delta, theta, omega_max = args
        return bool(valueset.zero_exclusion_sweep(kg, kf, delta, theta, omega_max,
                                                  pop.SWEEP_POINTS))

    def check(self, case: pop.SweepCase, verdict: bool) -> str | None:
        if pop.twelve_hurwitz(case) and verdict is not True:
            return "missed-stable"
        return None

    @staticmethod
    def known_defect(case: pop.SweepCase, reason: str) -> bool:
        return False

    @staticmethod
    def describe(case: pop.SweepCase) -> tuple[int, str]:
        return case.family.degree, "interval"


WORKLOADS = {w.name: w for w in (AnalyzeFamilies, NormSpread, ZeroExclusion)}
