"""Command line interface.

Problem files are YAML documents (comments welcome) holding the two
coefficient boxes ascending by power plus an optional options block.
Exit codes are stable: 0 success, 2 input error, 3 instability,
4 numerical failure.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import sys
from dataclasses import replace

import click
import yaml

from .errors import IntervalHinfError, ProblemFileError, UnstableFamilyError
from .hinf import RationalFunction, hinf_norm_exact, hinf_norm_grid, sensitivity
from .interval import VERTEX_LABELS, IntervalPolynomial, vertex_rows
from .poly import RealPolynomial
from .theorem import (
    AnalysisOptions,
    AnalysisProblem,
    AnalysisReport,
    analyze,
    max_sensitivity_twelve,
    monte_carlo_oracle,
)
from .valueset import octagon, sweep_octagons

# exit code -> stderr prefix; library errors carry their exit_code, a ValueError exits 2
_PREFIX = {2: "error", 3: "unstable", 4: "numerical failure"}

_COUNT = click.IntRange(min=0)  # count flags
_DIGITS = click.option("--digits", type=click.IntRange(min=1), default=9)  # significant digits
# the AnalysisOptions fields a problem file may set; AnalysisOptions checks their values
_FILE_OPTIONS = ("theta_points", "oracle_samples", "seed", "omega_max", "grid_points")


def _finite_positive_flag(_ctx, _param, value):
    if value is not None and not (math.isfinite(value) and value > 0.0):
        raise click.BadParameter("must be finite and > 0")
    return value


def fmt(x: float, digits: int = 9) -> str:
    return format(float(x), f".{digits}g")


def format_polynomial(coeffs, digits: int = 9) -> str:
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = fmt(abs(c), digits)
        if i == 0:
            body = mag
        else:
            var = "s" if i == 1 else f"s^{i}"
            body = var if mag == "1" else f"{mag} {var}"
        terms.append((" - " if c < 0 else " + ", body))
    if not terms:
        return "0"
    head_sign, head = terms[0]
    out = ("-" if head_sign == " - " else "") + head
    return out + "".join(sign + body for sign, body in terms[1:])


def _bounds_list(node, name: str) -> tuple[list[float], list[float]]:
    if not isinstance(node, list) or not node:
        raise ProblemFileError(f"{name}: expected a non-empty list of [lower, upper] pairs")
    lower, upper = [], []
    for i, pair in enumerate(node):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ProblemFileError(f"{name}[{i}]: expected a [lower, upper] pair")
        try:
            lo, hi = float(pair[0]), float(pair[1])
        except (TypeError, ValueError):
            raise ProblemFileError(f"{name}[{i}]: bounds must be numbers") from None
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ProblemFileError(f"{name}[{i}]: bounds must be finite")
        if lo > hi:
            raise ProblemFileError(f"{name}[{i}]: lower bound {lo:g} exceeds upper {hi:g}")
        lower.append(lo)
        upper.append(hi)
    return lower, upper


def load_problem(path: str) -> AnalysisProblem:
    """Parse and validate a YAML problem file into an AnalysisProblem."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ProblemFileError(f"{path}: invalid YAML: {exc}") from None
    if not isinstance(doc, dict):
        raise ProblemFileError(f"{path}: top level must be a mapping")
    unknown = set(doc) - {"denominator", "numerator", "options"}
    if unknown:
        raise ProblemFileError(f"{path}: unknown keys {sorted(unknown)}")
    for key in ("denominator", "numerator"):
        if key not in doc:
            raise ProblemFileError(f"{path}: missing required key '{key}'")

    den_lo, den_hi = _bounds_list(doc["denominator"], "denominator")
    num_lo, num_hi = _bounds_list(doc["numerator"], "numerator")

    opts = AnalysisOptions()
    raw = {} if doc.get("options") is None else doc["options"]
    if not isinstance(raw, dict):
        raise ProblemFileError("options: expected a mapping")
    for key, value in raw.items():  # in file order, so the first bad entry is named
        if key not in _FILE_OPTIONS:
            raise ProblemFileError(f"options.{key}: unknown option")
        try:
            opts = replace(opts, **{key: value})
        except ValueError as exc:
            raise ProblemFileError(f"options.{exc}") from None

    try:  # the degree order and the positive leading interval
        return AnalysisProblem(kg=IntervalPolynomial(num_lo, num_hi),
                               kf=IntervalPolynomial(den_lo, den_hi), options=opts)
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from None


def _apply_flags(prob: AnalysisProblem, **flags) -> AnalysisProblem:
    """prob with each option flag that was given (not None) in place of its file value."""
    given = {key: value for key, value in flags.items() if value is not None}
    return replace(prob, options=replace(prob.options, **given))


def report_to_dict(report: AnalysisReport) -> dict:
    out: dict = {"family_stable": report.family_stable, "seed": report.seed}
    if not report.family_stable:
        return out
    out["worst_norm"] = report.worst_norm
    out["argmax_tuple"] = report.argmax_tuple.label
    out["attained_omega"] = report.attained_omega
    out["per_tuple_norms"] = {t.label: v for t, v in report.per_tuple_norms.items()}
    out["sixteen_tuple_max"] = report.sixteen_tuple_max
    out["cross_check_deltas"] = {
        "sixteen_minus_twelve": report.sixteen_tuple_max - report.worst_norm,
        "oracle_minus_twelve": report.oracle.oracle_max - report.worst_norm,
        "bisection_minus_twelve": report.bisection_norm - report.worst_norm,
    }
    out["oracle"] = {
        "max": report.oracle.oracle_max,
        "samples": report.oracle.samples,
        "skipped": report.oracle.skipped,
        "seed": report.oracle.seed,
        "argmax_numerator": list(report.oracle.argmax_g),
        "argmax_denominator": list(report.oracle.argmax_f),
    }
    out["bisection_norm"] = report.bisection_norm
    return out


def render_report(report: AnalysisReport, digits: int) -> str:
    lines = []
    if not report.family_stable:
        lines.append("closed-loop family: UNSTABLE (a matched Kharitonov vertex sum "
                     "fails the Hurwitz test)")
        lines.append("no norms computed")
        return "\n".join(lines) + "\n"
    lines.append("closed-loop family: stable")
    lines.append(f"worst-case sensitivity norm: {fmt(report.worst_norm, digits)}")
    where = ("at infinity" if math.isinf(report.attained_omega)
             else f"near omega {fmt(report.attained_omega, digits)}")
    lines.append(f"achieved by vertex tuple {report.argmax_tuple.label} {where}")
    lines.append("per-tuple norms:")
    for t, v in report.per_tuple_norms.items():
        lines.append(f"  {t.label}  {fmt(v, digits)}")
    o = report.oracle
    lines.append("cross-checks:")
    lines.append(f"  sixteen-tuple max  {fmt(report.sixteen_tuple_max, digits)}"
                 f"  (delta {fmt(report.sixteen_tuple_max - report.worst_norm, 3)})")
    lines.append(f"  oracle max         {fmt(o.oracle_max, digits)}"
                 f"  ({o.samples} samples, {o.skipped} skipped, seed {o.seed})")
    lines.append(f"  bisection          {fmt(report.bisection_norm, digits)}"
                 f"  (delta {fmt(report.bisection_norm - report.worst_norm, 3)})")
    return "\n".join(lines) + "\n"


def _write_output(path: str | None, payload: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)


def _guard(fn):
    """Map library errors onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (IntervalHinfError, ValueError) as exc:
            code = getattr(exc, "exit_code", 2)
            click.echo(f"{_PREFIX[code]}: {exc}", err=True)
            sys.exit(code)

    return wrapper


@click.group()
def main():
    """Worst-case H-infinity sensitivity analysis of interval feedback systems."""


@main.command("vertices")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt_", type=click.Choice(["text", "machine"]), default="text")
@click.option("--output", type=click.Path(), default=None)
@_DIGITS
@_guard
def cmd_vertices(file, fmt_, output, digits):
    """Print the four Kharitonov vertex polynomials of each family."""
    prob = load_problem(file)
    names = {"denominator": prob.kf, "numerator": prob.kg}
    machine = {group: dict(zip(VERTEX_LABELS, vertex_rows(fam).tolist()))
               for group, fam in names.items()}
    if fmt_ == "machine":
        click.echo(json.dumps(machine, sort_keys=True))
    else:
        prefix = {"denominator": "f", "numerator": "g"}
        for group, fam in names.items():
            click.echo(f"{group} family (degree {fam.degree}):")
            for label, coeffs in machine[group].items():
                click.echo(f"  {prefix[group]}{label}: {format_polynomial(coeffs, digits)}")
    _write_output(output, json.dumps(machine, sort_keys=True) + "\n")


@main.command("analyze")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt_", type=click.Choice(["text", "machine"]), default="text")
@click.option("--output", type=click.Path(), default=None)
@click.option("--seed", type=_COUNT, default=None)
@click.option("--samples", type=_COUNT, default=None)
@click.option("--theta-points", type=click.IntRange(min=1), default=None)
@click.option("--tol", type=float, default=None, callback=_finite_positive_flag)
@_DIGITS
@_guard
def cmd_analyze(file, fmt_, output, seed, samples, theta_points, tol, digits):
    """Run the full worst-case analysis and report all cross-checks."""
    prob = _apply_flags(load_problem(file), seed=seed, oracle_samples=samples,
                        theta_points=theta_points, bisection_tol=tol)
    report = analyze(prob)
    doc = json.dumps(report_to_dict(report), sort_keys=True)
    click.echo(doc if fmt_ == "machine" else render_report(report, digits), nl=False)
    if fmt_ == "machine":
        click.echo()
    _write_output(output, doc + "\n")
    if not report.family_stable:
        sys.exit(UnstableFamilyError.exit_code)


def _parse_coeffs(text: str, name: str) -> RealPolynomial:
    try:
        return RealPolynomial(float(v) for v in text.split(","))
    except ValueError:
        raise ProblemFileError(f"--{name}: expected comma-separated numbers") from None


@main.command("norm")
@click.argument("file", type=click.Path(exists=True, dir_okay=False), required=False)
@click.option("--num", type=str, default=None,
              help="Rational-function numerator coefficients, ascending.")
@click.option("--den", type=str, default=None,
              help="Rational-function denominator coefficients, ascending.")
@_DIGITS
@_guard
def cmd_norm(file, num, den, digits):
    """H-infinity norm of one plant's sensitivity, or of num/den directly."""
    if file is not None and (num or den):
        raise ProblemFileError("give either a problem file or --num/--den, not both")
    if file is not None:
        prob = load_problem(file)
        if not (prob.kg.is_point and prob.kf.is_point):
            raise ProblemFileError(
                "norm needs point intervals; use analyze for interval families"
            )
        rf = sensitivity(RealPolynomial(prob.kg.lower), RealPolynomial(prob.kf.lower))
        opts = prob.options
    elif num and den:
        rf = RationalFunction(num=_parse_coeffs(num, "num"), den=_parse_coeffs(den, "den"))
        opts = AnalysisOptions()
    else:
        raise ProblemFileError("norm needs a problem file or both --num and --den")
    res = hinf_norm_exact(rf)
    grid = hinf_norm_grid(rf, opts.omega_max, opts.grid_points)
    where = ("attained at infinity" if math.isinf(res.attained_at)
             else f"attained near omega {fmt(res.attained_at, digits)}")
    click.echo(f"exact: {fmt(res.value, digits)}  {where}")
    click.echo(f"grid:  {fmt(grid, digits)}  ({opts.grid_points} points up to "
               f"omega {fmt(opts.omega_max, digits)})")


def _parse_sweep(spec: str) -> tuple[float, int]:
    try:
        max_part, points_part = spec.split(":")
        omega_max, points = float(max_part), int(points_part)
    except ValueError:
        raise ProblemFileError("--sweep: expected MAX:POINTS, e.g. 100:500") from None
    if not (math.isfinite(omega_max) and omega_max > 0) or points < 2:
        raise ProblemFileError("--sweep: MAX must be finite and positive, and POINTS >= 2")
    return omega_max, points


@main.command("valueset")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--delta", type=float, required=True)
@click.option("--theta", type=float, default=0.0)
@click.option("--omega", type=float, default=None)
@click.option("--sweep", type=str, default=None, metavar="MAX:POINTS")
@click.option("--output", type=click.Path(), default=None)
@_DIGITS
@_guard
def cmd_valueset(file, delta, theta, omega, sweep, output, digits):
    """CSV of value-set polygon vertices, single frequency or a sweep."""
    if (omega is None) == (sweep is None):
        raise ProblemFileError("valueset needs exactly one of --omega and --sweep")
    prob = load_problem(file)
    header = ["omega", "vertex_index", "re", "im", "provenance"]
    if sweep is not None:
        omega_max, points = _parse_sweep(sweep)
        header.append("margin")
        polygons = [(poly, [fmt(check.margin, digits)]) for poly, check in
                    sweep_octagons(prob.kg, prob.kf, delta, theta, omega_max, points)]
    else:
        polygons = [(octagon(prob.kg, prob.kf, delta, theta, omega), [])]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for poly, extra in polygons:
        for k, (pt, tup) in enumerate(poly.vertices):
            writer.writerow([fmt(poly.omega, digits), k, fmt(pt.real, digits),
                             fmt(pt.imag, digits), tup.label, *extra])
    click.echo(buf.getvalue(), nl=False)
    _write_output(output, buf.getvalue())


@main.command("oracle")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--samples", type=_COUNT, default=None)
@click.option("--seed", type=_COUNT, default=None)
@_DIGITS
@_guard
def cmd_oracle(file, samples, seed, digits):
    """Monte-Carlo box sampling compared against the certified vertex maximum."""
    prob = _apply_flags(load_problem(file), seed=seed, oracle_samples=samples)
    certified = max_sensitivity_twelve(prob)
    oracle = monte_carlo_oracle(prob)
    delta = oracle.oracle_max - certified.worst_norm
    click.echo(f"certified twelve-vertex max: {fmt(certified.worst_norm, digits)}")
    click.echo(f"oracle max: {fmt(oracle.oracle_max, digits)}  "
               f"(delta {fmt(delta, 3)})")
    click.echo(f"samples: {oracle.samples}, skipped: {oracle.skipped}, "
               f"seed: {oracle.seed}")
    click.echo("argmax numerator coefficients: "
               + "[" + ", ".join(fmt(c, digits) for c in oracle.argmax_g) + "]")
    click.echo("argmax denominator coefficients: "
               + "[" + ", ".join(fmt(c, digits) for c in oracle.argmax_f) + "]")


if __name__ == "__main__":
    main()
