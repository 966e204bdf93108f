"""Exception types shared across the analysis pipeline.

Each class carries the CLI's process exit code: input problems exit 2,
instability verdicts exit 3, numerical failures exit 4.
"""


class IntervalHinfError(Exception):
    """Base class for all library errors.

    `row` is set when a batched call names the input row that failed; the
    error it was raised from, for that row alone, is its __cause__.
    """

    exit_code = 4
    row: int | None = None


def at_row(k: int, err: IntervalHinfError) -> IntervalHinfError:
    """err, raised by input row k alone, as a batched call raises it: "row k: err", with `row`
    set to k and err as its cause."""
    located = type(err)(f"row {k}: {err}")
    located.row, located.__cause__ = k, err
    return located


def renamed(err: IntervalHinfError, where: str = "") -> IntervalHinfError:
    """An at_row error as the batch's caller raises it: its row's own error renamed "where:
    cause" (just the cause's text if where is empty), with that error as its cause."""
    located = type(err)(f"{where}: {err.__cause__}" if where else str(err.__cause__))
    located.__cause__ = err.__cause__
    return located


class DegreeOrderError(IntervalHinfError):
    """Numerator/plant degree does not sit strictly below the denominator degree."""

    exit_code = 2


class ZeroPolynomialError(IntervalHinfError):
    """An operation received the zero polynomial where a nonzero one is required."""


class DegenerateLeadingError(IntervalHinfError):
    """Leading coefficient too small relative to the rest to define the degree."""


class NoConvergenceError(IntervalHinfError):
    """Roots with an unacceptable residual, or an eigenvalue solve that did not converge."""


class UnstableClosedLoopError(IntervalHinfError):
    """f + g is not Hurwitz, so the sensitivity function is undefined."""

    exit_code = 3


class UnstableDenominatorError(IntervalHinfError):
    """H-infinity norm requested for a rational function with unstable denominator."""

    exit_code = 3


class DeltaRangeError(IntervalHinfError):
    """delta outside (0, 1), or equivalently gamma outside (1, inf)."""

    exit_code = 2


class HullMismatchError(IntervalHinfError):
    """A perturbed vertex value lies outside the polygon of the eight predicted vertex tuples."""


class NoUpperBracketError(IntervalHinfError):
    """Bisection could not bracket the family norm below the gamma cap."""


class UnstableFamilyError(IntervalHinfError):
    """The closed-loop interval family is not robustly stable."""

    exit_code = 3


class ProblemFileError(IntervalHinfError):
    """A problem file failed to parse or validate; carries a field-path diagnostic."""

    exit_code = 2
