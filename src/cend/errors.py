"""Exceptions and the check result shared across the package.

Every domain failure raises one of these exceptions; the CLI maps them to
exit code 1 with a JSON error object on stderr, while malformed input
surfaces as exit code 2 before any of them is reached.  A bounded identity
check that runs to the end returns a :class:`CheckResult` instead.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a bounded identity check: the number of cases evaluated
    and one description per failed case, such as ``"skew at n=0"``."""

    cases: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


class CendError(Exception):
    """Base class for all domain errors."""

    tag = "Error"

    def payload(self) -> dict:
        return {"error": self.tag, "message": str(self)}


class DimensionMismatchError(CendError):
    tag = "DimensionMismatch"


class NotUnimodularError(CendError):
    tag = "NotUnimodular"


class SingularMatrixError(CendError):
    tag = "SingularMatrix"


class NotDifferentialError(CendError):
    tag = "NotDifferential"


class InsufficientSamplesError(CendError):
    tag = "InsufficientSamples"


class NotClosedError(CendError):
    tag = "NotClosed"


class BoundTooSmallError(CendError):
    tag = "BoundTooSmall"


class InvariantError(CendError):
    """An internal invariant failed: a bug, never a property of the input."""

    tag = "InvariantViolated"
