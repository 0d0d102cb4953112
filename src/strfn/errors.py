"""Exception types shared across the toolkit."""

from __future__ import annotations


class StrfnError(Exception):
    """Base class for all toolkit errors."""


class AlphabetError(StrfnError):
    """A string contains letters outside the ambient alphabet, or the
    alphabet itself is malformed."""


class OutOfDomainError(StrfnError):
    """An evaluation was requested beyond a function's length bound."""


class MissingEntryError(StrfnError):
    """A table or quasi-inverse has no entry for the requested key."""


class MalformedSpecError(StrfnError, ValueError):
    """An input value from a spec file, a command-line value or an API
    argument does not fit: the layer that uses it raises this."""


class PreconditionError(StrfnError):
    """An operation's stated precondition does not hold.

    Carries the offending check reports (when available) in ``reports``.
    """

    def __init__(self, message: str, reports: dict | None = None):
        super().__init__(message)
        self.reports = reports or {}


class ConditionsFailedError(StrfnError):
    """Extension was requested from partial data that fails the
    necessary-and-sufficient conditions.  ``reports`` maps condition
    labels to their check reports."""

    def __init__(self, message: str, reports: dict):
        super().__init__(message)
        self.reports = reports

    def __reduce__(self) -> tuple:
        # Pickle rebuilds an exception from ``args``, which lacks ``reports``.
        return type(self), (self.args[0], self.reports)


class NotApplicableError(StrfnError):
    """The operation does not apply to the given function (for example,
    searching for an absorbed string in a standard function)."""


class UnevaluableError(StrfnError):
    """A length-profile table maps some index beyond its own horizon, so
    the required composition cannot be evaluated."""


class InsufficientHorizonError(StrfnError):
    """The table's horizon is too short to confirm or refute the
    classification (needs at least ``n1 + 2*ell`` entries past zero)."""

    def __init__(self, n1: int, ell: int, horizon: int):
        super().__init__(
            f"horizon {horizon} too small for threshold {n1} and period "
            f"{ell}: need horizon >= {n1 + 2 * ell}"
        )
        self.n1 = n1
        self.ell = ell
        self.horizon = horizon

    def __reduce__(self) -> tuple:
        return type(self), (self.n1, self.ell, self.horizon)


class QuasiInverseError(StrfnError):
    """A supplied quasi-inverse is unusable: an entry is missing or the
    recursion it drives escapes the available arities."""


class WitnessError(StrfnError):
    """A supplied periodicity witness does not verify against the table."""


class WorkerError(StrfnError):
    """A worker process of a parallel map ended without sending its
    outcome, or could not send it."""
