"""Exception taxonomy shared across the toolkit; each family carries its exit code.

Data that parses but breaks a documented rule (ValidationError, exit 1),
operation misuse such as a window larger than the trace or a bool where an
integer belongs (UsageError, exit 2, also a ValueError), and files that cannot
be decoded into the expected shape at all, such as a JSON field of the wrong
type (FormatError, exit 3). Any other exception, a bare StagemixError
included, is a toolkit bug (exit 70). `fields` holds the one rule for integers
and numbers; its callers pick the family.
"""


class StagemixError(Exception):
    """Base class for toolkit-specific errors; one outside the families below is a toolkit bug."""

    exit_code = 70


class ValidationError(StagemixError):
    """Well-formed input that violates a documented invariant."""

    exit_code = 1


class UsageError(StagemixError, ValueError):
    """An operation called with arguments it does not accept."""

    exit_code = 2


class InvalidScheduleError(ValidationError):
    """A schedule condition failed validation; carries the violation list."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))


class TraceError(ValidationError):
    """A loss trace violates its ordering or range invariants."""


class EvalDataError(ValidationError):
    """An eval snapshot or score violates its range/precision invariants."""


class FormatError(StagemixError):
    """A file could not be parsed into the documented format."""

    exit_code = 3
