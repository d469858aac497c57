"""Exception taxonomy shared across the toolkit.

Three families, matching the CLI exit codes: data that parses but breaks a
documented rule (ValidationError, exit 1), operation misuse such as a window
larger than the trace or a bool where an integer belongs (plain ValueError,
exit 2), and files that cannot be decoded into the expected shape at all,
such as a JSON field of the wrong type (FormatError, exit 3). `fields` holds
the one rule for integers and numbers; its callers pick the family.
"""


class StagemixError(Exception):
    """Base class for toolkit-specific errors."""


class ValidationError(StagemixError):
    """Well-formed input that violates a documented invariant."""


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
