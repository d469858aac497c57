"""The rule for what counts as an integer, a number or a name in any input.

An integer is an int or a numpy integer, never a bool, in [low, high): int64
unless the check says otherwise (manifest seeds lie in [0, 2**64), simulation
seeds are any non-negative integer). A number is an integer or a float (numpy
ones too), never a bool, whose float() does not overflow; with `non_negative`
it is also finite and >= 0. A name is a str, non-empty with `empty=False`.
`check` returns the plain Python value or raises the error class its caller
picks (UsageError by default); `problem` gives the message; `read` checks a
JSON object's fields. `check_budget` refuses a count of steps whose arrays
cannot fit in the machine's memory, before anything is allocated for it.
"""

import os

import numpy as np

from .errors import FormatError, UsageError

INT64 = (-(2**63), 2**63)

# The JSON value types that a whole column of each kind may hold.
JSON_TYPES = {int: {int}, float: {int, float}, str: {str}}
NOUNS = {int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object"}
_LOW_NOUNS = {0: "a non-negative integer", 1: "a positive integer"}


def is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_number(value) -> bool:
    if not (is_integer(value) or isinstance(value, (float, np.floating))):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _noun(value, kind, low=INT64[0], high=INT64[1], non_negative=False, empty=True):
    """What `value` must be and is not, or None; kind is int, float, str, list or dict."""
    if kind is int:
        noun = _LOW_NOUNS.get(low, NOUNS[int])
        if not is_integer(value):
            return noun
        if low <= int(value) and (high is None or int(value) < high):
            return None
        if int(value) < low and low != INT64[0]:  # below the bound that the noun names
            return noun
        return noun + (" that fits int64" if high == INT64[1] else f" below 2**{high.bit_length() - 1}")
    if kind is float:
        ok = is_number(value) and (not non_negative or 0 <= value < float("inf"))
        return None if ok else "a finite non-negative number" if non_negative else NOUNS[float]
    if isinstance(value, kind) and (empty or value):
        return None
    return NOUNS[kind] if empty else "a non-empty " + NOUNS[kind].split()[-1]


def problem(value, what: str, kind=int, **bounds) -> str | None:
    """Why `value` breaks the rule for `kind`, or None."""
    noun = _noun(value, kind, **bounds)
    if noun is None:
        return None
    shown = repr(value)
    return f"{what} must be {noun}, got {shown if len(shown) <= 40 else shown[:37] + '...'}"


def check(value, what: str, kind=int, error=UsageError, **bounds):
    """`value` as a plain `kind`, or `error` with the message of `problem`."""
    message = problem(value, what, kind, **bounds)
    if message is not None:
        raise error(message)
    return kind(value)


def read(obj, where: str, kinds: dict, **defaults) -> dict:
    """Each field of a JSON object checked as its kind; keys with a default may be absent.
    FormatErrors name `where` and the key, or every required key when one is missing."""
    check(obj, where, dict, FormatError)
    required = [key for key in kinds if key not in defaults]
    if any(key not in obj for key in required):
        raise FormatError(f"{where} needs {'/'.join(required)}")
    return {
        key: check(obj[key], f"{where} {key}", kind, FormatError) if key in obj else defaults[key]
        for key, kind in kinds.items()
    }


def check_budget(count: int, bytes_each: int, what: str) -> None:
    """A UsageError naming the budget when `count` items of `bytes_each` bytes need more than the
    machine's physical memory, as os.sysconf reports it (no check where it reports none)."""
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return
    if count * bytes_each > memory:
        need, have = count * bytes_each / 2**30, memory / 2**30
        raise UsageError(f"{count} {what} need about {need:.1f} GiB of memory, more than this machine's {have:.1f} GiB")
