"""Exception hierarchy shared by all solvers."""
from __future__ import annotations

import math
import sys


class SearchContestError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(SearchContestError, ValueError):
    """A constructor or operation received an out-of-domain parameter."""


class NotViableError(SearchContestError):
    """Search costs exceed what the prize money can support."""


class NoSearchIncentiveError(SearchContestError):
    """Prize spread is zero: no player has a reason to search selectively."""


class NoAsymmetricEquilibriumError(SearchContestError):
    """Requested an asymmetric equilibrium where none exists (two players)."""


class DivergentObjectiveError(SearchContestError):
    """Welfare objective has no finite value (diverging expected maximum)."""


class NumericFailureError(SearchContestError):
    """A solver failed to converge. Carries diagnostics for post-mortems."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def require_int(name: str, value, lo: int) -> int:
    """Return value as an int; raise InvalidParameterError unless it is an
    integer >= lo. Records store the int, so 3.0 serves wherever 3 does."""
    try:
        ok = int(value) == value and value >= lo
    except (TypeError, ValueError, OverflowError):  # int(nan), int(inf), int("x")
        ok = False
    if not ok:
        raise InvalidParameterError(f"{name} must be an integer >= {lo}, got {value}")
    return int(value)


def require_count(name: str, value, lo: int) -> int:
    """require_int for a count of players, designers or draws, which the
    solvers compute with as floats: a count past the largest float is refused."""
    count = require_int(name, value, lo)
    if count > sys.float_info.max:  # an exact comparison, where float(count) would raise
        raise InvalidParameterError(f"{name} must be an integer >= {lo} that a float can hold")
    return count


def require_positive(name: str, value, zero_ok: bool = False) -> None:
    """Raise InvalidParameterError unless value is finite and > 0 (>= 0 with
    zero_ok). NaN fails both comparisons, so it is rejected."""
    try:
        ok = math.isfinite(value) and (value > 0 or (zero_ok and value == 0))
    except TypeError:
        ok = False
    if not ok:
        kind = "nonnegative" if zero_ok else "positive"
        raise InvalidParameterError(f"{name} must be finite and {kind}, got {value}")


def require_real(name: str, value) -> None:
    """Raise InvalidParameterError unless value is a real number other than
    NaN; the infinities pass."""
    try:
        ok = not math.isnan(value)
    except TypeError:  # a string, None, a complex number
        ok = False
    if not ok:
        raise InvalidParameterError(f"{name} must be a real number, got {value!r}")


def _as_tuple(name: str, values) -> tuple:
    """values as a tuple; InvalidParameterError if they are not iterable (a bare number)."""
    try:
        return tuple(values)
    except TypeError:
        raise InvalidParameterError(f"{name} must be a sequence, got {values!r}") from None
