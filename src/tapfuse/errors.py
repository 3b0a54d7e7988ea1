"""Exception hierarchy shared across the library, and the Domain rule.

Config/parse problems raise subclasses of DataError; broken caller
contracts raise subclasses of ContractError. The CLI maps these onto
distinct exit codes.
"""

import math
import numbers
import operator
from dataclasses import dataclass


class TapfuseError(Exception):
    """Base class for all library errors."""


class DataError(TapfuseError):
    """Malformed or inconsistent input data."""


class ContractError(TapfuseError):
    """A caller violated an operation precondition."""


class ConfigError(TapfuseError):
    """Bad configuration file or unknown key."""


# -- event stream I/O and binning ------------------------------------------

class MalformedRecord(DataError):
    pass


class GeometryViolation(DataError):
    pass


class NonMonotonicHeader(DataError):
    pass


class EmptyTimeline(ContractError):
    pass


# -- representations --------------------------------------------------------

class GeometryMismatch(ContractError):
    pass


# -- scene synthesis --------------------------------------------------------

class DegenerateScene(ContractError):
    pass


class NonPositiveIntensity(DataError):
    pass


class EmptyWindow(ContractError):
    pass


# -- fusion network ---------------------------------------------------------

class ShapeMismatch(ContractError):
    pass


class TimeRegression(ContractError):
    pass


class NonFiniteValue(ContractError):
    """An operation overflowed, divided by zero or made a NaN."""


# -- tracker ----------------------------------------------------------------

class QueryOutOfRange(ContractError):
    pass


# -- metrics ----------------------------------------------------------------

class GridMismatch(ContractError):
    pass


class ZeroTotalSpeed(ContractError):
    pass


# -- the value rule -----------------------------------------------------------

@dataclass(frozen=True)
class Domain:
    """lo <= value <= hi (lo < value when above) for a finite real number,
    or for an integer when integer is set; there a float, even a whole one,
    is outside. A NaN, an infinity and a non-number are outside."""

    lo: float
    hi: float = math.inf
    above: bool = False
    integer: bool = False

    def _number(self, value):
        """value as it is compared, an integer (numpy ones too) as an int,
        or None when it is not of the domain's kind."""
        try:
            return operator.index(value)
        except TypeError:
            finite = isinstance(value, numbers.Real) and math.isfinite(value)
            return value if finite and not self.integer else None

    def __contains__(self, value) -> bool:
        number = self._number(value)
        return number is not None and number <= self.hi and (
            number > self.lo if self.above else number >= self.lo)

    def check(self, name: str, value, error: type[TapfuseError]):
        """value as it is compared, or raise error naming it."""
        if value not in self:
            raise error(f"{name} = {value!r} is outside its domain {self}")
        return self._number(value)

    def __str__(self) -> str:
        lo, hi = (f"{b:g}" if isinstance(b, float) else str(b)
                  for b in (self.lo, self.hi))
        if self.hi < math.inf:
            return f"> {lo} and <= {hi}" if self.above else f"{lo}..{hi}"
        return f"{'>' if self.above else '>='} {lo}"


FINITE = Domain(-math.inf)  # every finite real number
