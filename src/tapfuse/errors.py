"""Exception hierarchy shared across the library.

Config/parse problems raise subclasses of DataError; broken caller
contracts raise subclasses of ContractError. The CLI maps these onto
distinct exit codes.
"""


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


class MissingForwardCache(ContractError):
    pass


class TimeRegression(ContractError):
    pass


# -- tracker ----------------------------------------------------------------

class QueryOutOfRange(ContractError):
    pass


# -- metrics ----------------------------------------------------------------

class GridMismatch(ContractError):
    pass


class ZeroTotalSpeed(ContractError):
    pass
