"""Exception types shared across the package, and one range check."""


class WavelabError(Exception):
    """Base class for all package errors."""


class InvalidMediumError(WavelabError):
    """Medium parameters violate positivity/definiteness requirements."""


class DegenerateBranchError(WavelabError):
    """A dispersion branch is repeated at the requested wave vector."""


class NumericalFailureError(WavelabError):
    """An iterative or algebraic solve failed to converge."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class ConfigurationError(WavelabError, ValueError):
    """A scenario file or override violates the configuration schema."""


def require(key, value, lo, hi, ends="[]"):
    """Raise ConfigurationError naming the scenario ``key`` unless ``value``
    lies from ``lo`` to ``hi``, each end closed or open as ``ends`` says: "[]",
    "(]", "[)" or "()".  NaN lies in no interval."""
    if not ((lo < value if ends[0] == "(" else lo <= value)
            and (value < hi if ends[1] == ")" else value <= hi)):
        raise ConfigurationError(
            f"{key}: must lie in {ends[0]}{lo}, {hi}{ends[1]}, got {value}")


class UnstableRunError(WavelabError):
    """Non-finite values appeared during time stepping.

    Carries the blow-up time and the partial run record so that growth
    histories remain observable.
    """

    def __init__(self, message, time=None, record=None):
        super().__init__(message)
        self.time = time
        self.record = record
