"""Exception types shared across the toolkit, and the finite-value check that raises them."""

import math


class PlatoonKitError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(PlatoonKitError):
    """Invalid scenario or configuration input; message names the offending key."""


class InvalidInputError(PlatoonKitError, ValueError):
    """Non-finite or out-of-domain numeric input."""


class NumericalError(PlatoonKitError):
    """Base class for failures of numerical routines."""


class StationaryDistributionError(NumericalError):
    """Gilbert chain has no unique stationary distribution (P + Q = 0)."""


class UnstableLoopError(NumericalError):
    """A transfer function or error system required to be stable is not."""


class PoleOnAxisError(NumericalError):
    """Frequency response requested at a pole on the imaginary axis."""


class NonHurwitzError(NumericalError):
    """Lyapunov equation has no unique PSD solution because A is not Hurwitz."""


def require_finite(obj, names, error: type[PlatoonKitError]) -> None:
    """Raise error naming the first attribute of obj in names that is nan or infinite."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise error(f"{name} must be finite, got {value}")
