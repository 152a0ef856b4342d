"""Exception types shared across the package, and the integer, schedule and
abscissa validators."""

import math
import numbers


class TrigconvError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(TrigconvError, ValueError):
    """An argument lies outside the domain an operation supports."""


class QuadratureError(TrigconvError, RuntimeError):
    """Adaptive quadrature exhausted its budget before reaching tolerance."""


class SpecSyntaxError(TrigconvError, ValueError):
    """A function-spec document is structurally malformed."""


class CoverageError(TrigconvError, ValueError):
    """Segments of a function spec do not tile [-pi, pi] exactly."""


class UnboundedError(TrigconvError, ValueError):
    """A segment is non-finite on its interval, or has no usable integral."""


class MonotonicityError(TrigconvError, ValueError):
    """A segment contradicts its declared or required monotone direction."""


def check_integer(value, name, lo, hi=math.inf):
    """Return ``value`` as an ``int`` after checking it is one in ``[lo, hi]``.

    Python and numpy integers are accepted; ``bool`` and floats, even
    integral ones, are refused with a :class:`DomainError` naming ``name``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if not lo <= value <= hi:
        raise DomainError(f"{name} must lie in [{lo}, {hi}], got {value}")
    return value


def check_schedule(values, name):
    """Return ``values`` as a tuple after checking it is non-empty and
    strictly increasing; a :class:`DomainError` names the ``name`` schedule.
    """
    values = tuple(values)
    if len(values) == 0:
        raise DomainError(f"the {name} must be non-empty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise DomainError(f"the {name} must be strictly increasing")
    return values


def check_abscissa(x):
    """Return ``x`` as a float after checking it lies in [-pi, pi]; NaN and
    infinities are refused with the same :class:`DomainError`."""
    x = float(x)
    if not -math.pi <= x <= math.pi:
        raise DomainError(f"x must lie in [-pi, pi], got {x!r}")
    return x
