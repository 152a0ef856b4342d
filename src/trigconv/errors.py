"""The package's exception types, the domains of its arguments and every
argument validator.

Each public function refuses an argument outside its domain with a
:class:`TrigconvError` before any work starts.  The validators here name
the argument in the message and return it converted: :func:`check_integer`
for orders and term counts, :func:`check_real` and :func:`check_finite` for
real scalars and arrays, :func:`check_points` for sequences of points,
whose entries outside a range callers ignore, :func:`check_abscissa` for
points of ``[-pi, pi]`` and :func:`check_schedule` for refinement
schedules.  Every array argument, and every value an integrand returns to
the quadrature engine, is converted once, by :func:`as_floats`, which
refuses complex arrays.
Function specs are checked by :mod:`trigconv.piecewise`, which raises
:class:`SpecSyntaxError` and its siblings instead.
"""

import math
import numbers

import numpy as np

# the largest order (of the kernel, a partial sum, a coefficient table or
# the alternating tail) and sine-block frequency admitted
MAX_ORDER = 10**6

# interval ends written by name in messages
_NAMED_ENDS = {math.pi: "pi", -math.pi: "-pi", math.pi / 2: "pi/2"}


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


def check_real(value, name, lo=-math.inf, hi=math.inf, *, open_lo=False, open_hi=False):
    """Return ``float(value)`` after checking it is finite and lies between
    ``lo`` and ``hi``, each end closed unless ``open_lo``/``open_hi``.

    What ``float()`` refuses, NaN, infinities and values out of range are
    refused with a :class:`DomainError` whose message starts with ``name``.
    """
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be a number, got {value!r}") from None
    if math.isfinite(x) and (lo < x if open_lo else lo <= x) and (x < hi if open_hi else x <= hi):
        return x
    if lo == -math.inf and hi == math.inf:
        raise DomainError(f"{name} must be finite, got {x!r}")
    interval = (f"{'(' if open_lo or lo == -math.inf else '['}{_NAMED_ENDS.get(lo, lo)}, "
                f"{_NAMED_ENDS.get(hi, hi)}{')' if open_hi or hi == math.inf else ']'}")
    verb = "be finite and lie" if lo == -math.inf or hi == math.inf else "lie"
    raise DomainError(f"{name} must {verb} in {interval}, got {x!r}")


def as_floats(values, name):
    """Return ``values`` as a float64 array; what ``np.asarray`` refuses
    (``None``, a string that is no number, a ragged nesting) and a complex
    numpy array or scalar, which it would cast by dropping the imaginary
    part, are refused with a :class:`DomainError` whose message starts with
    ``name``.  The one conversion of every array argument and of every
    integrand's values."""
    if isinstance(values, (np.ndarray, np.generic)) and values.dtype.kind == "c":
        raise DomainError(f"{name} must hold real numbers, got {values.dtype}")
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name} must hold numbers: {exc}") from None


def check_finite(values, name):
    """Return ``values`` as a float64 array (see :func:`as_floats`) after
    checking every entry is finite; non-finite entries are refused with a
    :class:`DomainError` whose message starts with ``name``."""
    arr = as_floats(values, name)
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} must be finite, got {float(arr[~np.isfinite(arr)][0])!r}")
    return arr


def check_points(values, name):
    """Return a sequence of points, such as the breakpoints of an integral,
    as a 1-D float64 array (see :func:`as_floats`); one that is not 1-D, or
    holds a NaN, is refused with a :class:`DomainError` whose message starts
    with ``name``.  Infinities pass: callers ignore the points outside
    their range, finite or not."""
    arr = as_floats(values, name)
    if arr.ndim != 1:
        raise DomainError(f"{name} must be a 1-D sequence of numbers, got shape {arr.shape}")
    if np.isnan(arr).any():
        raise DomainError(f"{name} must not hold NaN or None")
    return arr


def check_abscissa(x):
    """Return ``x`` as a float after checking it lies in [-pi, pi]."""
    return check_real(x, "x", -math.pi, math.pi)
