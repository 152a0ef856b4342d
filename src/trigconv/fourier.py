"""Trigonometric series of piecewise-monotone functions on [-pi, pi].

Partial sums can be formed two independent ways — from tabulated
coefficients, or as a single kernel-weighted integral — and the package
keeps both because their agreement is a strong end-to-end check of the
quadrature, the kernel, and the coefficient pipeline at once.  At a jump
the series converges to the midpoint of the one-sided limits; at the
interval endpoints it converges to the mean of ``f(pi-)`` and ``f(-pi+)``,
the value forced by periodic extension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, check_abscissa, check_integer, check_schedule
from .kernel import _MAX_ORDER, dirichlet_kernel
from .oscillatory import ConvergenceReport
from .piecewise import PiecewiseFunction
from .quadrature import integrate, integrate_harmonics

PI = math.pi


@dataclass(frozen=True)
class FourierCoefficients:
    """Tabulated series coefficients.

    ``a[k-1]``/``b[k-1]`` hold the cosine/sine coefficients of harmonic
    ``k`` for ``k = 1 .. n_max``; ``a0`` is the mean term.  ``tol`` records
    the quadrature tolerance they were computed at.  ``error[k]``, for
    ``k = 0 .. n_max``, is the estimated absolute error of harmonic ``k``'s
    coefficients (of ``a0`` for ``k = 0``), or ``None`` when not known.
    """
    a0: float
    a: np.ndarray
    b: np.ndarray
    tol: float
    error: Optional[np.ndarray] = None

    @property
    def n_max(self):
        return len(self.a)


def _check_function(f):
    if not isinstance(f, PiecewiseFunction):
        raise DomainError(f"expected a PiecewiseFunction, got {type(f)!r}")
    return f


def _wrap_abscissa(x):
    """Validate x in [-pi, pi] and fold ``-pi`` onto ``pi``.

    The fold makes the two endpoint evaluations of any partial sum agree
    bitwise, which is the finite-sum image of periodicity.
    """
    x = check_abscissa(x)
    return PI if x == -PI else x


def coefficients(f, n_max, tol=1e-10):
    """Tabulate series coefficients of ``f`` up to harmonic ``n_max``.

    Every harmonic ``k = 0 .. n_max`` comes from one adaptive pass of
    :func:`~trigconv.quadrature.integrate_harmonics`: a single mesh split
    at the function's breakpoints, seeded with panels no wider than half
    the period of harmonic ``n_max``, on which ``f`` is evaluated once per
    node.  Each harmonic's cosine and sine integrals over each seeded
    interval meet the same ``max(tol * |value|, tol)`` budget as a
    separate adaptive integral would.  An ``n_max`` above the largest
    order ``10**6``, or whose seeded mesh exceeds the panel cap, is refused
    before ``f`` is evaluated.
    """
    f = _check_function(f)
    n_max = check_integer(n_max, "n_max", 1, _MAX_ORDER)
    cos_int, sin_int, errors = integrate_harmonics(f.eval, -PI, PI, n_max, tol,
                                                   breakpoints=f.breakpoints)
    error = errors / PI
    error[0] /= 2.0
    return FourierCoefficients(a0=float(cos_int[0] / (2.0 * PI)), a=cos_int[1:] / PI,
                               b=sin_int[1:] / PI, tol=float(tol), error=error)


def partial_sum(c, x, n):
    """Order-``n`` partial sum at ``x`` from tabulated coefficients."""
    if not isinstance(c, FourierCoefficients):
        raise DomainError(f"expected FourierCoefficients, got {type(c)!r}")
    n = check_integer(n, "n", 0, c.n_max)
    x = _wrap_abscissa(x)
    k = np.arange(1, n + 1)
    return float(c.a0 + c.a[:n] @ np.cos(k * x) + c.b[:n] @ np.sin(k * x))


def partial_sum_kernel(f, x, n, tol=1e-9):
    """Order-``n`` partial sum at ``x`` as one kernel-weighted integral.

    Independent of :func:`coefficients`: the value is
    ``(1/pi) * integral of f(alpha) * D_n(alpha - x)`` over a period, where
    ``D_n`` is the closed-form summation kernel.
    """
    f = _check_function(f)
    n = check_integer(n, "n", 0, _MAX_ORDER)
    x = _wrap_abscissa(x)
    breaks = sorted(set(f.breakpoints) | ({x} if -PI < x < PI else set()))
    value = integrate(lambda alpha: f.eval(alpha) * dirichlet_kernel(n, alpha - x),
                      -PI, PI, tol, breakpoints=breaks,
                      max_panel_width=PI / (n + 1))
    return value / PI


def beta_split_points(f, x, side):
    """Panel seeds for the half-range integrals of :func:`split_integrals`.

    Maps every interior jump or extremum of ``f`` into the ``beta``
    variable of the requested side (``alpha = x - 2 beta`` below ``x``,
    ``alpha = x + 2 beta`` above), keeps those strictly inside the range,
    and adds ``pi/2`` when the range extends past it (where the weight's
    denominator ``sin(beta)`` peaks).
    """
    f = _check_function(f)
    if side not in ("lower", "upper"):
        raise DomainError(f"side must be 'lower' or 'upper', got {side!r}")
    x = check_abscissa(x)
    length = (PI + x) / 2.0 if side == "lower" else (PI - x) / 2.0
    features = f.extrema_and_jumps()
    if side == "lower":
        mapped = [(x - p) / 2.0 for p in features]
    else:
        mapped = [(p - x) / 2.0 for p in features]
    points = {b for b in mapped if 0.0 < b < length}
    if length > PI / 2.0:
        points.add(PI / 2.0)
    return sorted(points)


def split_integrals(f, x, n, tol=1e-9):
    """The two half-range integrals whose sum over ``pi`` is the partial sum.

    ``lower`` integrates ``2 f(x - 2 beta) D_n(2 beta)`` for ``beta`` in
    ``[0, (pi + x)/2]`` (the part of the period below ``x``); ``upper``
    does the same above ``x``.  At ``x = -pi`` / ``x = pi`` the respective
    integral is empty and exactly ``0.0``.
    """
    f = _check_function(f)
    n = check_integer(n, "n", 0, _MAX_ORDER)
    x = check_abscissa(x)

    def one_side(side):
        length = (PI + x) / 2.0 if side == "lower" else (PI - x) / 2.0
        if length <= 0.0:
            return 0.0
        sign = -2.0 if side == "lower" else 2.0

        def integrand(beta):
            alpha = np.clip(x + sign * beta, -PI, PI)
            return 2.0 * f.eval(alpha) * dirichlet_kernel(n, 2.0 * beta)

        # seed panels at every mapped non-smooth point of f, not only the
        # jump/extremum features that beta_split_points reports
        seeds = set(beta_split_points(f, x, side))
        seeds.update(b for b in ((p - x) / sign for p in f.breakpoints)
                     if 0.0 < b < length)
        return integrate(integrand, 0.0, length, tol,
                         breakpoints=sorted(seeds),
                         max_panel_width=PI / (2 * n + 1))

    return one_side("lower"), one_side("upper")


def predicted_limit(f, x):
    """The value the series converges to at ``x``: the mean of the
    one-sided limits, which at ``x = +/-pi`` is the periodic-wrap mean."""
    f = _check_function(f)
    left, right = f.one_sided_limits(x)
    return 0.5 * (left + right)


def convergence_report(f, x, schedule, tol=1e-10):
    """Partial sums along an order schedule next to the predicted limit.

    ``extras`` carries ``jump_midpoint`` (what the series converges to)
    and ``jump_half_difference`` (half the jump height, zero at continuity
    points) so jump behaviour can be read off directly.
    """
    f = _check_function(f)
    x = check_abscissa(x)
    orders = check_schedule(
        (check_integer(n, "schedule entry", 1, _MAX_ORDER) for n in schedule),
        "order schedule")
    coeff = coefficients(f, orders[-1], tol)
    values = np.array([partial_sum(coeff, x, n) for n in orders])
    predicted = predicted_limit(f, x)
    left, right = f.one_sided_limits(x)
    errors = np.abs(values - predicted)
    extras = {"jump_midpoint": predicted,
              "jump_half_difference": 0.5 * (right - left)}
    return ConvergenceReport(x=x, schedule=orders, values=values,
                             predicted=predicted, errors=errors, extras=extras)
