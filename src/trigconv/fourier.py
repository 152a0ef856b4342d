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

from .errors import MAX_ORDER, DomainError, check_abscissa, check_integer, check_schedule
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
    :func:`~trigconv.quadrature.integrate_harmonics`: a single mesh seeded
    with one grid of ``M >= 2 (n_max + 1)`` panels over the period, cut at
    the function's breakpoints and graded toward its infinite slopes
    (``f.singular_points``), on which ``f`` is evaluated once per node.
    Every panel, uncut, cut or refined, gets all its harmonics from one
    transform: its moments about the centre of its grid cell, folded by
    cell, through one real FFT per moment, 28 per measured mesh whatever
    the number of breakpoints.  Each harmonic is held to one budget over
    the whole period: the gap bounds of all panels, summed, stay below
    ``max(tol * max(|integral of f cos kx|, |integral of f sin kx|),
    tol)``, so ``error[k]`` is at most that budget over ``pi`` (``2 pi`` for
    ``k = 0``) plus its rounding term.  At ``tol = 1e-10`` that budget refines no panel of the square
    wave, nor of a 200-segment random spec, at ``n_max`` = 125, 600, 4000
    and 16 000 (8100 and 8363 panels of 15 points at ``n_max = 4000``), nor
    of a spec with two square-root ends, whose grading adds 30 panels to
    the grid (``POWER_AND_TABLE`` of the tests, at ``n_max`` = 125, 300,
    600, 4000 and 16 000).  At ``tol = 1e-12`` every panel of the square
    wave at ``n_max = 4000`` is split once (16 200 panels, two rounds), and
    the coefficients stay within ``1e-15`` of their closed form, as at
    ``1e-10``.  ``n_max = 0`` tabulates the mean term ``a0`` alone.  An
    ``n_max`` above the largest order ``10**6``, or whose seeded mesh
    exceeds the panel cap, is refused before ``f`` is evaluated.
    """
    f = _check_function(f)
    n_max = check_integer(n_max, "n_max", 0, MAX_ORDER)
    cos_int, sin_int, errors = integrate_harmonics(f.eval, -PI, PI, n_max, tol,
                                                   breakpoints=f.breakpoints,
                                                   graded=f.singular_points)
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
    ``D_n(t) = sin((2n + 1) u) / (2 sin(u))``, ``u = t/2``, is the
    closed-form summation kernel, which the quadrature engine applies as
    its ``sine_ratio`` weight to ``f / 2``; the weight seeds the mesh with
    its half-periods, panels ``2 pi / (2n + 1)`` wide, cut at ``x`` and at
    the breakpoints of ``f``.
    """
    f = _check_function(f)
    n = check_integer(n, "n", 0, MAX_ORDER)
    x = _wrap_abscissa(x)
    # integrate sorts the breakpoints, drops those outside (-pi, pi), x at
    # +/-pi among them, and merges duplicates
    value = integrate(lambda alpha: 0.5 * f.eval(alpha), -PI, PI, tol,
                      breakpoints=(*f.breakpoints, x), graded=f.singular_points,
                      sine_ratio=(2 * n + 1, 0.5, -0.5 * x))
    return value / PI


def _to_beta(points, x, side):
    """``points`` mapped into the ``beta`` variable of ``side`` of
    :func:`split_integrals`, in range or not."""
    return [(x - p) / 2.0 if side == "lower" else (p - x) / 2.0 for p in points]


def _beta_seeds(points, x, side):
    """The half-range length of ``side`` and the seeds of
    :func:`beta_split_points` from ``points``, unsorted, ``pi/2`` last."""
    length = (PI + x) / 2.0 if side == "lower" else (PI - x) / 2.0
    seeds = [b for b in _to_beta(points, x, side) if 0.0 < b < length]
    if length > PI / 2.0:
        seeds.append(PI / 2.0)
    return length, seeds


def beta_split_points(f, x, side):
    """The interior jumps and extrema of ``f`` in the ``beta`` variable of
    one side of :func:`split_integrals`, plus ``pi/2``.

    Maps every interior jump or extremum of ``f`` into the ``beta``
    variable of the requested side (``alpha = x - 2 beta`` below ``x``,
    ``alpha = x + 2 beta`` above), keeps those strictly inside the range,
    and adds ``pi/2`` when the range extends past it (where the weight's
    denominator ``sin(beta)`` peaks).  :func:`split_integrals` seeds its
    panels at these and at every other mapped breakpoint of ``f``.
    """
    f = _check_function(f)
    if side not in ("lower", "upper"):
        raise DomainError(f"side must be 'lower' or 'upper', got {side!r}")
    x = check_abscissa(x)
    return sorted(set(_beta_seeds(f.extrema_and_jumps(), x, side)[1]))


def split_integrals(f, x, n, tol=1e-9):
    """The two half-range integrals whose sum over ``pi`` is the partial sum.

    ``lower`` integrates ``2 f(x - 2 beta) D_n(2 beta)`` for ``beta`` in
    ``[0, (pi + x)/2]`` (the part of the period below ``x``); ``upper``
    does the same above ``x``.  ``2 D_n(2 beta)`` is ``sin((2n + 1) beta) /
    sin(beta)``, the quadrature engine's ``sine_ratio`` weight.  At ``x =
    -pi`` / ``x = pi`` the respective integral is empty and exactly ``0.0``.
    """
    f = _check_function(f)
    n = check_integer(n, "n", 0, MAX_ORDER)
    x = check_abscissa(x)

    def one_side(side):
        # the weight seeds panels pi / (2n + 1) wide, its half-periods; cut
        # them at every mapped non-smooth point of f, which holds every
        # jump and extremum that beta_split_points reports, and at the peak
        # pi/2 of the weight's denominator, and grade them toward every
        # mapped infinite slope (integrate ignores those out of range)
        length, seeds = _beta_seeds(f.breakpoints, x, side)
        if length <= 0.0:
            return 0.0
        sign = -2.0 if side == "lower" else 2.0

        return integrate(lambda beta: f.eval(np.clip(x + sign * beta, -PI, PI)), 0.0, length,
                         tol, breakpoints=seeds, graded=_to_beta(f.singular_points, x, side),
                         sine_ratio=(2 * n + 1, 1.0, 0.0))

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
        (check_integer(n, "schedule entry", 1, MAX_ORDER) for n in schedule),
        "order schedule")
    coeff = coefficients(f, orders[-1], tol)
    values = np.array([partial_sum(coeff, x, n) for n in orders])
    left, right = f.one_sided_limits(x)
    predicted = 0.5 * (left + right)
    errors = np.abs(values - predicted)
    extras = {"jump_midpoint": predicted,
              "jump_half_difference": 0.5 * (right - left)}
    return ConvergenceReport(x=x, schedule=orders, values=values,
                             predicted=predicted, errors=errors, extras=extras)
