"""Sign-block analysis of oscillatory sine integrals on (0, pi/2].

The central object is ``integral of f(b) * sin(i b) / sin(b) over [0, h]``
for a continuous monotone ``f`` and a positive frequency ``i``.  Splitting
at the zeros of ``sin(i b)`` — multiples of ``pi / i`` — yields blocks of
strictly alternating sign whose magnitudes decrease, which is what makes
the limit arguments of the package quantitative: the whole integral is
trapped between consecutive partial block sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MAX_ORDER, DomainError, check_finite, check_integer, check_real, check_schedule
from .piecewise import PiecewiseFunction
from .quadrature import _grid_panels, _sin_ratio, integrate, integrate_intervals

H_MAX = math.pi / 2


@dataclass(frozen=True)
class SignBlockDecomposition:
    """Blockwise view of ``integral of f(b) sin(i b)/sin(b) over [0, h]``.

    ``boundaries`` holds the block edges ``0, pi/i, 2 pi/i, ..., h``: the
    edges ``(pi/i) * k`` of the half-period grid that the quadrature engine
    seeds for the weight (see :func:`~trigconv.quadrature._grid_panels`),
    so that each block is one panel of it, the last one ending at ``h``.
    ``full_blocks`` counts the uncut grid panels, the blocks of width
    ``pi/i`` (a narrower remainder block, when present, sits at the end).
    ``block_values`` are the signed block integrals; ``weight_magnitudes``
    the absolute block integrals of the weight ``sin(i b)/sin(b)`` alone;
    ``block_means`` the ratio of the two, i.e. the weighted average of
    ``f`` over each block, which lies between the values of ``f`` at the
    block's endpoints.
    """
    frequency: float
    upper: float
    full_blocks: int
    boundaries: np.ndarray
    block_values: np.ndarray
    weight_magnitudes: np.ndarray
    block_means: np.ndarray


@dataclass(frozen=True)
class AlternatingTail:
    """Magnitudes and partial sums of ``integral of sin(g)/g`` over
    ``[(nu-1) pi, nu pi]``.

    ``terms`` has ``n_max + 1`` entries so the first omitted term — the
    remainder bound for the alternating sum — is available alongside the
    ``n_max`` partial sums, which straddle the limit ``pi / 2``.
    """
    terms: np.ndarray
    partial_sums: np.ndarray


@dataclass(frozen=True)
class ConvergenceReport:
    """Computed values along a refinement schedule next to a predicted limit.

    ``x`` is the report's abscissa: the evaluation point for series
    reports, the lower endpoint ``g`` for oscillatory-limit reports.
    ``extras`` carries op-specific scalars keyed by name.
    """
    x: float
    schedule: tuple
    values: np.ndarray
    predicted: float
    errors: np.ndarray
    extras: dict = field(default_factory=dict)


def _integrand(f, lo, hi):
    """``f`` on ``[lo, hi]`` as ``(fn, graded)``: a float-array-in,
    float-array-out ``fn`` and the infinite slopes that quadrature grades
    toward.

    A :class:`PiecewiseFunction` must be continuous and monotone on ``[lo,
    hi]``, which is checked structurally, and gives its ``singular_points``.
    A callable must map a float array to a float array of the same shape;
    a two-point probe call inside ``[lo, hi]`` checks this before any
    quadrature starts, and it grades toward nothing.
    """
    if isinstance(f, PiecewiseFunction):
        inside = [p for p in f.extrema_and_jumps() if lo < p < hi]
        if inside:
            raise DomainError(
                f"f must be continuous and monotone on [{lo}, {hi}]; it has "
                f"jumps or direction changes at {inside}")
        return f.eval, f.singular_points
    if not callable(f):
        raise DomainError(f"expected a PiecewiseFunction or callable, got {type(f)!r}")
    probe = lo + (hi - lo) * np.array([0.25, 0.75])
    try:
        out = np.asarray(f(probe), dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"f must accept a float array: {exc}") from exc
    if out.shape != probe.shape:
        raise DomainError(f"f must return one value per point: shape {out.shape} "
                          f"for an input of shape {probe.shape}")
    return (lambda x: np.asarray(f(x), dtype=np.float64)), ()


def sine_ratio(i, beta):
    """The oscillating weight ``sin(i b)/sin(b)`` with its ``b = 0``
    singularity removed (value ``i`` there); for an integer ``i`` every
    multiple ``k pi`` is removable too (value ``(-1)^(k (i + 1)) i``), and
    ``b`` is reduced modulo ``pi`` first.  A frequency outside ``(0,
    10**6]`` or a ``beta`` holding anything but finite numbers is refused
    with a :class:`~trigconv.errors.DomainError`.  A scalar ``beta`` gives
    a float, an array an array."""
    i = check_real(i, "frequency", 0, MAX_ORDER, open_lo=True)
    beta = check_finite(beta, "beta")
    out = _sin_ratio(i, beta)
    return float(out) if beta.ndim == 0 else out


def decompose(f, i, h, tol=1e-8):
    """Split ``integral of f(b) sin(i b)/sin(b) over [0, h]`` into sign blocks.

    ``f`` must be continuous and monotone on ``[0, h]`` (a callable over
    float arrays, or a :class:`PiecewiseFunction`, which is checked
    structurally); ``h`` must lie in ``(0, pi/2]``.  The blocks are the
    panels of the weight's grid (see :class:`SignBlockDecomposition`); an
    ``h`` within the engine's merge distance, ``1e-13 h``, of a zero of
    ``sin(i b)`` ends the last full block.  A grid of more panels than the
    engine's cap is refused with :class:`~trigconv.errors.QuadratureError`
    before any block array is built or ``f`` is evaluated.
    """
    i = check_real(i, "frequency", 0, MAX_ORDER, open_lo=True)
    h = check_real(h, "h", 0, H_MAX, open_lo=True)
    edges, uncut = _grid_panels(np.array([0.0, h]), 0.5 * math.pi / i)
    fn, graded = _integrand(f, 0.0, h)

    pair, _ = integrate_intervals(lambda b: np.stack([fn(b), np.ones(b.shape)], axis=1),
                                  edges, tol, graded=graded, sine_ratio=(i, 1.0, 0.0))
    values = pair[:, 0]
    magnitudes = np.abs(pair[:, 1])
    return SignBlockDecomposition(
        frequency=i, upper=h, full_blocks=int(uncut.sum()), boundaries=edges,
        block_values=values, weight_magnitudes=magnitudes,
        block_means=np.abs(values) / magnitudes)


def group_tail_bound(d, m):
    """Bound the tail of a decomposition after an even number of blocks.

    Returns ``(tail_sum, first_term)`` where ``tail_sum`` is the sum of all
    block values from block ``m + 1`` on and ``first_term`` is that block's
    magnitude.  For an even ``m`` the alternating, decreasing blocks give
    ``0 < tail_sum <= first_term`` (strict unless the tail is one block).
    A decomposition without a full block, ``h < pi/i``, has no such bound
    and is refused with :class:`~trigconv.errors.DomainError`.
    """
    if d.full_blocks == 0:
        raise DomainError(f"the decomposition has no full block: h = {d.upper!r} is below "
                          f"one block width pi/i = {math.pi / d.frequency!r}")
    m = check_integer(m, "m", 0, d.full_blocks - 1)
    if m % 2 != 0:
        raise DomainError(f"m must be even, got {m}")
    tail_sum = float(d.block_values[m:].sum())
    first_term = float(abs(d.block_values[m]))
    return tail_sum, first_term


def tail(n_max, tol=1e-10):
    """Blockwise magnitudes and partial sums of ``integral of sin(g)/g``.

    Block ``nu`` covers ``[(nu - 1) pi, nu pi]``; the alternating partial
    sums straddle ``pi / 2`` and each gap is below the next magnitude.  The
    block edges are those of the quadrature engine's grid of panels ``pi``
    wide (see :func:`~trigconv.quadrature._grid_panels`), so an ``n_max``
    whose ``n_max + 1`` blocks pass the engine's panel cap is refused with
    :class:`~trigconv.errors.QuadratureError` before any block array is
    built or the integrand is evaluated.
    """
    n_max = check_integer(n_max, "n_max", 1, MAX_ORDER)
    edges, _ = _grid_panels(np.array([0.0, (n_max + 1) * math.pi]), 0.5 * math.pi)
    values, _ = integrate_intervals(lambda g: np.sinc(g / math.pi), edges, tol)
    terms = np.abs(values)
    signs = np.where(np.arange(n_max) % 2 == 0, 1.0, -1.0)
    partial_sums = np.cumsum(signs * terms[:n_max])
    return AlternatingTail(terms=terms, partial_sums=partial_sums)


def limit_verify(f, g, h, i_schedule, tol=1e-8):
    """Track ``integral of f(b) sin(i b)/sin(b) over [g, h]`` as ``i`` grows.

    The predicted limit is ``0`` when ``g > 0`` and ``(pi/2) * f(0+)`` when
    ``g = 0``.  ``g`` must lie in ``[0, pi/2)``, ``h`` in ``(g, pi/2]`` and
    each frequency in ``(0, 10**6]``, increasing; anything else is refused
    with a :class:`~trigconv.errors.DomainError` before ``f`` is evaluated.
    Returns a :class:`ConvergenceReport` whose ``x`` field holds ``g``.
    """
    g = check_real(g, "g", 0, H_MAX, open_hi=True)
    h = check_real(h, "h", g, H_MAX, open_lo=True)
    schedule = check_schedule(
        (check_real(i, "frequency", 0, MAX_ORDER, open_lo=True) for i in i_schedule),
        "frequency schedule")
    fn, graded = _integrand(f, g, h)
    predicted = 0.5 * math.pi * float(fn(np.zeros(1))[0]) if g == 0.0 else 0.0
    values = np.array([integrate(fn, g, h, tol, graded=graded, sine_ratio=(i, 1.0, 0.0))
                       for i in schedule])
    errors = np.abs(values - predicted)
    return ConvergenceReport(x=g, schedule=schedule, values=values,
                             predicted=predicted, errors=errors)
