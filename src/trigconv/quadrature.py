"""Adaptive composite Gauss-Legendre quadrature with batched panel evaluation.

Every integral in the package funnels through :func:`integrate` or
:func:`integrate_intervals`.  Each panel is estimated with a 15-point
Gauss-Legendre rule, and its gap to a separate 7-point Gauss-Legendre rule
on the same panel serves as the panel's error estimate.  The two node sets
share only the midpoint, so a panel costs 22 integrand evaluations.  Panels
that fail their share of the tolerance are bisected, and all new panels of
a round are evaluated in one vectorized call, so integrands must accept 1-D
numpy arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, QuadratureError

_HI_NODES, _HI_WEIGHTS = np.polynomial.legendre.leggauss(15)
_LO_NODES, _LO_WEIGHTS = np.polynomial.legendre.leggauss(7)

_MAX_ROUNDS = 48
_DEFAULT_MAX_PANELS = 1 << 15


def _evaluate_panels(f, lo, hi):
    """Rule values and 15-vs-7-point error estimates for a batch of panels.

    Returns ``(values, errors, is_1d)`` where ``values`` has shape
    ``(npanels, ncomp)`` and ``errors`` ``(npanels,)``.  ``f`` maps a 1-D
    node array of length N to shape ``(N,)`` or ``(N, ncomp)``.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x_hi = (mid[:, None] + half[:, None] * _HI_NODES).ravel()
    x_lo = (mid[:, None] + half[:, None] * _LO_NODES).ravel()
    y = np.asarray(f(np.concatenate([x_hi, x_lo])), dtype=np.float64)
    is_1d = y.ndim == 1
    if is_1d:
        y = y[:, None]
    n_hi = x_hi.shape[0]
    y_hi = y[:n_hi].reshape(lo.shape[0], _HI_NODES.shape[0], -1)
    y_lo = y[n_hi:].reshape(lo.shape[0], _LO_NODES.shape[0], -1)
    with np.errstate(invalid="ignore"):
        values = np.einsum("pnc,n->pc", y_hi, _HI_WEIGHTS) * half[:, None]
        coarse = np.einsum("pnc,n->pc", y_lo, _LO_WEIGHTS) * half[:, None]
        errors = np.abs(values - coarse).max(axis=1)
    if not np.isfinite(values).all() or not np.isfinite(errors).all():
        raise QuadratureError("integrand returned non-finite values")
    return values, errors, is_1d


def integrate_intervals(f, edges, tol=1e-10, *, max_panel_width=None,
                        max_panels=_DEFAULT_MAX_PANELS):
    """Integrate ``f`` over every consecutive pair of ``edges`` at once.

    Each interval is refined independently until its summed panel error
    falls below ``max(tol * |value|, tol)``.  Returns ``(values, errors)``
    with one entry per interval; when ``f`` returns several components per
    node, ``values`` has one row per interval.

    ``max_panel_width`` caps the width of the initial panels, which is how
    oscillatory integrands declare their finest relevant scale.
    """
    edges = np.asarray(edges, dtype=np.float64)
    if edges.ndim != 1 or edges.shape[0] < 2:
        raise DomainError("edges must be a 1-D array with at least two entries")
    if not np.isfinite(edges).all() or not (np.diff(edges) > 0).all():
        raise DomainError("edges must be finite and strictly increasing")
    tol = float(tol)
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError("tol must be a positive finite number")

    n_int = edges.shape[0] - 1
    widths = np.diff(edges)
    if max_panel_width is not None:
        counts = np.maximum(1, np.ceil(widths / float(max_panel_width) - 1e-12).astype(int))
    else:
        counts = np.ones(n_int, dtype=int)
    starts, stops, owners = [], [], []
    for j in range(n_int):
        pts = np.linspace(edges[j], edges[j + 1], counts[j] + 1)
        starts.append(pts[:-1])
        stops.append(pts[1:])
        owners.append(np.full(counts[j], j))
    a = np.concatenate(starts)
    b = np.concatenate(stops)
    owner = np.concatenate(owners)
    if a.shape[0] > max_panels:
        raise QuadratureError(
            f"initial subdivision needs {a.shape[0]} panels, above the cap {max_panels}")

    val, err, is_1d = _evaluate_panels(f, a, b)
    ncomp = val.shape[1]
    for _ in range(_MAX_ROUNDS):
        totals = np.stack(
            [np.bincount(owner, weights=val[:, c], minlength=n_int) for c in range(ncomp)],
            axis=1)
        err_sums = np.bincount(owner, weights=err, minlength=n_int)
        budgets = np.maximum(tol * np.abs(totals).max(axis=1), tol)
        bad = err_sums > budgets
        if not bad.any():
            if is_1d:
                return totals[:, 0], err_sums
            return totals, err_sums
        per_owner = np.bincount(owner, minlength=n_int)
        share = budgets[owner] / (2.0 * per_owner[owner])
        split = bad[owner] & (err > share)
        if a.shape[0] + split.sum() > max_panels:
            raise QuadratureError(
                f"panel budget {max_panels} exhausted at tol={tol}; "
                "integrand is too rough or the tolerance too tight")
        mid = 0.5 * (a[split] + b[split])
        child_a = np.concatenate([a[split], mid])
        child_b = np.concatenate([mid, b[split]])
        child_owner = np.tile(owner[split], 2)
        child_val, child_err, _ = _evaluate_panels(f, child_a, child_b)
        keep = ~split
        a = np.concatenate([a[keep], child_a])
        b = np.concatenate([b[keep], child_b])
        owner = np.concatenate([owner[keep], child_owner])
        val = np.concatenate([val[keep], child_val])
        err = np.concatenate([err[keep], child_err])
    raise QuadratureError(
        f"refinement limit reached ({_MAX_ROUNDS} rounds) without meeting tol={tol}")


def integrate(f, lo, hi, tol=1e-10, *, breakpoints=(), max_panel_width=None,
              max_panels=_DEFAULT_MAX_PANELS):
    """Adaptive integral of ``f`` over ``[lo, hi]``.

    ``breakpoints`` lists interior abscissae that are forced to be panel
    boundaries (known kinks or jumps of ``f``); points outside the open
    interval are ignored.  The result's estimated error is below
    ``max(tol * |integral|, tol)`` per seeded subinterval.
    """
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"need finite lo < hi, got [{lo}, {hi}]")
    span = hi - lo
    inner = sorted(float(p) for p in breakpoints if lo < p < hi)
    edges = [lo]
    for p in inner:
        if p - edges[-1] > 1e-13 * span:
            edges.append(p)
    if hi - edges[-1] <= 1e-13 * span:
        edges[-1] = hi
    else:
        edges.append(hi)
    values, _ = integrate_intervals(f, np.asarray(edges), tol,
                                    max_panel_width=max_panel_width,
                                    max_panels=max_panels)
    total = values.sum(axis=0)
    return float(total) if np.ndim(total) == 0 else total
