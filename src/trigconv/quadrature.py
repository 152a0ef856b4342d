"""Adaptive composite Gauss-Kronrod quadrature with batched panel evaluation.

Every integral in the package funnels through :func:`integrate` or
:func:`integrate_intervals`.  Each panel is estimated with the 15-point
Kronrod rule K15, and its gap to the 7-point Gauss rule G7 on the same
panel serves as the panel's error estimate.  G7's nodes are K15's
odd-indexed nodes, so a panel costs 15 integrand evaluations.  The gap is
used as it is, without QUADPACK's ``(200 * err) ** 1.5`` rescaling.
Panels that fail their share of the tolerance are bisected, and all new
panels of a round are evaluated in one vectorized call, so integrands must
accept 1-D numpy arrays.  An integral may use at most ``_MAX_PANELS``
panels.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, QuadratureError

# QUADPACK qk15 (Piessens et al., 1983): the non-negative Kronrod nodes in
# decreasing order, their K15 weights, and the G7 weights of the nodes
# 0.949..., 0.741..., 0.405... and 0.
_XGK = np.array([0.991455371120812639206854697526329,
                 0.949107912342758524526189684047851,
                 0.864864423359769072789712788640926,
                 0.741531185599394439863864773280788,
                 0.586087235467691130294144845693013,
                 0.405845151377397166906606412076961,
                 0.207784955007898467600689403773245,
                 0.0])
_WGK = np.array([0.022935322010529224963732008058970,
                 0.063092092629978553290700663189204,
                 0.104790010322250183839876322541518,
                 0.140653259715525918745189590510238,
                 0.169004726639267902826583426598550,
                 0.190350578064785409913256402421014,
                 0.204432940075298892414161999234649,
                 0.209482141084727828012999174891714])
_WG = np.array([0.129484966168869693270611432679082,
                0.279705391489276667901467771423780,
                0.381830050505118944950369775488975,
                0.417959183673469387755102040816327])

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_KRONROD_WEIGHTS = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GAUSS_WEIGHTS = np.zeros(15)
_GAUSS_WEIGHTS[1::2] = np.concatenate([_WG[:-1], _WG[::-1]])

_MAX_ROUNDS = 48
_MAX_PANELS = 1 << 15


def _evaluate_panels(f, lo, hi):
    """K15 values and ``|K15 - G7|`` error estimates for a batch of panels.

    The 15 Kronrod nodes of every panel are evaluated in one call to ``f``.
    Returns ``(values, errors, is_1d)`` where ``values`` has shape
    ``(npanels, ncomp)`` and ``errors`` ``(npanels,)``.  ``f`` maps a 1-D
    node array of length N to shape ``(N,)`` or ``(N, ncomp)``.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    y = np.asarray(f((mid[:, None] + half[:, None] * _NODES).ravel()), dtype=np.float64)
    is_1d = y.ndim == 1
    y = y.reshape(lo.shape[0], _NODES.shape[0], -1)
    with np.errstate(invalid="ignore"):
        values = np.einsum("pnc,n->pc", y, _KRONROD_WEIGHTS) * half[:, None]
        coarse = np.einsum("pnc,n->pc", y, _GAUSS_WEIGHTS) * half[:, None]
        errors = np.abs(values - coarse).max(axis=1)
    if not np.isfinite(values).all() or not np.isfinite(errors).all():
        raise QuadratureError("integrand returned non-finite values")
    return values, errors, is_1d


def _initial_panels(edges, max_panel_width):
    """Split every interval of ``edges`` into equal panels at most
    ``max_panel_width`` wide (one panel each when it is ``None``).

    Returns the panel starts, ends and owning interval indices.  The edges
    are bitwise those of ``np.linspace`` on each interval: start plus
    ``local * (width / count)``, with the last end pinned to the next edge.
    """
    widths = np.diff(edges)
    if max_panel_width is not None:
        counts = np.maximum(1, np.ceil(widths / float(max_panel_width) - 1e-12).astype(int))
    else:
        counts = np.ones(widths.shape[0], dtype=int)
    n_panels = int(counts.sum())
    if n_panels > _MAX_PANELS:
        raise QuadratureError(
            f"initial subdivision needs {n_panels} panels, above the cap {_MAX_PANELS}")
    owner = np.repeat(np.arange(widths.shape[0]), counts)
    ends = np.cumsum(counts)
    local = np.arange(n_panels) - np.repeat(ends - counts, counts)
    step = (widths / counts)[owner]
    a = edges[owner] + local * step
    b = edges[owner] + (local + 1) * step
    b[ends - 1] = edges[1:]
    return a, b, owner


def integrate_intervals(f, edges, tol=1e-10, *, max_panel_width=None):
    """Integrate ``f`` over every consecutive pair of ``edges`` at once.

    Each interval is refined independently until its summed panel error
    (the ``|K15 - G7|`` gaps of its panels) falls below
    ``max(tol * |value|, tol)``.  Returns ``(values, errors)`` with one
    entry per interval; when ``f`` returns several components per node,
    ``values`` has one row per interval.

    ``max_panel_width`` caps the width of the initial panels, which is how
    oscillatory integrands declare their finest relevant scale.  Every
    panel costs 15 integrand evaluations, and a call that needs more than
    ``_MAX_PANELS`` (32768) panels, at the start or during refinement, raises
    :class:`QuadratureError`.
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
    a, b, owner = _initial_panels(edges, max_panel_width)
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
        if a.shape[0] + split.sum() > _MAX_PANELS:
            raise QuadratureError(
                f"panel budget {_MAX_PANELS} exhausted at tol={tol}; "
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


def integrate(f, lo, hi, tol=1e-10, *, breakpoints=(), max_panel_width=None):
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
                                    max_panel_width=max_panel_width)
    total = values.sum(axis=0)
    return float(total) if np.ndim(total) == 0 else total
