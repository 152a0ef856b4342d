"""Adaptive composite Gauss-Kronrod quadrature on one shared, chunked mesh.

Every integral in the package funnels through :func:`integrate`,
:func:`integrate_intervals` or :func:`integrate_harmonics`, and all of them
run one refinement loop, :func:`_refine`.  Each panel is estimated with the
15-point Kronrod rule K15, and its gap to the 7-point Gauss rule G7 on the
same panel, used as it is without QUADPACK's ``(200 * err) ** 1.5``
rescaling, is the panel's error estimate.  G7's nodes are K15's
odd-indexed nodes, so a panel costs 15 integrand evaluations.

The mesh holds each panel's midpoint, half-width, owning interval and
node values.  A moment rule turns node values into per-interval integrals
and error sums: plain K15 sums for :func:`integrate_intervals`, and the
integrals of ``f(x) cos(kx)`` and ``f(x) sin(kx)``, ``k = 0 .. n_max``, for
:func:`integrate_harmonics`.  Panels that fail their share of the
tolerance are bisected, ``f`` is evaluated on the children only, at most
``_CHUNK`` panels per call (so integrands must accept 1-D numpy arrays),
and the children's moments replace the parents'.  A mesh may hold at most
``_MAX_PANELS`` panels.

The harmonic rule writes ``exp(ikx) = exp(ikm) exp(ikh xi_j)`` at the
nodes ``m + h xi_j`` of a panel with midpoint ``m`` and half-width ``h``.
Its integrals come two ways.  :func:`integrate_harmonics` seeds one grid
of panels of half-width ``h = pi / M``, anchored at the lower limit, so the
phases ``exp(2ihkp)`` of grid panel ``p`` are ``M``-th roots of unity and
one real FFT per node column gives every uncut grid panel's integrals for
all ``K = n_max + 1`` harmonics in ``O(M log M)`` work instead of
``O(MK)``.  The pieces of grid panels cut at a breakpoint, and refined
children, take the direct path: a panel's K15 sum is ``exp(ikm)`` times a
power series in ``kh``, so its integrals are two real products of fixed
per-panel coefficients with the powers of ``k``, and only one phase
``exp(ikm)`` per panel and harmonic needs trigonometry, in tiles of about
``_TILE`` panel-by-harmonic entries.

One power series serves the direct sums and every error bound.  With
``exp(ikh xi_n) = sum_r (ikh xi_n)^r / r!``, a panel's K15 sum is
``exp(ikm) sum_r (ikh)^r nu_r`` with ``nu_r = h sum_n w_n xi_n^r / r!
y_n``, and its K15 - G7 gap is ``exp(ikm) sum_r (ikh)^r mu_r``, the same
sum with the gap weights ``g_n`` in place of ``w_n``.  The moments do not
depend on ``k``, and one constant 15 x 56 matrix maps a panel's node
values to both (see :func:`_series_moments`).  Since ``kh <= pi/2`` on
every mesh :func:`integrate_harmonics` builds, 28 terms of each leave out
less than ``1e-24`` of the panel's ``sum_n |w_n y_n|``.  An FFT yields
only sums over panels, so the harmonic error rule does not look at any one
panel's gap for any one harmonic: it bounds the gap's modulus by ``sum_r
(kh)^r |mu_r|`` at every phase.  Harmonic ``k``'s error is that bound
summed over all panels, a polynomial in ``k``, held to one budget over the
whole range; refinement splits a panel by its bound at ``k = n_max``, the
largest.
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
_GAP_WEIGHTS = _KRONROD_WEIGHTS - _GAUSS_WEIGHTS

_MAX_ROUNDS = 48
_MAX_PANELS = 1 << 15
_EPS = np.finfo(np.float64).eps

# the integrand sees the nodes of at most _CHUNK panels per call
_CHUNK = 1 << 11

# The power series of the direct sums and of the gap bounds (see
# _series_moments) have _SERIES_TERMS terms.  The columns of _SERIES are
# sign(i^r) w_n xi_n^r / r!, then g_n xi_n^r / r!, r < _SERIES_TERMS.
# Series are formed _SERIES_CHUNK panels at a time, and summed over
# harmonics in tiles of about _TILE (panel, harmonic) entries.
_SERIES_TERMS = 28
_SERIES = (np.concatenate([weights[:, None] * _NODES[:, None] ** np.arange(_SERIES_TERMS)
                           / np.array([math.factorial(r) for r in range(_SERIES_TERMS)],
                                      dtype=np.float64)
                           for weights in (_KRONROD_WEIGHTS, _GAP_WEIGHTS)], axis=1)
           * np.r_[(-1.0) ** (np.arange(_SERIES_TERMS) // 2), np.ones(_SERIES_TERMS)])
_SERIES_CHUNK = 1 << 12
_TILE = 1 << 14


def _node_values(f, mid, half):
    """``f`` at the 15 Kronrod nodes of every panel, ``_CHUNK`` panels per call.

    ``f`` maps a 1-D node array of length N to shape ``(N,)`` or
    ``(N, ncomp)``; the result has shape ``(P, 15)`` or ``(P, 15, ncomp)``.
    Each chunk is written into that one array as it is evaluated.
    """
    out = None
    for start in range(0, mid.shape[0], _CHUNK):
        m = mid[start:start + _CHUNK, None]
        y = np.asarray(f((m + half[start:start + _CHUNK, None] * _NODES).ravel()),
                       dtype=np.float64)
        if not np.isfinite(y).all():
            raise QuadratureError("integrand returned non-finite values")
        y = y.reshape(m.shape[0], _NODES.shape[0], *y.shape[1:])
        if out is None:
            out = np.empty((mid.shape[0], *y.shape[1:]))
        out[start:start + m.shape[0]] = y
    return out


def _initial_panels(edges, max_panel_width):
    """Split every interval of ``edges`` into equal panels at most
    ``max_panel_width`` wide (one panel each when it is ``None``).

    Returns the panel starts, ends and owning interval indices.  The edges
    are bitwise those of ``np.linspace`` on each interval: start plus
    ``local * (width / count)``, with the last end pinned to the next edge.
    A width that is not positive and finite raises :class:`DomainError`,
    and more than ``_MAX_PANELS`` panels raise :class:`QuadratureError`.
    """
    widths = np.diff(edges)
    if max_panel_width is not None:
        width = float(max_panel_width)
        if not (math.isfinite(width) and width > 0):
            raise DomainError(f"max_panel_width must be a positive finite number, got {width}")
        with np.errstate(over="ignore"):
            counts = np.maximum(1.0, np.ceil(widths / width - 1e-12))
    else:
        counts = np.ones(widths.shape[0])
    # compared in floating point, so that a huge count cannot wrap in the cast
    n_panels = counts.sum()
    if n_panels > _MAX_PANELS:
        raise QuadratureError(
            f"initial subdivision needs {n_panels:.0f} panels, above the cap {_MAX_PANELS}")
    n_panels = int(n_panels)
    counts = counts.astype(int)
    owner = np.repeat(np.arange(widths.shape[0]), counts)
    ends = np.cumsum(counts)
    local = np.arange(n_panels) - np.repeat(ends - counts, counts)
    step = (widths / counts)[owner]
    a = edges[owner] + local * step
    b = edges[owner] + (local + 1) * step
    b[ends - 1] = edges[1:]
    return a, b, owner


def _check_edges(edges, tol):
    """``edges`` as a strictly increasing float array and ``tol`` as a float."""
    edges = np.asarray(edges, dtype=np.float64)
    if edges.ndim != 1 or edges.shape[0] < 2:
        raise DomainError("edges must be a 1-D array with at least two entries")
    if not np.isfinite(edges).all() or not (np.diff(edges) > 0).all():
        raise DomainError("edges must be finite and strictly increasing")
    tol = float(tol)
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError("tol must be a positive finite number")
    return edges, tol


def _refine(f, mid, half, owner, n_int, tol, moments):
    """Refine a seeded mesh of ``n_int`` intervals until ``moments`` meets ``tol``.

    Panels are given by their midpoints, half-widths and owning intervals.
    ``moments(mid, half, owner, y, n_int)`` maps panels and their node
    values to ``(totals, err, worst)``: integrals of shape ``(rows, ncomp,
    n_int)``, summed panel errors ``(rows, n_int)`` and every panel's
    largest error over the rows.  Each interval must get every row's error
    below ``max(tol * max over components |total|, tol)``.  A round bisects
    the panels whose largest error exceeds the smallest share of a failing
    budget in their interval, and swaps the parents' moments for the
    children's.  Returns ``(totals, err, half, y)`` of the final mesh.
    """
    y = _node_values(f, mid, half)
    totals, err, worst = moments(mid, half, owner, y, n_int)
    for _ in range(_MAX_ROUNDS):
        budgets = np.maximum(tol * np.abs(totals).max(axis=1), tol)
        bad = err > budgets
        if not bad.any():
            if not np.isfinite(totals).all():
                raise QuadratureError("integrand values overflow the integral")
            return totals, err, half, y
        per_owner = np.bincount(owner, minlength=n_int)
        share = np.where(bad, budgets, np.inf).min(axis=0) / (2.0 * per_owner)
        split = worst > share[owner]
        if mid.shape[0] + split.sum() > _MAX_PANELS:
            raise QuadratureError(
                f"panel budget {_MAX_PANELS} exhausted at tol={tol}; "
                "integrand is too rough or the tolerance too tight")
        old = moments(mid[split], half[split], owner[split], y[split], n_int)
        quarter = 0.5 * half[split]
        child_mid = np.concatenate([mid[split] - quarter, mid[split] + quarter])
        child_half = np.tile(quarter, 2)
        child_owner = np.tile(owner[split], 2)
        child_y = _node_values(f, child_mid, child_half)
        new = moments(child_mid, child_half, child_owner, child_y, n_int)
        totals += new[0] - old[0]
        err += new[1] - old[1]
        keep = ~split
        mid = np.concatenate([mid[keep], child_mid])
        half = np.concatenate([half[keep], child_half])
        owner = np.concatenate([owner[keep], child_owner])
        y = np.concatenate([y[keep], child_y])
        worst = np.concatenate([worst[keep], new[2]])
    raise QuadratureError(
        f"refinement limit reached ({_MAX_ROUNDS} rounds) without meeting tol={tol}")


def _plain_moments(mid, half, owner, y, n_int):
    """K15 integrals of every component of ``y`` per interval, in one row,
    with the summed and the per-panel largest ``|K15 - G7|`` gaps."""
    y = y.reshape(y.shape[0], _NODES.shape[0], -1)
    values = np.einsum("pnc,n->cp", y, _KRONROD_WEIGHTS) * half
    gaps = np.abs(np.einsum("pnc,n->cp", y, _GAP_WEIGHTS) * half).max(axis=0)
    totals = np.stack([np.bincount(owner, weights=v, minlength=n_int) for v in values])
    return totals[None], np.bincount(owner, weights=gaps, minlength=n_int)[None], gaps


def integrate_intervals(f, edges, tol=1e-10, *, max_panel_width=None):
    """Integrate ``f`` over every consecutive pair of ``edges`` at once.

    All intervals share one mesh, refined with the plain K15 moment rule
    until each interval's summed panel error (the ``|K15 - G7|`` gaps of
    its panels) falls below ``max(tol * |value|, tol)``.  Returns
    ``(values, errors)`` with one entry per interval; when ``f`` returns
    several components per node, ``values`` has one row per interval.

    ``max_panel_width``, positive and finite, caps the width of the initial
    panels, which is how oscillatory integrands declare their finest
    relevant scale.  Every
    panel costs 15 integrand evaluations, made ``_CHUNK`` panels per call.
    A call that needs more than ``_MAX_PANELS`` (32768) panels, at the
    start or during refinement, raises :class:`QuadratureError`; at the
    start, that happens before ``f`` is evaluated.
    """
    edges, tol = _check_edges(edges, tol)
    a, b, owner = _initial_panels(edges, max_panel_width)
    totals, err, _, y = _refine(f, 0.5 * (a + b), 0.5 * (b - a), owner, edges.shape[0] - 1,
                                tol, _plain_moments)
    values = totals[0].T
    return (values[:, 0] if y.ndim == 2 else values), err[0]


def integrate(f, lo, hi, tol=1e-10, *, breakpoints=(), max_panel_width=None):
    """Adaptive integral of ``f`` over ``[lo, hi]``.

    ``breakpoints`` lists interior abscissae that are forced to be panel
    boundaries (known kinks or jumps of ``f``); points outside the open
    interval are ignored.  The result's estimated error is below
    ``max(tol * |integral|, tol)`` per seeded subinterval.
    """
    values, _ = integrate_intervals(f, _edges(lo, hi, breakpoints), tol,
                                    max_panel_width=max_panel_width)
    total = values.sum(axis=0)
    return float(total) if np.ndim(total) == 0 else total


def _edges(lo, hi, breakpoints):
    """``[lo, *breakpoints, hi]`` with points outside ``(lo, hi)`` dropped
    and points within ``1e-13 * (hi - lo)`` of the previous edge merged."""
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
    return np.asarray(edges)


def _grid_panels(edges, size):
    """The seeded mesh of :func:`integrate_harmonics`: panels of half-width
    ``h = pi / size`` with edges ``lo + 2hp`` from ``lo = edges[0]`` to
    ``hi = edges[-1]``, where each grid panel that holds an edge strictly
    inside is cut there and the last one ends at ``hi``.  A ``hi`` within
    the merge distance of :func:`_edges`, ``1e-13 (hi - lo)``, above a grid
    edge is taken as that edge, so no panel is left as wide as the rounding
    of ``lo + 2hp``.

    Returns the midpoints and half-widths in ascending order.  The uncut
    grid panels have half-width ``h``, by which :func:`_harmonic_rule`
    tells them apart; a piece whose width rounds to theirs spans its panel
    but for an ulp and is taken as that panel.  A mesh of more than
    ``_MAX_PANELS`` panels raises :class:`QuadratureError` before any array
    of its size is built.
    """
    lo = edges[0]
    half = math.pi / size
    width = 2.0 * half
    # the grid panel of every edge: lo + index * width <= edge < lo + (index + 1) * width
    with np.errstate(over="ignore"):
        index = np.floor((edges - lo) / width)
        index -= lo + index * width > edges
        index += lo + (index + 1.0) * width <= edges
        inside = lo + index * width != edges
        inside[-1] &= edges[-1] - (lo + index[-1] * width) > 1e-13 * (edges[-1] - lo)
    # the grid edges below hi, then one panel more for each inner edge
    # strictly inside a panel; compared in floating point, so that a huge
    # count cannot wrap in the cast
    n_grid = index[-1] + inside[-1]
    n_panels = n_grid + inside[1:-1].sum()
    if not n_panels <= _MAX_PANELS:
        raise QuadratureError(
            f"initial subdivision needs {n_panels:.0f} panels, above the cap {_MAX_PANELS}")
    cuts = edges[1:-1][inside[1:-1]]
    points = np.concatenate([lo + width * np.arange(n_grid), cuts, edges[-1:]])
    on_grid = np.concatenate([np.ones(int(n_grid), dtype=bool),
                              np.zeros(cuts.shape[0], dtype=bool), ~inside[-1:]])
    order = np.argsort(points, kind="stable")
    points = points[order]
    on_grid = on_grid[order]
    uncut = on_grid[:-1] & on_grid[1:]
    return 0.5 * (points[:-1] + points[1:]), np.where(uncut, half, 0.5 * np.diff(points))


def _fft_length(n):
    """The smallest ``2^a 3^b 5^c`` at least ``n``, a fast FFT length."""
    best = 1 << (n - 1).bit_length()
    p3 = 1
    while p3 < best:
        p35 = p3
        while p35 < best:
            best = min(best, p35 << ((n - 1) // p35).bit_length())
            p35 *= 5
        p3 *= 3
    return best


def _series_moments(n_max, mid, half, y, direct):
    """K15 integrals of ``y(x) exp(ikx)``, ``k = 0 .. n_max``, summed over
    the ``direct`` panels, and a bound on the K15 - G7 gap of every panel.

    A panel with midpoint ``m`` and half-width ``h`` has the integral
    ``exp(ikm) sum_r (ikh)^r nu_r`` with ``nu_r = h sum_n w_n xi_n^r / r!
    y_n``, and the gap ``exp(ikm) sum_r (ikh)^r mu_r`` with the gap weights
    ``g_n`` in place of ``w_n``, so ``|gap| <= sum_r (kh)^r |mu_r|`` whatever
    the phase.  With ``h_ref`` the largest half-width, each series is a
    polynomial in ``k h_ref`` with the coefficients ``(h / h_ref)^r nu_r``
    (or ``|mu_r|``): the real and imaginary parts of an integral are
    products of its even and odd terms with the powers of ``k h_ref``.
    Returns the cosine and sine integrals, shape ``(n_max + 1, 2)``, the
    gap bounds summed over all panels, shape ``(n_max + 1,)``, and every
    panel's bound at ``k = n_max``, the largest.
    """
    h_ref = half.max()
    k = np.arange(n_max + 1, dtype=np.float64)
    # powers[r, k] = (k h_ref)^r
    powers = np.empty((_SERIES_TERMS, n_max + 1))
    powers[0] = 1.0
    t = k * h_ref
    for r in range(1, _SERIES_TERMS):
        np.multiply(powers[r - 1], t, out=powers[r])
    tile = max(1, _TILE // (n_max + 1))
    totals = np.zeros((n_max + 1, 2))
    sums = np.zeros(_SERIES_TERMS)
    worst = np.empty(half.shape[0])
    for start in range(0, half.shape[0], _SERIES_CHUNK):
        part = slice(start, start + _SERIES_CHUNK)
        pick = np.flatnonzero(direct[part])
        nu = _SERIES[:, :_SERIES_TERMS].T @ y[part][pick].T
        mu = _SERIES[:, _SERIES_TERMS:].T @ y[part].T
        np.abs(mu, out=mu)
        # row r of both is scaled by h (h / h_ref)^r
        ratio = half[part] / h_ref
        scale = half[part].copy()
        for nu_row, mu_row in zip(nu, mu):
            nu_row *= scale[pick]
            mu_row *= scale
            scale *= ratio
        worst[part] = powers[:, -1] @ mu
        sums += mu.sum(axis=1)
        pick += start
        for j in range(0, pick.shape[0], tile):
            re = nu[0::2, j:j + tile].T @ powers[0::2]
            im = nu[1::2, j:j + tile].T @ powers[1::2]
            phase = np.outer(mid[pick[j:j + tile]], k)
            c = np.cos(phase)
            s = np.sin(phase)
            totals[:, 0] += (c * re - s * im).sum(axis=0)
            totals[:, 1] += (s * re + c * im).sum(axis=0)
    return totals, powers.T @ sums, worst


def _harmonic_rule(n_max, lo, size):
    """The moment rule of :func:`integrate_harmonics` on the grid of
    ``size`` panels of half-width ``h = pi / size`` per period, anchored at
    ``lo``: ``moments(mid, half, owner, y, n_int)`` as :func:`_refine` calls
    it, for a mesh of one interval.

    A grid panel, half-width ``h`` and midpoint ``lo + (2p + 1) h``, has the
    K15 integral ``h exp(ik(lo + h)) sum_j w_j exp(ikh xi_j) y[p, j]
    exp(2ihkp)``.  As ``2hk`` is a multiple of ``2 pi / size``, the sums
    over ``p`` are ``conj(rfft(Y_j))[k]`` of node column ``j`` folded
    modulo ``size`` into ``Y_j``: one real FFT per column, with exact
    phases, gives every harmonic.  Every other panel, and every panel's gap
    bound, comes from :func:`_series_moments`.
    """
    h = math.pi / size
    k = np.arange(n_max + 1, dtype=np.float64)
    # w_j exp(ikh xi_j), one row per node, and h exp(ik(lo + h))
    node_phases = (_KRONROD_WEIGHTS * np.exp(1j * np.outer(k * h, _NODES))).T
    shift = h * np.exp(1j * (k * (lo + h)))

    def moments(mid, half, owner, y, n_int):
        grid = half == h
        totals, err, worst = _series_moments(n_max, mid, half, y, ~grid)
        if grid.any():
            # grid indices, ascending, and node columns folded modulo size:
            # the panels of one period fill distinct columns
            p = np.rint((mid[grid] - lo) / (2.0 * h) - 0.5).astype(np.intp)
            values = y[grid].T
            folded = np.zeros((_NODES.shape[0], size))
            for start in range(0, p[-1] + 1, size):
                run = slice(*np.searchsorted(p, (start, start + size)))
                folded[:, p[run] - start] += values[:, run]
            z = np.fft.rfft(folded)[:, :n_max + 1]
            np.conjugate(z, out=z)
            z *= node_phases
            total = shift * z.sum(axis=0)
            totals[:, 0] += total.real
            totals[:, 1] += total.imag
        return totals[:, :, None], err[:, None], worst
    return moments


def integrate_harmonics(f, lo, hi, n_max, tol=1e-10, *, breakpoints=()):
    """Integrals of ``f(x) cos(kx)`` and ``f(x) sin(kx)`` over ``[lo, hi]``
    for every ``k = 0 .. n_max``, from one shared adaptive mesh.

    The mesh is seeded with one grid anchored at ``lo``: ``M =
    _fft_length(2 (n_max + 1))`` panels of half-width ``h = pi / M`` per
    period ``2 pi``, so ``kh <= pi/2``.  Panels that hold one of
    ``breakpoints`` (as in :func:`integrate`) are cut there, and the last is
    clipped at ``hi``.  ``f`` is evaluated once per Kronrod node,
    ``_CHUNK`` panels per call, and its values are kept per panel.  The
    uncut grid panels get every harmonic from one real FFT per node column
    (columns of spans longer than ``2 pi`` folded modulo ``M``), in
    ``O(M log M)`` work; cut pieces and refined children get them from a
    power series in ``kh`` per panel, ``r < 28`` terms times one phase
    ``exp(ikm)`` per harmonic (see :func:`_harmonic_rule`).

    The mesh is refined by the same loop as :func:`integrate_intervals`,
    with one budget per harmonic over the whole of ``[lo, hi]``: until the
    error of every harmonic ``k`` falls below ``max(tol * max(|cos
    integral|, |sin integral|), tol)``.  That error is the sum over all
    panels of ``sum_r (kh)^r |mu_r|``, ``r < 28``, a bound on the modulus
    of the panel's K15 - G7 gap of ``f(x) exp(ikx)`` that holds at every
    phase (both series are cut where ``kh <= pi/2`` leaves out less than
    ``1e-24`` relative; see :func:`_series_moments`).  This one budget
    replaced one per interval between breakpoints, whose floors summed to
    ``tol`` times their number; at ``tol = 1e-10`` neither refines any
    panel of the square wave or of a 200-segment random spec on ``[-pi,
    pi]`` at ``n_max = 4000`` (8100 and 8363 seeded panels now).

    Returns ``(cos_integrals, sin_integrals, errors)``, each of length
    ``n_max + 1``.  ``errors[k]`` estimates harmonic ``k``'s absolute error:
    its gap bounds summed over all panels, plus a rounding term ``eps * (50
    + k * max|x|) * integral of |f|``.  The gap bounds measure truncation
    only.  Rounding the phase ``k x`` costs up to ``eps * k * |x|``
    relative per node; QUADPACK's ``50 * eps`` allowance covers the rest of
    the arithmetic, the FFTs included, whose phases are exact roots of
    unity.  A mesh that needs more than ``_MAX_PANELS`` panels raises
    :class:`QuadratureError`; when the seeded mesh alone is too large, that
    happens before ``f`` is evaluated.
    """
    edges, tol = _check_edges(_edges(lo, hi, breakpoints), tol)
    size = _fft_length(2 * (n_max + 1))
    try:
        mid, half = _grid_panels(edges, size)
    except QuadratureError as exc:
        raise QuadratureError(f"n_max={n_max}: {exc}") from None
    totals, err, half, y = _refine(f, mid, half, np.zeros(mid.shape[0], dtype=np.intp), 1,
                                   tol, _harmonic_rule(n_max, edges[0], size))
    abs_integral = (half * (np.abs(y) @ _KRONROD_WEIGHTS)).sum()
    x_max = max(abs(edges[0]), abs(edges[-1]))
    rounding = _EPS * (50.0 + np.arange(n_max + 1) * x_max) * abs_integral
    cos_int, sin_int = totals[:, :, 0].T
    return cos_int, sin_int, err[:, 0] + rounding
