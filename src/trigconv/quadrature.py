"""Adaptive composite Gauss-Kronrod quadrature on one shared, chunked mesh.

Every integral in the package funnels through :func:`integrate`,
:func:`integrate_intervals` or :func:`integrate_harmonics`, and all of them
run one refinement loop, :func:`_refine`.  Each panel is estimated with the
15-point Kronrod rule K15, and its gap to the 7-point Gauss rule G7 on the
same panel, used as it is without QUADPACK's ``(200 * err) ** 1.5``
rescaling, is the panel's error estimate.  G7's nodes are K15's
odd-indexed nodes, so a panel costs 15 integrand evaluations.

All three seed their mesh one way (:func:`_grid_panels`): one grid of
equal panels anchored at the lower limit, each grid panel that holds a
breakpoint cut there, and the last clipped at the upper limit.  Next to
each point the caller names as ``graded`` (an infinite slope of the
integrand, such as the origin of ``sqrt(x - g)``), the mesh is cut
geometrically toward the point, at ``g -/+ _GRADING_RATIO^k w``, ``k = 1
.. _GRADING_LEVELS``, with ``w`` at most two grid panels; composite Gauss
rules converge exponentially on such a mesh (Schwab, *Computing* 53,
1994), so the point costs a few seeded panels instead of one refinement
round per level.  Breakpoints, graded points and graded cuts are alike
inner edges, and one rule merges them with the grid: an inner edge within
``1e-13 (hi - lo)`` of a grid edge is dropped, and the grid edge stands in
for it.
The grid of :func:`integrate` and :func:`integrate_intervals` is one
panel over the whole range, which the inner edges cut into one panel per
interval, unless they carry the sine-ratio weight below, whose grid is the
half-periods of its numerator; that of :func:`integrate_harmonics` has
``kh <= pi/2`` at every harmonic.  All three hold one error budget over
the whole range, as QUADPACK's QAG does, and :func:`integrate_intervals`
splits the final mesh's per-panel sums by interval only after refinement.

The mesh holds each panel's midpoint, half-width and node values.  A
moment rule is a pure function of the mesh: it turns node values into
integrals and error sums over the whole mesh, plain K15 sums (with every
panel's own sum) for :func:`integrate` and :func:`integrate_intervals`,
and the integrals of ``f(x) cos(kx)`` and ``f(x) sin(kx)``, ``k = 0 ..
n_max``, for :func:`integrate_harmonics`.  Each round measures the whole
mesh once, then accepts it, refuses it or bisects the panels that fail
their share of the tolerance, and ``f`` is evaluated on the children
only, at most ``_CHUNK`` panels per call (so integrands must accept 1-D
numpy arrays); every evaluated mesh is measured, the last split's too.  A
mesh may hold at most ``_MAX_PANELS`` panels, and a call at most
``_MAX_ROUNDS`` splits.

:func:`integrate` and :func:`integrate_intervals` take an oscillating weight
too: with ``sine_ratio=(m, scale, shift)`` they integrate ``f(x) sin(m u) /
sin(u)``, ``u = scale x + shift``, the form of both the Dirichlet kernel
and the sign-block weight, and :func:`_node_values` multiplies ``f``'s
values by the weight (see :func:`_sine_ratio_weight`).  The weight sets
the grid: the half-periods of ``sin(m u)``, panels ``pi / (m |scale|)``
wide (``2 h`` below), anchored at the lower limit, so no caller passes a
panel width; :func:`~trigconv.oscillatory.decompose` reads its sign blocks
off that grid.  The weight comes two ways.  An uncut grid panel of
half-width ``h`` whose midpoint has the phase ``u_c`` takes it by angle
addition, ``sin(m u_c + m d_j) = sin(m u_c) cos(m d_j) + cos(m u_c) sin(m
d_j)`` with ``d_j = scale h xi_j``, and likewise for ``sin(u)``: four
trigonometric calls per panel and one 15-node table per mesh, in place of
two sines per node.  For an integer ``m`` the weight
has period ``pi`` in ``u``, up to a sign for an even ``m``, and ``u`` is
reduced modulo ``pi`` first (:func:`_reduced_phase`).  Cut pieces, graded
cuts and refined children take the direct path, :func:`_sin_ratio` node
by node, the package's one helper for the removable singularities.  The
table's phases are those of the nominal ``h``; a grid panel's half-width
``half`` is ``h`` only to within the rounding of its edges, ``4 eps max
|x|``, so each phase is off by at most ``m |scale| |half - h|``, the order
of the rounding of ``m u`` that the direct path makes.

The harmonic rule takes every panel's integrals through one transform.
The grid of :func:`integrate_harmonics` has cells of half-width ``h = pi /
M``, and every panel, uncut grid panel, cut piece, graded cut or refined
child, lies inside one cell ``p``, centre ``c = lo + (2p + 1) h`` (the
midpoint of that cell's grid panel), with its nodes at ``t_n = (x_n - c) /
h`` in ``[-1, 1]``.  With ``exp(ikh t) = sum_r (ikh t)^r / r!``, a panel's
K15 sum is ``exp(ikc) sum_r (ikh)^r nu_r`` with the moments ``nu_r = half
sum_n w_n y_n t_n^r / r!``, which do not depend on ``k``; an uncut grid
panel has ``t = xi`` and takes its moments from one constant matrix, every
other panel from the powers of its node offsets.  The phases ``exp(2ihkp)``
are ``M``-th roots of unity, so each moment row, folded by cell modulo
``M``, takes one real FFT with exact phases, and ``_SERIES_TERMS`` FFTs
give every panel's integrals for all ``K = n_max + 1`` harmonics in ``O(M
log M)`` work per row, whatever the number of cut pieces and children (the
Taylor form of the nonuniform FFT: Anderson & Dahleh, *SIAM J. Sci.
Comput.* 17(4), 1996; Dutt & Rokhlin, *ibid.* 14(6), 1993).

One power series serves the integrals and every error bound.  A panel's
K15 - G7 gap is ``exp(ikm) sum_r (ikh)^r mu_r`` about its own midpoint
``m``, with ``mu_r = h sum_n g_n xi_n^r / r! y_n``, the gap weights ``g_n``
in place of ``w_n``, and one constant 15 x 56 matrix maps a panel's node
values to its centred moments of both kinds (see :func:`_gap_bounds`).
Since ``kh <= pi/2`` on every mesh :func:`integrate_harmonics` builds, 28
terms of each leave out less than ``1e-24`` of the panel's ``sum_n |w_n
y_n|``.  An FFT yields only sums over panels, so the harmonic error rule
does not look at any one panel's gap for any one harmonic: it bounds the
gap's modulus by ``sum_r (kh)^r |mu_r|`` at every phase.  Harmonic ``k``'s
error is that bound summed over all panels, a polynomial in ``k``, held to
one budget over the whole range; refinement splits a panel by its bound at
``k = n_max``, the largest.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, QuadratureError, as_floats, check_points, check_real

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
_HUGE = np.finfo(np.float64).max

# the integrand sees the nodes of at most _CHUNK panels per call
_CHUNK = 1 << 11

# the seeded mesh next to an infinite slope is cut at the distances
# _GRADING_RATIO^k w from it, k = 1 .. _GRADING_LEVELS, with w two grid
# panels or less (see _grid_panels)
_GRADING_RATIO = 0.25
_GRADING_LEVELS = 10
_GRADING = _GRADING_RATIO ** np.arange(1, _GRADING_LEVELS + 1)

# The power series of the harmonic rule and of its gap bounds (see
# _harmonic_rule and _gap_bounds) have _SERIES_TERMS terms, and the rule
# transforms its moments _BLOCK terms at a time.  The columns of _SERIES are
# sign(i^r) w_n xi_n^r / r!, then g_n xi_n^r / r!, r < _SERIES_TERMS, with
# sign(i^r) = (-1)^(r // 2); row r of _TAYLOR is sign(i^r) w_n / r!.
_SERIES_TERMS = 28
_BLOCK = 7
_SIGNS = (-1.0) ** (np.arange(_SERIES_TERMS) // 2)
_FACTORIALS = np.array([math.factorial(r) for r in range(_SERIES_TERMS)], dtype=np.float64)
_SERIES = (np.concatenate([weights[:, None] * _NODES[:, None] ** np.arange(_SERIES_TERMS)
                           / _FACTORIALS for weights in (_KRONROD_WEIGHTS, _GAP_WEIGHTS)], axis=1)
           * np.r_[_SIGNS, np.ones(_SERIES_TERMS)])
_TAYLOR = (_SIGNS / _FACTORIALS)[:, None] * _KRONROD_WEIGHTS


def _reduced_phase(m, u):
    """``u`` reduced to ``u - k pi``, ``k = rint(u / pi)``, for an integer
    ``m``, and the sign ``(-1)^k`` that ``sin(m u) / sin(u)`` then takes on
    for an even ``m``: the ratio at ``u`` is that sign times the ratio at
    the reduced phase, which lies in ``[-pi/2, pi/2]``.  The ratio has
    period ``pi`` for an odd ``m``, so its sign is ``None``, as it is for
    any other ``m``, whose ``u`` is returned as it is.  ``u`` is a float
    array."""
    if m % 1.0 != 0.0:
        return u, None
    k = np.rint(u / math.pi)
    return u - math.pi * k, None if m % 2.0 == 1.0 else 1.0 - 2.0 * (k % 2.0)


def _sin_ratio(m, u):
    """``sin(m u) / sin(u)`` elementwise, with the limit ``m`` at ``u == 0``.

    For an integer ``m`` every multiple of ``pi`` is a removable
    singularity too, and ``u`` is reduced modulo ``pi`` first (see
    :func:`_reduced_phase`); for any other ``m`` callers keep ``u`` away
    from the nonzero multiples of ``pi``, where the ratio has poles.
    ``sin`` keeps full relative accuracy for small arguments, so the plain
    quotient is accurate arbitrarily close to the singularity and only an
    exact zero needs the substitution.  The quotient is formed in one
    buffer; its ``0/0`` at ``u == 0`` is then overwritten with ``m``.
    """
    u, sign = _reduced_phase(m, np.asarray(u, dtype=np.float64))
    out = np.multiply(m, u, out=np.empty(u.shape))
    np.sin(out, out=out)
    with np.errstate(invalid="ignore"):
        np.divide(out, np.sin(u), out=out)
    out[u == 0.0] = m
    if sign is not None:
        out *= sign
    return out


def _check_sine_ratio(sine_ratio, lo, hi):
    """``sine_ratio = (m, scale, shift)`` as three floats, refused with
    :class:`DomainError` unless ``m`` is positive and finite, ``scale``
    finite and nonzero and ``shift`` finite, and, when ``m`` is not an
    integer, unless ``u = scale x + shift`` stays off every nonzero
    multiple of ``pi`` over ``[lo, hi]``: there ``sin(m u) / sin(u)`` has a
    pole, not a removable singularity."""
    try:
        m, scale, shift = (float(v) for v in sine_ratio)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"sine_ratio must be three numbers (m, scale, shift): {exc}") from None
    if not (math.isfinite(m) and m > 0):
        raise DomainError(f"sine_ratio m must be a positive finite number, got {m!r}")
    if not (math.isfinite(scale) and scale != 0):
        raise DomainError(f"sine_ratio scale must be a nonzero finite number, got {scale!r}")
    if not math.isfinite(shift):
        raise DomainError(f"sine_ratio shift must be a finite number, got {shift!r}")
    # Python floats overflow to inf without a warning
    u_lo, u_hi = sorted((scale * float(lo) + shift, scale * float(hi) + shift))
    if not (math.isfinite(u_lo) and math.isfinite(u_hi)):
        raise DomainError(f"sine_ratio phase overflows: u = {scale!r} x + {shift!r} "
                          f"over [{lo}, {hi}]")
    if m % 1.0 != 0.0:
        k_lo = math.ceil(u_lo / math.pi)
        k_hi = math.floor(u_hi / math.pi)
        if k_lo <= k_hi and not k_lo == k_hi == 0:
            raise DomainError(f"sin({m!r} u) / sin(u) has a pole at u = {k_lo if k_lo else 1} pi: "
                              f"u = {scale!r} x + {shift!r} over [{lo}, {hi}]; only an integer m "
                              f"allows that")
    return m, scale, shift


def _sine_ratio_weight(m, scale, shift, h, x_max):
    """The weight ``sin(m u) / sin(u)``, ``u = scale x + shift``, on a grid
    of panels of half-width ``h`` over ``|x| <= x_max``, as ``weight(mid,
    half, x)`` of :func:`_node_values`: its values at the nodes ``x`` of the
    panels with midpoints ``mid`` and half-widths ``half``, shape ``(P,
    15)``.

    A grid panel, whose half-width is ``h`` to within ``4 eps x_max`` (the
    rounding of the grid edges), takes the weight by angle addition: with
    ``u_c`` the phase of its midpoint, reduced modulo ``pi`` for an integer
    ``m`` (see :func:`_reduced_phase`), and ``d_j = scale h xi_j``, ``sin(m
    u) = sin(m u_c) cos(m d_j) + cos(m u_c) sin(m d_j)`` and likewise for
    ``sin(u)``, so it costs four trigonometric calls, and the 15 ``d_j`` are
    shared by the whole mesh.  The table's phases are those of the nominal
    ``h``, off by at most ``m |scale| |half - h|``, the order of the
    rounding of ``m u`` that the direct path makes.  Every other panel
    takes :func:`_sin_ratio` node by node: cut pieces, graded cuts, refined
    children, and a grid panel whose nodes lie within a few thousandths of
    its half-width of a zero of ``sin(u)``, where the two sums would
    cancel.  That guard serves every ``m``: on the grid of
    :func:`_plain_refine`, ``h = pi / (2 m |scale|)``, a panel spans more
    than ``pi / 2`` in ``u`` when ``m < 2``, and still only a panel whose
    nodes keep clear of every zero of ``sin(u)`` takes the table; for ``m =
    1`` the table's numerator and denominator are one computation, so the
    ratio is exactly 1.
    """
    # cos and sin of m d_j and of d_j: a panel's sin and cos of m u_c times
    # tables[0], and of u_c times tables[1], give sin(m u) and sin(u) at its
    # nodes
    angles = np.multiply.outer([m, 1.0], scale * h * _NODES)
    tables = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    slack = 4.0 * _EPS * x_max
    # the outermost nodes lie at 0.9915 half-widths: a zero of sin(u) at
    # least halfway from them to the panel's end leaves every node 0.004
    # half-widths or more away from it
    clear = 0.5 * (1.0 + _XGK[0]) * abs(scale) * h

    def weight(mid, half, x):
        u_c, sign = _reduced_phase(m, scale * mid + shift)
        grid = (np.abs(half - h) <= slack) & (np.abs(u_c) > clear)
        if not grid.any():
            return _sin_ratio(m, scale * x + shift)
        # sin and cos of the centre phases m u_c and u_c, shape (2, P, 2)
        centre = np.empty((2, u_c.shape[0], 2))
        theta = centre[..., 0]
        np.multiply(m, u_c, out=theta[0])
        theta[1] = u_c
        np.cos(theta, out=centre[..., 1])
        np.sin(theta, out=theta)
        # einsum rounds both products before their sum, as the formula
        # does and a BLAS product with fused multiply-adds need not, so the
        # weight is the same bit for bit whatever the chunk size
        out = np.einsum("pk,kj->pj", centre[0], tables[0])
        den = np.einsum("pk,kj->pj", centre[1], tables[1])
        # every panel is divided; those off the grid, which may divide by
        # zero here, are then overwritten node by node
        with np.errstate(divide="ignore", invalid="ignore"):
            out /= den
        if sign is not None:
            out *= sign[:, None]
        if not grid.all():
            direct = ~grid
            out[direct] = _sin_ratio(m, scale * x[direct] + shift)
        return out
    return weight


def _node_values(f, mid, half, weight=None):
    """``f`` at the 15 Kronrod nodes of every panel, ``_CHUNK`` panels per
    call, times ``weight(mid, half, x)`` when one is given.

    ``f`` maps a 1-D node array of length N to shape ``(N,)`` or
    ``(N, ncomp)``; the result has shape ``(P, 15)`` or ``(P, 15, ncomp)``,
    and ``weight``, shape ``(P, 15)``, multiplies every component.  Each
    chunk is written into that one array as it is evaluated.
    """
    out = None
    for start in range(0, mid.shape[0], _CHUNK):
        m = mid[start:start + _CHUNK]
        h = half[start:start + _CHUNK]
        x = m[:, None] + h[:, None] * _NODES
        w = None if weight is None else weight(m, h, x)
        y = np.asarray(f(x.ravel()), dtype=np.float64)
        if not np.isfinite(y).all():
            raise QuadratureError("integrand returned non-finite values")
        y = y.reshape(*x.shape, *y.shape[1:])
        if out is None:
            out = np.empty((mid.shape[0], *y.shape[1:]))
        if w is None:
            out[start:start + m.shape[0]] = y
        else:
            np.multiply(y, w.reshape(w.shape + (1,) * (y.ndim - 2)),
                        out=out[start:start + m.shape[0]])
    return out


def _check_edges(edges, tol, graded):
    """``edges`` as a strictly increasing float array, ``tol`` as a float
    and ``graded`` as a float array of points (see
    :func:`~trigconv.errors.check_points`)."""
    edges = as_floats(edges, "edges")
    if edges.ndim != 1 or edges.shape[0] < 2:
        raise DomainError("edges must be a 1-D array with at least two entries")
    # increasing edges over a finite span are finite; Python floats overflow silently
    if not (math.isfinite(float(edges[-1]) - float(edges[0])) and (np.diff(edges) > 0).all()):
        raise DomainError("edges must be finite and strictly increasing, over a finite span")
    return edges, check_real(tol, "tol", 0, open_lo=True), check_points(graded, "graded")


def _refine(f, mid, half, tol, moments, weight=None):
    """Refine a seeded mesh until ``moments`` meets ``tol`` over the whole mesh.

    Panels are given by their midpoints and half-widths, and their node
    values by :func:`_node_values` with ``f`` and ``weight``.  ``moments(mid,
    half, y)``, a pure function of the mesh and its node values, returns
    ``(totals, err, worst, *rest)``: integrals of shape ``(rows, ncomp)``,
    summed panel errors ``(rows,)``, every panel's largest error over the
    rows, and whatever else the rule computes per mesh.  Each round
    measures the mesh once, then accepts it, refuses it or splits it, so
    every mesh whose nodes ``f`` was evaluated on is measured.  Every row
    must get its error below one budget ``max(tol * max over components
    |total|, tol)``; a split bisects the panels whose largest error exceeds
    the smallest failing budget shared out over all ``P`` panels, ``budget
    / (2 P)``, and evaluates ``f`` on the children only.  A mesh that fails
    after ``_MAX_ROUNDS`` splits, or whose split would pass ``_MAX_PANELS``
    panels, is refused; the refusal names the row that missed its budget by
    the largest factor, with its error and budget.  Returns the moment
    rule's whole output on the final mesh, then ``mid, half, y``.
    """
    y = _node_values(f, mid, half, weight)
    for splits in range(_MAX_ROUNDS + 1):
        totals, err, worst, *rest = moments(mid, half, y)
        budgets = np.maximum(tol * np.abs(totals).max(axis=1), tol)
        bad = err > budgets
        if not bad.any():
            if not np.isfinite(totals).all():
                raise QuadratureError("integrand values overflow the integral")
            return (totals, err, worst, *rest, mid, half, y)
        # an error far above a tiny budget may overflow the ratio to inf
        with np.errstate(over="ignore"):
            row = np.argmax(err / budgets)
        miss = f"estimated error {err[row]:.3g} against a budget of {budgets[row]:.3g}"
        if splits == _MAX_ROUNDS:
            raise QuadratureError(f"refinement limit reached ({_MAX_ROUNDS} rounds) without "
                                  f"meeting tol={tol} ({miss})")
        split = worst > budgets[bad].min() / (2.0 * mid.shape[0])
        if mid.shape[0] + split.sum() > _MAX_PANELS:
            raise QuadratureError(
                f"panel budget {_MAX_PANELS} exhausted at tol={tol}; "
                f"integrand is too rough or the tolerance too tight ({miss})")
        quarter = 0.5 * half[split]
        child_mid = np.concatenate([mid[split] - quarter, mid[split] + quarter])
        child_half = np.tile(quarter, 2)
        keep = ~split
        y = np.concatenate([y[keep], _node_values(f, child_mid, child_half, weight)])
        mid = np.concatenate([mid[keep], child_mid])
        half = np.concatenate([half[keep], child_half])


def _panel_sums(half, y, weights):
    """Every panel's ``weights`` sum of every component of ``y``, shape
    ``(ncomp, P)``."""
    return np.einsum("pnc,n->cp", y.reshape(y.shape[0], _NODES.shape[0], -1), weights) * half


def _plain_moments(mid, half, y):
    """K15 integrals of every component of ``y`` over the whole mesh, in one
    row, the summed and the per-panel largest ``|K15 - G7|`` gaps, and the
    per-panel K15 sums, shape ``(ncomp, P)``.  Panels are summed one after
    the other in mesh order, as :func:`integrate_intervals` sums the panels
    of each interval."""
    sums = _panel_sums(half, y, _KRONROD_WEIGHTS)
    gaps = np.abs(_panel_sums(half, y, _GAP_WEIGHTS)).max(axis=0)
    return np.cumsum(sums, axis=1)[None, :, -1], np.cumsum(gaps)[-1:], gaps, sums


def _plain_refine(f, edges, tol, graded, sine_ratio):
    """The seeded mesh of :func:`_grid_panels` on ``edges``, graded toward
    ``graded``, refined by :func:`_refine` with the plain K15 moment rule;
    returns what :func:`_refine` returns.

    Without a weight the grid is one panel over the whole range, which the
    inner edges cut into one panel per interval.  With ``sine_ratio=(m,
    scale, shift)``, ``f`` is weighted by :func:`_sine_ratio_weight`, and
    the grid is that of the weight: the half-periods of ``sin(m u)``,
    panels ``pi / (m |scale|)`` wide, anchored at ``edges[0]``.
    """
    half = edges[-1] - edges[0]
    weight = None
    if sine_ratio is not None:
        m, scale, shift = _check_sine_ratio(sine_ratio, edges[0], edges[-1])
        # a half-width that overflows is held as _grid_panels holds its
        # width; one that underflows to 0 is refused there at the panel cap
        half = min(0.5 * math.pi / m / abs(scale), 0.5 * _HUGE)
        weight = _sine_ratio_weight(m, scale, shift, half, max(abs(edges[0]), abs(edges[-1])))
    points, _ = _grid_panels(edges, half, graded)
    return _refine(f, 0.5 * (points[:-1] + points[1:]), 0.5 * np.diff(points), tol,
                   _plain_moments, weight)


def integrate_intervals(f, edges, tol=1e-10, *, graded=(), sine_ratio=None):
    """Integrate ``f`` over every consecutive pair of ``edges`` at once.

    The mesh is seeded as in :func:`integrate`: by :func:`_grid_panels`,
    with one grid panel as wide as the whole range, which the inner edges
    cut into one panel per interval, or with the grid of the ``sine_ratio``
    weight, whose panels the inner edges cut; and graded toward the points
    of ``graded``.  It is refined with the plain K15 moment rule until the
    summed panel error of the whole mesh (the ``|K15 - G7|`` gaps of all its
    panels) falls below one budget ``max(tol * max over components |sum of
    values|, tol)`` over ``[edges[0], edges[-1]]``, as in
    :func:`integrate`.  Each final panel then goes to the interval that
    holds its midpoint (counted as the interior edges below it, so that a
    midpoint rounded onto an edge, on a panel a few ulps wide, still goes
    to an interval next to it), and each interval's value and error are the
    last round's K15 sums and gaps of its panels, added in mesh order.
    Returns ``(values, errors)`` with one entry per interval, whose errors
    add up to the one budget or less; when ``f`` returns several
    components per node, ``values`` has one row per interval.  Edges that
    are no numbers, and edges over a span that overflows, raise
    :class:`DomainError`.

    ``sine_ratio=(m, scale, shift)`` weights ``f`` by ``sin(m u) / sin(u)``,
    ``u = scale x + shift``, as in :func:`integrate`.  Edges on the
    weight's grid, such as the sign blocks of
    :func:`~trigconv.oscillatory.decompose`, which are the grid's own edges
    from :func:`_grid_panels`, leave its panels uncut.

    Every panel costs 15 integrand evaluations, made ``_CHUNK`` panels per
    call.  A call that needs more than ``_MAX_PANELS`` (32768) panels, at
    the start or during refinement, raises :class:`QuadratureError`; at the
    start, that happens before ``f`` is evaluated.
    """
    edges, tol, graded = _check_edges(edges, tol, graded)
    n_int = edges.shape[0] - 1
    _, _, worst, sums, mid, _, y = _plain_refine(f, edges, tol, graded, sine_ratio)
    owner = np.searchsorted(edges[1:-1], mid)
    values = np.stack([np.bincount(owner, v, n_int) for v in sums], axis=1)
    return (values[:, 0] if y.ndim == 2 else values), np.bincount(owner, worst, n_int)


def integrate(f, lo, hi, tol=1e-10, *, breakpoints=(), graded=(), sine_ratio=None):
    """Adaptive integral of ``f`` over ``[lo, hi]``.

    ``breakpoints`` lists interior abscissae that are forced to be panel
    boundaries (known kinks or jumps of ``f``); points outside the open
    interval are ignored.  ``graded`` lists abscissae where ``f`` has an
    infinite slope, such as the origin of ``sqrt(x - g)``: the seeded mesh
    next to each is cut geometrically toward it (see :func:`_grid_panels`);
    points outside ``[lo, hi]`` are ignored.  The mesh is seeded by
    :func:`_grid_panels`, one panel per interval between breakpoints
    without a weight, as in :func:`integrate_intervals`; an integrand that
    needs finer seeding passes the cuts as ``breakpoints``, as
    :func:`~trigconv.oscillatory.tail` passes the zeros of ``sin g`` as
    edges.  A range whose span ``hi - lo`` overflows, and breakpoints or
    graded points that are no numbers or NaN, raise :class:`DomainError`
    (see :func:`~trigconv.errors.check_points`).
    Each panel's half-width is half the gap between its two edges, so the
    panels tile ``[lo, hi]`` exactly.  The result's estimated error, the
    ``|K15 - G7|`` gaps summed over every panel, is below one budget
    ``max(tol * |integral|, tol)`` over the whole of ``[lo, hi]``.  Panel
    caps are those of :func:`integrate_intervals`.

    ``sine_ratio=(m, scale, shift)`` integrates ``f(x) sin(m u) / sin(u)``
    with ``u = scale x + shift`` instead, the removable singularity at
    ``u = 0`` taking the limit ``m``; the weight is the engine's, so the
    integrand stays ``f``.  The weight sets the seeding grid: the
    half-periods of ``sin(m u)``, panels ``pi / (m |scale|)`` wide,
    anchored at ``lo``, which the breakpoints cut.  Uncut grid panels get
    the weight by angle addition from four trigonometric calls each and
    one table of the 15 node offsets; every other panel gets it node by
    node (see the module notes).  ``m`` must be positive, ``scale`` nonzero
    and all three finite; unless ``m`` is an integer, where every multiple
    of ``pi`` is a removable singularity of the weight, ``u`` must stay off
    every nonzero multiple of ``pi`` over ``[lo, hi]``.  Anything else
    raises :class:`DomainError` before ``f`` is evaluated.  A grid of more
    than ``_MAX_PANELS`` panels, from a large ``m |scale|``, raises
    :class:`QuadratureError`, also before ``f`` is evaluated.
    """
    edges, tol, graded = _check_edges(_edges(lo, hi, breakpoints), tol, graded)
    totals, *_, y = _plain_refine(f, edges, tol, graded, sine_ratio)
    return float(totals[0, 0]) if y.ndim == 2 else totals[0]


def _edges(lo, hi, breakpoints):
    """``[lo, *breakpoints, hi]`` with points outside ``(lo, hi)`` dropped
    and points within ``1e-13 * (hi - lo)`` of the previous edge merged;
    ``breakpoints`` that are no numbers, or NaN, are refused (see
    :func:`~trigconv.errors.check_points`)."""
    lo = check_real(lo, "lo")
    hi = check_real(hi, "hi")
    span = hi - lo
    if not (math.isfinite(span) and span > 0):
        raise DomainError(f"need finite lo < hi with a finite span hi - lo, got [{lo}, {hi}]")
    inner = sorted(p for p in check_points(breakpoints, "breakpoints").tolist() if lo < p < hi)
    edges = [lo]
    for p in inner:
        if p - edges[-1] > 1e-13 * span:
            edges.append(p)
    if hi - edges[-1] <= 1e-13 * span:
        edges[-1] = hi
    else:
        edges.append(hi)
    return np.asarray(edges)


def _grid_panels(edges, half, graded=()):
    """The seeded mesh of every integrator: one grid of panels of
    half-width ``half`` with edges ``lo + 2 half p`` from ``lo = edges[0]``
    to ``hi = edges[-1]``, where each grid panel that holds an inner edge
    is cut there and the last one ends at ``hi``.

    One merge rule holds for every inner edge, whether the caller's, a
    graded point or a graded cut: an inner edge within the merge distance
    of :func:`_edges`, ``1e-13 (hi - lo)``, of a grid edge above ``lo``,
    above or below, is dropped, and that grid edge stands in for it; ``hi``
    within it ends the last grid panel.  So no panel is left as narrow as
    the rounding of ``lo + 2 half p``, and the panels next to such an edge
    stay grid panels.  With ``half = hi - lo`` the grid is one panel, which
    the inner edges cut into one panel per interval, however close they
    lie.

    Each point of ``graded`` in ``[lo, hi]`` (an infinite slope of the
    integrand) is an edge too, unless an edge lies within the merge
    distance of it and stands in for it.  The mesh on each side of that
    edge ``g`` is then cut geometrically toward it, at ``g -/+
    _GRADING_RATIO^k w`` for ``k = 1 .. _GRADING_LEVELS``, where ``w`` is
    the width of two grid panels, or the distance to the next edge on that
    side if that is less; so, up to that edge, no uncut grid panel lies
    closer to ``g`` than half its width, wherever the grid edges fall.
    ``lo`` and ``hi`` are graded on the inside only.  These cuts are inner
    edges (see :func:`_graded_edges`), merged with the grid edges by the
    one rule above.  Composite Gauss rules on such a mesh converge
    exponentially toward an algebraic end point (Schwab, *Computing* 53,
    1994), so an end like ``sqrt(x - g)`` costs about ``2
    _GRADING_LEVELS`` seeded panels instead of one refinement round of the
    whole mesh per level.

    Returns the panel edges in ascending order and, per panel, whether it
    is an uncut grid panel; :func:`integrate_harmonics` gives those the
    half-width ``half``, by which :func:`_harmonic_rule` tells them apart.
    A mesh of more than ``_MAX_PANELS`` panels, graded cuts included,
    raises :class:`QuadratureError` before any array of its size is built
    or any integrand is evaluated.
    """
    lo = edges[0]
    merge = 1e-13 * (edges[-1] - lo)
    graded = [float(p) for p in graded if lo <= p <= edges[-1]]
    # the grid panel of every edge: lo + index * width <= edge < lo + (index + 1) * width;
    # a huge count, or a width that underflows, must reach the cap check, and
    # a width that overflows is held to the largest float, still above hi - lo
    with np.errstate(all="ignore"):
        width = min(2.0 * half, _HUGE)
        if graded:
            edges = _graded_edges(edges, np.array(graded), width, merge)
        index = np.floor((edges - lo) / width)
        index -= lo + index * width > edges
        index += lo + (index + 1.0) * width <= edges
        # lo, an end of the range, stands in for no inner edge
        off_below = (edges - (lo + index * width) > merge) | (index == 0)
        off_above = lo + (index + 1.0) * width - edges > merge
        hi_on_grid = not (off_below[-1] and off_above[-1])
    # the grid edges below hi, then one panel more for each inner edge
    # farther than the merge distance from both ends of its grid panel;
    # compared in floating point, so that a huge count cannot wrap in the
    # cast
    n_grid = index[-1] + off_below[-1]
    cuts = edges[1:-1][(off_below & off_above)[1:-1]]
    n_panels = n_grid + cuts.shape[0]
    if not n_panels <= _MAX_PANELS:
        raise QuadratureError(f"initial subdivision needs {n_panels:.0f} panels, above the cap "
                              f"{_MAX_PANELS}, over [{lo}, {edges[-1]}]")
    points = np.concatenate([lo + width * np.arange(n_grid), cuts, edges[-1:]])
    on_grid = np.concatenate([np.ones(int(n_grid), dtype=bool),
                              np.zeros(cuts.shape[0], dtype=bool), [hi_on_grid]])
    order = np.argsort(points, kind="stable")
    on_grid = on_grid[order]
    return points[order], on_grid[:-1] & on_grid[1:]


def _graded_edges(edges, graded, width, merge):
    """``edges`` with the points of ``graded`` and the cuts toward them
    added, in strictly ascending order, as :func:`_grid_panels` describes,
    on a grid of panels ``width`` wide with the merge distance ``merge``.
    A cut within the merge distance of its point or of the next edge on its
    side is left out here; one next to a grid edge is left to
    :func:`_grid_panels`, which drops it as it drops any inner edge there.
    Past ``edges[0]`` and ``edges[-1]`` the distance to the next edge is
    NaN, which drops every cut there."""
    pos = np.clip(np.searchsorted(edges, graded), 1, edges.shape[0] - 1)
    pos -= graded - edges[pos - 1] < edges[pos] - graded
    near = np.abs(edges[pos] - graded) <= merge
    # a few points, so sets (np.unique would import numpy.ma, about 1 MB)
    g = np.array(sorted(set(np.where(near, edges[pos], graded).tolist())))
    edges = np.sort(np.concatenate([edges, sorted(set(graded[~near].tolist()))]))
    j = np.searchsorted(edges, g)
    parts = [edges]
    for side, gap in ((-1.0, g - np.r_[np.nan, edges][j]), (1.0, np.r_[edges, np.nan][j + 1] - g)):
        w = np.minimum(gap, 2.0 * width)[:, None]
        d = w * _GRADING
        parts.append((g[:, None] + side * d)[(d > merge) & (w - d > merge)])
    # where one ulp exceeds the merge distance a cut can round onto a listed point
    points = np.sort(np.concatenate(parts))
    return points[np.r_[True, points[1:] > points[:-1]]]


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


def _gap_bounds(powers, h_ref, half, y):
    """A bound on the K15 - G7 gap of every panel's integrals of ``y(x)
    exp(ikx)``, ``k = 0 .. n_max``, given ``powers[r, k] = (k h_ref)^r``.

    A panel with midpoint ``m`` and half-width ``h`` has the gap ``exp(ikm)
    sum_r (ikh)^r mu_r`` with ``mu_r = h sum_n g_n xi_n^r / r! y_n``, so
    ``|gap| <= sum_r (kh)^r |mu_r|`` whatever the phase.  With ``h_ref``
    the half-width of the grid, which no panel exceeds, that bound is a
    polynomial in ``k h_ref`` with the coefficients ``(h / h_ref)^r
    |mu_r|``.  Returns the bounds summed over all panels, shape ``(n_max +
    1,)``, and every panel's bound at ``k = n_max``, the largest.
    """
    mu = _SERIES[:, _SERIES_TERMS:].T @ y.T
    np.abs(mu, out=mu)
    # row r is scaled by h (h / h_ref)^r
    ratio = half / h_ref
    scale = half.copy()
    for mu_row in mu:
        mu_row *= scale
        scale *= ratio
    return powers.T @ mu.sum(axis=1), powers[:, -1] @ mu


def _harmonic_rule(n_max, lo, size):
    """The moment rule of :func:`integrate_harmonics` on the grid of
    ``size`` cells of half-width ``h = pi / size`` per period, anchored at
    ``lo``: ``moments(mid, half, y)`` as :func:`_refine` calls it.

    A panel in cell ``p``, centre ``c = lo + (2p + 1) h``, has the K15
    integrals ``exp(ikc) sum_r (kh)^r i^r nu_r`` with the moments ``nu_r =
    half sum_n w_n y_n t_n^r / r!`` of its node offsets ``t_n = (x_n - c) /
    h`` (see the module notes).  As ``2hk`` is a multiple of ``2 pi /
    size``, ``exp(ikc) = exp(ik(lo + h)) exp(2 pi i kp / size)``, so the
    sums over all panels are ``exp(ik(lo + h)) sum_r (kh)^r i^r
    conj(F_r[k])``, where ``F_r`` is the real FFT of the row ``nu_r`` folded
    by cell modulo ``size``.  The rows are built, folded and transformed
    ``_BLOCK`` at a time, so that no array holds all ``_SERIES_TERMS``
    rows.  Every harmonic's error comes from :func:`_gap_bounds`.

    An uncut grid panel is taken as centred, so the offsets of the other
    panels are measured from the same floating-point centre, the midpoint
    that cell's grid panel has in the seeded mesh, between the grid edges
    of :func:`_grid_panels`.  Then a cut or refined panel keeps the phases
    of the grid panel it lies in, up to the rounding of its own midpoint.
    A centre rounded on its own would shift every cell by its own ``eps
    |c|``, and move the coefficients of the square wave at ``n_max = 4000``
    and tol ``1e-12``, where every panel is split, by ``2e-13`` instead of
    ``8e-16``.
    """
    h = math.pi / size
    k = np.arange(n_max + 1, dtype=np.float64)
    # powers[r, k] = (kh)^r
    powers = np.empty((_SERIES_TERMS, n_max + 1))
    powers[0] = 1.0
    kh = k * h
    for r in range(1, _SERIES_TERMS):
        np.multiply(powers[r - 1], kh, out=powers[r])
    # the moments of an uncut grid panel per node value
    centred = h * _SERIES[:, :_SERIES_TERMS]
    shift = np.exp(1j * (k * (lo + h)))

    def moments(mid, half, y):
        err, worst = _gap_bounds(powers, h, half, y)
        p = np.floor((mid - lo) / (2.0 * h))
        # row j of a block of moments is folded into the columns j size ..
        # (j + 1) size - 1 by cell modulo size
        index = ((p % size).astype(np.intp) + size * np.arange(_BLOCK)[:, None]).ravel()
        off = np.flatnonzero(half != h)
        # the node offsets of the panels off the grid from their cell's
        # centre, the midpoint its grid panel has in the seeded mesh, and
        # their terms half y_n t_n^r, raised one power of t per row from r = 0
        edges = lo + 2.0 * h * np.stack([p[off], p[off] + 1.0])
        t = (((mid[off] - 0.5 * (edges[0] + edges[1])) / h)[:, None]
             + (half[off] / h)[:, None] * _NODES)
        term = half[off, None] * y[off]
        off_rows = np.empty((_BLOCK, off.shape[0]))
        # sum_r (kh)^r (-i)^(r mod 2) F_r, the conjugate of the sums over the
        # rows' harmonics, as i^r = sign(i^r) i^(r mod 2) and nu_r holds sign(i^r)
        sums = np.zeros(n_max + 1, dtype=np.complex128)
        for start in range(0, _SERIES_TERMS, _BLOCK):
            nu = centred[:, start:start + _BLOCK].T @ y.T
            if off.size:
                for r, row in enumerate(off_rows, start):
                    if r:
                        term *= t
                    np.matmul(term, _TAYLOR[r], out=row)
                nu[:, off] = off_rows
            folded = np.bincount(index, nu.ravel(), _BLOCK * size).reshape(_BLOCK, size)
            z = np.fft.rfft(folded)[:, :n_max + 1]
            z *= powers[start:start + _BLOCK]
            z[(start + 1) % 2::2] *= -1j
            sums += z.sum(axis=0)
        sums = shift * sums.conj()
        return np.stack([sums.real, sums.imag], axis=1), err, worst
    return moments


def integrate_harmonics(f, lo, hi, n_max, tol=1e-10, *, breakpoints=(), graded=()):
    """Integrals of ``f(x) cos(kx)`` and ``f(x) sin(kx)`` over ``[lo, hi]``
    for every ``k = 0 .. n_max``, from one shared adaptive mesh.

    The mesh is seeded with one grid anchored at ``lo``: ``M =
    _fft_length(2 (n_max + 1))`` panels of half-width ``h = pi / M`` per
    period ``2 pi``, so ``kh <= pi/2``.  Panels that hold one of
    ``breakpoints`` (as in :func:`integrate`) are cut there, the mesh next
    to each point of ``graded`` is cut geometrically toward it (as in
    :func:`integrate`; every piece stays inside its grid panel, so ``kh <=
    pi/2`` still holds), and the last is clipped at ``hi``.  ``f`` is
    evaluated once per Kronrod node, ``_CHUNK`` panels per call, and its
    values are kept per panel.  Every panel, uncut, cut or refined, gets
    every harmonic from one transform: its moments about the centre of its
    grid cell, ``r < 28`` of them, folded by cell modulo ``M`` (so spans
    longer than ``2 pi`` fold too) and put through one real FFT per moment,
    in ``O(M log M)`` work (see :func:`_harmonic_rule`).

    The grid comes from :func:`_grid_panels`, as in :func:`integrate`, and
    its uncut panels keep the half-width ``h`` (a last panel whose end is
    within ``1e-13 (hi - lo)`` of a grid edge is one of them).  The mesh is
    refined by the same loop and the same rule as :func:`integrate`, with
    one budget per harmonic over the whole of ``[lo, hi]``: until the
    error of every harmonic ``k`` falls below ``max(tol * max(|cos
    integral|, |sin integral|), tol)``.  That error is the sum over all
    panels of ``sum_r (kh)^r |mu_r|``, ``r < 28``, a bound on the modulus
    of the panel's K15 - G7 gap of ``f(x) exp(ikx)`` that holds at every
    phase (both series are cut where ``kh <= pi/2`` leaves out less than
    ``1e-24`` relative; see :func:`_gap_bounds`).

    Returns ``(cos_integrals, sin_integrals, errors)``, each of length
    ``n_max + 1``.  ``errors[k]`` estimates harmonic ``k``'s absolute error:
    its gap bounds summed over all panels, plus a rounding term ``eps * (50
    + k * max|x|) * integral of |f|``.  The gap bounds measure truncation
    only.  Rounding the phase ``k x`` costs up to ``eps * k * |x|``
    relative per node, and so does rounding the centre of a cut or refined
    panel's cell; QUADPACK's ``50 * eps`` allowance covers the rest of the
    arithmetic, the FFTs included, whose phases are exact roots of unity.
    A mesh that needs more than ``_MAX_PANELS`` panels raises
    :class:`QuadratureError`; when the seeded mesh alone is too large, that
    happens before ``f`` is evaluated.
    """
    edges, tol, graded = _check_edges(_edges(lo, hi, breakpoints), tol, graded)
    size = _fft_length(2 * (n_max + 1))
    h = math.pi / size
    try:
        points, uncut = _grid_panels(edges, h, graded)
    except QuadratureError as exc:
        raise QuadratureError(f"n_max={n_max}: {exc}") from None
    totals, err, _, _, half, y = _refine(f, 0.5 * (points[:-1] + points[1:]),
                                         np.where(uncut, h, 0.5 * np.diff(points)), tol,
                                         _harmonic_rule(n_max, edges[0], size))
    abs_integral = (half * (np.abs(y) @ _KRONROD_WEIGHTS)).sum()
    x_max = max(abs(edges[0]), abs(edges[-1]))
    rounding = _EPS * (50.0 + np.arange(n_max + 1) * x_max) * abs_integral
    cos_int, sin_int = totals.T
    return cos_int, sin_int, err + rounding
