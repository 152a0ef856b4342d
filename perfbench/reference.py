"""Independent references for the accuracy gate.

Nothing here imports ``trigconv``: function specs are evaluated from their
JSON documents directly, and integrals use a fixed composite
Gauss-Legendre rule (20 nodes per panel, panels no wider than the
integrand's finest oscillation, graded geometrically towards the
``x0`` singularity of ``power`` segments).  Closed forms cover the square,
sawtooth and triangle waves; ``scipy.special.sici`` covers the sine-integral
tail; the harmonic number and ``mpmath.altzeta`` cover the probe series.
"""

from __future__ import annotations

import math

import numpy as np

PI = math.pi
_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)
_GRADING = 0.15
_GRADED_LEVELS = 24


def _endpoint(value):
    if value == "pi":
        return PI
    if value == "-pi":
        return -PI
    return float(value)


class SpecFunction:
    """A function spec evaluated straight from its JSON document."""

    def __init__(self, doc):
        self.segments = []
        for raw in doc["segments"]:
            seg = dict(raw)
            seg["lo"] = _endpoint(raw["lo"])
            seg["hi"] = _endpoint(raw["hi"])
            params = dict(raw["params"])
            if raw["kind"] == "monotone-table":
                params["xs"] = np.array([_endpoint(v) for v in params["xs"]])
                params["ys"] = np.array(params["ys"], dtype=float)
            seg["params"] = params
            self.segments.append(seg)
        self.segments.sort(key=lambda s: s["lo"])
        self.edges = np.array([s["lo"] for s in self.segments] + [PI])

    @staticmethod
    def _values(seg, x):
        p = seg["params"]
        kind = seg["kind"]
        if kind == "constant":
            return np.full(x.shape, float(p["c"]))
        if kind == "affine":
            return p["a"] + p["b"] * x
        if kind == "exponential":
            return p["a"] * np.exp(p["b"] * x)
        if kind == "power":
            return p["a"] * np.maximum(x - p["x0"], 0.0) ** p["p"]
        if kind == "monotone-table":
            return np.interp(x, p["xs"], p["ys"])
        raise ValueError(f"unknown kind {kind!r}")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(self.edges, x, side="right") - 1,
                      0, len(self.segments) - 1)
        out = np.empty(x.shape)
        for j, seg in enumerate(self.segments):
            sel = idx == j
            if sel.any():
                out[sel] = self._values(seg, x[sel])
        return out

    def scale(self):
        """Largest |f| over the period (monotone pieces peak at their ends)."""
        ends = [self._values(s, np.array([s["lo"], s["hi"]])) for s in self.segments]
        return float(max(np.abs(e).max() for e in ends))

    def one_sided(self, x):
        """``(f(x-), f(x+))``, with the periodic pair at ``x = +-pi``."""
        first = self.segments[0]
        last = self.segments[-1]
        if x in (-PI, PI):
            return (float(self._values(last, np.array([PI]))[0]),
                    float(self._values(first, np.array([-PI]))[0]))
        for left, right in zip(self.segments, self.segments[1:]):
            if x == right["lo"]:
                return (float(self._values(left, np.array([x]))[0]),
                        float(self._values(right, np.array([x]))[0]))
        value = float(self(np.array([x]))[0])
        return value, value

    def pieces(self, lo, hi):
        """Smooth pieces of ``f`` inside ``[lo, hi]`` as ``(a, b, graded)``:
        ``graded`` marks a ``power`` segment whose singular point is ``a``."""
        out = []
        for seg in self.segments:
            a, b = max(seg["lo"], lo), min(seg["hi"], hi)
            if a >= b:
                continue
            knots = [a, b]
            if seg["kind"] == "monotone-table":
                knots = sorted({a, b, *(float(v) for v in seg["params"]["xs"]
                                        if a < v < b)})
            singular = (seg["kind"] == "power" and seg["params"]["x0"] == a
                        and float(seg["params"]["p"]) % 1.0 != 0.0)
            for j, (p, q) in enumerate(zip(knots, knots[1:])):
                out.append((p, q, singular and j == 0))
        return out


def _panels(pieces, width):
    """Panel edges covering each piece, no panel wider than ``width``."""
    starts, stops = [], []
    for a, b, graded in pieces:
        cuts = [a, b]
        if graded:
            cuts = [a] + [a + (b - a) * _GRADING ** j
                          for j in range(_GRADED_LEVELS, 0, -1)] + [b]
        for p, q in zip(cuts, cuts[1:]):
            count = max(1, math.ceil((q - p) / width))
            pts = np.linspace(p, q, count + 1)
            starts.append(pts[:-1])
            stops.append(pts[1:])
    return np.concatenate(starts), np.concatenate(stops)


def _nodes(pieces, width):
    a, b = _panels(pieces, width)
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + half[:, None] * _GL_X
    w = half[:, None] * _GL_W
    return x.ravel(), w.ravel()


def _integrate(fn, pieces, width, weight, chunk=1 << 20):
    """``integral of fn * weight`` over ``pieces``, evaluated in chunks."""
    x, w = _nodes(pieces, width)
    total = 0.0
    for start in range(0, x.shape[0], chunk):
        xs = x[start:start + chunk]
        total += float(np.dot(w[start:start + chunk], fn(xs) * weight(xs)))
    return total


def coefficients(f, harmonics):
    """``(a0, a_k, b_k)`` of ``f`` for the listed harmonics ``k >= 1``."""
    harmonics = np.asarray(harmonics, dtype=float)
    pieces = f.pieces(-PI, PI)
    width = PI / (harmonics.max() + 1)
    x, w = _nodes(pieces, width)
    fw = f(x) * w
    a0 = float(fw.sum()) / (2.0 * PI)
    a = np.array([np.dot(fw, np.cos(k * x)) for k in harmonics]) / PI
    b = np.array([np.dot(fw, np.sin(k * x)) for k in harmonics]) / PI
    return a0, a, b


def _dirichlet(n, u):
    """``sin((n + 1/2) u) / (2 sin(u/2))`` for ``u`` in ``(-pi, pi]``."""
    den = 2.0 * np.sin(0.5 * u)
    safe = np.where(den == 0.0, 1.0, den)
    return np.where(den == 0.0, n + 0.5, np.sin((n + 0.5) * u) / safe)


def partial_sum(f, x, n):
    """Order-``n`` partial sum at ``x`` as ``(1/pi) integral f(a) D_n(a - x)``.

    The kernel argument is folded into ``(-pi, pi]`` by exact float
    differences, so the kernel is accurate where ``a - x`` nears ``+-2 pi``.
    """
    def weight(alpha):
        u = alpha - x
        u = np.where(u > PI, (alpha - PI) - (x + PI), u)
        u = np.where(u <= -PI, (alpha + PI) - (x - PI), u)
        return _dirichlet(n, u)
    return _integrate(f, f.pieces(-PI, PI), PI / (n + 1), weight) / PI


def sine_ratio_integral(f, i, lo, hi):
    """``integral of f(b) sin(i b) / sin(b)`` over ``[lo, hi]`` in ``[0, pi/2]``."""
    def weight(b):
        return np.sin(i * b) / np.sin(b)
    return _integrate(f, f.pieces(lo, hi), PI / i, weight)


def sine_ratio_weights(i, edges):
    """Block integrals of the weight ``sin(i b)/sin(b)`` between ``edges``."""
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _GL_X
    return (half[:, None] * _GL_W * np.sin(i * x) / np.sin(x)).sum(axis=1)


def square(c, d, harmonics):
    """Coefficients of ``d + c sign(x)``."""
    k = np.asarray(harmonics, dtype=float)
    odd = np.asarray(harmonics) % 2 == 1
    return d, np.zeros_like(k), np.where(odd, 4.0 * c / (PI * k), 0.0)


def sawtooth(c, d, harmonics):
    """Coefficients of ``d + c x``."""
    k = np.asarray(harmonics, dtype=float)
    sign = np.where(np.asarray(harmonics) % 2 == 1, 1.0, -1.0)
    return d, np.zeros_like(k), 2.0 * c * sign / k


def triangle(c, d, harmonics):
    """Coefficients of ``d + c |x|``."""
    k = np.asarray(harmonics, dtype=float)
    odd = np.asarray(harmonics) % 2 == 1
    return d + c * PI / 2.0, np.where(odd, -4.0 * c / (PI * k * k), 0.0), np.zeros_like(k)


CLOSED_FORMS = {"square": square, "sawtooth": sawtooth, "triangle": triangle}


def closed_partial_sum(form, c, d, x, n):
    a0, a, b = CLOSED_FORMS[form](c, d, np.arange(1, n + 1))
    k = np.arange(1, n + 1)
    return a0 + float(np.dot(a, np.cos(k * x)) + np.dot(b, np.sin(k * x)))


def dirichlet_mp(n, t):
    """The summation kernel at one point, to 30 significant digits."""
    import mpmath
    with mpmath.workdps(30):
        t = mpmath.mpf(t)
        return float(mpmath.sin((n + mpmath.mpf(1) / 2) * t) / (2 * mpmath.sin(t / 2)))


def sine_tail_terms(n):
    """``|integral of sin(g)/g|`` over ``[(nu-1) pi, nu pi]`` for ``nu = 1..n``."""
    from scipy.special import sici
    si = sici(np.arange(n + 1) * PI)[0]
    return np.abs(np.diff(si))


def harmonic(n):
    """``H_n`` from its asymptotic expansion (error below 1e-25 for n >= 1e5)."""
    if n < 100000:
        return math.fsum(1.0 / k for k in range(1, n + 1))
    return (math.log(n) + 0.57721566490153286 + 1.0 / (2 * n)
            - 1.0 / (12 * n * n) + 1.0 / (120 * n ** 4))


def alternating_root_sum(n):
    """``sum_{k<=n} (-1)^k / sqrt(k)`` from ``-eta(1/2)`` and the
    Euler-Boole expansion of the tail (error below 1e-20 for n >= 1e5)."""
    import mpmath
    a = n + 1.0
    tail = (-1.0) ** (n + 1) * (0.5 / math.sqrt(a) + 0.125 / a ** 1.5)
    return -float(mpmath.altzeta(0.5)) - tail


def band_escape(kind, bound, limit=100000):
    """First index whose partial sum leaves ``[bound, -bound]``, by a plain
    loop; ``None`` when none does within ``limit`` terms."""
    total = 0.0
    for k in range(1, limit + 1):
        alt = (1.0 if k % 2 == 0 else -1.0) / math.sqrt(k)
        total += {"u": alt, "v": alt + 1.0 / k, "diff": -1.0 / k}[kind]
        if total < bound or total > -bound:
            return k
    return None
