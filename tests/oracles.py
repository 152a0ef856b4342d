"""Independent reference computations for freezing expected test values.

Everything here is brute force or from another library — composite fixed
rules, closed-form coefficient sums, high-precision closed forms in mpmath
and QUADPACK's oscillatory rule QAWO through scipy — and shares no code
with the package's own adaptive quadrature.
"""

import math

import numpy as np


def composite_simpson(f, a, b, panels):
    """Composite Simpson rule with ``panels`` parabolic panels."""
    x = np.linspace(a, b, 2 * panels + 1)
    y = f(x)
    h = (b - a) / (2 * panels)
    return float((h / 3.0) * (y[0] + y[-1] + 4.0 * y[1::2].sum() + 2.0 * y[2:-1:2].sum()))


def sinc_block_magnitude(nu, panels=10**6):
    """``|integral of sin(g)/g|`` over ``[(nu-1) pi, nu pi]`` by brute force."""
    value = composite_simpson(lambda g: np.sinc(g / math.pi),
                              (nu - 1) * math.pi, nu * math.pi, panels)
    return abs(value)


def sawtooth_sine_coefficient(k):
    """Sine coefficient of the identity function, by parts: 2 (-1)^(k+1) / k."""
    return 2.0 * (-1.0) ** (k + 1) / k


def sawtooth_partial_sum(x, n):
    k = np.arange(1, n + 1, dtype=np.float64)
    return float(np.sum(2.0 * (-1.0) ** (k + 1) / k * np.sin(k * x)))


def square_sine_coefficient(k):
    """Sine coefficient of the odd unit step: 4/(pi k) for odd k, else 0."""
    return 0.0 if k % 2 == 0 else 4.0 / (math.pi * k)


def square_partial_sum(x, n):
    k = np.arange(1, n + 1, dtype=np.float64)
    coeff = np.where(k % 2 == 1, 4.0 / (math.pi * k), 0.0)
    return float(np.sum(coeff * np.sin(k * x)))


def slope_direction(kind, params):
    """The direction of a spec primitive from the sign of its slope, read
    off the spec's parameters: ``b`` for ``affine``, ``a`` times ``b`` for
    ``exponential``, ``a`` for ``power`` (``p > 0``), and the common sign of
    the ``ys`` steps for ``monotone-table``; ``None`` for a table whose
    steps do not share one."""
    if kind == "constant":
        return "constant"
    if kind == "monotone-table":
        ys = params["ys"]
        signs = {(y1 > y0) - (y1 < y0) for y0, y1 in zip(ys, ys[1:])}
        sign = signs.pop() if len(signs) == 1 else None
    elif kind == "affine":
        sign = np.sign(params["b"])
    elif kind == "exponential":
        sign = np.sign(params["a"]) * np.sign(params["b"])
    else:  # power
        sign = np.sign(params["a"])
    return {1: "increasing", -1: "decreasing", 0: "constant", None: None}[sign]


def dirichlet_kernel_mp(n, t, dps=50):
    """``sin((n + 1/2) t) / (2 sin(t/2))`` in ``dps``-digit arithmetic, for
    the float ``t`` taken exactly; ``t`` must be nonzero."""
    import mpmath  # imported on use: the other oracles need only numpy

    with mpmath.workdps(dps):
        t = mpmath.mpf(t)
        return float(mpmath.sin((n + mpmath.mpf(0.5)) * t) / (2 * mpmath.sin(t / 2)))


def sine_ratio_mp(i, beta, dps=50):
    """``sin(i b) / sin(b)`` in ``dps``-digit arithmetic, for the float
    ``beta`` taken exactly; ``sin(beta)`` must not vanish."""
    import mpmath

    with mpmath.workdps(dps):
        beta = mpmath.mpf(beta)
        return float(mpmath.sin(i * beta) / mpmath.sin(beta))


def qawo_coefficients(f, k):
    """``(a_k, b_k)`` of a parsed spec by QUADPACK's QAWO rule
    (``scipy.integrate.quad`` with a ``cos``/``sin`` weight), ``k >= 1``.

    One call per smooth piece: each segment, cut at its table knots, is
    integrated through its own closed form, so no piece crosses a jump.
    """
    from scipy.integrate import quad  # imported on use: the other oracles need only numpy

    sums = {"cos": 0.0, "sin": 0.0}
    for seg in f.segments:
        knots = seg.params["xs"] if seg.kind == "monotone-table" else (seg.lo, seg.hi)
        for lo, hi in zip(knots[:-1], knots[1:]):
            def piece(x, seg=seg):
                return float(seg.values(np.array([x]))[0])
            for weight in sums:
                sums[weight] += quad(piece, lo, hi, weight=weight, wvar=k,
                                     epsabs=1e-12, epsrel=1e-12, limit=400)[0]
    return sums["cos"] / math.pi, sums["sin"] / math.pi



def exact_harmonic_integrals(f, ks, dps=30):
    """``integral of f(x) exp(ikx)`` over ``[-pi, pi]`` for each ``k`` of
    ``ks``, in closed form segment by segment, in ``dps``-digit arithmetic.

    Constant, affine, exponential and monotone-table (linear between knots)
    pieces have elementary antiderivatives; a power piece ``a (x - x0)^p``
    is ``a exp(ikx0) integral of u^p exp(iku) du``, an incomplete gamma
    function of ``-iku`` (``mpmath.gammainc``).  Segment ends and parameters
    are taken exactly as the floats the spec parsed to.
    """
    import mpmath  # imported on use: the other oracles need only numpy

    def linear(a, b, c, lo, hi):
        # integral of (a + b x) exp(cx) over [lo, hi]
        if c == 0:
            return a * (hi - lo) + b * (hi ** 2 - lo ** 2) / 2
        def antiderivative(x):
            return mpmath.exp(c * x) * ((a + b * x) / c - b / c ** 2)
        return antiderivative(hi) - antiderivative(lo)

    def segment(seg, k):
        p = {key: mpmath.mpf(v) for key, v in seg.params.items() if key not in ("xs", "ys")}
        lo, hi, ik = mpmath.mpf(seg.lo), mpmath.mpf(seg.hi), mpmath.mpc(0, k)
        if seg.kind == "constant":
            return linear(p["c"], 0, ik, lo, hi)
        if seg.kind == "affine":
            return linear(p["a"], p["b"], ik, lo, hi)
        if seg.kind == "exponential":
            return p["a"] * linear(1, 0, p["b"] + ik, lo, hi)
        if seg.kind == "monotone-table":
            xs = [mpmath.mpf(x) for x in seg.params["xs"]]
            ys = [mpmath.mpf(y) for y in seg.params["ys"]]
            total = mpmath.mpc(0)
            for x0, x1, y0, y1 in zip(xs[:-1], xs[1:], ys[:-1], ys[1:]):
                slope = (y1 - y0) / (x1 - x0)
                total += linear(y0 - slope * x0, slope, ik, x0, x1)
            return total
        if seg.kind == "power":
            u1, u2, q = lo - p["x0"], hi - p["x0"], p["p"]
            if k == 0:
                return p["a"] * (u2 ** (q + 1) - u1 ** (q + 1)) / (q + 1)
            return (p["a"] * mpmath.expj(k * p["x0"]) * (1j / mpmath.mpf(k)) ** (q + 1)
                    * mpmath.gammainc(q + 1, -ik * u1, -ik * u2))
        raise ValueError(f"no closed form for kind {seg.kind!r}")

    with mpmath.workdps(dps):
        return np.array([complex(mpmath.fsum(segment(seg, int(k)) for seg in f.segments))
                         for k in ks])
