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


def dirichlet_kernel_mp(n, t, dps=50):
    """``sin((n + 1/2) t) / (2 sin(t/2))`` in ``dps``-digit arithmetic, for
    the float ``t`` taken exactly; ``t`` must be nonzero."""
    import mpmath  # imported on use: the other oracles need only numpy

    with mpmath.workdps(dps):
        t = mpmath.mpf(t)
        return float(mpmath.sin((n + mpmath.mpf(0.5)) * t) / (2 * mpmath.sin(t / 2)))


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
