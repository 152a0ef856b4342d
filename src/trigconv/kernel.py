"""The order-n trigonometric summation kernel, two ways.

``cosine_sum`` evaluates ``1/2 + cos t + cos 2t + ... + cos nt`` term by
term and adds the cosines exactly, rounding once: each chunk of cosines is
split without error into a few level sums and residuals by the extraction
of Rump, Ogita and Oishi (*Accurate floating-point summation part I*, SIAM
J. Sci. Comput. 31(1), 2008), and :func:`math.fsum` rounds those short
lists, so no per-term Python float is made.  ``dirichlet_kernel`` evaluates
the equivalent closed form
``sin((n + 1/2) t) / (2 sin(t/2))``, which is ``R_{2n+1}(t/2) / 2`` for the
ratio ``R_m(u) = sin(m u) / sin(u)``.  That ratio, also the sign-block
weight of :mod:`trigconv.oscillatory`, is computed in one place,
:func:`trigconv.quadrature._sin_ratio`, which reduces ``u`` modulo ``pi``
for an integer order and then needs the limit value only where ``u`` is
exactly zero; the quadrature engine applies it as the ``sine_ratio``
weight, which is how :func:`kernel_mean` integrates the kernel.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MAX_ORDER, check_finite, check_integer, check_real
from .quadrature import _sin_ratio, integrate

# cosines evaluated and split per chunk of this many terms, into reused buffers
_CHUNK = 1 << 14
# extraction levels per chunk: each takes 53 - ceil(log2(_CHUNK + 2)) = 38 bits
_LEVELS = 3


def _extract(x, parts, scratch):
    """Append to ``parts`` a few floats whose exact sum is that of ``x``.

    Each level takes ``sigma = 2^ceil(log2(len + 2)) * 2^ceil(log2
    max|x|)`` and splits every value as ``q = (sigma + x) - sigma`` plus the
    remainder ``x - q``, both exact; the ``q`` are multiples of ``ulp(sigma)
    / 2`` whose every partial sum stays below ``sigma`` in magnitude, so
    ``q.sum()`` is exact in any order (Rump, Ogita and Oishi 2008, Lemma
    3.3).  After ``_LEVELS`` levels, or as soon as ``sigma`` would overflow
    or leave the normal range, the remainders still non-zero are appended
    as they are.  ``x`` is overwritten with the remainders; ``scratch``
    holds at least ``len(x)`` floats.
    """
    size = x.shape[0]
    if size == 0:
        return
    q = scratch[:size]
    bits = (size + 1).bit_length()  # ceil(log2(size + 2))
    for _ in range(_LEVELS):
        top = max(x.max(), -x.min())
        if not 0.0 < top < math.inf:  # all zeros, or a non-finite value
            break
        fraction, exponent = math.frexp(top)
        exponent += bits - (fraction == 0.5)
        if not -1022 <= exponent <= 1023:
            break
        sigma = math.ldexp(1.0, exponent)
        np.add(x, sigma, out=q)
        q -= sigma
        parts.append(float(q.sum()))
        x -= q
    parts.extend(x[x != 0.0].tolist())


def cosine_sum(n, t):
    """Direct summation of ``1/2 + sum_{k<=n} cos(k t)``, with the cosines
    added exactly and rounded once, bit for bit as ``0.5 +
    math.fsum(cos(float(k) * t) for k in 1..n)``.

    The cosines are evaluated ``_CHUNK`` at a time into one buffer, each
    chunk is split by :func:`_extract` into at most ``_LEVELS`` exact level
    sums and the few remainders those leave (none, for most chunks), and
    :func:`math.fsum` rounds the short list of all chunks' parts correctly,
    so the result is that of rounding the exact sum.  Memory stays two
    chunk buffers whatever ``n``.  A ``t`` that is not a finite number is
    refused with a :class:`~trigconv.errors.DomainError`.
    """
    n = check_integer(n, "order", 0, MAX_ORDER)
    t = check_real(t, "t")
    size = min(n, _CHUNK)
    first_k = np.arange(1, size + 1, dtype=np.float64)
    values = np.empty(size)
    scratch = np.empty(size)
    parts = []
    for start in range(0, n, _CHUNK):
        x = values[:min(_CHUNK, n - start)]
        # float(k) * t for k = start + 1 .. start + len(x), integers exact
        np.add(first_k[:x.shape[0]], start, out=x)
        x *= t
        np.cos(x, out=x)
        _extract(x, parts, scratch)
    return 0.5 + math.fsum(parts)


def dirichlet_kernel(n, t):
    """Closed form ``sin((n + 1/2) t) / (2 sin(t/2))``, scalar or array.

    The argument ``t/2`` of the ratio is reduced modulo ``pi`` first, as
    :func:`~trigconv.quadrature._sin_ratio` does for every integer order,
    so the evaluation is periodic by construction; at the removable
    singularity the value is ``n + 1/2``.  A ``t`` holding anything but
    finite numbers is refused with a :class:`~trigconv.errors.DomainError`.
    """
    n = check_integer(n, "order", 0, MAX_ORDER)
    arr = check_finite(t, "t")
    out = _sin_ratio(2 * n + 1, 0.5 * arr)
    out *= 0.5
    return float(out) if arr.ndim == 0 else out


def kernel_mean(n, tol=1e-10):
    """``(1/pi)`` times the kernel's integral over one period; equals 1.

    Computed by adaptive quadrature, the engine applying the kernel as its
    ``sine_ratio`` weight ``R_{2n+1}(t/2)`` to the constant ``1/2`` on the
    grid the weight seeds, its half-periods ``2 pi / (2n + 1)``, as a
    self-check of the quadrature machinery.
    """
    n = check_integer(n, "order", 0, MAX_ORDER)
    value = integrate(lambda t: np.full(t.shape, 0.5), -math.pi, math.pi, tol,
                      sine_ratio=(2 * n + 1, 0.5, 0.0))
    return value / math.pi
