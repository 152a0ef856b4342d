"""The order-n trigonometric summation kernel, two ways.

``cosine_sum`` evaluates ``1/2 + cos t + cos 2t + ... + cos nt`` term by
term; ``dirichlet_kernel`` evaluates the equivalent closed form
``sin((n + 1/2) t) / (2 sin(t/2))``, which is ``R_{2n+1}(t/2) / 2`` for the
ratio ``R_m(u) = sin(m u) / sin(u)``.  That ratio, also the sign-block
weight of :mod:`trigconv.oscillatory`, is computed in one place,
:func:`_sin_ratio`; its removable singularity needs the limit value only
where ``u`` is exactly zero.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, check_integer
from .quadrature import integrate

# the largest order (of the kernel, a partial sum, a coefficient table or
# the alternating tail) and sine-block frequency admitted
_MAX_ORDER = 10**6
_TWO_PI = 2.0 * math.pi


def _sin_ratio(m, u):
    """``sin(m u) / sin(u)`` elementwise, with the limit ``m`` at ``u == 0``.

    ``sin`` keeps full relative accuracy for small arguments, so the plain
    quotient is accurate arbitrarily close to the singularity and only an
    exact zero needs the substitution.  Callers keep ``u`` away from the
    other zeros of ``sin(u)``.
    """
    u = np.asarray(u, dtype=np.float64)
    zero = u == 0.0
    safe = np.where(zero, 1.0, u)
    return np.where(zero, m, np.sin(m * safe) / np.sin(safe))


def cosine_sum(n, t):
    """Direct summation of ``1/2 + sum_{k<=n} cos(k t)``; the cosines are
    added exactly by :func:`math.fsum`.  A non-finite ``t`` is refused."""
    n = check_integer(n, "order", 0, _MAX_ORDER)
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t!r}")
    k = np.arange(1, n + 1, dtype=np.float64)
    return 0.5 + math.fsum(np.cos(k * t))


def dirichlet_kernel(n, t):
    """Closed form ``sin((n + 1/2) t) / (2 sin(t/2))``, scalar or array.

    The argument is reduced modulo ``2 pi`` first, so the evaluation is
    periodic by construction; at the removable singularity the value is
    ``n + 1/2``.
    """
    n = check_integer(n, "order", 0, _MAX_ORDER)
    arr = np.asarray(t, dtype=np.float64)
    reduced = arr - _TWO_PI * np.round(arr / _TWO_PI)
    out = 0.5 * _sin_ratio(2 * n + 1, 0.5 * reduced)
    return float(out) if arr.ndim == 0 else out


def kernel_mean(n, tol=1e-10):
    """``(1/pi)`` times the kernel's integral over one period; equals 1.

    Computed by adaptive quadrature with panels no wider than the kernel's
    finest oscillation, as a self-check of the quadrature machinery.
    """
    n = check_integer(n, "order", 0, _MAX_ORDER)
    value = integrate(lambda t: dirichlet_kernel(n, t), -math.pi, math.pi,
                      tol, max_panel_width=math.pi / (n + 1))
    return value / math.pi
