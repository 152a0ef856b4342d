"""Two alternating series with term ratio tending to 1, behaving oppositely.

The probe kinds are:

``u``
    terms ``(-1)^n / sqrt(n)`` — alternating with decreasing magnitudes,
    so its partial sums stay inside a bounded band forever.
``v``
    terms ``(-1)^n / sqrt(n) * (1 + (-1)^n / sqrt(n))`` — term-by-term
    ratio to ``u`` tends to 1, yet the series diverges: each term exceeds
    its ``u`` counterpart by ``1/n``, so the partial sums drift off with
    the harmonic series.
``diff``
    terms ``u_n - v_n = -1/n`` — the negated harmonic series, diverging
    monotonically.

Together they witness that term-ratio comparison cannot decide convergence
for series of mixed sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, check_integer

KINDS = ("u", "v", "diff")

_MAX_TERMS = 10**8


@dataclass(frozen=True)
class SeriesProbe:
    """Partial sums (and, for kind ``v``, ratios to ``u``) of one series."""
    kind: str
    n_terms: int
    partial_sums: np.ndarray
    ratios: Optional[np.ndarray] = None


def _terms(kind, n_terms):
    index = np.arange(1, n_terms + 1)
    if kind == "diff":
        return -1.0 / index
    sign = np.where(index % 2 == 0, 1.0, -1.0)
    alternating = sign / np.sqrt(index)
    if kind == "u":
        return alternating
    if kind == "v":
        return alternating * (1.0 + alternating)
    raise DomainError(f"kind must be one of {KINDS}, got {kind!r}")


def probe(kind, n_terms):
    """Running partial sums of the requested series.

    The sums are a plain float64 cumulative sum; its rounding drift stays
    orders of magnitude below the tolerances used anywhere in the package.
    """
    n_terms = check_integer(n_terms, "n_terms", 1, _MAX_TERMS)
    sums = np.cumsum(_terms(kind, n_terms))
    ratios = None
    if kind == "v":
        index = np.arange(1, n_terms + 1)
        sign = np.where(index % 2 == 0, 1.0, -1.0)
        ratios = 1.0 + sign / np.sqrt(index)
    return SeriesProbe(kind=kind, n_terms=n_terms, partial_sums=sums, ratios=ratios)


def divergence_witness(kind, bound, n_max):
    """First index whose partial sum escapes the band ``[bound, -bound]``.

    ``bound`` must be negative; the band is symmetric about zero, so an
    escape on either side witnesses the sums leaving every bounded region
    of that size.  Returns ``None`` when all ``n_max`` sums stay inside.
    """
    bound = float(bound)
    if not bound < 0:
        raise DomainError(f"bound must be negative, got {bound!r}")
    sums = probe(kind, n_max).partial_sums
    outside = (sums < bound) | (sums > -bound)
    if not outside.any():
        return None
    return int(np.argmax(outside)) + 1
