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

Every series is summed in one pass over consecutive chunks of ``_CHUNK``
terms, carrying the running total from chunk to chunk, so only one chunk's
terms and sums are in memory at a time.  :func:`summarize` and
:func:`divergence_witness` keep nothing else; :func:`probe` copies each
chunk into the full arrays it returns.  The sums are bit-identical to a
plain float64 cumulative sum of all terms at once; its rounding drift stays
orders of magnitude below the tolerances used anywhere in the package.
Arguments are validated before any array is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, check_integer

KINDS = ("u", "v", "diff")

_MAX_TERMS = 10**8

# terms per chunk of the summing pass: a few hundred kB of temporaries
_CHUNK = 1 << 14


@dataclass(frozen=True)
class SeriesProbe:
    """Partial sums (and, for kind ``v``, ratios to ``u``) of one series."""
    kind: str
    n_terms: int
    partial_sums: np.ndarray
    ratios: Optional[np.ndarray] = None


@dataclass(frozen=True)
class SeriesSummary:
    """The last, smallest and largest of a series' first ``n_terms`` partial
    sums, and the first index whose sum leaves ``[bound, -bound]`` (``None``
    when every sum stays inside)."""
    kind: str
    n_terms: int
    bound: float
    last_sum: float
    min_sum: float
    max_sum: float
    band_escape: Optional[int]


def _check_kind(kind):
    if kind not in KINDS:
        raise DomainError(f"kind must be one of {KINDS}, got {kind!r}")


def _check_terms(n_terms, name="n_terms"):
    return check_integer(n_terms, name, 1, _MAX_TERMS)


def _check_bound(bound):
    try:
        bound = float(bound)
    except (TypeError, ValueError):
        raise DomainError(f"bound must be a number, got {bound!r}") from None
    if not bound < 0:
        raise DomainError(f"bound must be negative, got {bound!r}")
    return bound


def _alternating(start, stop):
    """``(-1)^n / sqrt(n)`` for ``n = start + 1 .. stop``."""
    index = np.arange(start + 1, stop + 1)
    return np.where(index % 2 == 0, 1.0, -1.0) / np.sqrt(index)


def _terms(kind, start, stop):
    """Terms ``start + 1 .. stop`` of the series ``kind``."""
    if kind == "diff":
        return -1.0 / np.arange(start + 1, stop + 1)
    alternating = _alternating(start, stop)
    if kind == "u":
        return alternating
    return alternating * (1.0 + alternating)


def _partial_sums(kind, n_terms):
    """Yield ``(start, sums)`` chunk by chunk, where ``sums`` holds partial
    sums ``start + 1 .. start + len(sums)``.

    ``np.cumsum`` adds strictly left to right, so adding the carried total
    into a chunk's first term reproduces the one-shot sums bit for bit.  The
    first chunk gets no carry: adding ``0.0`` would turn ``v``'s first sum,
    ``-0.0``, into ``0.0``.
    """
    total = None
    for start in range(0, n_terms, _CHUNK):
        terms = _terms(kind, start, min(start + _CHUNK, n_terms))
        if start:
            terms[0] += total
        sums = np.cumsum(terms, out=terms)
        total = sums[-1]
        yield start, sums


def probe(kind, n_terms):
    """Running partial sums of the requested series, with the ratios
    ``v_n / u_n = 1 + (-1)^n / sqrt(n)`` for kind ``v``.

    The arrays are allocated once and filled chunk by chunk, so the peak
    memory is what is returned plus one chunk.
    """
    _check_kind(kind)
    n_terms = _check_terms(n_terms)
    sums = np.empty(n_terms)
    ratios = np.empty(n_terms) if kind == "v" else None
    for start, chunk in _partial_sums(kind, n_terms):
        stop = start + chunk.size
        sums[start:stop] = chunk
        if ratios is not None:
            ratios[start:stop] = 1.0 + _alternating(start, stop)
    return SeriesProbe(kind=kind, n_terms=n_terms, partial_sums=sums, ratios=ratios)


def summarize(kind, n_terms, bound):
    """Last, minimum and maximum partial sum and the band-escape index (see
    :func:`divergence_witness`) of one series, from one pass in O(chunk)
    memory.  Each value equals the one computed from ``probe(kind,
    n_terms).partial_sums``.
    """
    _check_kind(kind)
    n_terms = _check_terms(n_terms)
    bound = _check_bound(bound)
    lo, hi, escape = math.inf, -math.inf, None
    for start, sums in _partial_sums(kind, n_terms):
        chunk_lo, chunk_hi = sums.min(), sums.max()
        if escape is None and (chunk_lo < bound or chunk_hi > -bound):
            outside = (sums < bound) | (sums > -bound)
            escape = start + int(np.argmax(outside)) + 1
        lo, hi = min(lo, chunk_lo), max(hi, chunk_hi)
    return SeriesSummary(kind=kind, n_terms=n_terms, bound=bound,
                         last_sum=float(sums[-1]), min_sum=float(lo),
                         max_sum=float(hi), band_escape=escape)


def divergence_witness(kind, bound, n_max):
    """First index whose partial sum escapes the band ``[bound, -bound]``.

    ``bound`` must be negative; the band is symmetric about zero, so an
    escape on either side witnesses the sums leaving every bounded region
    of that size.  Returns ``None`` when all ``n_max`` sums stay inside.
    This is the escape index of :func:`summarize`'s single pass.
    """
    n_max = _check_terms(n_max, "n_max")
    return summarize(kind, n_max, bound).band_escape
