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

The series share one pass over consecutive chunks of ``_CHUNK`` terms that
builds each chunk's terms once for every series asked for (all three in
:func:`summarize_all`) and carries each running total to the next chunk, so
only one chunk's terms and sums are in memory at a time.  The summaries keep
nothing else; :func:`probe` copies each chunk into the arrays it returns.
The sums are bit-identical to a plain float64 cumulative sum of all terms at
once; its rounding drift stays orders of magnitude below the tolerances used
anywhere in the package.  Arguments are validated before any array is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, check_integer, check_real

KINDS = ("u", "v", "diff")

_MAX_TERMS = 10**8

# terms per chunk of the summing pass: a few hundred kB of buffers
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


def _chunk_terms(kinds, start, index, alternating, terms):
    """Write into ``terms`` the terms ``n = start + 1 ..`` (held in ``index``)
    of each series in ``kinds``, from the alternating terms ``(-1)^n / sqrt(n)``
    written once into ``alternating`` (left as is when only ``diff`` is asked
    for)."""
    if kinds != ("diff",):
        # -1 / sqrt(n) is exactly -(1 / sqrt(n)); n is odd at every second
        # position, from the first when the absolute index start + 1 is odd
        np.divide(1.0, np.sqrt(index, out=alternating), out=alternating)
        alternating[start % 2::2] *= -1.0
    for kind, series in zip(kinds, terms):
        if kind == "diff":
            np.divide(-1.0, index, out=series)
        elif kind == "v":
            np.multiply(alternating, np.add(alternating, 1.0, out=series), out=series)
        else:
            series[...] = alternating


def _chunk_sums(kinds, n_terms):
    """Yield ``(start, alternating, sums)`` chunk by chunk: ``sums`` holds
    each series' partial sums ``start + 1 ..`` over one :func:`_chunk_terms`,
    in buffers that the next chunk overwrites (fresh ones cost page faults).

    ``np.cumsum`` adds strictly left to right, so adding a series' carried
    total into a chunk's first term reproduces the one-shot sums bit for bit.
    The first chunk gets no carry: adding ``0.0`` would turn ``v``'s first
    sum, ``-0.0``, into ``0.0``.
    """
    work = np.empty((len(kinds) + 2, _CHUNK))
    work[0] = np.arange(1.0, _CHUNK + 1.0)
    totals = [None] * len(kinds)
    for start in range(0, n_terms, _CHUNK):
        index, alternating, *terms = work[:, :min(_CHUNK, n_terms - start)]
        _chunk_terms(kinds, start, index, alternating, terms)
        for k, series in enumerate(terms):
            if start:
                series[0] += totals[k]
            totals[k] = series.cumsum(out=series)[-1]
        yield start, alternating, terms
        work[0] += _CHUNK


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
    for start, alternating, (chunk,) in _chunk_sums((kind,), n_terms):
        stop = start + chunk.size
        sums[start:stop] = chunk
        if ratios is not None:
            np.add(alternating, 1.0, out=ratios[start:stop])
    return SeriesProbe(kind=kind, n_terms=n_terms, partial_sums=sums, ratios=ratios)


def summarize(kind, n_terms, bound):
    """Last, minimum and maximum partial sum and the band-escape index (see
    :func:`divergence_witness`) of one series, from one pass in O(chunk)
    memory.  Each value equals the one computed from ``probe(kind,
    n_terms).partial_sums``.
    """
    _check_kind(kind)
    return _summaries((kind,), n_terms, bound)[0]


def summarize_all(n_terms, bound):
    """:func:`summarize` of each kind in :data:`KINDS`, in that order, from
    one pass that builds each chunk's terms once for all three series."""
    return _summaries(KINDS, n_terms, bound)


def _summaries(kinds, n_terms, bound):
    n_terms = _check_terms(n_terms)
    bound = check_real(bound, "bound", hi=0, open_hi=True)
    lo, hi, escape = [math.inf] * len(kinds), [-math.inf] * len(kinds), [None] * len(kinds)
    for start, _, chunk in _chunk_sums(kinds, n_terms):
        for k, sums in enumerate(chunk):
            chunk_lo, chunk_hi = sums.min(), sums.max()
            if escape[k] is None and (chunk_lo < bound or chunk_hi > -bound):
                escape[k] = start + int(np.argmax((sums < bound) | (sums > -bound))) + 1
            lo[k], hi[k] = min(lo[k], chunk_lo), max(hi[k], chunk_hi)
    return tuple(SeriesSummary(kind=kind, n_terms=n_terms, bound=bound,
                               last_sum=float(chunk[k][-1]), min_sum=float(lo[k]),
                               max_sum=float(hi[k]), band_escape=escape[k])
                 for k, kind in enumerate(kinds))


def divergence_witness(kind, bound, n_max):
    """First index whose partial sum escapes the band ``[bound, -bound]``.

    ``bound`` must be finite and negative; the band is symmetric about
    zero, so an escape on either side witnesses the sums leaving every
    bounded region of that size.  Returns ``None`` when all ``n_max`` sums
    stay inside.  This is the escape index of :func:`summarize`, from a
    pass that stops at the first chunk holding it.
    """
    n_max = _check_terms(n_max, "n_max")
    _check_kind(kind)
    bound = check_real(bound, "bound", hi=0, open_hi=True)
    for start, _, (sums,) in _chunk_sums((kind,), n_max):
        outside = (sums < bound) | (sums > -bound)
        if outside.any():
            return start + int(np.argmax(outside)) + 1
    return None
