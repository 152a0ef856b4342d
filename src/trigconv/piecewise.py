"""Piecewise-monotone functions on [-pi, pi] built from a closed primitive set.

A function is described by a JSON document::

    {"segments": [{"lo": "-pi", "hi": 0.0, "kind": "constant",
                   "params": {"c": -1.0}}, ...]}

``lo``/``hi`` are numbers or the literals ``"pi"`` / ``"-pi"``.  Segments
must tile ``[-pi, pi]`` exactly (each ``hi`` equal, as a float, to the next
``lo``).  Each segment is monotone by construction, so admissibility for
the convergence machinery — bounded, finitely many jumps, finitely many
changes of direction — is established structurally rather than by sampling.

Supported kinds and their parameters:

``constant``
    ``c``; the value ``c``.
``affine``
    ``a``, ``b``; the value ``a + b*x``.
``exponential``
    ``a``, ``b``; the value ``a * exp(b*x)``.
``power``
    ``a``, ``x0``, ``p`` with ``p > 0`` and ``x0 <= lo``; the value
    ``a * (x - x0)**p``.
``monotone-table``
    ``xs``, ``ys``; linear interpolation through strictly increasing
    ``xs`` spanning exactly ``[lo, hi]`` with strictly monotone ``ys``.
``pathological-rational``
    recognized but rejected: a function taking distinct constants on the
    rationals and irrationals is bounded yet has no workable integral, so
    every downstream quantity would be undefined.

An ``exponential`` or ``power`` segment with ``a = 0`` is built as the
``constant`` segment ``c = a``: its values are ``a`` times a non-negative
factor, zero with the sign of ``a``, even where that factor overflows.

A segment's direction is read off its exact end values, the values the
jumps, one-sided limits and ``abs_bound`` read too: ``constant`` when they
are equal, else ``increasing`` or ``decreasing`` by the sign of ``f(hi) -
f(lo)``.  So a segment whose end values are equal in floating point (a
slope too small to move them) is constant, as a ``constant`` segment is.
An optional ``"direction"`` key in a segment must match it.  Non-finite
end values are refused.

Evaluation at a jump abscissa follows the right-continuous convention (the
segment owning the point is the one whose ``lo`` equals it); ``x = pi``
belongs to the last segment.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (CoverageError, DomainError, MonotonicityError,
                     SpecSyntaxError, UnboundedError, as_floats, check_abscissa)

PI = math.pi

INCREASING = "increasing"
DECREASING = "decreasing"
CONSTANT = "constant"
_DIRECTIONS = (INCREASING, DECREASING, CONSTANT)

# each primitive kind: its parameter names and its values at abscissae x
_PRIMITIVES = {
    "constant": (("c",), lambda p, x: np.full(x.shape, p["c"])),
    "affine": (("a", "b"), lambda p, x: p["a"] + p["b"] * x),
    "exponential": (("a", "b"), lambda p, x: p["a"] * np.exp(p["b"] * x)),
    "power": (("a", "x0", "p"),
              lambda p, x: p["a"] * np.power(np.maximum(x - p["x0"], 0.0), p["p"])),
    "monotone-table": (("xs", "ys"), lambda p, x: np.interp(x, p["xs"], p["ys"])),
}


@dataclass(frozen=True)
class JumpPoint:
    """A discontinuity: ``left_limit`` approaching from below, ``right_limit`` from above."""
    x: float
    left_limit: float
    right_limit: float


@dataclass(frozen=True)
class MonotoneSegment:
    """One validated segment: a monotone primitive on ``[lo, hi]``.

    ``lo_value``/``hi_value`` are the exact one-sided endpoint values
    (equal to the primitive at ``lo`` and ``hi``, since each primitive is
    continuous on its closed interval).  ``direction`` is read off them:
    ``constant`` when they are equal, otherwise the sign of ``hi_value -
    lo_value``.  Every primitive is monotone on its segment, so the two
    cannot disagree.
    """
    lo: float
    hi: float
    kind: str
    params: dict
    lo_value: float
    hi_value: float

    @property
    def direction(self):
        return (INCREASING if self.hi_value > self.lo_value
                else DECREASING if self.hi_value < self.lo_value else CONSTANT)

    def values(self, x):
        """Evaluate the primitive on an array of abscissae inside [lo, hi]."""
        if self.kind not in _PRIMITIVES:
            raise DomainError(f"segment kind {self.kind!r} cannot be evaluated")
        return _PRIMITIVES[self.kind][1](self.params, np.asarray(x, dtype=np.float64))


def _as_number(value, where, *, allow_pi=False):
    if allow_pi and isinstance(value, str):
        if value == "pi":
            return PI
        if value == "-pi":
            return -PI
        raise SpecSyntaxError(f"{where}: only 'pi' and '-pi' are accepted as strings")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecSyntaxError(f"{where}: expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise SpecSyntaxError(f"{where}: integer too large for a float") from None
    if not math.isfinite(value):
        raise SpecSyntaxError(f"{where}: number must be finite")
    return value


def _build_segment(raw, index):
    where = f"segments[{index}]"
    if not isinstance(raw, dict):
        raise SpecSyntaxError(f"{where}: expected an object")
    unknown = set(raw) - {"lo", "hi", "kind", "params", "direction"}
    if unknown:
        raise SpecSyntaxError(f"{where}: unknown keys {sorted(unknown)}")
    for key in ("lo", "hi", "kind", "params"):
        if key not in raw:
            raise SpecSyntaxError(f"{where}: missing key {key!r}")
    lo = _as_number(raw["lo"], f"{where}.lo", allow_pi=True)
    hi = _as_number(raw["hi"], f"{where}.hi", allow_pi=True)
    if not lo < hi:
        raise SpecSyntaxError(f"{where}: lo must be strictly below hi")
    kind = raw["kind"]
    if kind == "pathological-rational":
        raise UnboundedError(
            f"{where}: a rational/irrational indicator is bounded but has no "
            "usable integral, so it is rejected at validation")
    if not isinstance(kind, str) or kind not in _PRIMITIVES:
        raise SpecSyntaxError(f"{where}: unknown kind {kind!r}")
    raw_params = raw["params"]
    if not isinstance(raw_params, dict):
        raise SpecSyntaxError(f"{where}.params: expected an object")
    expected = _PRIMITIVES[kind][0]
    if set(raw_params) != set(expected):
        raise SpecSyntaxError(
            f"{where}.params: kind {kind!r} needs exactly {sorted(expected)}")

    params = {}
    if kind == "monotone-table":
        for key in ("xs", "ys"):
            seq = raw_params[key]
            if not isinstance(seq, list) or len(seq) < 2:
                raise SpecSyntaxError(f"{where}.params.{key}: need a list of >= 2 numbers")
            params[key] = np.array(
                [_as_number(v, f"{where}.params.{key}[{j}]", allow_pi=(key == "xs"))
                 for j, v in enumerate(seq)])
        if len(params["xs"]) != len(params["ys"]):
            raise SpecSyntaxError(f"{where}.params: xs and ys must have equal length")
        if not (np.diff(params["xs"]) > 0).all():
            raise SpecSyntaxError(f"{where}.params.xs: must be strictly increasing")
        if params["xs"][0] != lo or params["xs"][-1] != hi:
            raise SpecSyntaxError(f"{where}.params.xs: must span exactly [lo, hi]")
        # strictly monotone: every ys step has the sign of the end-to-end step
        ys = params["ys"].tolist()
        for j, (a, b) in enumerate(zip(ys, ys[1:])):
            if not (b > a if ys[-1] > ys[0] else b < a):
                raise MonotonicityError(f"{where}: table ys must be strictly monotone: "
                                        f"ys[{j}] = {a!r} -> ys[{j + 1}] = {b!r}")
    else:
        for key in expected:
            params[key] = _as_number(raw_params[key], f"{where}.params.{key}")
        if kind == "power" and params["p"] <= 0:
            raise SpecSyntaxError(f"{where}.params.p: must be positive")
        if kind == "power" and params["x0"] > lo:
            raise SpecSyntaxError(f"{where}.params.x0: must satisfy x0 <= lo")
        if kind in ("exponential", "power") and params["a"] == 0.0:
            # the constant zero with the sign of a, whatever the other factor,
            # which may overflow: 0 * exp(300 pi) would be NaN
            kind, params = "constant", {"c": params["a"]}

    if "direction" in raw and raw["direction"] not in _DIRECTIONS:
        raise SpecSyntaxError(f"{where}.direction: must be one of {_DIRECTIONS}")
    with np.errstate(over="ignore", invalid="ignore"):
        lo_value, hi_value = _PRIMITIVES[kind][1](params, np.array([lo, hi])).tolist()
    if not (math.isfinite(lo_value) and math.isfinite(hi_value)):
        raise UnboundedError(f"{where}: endpoint values are not finite")
    seg = MonotoneSegment(lo=lo, hi=hi, kind=kind, params=params,
                          lo_value=lo_value, hi_value=hi_value)
    if raw.get("direction", seg.direction) != seg.direction:
        raise MonotonicityError(f"{where}: declared direction {raw['direction']!r} but the end "
                                f"values {lo_value!r} -> {hi_value!r} make it {seg.direction}")
    return seg


class PiecewiseFunction:
    """A validated piecewise-monotone function tiling ``[-pi, pi]``.

    Construction performs the coverage check; use :func:`parse_spec` to
    build one from a JSON document.
    """

    __slots__ = ("segments", "jumps", "_edges")

    def __init__(self, segments):
        segments = tuple(sorted(segments, key=lambda s: s.lo))
        if not segments:
            raise CoverageError("at least one segment is required")
        if segments[0].lo != -PI:
            raise CoverageError(f"first segment starts at {segments[0].lo!r}, not -pi")
        if segments[-1].hi != PI:
            raise CoverageError(f"last segment ends at {segments[-1].hi!r}, not pi")
        for left, right in zip(segments, segments[1:]):
            if left.hi != right.lo:
                raise CoverageError(
                    f"segments do not tile: [{left.lo}, {left.hi}] is followed "
                    f"by [{right.lo}, {right.hi}]")
        self.segments = segments
        jumps = []
        for left, right in zip(segments, segments[1:]):
            if left.hi_value != right.lo_value:
                jumps.append(JumpPoint(x=left.hi, left_limit=left.hi_value,
                                       right_limit=right.lo_value))
        self.jumps = tuple(jumps)
        self._edges = np.array([s.lo for s in segments] + [PI])

    @property
    def breakpoints(self):
        """Interior non-smooth points (quadrature panel seeds): segment
        boundaries plus the knots of any interpolation-table segment."""
        points = {float(e) for e in self._edges[1:-1]}
        for seg in self.segments:
            if seg.kind == "monotone-table":
                points.update(float(x) for x in seg.params["xs"][1:-1])
        return sorted(p for p in points if -PI < p < PI)

    @property
    def singular_points(self):
        """Abscissae where f has an infinite slope (quadrature grading
        seeds): the origin ``x0 == lo`` of every non-constant ``power``
        segment with ``0 < p < 1``, ascending."""
        return sorted({float(s.lo) for s in self.segments
                       if s.kind == "power" and s.params["p"] < 1.0 and s.params["x0"] == s.lo})

    def abs_bound(self):
        """A sup bound for |f|; by monotonicity the extremes sit at segment ends."""
        return max(max(abs(s.lo_value), abs(s.hi_value)) for s in self.segments)

    def eval(self, x):
        """Evaluate at a scalar or array of abscissae in [-pi, pi].

        At a jump the owning segment is the one to the right; ``x = pi``
        belongs to the last segment.

        Each segment evaluates one contiguous slice of the abscissae in
        ascending order, found by searching the interior edges in them, so
        the cost does not grow with segments x points.  Quadrature meshes
        hand over their nodes ascending (or, mapped through ``x - 2 beta``,
        descending), so the sort is skipped in those cases: ascending
        input is used as it is, descending input as a contiguous reversed
        copy, and only other orders are sorted.  Once sorted, only the two
        ends need the range check; a NaN never passes the order checks and
        sorts last, so it fails that check too.  What is no number, such as
        a string, is refused with :class:`DomainError` by the one conversion
        of the input.
        """
        arr = as_floats(x, "x")
        flat = arr.reshape(-1)
        order = None
        if flat.size > 1 and not (flat[1:] >= flat[:-1]).all():
            order = (slice(None, None, -1) if (flat[1:] <= flat[:-1]).all()
                     else np.argsort(flat))
        xs = flat if order is None else np.ascontiguousarray(flat[order])
        if xs.size and not (-PI <= xs[0] and xs[-1] <= PI):
            raise DomainError("abscissae must lie in [-pi, pi]")
        values = np.empty(xs.shape)
        stops = np.searchsorted(xs, self._edges[1:-1]).tolist() + [xs.size]
        start = 0
        for seg, stop in zip(self.segments, stops):
            if stop > start:
                values[start:stop] = seg.values(xs[start:stop])
            start = stop
        if order is None:
            out = values
        else:
            out = np.empty_like(values)
            out[order] = values
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    __call__ = eval

    def one_sided_limits(self, x):
        """Exact limits ``(from below, from above)`` at ``x``.

        Read from stored segment endpoint values, never from evaluation
        near ``x``.  Both ``x = -pi`` and ``x = pi`` return the periodic
        pair ``(f(pi-), f(-pi+))`` so that their mean is the wrap value.
        """
        x = check_abscissa(x)
        if x == -PI or x == PI:
            return (self.segments[-1].hi_value, self.segments[0].lo_value)
        for j in range(1, len(self.segments)):
            if x == self.segments[j].lo:
                return (self.segments[j - 1].hi_value, self.segments[j].lo_value)
        value = self.eval(x)
        return (value, value)

    def extrema_and_jumps(self):
        """Interior abscissae where f jumps or reverses direction, ascending.

        A reversal is tracked across constant plateaus: increasing, then
        constant, then decreasing marks the boundary where the decrease
        starts.  Boundaries between a monotone piece and a plateau are not
        extrema on their own.
        """
        points = {float(jump.x) for jump in self.jumps}
        last_direction = None
        for seg in self.segments:
            if seg.direction == CONSTANT:
                continue
            if last_direction is not None and seg.direction != last_direction:
                points.add(float(seg.lo))
            last_direction = seg.direction
        return sorted(points)


def parse_spec(text):
    """Parse a JSON function-spec document into a :class:`PiecewiseFunction`."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise SpecSyntaxError("invalid JSON: nested too deeply") from None
    except ValueError as exc:
        # a JSONDecodeError, or an integer literal above Python's digit limit
        raise SpecSyntaxError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SpecSyntaxError("top level must be an object")
    unknown = set(doc) - {"segments"}
    if unknown:
        raise SpecSyntaxError(f"unknown top-level keys {sorted(unknown)}")
    raw_segments = doc.get("segments")
    if not isinstance(raw_segments, list) or not raw_segments:
        raise SpecSyntaxError("'segments' must be a non-empty list")
    segments = [_build_segment(raw, i) for i, raw in enumerate(raw_segments)]
    return PiecewiseFunction(segments)


def load_spec(path):
    """Read and parse a function-spec file, which must be UTF-8 text."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SpecSyntaxError(f"not UTF-8: byte {data[exc.start]:#04x} at offset {exc.start}") from None
    return parse_spec(text)
