"""Shared fixtures and random-input builders for the test suite."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import trigconv as tc
from trigconv import quadrature

SQUARE = {"segments": [
    {"lo": "-pi", "hi": 0.0, "kind": "constant", "params": {"c": -1.0}},
    {"lo": 0.0, "hi": "pi", "kind": "constant", "params": {"c": 1.0}},
]}

SAWTOOTH = {"segments": [
    {"lo": "-pi", "hi": "pi", "kind": "affine", "params": {"a": 0.0, "b": 1.0}},
]}

TRIANGLE = {"segments": [
    {"lo": "-pi", "hi": 0.0, "kind": "affine", "params": {"a": 0.0, "b": -1.0}},
    {"lo": 0.0, "hi": "pi", "kind": "affine", "params": {"a": 0.0, "b": 1.0}},
]}

CONSTANT_ONE = {"segments": [
    {"lo": "-pi", "hi": "pi", "kind": "constant", "params": {"c": 1.0}},
]}


def _constant_spec(literal):
    return ('{"segments": [{"lo": "-pi", "hi": "pi", "kind": "constant", '
            '"params": {"c": %s}}]}' % literal).encode()


# malformed spec files, as bytes, with a phrase of the error that refuses each
MALFORMED_SPECS = {
    "non-utf8": (b'{"segments": [\xff]}', "not UTF-8: byte 0xff at offset 14"),
    "deep-nesting": (b"[" * 100_000, "nested too deeply"),
    "huge-integer": (_constant_spec("1" + "0" * 400), "integer too large for a float"),
    "long-integer": (_constant_spec("1" * 5000), "invalid JSON"),
}


def build(spec_dict):
    return tc.parse_spec(json.dumps(spec_dict))


def traced_peak(call):
    """``call()``'s result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def harmonic_grid(edges, size):
    """The seeded mesh of :func:`trigconv.quadrature.integrate_harmonics` on
    ``edges`` with ``size`` grid panels per period: the panel midpoints,
    and half-widths that are ``pi / size`` on the uncut grid panels."""
    h = math.pi / size
    points, uncut = quadrature._grid_panels(edges, h)
    return 0.5 * (points[:-1] + points[1:]), np.where(uncut, h, 0.5 * np.diff(points))


@pytest.fixture
def refine_rounds(monkeypatch):
    """A list that gets, for each call of the refinement loop, the number of
    meshes ``f`` was evaluated on: the seeded one and one per refining
    round."""
    calls = []
    meshes = []
    node_values, refine = quadrature._node_values, quadrature._refine

    def counted_node_values(*args):
        meshes.append(1)
        return node_values(*args)

    def counted_refine(*args):
        meshes.clear()
        try:
            return refine(*args)
        finally:
            calls.append(len(meshes))

    monkeypatch.setattr(quadrature, "_node_values", counted_node_values)
    monkeypatch.setattr(quadrature, "_refine", counted_refine)
    return calls


@pytest.fixture
def transformed_rows(monkeypatch):
    """A list that gets the number of rows of every real FFT numpy takes."""
    rows = []
    rfft = np.fft.rfft

    def counted(x, *args, **kwargs):
        rows.append(x.shape[0] if x.ndim == 2 else 1)
        return rfft(x, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted)
    return rows


@pytest.fixture
def square():
    return build(SQUARE)


@pytest.fixture
def sawtooth():
    return build(SAWTOOTH)


@pytest.fixture
def triangle():
    return build(TRIANGLE)


@pytest.fixture
def constant_one():
    return build(CONSTANT_ONE)


def _endpoint_token(value):
    if value == -math.pi:
        return "-pi"
    if value == math.pi:
        return "pi"
    return float(value)


def random_segment_dict(rng, lo, hi):
    """One random valid segment dict on [lo, hi]."""
    kind = ("constant", "affine", "exponential", "power",
            "monotone-table")[rng.integers(0, 5)]
    seg = {"lo": _endpoint_token(lo), "hi": _endpoint_token(hi), "kind": kind}
    sign = 1.0 if rng.random() < 0.5 else -1.0
    if kind == "constant":
        seg["params"] = {"c": float(rng.uniform(-2.0, 2.0))}
    elif kind == "affine":
        seg["params"] = {"a": float(rng.uniform(-1.0, 1.0)),
                         "b": float(rng.uniform(-1.5, 1.5))}
    elif kind == "exponential":
        seg["params"] = {"a": sign * float(rng.uniform(0.3, 1.5)),
                         "b": float(rng.uniform(-1.0, 1.0))}
    elif kind == "power":
        seg["params"] = {"a": sign * float(rng.uniform(0.5, 1.5)),
                         "x0": float(lo - rng.uniform(0.0, 0.25)),
                         "p": float(rng.uniform(0.5, 2.5))}
    else:
        knots = int(rng.integers(3, 6))
        interior = np.sort(rng.uniform(0.08, 0.92, size=knots - 2))
        xs = [float(lo)] + [float(lo + (hi - lo) * u) for u in interior] + [float(hi)]
        steps = np.concatenate([[0.0], rng.uniform(0.05, 1.0, size=knots - 1)])
        ys = float(rng.uniform(-2.0, 2.0)) + sign * np.cumsum(steps)
        seg["params"] = {"xs": xs, "ys": [float(y) for y in ys]}
    return seg


def random_spec(rng, max_segments=4):
    """A random valid function-spec dict tiling [-pi, pi]."""
    count = int(rng.integers(1, max_segments + 1))
    while True:
        cuts = np.sort(rng.uniform(-math.pi + 0.3, math.pi - 0.3, size=count - 1))
        edges = np.concatenate([[-math.pi], cuts, [math.pi]])
        if (np.diff(edges) > 0.2).all():
            break
    segments = [random_segment_dict(rng, edges[j], edges[j + 1])
                for j in range(count)]
    return {"segments": segments}


def many_segment_spec(rng, count):
    """A random valid spec of ``count`` equal-width segments."""
    edges = np.linspace(-math.pi, math.pi, count + 1)
    return {"segments": [random_segment_dict(rng, lo, hi)
                         for lo, hi in zip(edges[:-1], edges[1:])]}


def random_positive_decreasing(rng):
    """A smooth positive strictly-decreasing callable on [0, pi/2]."""
    shape = int(rng.integers(0, 3))
    if shape == 0:
        a = float(rng.uniform(0.2, 2.0))
        b = float(rng.uniform(0.05, 2.0))
        return lambda x: a * np.exp(-b * x)
    if shape == 1:
        slope = float(rng.uniform(0.02, 0.5))
        floor = float(rng.uniform(0.05, 1.0))
        offset = floor + slope * (math.pi / 2)
        return lambda x: offset - slope * x
    a = float(rng.uniform(0.5, 2.0))
    c = float(rng.uniform(0.5, 3.0))
    return lambda x: a / (1.0 + c * x)
