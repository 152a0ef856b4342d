import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trigconv as tc
from conftest import (MALFORMED_SPECS, SAWTOOTH, SQUARE, TRIANGLE, build,
                      many_segment_spec, random_spec)
from oracles import slope_direction


def spec_text(segments):
    return json.dumps({"segments": segments})


class TestParsing:
    def test_square_wave(self, square):
        assert len(square.segments) == 2
        assert square.jumps == (tc.JumpPoint(x=0.0, left_limit=-1.0, right_limit=1.0),)

    def test_sawtooth_has_no_jumps(self, sawtooth):
        assert sawtooth.jumps == ()
        assert len(sawtooth.segments) == 1

    def test_pi_literals_are_exact(self, sawtooth):
        seg = sawtooth.segments[0]
        assert seg.lo == -math.pi and seg.hi == math.pi

    def test_rejects_invalid_json(self):
        with pytest.raises(tc.SpecSyntaxError):
            tc.parse_spec("{not json")

    @pytest.mark.parametrize("name", MALFORMED_SPECS)
    def test_rejects_malformed_file(self, tmp_path, name):
        data, phrase = MALFORMED_SPECS[name]
        path = tmp_path / "spec.json"
        path.write_bytes(data)
        with pytest.raises(tc.SpecSyntaxError, match=phrase):
            tc.load_spec(str(path))
        if name != "non-utf8":
            with pytest.raises(tc.SpecSyntaxError, match=phrase):
                tc.parse_spec(data.decode())

    def test_rejects_missing_keys(self):
        with pytest.raises(tc.SpecSyntaxError):
            tc.parse_spec(spec_text([{"lo": "-pi", "hi": "pi", "kind": "constant"}]))

    def test_rejects_unknown_kind(self):
        with pytest.raises(tc.SpecSyntaxError):
            tc.parse_spec(spec_text(
                [{"lo": "-pi", "hi": "pi", "kind": "cubic", "params": {}}]))

    def test_rejects_unknown_param(self):
        with pytest.raises(tc.SpecSyntaxError):
            tc.parse_spec(spec_text(
                [{"lo": "-pi", "hi": "pi", "kind": "constant",
                  "params": {"c": 1.0, "slope": 2.0}}]))

    def test_rejects_inverted_interval(self):
        with pytest.raises(tc.SpecSyntaxError):
            tc.parse_spec(spec_text(
                [{"lo": 1.0, "hi": -1.0, "kind": "constant", "params": {"c": 0.0}}]))

    def test_rejects_gap(self):
        with pytest.raises(tc.CoverageError):
            tc.parse_spec(spec_text([
                {"lo": "-pi", "hi": 0.0, "kind": "constant", "params": {"c": 0.0}},
                {"lo": 0.5, "hi": "pi", "kind": "constant", "params": {"c": 0.0}}]))

    def test_rejects_overlap(self):
        with pytest.raises(tc.CoverageError):
            tc.parse_spec(spec_text([
                {"lo": "-pi", "hi": 0.5, "kind": "constant", "params": {"c": 0.0}},
                {"lo": 0.0, "hi": "pi", "kind": "constant", "params": {"c": 1.0}}]))

    def test_rejects_wrong_span(self):
        with pytest.raises(tc.CoverageError):
            tc.parse_spec(spec_text(
                [{"lo": -3.0, "hi": 3.0, "kind": "constant", "params": {"c": 0.0}}]))

    def test_rejects_pathological_rational(self):
        with pytest.raises(tc.UnboundedError):
            tc.parse_spec(spec_text(
                [{"lo": "-pi", "hi": "pi", "kind": "pathological-rational",
                  "params": {}}]))

    def test_rejects_exponential_overflow(self):
        # non-finite end values are refused before any declared direction is read
        for declared in ({}, {"direction": "decreasing"}):
            with pytest.raises(tc.UnboundedError, match="endpoint values are not finite"):
                tc.parse_spec(spec_text(
                    [{"lo": "-pi", "hi": "pi", "kind": "exponential",
                      "params": {"a": 1.0, "b": 500.0}, **declared}]))

    @pytest.mark.parametrize("kind, params", [
        ("exponential", {"a": 0.0, "b": 300.0}),
        ("exponential", {"a": -0.0, "b": 300.0}),
        ("power", {"a": 0.0, "x0": -3.2, "p": 700.0}),
    ], ids=["exponential", "exponential-negative-zero", "power"])
    def test_zero_amplitude_admitted_where_its_factor_overflows(self, kind, params):
        # a times a factor that overflows on the segment is still zero with
        # the sign of a, though 0 * inf is NaN
        zero = {"lo": -3.0, "hi": 3.0, "kind": kind, "params": params}
        grid = np.linspace(-math.pi, math.pi, 101)
        alone = tc.parse_spec(spec_text([{**zero, "lo": "-pi", "hi": "pi"}]))
        assert np.array_equal(_bits(alone.eval(grid)), _bits(np.full(101, params["a"])))
        assert alone.singular_points == [] and alone.jumps == ()
        # between a decreasing piece that jumps down to it and an increasing
        # piece that leaves it continuously
        f = tc.parse_spec(spec_text([
            {"lo": "-pi", "hi": -3.0, "kind": "affine", "params": {"a": -2.0, "b": -1.0}},
            zero,
            {"lo": 3.0, "hi": "pi", "kind": "affine", "params": {"a": -3.0, "b": 1.0}}]))
        assert _bits(f.eval(0.5)) == _bits(params["a"])
        assert f.segments[1].direction == "constant"
        assert f.singular_points == []
        assert f.jumps == (tc.JumpPoint(x=-3.0, left_limit=1.0, right_limit=0.0),)
        assert _bits(f.jumps[0].right_limit) == _bits(params["a"])
        assert f.extrema_and_jumps() == [-3.0, 3.0]
        assert f.one_sided_limits(3.0) == (0.0, 0.0)

    def test_rejects_non_monotone_table(self):
        # the refusal names the first step against the end-to-end step
        with pytest.raises(tc.MonotonicityError, match=r"table ys must be strictly monotone: "
                                                       r"ys\[1\] = 1\.0 -> ys\[2\] = 0\.5"):
            tc.parse_spec(spec_text(
                [{"lo": "-pi", "hi": "pi", "kind": "monotone-table",
                  "params": {"xs": ["-pi", 0.0, "pi"], "ys": [0.0, 1.0, 0.5]}}]))

    def test_rejects_contradictory_declared_direction(self):
        with pytest.raises(tc.MonotonicityError):
            tc.parse_spec(spec_text(
                [{"lo": "-pi", "hi": "pi", "kind": "affine",
                  "params": {"a": 0.0, "b": 1.0}, "direction": "decreasing"}]))

    def test_accepts_correct_declared_direction(self):
        f = tc.parse_spec(spec_text(
            [{"lo": "-pi", "hi": "pi", "kind": "affine",
              "params": {"a": 0.0, "b": 1.0}, "direction": "increasing"}]))
        assert f.segments[0].direction == "increasing"

    def test_flat_in_floating_point_is_constant(self):
        # a slope too small to move either end value: the segment is
        # constant, as a constant segment is, whatever the sign of b
        flat = {"lo": "-pi", "hi": "pi", "kind": "affine",
                "params": {"a": 0.4763519921373529, "b": -1.9338909554963908e-175}}
        seg = tc.parse_spec(spec_text([flat])).segments[0]
        assert seg.lo_value == seg.hi_value == 0.4763519921373529
        assert seg.direction == "constant"
        assert tc.parse_spec(spec_text([{**flat, "direction": "constant"}])).segments[0] == seg
        with pytest.raises(tc.MonotonicityError, match="declared direction 'decreasing'"):
            tc.parse_spec(spec_text([{**flat, "direction": "decreasing"}]))

    def test_power_param_validation(self):
        with pytest.raises(tc.SpecSyntaxError):
            tc.parse_spec(spec_text(
                [{"lo": "-pi", "hi": "pi", "kind": "power",
                  "params": {"a": 1.0, "x0": -math.pi, "p": -1.0}}]))
        with pytest.raises(tc.SpecSyntaxError):
            tc.parse_spec(spec_text(
                [{"lo": "-pi", "hi": "pi", "kind": "power",
                  "params": {"a": 1.0, "x0": 0.0, "p": 2.0}}]))

    def test_table_must_span_segment(self):
        with pytest.raises(tc.SpecSyntaxError):
            tc.parse_spec(spec_text(
                [{"lo": "-pi", "hi": "pi", "kind": "monotone-table",
                  "params": {"xs": [-3.0, 0.0, 3.0], "ys": [0.0, 1.0, 2.0]}}]))


_WHOLE = {"lo": "-pi", "hi": "pi", "kind": "constant", "params": {"c": 0.0}}


def _table(xs, ys):
    return spec_text([{"lo": "-pi", "hi": "pi", "kind": "monotone-table",
                       "params": {"xs": xs, "ys": ys}}])


@pytest.mark.parametrize("call, error, phrase", [
    (lambda: tc.parse_spec(spec_text([1.0])), tc.SpecSyntaxError,
     r"^segments\[0\]: expected an object$"),
    (lambda: tc.parse_spec(spec_text([{**_WHOLE, "shape": "flat"}])), tc.SpecSyntaxError,
     r"unknown keys \['shape'\]"),
    (lambda: tc.parse_spec(spec_text([{**_WHOLE, "params": [0.0]}])), tc.SpecSyntaxError,
     r"params: expected an object"),
    (lambda: tc.parse_spec(_table(["-pi"], [0.0])), tc.SpecSyntaxError,
     r"params\.xs: need a list of >= 2 numbers"),
    (lambda: tc.parse_spec(_table(["-pi", 0.0, "pi"], [0.0, 1.0])), tc.SpecSyntaxError,
     r"xs and ys must have equal length"),
    (lambda: tc.parse_spec(_table(["-pi", 1.0, 0.5, "pi"], [0.0, 1.0, 2.0, 3.0])),
     tc.SpecSyntaxError, r"params\.xs: must be strictly increasing"),
    (lambda: tc.parse_spec(spec_text([{**_WHOLE, "direction": "sideways"}])),
     tc.SpecSyntaxError, r"direction: must be one of"),
    (lambda: tc.parse_spec(spec_text([])), tc.SpecSyntaxError,
     r"'segments' must be a non-empty list"),
    (lambda: tc.parse_spec("[]"), tc.SpecSyntaxError, r"top level must be an object"),
    (lambda: tc.parse_spec(json.dumps({"segments": [_WHOLE], "name": "zero"})),
     tc.SpecSyntaxError, r"unknown top-level keys \['name'\]"),
    (lambda: tc.parse_spec(spec_text([{**_WHOLE, "params": {"c": True}}])),
     tc.SpecSyntaxError, r"params\.c: expected a number, got True"),
    (lambda: tc.parse_spec(spec_text([{**_WHOLE, "params": {"c": math.nan}}])),
     tc.SpecSyntaxError, r"params\.c: number must be finite"),
    (lambda: tc.parse_spec(spec_text([{**_WHOLE, "params": {"c": math.inf}}])),
     tc.SpecSyntaxError, r"params\.c: number must be finite"),
    (lambda: tc.parse_spec(spec_text([{**_WHOLE, "hi": "2pi"}])), tc.SpecSyntaxError,
     r"hi: only 'pi' and '-pi' are accepted as strings"),
    (lambda: tc.PiecewiseFunction([]), tc.CoverageError, r"at least one segment is required"),
    (lambda: tc.parse_spec(spec_text([{**_WHOLE, "hi": 3.0}])), tc.CoverageError,
     r"last segment ends at 3\.0, not pi"),
    (lambda: tc.MonotoneSegment(lo=0.0, hi=1.0, kind="nope", params={}, lo_value=0.0,
                                hi_value=0.0).values([0.5]), tc.DomainError,
     r"segment kind 'nope' cannot be evaluated"),
], ids=["segment-not-object", "unknown-segment-keys", "params-not-object", "short-table",
        "unequal-table", "table-not-increasing", "bad-direction", "no-segments",
        "top-not-object", "unknown-top-keys", "bool-number", "json-nan", "json-infinity",
        "other-string", "no-segment-objects", "short-of-pi", "unknown-kind-values"])
def test_malformed_spec_refused(call, error, phrase):
    with pytest.raises(error, match=phrase):
        call()


class TestEval:
    def test_sawtooth_identity(self, sawtooth):
        assert sawtooth.eval(0.5) == 0.5

    def test_right_segment_owns_breakpoint(self, square):
        assert square.eval(0.0) == 1.0

    def test_constant_segment_value(self, square):
        assert square.eval(-1.0) == -1.0

    def test_last_segment_owns_pi(self, square):
        assert square.eval(math.pi) == 1.0
        assert square.eval(-math.pi) == -1.0

    def test_vectorized_matches_scalar(self, triangle):
        xs = np.linspace(-math.pi, math.pi, 41)
        vec = triangle.eval(xs)
        assert vec == pytest.approx([triangle.eval(float(x)) for x in xs])

    def test_many_segments_match_per_point_definition(self):
        # each point is owned by the segment with lo <= x < hi (x = pi by
        # the last) and takes that segment's value, bit for bit
        rng = np.random.default_rng(21)
        f = build(many_segment_spec(rng, 500))
        knots = [x for seg in f.segments if seg.kind == "monotone-table"
                 for x in seg.params["xs"]]
        xs = np.concatenate([rng.uniform(-math.pi, math.pi, 5000),
                             [seg.lo for seg in f.segments], [math.pi], knots])
        rng.shuffle(xs)
        expected = []
        for x in xs:
            seg = next((s for s in f.segments if s.lo <= x < s.hi), f.segments[-1])
            expected.append(seg.values(np.array([x]))[0])
        expected = np.array(expected)
        assert np.array_equal(f.eval(xs), expected)
        assert np.array_equal(f.eval(xs[:4000].reshape(40, 100)), expected[:4000].reshape(40, 100))

    def test_domain_error_outside(self, sawtooth):
        with pytest.raises(tc.DomainError):
            sawtooth.eval(3.5)
        with pytest.raises(tc.DomainError):
            sawtooth.eval(np.array([0.0, -4.0]))

    @pytest.mark.parametrize("bad", ["a", ["a", 0.5], [[0.0], [0.0, 1.0]]],
                             ids=["string", "string-in-list", "ragged"])
    def test_non_numbers_refused(self, sawtooth, bad):
        with pytest.raises(tc.DomainError, match="^x must hold numbers"):
            sawtooth.eval(bad)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _eval_spec(rng, many):
    if many:
        return build(many_segment_spec(rng, int(rng.integers(2, 80))))
    return build(random_spec(rng))


def _arranged(xs, order, rng):
    ascending = np.sort(xs)
    if order == "ascending":
        return ascending
    if order == "descending":
        return ascending[::-1]
    return rng.permutation(xs)


_ORDERS = ["ascending", "descending", "shuffled"]


class TestEvalProperties:
    """``eval`` against the per-point definition, on inputs in every order."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), many=st.booleans(),
           order=st.sampled_from(_ORDERS), size=st.integers(0, 400))
    def test_matches_per_point_definition(self, seed, many, order, size):
        # each point is owned by the segment with lo <= x < hi (x = pi by
        # the last), so a jump abscissa takes the right-hand segment's value
        rng = np.random.default_rng(seed)
        f = _eval_spec(rng, many)
        knots = [x for seg in f.segments if seg.kind == "monotone-table"
                 for x in seg.params["xs"]]
        special = np.array([seg.lo for seg in f.segments] + knots
                           + [math.pi, -math.pi, 0.0, -0.0])
        xs = np.concatenate([rng.uniform(-math.pi, math.pi, size), special,
                             rng.choice(special, 8)])
        xs = np.concatenate([xs, xs[rng.integers(0, xs.size, 8)]])  # duplicates
        xs = _arranged(xs, order, rng)
        expected = [next((s for s in f.segments if s.lo <= x < s.hi), f.segments[-1])
                    .values(np.array([x]))[0] for x in xs]
        assert np.array_equal(_bits(f.eval(xs)), _bits(expected))
        for x, want in zip(xs[:20], expected):
            assert _bits(f.eval(float(x))) == _bits(want)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), many=st.booleans(),
           order=st.sampled_from(_ORDERS), size=st.integers(0, 200),
           bad=st.sampled_from([math.nan, math.inf, -math.inf, 4.0,
                                math.nextafter(math.pi, 4.0),
                                math.nextafter(-math.pi, -4.0)]))
    def test_bad_abscissa_anywhere_is_refused(self, seed, many, order, size, bad):
        rng = np.random.default_rng(seed)
        f = _eval_spec(rng, many)
        xs = _arranged(rng.uniform(-math.pi, math.pi, size), order, rng)
        # anywhere, and so also inside an otherwise ascending array
        xs = np.insert(xs, int(rng.integers(0, size + 1)), bad)
        with pytest.raises(tc.DomainError):
            f.eval(xs)
        with pytest.raises(tc.DomainError):
            f.eval(bad)


class TestOneSidedLimits:
    def test_square_jump(self, square):
        assert square.one_sided_limits(0.0) == (-1.0, 1.0)

    def test_continuity_point(self, sawtooth):
        assert sawtooth.one_sided_limits(0.5) == (0.5, 0.5)

    def test_wrap_pair_at_pi(self, sawtooth):
        assert sawtooth.one_sided_limits(math.pi) == (math.pi, -math.pi)

    def test_both_endpoints_agree(self, sawtooth):
        assert (sawtooth.one_sided_limits(math.pi)
                == sawtooth.one_sided_limits(-math.pi))

    def test_continuous_boundary(self, triangle):
        assert triangle.one_sided_limits(0.0) == (0.0, 0.0)


class TestExtremaAndJumps:
    def test_square(self, square):
        assert square.extrema_and_jumps() == [0.0]

    def test_sawtooth(self, sawtooth):
        assert sawtooth.extrema_and_jumps() == []

    def test_triangle(self, triangle):
        assert triangle.extrema_and_jumps() == [0.0]

    def test_reversal_across_plateau(self):
        f = tc.parse_spec(spec_text([
            {"lo": "-pi", "hi": -1.0, "kind": "affine", "params": {"a": 0.0, "b": 1.0}},
            {"lo": -1.0, "hi": 1.0, "kind": "constant", "params": {"c": -1.0}},
            {"lo": 1.0, "hi": "pi", "kind": "affine", "params": {"a": 0.0, "b": -1.0}},
        ]))
        # continuous everywhere; the maximum plateau registers where the
        # decrease begins, and plateau edges alone are not extrema
        assert f.extrema_and_jumps() == [1.0]

    def test_reversal_across_a_piece_flat_in_floating_point(self):
        # the middle piece has a negative slope too small to move its end
        # values, so it is a plateau and the decrease begins at its end
        f = tc.parse_spec(spec_text([
            {"lo": "-pi", "hi": -1.0, "kind": "affine", "params": {"a": 2.0, "b": 1.0}},
            {"lo": -1.0, "hi": 1.0, "kind": "affine",
             "params": {"a": 1.0, "b": -1.9338909554963908e-175}},
            {"lo": 1.0, "hi": "pi", "kind": "affine", "params": {"a": 2.0, "b": -1.0}},
        ]))
        assert f.jumps == ()
        assert [s.direction for s in f.segments] == ["increasing", "constant", "decreasing"]
        assert f.extrema_and_jumps() == [1.0]

    def test_plateau_without_reversal(self):
        f = tc.parse_spec(spec_text([
            {"lo": "-pi", "hi": 0.0, "kind": "affine", "params": {"a": 1.0, "b": 1.0}},
            {"lo": 0.0, "hi": "pi", "kind": "constant", "params": {"c": 1.0}},
        ]))
        assert f.extrema_and_jumps() == []


class TestSingularPoints:
    """The infinite slopes that quadrature grades toward: the origin of
    every non-constant power piece with 0 < p < 1 that starts at it."""

    @staticmethod
    def power(lo, hi, x0, p, a=1.0):
        return {"lo": lo, "hi": hi, "kind": "power", "params": {"a": a, "x0": x0, "p": p}}

    def test_selects_power_pieces_at_their_origin_below_one(self):
        f = tc.parse_spec(spec_text([
            self.power("-pi", -2.0, -math.pi, 0.5),
            self.power(-2.0, -1.0, -2.5, 0.5),     # origin below lo: a finite slope
            self.power(-1.0, 0.0, -1.0, 1.0),      # p = 1: a line
            self.power(0.0, 0.5, 0.0, 1.5),        # p > 1: a zero slope
            self.power(0.5, 1.0, 0.5, 0.999, -2.0),
            self.power(1.0, 2.0, 1.0, 0.3, 0.0),   # a = 0: a constant
            {"lo": 2.0, "hi": "pi", "kind": "affine", "params": {"a": 0.0, "b": 1.0}},
        ]))
        assert f.singular_points == [-math.pi, 0.5]

    def test_none_without_power_pieces(self, square, sawtooth):
        assert square.singular_points == []
        assert sawtooth.singular_points == []


_TINY = st.builds(lambda sign, e: sign * 10.0 ** e,
                  st.sampled_from([-1.0, 1.0]), st.floats(-320.0, -14.0))
_SLOPES = st.one_of(st.floats(-2.0, 2.0), _TINY)
_OFFSETS = st.one_of(st.floats(-2.0, 2.0), st.floats(-1e300, 1e300))


@st.composite
def _segment_lists(draw):
    """1 to 3 admitted segments of every kind on equal parts of [-pi, pi],
    with slopes small enough that the end values round equal, and offsets
    large enough that small slopes vanish in them."""
    count = draw(st.integers(1, 3))
    edges = np.linspace(-math.pi, math.pi, count + 1).tolist()
    segments = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        kind = draw(st.sampled_from(["constant", "affine", "exponential", "power",
                                     "monotone-table"]))
        if kind == "constant":
            params = {"c": draw(_OFFSETS)}
        elif kind in ("affine", "exponential"):
            params = {"a": draw(_OFFSETS), "b": draw(_SLOPES)}
        elif kind == "power":
            params = {"a": draw(st.one_of(_SLOPES, _OFFSETS)),
                      "x0": lo - draw(st.sampled_from([0.0, 1e-3, 0.5, 2.0])),
                      "p": draw(st.floats(0.05, 3.0))}
        else:
            ys = sorted(draw(st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=5,
                                      unique=True)), reverse=draw(st.booleans()))
            xs = [lo + (hi - lo) * j / (len(ys) - 1) for j in range(len(ys) - 1)] + [hi]
            params = {"xs": xs, "ys": ys}
        segments.append({"lo": lo, "hi": hi, "kind": kind, "params": params})
    return segments


class TestDirectionFromEndValues:
    """A segment's direction is the sign of its end-to-end step, and agrees
    with the sign of the primitive's slope wherever the end values differ."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(segments=_segment_lists())
    def test_direction_against_the_slope_oracle(self, segments):
        text = spec_text(segments)
        f = tc.parse_spec(text)
        for seg, raw in zip(f.segments, segments):
            step = (seg.hi_value > seg.lo_value) - (seg.hi_value < seg.lo_value)
            assert seg.direction == {1: "increasing", -1: "decreasing", 0: "constant"}[step]
            if seg.lo_value != seg.hi_value:
                assert seg.direction == slope_direction(raw["kind"], raw["params"])
        # parse followed by eval is bitwise stable
        grid = np.linspace(-math.pi, math.pi, 1001)
        assert np.array_equal(_bits(f.eval(grid)), _bits(tc.parse_spec(text).eval(grid)))


class TestRandomSpecs:
    def test_thousand_random_specs_tile_and_stay_bounded(self):
        rng = np.random.default_rng(0)
        grid = np.linspace(-math.pi, math.pi, 4096)
        for _ in range(1000):
            f = build(random_spec(rng))
            assert f.segments[0].lo == -math.pi
            assert f.segments[-1].hi == math.pi
            for left, right in zip(f.segments, f.segments[1:]):
                assert left.hi == right.lo
            values = f.eval(grid)
            assert np.isfinite(values).all()
            assert np.abs(values).max() <= f.abs_bound() + 1e-9

    def test_limit_consistency_off_breakpoints(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            f = build(random_spec(rng))
            edges = set(f.breakpoints)
            x = float(rng.uniform(-math.pi, math.pi))
            if x in edges:
                continue
            left, right = f.one_sided_limits(x)
            assert left == right == f.eval(x)

    def test_monotone_witness_per_segment(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            f = build(random_spec(rng))
            for seg in f.segments:
                grid = np.linspace(seg.lo, seg.hi, 64)
                diffs = np.diff(seg.values(grid))
                if seg.direction == "increasing":
                    assert (diffs >= 0).all()
                elif seg.direction == "decreasing":
                    assert (diffs <= 0).all()
                else:
                    assert (diffs == 0).all()

    def test_jumps_subset_of_boundaries(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            f = build(random_spec(rng))
            boundaries = set(f.breakpoints)
            assert all(jp.x in boundaries for jp in f.jumps)
            assert all(jp.left_limit != jp.right_limit for jp in f.jumps)
