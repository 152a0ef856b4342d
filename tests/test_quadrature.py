import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trigconv as tc
from conftest import CONSTANT_ONE, SAWTOOTH, SQUARE, build, harmonic_grid, traced_peak
from oracles import composite_simpson, sawtooth_partial_sum, sine_ratio_mp, square_partial_sum
from trigconv import quadrature


class TestKronrodTable:
    """The G7/K15 constants, checked without running the quadrature engine."""

    def test_gauss_rule_is_the_odd_indexed_kronrod_nodes(self):
        nodes, weights = np.polynomial.legendre.leggauss(7)
        assert np.abs(quadrature._NODES[1::2] - nodes).max() <= 1e-15
        assert np.abs(quadrature._GAUSS_WEIGHTS[1::2] - weights).max() <= 1e-15
        assert (quadrature._GAUSS_WEIGHTS[0::2] == 0.0).all()

    @pytest.mark.parametrize("rule, degree", [("_KRONROD_WEIGHTS", 23),
                                              ("_GAUSS_WEIGHTS", 13)])
    def test_polynomial_exactness(self, rule, degree):
        weights = getattr(quadrature, rule)
        x = quadrature._NODES
        for k in range(degree + 2):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            gap = abs(weights @ x**k - exact)
            if k <= degree:
                assert gap <= 1e-15, (rule, k)
            else:
                assert gap > 1e-10, (rule, k)

    def test_converged_panel_costs_fifteen_points(self):
        sizes = []

        def cubic(x):
            sizes.append(x.size)
            return x**3 - 2.0 * x

        value = tc.integrate(cubic, 0.0, 1.0, 1e-10)
        assert value == pytest.approx(-0.75, abs=1e-15)
        assert sizes == [15]


class TestIntegrate:
    def test_sine_over_half_period(self):
        assert tc.integrate(np.sin, 0.0, math.pi, 1e-10) == pytest.approx(2.0, abs=1e-9)

    def test_sine_over_its_argument(self):
        reference = composite_simpson(lambda g: np.sinc(g / math.pi), 0.0, math.pi, 10**5)
        value = tc.integrate(lambda g: np.sinc(g / math.pi), 0.0, math.pi, 1e-10)
        assert value == pytest.approx(reference, abs=1e-6)
        assert value == pytest.approx(1.8519370, abs=1e-6)

    def test_oscillating_ratio_matches_brute_force(self):
        def safe_ratio(b):
            guarded = np.maximum(b, 1e-12)
            return np.where(b < 1e-12, 10.0, np.sin(10 * guarded) / np.sin(guarded))

        value = tc.integrate(lambda b: tc.sine_ratio(10.0, b), 0.0, math.pi / 2, 1e-10)
        reference = composite_simpson(safe_ratio, 0.0, math.pi / 2, 10**6)
        assert value == pytest.approx(reference, abs=1e-8)
        # the same integral in closed form: 2 (1 - 1/3 + 1/5 - 1/7 + 1/9)
        assert value == pytest.approx(526.0 / 315.0, abs=1e-10)

    def test_breakpoint_makes_kink_exact(self):
        f = lambda x: np.abs(x - 0.3)
        value = tc.integrate(f, 0.0, 1.0, 1e-12, breakpoints=[0.3])
        exact = 0.3**2 / 2 + 0.7**2 / 2
        assert value == pytest.approx(exact, abs=1e-13)

    def test_vector_integrand_matches_components(self):
        def pair(x):
            return np.stack([np.sin(x), np.cos(3 * x) * x], axis=1)
        both = tc.integrate(pair, 0.0, 2.0, 1e-11)
        first = tc.integrate(np.sin, 0.0, 2.0, 1e-11)
        second = tc.integrate(lambda x: np.cos(3 * x) * x, 0.0, 2.0, 1e-11)
        assert both[0] == pytest.approx(first, abs=1e-11)
        assert both[1] == pytest.approx(second, abs=1e-11)

    def test_deterministic_bits(self):
        f = lambda x: np.exp(-x) * np.sin(7 * x)
        a = tc.integrate(f, 0.0, 3.0, 1e-11)
        b = tc.integrate(f, 0.0, 3.0, 1e-11)
        assert a == b

    def test_rejects_bad_interval(self):
        with pytest.raises(tc.DomainError):
            tc.integrate(np.sin, 1.0, 1.0)
        with pytest.raises(tc.DomainError):
            tc.integrate(np.sin, 2.0, 1.0)
        with pytest.raises(tc.DomainError):
            tc.integrate(np.sin, 0.0, np.inf)

    def test_rejects_a_span_that_overflows(self):
        # hi - lo overflows to inf: the range is refused as it was given,
        # not as the single edge it would collapse to
        with pytest.raises(tc.DomainError, match=r"span hi - lo, got \[-1e\+308, 1e\+308\]"):
            tc.integrate(np.sin, -1e308, 1e308)
        with pytest.raises(tc.DomainError, match="over a finite span"):
            tc.integrate_intervals(np.sin, [-1e308, 0.0, 1e308])

    def test_integrates_a_span_above_half_the_largest_float(self):
        # one panel over the range is wider than the largest float, which
        # stands in for it
        one = lambda x: np.ones_like(x)
        assert tc.integrate(one, 0.0, 1e308) == pytest.approx(1e308, rel=1e-15)
        values, _ = tc.integrate_intervals(one, [0.0, 1.0, 1e308])
        assert values == pytest.approx([1.0, 1e308], rel=1e-15)

    def test_error_that_overflows_its_budget_ratio_is_refused(self):
        # panel errors near 1e298 against a budget near 1e272 overflow
        # err / budget; the call still ends in a QuadratureError, not in
        # a RuntimeWarning
        with pytest.raises(tc.QuadratureError, match="panel budget 32768 exhausted"):
            tc.integrate(np.sin, -1e300, 1e300)

    def test_rejects_bad_tol(self):
        with pytest.raises(tc.DomainError):
            tc.integrate(np.sin, 0.0, 1.0, tol=0.0)

    def test_panel_budget_error(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 32)
        jump = lambda x: np.where(x < 1.0 / 3.0, 0.0, 1.0)
        with pytest.raises(tc.QuadratureError, match="panel budget 32 exhausted"):
            tc.integrate(jump, 0.0, 1.0, 1e-12)

    @pytest.mark.parametrize("tol", [1e-6, 1e-8])
    def test_one_budget_over_many_breakpoints(self, tol):
        # a square-root cusp at the left end of each of 100 intervals; the
        # integral is 1/15, so the one budget max(tol |I|, tol) is tol,
        # which a budget per interval, summed over 100 of them, misses
        def sqrt_sawtooth(x):
            return np.sqrt(x - np.floor(100.0 * x) / 100.0)

        value = tc.integrate(sqrt_sawtooth, 0.0, 1.0, tol,
                             breakpoints=[j / 100 for j in range(1, 100)])
        assert abs(value - 1.0 / 15.0) <= tol

    @pytest.mark.parametrize("width", [None, 0.05, math.pi / 1001, 2.0])
    def test_seeded_panels_tile_the_range(self, monkeypatch, width):
        # the seeded panels run from lo to hi edge to edge, every breakpoint
        # is a panel edge, and no panel is wider than the grid of the
        # weight, the half-periods pi / (m |scale|) of sin(m u), but for the
        # rounding of its edges lo + p * width; without a weight there is
        # one panel per interval.  The weight sin(3 u) / sin(u), u = s x,
        # is 1 + 2 cos(2 s x), so the integral of cos(50 x) times it is
        # the sum over c = 50 -/+ 2 s of 2 sin(c pi) / c
        rng = np.random.default_rng(7)
        breakpoints = np.sort(rng.uniform(-math.pi, math.pi, 40))
        seeded = []
        grid_panels = quadrature._grid_panels
        refine = quadrature._refine

        def recorded_grid(*args):
            result = grid_panels(*args)
            seeded.append(result[0])
            return result

        def recorded_refine(f, mid, half, *args):
            seeded.extend([mid, half])
            return refine(f, mid, half, *args)

        monkeypatch.setattr(quadrature, "_grid_panels", recorded_grid)
        monkeypatch.setattr(quadrature, "_refine", recorded_refine)
        if width is None:
            sine_ratio, exact = None, 0.0
        else:
            sine_ratio = (3, math.pi / (3.0 * width), 0.0)
            exact = sum(2.0 * math.sin(c * math.pi) / c
                        for c in (50.0 - 2.0 * sine_ratio[1], 50.0 + 2.0 * sine_ratio[1]))
        value = tc.integrate(lambda x: np.cos(50.0 * x), -math.pi, math.pi, 1e-10,
                             breakpoints=breakpoints, sine_ratio=sine_ratio)
        assert abs(value - exact) <= 1e-10
        points, mid, half = seeded
        assert points[0] == -math.pi and points[-1] == math.pi
        assert (np.diff(points) > 0).all()
        assert np.isin(breakpoints, points).all()
        assert np.array_equal(mid, 0.5 * (points[:-1] + points[1:]))
        assert np.array_equal(half, 0.5 * np.diff(points))
        if width is None:
            assert points.shape[0] == breakpoints.shape[0] + 2
        else:
            assert (2.0 * half <= width + 4.0 * np.finfo(float).eps * math.pi).all()

    def test_non_finite_integrand_error(self):
        bad = lambda x: np.where(x < 0.5, np.inf, 1.0)
        with pytest.raises(tc.QuadratureError):
            tc.integrate(bad, 0.0, 1.0, 1e-8)

    def test_overflowing_integral_error(self):
        huge = lambda x: np.full_like(x, 1e308)
        with np.errstate(over="ignore"), pytest.raises(tc.QuadratureError, match="overflow"):
            tc.integrate(huge, 0.0, 10.0)

    def test_inner_edge_next_to_a_grid_edge_is_that_edge(self):
        # the grid edge 6 * 0.05 rounds to 0.30000000000000004; the inner
        # edge 0.3 is taken as it, so no panel is 5.6e-17 wide and both
        # panels next to it stay grid panels
        points, uncut = quadrature._grid_panels(np.array([0.0, 0.3, 1.0]), 0.025)
        assert points.shape[0] == 21
        assert 0.3 not in points
        assert np.diff(points).min() > 0.049
        assert uncut.all()


def _direct_ratio(m, scale, shift, x):
    """``sin(m u) / sin(u)`` at ``u = scale x + shift`` node by node, ``u``
    reduced modulo ``pi`` for an odd integer ``m``."""
    u = scale * x + shift
    if m % 2 == 1:
        u = u - math.pi * np.rint(u / math.pi)
    return quadrature._sin_ratio(m, u)


class TestSineRatioWeight:
    """``sine_ratio=(m, scale, shift)`` weights the integrand by ``sin(m u) /
    sin(u)``, ``u = scale x + shift``: by angle addition from a table on
    grid panels, and by ``_sin_ratio`` node by node on every other panel."""

    @pytest.mark.parametrize("m, scale, shift, lo, hi, width", [
        (2001, 0.5, -0.15, -math.pi, math.pi, math.pi / 1001),
        (20001, 0.5, -0.15, -math.pi, math.pi, math.pi / 10001),
        (7, 3.0, 0.2, -3.0, 3.0, 0.05),
        (2.5, 1.0, 0.0, 0.0, 3.0, 0.3),
        (1000.5, 1.0, 0.0, 0.0, 1.5, math.pi / 1000.5),
        (2001, 0.5, 0.0, -math.pi, math.pi, math.pi / 1001),
        (7, 1.0, -0.25, 0.0, 1.0, 0.1),
        (1, 1.0, 0.0, -5 * math.pi, 5 * math.pi, math.pi),
        (1.5, 1.0, 0.0, -3.0, 3.0, math.pi / 1.5),
    ], ids=["partial-sum-kernel", "order-10000", "odd-m-across-multiples-of-pi",
            "non-integer-m", "limit-verify", "zero-on-a-grid-edge", "zero-inside-a-panel",
            "m-1", "non-integer-m-below-2"])
    def test_node_values_match_the_direct_weight(self, m, scale, shift, lo, hi, width,
                                                 monkeypatch):
        # the zero of u is a breakpoint, as x is in partial_sum_kernel,
        # except in the last case, where it lies at a grid panel's midpoint
        breakpoints = [0.77] if shift == -0.25 else [0.77, -shift / scale]
        points, uncut = quadrature._grid_panels(quadrature._edges(lo, hi, breakpoints),
                                                0.5 * width)
        mid, half = 0.5 * (points[:-1] + points[1:]), 0.5 * np.diff(points)
        weight = quadrature._sine_ratio_weight(m, scale, shift, 0.5 * width,
                                               max(abs(lo), abs(hi)))
        f = lambda x: 1.0 + x * x
        direct = []
        sin_ratio = quadrature._sin_ratio
        monkeypatch.setattr(quadrature, "_sin_ratio",
                            lambda m, u: direct.append(u.size) or sin_ratio(m, u))
        got = quadrature._node_values(f, mid, half, weight)
        monkeypatch.undo()
        x = mid[:, None] + half[:, None] * quadrature._NODES
        want = f(x) * _direct_ratio(m, scale, shift, x)
        # below m = 2 a grid panel spans more than pi / 2 in u, so a range
        # that keeps clear of the poles of a non-integer m holds few of them
        assert uncut.sum() >= (8 if m >= 2 else 1) and (~uncut).sum() >= 2
        # some grid panel keeps clear of every zero of sin(u) and takes the table
        assert sum(direct) < got.size
        # cut pieces take the direct path; grid panels agree with it to the
        # rounding of the phase m u
        assert np.array_equal(got[~uncut], want[~uncut])
        assert (np.abs(got - want) <= 1e-12 * m * f(x)).all()
        if m == 1:
            # the table's numerator and denominator are one computation
            assert np.array_equal(got, f(x))
        if shift == -0.25:
            # u = 0 at the middle node of the panel [0.2, 0.3]: the limit m
            assert got[2, 7] == m * f(0.25)

    def test_zero_on_a_grid_edge_stays_on_the_table(self, monkeypatch):
        # x = 0 is a grid edge of the order-1000 kernel grid, so u -> 0 at
        # the end of two uncut panels, which still take the table
        weight = quadrature._sine_ratio_weight(2001, 0.5, 0.0, math.pi / 2002, math.pi)
        direct = []
        sin_ratio = quadrature._sin_ratio
        monkeypatch.setattr(quadrature, "_sin_ratio",
                            lambda m, u: direct.append(u.size) or sin_ratio(m, u))
        h = math.pi / 2002
        mid = np.array([-h, h])
        half = np.full(2, h)
        got = weight(mid, half, mid[:, None] + h * quadrature._NODES)
        assert direct == []
        want = _direct_ratio(2001, 0.5, 0.0, mid[:, None] + h * quadrature._NODES)
        assert np.abs(got - want).max() <= 1e-12 * 2001

    def test_even_m_changes_sign_every_pi(self):
        # the grid panels of m = 4 between pi and 2 pi: their centres
        # reduce modulo pi with k = 1 or 2, and the table takes the sign
        # (-1)^k; sin(4 u) / sin(u) = 4 cos(u) cos(2 u) has no cancellation
        h = math.pi / 8
        mid = math.pi + h * np.arange(1, 8, 2)
        x = mid[:, None] + h * quadrature._NODES
        got = quadrature._sine_ratio_weight(4, 1.0, 0.0, h, 2.0 * math.pi)(mid, np.full(4, h), x)
        assert np.abs(got - 4.0 * np.cos(x) * np.cos(2.0 * x)).max() <= 1e-14

    @pytest.mark.parametrize("sine_ratio, lo, hi, tol", [
        ((2001, 0.5, -0.15), -math.pi, math.pi, 1e-9),
        ((7, 3.0, 0.2), -3.0, 3.0, 1e-10),
        ((1000.5, 1.0, 0.0), 0.0, 1.5, 1e-8),
    ])
    def test_integrate_matches_the_weighted_integrand(self, sine_ratio, lo, hi, tol):
        width = math.pi / (sine_ratio[0] * sine_ratio[1])
        f = lambda x: np.exp(np.cos(x))
        weighted = tc.integrate(f, lo, hi, tol, breakpoints=[0.77], sine_ratio=sine_ratio)
        # the weight's grid, given to the plain integrand as breakpoints
        grid = lo + width * np.arange(1, math.ceil((hi - lo) / width))
        direct = tc.integrate(lambda x: f(x) * _direct_ratio(*sine_ratio, x), lo, hi, tol,
                              breakpoints=[0.77, *grid])
        assert abs(weighted - direct) <= 1e-12

    def test_intervals_weight_every_component(self):
        # the sign blocks of sin(10 u) are the weight's grid panels, which
        # take the table; the plain integrand gets the same mesh, one panel
        # per block, and the weight node by node
        edges = np.arange(6) * math.pi / 10
        values, errors = tc.integrate_intervals(
            lambda b: np.stack([1.0 + b, np.ones(b.shape)], axis=1), edges, 1e-10,
            sine_ratio=(10, 1.0, 0.0))
        ratio = lambda b: _direct_ratio(10, 1.0, 0.0, b)
        want, _ = tc.integrate_intervals(
            lambda b: np.stack([(1.0 + b) * ratio(b), ratio(b)], axis=1), edges, 1e-10)
        assert np.abs(values - want).max() <= 1e-14
        assert errors.shape == (5,)

    @pytest.mark.parametrize("shape, oracle", [(SQUARE, square_partial_sum),
                                               (SAWTOOTH, sawtooth_partial_sum)],
                             ids=["square", "sawtooth"])
    def test_partial_sum_kernel_matches_the_closed_form_sums(self, shape, oracle):
        f = build(shape)
        for x in (0.0, 0.3, 1.3, -2.0):
            assert abs(tc.partial_sum_kernel(f, x, 16000) - oracle(x, 16000)) <= 1e-9

    @staticmethod
    def trig_values(monkeypatch):
        """A list that gets the size of every array ``np.sin`` and
        ``np.cos`` see, and one that gets the final panel count of every
        refinement."""
        seen = []
        for name in ("sin", "cos"):
            trig = getattr(np, name)
            monkeypatch.setattr(np, name, lambda x, *a, trig=trig, **k:
                                seen.append(np.size(x)) or trig(x, *a, **k))
        panels = []
        refine = quadrature._refine

        def recorded_refine(*args):
            result = refine(*args)
            panels.append(result[-3].shape[0])
            return result

        monkeypatch.setattr(quadrature, "_refine", recorded_refine)
        return seen, panels

    def test_all_grid_kernel_costs_four_trig_calls_per_panel(self, monkeypatch):
        # the order-1000 kernel grid has 2001 panels 2 pi / 2001 wide from
        # -pi; the sawtooth, whose only jump is at +/-pi, at x on a grid
        # edge seeds only grid panels: sin and cos see four values per panel
        # and the 15-node table, not two per node
        x = -math.pi + (2.0 * math.pi / 2001) * 1400
        want = sawtooth_partial_sum(x, 1000)
        seen, panels = self.trig_values(monkeypatch)
        value = tc.partial_sum_kernel(build(SAWTOOTH), x, 1000)
        assert abs(value - want) <= 1e-9
        assert panels == [2001]
        assert sum(seen) <= 4 * (panels[0] + 15)

    def test_decompose_blocks_are_grid_panels(self, monkeypatch):
        # the 500 sign blocks of order 1000 over [0, pi/2] are the weight's
        # grid panels, four trigonometric values each, where the direct
        # path sees 30 a panel
        seen, panels = self.trig_values(monkeypatch)
        d = tc.decompose(build(CONSTANT_ONE), 1000, math.pi / 2)
        assert d.full_blocks == 500
        assert panels == [500]
        assert sum(seen) <= 4 * (panels[0] + 15) + 30


class TestSineRatioRefusals:
    """A bad ``sine_ratio`` is refused before the integrand is evaluated."""

    @staticmethod
    def refuse(x):
        raise AssertionError("integrand evaluated for a refused sine_ratio")

    @pytest.mark.parametrize("sine_ratio, lo, hi, match", [
        ((3, 1.0), 0.0, 1.0, "three numbers"),
        ("abc", 0.0, 1.0, "m must be a number"),
        ((0, 1.0, 0.0), 0.0, 1.0, r"m must be finite and lie in \(0, inf\)"),
        ((-3, 1.0, 0.0), 0.0, 1.0, r"m must be finite and lie in \(0, inf\)"),
        ((math.inf, 1.0, 0.0), 0.0, 1.0, r"m must be finite and lie in \(0, inf\)"),
        ((math.nan, 1.0, 0.0), 0.0, 1.0, r"m must be finite and lie in \(0, inf\)"),
        ((3, 0.0, 0.0), 0.0, 1.0, "scale must be nonzero"),
        ((3, math.inf, 0.0), 0.0, 1.0, "scale must be finite"),
        ((3, math.nan, 0.0), 0.0, 1.0, "scale must be finite"),
        ((3, 1.0, math.inf), 0.0, 1.0, "shift must be finite"),
        ((3, 1.0, math.nan), 0.0, 1.0, "shift must be finite"),
        ((3, 1e308, 0.0), 0.0, 10.0, "phase overflows"),
        ((2.5, 1.0, 0.0), 0.0, 4.0, r"pole at u = 1 pi"),
        ((4.5, 1.0, 0.0), -4.0, -3.0, r"pole at u = -1 pi"),
        ((2.5, -1.0, -7.0), -1.0, 0.0, r"pole at u = -2 pi"),
        ((2.5, 1.0, 0.0), -math.pi, 0.5, r"pole at u = -1 pi"),
    ])
    @pytest.mark.parametrize("integrator", ["integrate", "integrate_intervals"])
    def test_refused(self, integrator, sine_ratio, lo, hi, match):
        with pytest.raises(tc.DomainError, match=match):
            if integrator == "integrate":
                tc.integrate(self.refuse, lo, hi, sine_ratio=sine_ratio)
            else:
                tc.integrate_intervals(self.refuse, [lo, 0.5 * (lo + hi), hi],
                                       sine_ratio=sine_ratio)

    @pytest.mark.parametrize("sine_ratio, value", [
        ((1e-200, 1e-200, 0.0), 1e-200),
        ((2.0, 5e-324, 0.0), 2.0),
        ((1e308, 3.0, 0.0), None),
        ((1e300, 1.0, 0.0), None),
    ], ids=["product-underflows", "width-overflows", "product-overflows", "1e300-panels"])
    @pytest.mark.parametrize("integrator", ["integrate", "integrate_intervals"])
    def test_extreme_grid_widths(self, integrator, sine_ratio, value):
        # the grid's width pi / (m |scale|): a product m |scale| that
        # underflows to 0, or a quotient that overflows, leaves one panel
        # over [0, 1], on which the weight is about m, computed to the
        # budget tol = 1e-10; a product that overflows, or a huge count, is
        # refused at the panel cap before f is evaluated
        def run(f):
            if integrator == "integrate":
                return tc.integrate(f, 0.0, 1.0, sine_ratio=sine_ratio)
            return tc.integrate_intervals(f, [0.0, 0.5, 1.0], sine_ratio=sine_ratio)[0].sum()

        if value is None:
            with pytest.raises(tc.QuadratureError, match="above the cap 32768"):
                run(self.refuse)
        else:
            assert run(np.ones_like) == pytest.approx(value, abs=1e-10)

    @pytest.mark.parametrize("sine_ratio, lo, hi", [
        ((3, 1.0, 0.0), 0.0, 4.0),
        ((2.5, 1.0, 0.0), 0.0, 3.0),
        ((2.5, 1.0, 3.5), 0.0, 2.0),
    ], ids=["odd-m-across-pi", "below-pi", "between-pi-and-2pi"])
    def test_admitted(self, sine_ratio, lo, hi):
        value = tc.integrate(np.ones_like, lo, hi, 1e-10, sine_ratio=sine_ratio)
        reference = composite_simpson(lambda x: _direct_ratio(*sine_ratio, x), lo, hi, 10**5)
        assert value == pytest.approx(reference, abs=1e-8)

    @pytest.mark.parametrize("m, lo, hi", [(4, -4.0, -3.0), (2, -7.0, 7.0)])
    @pytest.mark.parametrize("integrator", ["integrate", "integrate_intervals"])
    def test_even_integer_m_across_multiples_of_pi(self, integrator, m, lo, hi):
        # at u = k pi the weight of an integer m has the removable
        # singularity (-1)^(k (m + 1)) m, whatever the parity of m
        mpmath = pytest.importorskip("mpmath")
        if integrator == "integrate":
            value = tc.integrate(np.cos, lo, hi, 1e-12, sine_ratio=(m, 1.0, 0.0))
        else:
            value = tc.integrate_intervals(np.cos, [lo, 0.5 * (lo + hi), hi], 1e-12,
                                           sine_ratio=(m, 1.0, 0.0))[0].sum()
        k = range(math.ceil(lo / math.pi), math.floor(hi / math.pi) + 1)
        reference = float(mpmath.quad(lambda x: mpmath.cos(x) * sine_ratio_mp(m, x),
                                      [lo, *(j * mpmath.pi for j in k), hi]))
        assert value == pytest.approx(reference, rel=1e-14, abs=1e-14)


def _sqrt_sawtooth(x):
    """A square-root cusp at the left end of each of the intervals
    ``[j / 100, (j + 1) / 100]``; its integral over ``[0, 1]`` is 1/15."""
    return np.sqrt(x - np.floor(100.0 * x) / 100.0)


class TestIntegrateIntervals:
    @pytest.mark.parametrize("edges", [[0.0], [[0.0, 1.0]]], ids=["one-edge", "two-d"])
    def test_rejects_edges_that_hold_no_interval(self, edges):
        with pytest.raises(tc.DomainError, match="1-D array with at least two entries"):
            tc.integrate_intervals(np.cos, edges)

    def test_breakpoint_within_the_merge_distance_of_hi_becomes_hi(self):
        # 1e-14 below hi is within 1e-13 (hi - lo): the last edge moves onto hi
        edges = quadrature._edges(0, 1, [0.5, 1 - 1e-14])
        assert edges.tolist() == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize("tol", [1e-6, 1e-8])
    def test_one_budget_over_many_intervals(self, tol):
        # one budget max(tol |sum|, tol) = tol holds the sum of the 100
        # blocks; one budget per block lets their errors add up past it
        values, errors = tc.integrate_intervals(_sqrt_sawtooth, np.arange(101) / 100, tol)
        assert abs(values.sum() - 1.0 / 15.0) <= tol
        assert errors.sum() <= max(tol * abs(values.sum()), tol)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(widths=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=30),
           kink=st.floats(-0.5, 10.0), tol=st.sampled_from([1e-6, 1e-8, 1e-10]))
    def test_sum_held_to_the_budget_of_one_integral(self, widths, kink, tol):
        # random intervals and a square-root kink anywhere: the summed
        # error estimate and the sum itself meet the one budget of
        # integrate over the whole range, with the edges as breakpoints
        edges = np.concatenate([[0.0], np.cumsum(widths)])
        f = lambda x: np.sqrt(np.abs(x - kink))
        values, errors = tc.integrate_intervals(f, edges, tol)
        budget = max(tol * abs(values.sum()), tol)
        assert errors.sum() <= budget
        whole = tc.integrate(f, edges[0], edges[-1], tol, breakpoints=edges[1:-1])
        assert abs(values.sum() - whole) <= budget

    def test_matches_individual_calls(self):
        edges = np.array([0.0, 0.7, 1.1, 2.5, 4.0])
        f = lambda x: np.exp(-0.5 * x) * np.cos(4 * x)
        values, errors = tc.integrate_intervals(f, edges, 1e-11)
        assert values.shape == (4,) and errors.shape == (4,)
        for j in range(4):
            single = tc.integrate(f, edges[j], edges[j + 1], 1e-11)
            assert values[j] == pytest.approx(single, abs=1e-10)

    def test_error_estimates_are_conservative(self):
        edges = np.linspace(0.0, math.pi, 7)
        values, errors = tc.integrate_intervals(np.sin, edges, 1e-10)
        exact = -np.diff(np.cos(edges))
        assert np.abs(values - exact).max() <= errors.max() + 1e-13

    def test_panel_sums_taken_once_per_round(self, monkeypatch):
        # two einsums (K15 sums and gaps) per measured mesh, none after the
        # last: one measured mesh per node evaluation, seed included
        calls = {"_panel_sums": 0, "_node_values": 0}

        def counted(name):
            inner = getattr(quadrature, name)

            def call(*args):
                calls[name] += 1
                return inner(*args)
            return call

        for name in calls:
            monkeypatch.setattr(quadrature, name, counted(name))
        tc.integrate_intervals(lambda x: np.sqrt(np.abs(x - 1.37)), np.linspace(0.0, 2.0, 21),
                               1e-11)
        assert calls["_node_values"] > 1
        assert calls["_panel_sums"] == 2 * calls["_node_values"]

    def test_rejects_unsorted_edges(self):
        with pytest.raises(tc.DomainError):
            tc.integrate_intervals(np.sin, [0.0, 2.0, 1.0], 1e-9)


class TestLastSplit:
    """The mesh made by the last allowed split is measured too."""

    @pytest.mark.parametrize("fn, splits, points", [
        (lambda x: np.where(x < 1.0 / 3.0, 0.0, 1.0), 36, 1095),
        (np.sqrt, 19, 615),
    ], ids=["jump", "sqrt"])
    def test_meets_tol_on_the_last_split(self, monkeypatch, fn, splits, points):
        def run():
            sizes = []

            def recorded(x):
                sizes.append(x.size)
                return fn(x)

            return tc.integrate(recorded, 0.0, 1.0, 1e-12), sum(sizes)

        free = run()
        assert free[1] == points
        monkeypatch.setattr(quadrature, "_MAX_ROUNDS", splits)
        assert run() == free
        monkeypatch.setattr(quadrature, "_MAX_ROUNDS", splits - 1)
        with pytest.raises(tc.QuadratureError, match=f"limit reached \\({splits - 1} rounds"):
            run()


class TestRefusalMessages:
    """Refusals name the range, or the estimated error and the budget it
    missed."""

    def test_initial_subdivision_names_the_range(self, monkeypatch):
        with pytest.raises(tc.QuadratureError, match=r"needs 1e\+25 panels, above the cap 32768, "
                                                     r"over \[0\.0, 1\.0\]"):
            # 1e25 panels, the half-periods of sin(m u) at m = pi 1e25: the
            # count is compared with the cap before any cast or evaluation
            tc.integrate(TestSineRatioRefusals.refuse, 0.0, 1.0,
                         sine_ratio=(math.pi * 1e25, 1.0, 0.0))
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 2)
        with pytest.raises(tc.QuadratureError, match=r"initial subdivision needs 3 panels, "
                                                     r"above the cap 2, over \[0\.0, 3\.0\]"):
            tc.integrate_intervals(np.sin, [0.0, 1.0, 2.0, 3.0])

    def test_initial_subdivision_count_stays_short(self):
        # 9.5e299 grid panels: the count is printed in 15 significant
        # digits, not as a 300-digit integer
        with pytest.raises(tc.QuadratureError) as refusal:
            tc.integrate(np.cos, 0.0, 1.0, sine_ratio=(3, 1e300, 0))
        assert "needs 9.54929658551372e+299 panels" in str(refusal.value)
        assert len(str(refusal.value)) < 200

    @pytest.mark.parametrize("rows", [False, True])
    def test_non_finite_values_name_the_first_node(self, rows):
        # one panel over [0, 1]: its first node lies below 0.5, and so does
        # every node of [0, 1] the integrand returns inf at
        def bad(x):
            y = np.where(x < 0.5, np.inf, 1.0)
            return np.stack([np.ones(x.shape), y], 1) if rows else y
        with pytest.raises(tc.QuadratureError, match="non-finite") as refusal:
            tc.integrate(bad, 0.0, 1.0)
        value = "[ 1. inf]" if rows else "inf"
        first = float(0.5 + 0.5 * quadrature._NODES[0])
        assert str(refusal.value) == (f"integrand returned non-finite values: {value} at "
                                      f"x={first!r}")

    @pytest.mark.parametrize("limit, phrase", [("_MAX_PANELS", "panel budget 32 exhausted"),
                                               ("_MAX_ROUNDS", "refinement limit reached")])
    def test_refinement_names_the_missed_budget(self, monkeypatch, limit, phrase):
        # a jump inside [0, 1] at tol 1e-12: the budget max(tol |I|, tol)
        # is 1e-12, which the error estimate still misses
        monkeypatch.setattr(quadrature, limit, 32 if limit == "_MAX_PANELS" else 2)
        jump = lambda x: np.where(x < 1.0 / 3.0, 0.0, 1.0)
        with pytest.raises(tc.QuadratureError, match=phrase) as refusal:
            tc.integrate(jump, 0.0, 1.0, 1e-12)
        error, budget = re.search(r"estimated error (\S+) against a budget of (\S+?)[) ]",
                                  str(refusal.value)).groups()
        assert float(budget) == 1e-12 and float(error) > 1e-12


class TestGradedSeeding:
    """The seeded panels next to an infinite slope are cut geometrically
    toward it, at ``g -/+ sigma^k w``, ``k = 1 .. L``."""

    def test_cuts_both_sides_of_an_inner_point(self):
        # grid panels 0.1 wide; the edge 0.3 is graded over two of them on
        # each side, whatever grid edge lies next to it (0.30000000000000004
        # just above)
        edges = np.array([0.0, 0.3, 1.0])
        plain, _ = quadrature._grid_panels(edges, 0.05)
        points, uncut = quadrature._grid_panels(edges, 0.05, [0.3])
        cuts = np.setdiff1d(points, plain)
        assert np.array_equal(np.sort(cuts), np.sort(np.r_[0.3 - 0.2 * quadrature._GRADING,
                                                           0.3 + 0.2 * quadrature._GRADING]))
        assert (np.diff(points) > 0).all()
        # every panel that holds a graded cut is no longer a grid panel:
        # of the 9 uncut grid panels, [0.3, 0.4] is cut
        assert uncut.sum() == 8
        assert not uncut[np.isin(points[:-1], cuts) | np.isin(points[1:], cuts)].any()

    def test_ends_graded_inside_only_and_outside_points_ignored(self):
        edges = np.array([0.0, 0.4, 1.0])
        plain, _ = quadrature._grid_panels(edges, 1.0)
        assert np.array_equal(quadrature._grid_panels(edges, 1.0, [-0.5, 1.5, np.nan])[0], plain)
        points, _ = quadrature._grid_panels(edges, 1.0, [1.0, -0.5, 0.0])
        # over the distance to the next edge: 0.4 above lo, 0.6 below hi
        sigma = quadrature._GRADING
        assert np.array_equal(np.setdiff1d(points, plain),
                              np.sort(np.r_[0.4 * sigma, 1.0 - 0.6 * sigma]))

    def test_point_between_edges_becomes_an_edge(self):
        edges = np.array([0.0, 1.0])
        points, _ = quadrature._grid_panels(edges, 1.0, [0.55])
        assert 0.55 in points
        assert points.shape[0] == 2 + 1 + 2 * quadrature._GRADING.shape[0]
        # an edge within the merge distance stands in for the point
        near, _ = quadrature._grid_panels(np.array([0.0, 0.5, 1.0]), 1.0, [0.5 + 1e-14])
        assert 0.5 + 1e-14 not in near and 0.5 in near
        assert near.shape[0] == 3 + 2 * quadrature._GRADING.shape[0]

    def test_cuts_within_the_merge_distance_dropped(self):
        # the panel above 0.5 is 5e-12 wide and the merge distance 1e-13:
        # only the two outer cuts, 1.25e-12 and 3.1e-13 above 0.5, stay
        edges = quadrature._edges(0.0, 1.0, [0.5, 0.5 + 5e-12])
        points, _ = quadrature._grid_panels(edges, 1.0, [0.5])
        width = edges[2] - edges[1]
        above = points[(points > 0.5) & (points < edges[2])]
        assert np.array_equal(above, 0.5 + width * quadrature._GRADING[1::-1])
        assert (np.diff(points) > 1e-13).all()

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(far=st.sampled_from([0.0, 0.0, 1e3, 1e5, 1e6]), lo=st.floats(-4.0, 4.0),
           span=st.floats(0.1, 8.0), count=st.integers(1, 30),
           stretch=st.floats(0.5, 1.5), inner=st.lists(st.floats(0.0, 1.0), max_size=4),
           near_grid=st.lists(st.tuples(st.integers(0, 40),
                                        st.sampled_from([-2.0, -0.5, 0.0, 0.5, 2.0])), max_size=2),
           anywhere=st.lists(st.floats(-0.1, 1.1), max_size=3),
           grid_graded=st.lists(st.tuples(st.integers(0, 40), st.sampled_from([0.25, 0.5, 0.75])),
                                max_size=3),
           edge_graded=st.lists(st.tuples(st.integers(0, 10), st.integers(-3, 3)), max_size=2))
    def test_one_merge_rule_for_every_cut(self, far, lo, span, count, stretch, inner, near_grid,
                                          anywhere, grid_graded, edge_graded):
        # caller edges at and next to grid edges, and graded points at
        # grid-panel midpoints and quarter points, whose cuts then land on
        # grid edges, and at or a few ulps off an edge; ranges near the
        # origin, where the merge distance is wider than the rounding of a
        # cut, and far from it, where one ulp is wider than the merge distance
        lo += far
        hi = lo + span
        half = stretch * span / (2 * count)
        width = 2.0 * half
        merge = 1e-13 * (hi - lo)
        breakpoints = ([lo + f * span for f in inner]
                       + [lo + width * p + s * merge for p, s in near_grid])
        edges = np.unique(np.r_[lo, [b for b in breakpoints if lo < b < hi], hi])
        graded = ([lo + f * span for f in anywhere]
                  + [lo + width * (p + q) for p, q in grid_graded]
                  + [edges[j % edges.shape[0]] + k * np.spacing(edges[j % edges.shape[0]])
                     for j, k in edge_graded])
        points, uncut = quadrature._grid_panels(edges, half, graded)
        assert points[0] == lo and points[-1] == hi
        assert (np.diff(points) > 0).all()
        grid = lo + width * np.arange(math.ceil(span / width) + 2)
        on_grid = np.isin(points, grid)
        cut = ~(on_grid | np.isin(points, edges) | np.isin(points, graded))
        for j in np.flatnonzero(cut):
            assert np.abs(points[j] - grid).min() > merge
            assert min(points[j] - points[j - 1], points[j + 1] - points[j]) > merge
        hi_on_grid = np.abs(hi - grid).min() <= merge
        upper = on_grid[1:] | ((points[1:] == hi) & hi_on_grid)
        assert np.array_equal(uncut, on_grid[:-1] & upper)

    def test_cap_counts_graded_cuts_before_evaluation(self, monkeypatch):
        def refuse(x):
            raise AssertionError("f evaluated for a mesh above the cap")

        levels = quadrature._GRADING_LEVELS
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 1 + levels - 1)
        # one panel, plus one per cut above lo
        with pytest.raises(tc.QuadratureError,
                           match=f"initial subdivision needs {1 + levels} panels, "
                                 f"above the cap {levels}"):
            tc.integrate(refuse, 0.0, 1.0, graded=[0.0])
        with pytest.raises(tc.QuadratureError, match=f"needs {2 + 2 * levels} panels"):
            tc.integrate_intervals(refuse, [0.0, 0.5, 1.0], graded=[0.5])
        with pytest.raises(tc.QuadratureError, match="needs"):
            quadrature.integrate_harmonics(refuse, 0.0, 0.1, 1, graded=[0.0])

    def test_square_root_end_in_at_most_two_rounds(self, refine_rounds):
        value = tc.integrate(np.sqrt, 0.0, 1.0, 1e-10, graded=[0.0])
        assert abs(value - 2.0 / 3.0) <= 1e-10
        assert abs(tc.integrate(np.sqrt, 0.0, 1.0, 1e-10) - 2.0 / 3.0) <= 1e-10
        graded, plain = refine_rounds
        assert graded <= 2 < 5 < plain

    def test_interval_owners_are_the_callers_edges(self, refine_rounds):
        # the graded cuts next to 0.25 are not interval edges: each panel
        # still goes to the interval of the given edges that holds it
        edges = [0.0, 0.25, 1.0]
        values, errors = tc.integrate_intervals(lambda x: np.sqrt(np.abs(x - 0.25)), edges,
                                                1e-10, graded=[0.25])
        exact = np.array([0.25 ** 1.5, 0.75 ** 1.5]) * 2.0 / 3.0
        assert values.shape == errors.shape == (2,)
        assert np.abs(values - exact).sum() <= 1e-10
        assert (np.abs(values - exact) <= errors + 1e-15).all()
        assert refine_rounds[0] <= 2

    @pytest.mark.parametrize("n_max", [40, 600])
    def test_harmonic_pieces_stay_below_the_grid_half_width(self, n_max):
        # kh <= pi/2 holds on every cut piece, graded ones included
        size = quadrature._fft_length(2 * (n_max + 1))
        h = math.pi / size
        edges = quadrature._edges(0.0, 3.0, [0.5, 1.0])
        points, uncut = quadrature._grid_panels(edges, h, [0.0, 1.0])
        assert (np.diff(points)[~uncut] < 2.0 * h).all()
        assert (np.abs(np.diff(points)[uncut] - 2.0 * h) <= 1e-15).all()


class TestIntegrateHarmonics:
    def test_matches_closed_form(self):
        # integral of exp(x) exp(ikx) over [0, 2] is (exp(2 (1 + ik)) - 1) / (1 + ik)
        cos_int, sin_int, errors = quadrature.integrate_harmonics(
            np.exp, 0.0, 2.0, 40, 1e-12, breakpoints=[0.5])
        k = np.arange(41)
        exact = (np.exp(2.0 * (1.0 + 1j * k)) - 1.0) / (1.0 + 1j * k)
        assert np.abs(cos_int - exact.real).max() <= 1e-12
        assert np.abs(sin_int - exact.imag).max() <= 1e-12
        assert (np.abs(cos_int - exact.real) <= errors).all()
        assert (np.abs(sin_int - exact.imag) <= errors).all()

    @pytest.mark.parametrize("block", [1, 2, 4, 14, 28])
    def test_blocks_of_terms_do_not_change_results(self, monkeypatch, block):
        # a square root refines towards 0 inside [0, 0.1], an interval of 5
        # seeded panels, so the transform takes cut pieces, refined children
        # and grid panels; blocks of an odd size start at odd powers too
        def run():
            return quadrature.integrate_harmonics(np.sqrt, 0.0, 3.0, 150, 1e-10,
                                                  breakpoints=[0.1, 1.0])
        assert quadrature._SERIES_TERMS % block == 0 and block != quadrature._BLOCK
        default = run()
        monkeypatch.setattr(quadrature, "_BLOCK", block)
        blocked = run()
        assert np.array_equal(blocked[2], default[2])
        for got, want in zip(blocked[:2], default[:2]):
            assert np.abs(got - want).max() <= 1e-15

    # the grid of n_max = 40 has 90 panels of width 2 pi / 90 per period
    GRID_EDGE = 0.0 + 2.0 * (math.pi / 90) * 7
    INSIDE = np.nextafter(np.nextafter(np.nextafter(GRID_EDGE, 4.0), 4.0), 4.0)

    @pytest.mark.parametrize("lo, hi, n_max, breakpoints", [
        (0.0, 3.0, 40, ()),
        (0.0, 2.0 * math.pi, 40, ()),
        (-4.0, 9.0, 40, ()),
        (0.0, 3.0, 40, (GRID_EDGE,)),
        (0.0, 3.0, 40, (INSIDE,)),
        (-math.pi, math.pi, 600, (0.0,)),
    ], ids=["[0,3]", "[0,2pi]", "[-4,9]-folded", "breakpoint-on-grid-edge",
            "breakpoint-3-ulps-inside", "n_max=600"])
    def test_exp_on_any_span(self, lo, hi, n_max, breakpoints):
        mpmath = pytest.importorskip("mpmath")
        cos_int, sin_int, errors = quadrature.integrate_harmonics(
            np.exp, lo, hi, n_max, 1e-10, breakpoints=breakpoints)
        # (exp((1 + ik) hi) - exp((1 + ik) lo)) / (1 + ik), in 30 digits
        with mpmath.workdps(30):
            exact = np.array([complex((mpmath.exp((1 + 1j * k) * mpmath.mpf(hi))
                                       - mpmath.exp((1 + 1j * k) * mpmath.mpf(lo))) / (1 + 1j * k))
                              for k in range(n_max + 1)])
        assert (np.abs(cos_int - exact.real) <= errors).all()
        assert (np.abs(sin_int - exact.imag) <= errors).all()

    @pytest.mark.parametrize("breakpoint, cut", [(GRID_EDGE, False), (INSIDE, False),
                                                 (GRID_EDGE + 1e-12, True)],
                             ids=["on-grid-edge", "3-ulps-inside", "past-the-merge-distance"])
    def test_grid_cut_only_inside_a_panel(self, breakpoint, cut):
        size = quadrature._fft_length(2 * 41)
        points, uncut = quadrature._grid_panels(quadrature._edges(0.0, 3.0, [breakpoint]),
                                                math.pi / size)
        half = 0.5 * np.diff(points)
        pieces = ~uncut
        # the last panel ends at 3; a breakpoint within the merge distance
        # 1e-13 * 3 of a grid edge is taken as that edge, so no panel is a
        # few ulps wide, and one farther inside a panel cuts it in two
        assert pieces[-1] and pieces.sum() == 1 + 2 * cut
        assert (np.diff(points) > 3e-13).all()
        if cut:
            assert half[pieces][:2].sum() == pytest.approx(math.pi / size, abs=1e-15)

    def test_grid_of_order_600_takes_the_next_5_smooth_size(self):
        # 2 (600 + 1) = 2 * 601 has a large prime factor; the grid takes the
        # next 5-smooth size, which is odd, so the jump at 0 cuts a panel
        size = quadrature._fft_length(2 * 601)
        assert size == 1215
        _, uncut = quadrature._grid_panels(quadrature._edges(-math.pi, math.pi, [0.0]),
                                           math.pi / size)
        assert (~uncut).sum() >= 2

    def test_no_panel_of_rounding_width_at_hi(self):
        # lo + M 2h rounds below pi at 83 of these orders (M = 1215 at
        # n_max = 600 leaves 8.9e-16), and above it at 24 (6.2e-14 at
        # n_max = 192, M = 400); hi is then the last grid edge, so every
        # panel is an uncut grid panel and goes through the FFT
        edges = quadrature._edges(-math.pi, math.pi, ())
        for n_max in range(100, 601):
            size = quadrature._fft_length(2 * (n_max + 1))
            points, uncut = quadrature._grid_panels(edges, math.pi / size)
            assert points.shape[0] == size + 1, n_max
            assert np.diff(points).min() >= 1e-13 * 2.0 * math.pi, n_max
            assert uncut.all(), n_max

    def test_panel_budget_error(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 32)
        jump = lambda x: np.where(x < 1.0 / 3.0, 0.0, 1.0)
        with pytest.raises(tc.QuadratureError, match="panel budget 32 exhausted"):
            quadrature.integrate_harmonics(jump, 0.0, 1.0, 3, 1e-12)

    def test_non_finite_integrand_error(self):
        bad = lambda x: np.where(x < 0.5, np.inf, 1.0)
        with pytest.raises(tc.QuadratureError, match="non-finite"):
            quadrature.integrate_harmonics(bad, 0.0, 1.0, 3, 1e-8)


def _node_sums(ks, mid, half, y, size=None):
    """``sum_n half w_n y_n exp(ik x_n)`` over every panel, ``x_n = mid +
    half xi_n``, at the harmonics ``ks``, with each panel's position phase
    taken in 40 digits, so that the reference does not round ``k mid``; the
    phases ``exp(ik half xi_n)`` within a panel are rounded by at most
    ``eps k half``.  With ``size``, each panel is placed as the harmonic
    rule of a grid of ``size`` cells anchored at 0 places it: at its offset
    from the centre of its cell ``p``, the midpoint of grid panel ``p`` in
    the seeded mesh, taken from the exact centre ``(2p + 1) pi / size``."""
    mpmath = pytest.importorskip("mpmath")
    within = np.exp(1j * np.multiply.outer(ks, half[:, None] * quadrature._NODES))
    inner = (within * (half[:, None] * quadrature._KRONROD_WEIGHTS * y)).sum(axis=-1)
    with mpmath.workdps(40):
        if size is None:
            where = [mpmath.mpf(float(m)) for m in mid]
        else:
            h = math.pi / size
            # a period and two cells more, so that no cell of the period is clipped
            points, _ = quadrature._grid_panels(np.array([0.0, 2.0 * math.pi + 4.0 * h]), h)
            cells = np.floor(mid / (2.0 * h)).astype(int)
            offsets = mid - 0.5 * (points[cells] + points[cells + 1])
            where = [(2 * int(p) + 1) * mpmath.pi / size + mpmath.mpf(float(d))
                     for p, d in zip(cells, offsets)]
        outer = np.array([[complex(mpmath.expj(int(k) * x)) for x in where] for k in ks])
    return (outer * inner).sum(axis=1)


class TestGridTransform:
    """The one transform of every panel's moments about its grid cell's
    centre, against node sums with high-precision phases."""

    @staticmethod
    def mesh(lo, hi, n_max, breakpoints):
        """The seeded mesh of ``integrate_harmonics`` with every third panel
        bisected, so that uncut grid panels, cut pieces and children mix,
        and its grid size."""
        size = quadrature._fft_length(2 * (n_max + 1))
        mid, half = harmonic_grid(quadrature._edges(lo, hi, breakpoints), size)
        split = np.arange(mid.shape[0]) % 3 == 0
        quarter = 0.5 * half[split]
        mid = np.concatenate([mid[~split], mid[split] - quarter, mid[split] + quarter])
        half = np.concatenate([half[~split], quarter, quarter])
        return size, mid, half

    @pytest.mark.parametrize("lo, hi", [(0.0, 3.0), (-math.pi, math.pi), (-4.0, 9.0)],
                             ids=["P<M", "P=M", "P>M"])
    def test_matches_node_sums(self, lo, hi):
        # a span shorter than a period pads the folded rows, a longer one
        # folds several panels into a column
        n_max = 40
        size, mid, half = self.mesh(lo, hi, n_max, [0.5, 1.0 + 1e-3, 2.2])
        grid = half == math.pi / size
        assert 0 < grid.sum() and (~grid).sum() >= (hi - lo) / (2.0 * math.pi) * size / 3
        rng = np.random.default_rng(size)
        y = rng.standard_normal((mid.shape[0], 15)) * 10.0 ** rng.uniform(-2, 2, (mid.shape[0], 1))
        got, _, _ = quadrature._harmonic_rule(n_max, lo, size)(mid, half, y)
        ks = np.array([0, 1, 2, 17, 39, 40])
        want = _node_sums(ks, mid, half, y)
        # a few eps of the sum of |half w_n y_n|, far inside the rounding
        # term eps (50 + k max|x|) of integrate_harmonics
        scale = (half * (np.abs(y) @ quadrature._KRONROD_WEIGHTS)).sum()
        assert got.shape == (n_max + 1, 2)
        assert np.abs(got[ks, 0] - want.real).max() <= 4e-15 * scale
        assert np.abs(got[ks, 1] - want.imag).max() <= 4e-15 * scale

    def test_phases_are_exact_at_large_orders(self):
        # grid panels up to 2 pi from the anchor, at harmonics up to 16000,
        # and panels off the centres of those cells: every cell phase is a
        # root of unity, and an off-centre panel sits at its offset from the
        # cell centre, so the sums keep a few eps even where k m reaches 1e5
        # radians
        n_max = 16000
        size = quadrature._fft_length(2 * (n_max + 1))
        h = math.pi / size
        cells = np.array([0, 12345, size - 1])
        centre, _ = harmonic_grid(np.array([0.0, 2.0 * math.pi + 4.0 * h]), size)
        # per cell: the grid panel, its two halves, and a piece [c - 0.8h, c + 0.2h]
        offset = np.array([0.0, -0.5, 0.5, -0.3]) * h
        mid = (centre[cells, None] + offset).ravel()
        half = np.tile(np.array([1.0, 0.5, 0.5, 0.5]) * h, cells.shape[0])
        rng = np.random.default_rng(5)
        y = rng.standard_normal((mid.shape[0], 15))
        got = quadrature._harmonic_rule(n_max, 0.0, size)(mid, half, y)[0]
        ks = np.array([1, 997, 9999, 12345, 16000])
        want = _node_sums(ks, mid, half, y, size)
        scale = (half * np.abs(y).sum(axis=1)).sum()
        assert np.abs(got[ks, 0] - want.real).max() <= 4e-16 * scale
        assert np.abs(got[ks, 1] - want.imag).max() <= 4e-16 * scale

    @pytest.mark.parametrize("fn, exact", [
        (np.sqrt, lambda mp, k: mp.quad(lambda x: mp.sqrt(x) * mp.expj(k * x), [0, 1, 3])),
        (lambda x: np.sign(x - 0.3),
         lambda mp, k: (mp.mpf("2.4") if k == 0 else
                        (mp.expj(3 * k) - 2 * mp.expj(k * mp.mpf("0.3")) + 1) / (1j * k))),
    ], ids=["sqrt", "jump"])
    def test_low_harmonics_of_a_refined_mesh(self, refine_rounds, transformed_rows, fn, exact):
        # the square root refines towards 0, the jump at 0.3 toward its
        # edge: children and cut pieces go through the transform with the
        # grid, one transform of 28 rows per measured mesh
        mpmath = pytest.importorskip("mpmath")
        cos_int, sin_int, errors = quadrature.integrate_harmonics(fn, 0.0, 3.0, 2000, 1e-10,
                                                                  breakpoints=[1.0])
        assert refine_rounds[0] >= 2
        assert sum(transformed_rows) == quadrature._SERIES_TERMS * refine_rounds[0]
        with mpmath.workdps(30):
            want = np.array([complex(exact(mpmath, k)) for k in range(17)])
        assert (np.abs(cos_int[:17] - want.real) <= errors[:17]).all()
        assert (np.abs(sin_int[:17] - want.imag) <= errors[:17]).all()


class TestSeriesMoments:
    """The power series about a cell centre, one panel at a time, against
    plain sums over the nodes."""

    @pytest.mark.parametrize("harmonics", [11, 201, 2001, 16001])
    @settings(derandomize=True, max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_node_sums(self, harmonics, seed):
        rng = np.random.default_rng(seed)
        n_panels = 12
        # panels of mixed half-widths up to that of the grid, h, anywhere
        # inside random cells of a grid anchored at 0
        size = quadrature._fft_length(2 * harmonics)
        h = math.pi / size
        half = h / 2.0 ** rng.integers(0, 12, n_panels)
        centre, _ = harmonic_grid(np.array([0.0, 2.0 * math.pi + 4.0 * h]), size)
        mid = (centre[rng.integers(0, size, n_panels)]
               + rng.uniform(-1.0, 1.0, n_panels) * (h - half))
        y = rng.standard_normal((n_panels, 15)) * 10.0 ** rng.uniform(-3, 3, (n_panels, 1))
        rule = quadrature._harmonic_rule(harmonics - 1, 0.0, size)
        ks = np.unique(np.r_[0, 1, rng.integers(0, harmonics, 6), harmonics - 1])
        for p in range(n_panels):
            one = slice(p, p + 1)
            totals, _, _ = rule(mid[one], half[one], y[one])
            want = _node_sums(ks, mid[one], half[one], y[one], size)
            bound = 1e-15 * (half[p] * np.abs(quadrature._KRONROD_WEIGHTS * y[p])).sum()
            assert np.abs(totals[ks, 0] - want.real).max() <= bound
            assert np.abs(totals[ks, 1] - want.imag).max() <= bound


class TestChunkedEvaluation:
    """The integrand sees at most ``_CHUNK`` panels' nodes per call, and the
    chunk size does not change any result."""

    @staticmethod
    def recorded(f, sizes):
        def g(x):
            sizes.append(x.size)
            return f(x)
        return g

    def test_default_chunk_splits_a_large_mesh(self):
        sizes = []
        value = tc.integrate(self.recorded(np.cos, sizes), 0.0, 1.0, 1e-10,
                             breakpoints=np.arange(1, 5000) / 5000)
        assert value == pytest.approx(math.sin(1.0), abs=1e-12)
        assert quadrature._CHUNK < 5000
        assert len(sizes) == math.ceil(5000 / quadrature._CHUNK)
        assert max(sizes) == 15 * quadrature._CHUNK
        assert sum(sizes) == 15 * 5000

    def test_intervals_with_two_components(self, monkeypatch):
        # a kink inside one of 20 equal intervals makes the mesh refine
        def pair(x):
            return np.stack([np.exp(-x) * np.sin(9 * x), np.abs(x - 1.37)], axis=1)

        def run(sizes):
            return tc.integrate_intervals(self.recorded(pair, sizes), np.linspace(0.0, 2.0, 21),
                                          1e-11)
        default = run([])
        monkeypatch.setattr(quadrature, "_CHUNK", 3)
        sizes = []
        chunked = run(sizes)
        assert default[0].shape == (20, 2)
        assert np.array_equal(chunked[0], default[0])
        assert np.array_equal(chunked[1], default[1])
        assert max(sizes) <= 15 * 3
        assert sum(sizes) > 15 * 20

    def test_harmonics(self, monkeypatch):
        def run(sizes):
            return quadrature.integrate_harmonics(self.recorded(np.sqrt, sizes), 0.0, 3.0,
                                                  40, 1e-10, breakpoints=[1.0])
        default = run([])
        monkeypatch.setattr(quadrature, "_CHUNK", 3)
        sizes = []
        chunked = run(sizes)
        for got, want in zip(chunked, default):
            assert np.array_equal(got, want)
        assert max(sizes) <= 15 * 3

    def test_partial_sum_kernel(self, monkeypatch):
        square = build(SQUARE)
        default = tc.partial_sum_kernel(square, 1.3, 200)
        monkeypatch.setattr(quadrature, "_CHUNK", 3)
        sizes = []
        square_eval = tc.PiecewiseFunction.eval

        def eval_recorded(self, x):
            sizes.append(x.size)
            return square_eval(self, x)

        monkeypatch.setattr(tc.PiecewiseFunction, "eval", eval_recorded)
        assert tc.partial_sum_kernel(square, 1.3, 200) == default
        assert max(sizes) <= 15 * 3


class TestMemory:
    def test_kernel_partial_sum_at_largest_order_under_the_cap(self):
        # one integrand call over the whole mesh peaks near 31 MB
        value, peak = traced_peak(lambda: tc.partial_sum_kernel(build(SQUARE), 1.3, 16000))
        assert value == pytest.approx(1.0, abs=1e-3)
        assert peak < 12 * 2**20
