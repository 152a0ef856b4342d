import math

import numpy as np
import pytest

import trigconv as tc
from conftest import SAWTOOTH, SQUARE, build, many_segment_spec, random_spec
from oracles import (qawo_coefficients, sawtooth_partial_sum, sawtooth_sine_coefficient,
                     square_partial_sum, square_sine_coefficient)

PI = math.pi

# a power piece with exponent 1/2 at its own left end (infinite slope
# there), an interpolation table and a second near-square-root power
POWER_AND_TABLE = {"segments": [
    {"lo": "-pi", "hi": -1.0, "kind": "power", "params": {"a": 1.0, "x0": -PI, "p": 0.5}},
    {"lo": -1.0, "hi": 1.0, "kind": "monotone-table",
     "params": {"xs": [-1.0, -0.3, 0.4, 1.0], "ys": [2.0, 1.5, 0.2, -0.7]}},
    {"lo": 1.0, "hi": "pi", "kind": "power", "params": {"a": -0.8, "x0": 1.0, "p": 0.52}},
]}


class TestCoefficients:
    def test_sawtooth_coefficients(self, sawtooth):
        c = tc.coefficients(sawtooth, 3)
        assert c.n_max == 3
        assert c.a0 == pytest.approx(0.0, abs=1e-10)
        assert c.a == pytest.approx(np.zeros(3), abs=1e-10)
        expected = [sawtooth_sine_coefficient(k) for k in (1, 2, 3)]
        assert c.b == pytest.approx(expected, abs=1e-10)

    def test_square_coefficients(self, square):
        c = tc.coefficients(square, 6)
        assert c.a0 == pytest.approx(0.0, abs=1e-10)
        assert c.a == pytest.approx(np.zeros(6), abs=1e-10)
        expected = [square_sine_coefficient(k) for k in range(1, 7)]
        assert c.b == pytest.approx(expected, abs=1e-10)

    def test_triangle_coefficients(self, triangle):
        # |x| = pi/2 - (4/pi) sum over odd k of cos(k x)/k^2
        c = tc.coefficients(triangle, 4)
        assert c.a0 == pytest.approx(PI / 2, abs=1e-10)
        expected_a = [0.0 if k % 2 == 0 else -4.0 / (PI * k * k)
                      for k in range(1, 5)]
        assert c.a == pytest.approx(expected_a, abs=1e-10)
        assert c.b == pytest.approx(np.zeros(4), abs=1e-10)

    def test_constant_coefficients(self, constant_one):
        c = tc.coefficients(constant_one, 3)
        assert c.a0 == pytest.approx(1.0, abs=1e-12)
        assert c.a == pytest.approx(np.zeros(3), abs=1e-10)
        assert c.b == pytest.approx(np.zeros(3), abs=1e-10)

    def test_tolerance_recorded(self, square):
        assert tc.coefficients(square, 1, tol=1e-8).tol == 1e-8

    def test_coefficients_bounded_by_function(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            f = build(random_spec(rng))
            bound = 2.0 * f.abs_bound() + 1e-9
            c = tc.coefficients(f, 8)
            assert abs(c.a0) <= bound
            assert (np.abs(c.a) <= bound).all()
            assert (np.abs(c.b) <= bound).all()

    @pytest.mark.parametrize("spec", ["power-and-table", "200-segments"])
    def test_matches_qawo_up_to_order_1000(self, spec):
        if spec == "power-and-table":
            f = build(POWER_AND_TABLE)
        else:
            f = build(many_segment_spec(np.random.default_rng(4), 200))
        c = tc.coefficients(f, 1000)
        for k in (1, 2, 3, 17, 250, 999, 1000):
            a, b = qawo_coefficients(f, k)
            assert abs(c.a[k - 1] - a) <= 1e-9, k
            assert abs(c.b[k - 1] - b) <= 1e-9, k

    def test_each_node_evaluated_once(self, square, monkeypatch):
        # 2 x 1001 seeded panels of 15 nodes, plus at most 64 refined ones
        points = []
        evaluate = tc.PiecewiseFunction.eval

        def counting(self, x):
            points.append(np.size(x))
            return evaluate(self, x)

        monkeypatch.setattr(tc.PiecewiseFunction, "eval", counting)
        tc.coefficients(square, 1000)
        assert sum(points) <= 15 * (2 * 1001 + 64)

    def test_order_above_panel_cap_refused_before_evaluation(self, square, monkeypatch):
        def refuse(self, x):
            raise AssertionError("f evaluated for an order above the panel cap")

        monkeypatch.setattr(tc.PiecewiseFunction, "eval", refuse)
        with pytest.raises(tc.QuadratureError,
                           match=r"n_max=16384: .* needs 32770 panels, above the cap 32768"):
            tc.coefficients(square, 16384)

    # per seeded interval, the larger of |integral f cos kx| and
    # |integral f sin kx|, k = 0 .. 500, in closed form
    @pytest.mark.parametrize("spec, oracle, interval_sizes", [
        (SQUARE, square_sine_coefficient,
         lambda k: 2 * [np.where(k == 0, PI, np.abs(1.0 - np.cos(k * PI)) / np.maximum(k, 1))]),
        (SAWTOOTH, sawtooth_sine_coefficient,
         lambda k: [np.where(k == 0, 0.0, 2 * PI / np.maximum(k, 1))]),
    ], ids=["square", "sawtooth"])
    def test_error_estimate_bounds_actual_error(self, spec, oracle, interval_sizes):
        tol = 1e-10
        c = tc.coefficients(build(spec), 500, tol)
        assert c.error.shape == (501,)
        assert np.isfinite(c.error).all()
        # the enforced budget: max(tol * size, tol) per interval, summed,
        # in coefficient units
        k = np.arange(501)
        budget = sum(np.maximum(tol * size, tol) for size in interval_sizes(k))
        assert (c.error <= budget / np.where(k == 0, 2 * PI, PI)).all()
        b = np.array([oracle(k) for k in range(1, 501)])
        assert abs(c.a0) <= c.error[0]
        assert (np.abs(c.a) <= c.error[1:]).all()
        assert (np.abs(c.b - b) <= c.error[1:]).all()

    def test_error_defaults_to_unknown(self):
        c = tc.FourierCoefficients(a0=0.0, a=np.zeros(2), b=np.zeros(2), tol=1e-10)
        assert c.error is None
        assert tc.partial_sum(c, 0.3, 2) == 0.0

    def test_rejects_bad_arguments(self, square):
        with pytest.raises(tc.DomainError):
            tc.coefficients(lambda x: x, 3)
        with pytest.raises(tc.DomainError):
            tc.coefficients(square, 0)
        with pytest.raises(tc.DomainError):
            tc.coefficients(square, 2.5)


class TestPartialSum:
    def test_matches_analytic_sum(self, sawtooth):
        c = tc.coefficients(sawtooth, 10)
        value = tc.partial_sum(c, 1.0, 10)
        assert value == pytest.approx(sawtooth_partial_sum(1.0, 10), abs=1e-9)
        assert value == pytest.approx(1.096451588259811, abs=1e-9)

    def test_order_zero_is_the_mean(self, triangle):
        c = tc.coefficients(triangle, 2)
        assert tc.partial_sum(c, 0.7, 0) == c.a0

    def test_endpoints_agree_exactly(self, sawtooth):
        c = tc.coefficients(sawtooth, 8)
        assert tc.partial_sum(c, PI, 8) == tc.partial_sum(c, -PI, 8)

    def test_rejects_bad_arguments(self, square):
        c = tc.coefficients(square, 4)
        with pytest.raises(tc.DomainError):
            tc.partial_sum("nope", 0.0, 2)
        with pytest.raises(tc.DomainError):
            tc.partial_sum(c, 0.0, 5)
        with pytest.raises(tc.DomainError):
            tc.partial_sum(c, 0.0, -1)
        with pytest.raises(tc.DomainError):
            tc.partial_sum(c, 3.5, 2)


class TestPartialSumKernel:
    def test_constant_function(self, constant_one):
        assert tc.partial_sum_kernel(constant_one, 0.3, 10) == pytest.approx(
            1.0, abs=1e-8)

    def test_square_at_symmetry_point(self, square):
        assert tc.partial_sum_kernel(square, 0.0, 25) == pytest.approx(
            0.0, abs=1e-8)

    def test_two_paths_agree(self, sawtooth):
        c = tc.coefficients(sawtooth, 50)
        by_coeff = tc.partial_sum(c, 1.0, 50)
        by_kernel = tc.partial_sum_kernel(sawtooth, 1.0, 50)
        assert abs(by_coeff - by_kernel) < 1e-6

    def test_two_paths_agree_on_random_functions(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            f = build(random_spec(rng))
            n = int(rng.integers(1, 21))
            c = tc.coefficients(f, n)
            for x in rng.uniform(-PI, PI, 4):
                gap = abs(tc.partial_sum(c, float(x), n)
                          - tc.partial_sum_kernel(f, float(x), n))
                assert gap < 1e-6

    def test_rejects_bad_arguments(self, square):
        with pytest.raises(tc.DomainError):
            tc.partial_sum_kernel(square, 0.0, -1)
        with pytest.raises(tc.DomainError):
            tc.partial_sum_kernel(square, 4.0, 3)


class TestSplitIntegrals:
    def test_empty_side_is_exact_zero(self, sawtooth):
        lower, upper = tc.split_integrals(sawtooth, PI, 7)
        assert upper == 0.0
        lower2, upper2 = tc.split_integrals(sawtooth, -PI, 7)
        assert lower2 == 0.0
        assert upper2 == pytest.approx(-lower, abs=1e-8)

    def test_constant_function_splits_evenly(self, constant_one):
        lower, upper = tc.split_integrals(constant_one, 0.0, 10)
        assert lower == pytest.approx(PI / 2, abs=1e-8)
        assert upper == pytest.approx(PI / 2, abs=1e-8)

    def test_sum_identity(self, sawtooth):
        lower, upper = tc.split_integrals(sawtooth, 1.0, 50)
        combined = (lower + upper) / PI
        assert combined == pytest.approx(
            tc.partial_sum_kernel(sawtooth, 1.0, 50), abs=1e-8)

    def test_sum_identity_on_random_functions(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            f = build(random_spec(rng))
            n = int(rng.integers(0, 16))
            x = float(rng.uniform(-PI, PI))
            lower, upper = tc.split_integrals(f, x, n)
            combined = (lower + upper) / PI
            assert combined == pytest.approx(
                tc.partial_sum_kernel(f, x, n), abs=1e-8)

    def test_rejects_bad_arguments(self, square):
        with pytest.raises(tc.DomainError):
            tc.split_integrals(square, 0.0, -2)
        with pytest.raises(tc.DomainError):
            tc.split_integrals(square, -3.5, 2)


class TestLargestOrder:
    """Orders up to 10**6 are admitted, and at 10**6 the seeded mesh is
    refused by the panel cap before ``f`` is evaluated; larger orders are
    refused before any array is built."""

    CALLS = [
        lambda f, n: tc.coefficients(f, n),
        lambda f, n: tc.partial_sum_kernel(f, 0.5, n),
        lambda f, n: tc.split_integrals(f, 0.5, n),
        lambda f, n: tc.convergence_report(f, 0.5, (10, n)),
    ]
    IDS = ["coefficients", "partial_sum_kernel", "split_integrals", "convergence_report"]

    @pytest.fixture
    def unevaluated(self, square, monkeypatch):
        def refuse(self, x):
            raise AssertionError("f evaluated for an order the mesh cannot hold")
        monkeypatch.setattr(tc.PiecewiseFunction, "eval", refuse)
        return square

    @pytest.mark.parametrize("call", CALLS, ids=IDS)
    def test_maximum_reaches_the_panel_cap(self, unevaluated, call):
        with pytest.raises(tc.QuadratureError, match="initial subdivision needs"):
            call(unevaluated, 10**6)

    @pytest.mark.parametrize("call", CALLS, ids=IDS)
    @pytest.mark.parametrize("n", [10**6 + 1, 10**20])
    def test_above_maximum_refused(self, unevaluated, call, n):
        with pytest.raises(tc.DomainError, match=r"must lie in \[\d, 1000000\]"):
            call(unevaluated, n)


class TestBetaSplitPoints:
    def test_jump_behind_x_gives_no_points(self, square):
        assert tc.beta_split_points(square, 0.5, "upper") == []

    def test_jump_ahead_of_x_maps_into_range(self, square):
        points = tc.beta_split_points(square, -0.5, "upper")
        assert points == pytest.approx([0.25, PI / 2])

    def test_feature_at_x_is_boundary_not_interior(self, triangle):
        assert tc.beta_split_points(triangle, 0.0, "upper") == []

    def test_lower_side_mirror(self, square):
        points = tc.beta_split_points(square, 0.5, "lower")
        assert points == pytest.approx([0.25, PI / 2])

    def test_rejects_bad_arguments(self, square):
        with pytest.raises(tc.DomainError):
            tc.beta_split_points(square, 0.0, "above")
        with pytest.raises(tc.DomainError):
            tc.beta_split_points(square, 3.5, "upper")


class TestPredictedLimit:
    def test_jump_midpoint(self, square):
        assert tc.predicted_limit(square, 0.0) == 0.0

    def test_endpoint_mean(self, sawtooth):
        assert tc.predicted_limit(sawtooth, PI) == 0.0
        assert tc.predicted_limit(sawtooth, -PI) == 0.0

    def test_continuity_point(self, sawtooth):
        assert tc.predicted_limit(sawtooth, 1.0) == pytest.approx(1.0, abs=1e-12)


class TestConvergenceReport:
    def test_continuity_point_converges(self, sawtooth):
        report = tc.convergence_report(sawtooth, 1.0, (10, 100, 1000))
        oracle = np.array([sawtooth_partial_sum(1.0, n) for n in (10, 100, 1000)])
        assert report.values == pytest.approx(oracle, abs=1e-7)
        assert report.predicted == pytest.approx(1.0, abs=1e-12)
        assert report.errors == pytest.approx(
            [9.645159e-2, 3.202214e-4, 1.133572e-3], rel=1e-4)
        assert report.errors[-1] < report.errors[0]
        assert report.errors[-1] < 0.01
        assert report.extras["jump_half_difference"] == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_jump_point_is_exact(self, square):
        report = tc.convergence_report(square, 0.0, (1, 10, 100))
        assert (report.errors < 1e-12).all()
        assert report.extras["jump_midpoint"] == 0.0
        assert report.extras["jump_half_difference"] == pytest.approx(1.0, abs=1e-12)

    def test_endpoint_converges_to_wrap_mean(self, sawtooth):
        report = tc.convergence_report(sawtooth, PI, (10, 100, 1000))
        assert report.predicted == 0.0
        assert (np.abs(report.values) < 1e-10).all()
        # the series settles on the periodic mean, far from f(pi) itself
        assert (np.abs(report.values - PI) > 3.0).all()

    def test_near_jump_converges_slowly_but_converges(self, square):
        report = tc.convergence_report(square, 0.1, (10, 1000))
        oracle = np.array([square_partial_sum(0.1, n) for n in (10, 1000)])
        assert report.values == pytest.approx(oracle, abs=1e-7)
        assert report.errors[1] < report.errors[0]
        assert report.errors[1] < 0.01

    def test_quarter_period_rate(self, square):
        report = tc.convergence_report(square, PI / 2, (10, 100, 1000))
        assert report.predicted == pytest.approx(1.0, abs=1e-12)
        assert report.errors == pytest.approx(
            [6.305e-2, 6.366e-3, 6.366e-4], rel=1e-3)
        assert (report.errors[:-1] > report.errors[1:]).all()

    def test_bad_abscissa_refused_before_coefficients(self, square, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("coefficients tabulated before x was validated")
        monkeypatch.setattr(tc.fourier, "coefficients", refuse)
        with pytest.raises(tc.DomainError):
            tc.convergence_report(square, 4.0, [10, 400])

    def test_rejects_bad_schedules(self, square):
        with pytest.raises(tc.DomainError):
            tc.convergence_report(square, 0.0, ())
        with pytest.raises(tc.DomainError):
            tc.convergence_report(square, 0.0, (0, 5))
        with pytest.raises(tc.DomainError):
            tc.convergence_report(square, 0.0, (10, 5))
        with pytest.raises(tc.DomainError):
            tc.convergence_report(square, 0.0, (5, 5))
