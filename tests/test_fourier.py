import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trigconv as tc
from trigconv import quadrature
from conftest import (SAWTOOTH, SQUARE, TRIANGLE, build, harmonic_grid, many_segment_spec,
                      random_spec, traced_peak)
from oracles import (exact_harmonic_integrals, qawo_coefficients, sawtooth_partial_sum,
                     sawtooth_sine_coefficient, square_partial_sum, square_sine_coefficient)

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

    @pytest.mark.parametrize("spec, mean", [
        (SQUARE, 0.0),
        ({"segments": [{"lo": "-pi", "hi": "pi", "kind": "affine",
                        "params": {"a": 0.7, "b": 1.0}}]}, 0.7),
        (TRIANGLE, PI / 2),
    ], ids=["square", "offset-sawtooth", "triangle"])
    def test_order_zero_is_the_mean_term(self, spec, mean):
        c = tc.coefficients(build(spec), 0)
        assert c.n_max == 0 and c.a.shape == c.b.shape == (0,)
        assert c.error.shape == (1,)
        assert abs(c.a0 - mean) <= c.error[0] <= 1e-10
        assert tc.partial_sum(c, 0.3, 0) == c.a0

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
                           match=r"n_max=16384: .* needs 32806 panels, above the cap 32768"):
            tc.coefficients(square, 16384)

    # over the period, the larger of |integral f cos kx| and |integral f
    # sin kx|, k = 0 .. 500, and the integral of |f|, in closed form
    @pytest.mark.parametrize("spec, oracle, size, abs_integral", [
        (SQUARE, square_sine_coefficient,
         lambda k: 2.0 * np.abs(1.0 - np.cos(k * PI)) / np.maximum(k, 1), 2 * PI),
        (SAWTOOTH, sawtooth_sine_coefficient,
         lambda k: np.where(k == 0, 0.0, 2 * PI / np.maximum(k, 1)), PI**2),
    ], ids=["square", "sawtooth"])
    def test_error_estimate_bounds_actual_error(self, spec, oracle, size, abs_integral):
        tol = 1e-10
        c = tc.coefficients(build(spec), 500, tol)
        assert c.error.shape == (501,)
        assert np.isfinite(c.error).all()
        # the enforced budget: max(tol * size, tol) over the period, plus
        # the rounding term eps (50 + k max|x|) integral |f|, in
        # coefficient units
        k = np.arange(501)
        budget = (np.maximum(tol * size(k), tol)
                  + np.finfo(np.float64).eps * (50.0 + k * PI) * abs_integral)
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
            tc.coefficients(square, -1)
        with pytest.raises(tc.DomainError):
            tc.coefficients(square, 2.5)


def _seeded_mesh(f, n_max):
    """The seeded grid of ``coefficients(f, n_max)`` with every third panel
    bisected, so that half-widths mix, and its node values, and the grid's
    panel count per period."""
    size = quadrature._fft_length(2 * (n_max + 1))
    mid, half = harmonic_grid(quadrature._edges(-PI, PI, f.breakpoints), size)
    split = np.arange(mid.shape[0]) % 3 == 0
    quarter = 0.5 * half[split]
    mid = np.concatenate([mid[~split], mid[split] - quarter, mid[split] + quarter])
    half = np.concatenate([half[~split], quarter, quarter])
    y = f.eval((mid[:, None] + half[:, None] * quadrature._NODES).ravel()).reshape(-1, 15)
    return mid, half, y, size


class TestChirpPath:
    """Coefficients whose panels go through one real FFT per moment row,
    and the error bound that does not depend on the harmonic."""

    @pytest.mark.parametrize("spec", ["square", "power-and-table", "200-segments"])
    def test_gap_bound_covers_every_panel_gap(self, spec):
        f = build({"square": SQUARE, "power-and-table": POWER_AND_TABLE}.get(spec)
                  or many_segment_spec(np.random.default_rng(4), 200))
        n_max = 60
        mid, half, y, size = _seeded_mesh(f, n_max)
        _, err, worst = quadrature._harmonic_rule(n_max, -PI, size)(mid, half, y)
        # the reference: every panel's max(|Re|, |Im|) of the K15 - G7 gap
        # of f(x) exp(ikx), formed node by node
        k = np.arange(n_max + 1)
        nodes = mid[:, None] + half[:, None] * quadrature._NODES
        weighted = half[:, None] * quadrature._GAP_WEIGHTS * y
        gap = np.einsum("kpn,pn->kp", np.exp(1j * k[:, None, None] * nodes), weighted)
        gap = np.maximum(np.abs(gap.real), np.abs(gap.imag))
        reference = gap.sum(axis=1)
        scale = (half * (np.abs(y) @ quadrature._KRONROD_WEIGHTS)).sum()
        assert (err >= reference - 1e-15 * scale).all()
        assert (worst >= gap.max(axis=0) - 1e-15 * scale).all()
        # and it is not much looser than the per-panel gaps
        assert err.sum() <= 4.0 * reference.sum() + 1e-15 * scale * err.size

    @pytest.mark.parametrize("spec, sampled", [
        (SQUARE, [0, 1, 2, 3, 999, 2001, 3999, 4000]),
        (POWER_AND_TABLE, [0, 1, 7, 100, 2024, 3999, 4000]),
    ], ids=["square", "power-and-table"])
    def test_refined_coefficients_within_error_of_closed_form(self, refine_rounds, spec,
                                                              sampled):
        # at tol 1e-12 every grid panel is split once, and the children go
        # through the transform with exact cell phases: each sampled
        # coefficient stays within its reported error
        f = build(spec)
        c = tc.coefficients(f, 4000, 1e-12)
        assert refine_rounds == [2]
        k = np.array(sampled)
        exact = exact_harmonic_integrals(f, k)
        a = np.where(k == 0, exact.real / (2 * PI), exact.real / PI)
        assert (np.abs(np.concatenate([[c.a0], c.a])[k] - a) <= c.error[k]).all()
        assert (np.abs(np.concatenate([[0.0], c.b])[k] - exact.imag / PI) <= c.error[k]).all()

    def test_refined_square_wave_keeps_its_accuracy(self, square):
        # at tol 1e-12 every panel is split once; the children keep the
        # phases of their grid cells, so every coefficient stays as close
        # to its closed form as at tol 1e-10, about 1e-15
        k = np.arange(1, 4001)
        b = np.array([square_sine_coefficient(j) for j in k])
        for tol in (1e-10, 1e-12):
            c = tc.coefficients(square, 4000, tol)
            assert abs(c.a0) <= 1e-15
            assert np.abs(c.a).max() <= 1e-14 and np.abs(c.b - b).max() <= 1e-14

    @pytest.mark.parametrize("n_max", [4000, 16000])
    @pytest.mark.parametrize("spec, oracle", [(SQUARE, square_sine_coefficient),
                                              (SAWTOOTH, sawtooth_sine_coefficient)],
                             ids=["square", "sawtooth"])
    def test_error_bounds_closed_form_at_large_orders(self, spec, oracle, n_max):
        c = tc.coefficients(build(spec), n_max)
        b = np.array([oracle(k) for k in range(1, n_max + 1)])
        assert abs(c.a0) <= c.error[0]
        assert (np.abs(c.a) <= c.error[1:]).all()
        assert (np.abs(c.b - b) <= c.error[1:]).all()

    @pytest.mark.parametrize("n_max", [125, 300, 600])
    def test_one_transform_per_measured_mesh(self, refine_rounds, transformed_rows, n_max):
        # without grading, the square-root ends refine over several rounds;
        # graded toward them, the seeded mesh is the last; either way every
        # measured mesh takes one transform of _SERIES_TERMS moment rows
        f = build(POWER_AND_TABLE)
        quadrature.integrate_harmonics(f.eval, -PI, PI, n_max, 1e-10, breakpoints=f.breakpoints)
        tc.coefficients(f, n_max)
        assert refine_rounds[0] >= 2 and refine_rounds[1] == 1
        assert sum(transformed_rows) == quadrature._SERIES_TERMS * sum(refine_rounds)

    def test_memory_at_order_4000(self, square):
        # the seeded mesh holds 15 * 8100 node values, about 1 MB
        c, peak = traced_peak(lambda: tc.coefficients(square, 4000))
        assert c.b[0] == pytest.approx(4.0 / PI, abs=1e-12)
        assert peak <= 6 * 2**20

    def test_memory_at_order_16000_on_200_segments(self):
        # about 32 600 panels: node values take about 4 MB, a block of 7
        # folded moment rows and its transform about 2 MB each; no array
        # has a row per interval
        f = build(many_segment_spec(np.random.default_rng(4), 200))
        c, peak = traced_peak(lambda: tc.coefficients(f, 16000))
        assert c.error.shape == (16001,)
        assert peak < 40 * 2**20


class TestClosedFormOracle:
    """Coefficients at order 10^4, far beyond QAWO's reach, against the
    closed-form integrals of every piece (``oracles.exact_harmonic_integrals``)."""

    N = 10_000
    HARMONICS = [0, 1, 2, 3, 7, 10, 31, 100, 316, 1000, 2024, 3162, 4999, 6561, 8100,
                 9001, 9973, 9998, 9999, 10_000]

    def check(self, f, n_max=N, harmonics=HARMONICS):
        c = tc.coefficients(f, n_max)
        k = np.array(harmonics)
        exact = exact_harmonic_integrals(f, k)
        a = np.where(k == 0, exact.real / (2 * PI), exact.real / PI)
        got_a = np.concatenate([[c.a0], c.a])[k]
        got_b = np.concatenate([[0.0], c.b])[k]
        assert (np.abs(got_a - a) <= c.error[k]).all()
        assert (np.abs(got_b - exact.imag / PI) <= c.error[k]).all()

    @settings(derandomize=True, max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_specs(self, seed):
        self.check(build(random_spec(np.random.default_rng(seed))))

    def test_200_segment_spec(self):
        self.check(build(many_segment_spec(np.random.default_rng(4), 200)))

    @pytest.mark.parametrize("spec", [SQUARE, POWER_AND_TABLE], ids=["square", "power-and-table"])
    def test_order_whose_last_grid_edge_rounds_below_pi(self, spec):
        # at n_max = 600 the grid's 1215th edge is pi - 8.9e-16, and pi is
        # taken as that edge
        self.check(build(spec), 600, [*range(0, 600, 7), 599, 600])

    @pytest.mark.parametrize("spec", [SQUARE, POWER_AND_TABLE], ids=["square", "power-and-table"])
    def test_order_whose_last_grid_edge_rounds_above_pi(self, spec):
        # at n_max = 192 the grid's 400th edge is 6.2e-14 above pi, and pi
        # is taken as that edge: the last panel is a grid panel
        self.check(build(spec), 192, [*range(0, 192, 7), 191, 192])


def _power_ends(p):
    """Two power pieces of exponent ``p`` at their own origins, one at
    ``-pi`` and one inside, around an affine piece."""
    return build({"segments": [
        {"lo": "-pi", "hi": -0.5, "kind": "power", "params": {"a": 1.0, "x0": -PI, "p": p}},
        {"lo": -0.5, "hi": 0.7, "kind": "affine", "params": {"a": 0.3, "b": -0.4}},
        {"lo": 0.7, "hi": "pi", "kind": "power", "params": {"a": -0.8, "x0": 0.7, "p": p}},
    ]})


class TestGradedMesh:
    """Every pipeline grades its mesh toward the infinite slopes of ``f``
    (``f.singular_points``), so a square-root end costs a few panels, not
    one refinement round of the whole mesh per level."""

    @pytest.mark.parametrize("n_max", [125, 300, 600, 4000, 16000])
    def test_square_root_ends_take_at_most_two_rounds(self, refine_rounds, n_max):
        tc.coefficients(build(POWER_AND_TABLE), n_max)
        assert refine_rounds[0] <= 2

    @pytest.mark.parametrize("n_max", [125, 4000])
    @pytest.mark.parametrize("p", [0.05, 0.2, 0.5])
    def test_coefficients_within_error_of_closed_form(self, refine_rounds, p, n_max):
        f = _power_ends(p)
        assert f.singular_points == [-PI, 0.7]
        c = tc.coefficients(f, n_max)
        assert refine_rounds[0] <= 2
        k = np.unique(np.r_[0:n_max + 1:max(1, n_max // 100), n_max - 20:n_max + 1])
        exact = exact_harmonic_integrals(f, k)
        a = np.where(k == 0, exact.real / (2 * PI), exact.real / PI)
        assert (np.abs(np.r_[c.a0, c.a][k] - a) <= c.error[k]).all()
        assert (np.abs(np.r_[0.0, c.b][k] - exact.imag / PI) <= c.error[k]).all()

    @pytest.mark.parametrize("n", [125, 4000])
    @pytest.mark.parametrize("p", [0.05, 0.5])
    def test_kernel_and_split_paths_agree_with_coefficients(self, refine_rounds, p, n):
        f = _power_ends(p)
        c = tc.coefficients(f, n)
        # the coefficient path's error, and each kernel integral's budget
        # max(tol |I|, tol) at tol = 1e-9 over pi
        by_coeff_error = c.error[0] + 2.0 * c.error[1:].sum()
        for x in (-PI, -2.0, 0.7, 2.0):
            refine_rounds.clear()
            by_coeff = tc.partial_sum(c, x, n)
            by_kernel = tc.partial_sum_kernel(f, x, n)
            lower, upper = tc.split_integrals(f, x, n)
            assert max(refine_rounds) <= 2
            assert abs(by_kernel - by_coeff) <= by_coeff_error + 1e-9 * max(abs(by_kernel), 1 / PI)
            split_error = 1e-9 * (abs(lower) + abs(upper) + 2.0) / PI
            assert abs((lower + upper) / PI - by_coeff) <= by_coeff_error + split_error


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

    @pytest.mark.parametrize("n", [100, 1000, 5000])
    @pytest.mark.parametrize("x", [-2.0, -0.3, 0.7, 2.5])
    def test_sawtooth_seeds_only_grid_panels(self, sawtooth, monkeypatch, x, n):
        # the sawtooth has no interior breakpoint, so each side's seeded
        # mesh is the weight's grid alone, clipped at the side's length
        seeded = []
        grid_panels = quadrature._grid_panels

        def recorded_grid(*args):
            points, uncut = grid_panels(*args)
            seeded.append(uncut)
            return points, uncut

        monkeypatch.setattr(quadrature, "_grid_panels", recorded_grid)
        lower, upper = tc.split_integrals(sawtooth, x, n)
        assert len(seeded) == 2
        assert all(uncut[:-1].all() for uncut in seeded)
        assert abs((lower + upper) / PI - sawtooth_partial_sum(x, n)) <= 5e-14

    def test_rejects_bad_arguments(self, square):
        with pytest.raises(tc.DomainError):
            tc.split_integrals(square, 0.0, -2)
        with pytest.raises(tc.DomainError):
            tc.split_integrals(square, -3.5, 2)


class TestPipelinesAgree:
    """The coefficient path, the kernel integral and the two half-range
    integrals give one partial sum, within their combined reported errors."""

    @settings(derandomize=True, max_examples=45, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 200), x=st.floats(-PI, PI))
    def test_three_paths_agree(self, seed, n, x):
        f = build(random_spec(np.random.default_rng(seed)))
        c = tc.coefficients(f, n)
        k = np.arange(1, n + 1)
        by_coefficients = tc.partial_sum(c, x, n)
        coefficient_error = (c.error[0]
                             + c.error[1:] @ (np.abs(np.cos(k * x)) + np.abs(np.sin(k * x))))
        # the kernel paths report no error of their own: each integral is
        # held to its budget max(tol |integral|, tol), over pi in the sum
        tol = 1e-9
        by_kernel = tc.partial_sum_kernel(f, x, n, tol)
        kernel_error = tol * max(PI * abs(by_kernel), 1.0) / PI
        lower, upper = tc.split_integrals(f, x, n, tol)
        by_split = (lower + upper) / PI
        split_error = tol * (max(abs(lower), 1.0) + max(abs(upper), 1.0)) / PI
        assert abs(by_coefficients - by_kernel) <= coefficient_error + kernel_error
        assert abs(by_kernel - by_split) <= kernel_error + split_error
        assert abs(by_coefficients - by_split) <= coefficient_error + split_error


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
        assert points == pytest.approx([0.25])

    def test_feature_at_x_is_boundary_not_interior(self, triangle):
        assert tc.beta_split_points(triangle, 0.0, "upper") == []

    def test_lower_side_mirror(self, square):
        points = tc.beta_split_points(square, 0.5, "lower")
        assert points == pytest.approx([0.25])

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), x=st.floats(-PI, PI),
           side=st.sampled_from(["lower", "upper"]))
    def test_points_are_mapped_breakpoints(self, seed, x, side):
        # the seeds split_integrals takes from the breakpoints alone
        f = build(random_spec(np.random.default_rng(seed), 6))
        sign = -2.0 if side == "lower" else 2.0
        length = (PI + x) / 2.0 if side == "lower" else (PI - x) / 2.0
        mapped = {(p - x) / sign for p in f.breakpoints}
        points = tc.beta_split_points(f, x, side)
        assert set(points) <= mapped
        assert all(0.0 < b < length for b in points)

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
