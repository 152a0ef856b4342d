import math

import numpy as np
import pytest

import trigconv as tc
from conftest import build, random_positive_decreasing, traced_peak
from trigconv import quadrature
from oracles import sinc_block_magnitude, sine_ratio_mp

PI = math.pi
HALF_PI = math.pi / 2


class TestSineRatio:
    def test_plain_point(self):
        beta = 0.4
        expected = math.sin(10 * beta) / math.sin(beta)
        assert tc.sine_ratio(10, beta) == pytest.approx(expected, rel=1e-15)

    def test_removable_singularity(self):
        assert tc.sine_ratio(7, 1e-9) == 7.0
        for i in (1, 7, 2.5, 1e4):
            assert tc.sine_ratio(i, 0.0) == i
            for beta in (1e-12, -1e-12):
                assert tc.sine_ratio(i, beta) == pytest.approx(i, rel=1e-12)

    def test_scalar_gives_a_float_and_an_array_an_array(self):
        # as dirichlet_kernel does
        assert type(tc.sine_ratio(3, 0.5)) is float
        assert type(tc.dirichlet_kernel(3, 0.5)) is float
        assert type(tc.sine_ratio(3, np.float64(0.0))) is float
        for beta in (np.array([0.0, 0.5]), np.array(0.5)[None]):
            assert isinstance(tc.sine_ratio(3, beta), np.ndarray)
            assert isinstance(tc.dirichlet_kernel(3, beta), np.ndarray)
        assert tc.sine_ratio(3, 0.5) == pytest.approx(math.sin(1.5) / math.sin(0.5), rel=1e-15)

    @pytest.mark.parametrize("i", [999, 1000, 1001])
    def test_integer_order_at_multiples_of_pi(self, i):
        # k pi is a removable singularity for an integer order, of value
        # (-1)^(k (i + 1)) i; the unreduced quotient loses every digit there
        # (-72.37 for 1001 at pi)
        mpmath = pytest.importorskip("mpmath")
        betas = [math.pi, 3 * math.pi, -5 * math.pi, math.pi + 1e-9]
        want = [sine_ratio_mp(i, beta) for beta in betas]
        assert tc.sine_ratio(i, np.array(betas)) == pytest.approx(want, rel=1e-13)
        for beta, value in zip(betas, want):
            assert tc.sine_ratio(i, beta) == pytest.approx(value, rel=1e-13)
        assert abs(tc.sine_ratio(i, math.pi)) == i

    def test_continuous_through_origin(self):
        left = tc.sine_ratio(25, 1e-7)
        assert left == pytest.approx(25.0, rel=1e-10)

    def test_rejects_bad_frequency(self):
        with pytest.raises(tc.DomainError):
            tc.sine_ratio(0, 0.3)
        with pytest.raises(tc.DomainError):
            tc.sine_ratio(-2, 0.3)
        with pytest.raises(tc.DomainError):
            tc.sine_ratio(math.inf, 0.3)
        for beta in (math.inf, -math.inf, math.nan, np.array([0.1, math.nan, 0.2])):
            with pytest.raises(tc.DomainError, match=r"^beta must be finite"):
                tc.sine_ratio(3, beta)


class TestDecompose:
    def test_constant_weight_blocks(self):
        d = tc.decompose(lambda b: np.ones_like(b), 10, HALF_PI)
        assert d.frequency == 10.0
        assert d.upper == HALF_PI
        assert d.full_blocks == 5
        # pi/2 is exactly five half-period widths, so no remainder block
        assert d.block_values.shape == (5,)
        assert d.boundaries[0] == 0.0
        assert d.boundaries[-1] == HALF_PI
        expected = [1.85719681, -0.449938, 0.28485864, -0.22526849, 0.20299232]
        assert d.block_values == pytest.approx(expected, rel=1e-5)
        assert d.block_values.sum() == pytest.approx(526 / 315, abs=1e-8)

    def test_constant_weight_means_are_one(self):
        d = tc.decompose(lambda b: np.ones_like(b), 10, HALF_PI)
        assert d.block_means == pytest.approx(np.ones(5), abs=1e-9)
        assert d.weight_magnitudes == pytest.approx(np.abs(d.block_values), abs=1e-9)

    def test_signs_alternate_starting_positive(self):
        d = tc.decompose(lambda b: np.exp(-b), 40, HALF_PI)
        signs = np.sign(d.block_values)
        assert signs[0] == 1.0
        assert (signs[:-1] * signs[1:] == -1.0).all()

    def test_magnitudes_strictly_decrease(self):
        d = tc.decompose(lambda b: np.exp(-b), 40, HALF_PI)
        mags = np.abs(d.block_values)
        assert (mags[:-1] > mags[1:]).all()

    def test_means_bracketed_by_endpoint_values(self):
        d = tc.decompose(lambda b: np.exp(-b), 40, HALF_PI)
        lo_vals = np.exp(-d.boundaries[:-1])
        hi_vals = np.exp(-d.boundaries[1:])
        assert (d.block_means <= lo_vals + 1e-9).all()
        assert (d.block_means >= hi_vals - 1e-9).all()

    def test_remainder_block_present_and_smallest(self):
        # h = 1.4 is not a multiple of pi / 11, nor is any random h; the
        # blocks are the weight's grid panels, with inner edges (pi / i) k
        rng = np.random.default_rng(27)
        cases = [(11.0, 1.4)] + [(float(np.exp(rng.uniform(math.log(0.5), math.log(2000.0)))),
                                  float(rng.uniform(0.01, HALF_PI))) for _ in range(200)]
        for i, h in cases:
            d = tc.decompose(lambda b: np.exp(-b), i, h)
            assert d.full_blocks == math.floor(h * i / PI)
            assert d.block_values.shape == (d.full_blocks + 1,)
            assert d.boundaries[0] == 0.0 and d.boundaries[-1] == h
            k = np.arange(1, d.full_blocks + 1)
            assert np.array_equal(d.boundaries[1:-1], (PI / i) * k)
            widths = np.diff(d.boundaries)
            assert np.abs(widths[:-1] - PI / i).max(initial=0.0) <= 4.0 * np.spacing(h)
            assert widths[-1] < PI / i
            if d.full_blocks:
                mags = np.abs(d.block_values)
                assert mags[-1] < mags[-2]

    def test_weight_magnitude_approaches_sinc_block(self):
        k1 = tc.tail(1).terms[0]
        gap_coarse = abs(tc.decompose(lambda b: np.ones_like(b), 100,
                                      HALF_PI).weight_magnitudes[0] - k1)
        gap_fine = abs(tc.decompose(lambda b: np.ones_like(b), 1000,
                                    HALF_PI).weight_magnitudes[0] - k1)
        assert gap_fine < 1e-3
        assert gap_fine < gap_coarse

    def test_negating_f_negates_blocks_exactly(self):
        d_pos = tc.decompose(lambda b: np.exp(-b), 40, HALF_PI)
        d_neg = tc.decompose(lambda b: -np.exp(-b), 40, HALF_PI)
        assert np.array_equal(d_neg.block_values, -d_pos.block_values)
        assert np.array_equal(d_neg.weight_magnitudes, d_pos.weight_magnitudes)

    def test_piecewise_function_accepted_when_monotone(self, square):
        # the square wave is constant (hence monotone) on [0, pi/2]
        d = tc.decompose(square, 10, HALF_PI)
        assert d.block_means == pytest.approx(np.ones(5), abs=1e-9)

    def test_piecewise_function_with_interior_jump_rejected(self):
        spec = build({
            "segments": [
                {"lo": "-pi", "hi": 0.5, "kind": "constant", "params": {"c": 0.0}},
                {"lo": 0.5, "hi": "pi", "kind": "constant", "params": {"c": 1.0}},
            ]
        })
        with pytest.raises(tc.DomainError):
            tc.decompose(spec, 10, HALF_PI)

    def test_rejects_bad_arguments(self):
        f = lambda b: np.ones_like(b)
        with pytest.raises(tc.DomainError):
            tc.decompose(f, 0, HALF_PI)
        with pytest.raises(tc.DomainError):
            tc.decompose(f, 10, 0.0)
        with pytest.raises(tc.DomainError):
            tc.decompose(f, 10, HALF_PI + 0.01)
        with pytest.raises(tc.DomainError):
            tc.decompose(42, 10, HALF_PI)

    def test_random_decompositions_have_block_structure(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            f = random_positive_decreasing(rng)
            i = rng.uniform(10.0, 300.0)
            h = rng.uniform(0.3, HALF_PI)
            d = tc.decompose(f, i, h, tol=1e-9)
            full = d.block_values[:d.full_blocks]
            signs = np.sign(full)
            assert signs[0] == 1.0
            assert (signs[:-1] * signs[1:] == -1.0).all()
            mags = np.abs(full)
            assert (mags[:-1] > mags[1:]).all()
            if d.block_values.shape[0] > d.full_blocks:
                assert abs(d.block_values[-1]) < mags[-1]
            lo_vals = f(d.boundaries[:-1])
            hi_vals = f(d.boundaries[1:])
            slack = 1e-7 * max(1.0, float(lo_vals.max()))
            keep = d.weight_magnitudes > 1e-6
            assert (d.block_means[keep] <= lo_vals[keep] + slack).all()
            assert (d.block_means[keep] >= hi_vals[keep] - slack).all()


@pytest.fixture(scope="module")
def blocks():
    return tc.decompose(lambda b: np.ones_like(b), 10, HALF_PI)


class TestGroupTailBound:

    def test_whole_sum_bounded_by_first_block(self, blocks):
        tail_sum, first_term = tc.group_tail_bound(blocks, 0)
        assert tail_sum == pytest.approx(526 / 315, abs=1e-8)
        assert first_term == pytest.approx(1.85719681, rel=1e-6)
        assert 0 < tail_sum <= first_term

    def test_interior_tail(self, blocks):
        tail_sum, first_term = tc.group_tail_bound(blocks, 2)
        expected = blocks.block_values[2:].sum()
        assert tail_sum == pytest.approx(expected, abs=1e-12)
        assert 0 < tail_sum < first_term

    def test_single_block_tail_reaches_equality(self, blocks):
        tail_sum, first_term = tc.group_tail_bound(blocks, 4)
        assert tail_sum == first_term
        assert 0 < tail_sum <= first_term

    def test_every_even_cut_of_decreasing_function(self):
        d = tc.decompose(lambda b: np.exp(-b), 40, HALF_PI)
        for m in range(0, d.full_blocks, 2):
            tail_sum, first_term = tc.group_tail_bound(d, m)
            assert 0 < tail_sum <= first_term

    def test_rejects_a_decomposition_without_a_full_block(self):
        # h = 1 is below the one block width pi
        d = tc.decompose(np.exp, 1.0, 1.0)
        assert d.full_blocks == 0 and d.block_values.shape == (1,)
        with pytest.raises(tc.DomainError, match=r"^the decomposition has no full block: "
                                                 r"h = 1\.0 is below one block width"):
            tc.group_tail_bound(d, 0)

    def test_rejects_bad_cut_points(self, blocks):
        with pytest.raises(tc.DomainError):
            tc.group_tail_bound(blocks, 1)
        with pytest.raises(tc.DomainError):
            tc.group_tail_bound(blocks, -2)
        with pytest.raises(tc.DomainError):
            tc.group_tail_bound(blocks, 6)
        with pytest.raises(tc.DomainError):
            tc.group_tail_bound(blocks, 2.0)
        with pytest.raises(tc.DomainError):
            tc.group_tail_bound(blocks, True)


class TestTail:
    def test_first_magnitude(self):
        t = tc.tail(1)
        assert t.terms[0] == pytest.approx(1.8519370519824649, abs=1e-12)
        assert t.terms.shape == (2,)
        assert t.partial_sums.shape == (1,)

    def test_second_magnitude_against_brute_force(self):
        t = tc.tail(2)
        assert t.terms[1] == pytest.approx(sinc_block_magnitude(2), abs=1e-9)

    def test_partial_sums_straddle_the_limit(self):
        t = tc.tail(2)
        assert t.partial_sums[0] > HALF_PI > t.partial_sums[1]

    def test_alternating_envelope(self):
        t = tc.tail(200)
        assert (t.terms[:-1] > t.terms[1:]).all()
        assert (t.partial_sums[0::2] > HALF_PI).all()
        assert (t.partial_sums[1::2] < HALF_PI).all()
        gaps = np.abs(t.partial_sums - HALF_PI)
        assert (gaps < t.terms[1:]).all()

    def test_largest_order_under_the_panel_cap(self):
        # 32767 + 1 blocks fill the panel cap with one panel each; every
        # partial sum is Si(n pi) to within the one budget of the sum
        special = pytest.importorskip("scipy.special")
        tol = 1e-10
        t = tc.tail(32767, tol)
        si, _ = special.sici(np.arange(1, 32768) * math.pi)
        assert np.abs(t.partial_sums - si).max() <= 2.0 * tol
        assert (t.partial_sums[0::2] > HALF_PI).all()
        assert (t.partial_sums[1::2] < HALF_PI).all()
        assert (np.abs(t.partial_sums - HALF_PI) < t.terms[1:]).all()

    def test_rejects_bad_order(self):
        for bad in (0, -1, 2.5, True):
            with pytest.raises(tc.DomainError):
                tc.tail(bad)


class TestSquareRootFromZero:
    """``decompose`` and ``limit_verify`` grade their mesh toward the
    square-root end of a :class:`PiecewiseFunction` at 0; a callable with
    the same values is not graded."""

    F = build({"segments": [
        {"lo": "-pi", "hi": 0.0, "kind": "constant", "params": {"c": 0.0}},
        {"lo": 0.0, "hi": "pi", "kind": "power", "params": {"a": -0.7, "x0": 0.0, "p": 0.5}},
    ]})

    @pytest.mark.parametrize("i", [10.0, 1000.0, 5000.0])
    def test_decompose_keeps_its_blocks(self, refine_rounds, i):
        d = tc.decompose(self.F, i, 1.5)
        plain = tc.decompose(lambda b: self.F.eval(b), i, 1.5)
        assert refine_rounds[0] == 1 < refine_rounds[1]
        assert d.full_blocks == plain.full_blocks
        assert np.array_equal(d.boundaries, plain.boundaries)
        # both within one budget max(tol |sum|, tol) at tol = 1e-8
        budget = 1e-8 * max(abs(d.block_values.sum()), d.weight_magnitudes.sum(), 1.0)
        assert np.abs(d.block_values - plain.block_values).sum() <= 2.0 * budget

    def test_limit_verify_one_round_per_frequency(self, refine_rounds):
        schedule = (10.0, 1000.0, 5000.0)
        report = tc.limit_verify(self.F, 0.0, 1.5, schedule)
        assert refine_rounds == [1, 1, 1]
        plain = tc.limit_verify(lambda b: self.F.eval(b), 0.0, 1.5, schedule)
        budget = 1e-8 * np.maximum(np.abs(report.values), 1.0)
        assert (np.abs(report.values - plain.values) <= 2.0 * budget).all()


class TestLimitVerify:
    def test_constant_function_from_zero(self):
        report = tc.limit_verify(lambda b: np.ones_like(b), 0.0, HALF_PI,
                                 (10, 100, 500))
        assert report.x == 0.0
        assert report.predicted == pytest.approx(HALF_PI, abs=1e-15)
        assert report.errors == pytest.approx([9.904e-2, 9.999e-3, 2.000e-3],
                                              rel=1e-3)
        assert report.errors[-1] < report.errors[0]

    def test_decaying_function_away_from_zero(self):
        report = tc.limit_verify(lambda b: np.exp(-b), 0.3, HALF_PI,
                                 (10, 100, 500))
        assert report.x == 0.3
        assert report.predicted == 0.0
        assert np.abs(report.values) == pytest.approx(
            [1.768e-1, 7.360e-4, 3.059e-3], rel=1e-3)
        assert report.errors[-1] < report.errors[0]
        assert report.errors[-1] < 0.05

    def test_decaying_function_from_zero(self):
        report = tc.limit_verify(lambda b: np.exp(-b), 0.0, HALF_PI,
                                 (10, 100, 500))
        assert report.predicted == pytest.approx(HALF_PI, abs=1e-15)
        assert report.errors == pytest.approx([7.895e-2, 1.208e-2, 2.416e-3],
                                              rel=1e-3)
        assert (report.errors[:-1] > report.errors[1:]).all()
        assert report.errors[-1] < 0.05

    def test_monotone_requirement_applies_to_piecewise(self):
        spec = build({
            "segments": [
                {"lo": "-pi", "hi": 0.5, "kind": "constant", "params": {"c": 0.0}},
                {"lo": 0.5, "hi": "pi", "kind": "constant", "params": {"c": 1.0}},
            ]
        })
        with pytest.raises(tc.DomainError):
            tc.limit_verify(spec, 0.0, HALF_PI, (10, 100))

    def test_rejects_bad_window_and_schedule(self):
        f = lambda b: np.ones_like(b)
        with pytest.raises(tc.DomainError):
            tc.limit_verify(f, -0.1, HALF_PI, (10,))
        with pytest.raises(tc.DomainError):
            tc.limit_verify(f, 0.5, 0.5, (10,))
        with pytest.raises(tc.DomainError):
            tc.limit_verify(f, 0.0, HALF_PI + 0.2, (10,))
        with pytest.raises(tc.DomainError):
            tc.limit_verify(f, 0.0, HALF_PI, ())
        with pytest.raises(tc.DomainError):
            tc.limit_verify(f, 0.0, HALF_PI, (100, 10))
        with pytest.raises(tc.DomainError):
            tc.limit_verify(f, 0.0, HALF_PI, (10, 10))


class TestLargestOrderAndFrequency:
    """Orders and frequencies up to 10**6 are admitted; larger ones are
    refused before any array is built."""

    ABOVE = float(np.nextafter(1e6, math.inf))

    @pytest.mark.parametrize("call", [
        lambda: tc.tail(10**6),
        lambda: tc.decompose(np.exp, 1e6, HALF_PI),
        lambda: tc.limit_verify(np.exp, 0.0, HALF_PI, (10, 1e6)),
    ], ids=["tail", "decompose", "limit_verify"])
    def test_maximum_reaches_the_panel_cap(self, call):
        with pytest.raises(tc.QuadratureError, match="initial subdivision needs"):
            call()

    @pytest.mark.parametrize("call, message", [
        (lambda f: tc.tail(10**6), "initial subdivision needs 1000001 panels, above the cap "
                                   "32768, over [0.0, 3141595.7951824465]"),
        (lambda f: tc.decompose(f, 1e6, HALF_PI), "initial subdivision needs 500000 panels, "
                                                  "above the cap 32768, over [0.0, "
                                                  "1.5707963267948966]"),
    ], ids=["tail", "decompose"])
    def test_refused_before_any_block_array(self, call, message, monkeypatch):
        # the cap refuses the block grid itself: neither f nor the
        # integrand of tail is evaluated, and no array of blocks is built
        calls = []
        monkeypatch.setattr(quadrature, "_node_values", lambda *args: calls.append(args))

        def refusal():
            with pytest.raises(tc.QuadratureError) as info:
                call(lambda b: calls.append(b) or np.exp(b))
            return str(info.value)

        got, peak = traced_peak(refusal)
        assert got == message
        assert calls == []
        assert peak < 1 << 20

    def test_maximum_frequency_weight(self):
        assert tc.sine_ratio(1e6, 0.0) == 1e6

    @pytest.mark.parametrize("call, message", [
        (lambda big: tc.tail(int(big) + 1), "n_max must lie in"),
        (lambda big: tc.decompose(np.exp, big, HALF_PI), "frequency must lie in"),
        (lambda big: tc.limit_verify(np.exp, 0.0, HALF_PI, (10, big)),
         "frequency must lie in"),
        (lambda big: tc.sine_ratio(big, 0.3), "frequency must lie in"),
    ], ids=["tail", "decompose", "limit_verify", "sine_ratio"])
    @pytest.mark.parametrize("big", [ABOVE, 1e13, 1e300])
    def test_above_maximum_refused(self, call, message, big):
        with pytest.raises(tc.DomainError, match=message):
            call(big)


class TestCallableContract:
    """A callable ``f`` is checked by the quadrature engine against its
    integrand contract at the first call, so a malformed one is refused
    there, before any moment is formed."""

    @pytest.fixture
    def counted(self):
        def wrap(f):
            def counting(b):
                wrap.calls += 1
                return f(b)
            return counting
        wrap.calls = 0
        return wrap

    @pytest.mark.parametrize("f", [lambda b: 1.0, math.exp],
                             ids=["scalar-constant", "math.exp"])
    def test_scalar_only_callables_refused(self, f, counted):
        with pytest.raises(tc.DomainError):
            tc.decompose(counted(f), 10, HALF_PI)
        assert counted.calls == 1
        with pytest.raises(tc.DomainError):
            tc.limit_verify(counted(f), 0.0, HALF_PI, (10, 100))
        assert counted.calls == 2

    def test_integrand_errors_are_not_swallowed(self, counted):
        # an error other than TypeError/ValueError is a bug in f, not a
        # sign that f wants scalars; it must surface as raised
        def fails_on_arrays(b):
            if np.ndim(b):
                raise RuntimeError("bug inside f")
            return 1.0
        with pytest.raises(RuntimeError):
            tc.decompose(counted(fails_on_arrays), 10, HALF_PI)
        assert counted.calls == 1
