import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trigconv as tc
from conftest import traced_peak
from oracles import composite_simpson, dirichlet_kernel_mp
from trigconv import kernel


class TestCosineSum:
    def test_empty_sum(self):
        assert tc.cosine_sum(0, 0.7) == 0.5

    def test_single_harmonic_at_pi(self):
        assert tc.cosine_sum(1, math.pi) == pytest.approx(-0.5, abs=1e-15)

    def test_all_ones_at_origin(self):
        assert tc.cosine_sum(5, 0.0) == 5.5

    def test_rejects_bad_order(self):
        with pytest.raises(tc.DomainError):
            tc.cosine_sum(-1, 0.3)
        with pytest.raises(tc.DomainError):
            tc.cosine_sum(2.5, 0.3)
        with pytest.raises(tc.DomainError):
            tc.cosine_sum(10**6 + 1, 0.3)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_argument(self, t):
        # the closed form refuses the same t, alone or among finite points
        for kernel, arg in ((tc.cosine_sum, t), (tc.dirichlet_kernel, t),
                            (tc.dirichlet_kernel, np.array([0.3, t, 1.0]))):
            with pytest.raises(tc.DomainError, match=rf"^t must be finite, got {t!r}$"):
                kernel(5, arg)


class TestClosedFormKernel:
    def test_removable_singularity_value(self):
        assert tc.dirichlet_kernel(7, 0.0) == 7.5

    def test_analytic_point(self):
        assert tc.dirichlet_kernel(1, math.pi) == pytest.approx(-0.5, abs=1e-15)

    @pytest.mark.parametrize("n, t", [(20, 0.37)] + [
        (n, t) for n in (0, 1, 17, 500) for t in (0.0, 0.3, -2.7, math.pi)])
    def test_matches_direct_summation(self, n, t):
        # cosine_sum adds the cosines term by term, dirichlet_kernel uses
        # the closed form: two independent evaluations of one function
        direct = tc.cosine_sum(n, t)
        closed = tc.dirichlet_kernel(n, t)
        assert abs(direct - closed) < 1e-12

    def test_identity_on_grid(self):
        # dense grid avoiding the removable singularities at 0 and +/- 2 pi
        magnitudes = np.linspace(1e-2, math.pi, 256)
        grid = np.concatenate([-magnitudes[::-1], magnitudes])
        assert grid.shape == (512,)
        worst = 0.0
        for n in range(1, 65):
            closed = tc.dirichlet_kernel(n, grid)
            direct = np.array([tc.cosine_sum(n, float(t)) for t in grid])
            worst = max(worst, np.abs(closed - direct).max())
        assert worst < 1e-10

    def test_continuity_near_singularity(self):
        # near the removable singularity the closed form must sit within
        # O(tau^2) of the limit value, relatively
        tau = 1e-4
        for n in range(0, 65):
            limit = n + 0.5
            for t in (tau * (1 - 1e-3), tau * (1 + 1e-3)):
                value = tc.dirichlet_kernel(n, t)
                assert abs(value / limit - 1.0) < 1e-4

    def test_branch_seam_is_smooth(self):
        # values straddling t = 1e-6 agree closely at every order
        for n in (1, 16, 64, 10**5, 10**6):
            below = tc.dirichlet_kernel(n, 1e-6 * (1 - 1e-9))
            above = tc.dirichlet_kernel(n, 1e-6 * (1 + 1e-9))
            assert abs(below - above) < 1e-9 * (n + 0.5)

    @pytest.mark.parametrize("n", [10**5, 3 * 10**5, 10**6])
    def test_large_order_near_singularity_matches_mpmath(self, n):
        magnitudes = (1e-9, 3e-7, 9.99e-7, 1.01e-6, 1e-5)
        for t in magnitudes + tuple(-m for m in magnitudes):
            assert tc.dirichlet_kernel(n, t) == pytest.approx(
                dirichlet_kernel_mp(n, t), rel=1e-12), t

    def test_periodicity(self):
        rng = np.random.default_rng(7)
        t = rng.uniform(-math.pi, math.pi, 128)
        for n in (1, 8, 64):
            base = tc.dirichlet_kernel(n, t)
            assert np.abs(tc.dirichlet_kernel(n, t + 2 * math.pi) - base).max() < 1e-10
            assert np.abs(tc.dirichlet_kernel(n, t - 2 * math.pi) - base).max() < 1e-10

    def test_parity_is_exact(self):
        rng = np.random.default_rng(8)
        t = rng.uniform(-math.pi, math.pi, 256)
        for n in (0, 3, 64):
            plus = tc.dirichlet_kernel(n, t)
            minus = tc.dirichlet_kernel(n, -t)
            assert (plus == minus).all()

    def test_scalar_and_array_agree(self):
        t = np.array([0.3, -1.2, 2.9])
        vec = tc.dirichlet_kernel(5, t)
        assert vec == pytest.approx([tc.dirichlet_kernel(5, float(v)) for v in t])


class TestKernelMean:
    def test_order_zero(self):
        assert tc.kernel_mean(0) == pytest.approx(1.0, abs=1e-12)

    def test_small_order(self):
        assert tc.kernel_mean(3) == pytest.approx(1.0, abs=1e-10)

    def test_moderate_order(self):
        assert tc.kernel_mean(50) == pytest.approx(1.0, abs=1e-8)

    def test_against_brute_force(self):
        reference = composite_simpson(lambda t: tc.dirichlet_kernel(12, t),
                                      -math.pi, math.pi, 10**5) / math.pi
        assert tc.kernel_mean(12) == pytest.approx(reference, abs=1e-9)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _where_ratio(m, u):
    """The formula ``np.where(u == 0, m, sin(m u) / sin(u))``."""
    u = np.asarray(u, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        return np.where(u == 0, m, np.sin(m * u) / np.sin(u))


def _where_kernel(n, t):
    t = np.asarray(t, dtype=np.float64)
    reduced = t - 2.0 * math.pi * np.round(t / (2.0 * math.pi))
    return 0.5 * _where_ratio(2 * n + 1, 0.5 * reduced)


def _where_reduced_ratio(m, u):
    """The ``np.where`` formula at ``u - k pi``, ``k = rint(u / pi)``, times
    ``(-1)^k`` for an even ``m``, for an integer ``m``; at ``u`` itself for
    any other ``m``."""
    u = np.asarray(u, dtype=np.float64)
    if m % 1 != 0:
        return _where_ratio(m, u)
    k = np.rint(u / math.pi)
    sign = np.where((k % 2 == 0) | (m % 2 == 1), 1.0, -1.0)
    return _where_ratio(m, u - math.pi * k) * sign


class TestBitIdentity:
    """``dirichlet_kernel`` and ``sine_ratio`` equal the ``np.where``
    formula bit for bit, on the phase reduced modulo pi for an integer
    order, at exact zeros and multiples of pi too; a ``RuntimeWarning``
    fails the test."""

    @staticmethod
    def points(scale):
        rng = np.random.default_rng(12)
        k = np.arange(-5, 6)
        return np.concatenate([rng.uniform(-scale, scale, 997),
                               [0.0, -0.0, 0.0, 5e-324, -5e-324, 1e-300],
                               k * 2.0 * math.pi, k * math.pi])

    @pytest.mark.parametrize("n", [0, 1, 7, 5000, 10**6])
    def test_dirichlet_kernel(self, n):
        t = self.points(10.0)
        assert np.array_equal(_bits(tc.dirichlet_kernel(n, t)), _bits(_where_kernel(n, t)))
        for value in t[-30:]:
            got = tc.dirichlet_kernel(n, float(value))
            assert type(got) is float
            assert _bits(got) == _bits(_where_kernel(n, value))

    @pytest.mark.parametrize("i", [1, 7, 2.5, 1e4, 1e6])
    def test_sine_ratio(self, i):
        beta = self.points(1.5)
        assert np.array_equal(_bits(tc.sine_ratio(i, beta)), _bits(_where_reduced_ratio(i, beta)))
        for value in beta[-30:]:
            got = tc.sine_ratio(i, float(value))
            assert np.shape(got) == ()
            assert _bits(got) == _bits(_where_reduced_ratio(i, value))


def _one_fsum(n, t):
    """The cosine sum as one ``math.fsum`` over an array of every term."""
    return 0.5 + math.fsum(np.cos(np.arange(1, n + 1, dtype=np.float64) * t))


def _extracted_total(values):
    """``math.fsum`` of the parts :func:`kernel._extract` gives for ``values``."""
    x = np.array(values, dtype=np.float64)
    parts = []
    kernel._extract(x, parts, np.empty(x.shape[0]))
    return math.fsum(parts)


_C = kernel._CHUNK
_T_GRID = (0.0, 5.3e-7, -5.3e-7, 0.3, -0.3, math.pi, -math.pi, 2.3, 1e3)
# magnitudes from the least subnormal to 1e300, either sign, zeros of both signs
_FLOATS = st.floats(min_value=-1e300, max_value=1e300)


class TestExactSum:
    """``cosine_sum`` adds the cosines a chunk at a time through an exact
    extraction and one ``math.fsum`` of a few parts per chunk; the result
    is bit for bit that of one ``math.fsum`` over every term."""

    @pytest.mark.parametrize("n", [0, 1, _C - 1, _C, _C + 1, 3 * _C + 5, 436_000, 10**6])
    def test_cosine_sum_matches_one_fsum(self, n):
        for t in _T_GRID:
            assert _bits(tc.cosine_sum(n, t)) == _bits(_one_fsum(n, t)), t

    def test_fsum_sees_a_few_parts_per_chunk(self, monkeypatch):
        # at t = pi/2 every odd term is a cosine near zero, whose lowest bits
        # only the third level reaches
        seen = []
        fsum = math.fsum
        monkeypatch.setattr(math, "fsum", lambda parts: seen.append(len(parts)) or fsum(parts))
        for t in _T_GRID + (math.pi / 2,):
            tc.cosine_sum(10**6, t)
        chunks = -(-10**6 // _C)
        assert max(seen) <= kernel._LEVELS * chunks

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(values=st.lists(_FLOATS, max_size=40), cancel=st.booleans())
    @example(values=[1e300, 5e-324, -1e300, -5e-324, -0.0], cancel=False)
    @example(values=[-0.0, -0.0], cancel=False)
    # with sigma = 2^2 the level sum 5 - 2^-51 would round, a tie to even,
    # and the remainder -2^-60 would then fall on the wrong side of it
    @example(values=[1.0] * 5 + [-(2.0**-51 + 2.0**-60)], cancel=False)
    def test_extraction_matches_fsum_on_short_lists(self, values, cancel):
        if cancel:
            values = values + [-v for v in values[::-2]]
        assert _bits(_extracted_total(values)) == _bits(math.fsum(values))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(size=st.integers(0, 3 * _C + 5), low=st.integers(-1074, 996),
           spread=st.integers(0, 2070), cancel=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_extraction_matches_fsum_on_long_arrays(self, size, low, spread, cancel, seed):
        # 53-bit mantissas times 2^e, e uniform in [low, low + spread] (at
        # most 996, so below 1e300); subnormals where e is low
        rng = np.random.default_rng(seed)
        exponents = rng.integers(low, min(low + spread, 996), size, endpoint=True)
        x = np.ldexp(rng.uniform(-1.0, 1.0, size), exponents)
        if cancel:
            half = size // 2
            x[half:2 * half] = -rng.permutation(x[:half])
        assert _bits(_extracted_total(x)) == _bits(math.fsum(x.tolist()))

    @pytest.mark.parametrize("values", [[1e308, 5.0, -1e308], [5e-324, -1e-320, 3e-310]],
                             ids=["sigma-overflows", "sigma-subnormal"])
    def test_values_out_of_range_go_to_fsum_as_they_are(self, values):
        parts = []
        kernel._extract(np.array(values), parts, np.empty(3))
        assert parts == values


class TestMemory:
    def test_cosine_sum_holds_two_chunks(self):
        # the terms at once would take 8 MB, and their Python floats 24 MB more
        value, peak = traced_peak(lambda: tc.cosine_sum(10**6, 5.3e-7))
        assert value == pytest.approx(tc.dirichlet_kernel(10**6, 5.3e-7), abs=1e-6)
        assert peak < 2 * 2**20
