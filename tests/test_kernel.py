import math

import numpy as np
import pytest

import trigconv as tc
from oracles import composite_simpson, dirichlet_kernel_mp


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
        with pytest.raises(tc.DomainError, match=r"^t must be finite"):
            tc.cosine_sum(5, t)


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
