import math

import numpy as np
import pytest

import trigconv as tc


class TestProbe:
    def test_negated_harmonic_partial_sum(self):
        p = tc.probe("diff", 4)
        assert p.kind == "diff"
        assert p.n_terms == 4
        assert p.partial_sums.shape == (4,)
        expected = -(1.0 + 1.0 / 2.0 + 1.0 / 3.0 + 1.0 / 4.0)
        assert p.partial_sums[-1] == pytest.approx(expected, abs=1e-15)
        assert p.partial_sums[-1] == pytest.approx(-2.0833333, abs=1e-7)

    def test_ratio_values(self):
        p = tc.probe("v", 9)
        assert p.ratios is not None
        assert p.ratios[3] == pytest.approx(1.5, abs=1e-15)          # n = 4
        assert p.ratios[8] == pytest.approx(1.0 - 1.0 / 3.0, abs=1e-15)  # n = 9

    def test_ratios_only_for_v(self):
        assert tc.probe("u", 5).ratios is None
        assert tc.probe("diff", 5).ratios is None

    def test_difference_of_series_is_harmonic(self):
        n = 2000
        u = tc.probe("u", n).partial_sums
        v = tc.probe("v", n).partial_sums
        harmonic = np.cumsum(1.0 / np.arange(1, n + 1))
        assert u - v == pytest.approx(-harmonic, rel=1e-14)

    def test_bounded_series_stays_in_band(self):
        p = tc.probe("u", 10**6)
        assert np.abs(p.partial_sums).max() <= 1.0
        assert p.partial_sums.min() == pytest.approx(-1.0, abs=1e-12)
        assert p.partial_sums.max() == pytest.approx(-0.29289321881345254,
                                                     abs=1e-12)

    def test_bounded_series_is_cauchy(self):
        p = tc.probe("u", 2 * 10**5)
        gap = abs(p.partial_sums[2 * 10**5 - 1] - p.partial_sums[10**5 - 1])
        assert gap < 1e-2

    def test_ratio_tends_to_one(self):
        p = tc.probe("v", 10**4 + 100)
        window = p.ratios[10**4 - 1:]
        assert np.abs(window - 1.0).max() < 0.011
        # the deviation is exactly 1/sqrt(n) in magnitude
        n = np.arange(10**4, 10**4 + 101)
        assert np.abs(window - 1.0) == pytest.approx(1.0 / np.sqrt(n), rel=1e-12)

    def test_running_sums_match_fsum_reference(self):
        n = 200_000
        index = np.arange(1, n + 1)
        alternating = np.where(index % 2 == 0, 1.0, -1.0) / np.sqrt(index)
        terms = {"u": alternating, "v": alternating * (1.0 + alternating),
                 "diff": -1.0 / index}
        for kind, series in terms.items():
            sums = tc.probe(kind, n).partial_sums
            assert sums.shape == (n,)
            for cut in (1, 1000, n // 2, n):
                assert sums[cut - 1] == pytest.approx(math.fsum(series[:cut]),
                                                      abs=1e-9), (kind, cut)

    def test_diverging_sums_are_strictly_monotone(self):
        p = tc.probe("diff", 10**4)
        assert (np.diff(p.partial_sums) < 0).all()

    def test_rejects_bad_arguments(self):
        with pytest.raises(tc.DomainError):
            tc.probe("w", 5)
        with pytest.raises(tc.DomainError):
            tc.probe("u", 0)
        with pytest.raises(tc.DomainError):
            tc.probe("u", 2.5)
        with pytest.raises(tc.DomainError):
            tc.probe("u", True)
        with pytest.raises(tc.DomainError):
            tc.probe("u", 10**8 + 1)


class TestDivergenceWitness:
    def test_harmonic_difference_escapes_quickly(self):
        assert tc.divergence_witness("diff", -2.0, 10) == 4

    def test_harmonic_difference_escapes_any_band(self):
        n = tc.divergence_witness("diff", -10.0, 20000)
        assert n == 12367
        assert n < 12400

    def test_bounded_series_never_escapes(self):
        assert tc.divergence_witness("u", -3.0, 10**5) is None

    def test_drifting_series_escapes(self):
        n = tc.divergence_witness("v", -3.0, 10**5)
        assert n == 18
        sums = tc.probe("v", 20).partial_sums
        assert sums[n - 1] > 3.0
        assert (np.abs(sums[:n - 1]) <= 3.0).all()

    def test_rejects_non_negative_bound(self):
        with pytest.raises(tc.DomainError):
            tc.divergence_witness("u", 0.0, 100)
        with pytest.raises(tc.DomainError):
            tc.divergence_witness("u", 1.5, 100)
