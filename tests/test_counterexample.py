import math

import numpy as np
import pytest

import trigconv as tc
from conftest import traced_peak
from trigconv.cli import main


def reference_terms(kind, n):
    """All ``n`` terms of series ``kind`` at once, written out independently."""
    index = np.arange(1, n + 1)
    alternating = np.where(index % 2 == 0, 1.0, -1.0) / np.sqrt(index)
    return {"u": alternating, "v": alternating * (1.0 + alternating),
            "diff": -1.0 / index}[kind]


def escape_index(sums, bound):
    outside = (sums < bound) | (sums > -bound)
    return int(np.argmax(outside)) + 1 if outside.any() else None


@pytest.fixture
def chunk_of_7(monkeypatch):
    monkeypatch.setattr(tc.counterexample, "_CHUNK", 7)
    return 7


@pytest.fixture
def no_terms(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("series terms built before input was validated")
    monkeypatch.setattr(tc.counterexample, "_terms", refuse)


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
        for kind in tc.KINDS:
            series = reference_terms(kind, n)
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


# chunk sizes straddled: one term, a partial chunk, exactly one chunk, one
# term past it, a multiple of it, and a multiple plus a partial chunk
CHUNKED_COUNTS = (1, 2, 6, 7, 8, 14, 21, 50)


class TestChunkedPass:
    @pytest.mark.parametrize("kind", tc.KINDS)
    @pytest.mark.parametrize("n", CHUNKED_COUNTS)
    def test_probe_is_one_shot_cumsum(self, chunk_of_7, kind, n):
        p = tc.probe(kind, n)
        assert np.array_equal(p.partial_sums, np.cumsum(reference_terms(kind, n)))
        assert np.signbit(p.partial_sums[0]) == np.signbit(reference_terms(kind, 1)[0])
        if kind == "v":
            assert np.array_equal(p.ratios, 1.0 + reference_terms("u", n))

    @pytest.mark.parametrize("kind", tc.KINDS)
    @pytest.mark.parametrize("n", CHUNKED_COUNTS)
    @pytest.mark.parametrize("bound", (-0.5, -1.0, -2.0, -3.0))
    def test_summary_matches_full_arrays(self, chunk_of_7, kind, n, bound):
        sums = tc.probe(kind, n).partial_sums
        s = tc.summarize(kind, n, bound)
        assert (s.kind, s.n_terms, s.bound) == (kind, n, bound)
        assert s.last_sum == sums[-1]
        assert s.min_sum == sums.min()
        assert s.max_sum == sums.max()
        assert np.signbit(s.min_sum) == np.signbit(sums.min())
        assert s.band_escape == escape_index(sums, bound)
        assert tc.divergence_witness(kind, bound, n) == s.band_escape

    @pytest.mark.parametrize("k", (7, 8, 14, 15))
    def test_escape_on_chunk_edges(self, chunk_of_7, k):
        # the diff sums fall strictly, so a bound between sums k-1 and k is
        # first crossed at index k: the last or first element of a chunk
        sums = tc.probe("diff", 30).partial_sums
        bound = (sums[k - 2] + sums[k - 1]) / 2
        assert tc.summarize("diff", 30, bound).band_escape == k
        assert tc.divergence_witness("diff", bound, 30) == k

    def test_summary_of_default_chunk_matches_probe(self):
        n = 3 * tc.counterexample._CHUNK + 5
        for kind in tc.KINDS:
            sums = tc.probe(kind, n).partial_sums
            s = tc.summarize(kind, n, -1.0)
            assert (s.last_sum, s.min_sum, s.max_sum) == (sums[-1], sums.min(), sums.max())
            assert s.band_escape == escape_index(sums, -1.0)

    def test_summary_fields_are_plain_python(self):
        s = tc.summarize("diff", 10, -2.0)
        assert type(s.last_sum) is float and type(s.min_sum) is float
        assert type(s.max_sum) is float and type(s.band_escape) is int
        assert tc.summarize("u", 10, -2.0).band_escape is None


class TestValidationComesFirst:
    @pytest.mark.parametrize("call", [
        lambda: tc.probe("w", 10**7),
        lambda: tc.probe("u", 0),
        lambda: tc.summarize("w", 10**7, -3.0),
        lambda: tc.summarize("u", 10**7, 1.0),
        lambda: tc.summarize("u", 10**7, float("nan")),
        lambda: tc.summarize("u", 10**8 + 1, -3.0),
        lambda: tc.divergence_witness("w", -3.0, 10**7),
        lambda: tc.divergence_witness("u", 0.0, 10**7),
        lambda: tc.divergence_witness("u", -3.0, 0),
    ])
    def test_refused_before_any_term(self, no_terms, call):
        with pytest.raises(tc.DomainError):
            call()

    def test_parameters_named_in_messages(self, no_terms):
        with pytest.raises(tc.DomainError, match=r"^n_max must"):
            tc.divergence_witness("u", -3.0, 0)
        with pytest.raises(tc.DomainError, match=r"^n_terms must"):
            tc.summarize("u", 2.5, -3.0)
        with pytest.raises(tc.DomainError, match=r"^kind must"):
            tc.summarize("w", 5, -3.0)
        for bound in (0.0, "-x", None):
            with pytest.raises(tc.DomainError, match=r"^bound must"):
                tc.summarize("u", 5, bound)

    @pytest.mark.parametrize("bound", [-math.inf, math.nan])
    def test_non_finite_bound_refused(self, no_terms, bound):
        with pytest.raises(tc.DomainError, match=r"^bound must be finite"):
            tc.summarize("u", 5, bound)
        with pytest.raises(tc.DomainError, match=r"^bound must be finite"):
            tc.divergence_witness("v", bound, 5)

    @pytest.mark.parametrize("argv", [
        ["cauchy", "--n", "10000000", "--x", "1.0"],
        ["cauchy", "--n", "0"],
        ["cauchy", "--n", "100000001"],
    ])
    def test_cli_refuses_before_any_term(self, no_terms, capsys, argv):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("DomainError")


class TestMemory:
    def test_cauchy_holds_one_chunk(self, capsys):
        code, peak = traced_peak(lambda: main(["cauchy", "--n", "2000000"]))
        assert code == 0
        capsys.readouterr()
        assert peak < 4 * 2**20

    def test_witness_holds_one_chunk(self):
        # the full sums alone would take 16 MB
        escape, peak = traced_peak(lambda: tc.divergence_witness("v", -3.0, 2 * 10**6))
        assert escape == 18
        assert peak < 4 * 2**20

    def test_probe_peaks_near_its_arrays(self):
        p, peak = traced_peak(lambda: tc.probe("v", 10**6))
        returned = p.partial_sums.nbytes + p.ratios.nbytes
        assert peak <= 1.25 * returned
