import functools
import math

import numpy as np
import pytest

import trigconv as tc
from conftest import SQUARE, build
from trigconv import quadrature
from trigconv.errors import check_points, check_real


def _blocks():
    return tc.decompose(lambda b: np.exp(-b), 10, math.pi / 2)


@pytest.mark.parametrize("call, name", [
    (lambda bad: tc.cosine_sum(bad, 0.3), "order"),
    (lambda bad: tc.dirichlet_kernel(bad, 0.3), "order"),
    (lambda bad: tc.coefficients(build(SQUARE), bad), "n_max"),
    (lambda bad: tc.partial_sum_kernel(build(SQUARE), 0.0, bad), "n"),
    (lambda bad: tc.probe("u", bad), "n_terms"),
    (lambda bad: tc.tail(bad), "n_max"),
    (lambda bad: tc.group_tail_bound(_blocks(), bad), "m"),
    (lambda bad: tc.divergence_witness("u", -3.0, bad), "n_max"),
    (lambda bad: quadrature.integrate_harmonics(np.cos, 0.0, 1.0, bad), "n_max"),
])
def test_integer_arguments_are_validated_by_name(call, name):
    for bad in (2.0, 3.5, True, np.float64(3.0), "4", -1):
        with pytest.raises(tc.DomainError, match=rf"^{name} must"):
            call(bad)


def test_numpy_integers_are_accepted():
    assert tc.cosine_sum(np.int64(3), 0.0) == 3.5
    assert tc.probe("diff", np.int32(4)).n_terms == 4
    assert isinstance(tc.probe("diff", np.int32(4)).n_terms, int)


@pytest.mark.parametrize("call, name", [
    (lambda bad: tc.convergence_report(build(SQUARE), 0.0, bad), "order schedule"),
    (lambda bad: tc.limit_verify(np.exp, 0.0, 1.0, bad), "frequency schedule"),
])
def test_schedules_must_be_non_empty_and_strictly_increasing(call, name):
    with pytest.raises(tc.DomainError, match=rf"^the {name} must be non-empty"):
        call(())
    for bad in ((10, 5), (5, 5)):
        with pytest.raises(tc.DomainError, match=rf"^the {name} must be strictly increasing"):
            call(bad)


@functools.cache
def _square():
    return build(SQUARE)


@functools.cache
def _square_coefficients():
    return tc.coefficients(_square(), 4)


# every real argument slot of the public API: a call taking the bad value,
# and the name its refusal starts with
_REAL_SLOTS = {
    "partial_sum_kernel-x": (lambda bad: tc.partial_sum_kernel(_square(), bad, 3), "x"),
    "partial_sum_kernel-tol": (lambda bad: tc.partial_sum_kernel(_square(), 0.0, 3, bad), "tol"),
    "partial_sum-x": (lambda bad: tc.partial_sum(_square_coefficients(), bad, 3), "x"),
    "split_integrals-x": (lambda bad: tc.split_integrals(_square(), bad, 3), "x"),
    "split_integrals-tol": (lambda bad: tc.split_integrals(_square(), 0.0, 3, bad), "tol"),
    "beta_split_points-x": (lambda bad: tc.beta_split_points(_square(), bad, "lower"), "x"),
    "predicted_limit-x": (lambda bad: tc.predicted_limit(_square(), bad), "x"),
    "convergence_report-x": (lambda bad: tc.convergence_report(_square(), bad, (1,)), "x"),
    "convergence_report-tol": (lambda bad: tc.convergence_report(_square(), 0.0, (1,), bad),
                               "tol"),
    "coefficients-tol": (lambda bad: tc.coefficients(_square(), 2, bad), "tol"),
    "cosine_sum-t": (lambda bad: tc.cosine_sum(3, bad), "t"),
    "dirichlet_kernel-t": (lambda bad: tc.dirichlet_kernel(3, bad), "t"),
    "kernel_mean-tol": (lambda bad: tc.kernel_mean(3, bad), "tol"),
    "sine_ratio-i": (lambda bad: tc.sine_ratio(bad, 0.3), "frequency"),
    "sine_ratio-beta": (lambda bad: tc.sine_ratio(3.0, bad), "beta"),
    "decompose-i": (lambda bad: tc.decompose(np.exp, bad, 1.0), "frequency"),
    "decompose-h": (lambda bad: tc.decompose(np.exp, 3.0, bad), "h"),
    "decompose-tol": (lambda bad: tc.decompose(np.exp, 3.0, 1.0, bad), "tol"),
    "tail-tol": (lambda bad: tc.tail(3, bad), "tol"),
    "limit_verify-g": (lambda bad: tc.limit_verify(np.exp, bad, 1.0, (3,)), "g"),
    "limit_verify-h": (lambda bad: tc.limit_verify(np.exp, 0.0, bad, (3,)), "h"),
    "limit_verify-i": (lambda bad: tc.limit_verify(np.exp, 0.0, 1.0, (3, bad)), "frequency"),
    "limit_verify-tol": (lambda bad: tc.limit_verify(np.exp, 0.0, 1.0, (3,), bad), "tol"),
    "integrate-lo": (lambda bad: tc.integrate(np.cos, bad, 1.0), "lo"),
    "integrate-hi": (lambda bad: tc.integrate(np.cos, 0.0, bad), "hi"),
    "integrate-tol": (lambda bad: tc.integrate(np.cos, 0.0, 1.0, bad), "tol"),
    "integrate_intervals-tol": (lambda bad: tc.integrate_intervals(np.cos, [0.0, 1.0], bad),
                                "tol"),
    "one_sided_limits-x": (lambda bad: _square().one_sided_limits(bad), "x"),
    "summarize-bound": (lambda bad: tc.summarize("u", 5, bad), "bound"),
}


@pytest.mark.parametrize("bad", [None, "a", math.nan, math.inf], ids=repr)
@pytest.mark.parametrize("slot", _REAL_SLOTS)
def test_real_arguments_are_refused_by_name(slot, bad):
    call, name = _REAL_SLOTS[slot]
    with pytest.raises(tc.DomainError, match=rf"^{name} must"):
        call(bad)


@pytest.mark.parametrize("value, bounds, message", [
    ("a", {}, "x must be a number, got 'a'"),
    (math.nan, {}, "x must be finite, got nan"),
    (4.0, {"lo": -math.pi, "hi": math.pi}, "x must lie in [-pi, pi], got 4.0"),
    (0.0, {"lo": 0, "hi": math.pi / 2, "open_lo": True}, "x must lie in (0, pi/2], got 0.0"),
    (2.5, {"lo": 0.5, "hi": 2.5, "open_hi": True}, "x must lie in [0.5, 2.5), got 2.5"),
    (0.0, {"hi": 0, "open_hi": True}, "x must be finite and lie in (-inf, 0), got 0.0"),
    (math.inf, {"lo": 0, "open_lo": True}, "x must be finite and lie in (0, inf), got inf"),
])
def test_check_real_messages(value, bounds, message):
    with pytest.raises(tc.DomainError) as info:
        check_real(value, "x", **bounds)
    assert str(info.value) == message


def test_check_real_converts_as_float_does():
    for value in (True, np.float32(0.1), "2.5", 3):
        result = check_real(value, "x")
        assert type(result) is float and result == float(value)
    assert check_real(-0.0, "x", 0) == 0.0
    assert math.copysign(1.0, check_real(-0.0, "x", 0)) == -1.0


# every sequence-of-points argument: a call taking the bad points, and the
# name its refusal starts with
_POINT_SLOTS = {
    "integrate-breakpoints": (lambda bad: tc.integrate(np.cos, 0.0, 1.0, breakpoints=bad),
                              "breakpoints"),
    "integrate-graded": (lambda bad: tc.integrate(np.cos, 0.0, 1.0, graded=bad), "graded"),
    "integrate_intervals-edges": (lambda bad: tc.integrate_intervals(np.cos, [*bad, 1.0]),
                                  "edges"),
    "integrate_intervals-graded": (lambda bad: tc.integrate_intervals(np.cos, [0.0, 1.0],
                                                                      graded=bad), "graded"),
    "integrate_harmonics-breakpoints": (
        lambda bad: quadrature.integrate_harmonics(np.cos, 0.0, 1.0, 3, breakpoints=bad),
        "breakpoints"),
    "integrate_harmonics-graded": (
        lambda bad: quadrature.integrate_harmonics(np.cos, 0.0, 1.0, 3, graded=bad), "graded"),
}


@pytest.mark.parametrize("bad", [["a"], [None], [0.5, "a"]], ids=repr)
@pytest.mark.parametrize("slot", _POINT_SLOTS)
def test_point_sequences_of_non_numbers_are_refused_by_name(slot, bad):
    call, name = _POINT_SLOTS[slot]
    with pytest.raises(tc.DomainError, match=rf"^{name} must"):
        call(bad)


@pytest.mark.parametrize("slot", [slot for slot in _POINT_SLOTS if "edges" not in slot])
def test_nan_points_are_refused_by_name(slot):
    call, name = _POINT_SLOTS[slot]
    with pytest.raises(tc.DomainError, match=rf"^{name} must not hold NaN"):
        call([0.5, math.nan])


@pytest.mark.parametrize("keyword", ["breakpoints", "graded"])
def test_points_outside_the_range_are_ignored(keyword):
    # finite or not, a point outside [0, 1] changes nothing
    outside = {keyword: [-math.inf, -3.0, 5.0, math.inf]}
    assert tc.integrate(np.cos, 0.0, 1.0, **outside) == tc.integrate(np.cos, 0.0, 1.0)
    harmonics = quadrature.integrate_harmonics(np.exp, 0.0, 1.0, 5, **outside)
    for got, want in zip(harmonics, quadrature.integrate_harmonics(np.exp, 0.0, 1.0, 5)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("values, message", [
    (["a"], "p must hold numbers: could not convert string to float: 'a'"),
    ([None, 1.0], "p must not hold NaN or None"),
    (0.5, "p must be a 1-D sequence of numbers, got shape ()"),
    ([[0.5]], "p must be a 1-D sequence of numbers, got shape (1, 1)"),
])
def test_check_points_messages(values, message):
    with pytest.raises(tc.DomainError) as info:
        check_points(values, "p")
    assert str(info.value) == message


def test_check_points_converts_as_asarray_does():
    points = check_points((1, np.float32(0.5), "2.5", math.inf), "p")
    assert points.dtype == np.float64
    assert points.tolist() == [1.0, 0.5, 2.5, math.inf]
    assert check_points((), "p").shape == (0,)


# every entry point that takes an integrand, as a call on it
_INTEGRAND_SLOTS = {
    "integrate": lambda f: tc.integrate(f, 0.0, 1.0),
    "integrate_intervals": lambda f: tc.integrate_intervals(f, [0.0, 0.5, 1.0]),
    "integrate_harmonics": lambda f: quadrature.integrate_harmonics(f, 0.0, 1.0, 3),
    "decompose": lambda f: tc.decompose(f, 10, math.pi / 2),
    "limit_verify": lambda f: tc.limit_verify(f, 0.0, math.pi / 2, (10, 100)),
}

# integrands that break the contract of the quadrature engine
_MALFORMED = {
    "scalar": lambda x: 1.0,
    "too-few-values": lambda x: np.cos(x[1:]),
    "3-d-rows": lambda x: np.ones((x.shape[0], 2, 2)),
    "complex": lambda x: x + 1j,
    "string": lambda x: "abc",
    "math.exp": math.exp,
}


def _counted(f):
    def counting(x):
        counting.calls += 1
        return f(x)
    counting.calls = 0
    return counting


@pytest.mark.parametrize("integrand", [*_MALFORMED, "non-callable"])
@pytest.mark.parametrize("slot", _INTEGRAND_SLOTS)
def test_malformed_integrands_are_refused_at_the_first_call(slot, integrand):
    f = _counted(_MALFORMED[integrand]) if integrand in _MALFORMED else 42
    with pytest.raises(tc.DomainError, match=r"^integrand"):
        _INTEGRAND_SLOTS[slot](f)
    assert not callable(f) or f.calls == 1


@pytest.mark.parametrize("slot", _INTEGRAND_SLOTS)
def test_integrand_exceptions_propagate_unchanged(slot):
    def raising(error):
        def f(x):
            raise error
        return f
    for error in (RuntimeError("bug inside f"), tc.DomainError("x must lie in [-pi, pi]")):
        f = _counted(raising(error))
        with pytest.raises(type(error)) as info:
            _INTEGRAND_SLOTS[slot](f)
        assert info.value is error and f.calls == 1


@pytest.mark.parametrize("call, name", [
    (lambda bad: _square().eval(bad), "x"),
    (lambda bad: tc.sine_ratio(3.0, bad), "beta"),
    (lambda bad: tc.dirichlet_kernel(3, bad), "t"),
])
def test_complex_arrays_are_refused(call, name):
    # np.asarray(..., float) would cast them, dropping the imaginary part
    for bad in (np.array([0.5 + 1j]), np.array([0.5 + 0j]), np.complex128(0.5 + 1j)):
        with pytest.raises(tc.DomainError, match=rf"^{name} must hold real numbers, got complex"):
            call(bad)


def test_integrate_harmonics_refuses_rows_before_any_moment(monkeypatch):
    def no_moments(*args):
        raise AssertionError("moments formed from rows")
    monkeypatch.setattr(quadrature, "_gap_bounds", no_moments)
    rows = _counted(lambda x: np.stack([np.cos(x), x], 1))
    with pytest.raises(tc.DomainError, match="^integrate_harmonics needs one value per node"):
        quadrature.integrate_harmonics(rows, 0.0, 1.0, 2)
    assert rows.calls == 1


def test_limit_verify_refuses_rows():
    rows = lambda b: np.stack([np.exp(b), b], 1)
    for g in (0.0, 0.5):
        with pytest.raises(tc.DomainError, match="^f must return one value per point"):
            tc.limit_verify(rows, g, math.pi / 2, (10, 100))
