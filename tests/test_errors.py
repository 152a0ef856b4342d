import math

import numpy as np
import pytest

import trigconv as tc
from conftest import SQUARE, build


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
])
def test_integer_arguments_are_validated_by_name(call, name):
    for bad in (2.0, True, np.float64(3.0), "4", -1):
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
