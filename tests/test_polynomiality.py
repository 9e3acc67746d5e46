import random
import time
from fractions import Fraction

import pytest

from prunedhurwitz.combinatorics import is_wall_point, partitions
from prunedhurwitz.hurwitz import HurwitzEngine, Kind
from prunedhurwitz.polynomiality import (
    degree_bound,
    finite_difference_degree,
    fit_univariate,
    scaling_values,
)

from oracles import lagrange_fit, least_reproducing_degree, wall_by_subsets

ENGINE = HurwitzEngine()


def F(a, b=1):
    return Fraction(a, b)


def evaluate_polynomial(coeffs, t):
    """Horner's rule for the ascending coefficients ``coeffs`` at t."""
    out = Fraction(0)
    for c in reversed(tuple(coeffs)):
        out = out * t + c
    return out


def test_wall_detection():
    assert not is_wall_point((2, 3), (1, 4))
    assert is_wall_point((2, 3), (2, 3))
    assert is_wall_point((1, 1), (1, 1))
    assert is_wall_point((2, 2), (1, 1, 2))
    assert not is_wall_point((2,), (1, 1))  # no proper balance possible
    with pytest.raises(ValueError):
        is_wall_point((2,), (3,))


def test_wall_is_scale_invariant():
    for mu, nu in [((2, 3), (1, 4)), ((2, 3), (2, 3)), ((3, 4), (2, 5))]:
        base = is_wall_point(mu, nu)
        for t in (2, 3, 5):
            assert is_wall_point([t * x for x in mu], [t * x for x in nu]) == base


def test_wall_detection_equals_the_subset_enumeration():
    for d in range(1, 11):
        for mu in partitions(d):
            for nu in partitions(d):
                assert is_wall_point(mu, nu) == wall_by_subsets(mu, nu), (mu, nu)


def test_wall_detection_is_fast_on_many_parts():
    # the subset enumeration would list 2^40 + 2^20 subsets
    start = time.perf_counter()
    assert is_wall_point((1,) * 40, (2,) * 20)
    assert not is_wall_point((1,) * 40, (40,))
    assert time.perf_counter() - start < 0.1


def test_scaling_values():
    assert scaling_values(0, (2, 3), (1, 4), Kind.PRUNED, 2, ENGINE) == [2, 4]
    assert scaling_values(0, (2, 3), (1, 4), Kind.FULL, 2, ENGINE) == [8, 16]
    assert scaling_values(0, (1,), (1,), Kind.FULL, 3, ENGINE) == [1, F(1, 2), F(1, 3)]


def test_finite_difference_degree():
    assert finite_difference_degree([F(2), F(4), F(6), F(8)]) == 1
    assert finite_difference_degree([F(1), F(1), F(1)]) == 0
    assert finite_difference_degree([F(1), F(1, 2), F(1, 3)]) is None
    assert finite_difference_degree([F(1), F(4), F(9), F(16), F(25)]) == 2
    with pytest.raises(ValueError):
        finite_difference_degree([F(1)])


def test_fit_univariate():
    assert fit_univariate([F(2), F(4)]) == [0, 2]
    assert fit_univariate([F(8), F(16)]) == [0, 8]
    assert fit_univariate([F(1), F(1)]) == [1]
    assert fit_univariate([F(1), F(4), F(9), F(16)]) == [0, 0, 1]
    assert fit_univariate([F(5)]) == [5]
    with pytest.raises(ValueError):
        fit_univariate([])


def test_fit_and_degree_equal_the_lagrange_reference():
    rng = random.Random(31)
    for _ in range(1500):
        n, degree = rng.randint(1, 10), rng.randint(0, 9)
        coeffs = [F(rng.randint(-40, 40), rng.randint(1, 6)) for _ in range(degree + 1)]
        values = [evaluate_polynomial(coeffs, t) for t in range(1, n + 1)]
        shape = rng.random()
        if shape < 0.25:
            values[rng.randrange(n)] += F(rng.randint(1, 9), rng.randint(1, 4))
        elif shape < 0.35:
            values = [F(0)] * n
        assert fit_univariate(values) == lagrange_fit(values), values
        if n >= 2:
            assert finite_difference_degree(values) == least_reproducing_degree(values), values


def test_fit_reproduces_samples_exactly():
    samples = [F(3, 2), F(-1), F(7, 3), F(0), F(11)]
    coeffs = fit_univariate(samples)
    for t, want in enumerate(samples, start=1):
        assert evaluate_polynomial(coeffs, t) == want


def test_pruned_scaling_degree_meets_bound():
    # genus 0, two-by-two profiles: exact degree 4g - 3 + k + l = 1
    assert degree_bound(0, 2, 2) == 1
    for mu, nu in [((2, 3), (1, 4)), ((3, 4), (2, 5)), ((2, 4), (1, 5))]:
        assert not is_wall_point(mu, nu)
        values = scaling_values(0, mu, nu, Kind.PRUNED, 4, ENGINE)
        degree = finite_difference_degree(values)
        assert degree == 1
        coeffs = fit_univariate(values)
        assert coeffs == [0, 2 * nu[0]]  # PH = 2*c*t on this chamber


def test_full_scaling_polynomial_on_chamber():
    values = scaling_values(0, (2, 3), (1, 4), Kind.FULL, 4, ENGINE)
    assert fit_univariate(values) == [0, 8]  # H = 2*d*t = 8t
