"""Polynomial sampling, evaluation, and Lagrange recovery at zero."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsslab.errors import DuplicateAbscissa, ZeroAbscissa
from vsslab.poly import (
    SecretPolynomial,
    eval_integer,
    eval_mod,
    lagrange_weights,
    lagrange_zero,
    sample_polynomial,
    subset_zeros,
)
from vsslab.rng import SplitMix64


def poly(coeffs, m=11, dealer=1):
    return SecretPolynomial(dealer=dealer, coeffs=tuple(coeffs), field_modulus=m)


def test_eval_integer_worked_example():
    # P(x) = 3 + 4x over Z_11, evaluated without reduction
    assert eval_integer(poly([3, 4]), 2) == 11
    assert eval_integer(poly([3, 4]), 1) == 7


def test_eval_mod_reduces_eval_integer():
    p = poly([3, 4])
    for k in range(1, 9):
        assert eval_mod(p, k, 11) == eval_integer(p, k) % 11


def test_eval_rejects_nonpositive_point():
    with pytest.raises(ValueError):
        eval_integer(poly([3, 4]), 0)
    with pytest.raises(ValueError):
        eval_integer(poly([3, 4]), -2)


def test_secret_and_threshold_accessors():
    p = poly([5, 0, 9])
    assert p.secret == 5
    assert p.threshold == 3


def test_coefficients_must_be_reduced():
    with pytest.raises(ValueError):
        poly([3, 11])
    with pytest.raises(ValueError):
        poly([-1, 4])
    with pytest.raises(ValueError):
        poly([])


def test_sample_polynomial_is_deterministic_per_stream():
    a = sample_polynomial(3, 101, 1, SplitMix64(9))
    b = sample_polynomial(3, 101, 1, SplitMix64(9))
    assert a == b
    assert a.threshold == 3
    assert all(0 <= c < 101 for c in a.coeffs)


def test_sample_polynomial_pinned_coefficients():
    # frozen output; a change here means the share-and-commit streams moved
    got = sample_polynomial(3, 11, 1, SplitMix64(2024)).coeffs
    assert got == (5, 2, 9)


class TestLagrangeZero:
    def test_worked_example_honest(self):
        assert lagrange_zero([(1, 7), (2, 0)], 11) == 3

    def test_worked_example_corrupted(self):
        # second point replaced by a forgery-reduced value: lands on 4, not 3
        assert lagrange_zero([(1, 7), (2, 10)], 11) == 4

    def test_constant_polynomial(self):
        assert lagrange_zero([(4, 5)], 11) == 5

    def test_weights_pinned(self):
        # x=1: 2*(2-1)^-1 = 2; x=2: 1*(1-2)^-1 = -1 = 10 mod 11
        assert lagrange_weights((1, 2), 11) == (2, 10)

    def test_weights_reject_zero_abscissa(self):
        with pytest.raises(ZeroAbscissa):
            lagrange_weights((0, 1), 11)

    def test_weights_reject_duplicates(self):
        with pytest.raises(DuplicateAbscissa):
            lagrange_weights((3, 3), 11)
        with pytest.raises(DuplicateAbscissa):
            lagrange_zero([(1, 5), (1, 6)], 11)

    def test_ordinates_must_be_reduced(self):
        with pytest.raises(ValueError):
            lagrange_zero([(1, 11)], 11)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            lagrange_zero([], 11)


class TestSubsetZeros:
    def test_worked_example(self):
        # P(x) = 3 + 4x with (2, 10) the forged point of the p=11 example,
        # off by -1: a subset holding it lands on 3 minus the weight of x=2
        # in it (10 in {1, 2}, 3 in {2, 3}), the honest subset on 3
        assert list(subset_zeros([(1, 7), (2, 10), (3, 4)], 2, 11)) == [4, 3, 0]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            list(subset_zeros([(1, 7)], 2, 11))
        with pytest.raises(ValueError):
            list(subset_zeros([(1, 7), (2, 11)], 2, 11))
        with pytest.raises(DuplicateAbscissa):
            list(subset_zeros([(1, 7), (2, 3), (2, 4)], 2, 11))
        with pytest.raises(ZeroAbscissa):
            list(subset_zeros([(1, 7), (3, 3), (0, 4)], 2, 11))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_subset_zeros_matches_per_subset_interpolation(data):
    # points of one polynomial with residuals added at random positions;
    # when a residual sits among the first t points, the base polynomial
    # Q runs through a forged point and the honest ones become off-Q
    m = data.draw(st.sampled_from([11, 23, 97, 2**61 - 1]))
    n = data.draw(st.integers(min_value=1, max_value=min(8, m - 1)))
    t = data.draw(st.integers(min_value=1, max_value=n))
    xs = data.draw(st.lists(st.integers(min_value=1, max_value=m - 1),
                            min_size=n, max_size=n, unique=True))
    p = sample_polynomial(t, m, 1, SplitMix64(data.draw(st.integers(0, 2**64 - 1))))
    forged = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    points = [
        (x, (eval_mod(p, x, m) + (data.draw(st.integers(1, m - 1)) if i in forged else 0)) % m)
        for i, x in enumerate(xs)
    ]
    expected = [lagrange_zero(s, m) for s in itertools.combinations(points, t)]
    assert list(subset_zeros(points, t, m)) == expected


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_every_t_subset_recovers_the_secret(data):
    m = data.draw(st.sampled_from([11, 23, 97, 65537, 2**61 - 1]))
    t = data.draw(st.integers(min_value=1, max_value=4))
    n = data.draw(st.integers(min_value=t, max_value=7))
    seed = data.draw(st.integers(min_value=0, max_value=2**64 - 1))
    p = sample_polynomial(t, m, 1, SplitMix64(seed))
    points = [(k, eval_mod(p, k, m)) for k in range(1, n + 1)]
    for subset in itertools.combinations(points, t):
        assert lagrange_zero(list(subset), m) == p.secret


@given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=6, unique=True))
@settings(max_examples=150, deadline=None)
def test_weights_sum_to_one(xs):
    m = 2**61 - 1
    assert sum(lagrange_weights(tuple(xs), m)) % m == 1


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_interpolation_is_linear_in_the_ordinates(data):
    # recovery of a sum of point sets equals the sum of recoveries
    m = 97
    xs = data.draw(st.lists(st.integers(min_value=1, max_value=96), min_size=2, max_size=5, unique=True))
    ys1 = data.draw(st.lists(st.integers(min_value=0, max_value=96), min_size=len(xs), max_size=len(xs)))
    ys2 = data.draw(st.lists(st.integers(min_value=0, max_value=96), min_size=len(xs), max_size=len(xs)))
    merged = [(x, (a + b) % m) for x, a, b in zip(xs, ys1, ys2)]
    lhs = lagrange_zero(merged, m)
    rhs = (lagrange_zero(list(zip(xs, ys1)), m) + lagrange_zero(list(zip(xs, ys2)), m)) % m
    assert lhs == rhs
