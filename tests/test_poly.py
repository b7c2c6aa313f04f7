"""Polynomial sampling, evaluation, Lagrange recovery at zero and in coefficient form."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsslab.errors import VsslabError
from vsslab.poly import (
    SecretPolynomial,
    _lagrange_weights,
    _packed_basis,
    evaluate,
    horner,
    interpolate,
    lagrange_basis,
    lagrange_weights,
    lagrange_zero,
    sample_polynomial,
)
from vsslab.protocol import MAX_PARTIES
from vsslab.rng import SplitMix64


def poly(coeffs, m=11, dealer=1):
    return SecretPolynomial(dealer=dealer, coeffs=tuple(coeffs), field_modulus=m)


def test_horner_worked_example():
    # P(x) = 3 + 4x over Z_11, evaluated without reduction
    assert horner(poly([3, 4]).coeffs, 2) == 11
    assert horner(poly([3, 4]).coeffs, 1) == 7


def test_secret_and_threshold_accessors():
    # the threshold is the number of coefficients
    p = poly([5, 0, 9])
    assert p.secret == 5
    assert len(p.coeffs) == 3


def test_coefficients_must_be_reduced():
    with pytest.raises(ValueError):
        poly([3, 11])
    with pytest.raises(ValueError):
        poly([-1, 4])
    with pytest.raises(ValueError):
        poly([])


def test_dealer_and_modulus_are_checked():
    with pytest.raises(VsslabError, match="dealer id must be non-negative"):
        SecretPolynomial(dealer=-1, coeffs=(1,), field_modulus=11)
    with pytest.raises(VsslabError, match="field modulus must be at least 2, got 1"):
        SecretPolynomial(dealer=1, coeffs=(0,), field_modulus=1)


def test_the_smallest_field_modulus_is_two():
    # the boundary of the "at least 2" check: Z_2 holds a polynomial
    p = SecretPolynomial(dealer=0, coeffs=(1, 1), field_modulus=2)
    assert (p.secret, p.field_modulus, horner(p.coeffs, 1)) == (1, 2, 2)


def test_sample_polynomial_needs_a_coefficient_but_not_a_prime_field():
    with pytest.raises(VsslabError, match="polynomial needs at least one coefficient"):
        sample_polynomial(0, 11, 1, SplitMix64(0))
    # like SecretPolynomial, sampling takes any modulus >= 2; the group's
    # field is proven prime once, by GroupParams.validate
    assert all(c < 12 for c in sample_polynomial(4, 12, 1, SplitMix64(0)).coeffs)


def test_sample_polynomial_is_deterministic_per_stream():
    a = sample_polynomial(3, 101, 1, SplitMix64(9))
    b = sample_polynomial(3, 101, 1, SplitMix64(9))
    assert a == b
    assert len(a.coeffs) == 3
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
        with pytest.raises(VsslabError, match="abscissa 0 would address the secret itself"):
            lagrange_weights((0, 1), 11)

    def test_weights_reject_duplicates(self):
        with pytest.raises(VsslabError, match="abscissa 3 appears twice"):
            lagrange_weights((3, 3), 11)
        with pytest.raises(VsslabError, match="abscissa 1 appears twice"):
            lagrange_zero([(1, 5), (1, 6)], 11)

    def test_ordinates_must_be_reduced(self):
        with pytest.raises(ValueError):
            lagrange_zero([(1, 11)], 11)

    def test_empty_input_rejected(self):
        with pytest.raises(VsslabError, match="need at least one abscissa"):
            lagrange_zero([], 11)
        for public in (lagrange_weights, lagrange_basis):
            with pytest.raises(VsslabError, match="need at least one abscissa"):
                public((), 11)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_every_t_subset_recovers_the_secret(data):
    m = data.draw(st.sampled_from([11, 23, 97, 65537, 2**61 - 1]))
    t = data.draw(st.integers(min_value=1, max_value=4))
    n = data.draw(st.integers(min_value=t, max_value=7))
    seed = data.draw(st.integers(min_value=0, max_value=2**64 - 1))
    p = sample_polynomial(t, m, 1, SplitMix64(seed))
    points = [(k, horner(p.coeffs, k) % m) for k in range(1, n + 1)]
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


class TestLagrangeBasis:
    def test_pinned_for_two_points(self):
        # through (1, y1) and (2, y2) mod 11: b0 = 2*y1 - y2, b1 = y2 - y1
        assert lagrange_basis((1, 2), 11) == ((2, 10), (10, 1))

    def test_rejects_the_abscissas_lagrange_weights_rejects(self):
        with pytest.raises(VsslabError, match="abscissa 0 would address the secret itself"):
            lagrange_basis((0, 1), 11)
        with pytest.raises(VsslabError, match="abscissa 1 appears twice"):
            lagrange_basis((1, 1), 11)
        with pytest.raises(ValueError):
            lagrange_basis((1, 11), 11)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_basis_recovers_every_coefficient(data):
    m = data.draw(st.sampled_from([11, 23, 97, 65537, 2**61 - 1]))
    t = data.draw(st.integers(min_value=1, max_value=6))
    xs = data.draw(st.lists(st.integers(min_value=1, max_value=min(m - 1, 200)),
                            min_size=t, max_size=t, unique=True))
    p = sample_polynomial(t, m, 1, SplitMix64(data.draw(st.integers(0, 2**64 - 1))))
    basis = lagrange_basis(xs, m)
    ys = [horner(p.coeffs, x) % m for x in xs]
    assert tuple(sum(y * w for y, w in zip(ys, row)) % m for row in basis) == p.coeffs
    assert interpolate(xs, ys, m) == p.coeffs
    assert evaluate(p.coeffs, xs, m) == tuple(horner(p.coeffs, x) for x in xs)
    assert basis[0] == lagrange_weights(xs, m)


# a 96-bit prime, the widest field a generated group has
P96 = 2**96 - 17


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_packed_kernels_hold_at_their_widest_slots(data):
    # a slot's width is the bit length of the largest value it can hold:
    # every coefficient m - 1 at the largest x for evaluate, every
    # ordinate congruent to m - 1 for interpolate. Drawing those extremes
    # makes a slot one bit short carry into its neighbour and fail here.
    m = data.draw(st.sampled_from([11, 97, 65537, 2**61 - 1, P96]))
    t = data.draw(st.integers(min_value=1, max_value=min(m - 1, MAX_PARTIES)))
    top = min(m - 1, MAX_PARTIES)
    extreme = data.draw(st.booleans())
    element = st.just(m - 1) if extreme else st.integers(0, m - 1) | st.just(m - 1)
    coeffs = data.draw(st.lists(element, min_size=t, max_size=t))
    xs = data.draw(st.lists(st.integers(1, top), min_size=1, max_size=MAX_PARTIES, unique=True))
    assert evaluate(coeffs, xs, m) == tuple(horner(coeffs, x) for x in xs)
    # ordinates as large as exact vulnerable shares: residue plus a
    # multiple of m up to the largest value of a degree t - 1 polynomial
    xs = xs[:t] if len(xs) >= t else data.draw(
        st.lists(st.integers(1, top), min_size=t, max_size=t, unique=True))
    size = sum(top**j for j in range(t))
    ys = [data.draw(element) + m * data.draw(st.integers(0, size)) for _ in xs]
    assert interpolate(xs, ys, m) == tuple(
        sum(y % m * w for y, w in zip(ys, row)) % m for row in lagrange_basis(xs, m))


def test_evaluate_is_exact_at_the_widest_admitted_row():
    # t = n = MAX_PARTIES over a 96-bit field, every coefficient m - 1:
    # the widest slot a ceremony evaluates
    xs = range(1, MAX_PARTIES + 1)
    coeffs = [P96 - 1] * MAX_PARTIES
    assert evaluate(coeffs, xs, P96) == tuple(horner(coeffs, x) for x in xs)


# lagrange_weights and lagrange_basis cache their tables; a cached table
# must be the one a fresh computation gives, whatever iterable the
# abscissas came in, and a refused abscissa set is refused every time
_AS_ITERABLE = st.sampled_from([list, tuple, iter])


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_cached_tables_equal_a_fresh_computation(data):
    m = data.draw(st.sampled_from([11, 97, 2**61 - 1]))
    xs = data.draw(st.lists(st.integers(min_value=1, max_value=min(m - 1, 40)),
                            min_size=1, max_size=6, unique=True))
    weights_fresh = _lagrange_weights.__wrapped__(tuple(xs), m)
    packed_fresh = _packed_basis.__wrapped__(tuple(xs), m)
    for _ in range(2):
        weights = lagrange_weights(data.draw(_AS_ITERABLE)(xs), m)
        basis = lagrange_basis(data.draw(_AS_ITERABLE)(xs), m)
        assert weights == weights_fresh and basis[0] == weights_fresh
        assert _packed_basis(tuple(xs), m) == packed_fresh
        assert type(weights) is tuple and all(type(w) is int for w in weights)
        assert type(basis) is tuple and all(type(row) is tuple for row in basis)
        assert all(type(w) is int for row in basis for w in row)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_refused_abscissas_raise_on_every_call(data):
    m = 97
    xs = data.draw(st.lists(st.integers(min_value=1, max_value=m - 1),
                            min_size=1, max_size=5, unique=True))
    bad, message = data.draw(st.sampled_from([
        (0, "abscissa 0 would address"), (xs[0], "appears twice"), (m, "outside"), (m + 5, "outside"),
    ]))
    xs.insert(data.draw(st.integers(0, len(xs))), bad)
    for public in (lagrange_weights, lagrange_basis):
        for _ in range(3):
            with pytest.raises(VsslabError, match=message):
                public(data.draw(_AS_ITERABLE)(xs), m)
