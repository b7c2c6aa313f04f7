"""Polynomial sampling, evaluation, Lagrange recovery at zero and in coefficient form."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsslab.errors import VsslabError
from vsslab.numtheory import Mode, gen_params
from vsslab.poly import (
    _dealt,
    _lagrange_weights,
    _packed_basis,
    _row,
    dealt_coefficients,
    evaluate,
    interpolate,
    lagrange_weights,
    sample_polynomial,
)
from vsslab.protocol import MAX_PARTIES
from vsslab.registry import get_params
from vsslab.rng import SplitMix64
from vsslab.vss import commit

from reference_model import exact_value

# a 96-bit prime, the widest field a generated group has
P96 = 2**96 - 17


def units(n):
    """The n unit vectors of length n: interpolated, unit i gives the
    coefficients of the Lagrange basis polynomial L_i."""
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]


def test_evaluate_worked_example():
    # P(x) = 3 + 4x over Z_11, evaluated without reduction
    assert evaluate((3, 4), (1, 2), 11) == (7, 11)


def test_secret_and_threshold_accessors():
    # the threshold is the number of coefficients, the secret the value at 0
    p = sample_polynomial(3, 11, SplitMix64(2024))
    assert len(p) == 3
    assert p[0] == exact_value(p, 0) == 5


def test_coefficients_must_be_reduced(small11):
    with pytest.raises(VsslabError, match="do not all lie in Z_11"):
        commit((3, 11), small11)
    with pytest.raises(VsslabError, match="do not all lie in Z_11"):
        commit((-1, 4), small11)
    with pytest.raises(VsslabError, match="commitment vector cannot be empty"):
        commit((), small11)


def test_the_smallest_field_modulus_is_two():
    # Z_2 holds a polynomial: sampled below 2, evaluated without reduction
    assert set(sample_polynomial(8, 2, SplitMix64(0))) <= {0, 1}
    assert evaluate((1, 1), (1,), 2) == (2,)


def test_sample_polynomial_needs_a_coefficient_but_not_a_prime_field(small11):
    # t = 0 samples no coefficient, and commit refuses the empty polynomial
    assert sample_polynomial(0, 11, SplitMix64(0)) == ()
    with pytest.raises(VsslabError, match="commitment vector cannot be empty"):
        commit(sample_polynomial(0, 11, SplitMix64(0)), small11)
    # sampling takes any modulus; the group's field is proven prime once,
    # by GroupParams.validate
    assert all(c < 12 for c in sample_polynomial(4, 12, SplitMix64(0)))


def test_sample_polynomial_is_deterministic_per_stream():
    a = sample_polynomial(3, 101, SplitMix64(9))
    b = sample_polynomial(3, 101, SplitMix64(9))
    assert a == b
    assert len(a) == 3
    assert all(0 <= c < 101 for c in a)


@pytest.mark.parametrize("m", [11, 2**63 - 25, 2**64 - 59, P96])
def test_sample_polynomial_draws_what_single_draws_give(m):
    # one batched draw per row: the coefficients t randbelow calls give,
    # in their order, and the stream left where they leave it
    for t in range(1, MAX_PARTIES + 1):
        batched, single = SplitMix64(t), SplitMix64(t)
        assert sample_polynomial(t, m, batched) == tuple(single.randbelow(m) for _ in range(t))
        assert batched.next_u64() == single.next_u64()


def test_sample_polynomial_pinned_coefficients():
    # frozen output; a change here means the share-and-commit streams moved
    got = sample_polynomial(3, 11, SplitMix64(2024))
    assert got == (5, 2, 9)


class TestValueAtZero:
    def test_worked_example_honest(self):
        assert interpolate((1, 2), (7, 0), 11)[0] == 3

    def test_worked_example_corrupted(self):
        # second point replaced by a forgery-reduced value: lands on 4, not 3
        assert interpolate((1, 2), (7, 10), 11)[0] == 4

    def test_constant_polynomial(self):
        assert interpolate((4,), (5,), 11) == (5,)

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
            interpolate((1, 1), (5, 6), 11)

    def test_empty_input_rejected(self):
        with pytest.raises(VsslabError, match="need at least one abscissa"):
            lagrange_weights((), 11)
        with pytest.raises(VsslabError, match="need at least one abscissa"):
            interpolate((), (), 11)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_every_t_subset_recovers_the_secret(data):
    m = data.draw(st.sampled_from([11, 23, 97, 65537, 2**61 - 1]))
    t = data.draw(st.integers(min_value=1, max_value=4))
    n = data.draw(st.integers(min_value=t, max_value=7))
    seed = data.draw(st.integers(min_value=0, max_value=2**64 - 1))
    p = sample_polynomial(t, m, SplitMix64(seed))
    points = [(k, exact_value(p, k) % m) for k in range(1, n + 1)]
    for subset in itertools.combinations(points, t):
        xs, ys = zip(*subset)
        assert interpolate(xs, ys, m)[0] == p[0]
        assert sum(y * w for y, w in zip(ys, lagrange_weights(xs, m))) % m == p[0]


@given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=6, unique=True))
@settings(max_examples=150, deadline=None)
def test_weights_sum_to_one(xs):
    m = 2**61 - 1
    assert sum(lagrange_weights(tuple(xs), m)) % m == 1


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_interpolation_is_linear_in_the_ordinates(data):
    # interpolation of a sum of point sets equals the sum of interpolations
    m = 97
    xs = data.draw(st.lists(st.integers(min_value=1, max_value=96), min_size=2, max_size=5, unique=True))
    ys1 = data.draw(st.lists(st.integers(min_value=0, max_value=96), min_size=len(xs), max_size=len(xs)))
    ys2 = data.draw(st.lists(st.integers(min_value=0, max_value=96), min_size=len(xs), max_size=len(xs)))
    lhs = interpolate(xs, [(a + b) % m for a, b in zip(ys1, ys2)], m)
    rhs = tuple((a + b) % m for a, b in zip(interpolate(xs, ys1, m), interpolate(xs, ys2, m)))
    assert lhs == rhs


class TestLagrangeBasis:
    def test_pinned_for_two_points(self):
        # through (1, y1) and (2, y2) mod 11: b0 = 2*y1 - y2, b1 = y2 - y1,
        # so L_1 = 2 - x and L_2 = x - 1
        assert [interpolate((1, 2), unit, 11) for unit in units(2)] == [(2, 10), (10, 1)]

    def test_rejects_the_abscissas_lagrange_weights_rejects(self):
        with pytest.raises(VsslabError, match="abscissa 0 would address the secret itself"):
            interpolate((0, 1), (1, 0), 11)
        with pytest.raises(VsslabError, match="abscissa 1 appears twice"):
            interpolate((1, 1), (1, 0), 11)
        with pytest.raises(ValueError):
            interpolate((1, 11), (1, 0), 11)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_basis_recovers_every_coefficient(data):
    m = data.draw(st.sampled_from([11, 23, 97, 65537, 2**61 - 1]))
    t = data.draw(st.integers(min_value=1, max_value=6))
    xs = data.draw(st.lists(st.integers(min_value=1, max_value=min(m - 1, 200)),
                            min_size=t, max_size=t, unique=True))
    p = sample_polynomial(t, m, SplitMix64(data.draw(st.integers(0, 2**64 - 1))))
    ys = [exact_value(p, x) % m for x in xs]
    assert interpolate(xs, ys, m) == p
    assert evaluate(p, xs, m) == tuple(exact_value(p, x) for x in xs)
    # L_i is 1 at x_i and 0 at the other abscissas, and L_i(0) is weight i
    columns = [interpolate(xs, unit, m) for unit in units(t)]
    for column, unit in zip(columns, units(t)):
        assert tuple(exact_value(column, x) % m for x in xs) == unit
    assert tuple(column[0] for column in columns) == lagrange_weights(xs, m)


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
    assert evaluate(coeffs, xs, m) == tuple(exact_value(coeffs, x) for x in xs)
    assert evaluate(coeffs, xs, m, True) == tuple(exact_value(coeffs, x) % m for x in xs)
    # ordinates as large as exact vulnerable shares: residue plus a
    # multiple of m up to the largest value of a degree t - 1 polynomial
    xs = xs[:t] if len(xs) >= t else data.draw(
        st.lists(st.integers(1, top), min_size=t, max_size=t, unique=True))
    size = sum(top**j for j in range(t))
    ys = [data.draw(element) + m * data.draw(st.integers(0, size)) for _ in xs]
    # the one polynomial of degree below t through the t points
    b = interpolate(xs, ys, m)
    assert len(b) == t and all(0 <= c < m for c in b)
    assert [exact_value(b, x) % m for x in xs] == [y % m for y in ys]


def test_evaluate_is_exact_at_the_widest_admitted_row():
    # t = n = MAX_PARTIES over a 96-bit field, every coefficient m - 1:
    # the widest slot a ceremony evaluates
    xs = range(1, MAX_PARTIES + 1)
    coeffs = [P96 - 1] * MAX_PARTIES
    assert evaluate(coeffs, xs, P96) == tuple(exact_value(coeffs, x) for x in xs)


@pytest.fixture(scope="module")
def hardened_fields():
    """The field moduli q of h64, p23q11 and a generated 96-bit hardened group."""
    return {"h64": get_params("h64").q, "p23q11": get_params("p23q11").q,
            "gen96": gen_params(96, Mode.HARDENED, SplitMix64(5)).q}


@pytest.mark.parametrize("name", ["h64", "p23q11", "gen96"])
@pytest.mark.parametrize("extreme", [True, False], ids=["all-top", "drawn"])
def test_in_field_evaluation_is_exact_evaluation_reduced(hardened_fields, name, extreme):
    # t = n = MAX_PARTIES, the widest row a hardened ceremony deals, at
    # every party, and at the other recipients of a pool past its first t
    q = hardened_fields[name]
    coeffs = ((q - 1,) * MAX_PARTIES if extreme
              else sample_polynomial(MAX_PARTIES, q, SplitMix64(MAX_PARTIES)))
    for xs in (range(1, MAX_PARTIES + 1), (7, 9, 12, 33, 40, 63, 64)):
        assert evaluate(coeffs, xs, q, True) == tuple(exact_value(coeffs, x) % q for x in xs)


# lagrange_weights and interpolate cache their tables, and evaluate its
# rows; a cached table or row must be the one a fresh computation gives,
# whatever iterable the abscissas came in, and a refused abscissa set is
# refused every time
_AS_ITERABLE = st.sampled_from([list, tuple, iter])


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_cached_tables_equal_a_fresh_computation(data):
    m = data.draw(st.sampled_from([11, 97, 2**61 - 1]))
    xs = data.draw(st.lists(st.integers(min_value=1, max_value=min(m - 1, 40)),
                            min_size=1, max_size=6, unique=True))
    coeffs = data.draw(st.lists(st.integers(min_value=0, max_value=m - 1),
                                min_size=1, max_size=6))
    weights_fresh = _lagrange_weights.__wrapped__(tuple(xs), m)
    packed_fresh = _packed_basis.__wrapped__(tuple(xs), m)
    rows_fresh = {in_field: _row.__wrapped__(tuple(coeffs), tuple(xs), m, in_field)
                  for in_field in (False, True)}
    for _ in range(2):
        for in_field, row_fresh in rows_fresh.items():
            row = evaluate(coeffs, data.draw(_AS_ITERABLE)(xs), m, in_field)
            assert row == row_fresh
            assert type(row) is tuple and all(type(v) is int for v in row)
        weights = lagrange_weights(data.draw(_AS_ITERABLE)(xs), m)
        # the coefficient form's constant terms are the weights at zero
        columns = [interpolate(data.draw(_AS_ITERABLE)(xs), unit, m) for unit in units(len(xs))]
        assert weights == weights_fresh
        assert tuple(column[0] for column in columns) == weights_fresh
        assert _packed_basis(tuple(xs), m) == packed_fresh
        assert type(weights) is tuple and all(type(w) is int for w in weights)
        assert all(type(column) is tuple for column in columns)
        assert all(type(c) is int for column in columns for c in column)


# evaluate records the coefficients of each row it computes, and
# dealt_coefficients gives them back for the row, its abscissas and its
# degree bound t: the polynomial interpolate would rebuild from the
# row's first t values
@given(st.data())
@settings(max_examples=150, deadline=None)
def test_dealt_coefficients_are_the_interpolated_ones(data):
    _row.cache_clear()
    _dealt.clear()
    m = data.draw(st.sampled_from([11, 97, 2**61 - 1, P96]))
    xs = tuple(data.draw(st.lists(st.integers(min_value=1, max_value=min(m - 1, 40)),
                                  min_size=1, max_size=8, unique=True)))
    coeffs = tuple(data.draw(st.lists(st.integers(min_value=0, max_value=m - 1),
                                      min_size=1, max_size=len(xs))))
    in_field = data.draw(st.booleans())
    row = evaluate(coeffs, xs, m, in_field)
    for t in range(1, len(xs) + 1):
        for form in (False, True):
            answer = dealt_coefficients(row, xs, m, form, t)
            # a row dealt at another t, or in the other form, misses
            assert (answer is not None) == ((t, form) == (len(coeffs), in_field))
            if answer is not None:
                assert answer == interpolate(xs[:t], row[:t], m) == coeffs


def test_the_dealt_coefficients_keep_a_row_per_party():
    _row.cache_clear()
    _dealt.clear()
    xs, m = (1, 2, 3), 97
    rows = [evaluate((c, 1, 2), xs, m) for c in range(MAX_PARTIES + 5)]
    assert len(_dealt) == MAX_PARTIES
    # the oldest rows are evicted first
    assert [dealt_coefficients(row, xs, m, False, 3) for row in rows[:5]] == [None] * 5
    assert [dealt_coefficients(row, xs, m, False, 3) for row in rows[5:]] == [
        (c, 1, 2) for c in range(5, MAX_PARTIES + 5)]


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
    for _ in range(3):
        with pytest.raises(VsslabError, match=message):
            lagrange_weights(data.draw(_AS_ITERABLE)(xs), m)
        with pytest.raises(VsslabError, match=message):
            interpolate(data.draw(_AS_ITERABLE)(xs), [1] * len(xs), m)
