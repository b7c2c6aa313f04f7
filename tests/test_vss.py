"""Commitments and share verification.

The central fact under test: verification accepts a candidate value v for
recipient k exactly when v is congruent to the honest evaluation modulo the
generator's multiplicative order. Everything else here hangs off that law.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsslab.errors import TooLarge, VsslabError
from vsslab.numtheory import Mode, gen_params
from vsslab.poly import sample_polynomial
from vsslab.registry import get_params
from vsslab.rng import SplitMix64
from vsslab.vss import (
    INTEGER_COMMITMENT_GUARD_BITS,
    PROJECTION_EXPONENT_LOG2,
    CommitmentVector,
    aggregate_public_key,
    commit,
    commit_integer,
    commitment_in_group,
    projected_bit_length,
    verify_row,
    verify_share,
)

from conftest import per_share
from reference_model import exact_value, honest_share


def naive_verify(value, poly, k, params):
    """Exponent-side oracle with no modular reduction shortcuts.

    Computes g**value and g**P(k) as exact integers reduced only at the
    very end, so it cannot share a bug with the production code path.
    """
    honest = exact_value(poly, k)
    if value < 0:
        return False
    return pow(params.g, value, params.p) == pow(params.g, honest, params.p)


class TestCommit:
    def test_worked_example(self, small11):
        vec = commit((3, 4), small11)
        assert vec.c == (8, 5)  # 2^3=8, 2^4=16=5 mod 11

    def test_second_example(self, p23order11):
        assert commit((5, 7), p23order11).c == (9, 13)

    def test_a_coefficient_at_p_is_rejected(self, small11):
        with pytest.raises(VsslabError, match=r"\(3, 11\) do not all lie in Z_11 of vulnerable"):
            commit((3, 11), small11)

    def test_a_coefficient_at_q_is_rejected_when_hardened(self, p23q11):
        # below p = 23, but the hardened field is Z_q = Z_11
        with pytest.raises(VsslabError, match=r"\(11, 4\) do not all lie in Z_11 of hardened"):
            commit((11, 4), p23q11)

    def test_a_negative_coefficient_is_rejected(self, small11):
        with pytest.raises(VsslabError, match=r"\(3, -1\) do not all lie in Z_11"):
            commit((3, -1), small11)

    def test_hardened_commitments_come_from_exponents_below_q(self, p23q11):
        vec = commit((3, 4), p23q11)
        assert vec.c == (pow(2, 3, 23), pow(2, 4, 23))
        assert commitment_in_group(vec, p23q11)


class TestVerifyShare:
    def test_honest_share_accepted(self, small11):
        commits = commit((3, 4), small11)
        assert verify_share(2, 11, commits, small11)

    def test_forged_share_accepted(self, small11):
        # 21 = 11 + (p-1): same exponent class, different field element
        commits = commit((3, 4), small11)
        assert verify_share(2, 21, commits, small11)

    def test_off_by_one_rejected(self, small11):
        commits = commit((3, 4), small11)
        assert not verify_share(2, 12, commits, small11)

    def test_recipient_outside_field_rejected(self, small11):
        commits = commit((3, 4), small11)
        with pytest.raises(ValueError):
            verify_share(0, 3, commits, small11)
        with pytest.raises(ValueError):
            verify_share(11, 3, commits, small11)

    def test_congruence_law_exhaustive_p11(self, small11):
        # every candidate in [0, 50) against every recipient: acceptance
        # must equal congruence with P(k) modulo d = 10, no exceptions
        poly = (3, 4)
        commits = commit(poly, small11)
        for k in range(1, 11):
            honest = exact_value(poly, k)
            for v in range(0, 50):
                got = verify_share(k, v, commits, small11)
                assert got == (v % 10 == honest % 10), (k, v)
                assert got == naive_verify(v, poly, k, small11)

    def test_congruence_law_when_order_is_a_proper_divisor(self, p23order11):
        # d = 11 while p - 1 = 22: acceptance tracks mod 11, not mod 22
        poly = (5, 7)
        commits = commit(poly, p23order11)
        for k in range(1, 23):
            honest = exact_value(poly, k)
            for v in range(0, 100):
                got = verify_share(k, v, commits, p23order11)
                assert got == (v % 11 == honest % 11), (k, v)

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=200, deadline=None)
    def test_congruence_law_randomized(self, seed, candidate):
        params = gen_params(16, Mode.VULNERABLE, SplitMix64(seed))
        poly = sample_polynomial(3, params.p, SplitMix64(seed ^ 1))
        commits = commit(poly, params)
        k = 1 + seed % (params.p - 1)
        honest = exact_value(poly, k)
        got = verify_share(k, candidate, commits, params)
        assert got == (candidate % params.d == honest % params.d)

    def test_entry_outside_the_subgroup_is_not_reduced(self, p23order11):
        # 22 = -1 mod 23 lies outside the order-11 subgroup of g = 2. At
        # k = 11 the true product is 22**11 = 22, which no g**v reaches;
        # reducing the exponent 11 mod d would give 22**0 = 1 = g**0
        commits = CommitmentVector((1, 22))
        assert direct_product(commits, 11, 23) == 22
        assert mod_d_product(commits, 11, p23order11) == 1
        for v in range(22):
            assert not verify_share(11, v, commits, p23order11)

    def test_honest_shares_always_verify_randomized(self):
        for seed in range(120):
            params = gen_params(20, Mode.VULNERABLE, SplitMix64(seed))
            poly = sample_polynomial(3, params.p, SplitMix64(seed + 7))
            commits = commit(poly, params)
            for k in range(1, 6):
                assert verify_share(k, exact_value(poly, k), commits, params)


def direct_product(commits, k, p):
    """prod_j c_j ** (k**j) mod p with the exponents k**j left unreduced."""
    out = 1
    for j, c_j in enumerate(commits.c):
        out = out * pow(c_j, k**j, p) % p
    return out


def mod_d_product(commits, k, params):
    """The same product with each exponent k**j reduced mod d = ord(g),
    which equals it only for entries inside the subgroup of g."""
    out = 1
    for j, c_j in enumerate(commits.c):
        out = out * pow(c_j, pow(k, j, params.d), params.p) % params.p
    return out


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_verification_matches_the_direct_product(data):
    # the check equals g**(v mod d) == prod_j c_j**(k**j) for any entries
    # mod p, including 0 and elements outside the subgroup of g
    name = data.draw(st.sampled_from(["small11", "p23order11", "p23q11"]), label="params")
    params = get_params(name)
    p, g, d = params.p, params.g, params.d
    in_group = data.draw(st.booleans(), label="in_group")
    size = data.draw(st.integers(min_value=1, max_value=6), label="size")
    if in_group:
        exponents = data.draw(st.lists(st.integers(0, d - 1), min_size=size, max_size=size))
        entries = [pow(g, a, p) for a in exponents]
    else:
        entries = data.draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size))
    commits = CommitmentVector(tuple(entries))
    k = data.draw(st.integers(min_value=1, max_value=p - 1), label="k")
    expected = direct_product(commits, k, p)
    if in_group:
        assert expected == mod_d_product(commits, k, params)
    for v in range(2 * d):
        got = verify_share(k, v, commits, params)
        assert got == (pow(g, v, p) == expected), (entries, k, v)


class TestHardened:
    def test_honest_hardened_shares_verify(self, p23q11):
        poly = (3, 4)
        commits = commit(poly, p23q11)
        for k in range(1, 6):
            assert verify_share(k, exact_value(poly, k) % 11, commits, p23q11)

    def test_exactly_one_value_below_q_is_accepted(self, p23q11):
        # soundness scan: for every recipient the accepted set in [0, q)
        # is the single honest evaluation
        poly = (3, 4)
        commits = commit(poly, p23q11)
        for k in range(1, 6):
            honest = exact_value(poly, k) % 11
            accepted = [
                v
                for v in range(0, 11)
                if verify_share(k, v, commits, p23q11)
            ]
            assert accepted == [honest]

    def test_commitment_in_group_flags_outside_elements(self, p23q11):
        good = CommitmentVector((pow(2, 3, 23), pow(2, 4, 23)))
        assert commitment_in_group(good, p23q11)
        # 5 generates the full group mod 23, so it is not in the order-11 subgroup
        bad = CommitmentVector((pow(2, 3, 23), 5))
        assert not commitment_in_group(bad, p23q11)


class TestVerifyRow:
    def test_honest_row_needs_no_per_share_check(self, share_checks, small11):
        commits = commit((3, 4, 5), small11)
        # P(k) for k = 1..3; P(4) + 1 fails, P(5) + 2 * (p - 1) passes
        values = [12, 31, 60, 99 + 1, 148 + 20]
        assert verify_row(values, commits, small11) == (True, True, True, False, True)
        assert share_checks == []

    def test_a_forged_share_among_the_first_t_sends_the_row_to_verify_share(
            self, share_checks, small11):
        commits = commit((3, 4, 5), small11)
        values = [12, 31 + 10, 60, 99 + 1]
        assert verify_row(values, commits, small11) == (True, True, True, False)
        assert share_checks == [(commits, k) for k in (1, 2, 3, 4)]

    @pytest.mark.parametrize("length, message", [
        (2, "a row of 2 shares is shorter than the threshold 3"),
        # party 11 is past the t interpolation points, where only the
        # row's own check sees it
        (11, r"abscissa 11 outside \(0, 11\)"),
    ], ids=["short", "at-p"])
    def test_short_and_too_long_rows_are_refused(self, share_checks, small11, length, message):
        poly = (3, 4, 5)
        values = [exact_value(poly, k) for k in range(1, length + 1)]
        with pytest.raises(VsslabError, match=message):
            verify_row(values, commit(poly, small11), small11)
        assert share_checks == []

    def test_hardened_row_keeps_the_range_check(self, share_checks, p23q11):
        poly = (3, 4)
        values = [exact_value(poly, k) % 11 for k in (1, 2, 3)]
        values.append(exact_value(poly, 4) % 11 + 11)
        commits = commit(poly, p23q11)
        assert verify_row(values, commits, p23q11) == (True, True, True, False)
        assert share_checks == []
        # an entry outside the subgroup misses g**b_j, and the fallback
        # rejects the whole row
        bad = CommitmentVector((commits.c[0], commits.c[1] * 22 % 23))
        assert verify_row(values, bad, p23q11) == (False,) * 4

    @pytest.mark.parametrize("first", [7, 8], ids=["row-check", "per-share"])
    def test_the_range_bound_is_q(self, share_checks, p23q11, first):
        # P = 3 + 4x is 7 at party 1, 0 at party 2, 1 at party 5 and
        # 10 = q - 1 at party 10, mod 11
        poly = (3, 4)
        values = [exact_value(poly, k) % 11 for k in range(1, 11)]
        assert (values[0], values[1], values[4], values[9]) == (7, 0, 1, 10)
        # 8 misses P(1), so the row check fails and every share is checked alone
        values[0] = first
        values[1] += 11  # q, the honest value's exponent class
        values[4] += 11  # q + 1, likewise
        expected = [first == 7] + [True] * 9
        expected[1] = expected[4] = False
        commits = commit(poly, p23q11)
        assert verify_row(values, commits, p23q11) == tuple(expected)
        # the range rule decides q and q + 1 before any verify_share
        assert share_checks == ([] if first == 7 else
                                [(commits, k) for k in range(1, 11) if k not in (2, 5)])

    @pytest.mark.parametrize("name", ["v64", "h64"])
    def test_a_row_that_passes_its_row_check_checks_its_values_once(
            self, monkeypatch, share_checks, name):
        import vsslab.vss as vss

        calls = []
        original = vss.check_values

        def counting(values):
            calls.append(tuple(values))
            return original(values)

        monkeypatch.setattr(vss, "check_values", counting)
        params = get_params(name)
        poly = sample_polynomial(3, params.field_modulus, SplitMix64(3))
        values = [honest_share(poly, k, params) for k in range(1, 8)]
        if params.q is not None:
            values[5] += params.q
        assert verify_row(values, commit(poly, params), params) == (
            (True,) * 5 + (params.q is None, True))
        assert calls == [tuple(values)]
        assert share_checks == []


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_verify_row_matches_the_per_share_checks(data):
    params = get_params(data.draw(st.sampled_from(
        ["small11", "p23order11", "p23q11", "h32", "v64", "h64"])))
    t = data.draw(st.integers(min_value=1, max_value=4))
    poly = sample_polynomial(t, params.field_modulus,
                             SplitMix64(data.draw(st.integers(0, 2**64 - 1))))
    # a row of exactly t shares is all interpolation points, none evaluated
    length = data.draw(st.integers(0, 7) | st.just(t))
    values = []
    for k in range(1, length + 1):
        honest = honest_share(poly, k, params)
        shift = data.draw(st.sampled_from([0, 0, 1, params.d, params.p - 1, params.field_modulus]))
        values.append(honest + shift)
    if length < t:
        with pytest.raises(VsslabError, match="shorter than the threshold"):
            verify_row(values, commit(poly, params), params)
    else:
        assert verify_row(values, commit(poly, params), params) == per_share(
            values, commit(poly, params), params)


class TestRowEvaluations:
    """How a row that passes its row check is evaluated at Q."""

    @pytest.fixture
    def evaluated(self, monkeypatch):
        """(abscissas, in_field) of every evaluate call verify_row makes, in order."""
        import vsslab.vss as vss

        calls = []
        original = vss.evaluate

        def counting(coeffs, xs, m, in_field=False):
            xs = tuple(xs)
            calls.append((xs, in_field))
            return original(coeffs, xs, m, in_field)

        monkeypatch.setattr(vss, "evaluate", counting)
        return calls

    @pytest.mark.parametrize("name, t, in_field", [
        # hardened: Q(k) mod q, the residue a hardened dealer sends
        ("h64", 3, True),
        ("h64", 7, True),
        # vulnerable: Q(k) exactly, the integer a vulnerable dealer sends
        ("v64", 3, False),
        ("v64", 7, False),
    ])
    def test_an_honest_row_is_evaluated_at_every_party_in_its_modes_form(
            self, evaluated, share_checks, name, t, in_field):
        params = get_params(name)
        poly = sample_polynomial(t, params.field_modulus, SplitMix64(t))
        values = [honest_share(poly, k, params) for k in range(1, 8)]
        assert verify_row(values, commit(poly, params), params) == (True,) * 7
        assert evaluated == [((1, 2, 3, 4, 5, 6, 7), in_field)]
        assert share_checks == []

    def test_the_range_check_runs_on_the_interpolation_points(self, evaluated):
        params = get_params("h64")
        poly = sample_polynomial(3, params.field_modulus, SplitMix64(3))
        values = [honest_share(poly, k, params) for k in range(1, 6)]
        # shifted by q: the same residue, so the row check passes, but
        # out of range, so unequal to Q(2) mod q
        values[1] += params.q
        assert verify_row(values, commit(poly, params), params) == (
            True, False, True, True, True)
        assert evaluated == [((1, 2, 3, 4, 5), True)]

    def test_a_false_share_row_falls_back_to_verify_share(self, evaluated, share_checks):
        params = get_params("v64")
        poly = sample_polynomial(3, params.field_modulus, SplitMix64(3))
        # the false-share dealer's shift: congruent mod d = p - 1, so every
        # share passes, but Q through the first t misses the commitments
        values = [exact_value(poly, k) + params.p - 1 for k in range(1, 8)]
        commits = commit(poly, params)
        assert verify_row(values, commits, params) == (True,) * 7
        assert evaluated == []
        assert share_checks == [(commits, k) for k in range(1, 8)]


class TestAggregatePublicKey:
    def test_worked_example(self, small11):
        vec_a = commit((3, 4), small11)
        vec_b = commit((0, 2), small11)
        # 2^3 * 2^0 = 8; joint secret 3 + 0 = 3, and 2^3 = 8 mod 11
        assert aggregate_public_key([vec_a, vec_b], small11) == 8

    def test_matches_generator_to_the_sum_of_secrets(self, small11):
        polys = [sample_polynomial(3, 11, SplitMix64(d)) for d in range(1, 6)]
        vecs = [commit(p, small11) for p in polys]
        x = sum(p[0] for p in polys) % 10
        assert aggregate_public_key(vecs, small11) == pow(2, x, 11)

    def test_empty_input_rejected(self, small11):
        with pytest.raises(VsslabError, match="no commitment vectors supplied"):
            aggregate_public_key([], small11)


class TestIntegerCommitments:
    def test_small_exponents_execute_exactly(self):
        values = commit_integer((0, 1, 2, 16), g=2)
        assert values == (1, 2, 4, 65536)
        assert [v.bit_length() for v in values] == [1, 2, 3, 17]
        assert projected_bit_length(2, 1 << PROJECTION_EXPONENT_LOG2) > (
            INTEGER_COMMITMENT_GUARD_BITS)

    def test_bit_length_law_for_powers_of_two(self):
        # bitlen(2^a) = a + 1, checked on a spread of exponents
        exps = [0, 1, 2, 3, 10, 100, 1000, 4096]
        values = commit_integer(exps, g=2)
        for a, v in zip(exps, values):
            assert v == 2**a
            assert v.bit_length() == a + 1

    def test_guard_rejects_infeasible_exponent(self):
        # g = 2 and a just beyond the guard: 2**a would exceed the bit budget
        with pytest.raises(TooLarge):
            commit_integer((INTEGER_COMMITMENT_GUARD_BITS + 1,), g=2)

    def test_the_guard_admits_every_value_of_at_most_its_bits(self):
        # 2**(2**20 - 1) has exactly 2**20 bits, the guard itself
        (value,) = commit_integer((INTEGER_COMMITMENT_GUARD_BITS - 1,), g=2)
        assert value.bit_length() == INTEGER_COMMITMENT_GUARD_BITS

    def test_the_refusal_names_the_bits_the_value_would_have(self):
        with pytest.raises(TooLarge, match="exponent 1048576 would need about 1048577 bits, "
                                           "over the 1048576-bit guard"):
            commit_integer((INTEGER_COMMITMENT_GUARD_BITS,), g=2)
        # 3**700000 has 1,109,474 bits
        with pytest.raises(TooLarge, match="about 1109474 bits,"):
            commit_integer((700_000,), g=3)

    def test_negative_exponents_and_small_generators_are_refused(self):
        with pytest.raises(ValueError, match="negative"):
            commit_integer((3, -1), g=2)
        with pytest.raises(ValueError, match="at least 2"):
            commit_integer((3,), g=1)
        for g, a in ((1, 3), (2, -1)):
            with pytest.raises(VsslabError, match="need g >= 2 and a >= 0"):
                projected_bit_length(g, a)

    def test_projection_row_describes_a_1024_bit_field(self):
        assert PROJECTION_EXPONENT_LOG2 == 1024
        projected = projected_bit_length(2, 1 << PROJECTION_EXPONENT_LOG2)
        # bitlen(2^(2^1024)) = 2^1024 + 1
        assert projected == 2**1024 + 1
        assert projected > INTEGER_COMMITMENT_GUARD_BITS

    def test_projection_uses_exact_log_for_general_g(self):
        projected = projected_bit_length(3, 1 << PROJECTION_EXPONENT_LOG2)
        # sanity: 3^(2^1024) has about 1.585 * 2^1024 bits
        assert projected > 2**1024
        assert projected < 2**1025
