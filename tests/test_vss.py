"""Commitments and share verification.

The central fact under test: verification accepts a candidate value v for
recipient k exactly when v is congruent to the honest evaluation modulo the
generator's multiplicative order. Everything else here hangs off that law.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsslab.errors import DealerMismatch, EmptyInput, ModeMismatch, TooLarge, WrongMode
from vsslab.numtheory import Mode, gen_params
from vsslab.poly import (
    SecretPolynomial,
    eval_integer,
    eval_mod,
    lagrange_basis,
    sample_polynomial,
)
from vsslab.registry import get_params
from vsslab.rng import SplitMix64
from vsslab.vss import (
    INTEGER_COMMITMENT_GUARD_BITS,
    CommitmentVector,
    Share,
    aggregate_public_key,
    commit,
    commit_integer,
    commitment_in_group,
    range_check,
    verify_row,
    verify_share,
)


def mkpoly(coeffs, m, dealer=1):
    return SecretPolynomial(dealer=dealer, coeffs=tuple(coeffs), field_modulus=m)


def naive_verify(value, poly, k, params):
    """Exponent-side oracle with no modular reduction shortcuts.

    Computes g**value and g**P(k) as exact integers reduced only at the
    very end, so it cannot share a bug with the production code path.
    """
    honest = eval_integer(poly, k)
    if value < 0:
        return False
    return pow(params.g, value, params.p) == pow(params.g, honest, params.p)


class TestCommit:
    def test_worked_example(self, small11):
        vec = commit(mkpoly([3, 4], 11), small11)
        assert vec.c == (8, 5)  # 2^3=8, 2^4=16=5 mod 11
        assert vec.dealer == 1

    def test_second_example(self, p23order11):
        assert commit(mkpoly([5, 7], 23), p23order11).c == (9, 13)

    def test_field_mismatch_rejected(self, small11):
        with pytest.raises(ModeMismatch):
            commit(mkpoly([3, 4], 23), small11)

    def test_hardened_commitments_come_from_exponents_below_q(self, p23q11):
        vec = commit(mkpoly([3, 4], 11), p23q11)
        assert vec.c == (pow(2, 3, 23), pow(2, 4, 23))
        assert commitment_in_group(vec, p23q11)


class TestVerifyShare:
    def test_honest_share_accepted(self, small11):
        commits = commit(mkpoly([3, 4], 11), small11)
        assert verify_share(Share(dealer=1, recipient=2, value=11), commits, small11)

    def test_forged_share_accepted(self, small11):
        # 21 = 11 + (p-1): same exponent class, different field element
        commits = commit(mkpoly([3, 4], 11), small11)
        assert verify_share(Share(dealer=1, recipient=2, value=21), commits, small11)

    def test_off_by_one_rejected(self, small11):
        commits = commit(mkpoly([3, 4], 11), small11)
        assert not verify_share(Share(dealer=1, recipient=2, value=12), commits, small11)

    def test_dealer_mismatch_raises(self, small11):
        commits = commit(mkpoly([3, 4], 11), small11)
        with pytest.raises(DealerMismatch):
            verify_share(Share(dealer=2, recipient=2, value=11), commits, small11)

    def test_recipient_outside_field_rejected(self, small11):
        commits = commit(mkpoly([3, 4], 11), small11)
        with pytest.raises(ValueError):
            verify_share(Share(dealer=1, recipient=0, value=3), commits, small11)
        with pytest.raises(ValueError):
            verify_share(Share(dealer=1, recipient=11, value=3), commits, small11)

    def test_congruence_law_exhaustive_p11(self, small11):
        # every candidate in [0, 50) against every recipient: acceptance
        # must equal congruence with P(k) modulo d = 10, no exceptions
        poly = mkpoly([3, 4], 11)
        commits = commit(poly, small11)
        for k in range(1, 11):
            honest = eval_integer(poly, k)
            for v in range(0, 50):
                got = verify_share(Share(dealer=1, recipient=k, value=v), commits, small11)
                assert got == (v % 10 == honest % 10), (k, v)
                assert got == naive_verify(v, poly, k, small11)

    def test_congruence_law_when_order_is_a_proper_divisor(self, p23order11):
        # d = 11 while p - 1 = 22: acceptance tracks mod 11, not mod 22
        poly = mkpoly([5, 7], 23)
        commits = commit(poly, p23order11)
        for k in range(1, 23):
            honest = eval_integer(poly, k)
            for v in range(0, 100):
                got = verify_share(Share(dealer=1, recipient=k, value=v), commits, p23order11)
                assert got == (v % 11 == honest % 11), (k, v)

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=200, deadline=None)
    def test_congruence_law_randomized(self, seed, candidate):
        params = gen_params(16, Mode.VULNERABLE, SplitMix64(seed))
        poly = sample_polynomial(3, params.p, 1, SplitMix64(seed ^ 1))
        commits = commit(poly, params)
        k = 1 + seed % (params.p - 1)
        honest = eval_integer(poly, k)
        got = verify_share(Share(dealer=1, recipient=k, value=candidate), commits, params)
        assert got == (candidate % params.d == honest % params.d)

    def test_entry_outside_the_subgroup_is_not_reduced(self, p23order11):
        # 22 = -1 mod 23 lies outside the order-11 subgroup of g = 2. At
        # k = 11 the true product is 22**11 = 22, which no g**v reaches;
        # reducing the exponent 11 mod d would give 22**0 = 1 = g**0
        commits = CommitmentVector(dealer=1, c=(1, 22))
        assert direct_product(commits, 11, 23) == 22
        assert mod_d_product(commits, 11, p23order11) == 1
        for v in range(22):
            assert not verify_share(Share(dealer=1, recipient=11, value=v), commits, p23order11)

    def test_honest_shares_always_verify_randomized(self):
        for seed in range(120):
            params = gen_params(20, Mode.VULNERABLE, SplitMix64(seed))
            poly = sample_polynomial(3, params.p, 1, SplitMix64(seed + 7))
            commits = commit(poly, params)
            for k in range(1, 6):
                share = Share(dealer=1, recipient=k, value=eval_integer(poly, k))
                assert verify_share(share, commits, params)


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
    commits = CommitmentVector(dealer=1, c=tuple(entries))
    k = data.draw(st.integers(min_value=1, max_value=p - 1), label="k")
    expected = direct_product(commits, k, p)
    if in_group:
        assert expected == mod_d_product(commits, k, params)
    for v in range(2 * d):
        got = verify_share(Share(dealer=1, recipient=k, value=v), commits, params)
        assert got == (pow(g, v, p) == expected), (entries, k, v)


class TestHardened:
    def test_honest_hardened_shares_verify(self, p23q11):
        poly = mkpoly([3, 4], 11)
        commits = commit(poly, p23q11)
        for k in range(1, 6):
            share = Share(dealer=1, recipient=k, value=eval_mod(poly, k, 11))
            assert range_check(share, p23q11)
            assert verify_share(share, commits, p23q11)

    def test_exactly_one_value_below_q_is_accepted(self, p23q11):
        # soundness scan: for every recipient the accepted set in [0, q)
        # is the single honest evaluation
        poly = mkpoly([3, 4], 11)
        commits = commit(poly, p23q11)
        for k in range(1, 6):
            honest = eval_mod(poly, k, 11)
            accepted = [
                v
                for v in range(0, 11)
                if verify_share(Share(dealer=1, recipient=k, value=v), commits, p23q11)
            ]
            assert accepted == [honest]

    def test_range_check_rejects_values_at_or_above_q(self, p23q11):
        assert not range_check(Share(dealer=1, recipient=2, value=11), p23q11)
        assert not range_check(Share(dealer=1, recipient=2, value=12), p23q11)
        assert range_check(Share(dealer=1, recipient=2, value=10), p23q11)

    def test_range_check_is_hardened_only(self, small11):
        with pytest.raises(WrongMode):
            range_check(Share(dealer=1, recipient=2, value=3), small11)

    def test_commitment_in_group_flags_outside_elements(self, p23q11):
        good = CommitmentVector(dealer=1, c=(pow(2, 3, 23), pow(2, 4, 23)))
        assert commitment_in_group(good, p23q11)
        # 5 generates the full group mod 23, so it is not in the order-11 subgroup
        bad = CommitmentVector(dealer=1, c=(pow(2, 3, 23), 5))
        assert not commitment_in_group(bad, p23q11)


def per_share(shares, commits, params):
    """The row verdicts as the per-share checks give them."""
    hardened = params.mode is Mode.HARDENED
    return tuple(
        (not hardened or (commitment_in_group(commits, params) and range_check(s, params)))
        and verify_share(s, commits, params)
        for s in shares
    )


class TestVerifyRow:
    def test_honest_row_needs_no_per_share_check(self, share_checks, small11):
        commits = commit(mkpoly([3, 4, 5], 11), small11)
        # P(k) for k = 1..3; P(4) + 1 fails, P(5) + 2 * (p - 1) passes
        shares = [Share(1, 1, 12), Share(1, 2, 31), Share(1, 3, 60),
                  Share(1, 4, 99 + 1), Share(1, 5, 148 + 20)]
        assert verify_row(shares, commits, small11) == (True, True, True, False, True)
        assert share_checks == []

    def test_a_forged_share_among_the_first_t_sends_the_row_to_verify_share(
            self, share_checks, small11):
        commits = commit(mkpoly([3, 4, 5], 11), small11)
        shares = [Share(1, 1, 12), Share(1, 2, 31 + 10), Share(1, 3, 60), Share(1, 4, 99 + 1)]
        assert verify_row(shares, commits, small11) == (True, True, True, False)
        assert share_checks == [(1, 1), (1, 2), (1, 3), (1, 4)]

    @pytest.mark.parametrize("recipients", [(1, 2), (1, 2, 1, 3)])
    def test_short_rows_and_repeated_abscissas_use_verify_share(
            self, share_checks, small11, recipients):
        poly = mkpoly([3, 4, 5], 11)
        shares = [Share(1, k, eval_integer(poly, k)) for k in recipients]
        assert verify_row(shares, commit(poly, small11), small11) == (True,) * len(recipients)
        assert len(share_checks) == len(recipients)

    def test_hardened_row_keeps_the_range_check(self, share_checks, p23q11):
        poly = mkpoly([3, 4], 11)
        shares = [Share(1, k, eval_mod(poly, k, 11)) for k in (1, 2, 3)]
        shares.append(Share(1, 4, eval_mod(poly, 4, 11) + 11))
        commits = commit(poly, p23q11)
        assert verify_row(shares, commits, p23q11) == (True, True, True, False)
        assert share_checks == []
        # an entry outside the subgroup misses g**b_j, and the fallback
        # rejects the whole row
        bad = CommitmentVector(dealer=1, c=(commits.c[0], commits.c[1] * 22 % 23))
        assert verify_row(shares, bad, p23q11) == (False,) * 4

    def test_bases_are_read_and_filled(self, small11):
        poly = mkpoly([3, 4], 11)
        commits = commit(poly, small11)
        shares = [Share(1, k, eval_integer(poly, k)) for k in (2, 5, 7)]
        bases = {}
        assert verify_row(shares, commits, small11, bases) == (True,) * 3
        assert bases == {(2, 5): lagrange_basis((2, 5), 11)}
        # a stored basis is used as given: a wrong one proposes wrong
        # coefficients, and the row falls back to the exact verdicts
        bases[(2, 5)] = ((0, 0), (0, 0))
        assert verify_row(shares, commits, small11, bases) == (True,) * 3

    def test_dealer_mismatch_raises(self, small11):
        commits = commit(mkpoly([3, 4], 11), small11)
        with pytest.raises(DealerMismatch):
            verify_row([Share(1, 1, 7), Share(2, 2, 11)], commits, small11)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_verify_row_matches_the_per_share_checks(data):
    params = get_params(data.draw(st.sampled_from(["small11", "p23order11", "p23q11", "h32"])))
    t = data.draw(st.integers(min_value=1, max_value=4))
    poly = sample_polynomial(t, params.field_modulus, 1,
                             SplitMix64(data.draw(st.integers(0, 2**64 - 1))))
    recipients = data.draw(st.lists(st.integers(1, 10), max_size=7))
    shares = []
    for k in recipients:
        honest = eval_mod(poly, k, params.q) if params.q else eval_integer(poly, k)
        shift = data.draw(st.sampled_from([0, 0, 1, params.d, params.p - 1, params.field_modulus]))
        shares.append(Share(1, k, honest + shift))
    assert verify_row(shares, commit(poly, params), params) == per_share(
        shares, commit(poly, params), params)


class TestAggregatePublicKey:
    def test_worked_example(self, small11):
        vec_a = commit(mkpoly([3, 4], 11, dealer=1), small11)
        vec_b = commit(mkpoly([0, 2], 11, dealer=2), small11)
        # 2^3 * 2^0 = 8; joint secret 3 + 0 = 3, and 2^3 = 8 mod 11
        assert aggregate_public_key([vec_a, vec_b], small11) == 8

    def test_matches_generator_to_the_sum_of_secrets(self, small11):
        polys = [sample_polynomial(3, 11, d, SplitMix64(d)) for d in range(1, 6)]
        vecs = [commit(p, small11) for p in polys]
        x = sum(p.secret for p in polys) % 10
        assert aggregate_public_key(vecs, small11) == pow(2, x, 11)

    def test_empty_input_rejected(self, small11):
        with pytest.raises(EmptyInput):
            aggregate_public_key([], small11)


class TestIntegerCommitments:
    def test_small_exponents_execute_exactly(self):
        poly = SecretPolynomial(dealer=1, coeffs=(0, 1, 2, 16), field_modulus=17)
        values, report = commit_integer(poly, g=2)
        assert values == (1, 2, 4, 65536)
        assert [e.bit_length for e in report.entries] == [1, 2, 3, 17]
        assert report.projected.infeasible

    def test_bit_length_law_for_powers_of_two(self):
        # bitlen(2^a) = a + 1, checked on a spread of exponents
        exps = [0, 1, 2, 3, 10, 100, 1000, 4096]
        poly = SecretPolynomial(dealer=1, coeffs=tuple(exps), field_modulus=2**13)
        values, report = commit_integer(poly, g=2)
        for a, v, entry in zip(exps, values, report.entries):
            assert v == 2**a
            assert entry.bit_length == a + 1

    def test_guard_rejects_infeasible_exponent(self):
        # g = 2 and a just beyond the guard: 2**a would exceed the bit budget
        poly = SecretPolynomial(
            dealer=1,
            coeffs=(INTEGER_COMMITMENT_GUARD_BITS + 1,),
            field_modulus=2**21,
        )
        with pytest.raises(TooLarge):
            commit_integer(poly, g=2)

    def test_projection_row_describes_a_1024_bit_field(self):
        poly = SecretPolynomial(dealer=1, coeffs=(3,), field_modulus=11)
        _, report = commit_integer(poly, g=2)
        assert report.projected.exponent_log2 == 1024
        # bitlen(2^(2^1024)) = 2^1024 + 1
        assert report.projected.bit_length == 2**1024 + 1
        assert report.projected.infeasible

    def test_projection_uses_exact_log_for_general_g(self):
        poly = SecretPolynomial(dealer=1, coeffs=(0,), field_modulus=11)
        _, report = commit_integer(poly, g=3)
        # sanity: 3^(2^1024) has about 1.585 * 2^1024 bits
        assert report.projected.bit_length > 2**1024
        assert report.projected.bit_length < 2**1025
