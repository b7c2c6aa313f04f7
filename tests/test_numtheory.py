"""Number theory layer, each routine checked against an independent oracle."""

import hashlib
from functools import lru_cache

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from vsslab.errors import GenerationFailed, InvalidGroupParams, VsslabError
from vsslab.numtheory import (
    GroupParams,
    Mode,
    _WINDOW_BITS,
    _g_row,
    _g_table,
    gen_params,
    is_prime,
    mod_inv,
)
from vsslab.registry import load_registry
from vsslab.rng import SplitMix64

from conftest import brute_order, multiplicative_order

# SHA-256 of the groups test_output_is_pinned_at_every_size generates in
# each mode. The hardened digest predates the safe-prime search both modes
# share and its Fermat sieve, so it pins that hardened output never moved
GENERATION_DIGESTS = {
    Mode.VULNERABLE: "a1d2c4af8465cbfd5ab0dd7dc91c26c6e78a0d72446736aa5e65540ea14f184a",
    Mode.HARDENED: "51da63709dcd7ad42b341eb2a1df11880132311fa435ab8de73b62b96e75d065",
}


class TestModInv:
    def test_pinned_example(self):
        assert mod_inv(4, 11) == 3  # 4*3 = 12 = 1 mod 11

    def test_non_invertible_rejected(self):
        with pytest.raises(VsslabError, match="^6 is not invertible mod 9 "):
            mod_inv(6, 9)
        with pytest.raises(VsslabError, match="^0 is not invertible mod 7 "):
            mod_inv(0, 7)

    def test_modulus_below_two_rejected(self):
        # pow(a, -1, 1) would return 0 rather than refuse
        for m in (1, 0, -5):
            with pytest.raises(VsslabError, match=f"modulus must be at least 2, got {m}"):
                mod_inv(3, m)

    @given(st.integers(min_value=1, max_value=10**18), st.integers(min_value=2, max_value=10**18))
    @settings(max_examples=300, deadline=None)
    def test_product_with_inverse_is_one(self, a, m):
        import math

        if math.gcd(a, m) != 1:
            with pytest.raises(VsslabError, match=f"^{a} is not invertible mod {m} "):
                mod_inv(a, m)
        else:
            inv = mod_inv(a, m)
            assert 0 <= inv < m
            assert a * inv % m == 1


class TestIsPrime:
    def test_exhaustive_below_2000(self):
        def trial(n):
            if n < 2:
                return False
            f = 2
            while f * f <= n:
                if n % f == 0:
                    return False
                f += 1
            return True

        for n in range(0, 2000):
            assert is_prime(n) == trial(n), n

    def test_mersenne_prime_m61(self):
        assert is_prime(2**61 - 1)

    def test_known_composites(self):
        assert not is_prime(2**61 + 1)
        assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
        assert not is_prime(25326001)

    @given(st.integers(min_value=2**64 + 1, max_value=2**70))
    @settings(max_examples=60, deadline=None)
    def test_matches_sympy_above_deterministic_range(self, n):
        # above 2**64 the implementation switches to seeded random rounds
        assert is_prime(n) == sympy.isprime(n)

    @given(st.integers(min_value=0, max_value=2**64))
    @settings(max_examples=200, deadline=None)
    def test_matches_sympy_in_deterministic_range(self, n):
        assert is_prime(n) == sympy.isprime(n)


class TestMultiplicativeOrder:
    """The oracle that the registry and GroupParams tests trust."""

    def test_matches_linear_scan_for_small_primes(self):
        for p in (3, 5, 7, 11, 13, 23):
            for g in range(1, p):
                assert multiplicative_order(g, p) == brute_order(g, p)

    def test_pinned_values(self):
        assert multiplicative_order(2, 11) == 10
        assert multiplicative_order(2, 23) == 11
        assert multiplicative_order(5, 23) == 22

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=100, deadline=None)
    def test_order_divides_group_size(self, offset):
        p = int(sympy.nextprime(3 + offset))
        g = 2 + offset % (p - 3) if p > 3 else 2
        d = multiplicative_order(g, p)
        assert (p - 1) % d == 0
        assert pow(g, d, p) == 1
        # minimality against every proper divisor of d
        for prime in sympy.primefactors(d):
            assert pow(g, d // prime, p) != 1


class TestGroupParams:
    def test_vulnerable_validation_accepts_registry_style_params(self):
        GroupParams(p=11, g=2, d=10, mode=Mode.VULNERABLE).validate((2, 5))
        GroupParams(p=23, g=2, d=11, mode=Mode.VULNERABLE).validate((11,))

    def test_wrong_order_rejected(self):
        with pytest.raises(InvalidGroupParams):
            GroupParams(p=11, g=2, d=5, mode=Mode.VULNERABLE).validate()
        # a multiple of the true order 11 passes g**d == 1 but is not exact
        with pytest.raises(InvalidGroupParams,
                           match=r"claimed order 22 is not exact \(g\*\*\(d/2\) == 1\)"):
            GroupParams(p=23, g=2, d=22, mode=Mode.VULNERABLE).validate((2, 11))

    @pytest.mark.parametrize("mode", list(Mode))
    def test_order_must_divide_p_minus_one(self, mode):
        for d in (3, 0):
            with pytest.raises(InvalidGroupParams,
                               match=f"order {d} does not divide p - 1 = 10"):
                GroupParams(p=11, g=2, d=d, mode=mode).validate()

    def test_hardened_requires_prime_q_matching_d(self):
        GroupParams(p=23, g=2, d=11, mode=Mode.HARDENED).validate()
        # 5 generates all of Z_23*: its exact order 22 is not prime
        GroupParams(p=23, g=5, d=22, mode=Mode.VULNERABLE).validate((2, 11))
        with pytest.raises(InvalidGroupParams, match="not prime"):
            GroupParams(p=23, g=5, d=22, mode=Mode.HARDENED).validate()

    def test_hardened_validation_proves_d_prime_without_factoring_it(self):
        # a hardened d needs no certificate; a vulnerable d cannot go without one
        for p, g, d in ((23, 2, 11), (2488578623, 2247443640, 1244289311)):
            GroupParams(p=p, g=g, d=d, mode=Mode.HARDENED).validate()
        with pytest.raises(InvalidGroupParams, match="hardened order d = 22 is not prime"):
            GroupParams(p=23, g=5, d=22, mode=Mode.HARDENED).validate()
        with pytest.raises(InvalidGroupParams,
                           match="^vulnerable order d = 11 needs the primes of d as its certificate$"):
            GroupParams(p=23, g=2, d=11, mode=Mode.VULNERABLE).validate()

    def test_a_certificate_replaces_factoring(self):
        GroupParams(p=23, g=5, d=22, mode=Mode.VULNERABLE).validate((2, 11))
        GroupParams(p=23, g=2, d=11, mode=Mode.VULNERABLE).validate([11])
        # a certificate is read only as the primes of d, in any order
        GroupParams(p=23, g=5, d=22, mode=Mode.VULNERABLE).validate({11: 1, 2: 1})
        with pytest.raises(InvalidGroupParams,
                           match=r"claimed order 22 is not exact \(g\*\*\(d/2\) == 1\)"):
            GroupParams(p=23, g=2, d=22, mode=Mode.VULNERABLE).validate((2, 11))

    @pytest.mark.parametrize("primes,message", [
        ((2, 4, 11), "certificate factor 4 is not prime"),
        ((2, 1, 11), "certificate factor 1 is not prime"),
        ((2, 3, 11), "certificate prime 3 does not divide what is left of d = 22"),
        ((2,), "certificate leaves 11 of d = 22 unfactored"),
        ((11,), "certificate leaves 2 of d = 22 unfactored"),
        ((), "certificate leaves 22 of d = 22 unfactored"),
        ((2, 11, 2), "certificate prime 2 does not divide what is left of d = 22"),
    ], ids=["composite", "one", "not-a-divisor", "missing-11", "missing-2", "empty",
            "repeated"])
    def test_a_bad_certificate_is_refused(self, primes, message):
        # g = 2 has order 11, not 22: only the prime 2 of d exposes the
        # claim, so a certificate that left it out and were trusted
        # would let the wrong order through
        with pytest.raises(InvalidGroupParams, match=f"^{message}$"):
            GroupParams(p=23, g=2, d=22, mode=Mode.VULNERABLE).validate(primes)

    @given(st.integers(min_value=0, max_value=2**40), st.integers(min_value=0, max_value=2**40))
    @settings(max_examples=100, deadline=None)
    def test_validating_from_factorize_agrees_with_validating_alone(self, offset, g_offset):
        # validating from the primes of d (sympy's factorization) accepts
        # exactly the true order; without them, validation refuses
        p = int(sympy.nextprime(3 + offset))
        g = 2 + g_offset % (p - 2)
        # the true order, and a multiple of it that divides p - 1 when one exists
        true_d = multiplicative_order(g, p)
        for d in {true_d, p - 1}:
            params = GroupParams(p=p, g=g, d=d, mode=Mode.VULNERABLE)
            with pytest.raises(InvalidGroupParams, match="needs the primes of d"):
                params.validate()
            if d == true_d:
                params.validate(sympy.primefactors(d))
            else:
                with pytest.raises(InvalidGroupParams, match=f"^claimed order {d} is not exact "):
                    params.validate(sympy.primefactors(d))

    def test_field_modulus_property(self):
        vuln = GroupParams(p=23, g=2, d=11, mode=Mode.VULNERABLE)
        hard = GroupParams(p=23, g=2, d=11, mode=Mode.HARDENED)
        assert (vuln.field_modulus, vuln.q) == (23, None)
        assert (hard.field_modulus, hard.q) == (11, 11)

    def test_composite_p_rejected(self):
        with pytest.raises(InvalidGroupParams):
            GroupParams(p=15, g=2, d=4, mode=Mode.VULNERABLE).validate()

    def test_generator_outside_range_rejected(self):
        with pytest.raises(InvalidGroupParams):
            GroupParams(p=11, g=1, d=1, mode=Mode.VULNERABLE).validate()
        with pytest.raises(InvalidGroupParams):
            GroupParams(p=11, g=11, d=10, mode=Mode.VULNERABLE).validate()


class TestGenParams:
    @pytest.mark.parametrize("bits", [4, 8, 16, 32])
    def test_vulnerable_params_are_primitive_root_setups(self, bits):
        params = gen_params(bits, Mode.VULNERABLE, SplitMix64(bits))
        assert params.p.bit_length() == bits
        assert is_prime(params.p)
        assert params.d == params.p - 1  # generator is a primitive root
        assert params.q is None
        params.validate(sympy.primefactors(params.d))

    @pytest.mark.parametrize("bits", [4, 8, 16, 32])
    def test_hardened_params_use_safe_primes(self, bits):
        params = gen_params(bits, Mode.HARDENED, SplitMix64(bits + 1000))
        assert params.p.bit_length() == bits
        assert is_prime(params.p) and is_prime(params.q)
        assert params.p == 2 * params.q + 1
        assert params.d == params.q
        assert pow(params.g, params.q, params.p) == 1
        params.validate()

    def test_same_rng_seed_reproduces_params(self):
        a = gen_params(24, Mode.VULNERABLE, SplitMix64(5))
        b = gen_params(24, Mode.VULNERABLE, SplitMix64(5))
        assert a == b

    def test_output_is_pinned_at_every_size(self):
        # every size from 4 to 64 bits, four seeds each, both modes, plus
        # 80- and 96-bit spot checks: a faster search or a validation that
        # reads a certificate must accept exactly the groups it did before
        cases = [(bits, seed) for bits in range(4, 65) for seed in range(4)]
        digests = {}
        for mode in Mode:
            h = hashlib.sha256()
            for bits, seed in cases + [(80, 0), (80, 1), (96, 0), (96, 1)]:
                params = gen_params(bits, mode, SplitMix64(seed))
                h.update(f"{bits} {mode.value} {seed} {params.p} {params.g} {params.d}\n".encode())
            digests[mode] = h.hexdigest()
        assert digests == GENERATION_DIGESTS

    @pytest.mark.parametrize("bits", range(4, 97))
    def test_both_modes_find_one_safe_prime(self, bits):
        # one search serves both modes: at equal seeds they share p =
        # 2q + 1, the vulnerable g is the least primitive root with
        # d = p - 1, and the hardened g generates the order-q squares
        for seed in range(3):
            vulnerable = gen_params(bits, Mode.VULNERABLE, SplitMix64(seed))
            hardened = gen_params(bits, Mode.HARDENED, SplitMix64(seed))
            p = vulnerable.p
            assert hardened.p == p and p.bit_length() == bits
            assert sympy.isprime(p) and sympy.isprime((p - 1) // 2)
            assert vulnerable.g == sympy.primitive_root(p)
            assert vulnerable.d == p - 1
            assert hardened.d == (p - 1) // 2
            with pytest.raises(InvalidGroupParams, match="needs the primes of d"):
                vulnerable.validate()

    def test_bit_length_bounds_enforced(self):
        with pytest.raises(ValueError):
            gen_params(3, Mode.VULNERABLE, SplitMix64(0))
        with pytest.raises(ValueError):
            gen_params(97, Mode.VULNERABLE, SplitMix64(0))

    def test_exhausted_search_raises_generation_failed(self):
        class AllOnes:
            # candidate construction turns this into q=7 -> p=15
            # (composite) at 4 bits, in the search both modes share
            def randbits(self, k):
                return (1 << k) - 1

            def randrange(self, lo, hi):
                return lo

        with pytest.raises(GenerationFailed):
            gen_params(4, Mode.VULNERABLE, AllOnes())
        with pytest.raises(GenerationFailed):
            gen_params(4, Mode.HARDENED, AllOnes())


@lru_cache(maxsize=1)
def table_groups() -> tuple[GroupParams, ...]:
    """Every registry entry, then fresh groups at 32, 64 and 96 bits in both modes."""
    generated = tuple(gen_params(bits, mode, SplitMix64(0))
                      for bits in (32, 64, 96) for mode in Mode)
    return tuple(load_registry().values()) + generated


def table_edges(params: GroupParams) -> tuple[int, ...]:
    """The exponents where g_pow could slip: zero, the order, p, the
    widest exponent the table covers and the first one past it, and -1."""
    top = 1 << _WINDOW_BITS * len(_g_table(params.g, params.p))
    return (0, 1, params.d - 1, params.d, params.p - 1, params.p, top - 1, top, -1)


class TestGPow:
    """g_pow against the builtin pow, the oracle it must equal exactly."""

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_builtin_pow(self, data):
        params = data.draw(st.sampled_from(table_groups()))
        bits = params.p.bit_length()
        e = data.draw(st.integers(-(1 << bits + 16), (1 << bits + 16) - 1)
                      | st.sampled_from(table_edges(params)))
        assert params.g_pow(e) == pow(params.g, e, params.p)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_row_matches_builtin_pow(self, data):
        params = data.draw(st.sampled_from(table_groups()))
        bits = params.p.bit_length()
        exponents = st.integers(-(1 << bits + 16), (1 << bits + 16) - 1)
        row = tuple(data.draw(st.lists(exponents | st.sampled_from(table_edges(params)),
                                       max_size=8)))
        want = tuple(pow(params.g, e, params.p) for e in row)
        assert params.g_pows(row) == want
        # asked again, in another sequence type: read from the cache
        hits = _g_row.cache_info().hits
        assert params.g_pows(list(row)) == want
        assert _g_row.cache_info().hits == hits + 1

    def test_single_powers_stay_out_of_the_row_cache(self):
        _g_row.cache_clear()
        for params in table_groups():
            for e in table_edges(params):
                params.g_pow(e)
        assert _g_row.cache_info().currsize == 0

    def test_table_rows_cover_every_exponent_below_p(self):
        for params in table_groups():
            table = _g_table(params.g, params.p)
            assert len(table) == -(-params.p.bit_length() // _WINDOW_BITS)
            assert all(len(row) == 1 << _WINDOW_BITS for row in table)
            assert 1 << _WINDOW_BITS * len(table) > params.p

    def test_edges_take_the_documented_path(self, monkeypatch):
        # every exponent is reduced mod d and read from the table, even a
        # negative one or one past the table's width
        import vsslab.numtheory as numtheory

        # generating the groups tests primes with pow, so build them first
        groups = table_groups()
        builtin_calls = []

        def counting_pow(*args):
            builtin_calls.append(args)
            return pow(*args)

        monkeypatch.setattr(numtheory, "pow", counting_pow, raising=False)
        for params in groups:
            for e in table_edges(params):
                assert params.g_pow(e) == pow(params.g, e, params.p)
        assert builtin_calls == []

    def test_the_cache_keeps_four_tables_and_rebuilds_evicted_ones(self):
        groups = table_groups()
        # p23order11 and p23q11 share g and p, and so their table
        keys = {(params.g, params.p) for params in groups}
        assert len(keys) > 4
        _g_table.cache_clear()
        for _ in range(2):
            for params in groups:
                for e in table_edges(params):
                    assert params.g_pow(e) == pow(params.g, e, params.p)
        info = _g_table.cache_info()
        # round robin over more tables than slots: every first lookup of
        # a table misses, on both passes
        assert (info.misses, info.currsize, info.maxsize) == (2 * len(keys), 4, 4)
