"""Number theory layer, each routine checked against an independent oracle."""

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from vsslab.errors import (
    GenerationFailed,
    InvalidGroupParams,
    NotInvertible,
    TooLarge,
)
from vsslab.numtheory import (
    FACTOR_GUARD_BITS,
    GroupParams,
    Mode,
    factorize,
    gen_params,
    is_prime,
    mod_inv,
)
from vsslab.rng import SplitMix64

from conftest import brute_order, multiplicative_order


class TestModInv:
    def test_pinned_example(self):
        assert mod_inv(4, 11) == 3  # 4*3 = 12 = 1 mod 11

    def test_non_invertible_rejected(self):
        with pytest.raises(NotInvertible):
            mod_inv(6, 9)
        with pytest.raises(NotInvertible):
            mod_inv(0, 7)

    @given(st.integers(min_value=1, max_value=10**18), st.integers(min_value=2, max_value=10**18))
    @settings(max_examples=300, deadline=None)
    def test_product_with_inverse_is_one(self, a, m):
        import math

        if math.gcd(a, m) != 1:
            with pytest.raises(NotInvertible):
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


class TestFactorize:
    def test_pinned_examples(self):
        assert factorize(10) == {2: 1, 5: 1}
        assert factorize(1) == {}
        assert factorize(22) == {2: 1, 11: 1}
        assert factorize(2**10) == {2: 10}

    def test_semiprime_beyond_trial_division(self):
        # both factors exceed the trial division bound, exercising the rho path
        p, q = 1000003, 1000033
        assert factorize(p * q) == {p: 1, q: 1}

    def test_large_semiprime(self):
        p = int(sympy.nextprime(2**40))
        q = int(sympy.nextprime(2**41))
        assert factorize(p * q) == {p: 1, q: 1}

    @given(st.integers(min_value=1, max_value=10**12))
    @settings(max_examples=150, deadline=None)
    def test_product_reconstructs_and_factors_are_prime(self, n):
        fac = factorize(n)
        prod = 1
        for prime, exp in fac.items():
            assert is_prime(prime)
            assert exp >= 1
            prod *= prime**exp
        assert prod == n

    def test_guard_rejects_oversized_input(self):
        with pytest.raises(TooLarge):
            factorize(1 << FACTOR_GUARD_BITS)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            factorize(0)


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
        for prime in factorize(d):
            assert pow(g, d // prime, p) != 1


class TestGroupParams:
    def test_vulnerable_validation_accepts_registry_style_params(self):
        GroupParams(p=11, g=2, d=10, mode=Mode.VULNERABLE).validate()
        GroupParams(p=23, g=2, d=11, mode=Mode.VULNERABLE).validate()

    def test_wrong_order_rejected(self):
        with pytest.raises(InvalidGroupParams):
            GroupParams(p=11, g=2, d=5, mode=Mode.VULNERABLE).validate()

    def test_hardened_requires_prime_q_matching_d(self):
        GroupParams(p=23, g=2, d=11, mode=Mode.HARDENED).validate()
        # 5 generates all of Z_23*: its exact order 22 is not prime
        GroupParams(p=23, g=5, d=22, mode=Mode.VULNERABLE).validate()
        with pytest.raises(InvalidGroupParams, match="not prime"):
            GroupParams(p=23, g=5, d=22, mode=Mode.HARDENED).validate()

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
        params.validate()

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

    def test_bit_length_bounds_enforced(self):
        with pytest.raises(ValueError):
            gen_params(3, Mode.VULNERABLE, SplitMix64(0))
        with pytest.raises(ValueError):
            gen_params(97, Mode.VULNERABLE, SplitMix64(0))

    def test_exhausted_search_raises_generation_failed(self):
        class AllOnes:
            # candidate construction turns this into 15 (composite) at 4 bits,
            # and into q=7 -> p=15 (composite) in the hardened search
            def randbits(self, k):
                return (1 << k) - 1

            def randrange(self, lo, hi):
                return lo

        with pytest.raises(GenerationFailed):
            gen_params(4, Mode.VULNERABLE, AllOnes())
        with pytest.raises(GenerationFailed):
            gen_params(4, Mode.HARDENED, AllOnes())
