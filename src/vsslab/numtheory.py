"""Number-theoretic building blocks over plain Python integers.

Everything here works on non-negative arbitrary-precision ints and is a
pure function of its arguments. Primality testing is exact below 2**64
(fixed Miller-Rabin witness set) and probabilistic with error below
2**-128 above; factorization is guarded to inputs under 96 bits, which
is all this desk-scale laboratory ever needs.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache

from .errors import (
    ConfigInvalid,
    GenerationFailed,
    InvalidGroupParams,
    ModulusTooSmall,
    NotInvertible,
    TooLarge,
)
from .record import record
from .rng import MASK64, SplitMix64


class Mode(str, Enum):
    """Whether the generator may span all of Z_p* or a prime-order subgroup.

    VULNERABLE: any g, order d = ord(g) dividing p - 1; shares travel as
    exact integers and forged values congruent mod d pass verification.
    HARDENED: safe prime p = 2q + 1, g of prime order q, all secret
    material below q; no forged share can pass.
    """

    VULNERABLE = "vulnerable"
    HARDENED = "hardened"


def mod_inv(a: int, m: int) -> int:
    """Inverse of a modulo m, or NotInvertible when gcd(a, m) != 1."""
    if m < 2:
        raise ModulusTooSmall(f"modulus must be at least 2, got {m}")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotInvertible(
            f"{a} is not invertible mod {m} (gcd = {math.gcd(a, m)})"
        ) from None


# ---------------------------------------------------------------------------
# primality
# ---------------------------------------------------------------------------

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)

# The first 12 primes are a proven witness set for n < 3.18e23 > 2**64
# (Sorenson/Webster psi_12); 3.3e24 is psi_13 and also needs base 41.
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_DETERMINISTIC_BOUND = 1 << 64

# Above 2**64: fixed number of seeded rounds; error probability < 4**-64 = 2**-128.
PROBABILISTIC_ROUNDS = 64
_WITNESS_SEED = 0x5A75C3E2B1D4F687


def _witnesses_composite(a: int, d: int, s: int, n: int) -> bool:
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test.

    Exact for n < 2**64 via a fixed witness set; above that, 64 rounds
    with witnesses drawn from a SplitMix64 stream seeded by n, so the
    answer is still deterministic per input.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 101 * 101:
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < _DETERMINISTIC_BOUND:
        witnesses = _DETERMINISTIC_WITNESSES
    else:
        stream = SplitMix64(_WITNESS_SEED ^ (n & MASK64))
        witnesses = tuple(2 + stream.randbelow(n - 3) for _ in range(PROBABILISTIC_ROUNDS))
    return not any(_witnesses_composite(a, d, s, n) for a in witnesses)


# ---------------------------------------------------------------------------
# factorization (trial division + Brent's cycle-finding rho)
# ---------------------------------------------------------------------------

FACTOR_GUARD_BITS = 96
_TRIAL_LIMIT = 10_000


@lru_cache(maxsize=1)
def _trial_primes() -> tuple[int, ...]:
    sieve = bytearray([1]) * _TRIAL_LIMIT
    sieve[0] = sieve[1] = 0
    for i in range(2, int(_TRIAL_LIMIT ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return tuple(i for i, flag in enumerate(sieve) if flag)


def _brent_attempt(n: int, c: int) -> int:
    """One deterministic Brent-rho pass; may return n on failure."""
    m = 128
    y, r, q = 2, 1, 1
    g = 1
    x = ys = y
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += m
        r <<= 1
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    return g


def _nontrivial_factor(n: int) -> int:
    """A proper factor of odd composite n (deterministic parameter sweep)."""
    for c in range(1, 64):
        g = _brent_attempt(n, c)
        if 1 < g < n:
            return g
    raise RuntimeError(f"rho factorization stalled on {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n as {prime: exponent}; factorize(1) == {}.

    Guarded to n below 2**96 so a stalled rho loop can never eat the
    session; everything the laboratory generates stays far below that.
    """
    if n < 1:
        raise ValueError(f"can only factor positive integers, got {n}")
    if n.bit_length() > FACTOR_GUARD_BITS:
        raise TooLarge(f"refusing to factor {n.bit_length()}-bit input (limit {FACTOR_GUARD_BITS} bits)")
    out: dict[int, int] = {}
    for p in _trial_primes():
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if is_prime(m):
                out[m] = out.get(m, 0) + 1
                continue
            f = _nontrivial_factor(m)
            stack.append(f)
            stack.append(m // f)
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# group parameters
# ---------------------------------------------------------------------------


@record
class GroupParams:
    """A working group: prime p, generator g of exact order d, and mode.

    Hardened parameters promise a prime d; g then generates the order-q
    subgroup with q = d, the field where secrets live.
    """

    p: int
    g: int
    d: int
    mode: Mode

    @property
    def q(self) -> int | None:
        """The prime subgroup order when hardened (it is d), else None."""
        return self.d if self.mode is Mode.HARDENED else None

    @property
    def field_modulus(self) -> int:
        """Where coefficients and interpolation live: Z_p, or Z_q when hardened."""
        return self.d if self.mode is Mode.HARDENED else self.p

    def validate(self) -> None:
        """Recheck every structural invariant from scratch.

        Used on generated parameters, registry entries, and transcript
        echoes alike; generation output is never trusted blindly.
        """
        if not is_prime(self.p):
            raise InvalidGroupParams(f"p = {self.p} is not prime")
        if not 1 < self.g < self.p:
            raise InvalidGroupParams(f"generator {self.g} outside (1, p)")
        if self.d < 1 or (self.p - 1) % self.d != 0:
            raise InvalidGroupParams(f"order {self.d} does not divide p - 1 = {self.p - 1}")
        if pow(self.g, self.d, self.p) != 1:
            raise InvalidGroupParams(f"g**d != 1 mod p for d = {self.d}")
        for r in factorize(self.d):
            if pow(self.g, self.d // r, self.p) == 1:
                raise InvalidGroupParams(f"claimed order {self.d} is not exact (g**(d/{r}) == 1)")
        if self.mode is Mode.HARDENED and not is_prime(self.d):
            raise InvalidGroupParams(f"hardened order d = {self.d} is not prime")


_PRIME_ATTEMPTS = 4096
_SAFE_PRIME_ATTEMPTS = 1 << 17
MIN_PARAM_BITS = 4
MAX_PARAM_BITS = 96


def _odd_candidate(bits: int, rng: SplitMix64) -> int:
    """Random odd integer with exact bit length (top and bottom bits set)."""
    return (1 << (bits - 1)) | (rng.randbits(bits - 2) << 1) | 1


def _random_prime(bits: int, rng: SplitMix64) -> int:
    for _ in range(_PRIME_ATTEMPTS):
        candidate = _odd_candidate(bits, rng)
        if is_prime(candidate):
            return candidate
    raise GenerationFailed(f"no {bits}-bit prime found in {_PRIME_ATTEMPTS} attempts")


def _smallest_primitive_root(p: int, prime_factors: dict[int, int]) -> int:
    for g in range(2, p):
        if all(pow(g, (p - 1) // r, p) != 1 for r in prime_factors):
            return g
    raise GenerationFailed(f"no primitive root below {p}")  # unreachable for prime p


def gen_params(bit_length: int, mode: Mode, rng: SplitMix64) -> GroupParams:
    """Generate fresh group parameters of the requested size.

    Vulnerable mode picks a random prime p and the smallest primitive
    root, so d = p - 1. Hardened mode searches for a safe prime
    p = 2q + 1 and squares a random h into the order-q subgroup.
    Raises ConfigInvalid for a size outside [MIN_PARAM_BITS, MAX_PARAM_BITS]
    and GenerationFailed if the documented retry bounds run out.
    """
    if not MIN_PARAM_BITS <= bit_length <= MAX_PARAM_BITS:
        raise ConfigInvalid(
            f"bit_length must be in [{MIN_PARAM_BITS}, {MAX_PARAM_BITS}], got {bit_length}"
        )
    if mode is Mode.VULNERABLE:
        p = _random_prime(bit_length, rng)
        g = _smallest_primitive_root(p, factorize(p - 1))
        params = GroupParams(p=p, g=g, d=p - 1, mode=mode)
    else:
        for _ in range(_SAFE_PRIME_ATTEMPTS):
            q = _odd_candidate(bit_length - 1, rng)
            if is_prime(q) and is_prime(2 * q + 1):
                break
        else:
            raise GenerationFailed(
                f"no {bit_length}-bit safe prime found in {_SAFE_PRIME_ATTEMPTS} attempts"
            )
        p = 2 * q + 1
        h = rng.randrange(2, p - 1)  # h != 1 and h != p - 1, so h*h != 1
        params = GroupParams(p=p, g=h * h % p, d=q, mode=mode)
    params.validate()
    return params
