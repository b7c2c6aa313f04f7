"""Number-theoretic building blocks over plain Python integers.

Everything here works on non-negative arbitrary-precision ints and is a
pure function of its arguments. Primality testing is exact below 2**64
(fixed Miller-Rabin witness set) and probabilistic with error below
2**-128 above. One table, the 25 primes below 100, serves is_prime,
which divides by them first, and the safe-prime search, which sieves by
their product. Nothing here factors: a hardened order is proved prime,
and a vulnerable one is checked from its primes, (2, q) for a generated
p = 2q + 1. No factoring guard bounds the sizes; MAX_PARAM_BITS stays
96 and MAX_PARTIES 64, the sizes the caches of g-power tables and rows
below, and poly's, are budgeted for.
"""

import math

from .errors import ConfigInvalid, GenerationFailed, InvalidGroupParams, VsslabError
from .record import Choice, brief, coerce_enum, lru_cache, record
from .rng import MASK64, SplitMix64


class Mode(Choice):
    """Whether the generator may span all of Z_p* or a prime-order subgroup.

    VULNERABLE: any g, order d = ord(g) dividing p - 1; shares travel as
    exact integers and forged values congruent mod d pass verification.
    HARDENED: safe prime p = 2q + 1, g of prime order q, all secret
    material below q; no forged share can pass.
    """

    VULNERABLE = "vulnerable"
    HARDENED = "hardened"


def mod_inv(a: int, m: int) -> int:
    """Inverse of a modulo m; VsslabError when m < 2 or gcd(a, m) != 1."""
    if m < 2:
        raise VsslabError(f"modulus must be at least 2, got {m}")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise VsslabError(
            f"{a} is not invertible mod {m} (gcd = {math.gcd(a, m)})"
        ) from None


# ---------------------------------------------------------------------------
# primality
# ---------------------------------------------------------------------------

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)
_SMALL_PRIMORIAL = math.prod(_SMALL_PRIMES)

# The first 12 primes are a proven witness set for n < 3.18e23 > 2**64
# (Sorenson/Webster psi_12); 3.3e24 is psi_13 and also needs base 41.
_DETERMINISTIC_WITNESSES = _SMALL_PRIMES[:12]
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

    def __post_init__(self):
        coerce_enum(self, "mode", Mode, InvalidGroupParams, "mode")

    @property
    def q(self) -> int | None:
        """The prime subgroup order when hardened (it is d), else None."""
        return self.d if self.mode is Mode.HARDENED else None

    @property
    def field_modulus(self) -> int:
        """Where coefficients and interpolation live: Z_p, or Z_q when hardened."""
        return self.d if self.mode is Mode.HARDENED else self.p

    def g_pow(self, e: int) -> int:
        """pow(g, e, p) for every integer e, one table entry per byte of e.

        The exponent is first reduced mod d: validate proves g**d == 1,
        so g**(e mod d) == g**e for negative and wide e alike, and
        e mod d < p fits the group's table. Byte i of e picks
        g**(byte * 256**i) from row i, and one product of the picked
        entries, reduced once, is the power: no squarings, and no
        Python-level loop.
        """
        return _g_power(_g_table(self.g, self.p), self.p, self.d, e)

    def g_pows(self, exponents) -> tuple[int, ...]:
        """(g_pow(e) for e in exponents) as a tuple: the row kernel.

        The group's table is read once per row, and each power is the
        product g_pow takes, in one comprehension with no call per
        power. The row is cached by its ints (_g_row below), so a row
        asked for twice, as a dealer's coefficients are by commit and
        then by the row check of verify_row, is computed once.
        """
        return _g_row(self.g, self.p, self.d, tuple(exponents))

    def validate(self, primes=None) -> None:
        """Recheck every structural invariant from scratch.

        Used on generated parameters and registry entries alike;
        generation output is never trusted blindly (a transcript's
        params are not read: the audit regenerates them). primes,
        the distinct primes of d, certify a vulnerable group's order:
        each must be prime and divide d, and dividing them out must
        leave 1; a vulnerable group without them is refused. A hardened
        d is proved prime and needs no certificate.
        """
        if not is_prime(self.p):
            raise InvalidGroupParams(f"p = {self.p} is not prime")
        if not 1 < self.g < self.p:
            raise InvalidGroupParams(f"generator {self.g} outside (1, p)")
        if self.d < 1 or (self.p - 1) % self.d != 0:
            raise InvalidGroupParams(f"order {self.d} does not divide p - 1 = {self.p - 1}")
        if pow(self.g, self.d, self.p) != 1:
            raise InvalidGroupParams(f"g**d != 1 mod p for d = {self.d}")
        if self.mode is Mode.HARDENED:
            # g != 1, so a prime d is exact: no factoring needed
            if not is_prime(self.d):
                raise InvalidGroupParams(f"hardened order d = {self.d} is not prime")
            return
        if primes is None:
            raise InvalidGroupParams(
                f"vulnerable order d = {self.d} needs the primes of d as its certificate")
        rest = self.d
        for r in primes:
            if not is_prime(r):
                raise InvalidGroupParams(f"certificate factor {r} is not prime")
            if rest % r != 0:
                raise InvalidGroupParams(
                    f"certificate prime {r} does not divide what is left of d = {self.d}")
            while rest % r == 0:
                rest //= r
        if rest != 1:
            raise InvalidGroupParams(
                f"certificate leaves {rest} of d = {self.d} unfactored")
        r = _order_drop(self.g, self.d, self.p, primes)
        if r is not None:
            raise InvalidGroupParams(f"claimed order {self.d} is not exact (g**(d/{r}) == 1)")


def _order_drop(g: int, d: int, p: int, primes) -> int | None:
    """The first r of primes, d's prime factors, with g**(d/r) == 1 mod p, or
    None; given g**d == 1, None means d is the exact order of g."""
    return next((r for r in primes if pow(g, d // r, p) == 1), None)


MIN_PARAM_BITS = 4
MAX_PARAM_BITS = 96

# Dealing and verification cost about n**3 big-int operations whatever t
# is, and with t = n the reconstruction attempt budget alone would admit
# any n. Honest v64 n=t=64 `vsslab run` takes about 0.28 s on a shared
# 2-vCPU Xeon (median of twelve runs, range 0.19-0.34 s). A cache that
# keeps a row per party, here or in poly, keeps MAX_PARTIES of them.
MAX_PARTIES = 64


# Fixed-base powers of g (Brickell-Gordon-McCurley-Wilson 1992; Lim-Lee
# 1994). A table is a pure function of (g, p), so caching one never
# changes a result; a run and its audit use one group, and the cache
# keeps four. The window is a byte, the digit int.to_bytes gives. At
# MAX_PARAM_BITS = 96 a table is 12 rows of 256 entries, about 148 kB
# under tracemalloc, so four full tables take about 0.59 MB.
_WINDOW_BITS = 8


@lru_cache(maxsize=4)
def _g_table(g: int, p: int) -> tuple[tuple[int, ...], ...]:
    """Row i holds g**(v * 256**i) mod p for v in 0..255, over
    ceil(bits(p) / 8) rows: every exponent below p, so every e mod d
    that g_pow looks up."""
    rows = []
    base = g % p
    for _ in range(-(-p.bit_length() // _WINDOW_BITS)):
        row = [1]
        for _ in range((1 << _WINDOW_BITS) - 1):
            row.append(row[-1] * base % p)
        rows.append(tuple(row))
        base = row[-1] * base % p
    return tuple(rows)


def _g_power(table, p: int, d: int, e: int) -> int:
    digits = (e % d).to_bytes(len(table), "little")
    return math.prod(map(tuple.__getitem__, table, digits)) % p


# Rows of powers of g (GroupParams.g_pows), cached like the tables: a
# row is a pure function of its ints. A run commits its n rows, at most
# MAX_PARTIES, then checks them in the same order, so under LRU a row that
# misses at check i evicts only rows already checked. Single powers
# (g_pow) never enter: the per-share fallback's would evict rows still
# to be checked. Worst case, 64 rows of 64 exponents below 2**96,
# measured with tracemalloc: 0.40 MB, of which 0.19 MB is the
# exponents, which a run's polynomials hold anyway.
@lru_cache(maxsize=MAX_PARTIES)
def _g_row(g: int, p: int, d: int, exponents: tuple[int, ...]) -> tuple[int, ...]:
    table = _g_table(g, p)
    size = len(table)
    # _g_power's product, inline: no call per power
    return tuple(math.prod(map(tuple.__getitem__, table, (e % d).to_bytes(size, "little"))) % p
                 for e in exponents)


_SAFE_PRIME_ATTEMPTS = 1 << 17


def gen_params(bit_length: int, mode: Mode, rng: SplitMix64) -> GroupParams:
    """Generate fresh group parameters of the requested size.

    Both modes search the stream for the same safe prime p = 2q + 1.
    Vulnerable mode takes the smallest primitive root g, so d = p - 1 =
    2q, certified by the primes (2, q). Hardened mode squares a random h
    into the order-q subgroup, so d = q. Raises ConfigInvalid for a size
    outside [MIN_PARAM_BITS, MAX_PARAM_BITS] and GenerationFailed if the
    documented retry bound runs out.
    """
    if not MIN_PARAM_BITS <= bit_length <= MAX_PARAM_BITS:
        raise ConfigInvalid(
            f"bit_length must be in [{MIN_PARAM_BITS}, {MAX_PARAM_BITS}], got {brief(bit_length)}"
        )
    for _ in range(_SAFE_PRIME_ATTEMPTS):
        # a random odd q of exactly bit_length - 1 bits, so p has bit_length
        q = (1 << (bit_length - 2)) | (rng.randbits(bit_length - 3) << 1) | 1
        # above 97, a factor below 100 of q or 2q + 1, or a failed base-2
        # Fermat test of 2q + 1, means a composite: the sieve skips only
        # what Miller-Rabin would refuse, so the same q is found
        if q > _SMALL_PRIMES[-1] and (math.gcd(q * (2 * q + 1), _SMALL_PRIMORIAL) != 1
                                      or pow(2, 2 * q, 2 * q + 1) != 1):
            continue
        if is_prime(q) and is_prime(2 * q + 1):
            break
    else:
        raise GenerationFailed(
            f"no {bit_length}-bit safe prime found in {_SAFE_PRIME_ATTEMPTS} attempts"
        )
    p = 2 * q + 1
    if mode is Mode.VULNERABLE:
        primes = (2, q)
        # a prime p has a primitive root, so the search ends below p
        g = next(g for g in range(2, p) if _order_drop(g, p - 1, p, primes) is None)
        params = GroupParams(p=p, g=g, d=p - 1, mode=mode)
    else:
        primes = None  # validate proves the prime d exact without one
        h = rng.randrange(2, p - 1)  # h != 1 and h != p - 1, so h*h != 1
        params = GroupParams(p=p, g=h * h % p, d=q, mode=mode)
    params.validate(primes)
    return params
