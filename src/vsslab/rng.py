"""Deterministic randomness for the whole package.

Every random draw flows from an explicit 64-bit seed through SplitMix64,
a tiny, well-studied generator: the state advances by the golden-ratio
increment 0x9E3779B97F4A7C15 and each output is scrambled by the
xor-shift/multiply finalizer below. Two runs with the same seed produce
the same byte-for-byte results on any platform.

Independent sub-streams (one per dealer, one for parameter generation)
are derived by folding an index into the parent seed with the same
finalizer, so draw order in one stream never perturbs another.
"""

from .errors import VsslabError

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    """SplitMix64 output finalizer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """64-bit PRNG with uniform integer helpers built on rejection sampling.

    randbelows draws count values below n in one call: the same values,
    from the same words, as count successive randbelow(n) calls, and it
    leaves the stream where they would.
    """

    def __init__(self, seed: int):
        if seed < 0:
            raise VsslabError("seed must be non-negative")
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & MASK64
        return _mix(self._state)

    def randbits(self, k: int) -> int:
        """Uniform integer in [0, 2**k)."""
        if k < 0:
            raise VsslabError("bit count must be non-negative")
        out = 0
        filled = 0
        while filled < k:
            out |= self.next_u64() << filled
            filled += 64
        return out & ((1 << k) - 1)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection on n.bit_length() bits."""
        if n < 1:
            raise VsslabError("bound must be positive")
        k = n.bit_length()
        while True:
            candidate = self.randbits(k)
            if candidate < n:
                return candidate

    def randbelows(self, n: int, count: int) -> tuple[int, ...]:
        """tuple(randbelow(n) for _ in range(count)), in one call.

        A bound of at most 64 bits takes one word per candidate, and the
        loop below advances and mixes the state inline; a wider bound
        draws through randbelow.
        """
        if n < 1:
            raise VsslabError("bound must be positive")
        k = n.bit_length()
        if k > 64:
            return tuple(self.randbelow(n) for _ in range(count))
        mask = (1 << k) - 1
        state = self._state
        out = []
        while len(out) < count:
            state = (state + _GOLDEN) & MASK64
            # _mix(state), inline
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
            z = (z ^ (z >> 31)) & mask
            if z < n:
                out.append(z)
        self._state = state
        return tuple(out)

    def randrange(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi)."""
        if hi <= lo:
            raise VsslabError("empty range")
        return lo + self.randbelow(hi - lo)


def substream(seed: int, index: int) -> SplitMix64:
    """Child generator number index of seed.

    The child seed is mix(seed + (index + 1) * golden), so
    substream(s, 1) and substream(s, 2) never collide with each other or
    with the parent stream.
    """
    if index < 0:
        raise VsslabError("substream indices must be non-negative")
    return SplitMix64(_mix((seed + (index + 1) * _GOLDEN) & MASK64))
