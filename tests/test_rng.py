"""Deterministic PRNG behaviour: stream stability, bounds, substream independence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsslab.errors import VsslabError
from vsslab.rng import MASK64, SplitMix64, substream

# First five outputs of the reference stream for seed 0.  The underlying
# mixer is the well-known splitmix64 finalizer, so these values can be
# cross-checked against any independent implementation.
SEED0_PREFIX = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]


def test_seed_zero_prefix_matches_reference():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(5)] == SEED0_PREFIX


def test_same_seed_same_stream():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_different_seeds_diverge():
    a = SplitMix64(1)
    b = SplitMix64(2)
    assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


def test_outputs_stay_in_64_bits():
    rng = SplitMix64(0xDEADBEEF)
    for _ in range(1000):
        v = rng.next_u64()
        assert 0 <= v <= MASK64


@given(st.integers(min_value=0, max_value=MASK64), st.integers(min_value=1, max_value=513))
@settings(max_examples=200, deadline=None)
def test_randbits_within_range(seed, k):
    v = SplitMix64(seed).randbits(k)
    assert 0 <= v < (1 << k)


@given(st.integers(min_value=0, max_value=MASK64), st.integers(min_value=1, max_value=10**30))
@settings(max_examples=200, deadline=None)
def test_randbelow_within_range(seed, n):
    v = SplitMix64(seed).randbelow(n)
    assert 0 <= v < n


@given(
    st.integers(min_value=0, max_value=MASK64),
    st.integers(min_value=-(10**12), max_value=10**12),
    st.integers(min_value=1, max_value=10**6),
)
@settings(max_examples=200, deadline=None)
def test_randrange_within_bounds(seed, lo, width):
    hi = lo + width
    v = SplitMix64(seed).randrange(lo, hi)
    assert lo <= v < hi


def test_randbelow_small_modulus_hits_every_residue():
    rng = SplitMix64(99)
    seen = {rng.randbelow(7) for _ in range(200)}
    assert seen == set(range(7))


def test_substream_is_deterministic():
    assert substream(42, 3).next_u64() == substream(42, 3).next_u64()


def test_substreams_with_different_paths_differ():
    outs = {substream(7, i).next_u64() for i in range(50)}
    assert len(outs) == 50  # no collisions among the first fifty children


def test_substream_differs_from_parent_stream():
    parent = SplitMix64(7)
    child = substream(7, 0)
    assert [parent.next_u64() for _ in range(4)] != [child.next_u64() for _ in range(4)]


# one word per candidate up to 64 bits, two above; 2**k + 1 rejects
# almost half of its candidates
_BATCH_BOUNDS = [1, 2, 3, 2**10, 2**10 + 1, 2**63, 2**63 + 1, 2**64 - 1, 2**64, 2**64 + 1,
                 2**95 + 2**40 + 1]


@pytest.mark.parametrize("n", _BATCH_BOUNDS)
@pytest.mark.parametrize("seed", [0, 7, MASK64])
def test_a_batched_draw_is_successive_single_draws(seed, n):
    single, batched = SplitMix64(seed), SplitMix64(seed)
    for count in (0, 1, 40):
        assert batched.randbelows(n, count) == tuple(single.randbelow(n) for _ in range(count))
        # and the stream goes on from where the single draws leave it
        assert batched.next_u64() == single.next_u64()


@given(st.integers(min_value=0, max_value=MASK64), st.integers(min_value=1, max_value=2**130),
       st.integers(min_value=0, max_value=70))
@settings(max_examples=200, deadline=None)
def test_a_batched_draw_matches_single_draws_for_any_bound(seed, n, count):
    single, batched = SplitMix64(seed), SplitMix64(seed)
    assert batched.randbelows(n, count) == tuple(single.randbelow(n) for _ in range(count))
    assert batched.next_u64() == single.next_u64()


@pytest.mark.parametrize("call,message", [
    (lambda: SplitMix64(-1), "seed must be non-negative"),
    (lambda: SplitMix64(0).randbits(-1), "bit count must be non-negative"),
    (lambda: SplitMix64(0).randbelow(0), "bound must be positive"),
    (lambda: SplitMix64(0).randbelows(0, 3), "bound must be positive"),
    (lambda: SplitMix64(0).randrange(5, 5), "empty range"),
    (lambda: substream(0, -1), "substream indices must be non-negative"),
], ids=["seed", "randbits", "randbelow", "randbelows", "randrange", "substream"])
def test_out_of_range_arguments_are_refused(call, message):
    with pytest.raises(VsslabError, match=message):
        call()
