"""Named, pinned group parameter sets shipped with the package.

Each entry is a literal GroupParams: p, g, the exact order d of g, and
the mode; a hardened entry's d is its prime subgroup order q. A
vulnerable entry also pins the distinct primes of d, the certificate
validate() needs (the library never factors); a hardened d is proved
prime and needs none. Each entry is revalidated the first time it is
looked up, so a run pays only for the entry it uses; validate() proves
d is the exact order of g, so a mistyped value raises
InvalidGroupParams instead of smuggling in a wrong order.

The v32/v64/h32/h64 entries were produced once from a SplitMix64 stream
at the seed noted beside each, then pinned so every run sees identical
groups. gen_params still gives h32 and h64 at their seeds; v32 and v64
came from an earlier generator that factored p - 1 of a random prime,
and their pinned values and certificates now define them.
"""

from .errors import UnknownParamSet
from .numtheory import GroupParams, Mode
from .record import brief, lru_cache

_ENTRIES = {
    # tiny worked-example group: g = 2 is a primitive root mod 11, d = 10
    "small11": (GroupParams(p=11, g=2, d=10, mode=Mode.VULNERABLE), (2, 5)),
    # g = 2 has order 11 < 22 mod 23: acceptance is congruence mod ord(g),
    # not mod p - 1, which is what the order-shift scenario demonstrates
    "p23order11": (GroupParams(p=23, g=2, d=11, mode=Mode.VULNERABLE), (11,)),
    # hardened twin: safe prime 23 = 2 * 11 + 1, g = 2 generates the
    # order-11 subgroup of squares, secrets live in Z_11
    "p23q11": (GroupParams(p=23, g=2, d=11, mode=Mode.HARDENED), None),
    # the factoring generator at 32 bits, seed 0x763332; p - 1 is not 2q
    "v32": (
        GroupParams(p=3160101617, g=3, d=3160101616, mode=Mode.VULNERABLE),
        (2, 7, 139, 202987),
    ),
    # the factoring generator at 64 bits, seed 0x763634; p - 1 is not 2q
    "v64": (
        GroupParams(
            p=15670206069997242653, g=2, d=15670206069997242652, mode=Mode.VULNERABLE
        ),
        (2, 7, 4476547, 17859754621),
    ),
    # gen_params(32, hardened), seed 0x683332
    "h32": (GroupParams(p=2488578623, g=2247443640, d=1244289311, mode=Mode.HARDENED), None),
    # gen_params(64, hardened), seed 0x683634
    "h64": (
        GroupParams(
            p=11285435023865367059,
            g=6853325888714086531,
            d=5642717511932683529,
            mode=Mode.HARDENED,
        ),
        None,
    ),
}


@lru_cache(maxsize=len(_ENTRIES))
def get_params(name: str) -> GroupParams:
    """The entry called name, validated on its first lookup; raises
    UnknownParamSet if absent (a lookup that raises is not cached)."""
    if name not in _ENTRIES:
        raise UnknownParamSet(
            f"no parameter set named {brief(name)}; available: {', '.join(sorted(_ENTRIES))}"
        )
    params, primes = _ENTRIES[name]
    params.validate(primes)
    return params


def load_registry() -> dict[str, GroupParams]:
    """All registry entries, each validated. No ceremony calls it (a run
    looks up one entry); it stays public as the benchmark's set-up call."""
    return {name: get_params(name) for name in _ENTRIES}
