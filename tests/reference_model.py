"""A naive ceremony written from the README's rules: the end-to-end oracle
that tests/test_reference_model.py holds run_scenario to.

It reuses vsslab only for the seeded stream (vsslab.rng) and the record
and enum types that describe a config and a group. Dealing, forging,
verification, pooling, interpolation and assembly are written out here
the slow, obvious way, with the builtin pow and no tables or caches:

- dealer i draws its t coefficients from substream(seed, i), each below
  the field modulus (p, or q when hardened), and commits c_j = g**a_j;
- it sends party k the exact integer P(k), reduced mod q when hardened;
  a false-share dealer adds m * (p - 1) or m * ord(g) to the shares of
  its targets, and deals honestly when hardened, where no forgery
  verifies;
- a share v for party k passes when g**v == prod_j c_j**(k**j) mod p;
  hardened recipients also need v < q and every c_j**q == 1;
- dealer i's pool holds the shares it dealt that passed and are held by
  parties that do not withhold (every party that is not honest);
- the pool's t-subsets are interpolated at zero in lexicographic order,
  and the first value v with g**v == c_0 is the recovered secret;
- the key is the sum of the recovered secrets mod p - 1 (q when
  hardened), or blocked when a dealer's secret was not recovered.
"""

from collections import namedtuple
from itertools import combinations

from vsslab.attack import StrategyKind
from vsslab.numtheory import Mode
from vsslab.protocol import BehaviorKind
from vsslab.rng import substream

# verdict is "key_assembled" or "key_blocked"; matrix[i-1][k-1] says dealer
# i's share to party k passed; pools and recovered are keyed by dealer
ModelRun = namedtuple("ModelRun", "verdict group_key matrix pools recovered")


def interpolate_at_zero(points, m):
    """P(0) mod the prime m for the polynomial through the (x, y) points."""
    total = 0
    for xj, yj in points:
        num = den = 1
        for xl, _ in points:
            if xl != xj:
                num *= xl
                den *= xl - xj
        total += yj * num * pow(den, -1, m)
    return total % m


def run_model(config, params):
    """The ModelRun of the ceremony config describes, over the group params."""
    p, g, d = params.p, params.g, params.d
    hardened = params.mode is Mode.HARDENED
    m = d if hardened else p
    t = config.t
    parties = range(1, config.n + 1)
    coeffs = {}
    for i in parties:
        rng = substream(config.seed, i)
        coeffs[i] = [rng.randbelow(m) for _ in range(t)]
    commits = {i: [pow(g, a, p) for a in coeffs[i]] for i in parties}

    def dealt(i, k):
        value = sum(a * k**j for j, a in enumerate(coeffs[i]))
        if hardened:
            return value % d
        behavior = config.behaviors[i]
        if behavior.kind is BehaviorKind.FALSE_SHARE_DEALER and k in behavior.targets:
            shift = p - 1 if behavior.strategy.kind is StrategyKind.ADD_P_MINUS_ONE else d
            value += behavior.strategy.multiplier * shift
        return value

    def passes(i, k, v):
        c = commits[i]
        if hardened and (v >= d or any(pow(c_j, d, p) != 1 for c_j in c)):
            return False
        right = 1
        for j, c_j in enumerate(c):
            right = right * pow(c_j, k**j, p) % p
        return pow(g, v, p) == right

    values = {(i, k): dealt(i, k) for i in parties for k in parties}
    matrix = tuple(tuple(passes(i, k, values[i, k]) for k in parties) for i in parties)
    cooperating = [k for k in parties if config.behaviors[k].kind is BehaviorKind.HONEST]
    pools = {i: tuple(k for k in cooperating if matrix[i - 1][k - 1]) for i in parties}

    def recover(i):
        points = [(k, values[i, k] % m) for k in pools[i]]
        for subset in combinations(points, t):
            secret = interpolate_at_zero(subset, m)
            if pow(g, secret, p) == commits[i][0]:
                return secret
        return None

    recovered = {i: recover(i) for i in parties}
    if None in recovered.values():
        return ModelRun("key_blocked", None, matrix, pools, recovered)
    key = sum(recovered.values()) % (d if hardened else p - 1)
    return ModelRun("key_assembled", key, matrix, pools, recovered)
