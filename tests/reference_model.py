"""A naive ceremony written from the README's rules: the end-to-end oracle
that tests/test_reference_model.py holds run_scenario to.

It reuses vsslab only for the seeded stream (vsslab.rng), the record
and enum types that describe a config and a group, and VsslabError.
Dealing, forging, verification, pooling, interpolation and assembly
are written out here the slow, obvious way, with the builtin pow and no
tables or caches:

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

gap_law states when a shifted share verifies and when it corrupts, on
every group shape. predict_corruption states the same interpolation for
one subset as a closed form: the value a subset rebuilds when some of its shares carry
a uniform false-share shift. first_passing_subset extends it to a whole
pool as the denial law: the subset, if any, through which a uniform
forger's pool still rebuilds a value that passes. exact_value,
honest_share and interpolate_at_zero are the naive evaluation and
interpolation the other tests hold vsslab.poly's packed ones to.

expand_schema_5 rebuilds, from a schema "5" transcript alone, the
schema "4" document that wrote every fact out in full, by the README's
rebuild rules.
"""

from collections import namedtuple
from itertools import combinations

from vsslab.attack import StrategyKind
from vsslab.errors import VsslabError
from vsslab.numtheory import Mode
from vsslab.protocol import BehaviorKind
from vsslab.rng import substream

# verdict is "key_assembled" or "key_blocked"; matrix[i-1][k-1] says dealer
# i's share to party k passed; pools and recovered are keyed by dealer
ModelRun = namedtuple("ModelRun", "verdict group_key matrix pools recovered")


def exact_value(coeffs, x):
    """sum_j coeffs[j] * x**j, the exact integer, with no reduction."""
    return sum(c * x**j for j, c in enumerate(coeffs))


def honest_share(coeffs, k, params):
    """An honest dealer's share for party k: P(k) mod q when hardened, the
    exact integer P(k) otherwise."""
    value = exact_value(coeffs, k)
    return value % params.q if params.mode is Mode.HARDENED else value


def weights_at_zero(xs, m):
    """The Lagrange weights at zero of the distinct abscissas xs, mod the prime m."""
    weights = []
    for xj in xs:
        num = den = 1
        for xl in xs:
            if xl != xj:
                num *= xl
                den *= xl - xj
        weights.append(num * pow(den, -1, m) % m)
    return weights


def interpolate_at_zero(points, m):
    """P(0) mod the prime m for the polynomial through the (x, y) points."""
    weights = weights_at_zero([x for x, _ in points], m)
    return sum(y * w for (_, y), w in zip(points, weights)) % m


def gap_law(params, delta):
    """(verifies, harmless) for a share shifted by delta from P(k), over p,
    d = ord(g) and the interpolation field's modulus m (p, or q = d when
    hardened).

    g**(P(k) + delta) matches the commitment product mod p exactly when d
    divides delta, so the share verifies exactly then; interpolation
    reduces it mod m, so it leaves every secret rebuilt through it
    unchanged exactly when m divides delta. A share that verifies and
    corrupts therefore exists exactly when m does not divide d: on every
    vulnerable group (m = p, d | p - 1), never on a hardened one, where
    m = d and only the range rule v < q refuses the shifted share.
    """
    m = params.d if params.mode is Mode.HARDENED else params.p
    return delta % params.d == 0, delta % m == 0


def predict_corruption(points, m_uniform, p):
    """What interpolating the flagged points at zero gives once they are forged.

    points is a sequence of (k, honest_value_mod_p, forged?) triples where
    every forged point used ADD_P_MINUS_ONE with the same multiplier
    m_uniform. Each such forgery shifts the point by -m mod p, so the
    reconstruction lands on

        a_0 - m * sum(weight_j for forged j)  (mod p)

    and in particular on a_0 - m when every point is forged (the weights
    sum to 1). No reconstruction is run here; this is the closed form
    the actual one is tested against.
    """
    points = tuple(points)
    if m_uniform < 0:
        raise VsslabError("multiplier must be non-negative")
    weights = weights_at_zero([k for k, _, _ in points], p)
    honest_at_zero = sum(y * w for (_, y, _), w in zip(points, weights)) % p
    forged_weight = sum(w for (_, _, f), w in zip(points, weights) if f) % p
    return (honest_at_zero - m_uniform * forged_weight) % p


def uniform_shift(strategy, params):
    """delta, the shift mod p that each share a uniform forger sends carries:
    -m for ADD_P_MINUS_ONE (m * (p - 1) is -m mod p), +m * ord(g) for
    ORDER_SHIFT."""
    m = strategy.multiplier
    if strategy.kind is StrategyKind.ADD_P_MINUS_ONE:
        return -m % params.p
    return m * params.d % params.p


def first_passing_subset(pool, forged, t, a0, delta, params):
    """The denial law: (S, value) for the first t-subset S of pool, in
    lexicographic order, that passes, or None when none does.

    pool lists the recipients of a dealer's pool over Z_p, forged is the
    set of them whose shares carry the shift delta, and a0 is the
    dealer's secret. S rebuilds v = (a0 + delta * sum of w_k(S) over the
    forged k in S) mod p, with w(S) the Lagrange weights at zero, and it
    passes when g**v == g**a0, that is v == a0 (mod d): a forged weight
    sum of 0 mod p, or the wrap corner where v is a0 + d * j.
    """
    p, d = params.p, params.d
    for subset in combinations(pool, t):
        weights = weights_at_zero(subset, p)
        value = (a0 + delta * sum(w for k, w in zip(subset, weights) if k in forged)) % p
        if (value - a0) % d == 0:
            return subset, value
    return None


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
        value = honest_share(coeffs[i], k, params)
        if hardened:
            return value
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


def expand_schema_5(doc):
    """The schema "4" document of the schema "5" transcript doc, rebuilt
    from doc's own fields by enumeration order alone.

    An unlisted party is honest, q is d when hardened, a forger tried
    every one of its targets with its strategy, an unrejected share
    passed, a pool is the parties that neither rejected the share nor
    withhold, attempt i took the i-th t-subset of the pool, and only the
    last attempt passed, exactly when a secret was recovered.
    """
    config = doc["config"]
    n, t = config["n"], config["t"]
    parties = range(1, n + 1)
    behaviors = {str(k): config["behaviors"].get(str(k), {"kind": "honest"}) for k in parties}
    withholders = {k for k in parties if behaviors[str(k)]["kind"] != "honest"}
    rejected = {int(dealer): set(ks) for dealer, ks in doc["rejected"].items()}
    params = doc["params"]
    reconstructions = {}
    for dealer, r in doc["reconstructions"].items():
        pool = [k for k in parties
                if k not in rejected.get(int(dealer), ()) and k not in withholders]
        # the number of the attempt that passed, or 0 when none did
        passed = len(r["values"]) if r["recovered"] is not None else 0
        reconstructions[dealer] = {
            "pool": pool,
            "attempts": [{"subset": list(subset), "value": value, "commitment_check": i == passed}
                         for i, (subset, value)
                         in enumerate(zip(combinations(pool, t), r["values"]), 1)],
            "recovered": r["recovered"],
        }
    return {
        "version": "4",
        "config": {**config, "behaviors": behaviors},
        "params": {**params, "q": params["d"] if params["mode"] == "hardened" else None},
        "commitments": doc["commitments"],
        "shares": doc["shares"],
        "forgery_attempts": [
            {"dealer": int(dealer), "recipient": k,
             "strategy": behaviors[dealer]["strategy"], "outcome": outcome}
            for dealer, outcome in sorted(doc["forgeries"].items(), key=lambda kv: int(kv[0]))
            for k in behaviors[dealer]["targets"]
        ],
        "verification_matrix": [[k not in rejected.get(dealer, ()) for k in parties]
                                for dealer in parties],
        "aggregate_public_key": doc["aggregate_public_key"],
        "reconstructions": reconstructions,
        "group_key": doc["group_key"],
        "verdict": doc["verdict"],
    }
