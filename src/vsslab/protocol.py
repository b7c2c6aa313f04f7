"""Deterministic multi-party simulation: deal, verify, reconstruct, assemble.

Party ids double as evaluation points (party i holds P(i) from every
dealer). A scenario run is a pure function of its config: every random
draw comes from per-dealer substreams of the config seed, shares travel
as plain values in rows (row i - 1 holds dealer i's values, the one at
index k - 1 sent to party k, as row i - 1 of the verification matrix
holds their verdicts), and equal configs produce byte-identical
reports. There is no complaint round; a failed verification marks the
dealer in the report and the recipient simply never reuses that share.

The group key storyline: the group secret is the sum of dealer secrets
and the matching public key is the product of constant-term commitments,
known as soon as commitments are broadcast. At assembly time each
dealer's secret is rebuilt by interpolating the shares still on the
table; a dealer that withholds keeps everything it holds back, and a
false-share dealer withholds too, since denial is what the forgery is
for. reconstruct_pool decides each pool, as verify_row decides each
row: its t-subsets are tried in lexicographic order until one rebuilds
a secret consistent with the dealer's own commitment; a dealer with no
such subset blocks the key. A pool whose shares all lie on one field
polynomial (every honest pool, and every pool of a forger whose shares
carry its one shift) is decided by its first subset, so only a pool
that mixes forged and honest shares is enumerated.
"""

import itertools
import math
from _operator import mul

from .attack import ForgeryStrategy, StrategyKind
from .errors import ConfigInvalid, ForgeryImpossible, VsslabError
from .numtheory import MAX_PARTIES, GroupParams, Mode, gen_params
from .poly import check_abscissas, evaluate, interpolate, lagrange_weights, sample_polynomial
from .record import Choice, brief, check_int, coerce_enum, record
from .registry import get_params
from .rng import substream
from .vss import CommitmentVector, aggregate_public_key, check_values, commit, verify_row

# Every dealer's pool can hold all n shares, and an inconsistent pool (its
# shares do not lie on one polynomial) with no passing subset records
# every one of its t-subsets, so such a run can cost up to n * C(n, t)
# attempts. ScenarioConfig.validate applies the budget to the configs
# that can make one; it admits v64 n=16 t=8 (205,920) and refuses sizes
# that would never finish, such as n=40 t=20 (about 5.5e12).
MAX_RECONSTRUCTION_ATTEMPTS = 250_000


class BehaviorKind(Choice):
    HONEST = "honest"
    FALSE_SHARE_DEALER = "false_share_dealer"
    WITHHOLDING_DEALER = "withholding_dealer"


@record
class Behavior:
    """What one party does.

    HONEST cooperates everywhere. FALSE_SHARE_DEALER broadcasts honest
    commitments but sends forged shares to each target, and withholds at
    assembly (the forgery exists to deny the key). WITHHOLDING_DEALER
    deals and verifies honestly, then refuses assembly.
    """

    kind: BehaviorKind = BehaviorKind.HONEST
    strategy: ForgeryStrategy | None = None
    targets: tuple[int, ...] = ()

    def __post_init__(self):
        coerce_enum(self, "kind", BehaviorKind, ConfigInvalid, "behavior kind")
        if self.strategy is not None and not isinstance(self.strategy, ForgeryStrategy):
            raise ConfigInvalid(f"strategy must be a ForgeryStrategy or None, "
                                f"got {brief(self.strategy)}")
        try:
            targets = tuple(sorted(check_int(k, "a target") for k in self.targets))
        except TypeError:
            raise ConfigInvalid(f"targets must be a collection of party ids, "
                                f"got {brief(self.targets)}") from None
        object.__setattr__(self, "targets", targets)
        # a repeated target would give one ceremony a second transcript
        for a, b in zip(targets, targets[1:]):
            if a == b:
                raise ConfigInvalid(f"party {brief(a)} targeted twice")
        if self.kind is BehaviorKind.FALSE_SHARE_DEALER:
            if self.strategy is None or not self.targets:
                raise ConfigInvalid("a false-share dealer needs a strategy and targets")
        elif self.strategy is not None or self.targets:
            raise ConfigInvalid(f"{self.kind.value} takes no strategy or targets")

    @property
    def withholds_at_assembly(self) -> bool:
        return self.kind is not BehaviorKind.HONEST


# The built-in scenarios. A row is the default registry set, then party
# 1's behavior and its forgery strategy, if any; every other party is
# honest, and a forger targets all of them with multiplier 1. The default
# set's mode is also the mode `vsslab run --bits` generates (default_mode).
#   honest          every party honest; the key assembles.
#   false-share     party 1 sends shares shifted by p - 1 to everyone else
#                   and withholds; verification stays green, the key blocks.
#   order-shift     same, but shifted by ord(g) on a group where
#                   ord(g) < p - 1, the exact acceptance boundary.
#   withhold        party 1 deals honestly, then withholds; the others
#                   rebuild its secret from their shares and assemble anyway.
#   hardened-attack party 1 tries to forge on hardened parameters; every
#                   attempt is impossible, honest shares go out instead.
_SCENARIOS = {
    "honest": ("small11", BehaviorKind.HONEST, None),
    "false-share": ("small11", BehaviorKind.FALSE_SHARE_DEALER, StrategyKind.ADD_P_MINUS_ONE),
    "order-shift": ("p23order11", BehaviorKind.FALSE_SHARE_DEALER, StrategyKind.ORDER_SHIFT),
    "withhold": ("small11", BehaviorKind.WITHHOLDING_DEALER, None),
    "hardened-attack": ("p23q11", BehaviorKind.FALSE_SHARE_DEALER, StrategyKind.ADD_P_MINUS_ONE),
}
SCENARIO_NAMES = tuple(_SCENARIOS)


@record
class GenSpec:
    """Generate parameters on the fly instead of using a registry entry."""

    bits: int
    mode: Mode

    def __post_init__(self):
        check_int(self.bits, "bits")
        coerce_enum(self, "mode", Mode, ConfigInvalid, "mode")


def check_party_count(n) -> None:
    """The one party-count rule: an int n with 2 <= n <= MAX_PARTIES.
    Callers check it before they build n behaviors."""
    if check_int(n, "n") < 2:
        raise ConfigInvalid(f"need at least 2 parties, got n={brief(n)}")
    if n > MAX_PARTIES:
        raise ConfigInvalid(f"at most {MAX_PARTIES} parties are supported, got n={brief(n)}")


@record
class ScenarioConfig:
    scenario: str
    n: int
    t: int
    params_ref: "str | GenSpec"
    behaviors: dict[int, Behavior]
    seed: int

    def __post_init__(self):
        # the one type check, for built and decoded configs alike, before
        # parameter generation reads any field: a config that runs renders
        # a transcript that decodes to it
        for name in ("n", "t", "seed"):
            check_int(self.__dict__[name], name)
        if not isinstance(self.scenario, str):
            raise ConfigInvalid(f"scenario must be a string, got {brief(self.scenario)}")
        if not isinstance(self.params_ref, (str, GenSpec)):
            raise ConfigInvalid(f"params_ref must be a name or a GenSpec, "
                                f"got {brief(self.params_ref)}")
        if not isinstance(self.behaviors, dict):
            raise ConfigInvalid(f"behaviors must be a dict, got {type(self.behaviors).__name__}")
        for pid, behavior in self.behaviors.items():
            check_int(pid, "a party id")
            if not isinstance(behavior, Behavior):
                raise ConfigInvalid(f"party {pid} needs a Behavior, got {brief(behavior)}")

    def validate(self, params: GroupParams) -> None:
        check_party_count(self.n)
        if not 2 <= self.t <= self.n:
            raise ConfigInvalid(f"threshold must satisfy 2 <= t <= n, "
                                f"got t={brief(self.t)}, n={self.n}")
        if not 0 <= self.seed < 1 << 64:
            raise ConfigInvalid("seed must fit in 64 bits")
        # counted, not materialized: n comes from untrusted transcripts
        if len(self.behaviors) != self.n or not all(1 <= pid <= self.n for pid in self.behaviors):
            raise ConfigInvalid("behaviors must cover exactly the parties 1..n")
        # A pool can be inconsistent only when its dealer forges to some,
        # but not all, of the parties that put shares on the table: every
        # forged share carries the dealer's one shift, and reconstruct_pool
        # decides a consistent pool with one attempt.
        cooperating = {pid for pid, b in self.behaviors.items() if not b.withholds_at_assembly}
        splitters = sorted(pid for pid, b in self.behaviors.items()
                           if 0 < len(cooperating.intersection(b.targets)) < len(cooperating))
        if splitters and self.n * math.comb(self.n, self.t) > MAX_RECONSTRUCTION_ATTEMPTS:
            raise ConfigInvalid(
                f"party {splitters[0]} forges to some but not all cooperating parties, so "
                f"n = {self.n}, t = {self.t} needs up to n * C(n, t) > "
                f"{MAX_RECONSTRUCTION_ATTEMPTS:,} reconstruction attempts"
            )
        # party ids are evaluation points, so they must be nonzero
        # elements of the interpolation field
        if self.n >= params.field_modulus:
            raise ConfigInvalid(
                f"n = {self.n} does not fit the interpolation field Z_{params.field_modulus}"
            )
        for pid, behavior in self.behaviors.items():
            bad = {k for k in behavior.targets if not 1 <= k <= self.n}
            if bad:
                raise ConfigInvalid(f"party {pid} targets unknown parties {brief(sorted(bad))}")
            if pid in behavior.targets:
                raise ConfigInvalid(f"party {pid} cannot target itself")
            # m and m mod p corrupt the same field element; a larger m
            # only inflates the forged share
            if behavior.strategy is not None and behavior.strategy.multiplier >= params.p:
                raise ConfigInvalid(f"party {pid} needs a forgery multiplier below p = {params.p}")
        # the label is part of the transcript, so it must not misname the
        # behaviors; false-share and hardened-attack build the same ones
        # and differ only in default params, so those two labels swap
        if self.scenario in _SCENARIOS:
            if self.behaviors != _built_in_behaviors(self.scenario, self.n):
                raise ConfigInvalid(
                    f"scenario {brief(self.scenario)} needs the behaviors build_scenario gives it")
        else:
            # only a built-in whose party 1 acts alike can have these
            # behaviors, and the first such is the one to name
            first = self.behaviors[1]
            acts = (first.kind, first.strategy and first.strategy.kind)
            name = next((name for name, (_, kind, strategy) in _SCENARIOS.items()
                         if (kind, strategy) == acts), None)
            if name is not None and self.behaviors == _built_in_behaviors(name, self.n):
                raise ConfigInvalid(
                    f"scenario {brief(self.scenario)} has the behaviors of built-in {name!r}")


class Verdict(Choice):
    KEY_ASSEMBLED = "key_assembled"
    KEY_BLOCKED = "key_blocked"


@record
class ForgeryAttempt:
    """A forging dealer's one outcome, alike at each of its config targets."""

    dealer: int
    outcome: str  # "forged" | "forgery_impossible"


@record
class DealingRound:
    commitments: tuple[CommitmentVector, ...]
    shares: tuple[tuple[int, ...], ...]  # row d - 1: dealer d's share values to parties 1..n
    forgery_attempts: tuple[ForgeryAttempt, ...]


@record
class DealerReconstruction:
    """reconstructions[d - 1] is dealer d's, as a transcript writes it.

    attempts holds the value each attempt rebuilt; attempt i took the
    i-th t-subset, in itertools.combinations order, of the pool that
    run_reconstruction_round built. Attempts stop at the first pass, so
    recovered is the last value when it passed, and None otherwise.
    """

    attempts: tuple[int, ...]
    recovered: int | None


@record
class Assembly:
    verdict: Verdict
    group_key: int | None
    confirmed: bool | None


@record
class ScenarioReport:
    config: ScenarioConfig
    params: GroupParams
    commitments: tuple[CommitmentVector, ...]
    shares: tuple[tuple[int, ...], ...]  # as in DealingRound
    forgery_attempts: tuple[ForgeryAttempt, ...]
    verification_matrix: tuple[tuple[bool, ...], ...]
    aggregate_public_key: int
    reconstructions: tuple[DealerReconstruction, ...]
    group_key: int | None
    group_key_confirmed: bool | None
    verdict: Verdict


# ---------------------------------------------------------------------------
# the rounds
# ---------------------------------------------------------------------------


def _aligned(noun, *sequences):
    """The sequences as tuples; VsslabError("NOUN differ in length: ...")
    unless they have one length, since zip would silently drop what the
    longer ones hold."""
    sequences = tuple(map(tuple, sequences))
    if len({len(s) for s in sequences}) > 1:
        raise VsslabError(f"{noun} differ in length: "
                          + ", ".join(str(len(s)) for s in sequences))
    return sequences


def resolve_params(config: ScenarioConfig) -> GroupParams:
    """Registry lookup, or deterministic generation from the run seed."""
    if isinstance(config.params_ref, str):
        return get_params(config.params_ref)
    return gen_params(config.params_ref.bits, config.params_ref.mode, substream(config.seed, 0))


def run_dealing_round(config: ScenarioConfig, params: GroupParams) -> DealingRound:
    """Sample every dealer's polynomial as its coefficient tuple, broadcast
    commitments, deliver shares.

    Dealer i draws from substream(seed, i), so adding or reordering
    other dealers never changes what dealer i deals. Row i - 1 of the
    shares holds dealer i's shares to parties 1..n, its honest values
    from one poly.evaluate call over all of them, exact in vulnerable
    mode and in Z_q when hardened; an honest row is the tuple poly's
    row cache keeps, so verify_row's row check takes the coefficients
    it was evaluated from rather than interpolating them, and reads the
    row back rather than evaluating it again. A forger's row adds
    its strategy's one shift to the values at its targets, or deals them
    honestly where the parameters make forgery impossible, and records
    that one outcome as its ForgeryAttempt.
    """
    # one tuple of parties, which every cached row's key shares
    parties = tuple(range(1, config.n + 1))
    m, hardened = params.field_modulus, params.q is not None
    commitments = []
    rows = []
    attempts = []
    for dealer in parties:
        rng = substream(config.seed, dealer)
        coeffs = sample_polynomial(config.t, m, rng)
        commitments.append(commit(coeffs, params))
        behavior = config.behaviors[dealer]
        # vulnerable dealers transmit the exact integer evaluation; hardened
        # dealers its residue in Z_q, where the share must live
        values = evaluate(coeffs, parties, m, hardened)
        if behavior.kind is BehaviorKind.FALSE_SHARE_DEALER:
            try:
                shift, outcome = behavior.strategy.shift(params), "forged"
            except ForgeryImpossible:
                shift, outcome = 0, "forgery_impossible"
            values = list(values)
            for recipient in (k for k in behavior.targets if k in parties):
                values[recipient - 1] += shift
            attempts.append(ForgeryAttempt(dealer=dealer, outcome=outcome))
        rows.append(tuple(values))
    return DealingRound(
        commitments=tuple(commitments),
        shares=tuple(rows),
        forgery_attempts=tuple(attempts),
    )


def run_verification_round(rows, commitments, params: GroupParams):
    """n x n matrix: entry [dealer-1][recipient-1] says the share verified.

    rows[i] is dealer i + 1's row of share values to parties 1..n, and
    commitments[i] its commitment vector; each pair is decided by
    verify_row. Counts that differ raise VsslabError.
    """
    rows, commitments = _aligned("per-dealer inputs", rows, commitments)
    return tuple(verify_row(row, cv, params) for row, cv in zip(rows, commitments))


def reconstruct_pool(xs, ys, commits: CommitmentVector, params: GroupParams):
    """The DealerReconstruction of the secret committed to by commits,
    from the values ys its dealer's shares gave parties xs.

    Unequal lengths, a negative value or recipients that repeat or
    reach the field's modulus raise VsslabError. The t-subsets, t =
    len(commits.c), are tried in lexicographic order. A subset's value
    is sum_i y_i * w_i mod the interpolation field, over the values
    reduced into the field and the Lagrange weights of its recipients,
    and it passes when g**value matches the dealer's constant-term
    commitment. Honest shares always pass; forged ones corrupt value and
    (outside a measure-1/p wraparound corner) fail. The attempts stop at
    the first pass, whose value is the one recovered, and a pool of
    fewer than t shares lists none.

    When the first subset fails, the coefficients through its t shares
    (poly.interpolate) are evaluated in the field at the pool's other
    recipients, in one poly.evaluate call. If every other share agrees,
    the pool lies on one polynomial, every t-subset rebuilds the same
    value and none can pass, so the pool lists that one attempt.
    Otherwise (a forger's pool that mixes forged and honest shares) the
    subsets are enumerated, and a pool with no passing subset lists all
    C(len(pool), t) of them.
    """
    xs, ys = _aligned("pool recipients and values", xs, ys)
    t = len(commits.c)
    m = params.field_modulus
    if xs:
        check_abscissas(xs, m)
    ys = tuple(y % m for y in check_values(ys))
    testable = len(xs) > t
    attempts = []
    for subset, points in zip(itertools.combinations(xs, t), itertools.combinations(ys, t)):
        value = sum(map(mul, points, lagrange_weights(subset, m))) % m
        attempts.append(value)
        if params.g_pow(value) == commits.c[0]:
            return DealerReconstruction(attempts=tuple(attempts), recovered=value)
        if len(attempts) == 1 and testable:
            coeffs = interpolate(subset, points, m)
            if evaluate(coeffs, xs[t:], m, True) == ys[t:]:
                break
    return DealerReconstruction(attempts=tuple(attempts), recovered=None)


def run_reconstruction_round(dealing: DealingRound, matrix, config: ScenarioConfig,
                             params: GroupParams):
    """Per-dealer DealerReconstructions over the share pools.

    The pool for dealer i is the parties of its row less those that
    withhold at assembly or rejected the share at verification time, and
    reconstruct_pool decides it with their values: the attempts up to
    and including the first passing subset, one attempt for a failing
    pool on one polynomial, or every subset of an inconsistent pool when
    none passes. A pool is not kept: it follows from the matrix and the
    config, as a transcript's rebuild rules say. The inputs align as in
    run_verification_round. The weight tables and bases come from
    poly's bounded cache (see poly.lagrange_weights).
    """
    withholders = {pid for pid, b in config.behaviors.items() if b.withholds_at_assembly}
    rows, matrix, commitments = _aligned("per-dealer inputs", dealing.shares, matrix,
                                         dealing.commitments)
    reconstructions = []
    for dealer, (row, accepted, cv) in enumerate(zip(rows, matrix, commitments), 1):
        row, accepted = _aligned(f"dealer {dealer}'s shares and verdicts", row, accepted)
        pool = tuple(k for k, ok in enumerate(accepted, 1) if ok and k not in withholders)
        reconstructions.append(reconstruct_pool(pool, [row[k - 1] for k in pool], cv, params))
    return tuple(reconstructions)


def assemble_group_key(reconstructions, commitments, params: GroupParams, matrix) -> Assembly:
    """Sum the recovered dealer secrets into the group key, or report it blocked.

    The key is blocked exactly when some dealer's secret was not
    recovered. Verification outcomes act only through the pools that
    run_reconstruction_round builds from the matrix, so matrix is not
    read here.

    The sum is reduced modulo the exponent period (p - 1 vulnerable, q
    hardened). Every recovered value passed g**value == c_0 and ord(g)
    divides the period, so g**key equals the aggregate public key. A
    mismatch would be a bug in this library, not in its input, and
    raises RuntimeError. Reconstructions and commitments of unequal
    lengths raise VsslabError.
    """
    reconstructions, commitments = _aligned("per-dealer inputs", reconstructions, commitments)
    if any(r.recovered is None for r in reconstructions):
        return Assembly(verdict=Verdict.KEY_BLOCKED, group_key=None, confirmed=None)
    period = params.q if params.mode is Mode.HARDENED else params.p - 1
    key = sum(r.recovered for r in reconstructions) % period
    if params.g_pow(key) != aggregate_public_key(commitments, params):
        raise RuntimeError("g**key differs from the aggregate public key of the commitments")
    return Assembly(verdict=Verdict.KEY_ASSEMBLED, group_key=key, confirmed=True)


def run_scenario(config: ScenarioConfig) -> ScenarioReport:
    """Resolve parameters, run all rounds, and return the full report."""
    params = resolve_params(config)
    config.validate(params)
    dealing = run_dealing_round(config, params)
    matrix = run_verification_round(dealing.shares, dealing.commitments, params)
    reconstructions = run_reconstruction_round(dealing, matrix, config, params)
    assembly = assemble_group_key(reconstructions, dealing.commitments, params, matrix)
    return ScenarioReport(
        config=config,
        params=params,
        commitments=dealing.commitments,
        shares=dealing.shares,
        forgery_attempts=dealing.forgery_attempts,
        verification_matrix=matrix,
        aggregate_public_key=aggregate_public_key(dealing.commitments, params),
        reconstructions=reconstructions,
        group_key=assembly.group_key,
        group_key_confirmed=assembly.confirmed,
        verdict=assembly.verdict,
    )


def _built_in_behaviors(name: str, n: int) -> dict[int, Behavior]:
    _, kind, strategy = _SCENARIOS[name]
    if strategy is None:
        first = Behavior(kind=kind)
    else:
        first = Behavior(kind=kind, strategy=ForgeryStrategy(strategy, 1),
                         targets=range(2, n + 1))
    return {pid: first if pid == 1 else Behavior() for pid in range(1, n + 1)}


def default_mode(name: str) -> Mode:
    """The mode of scenario name's default group, which `vsslab run --bits` generates."""
    return get_params(_SCENARIOS[name][0]).mode


def build_scenario(name: str, seed: int, n: int = 5, t: int = 3,
                   params_ref: "str | GenSpec | None" = None) -> ScenarioConfig:
    """Config for one of the five built-in scenarios (see _SCENARIOS)."""
    if name not in _SCENARIOS:
        raise ConfigInvalid(f"unknown scenario {name!r}; choose from {', '.join(SCENARIO_NAMES)}")
    if params_ref is None:
        params_ref = _SCENARIOS[name][0]
    # before n Behaviors are built: n can be anything a user typed
    check_party_count(n)
    return ScenarioConfig(scenario=name, n=n, t=t, params_ref=params_ref,
                          behaviors=_built_in_behaviors(name, n), seed=seed)
