"""Deterministic multi-party simulation: deal, verify, reconstruct, assemble.

Party ids double as evaluation points (party i holds P(i) from every
dealer). A scenario run is a pure function of its config: every random
draw comes from per-dealer substreams of the config seed, messages are
generated in (dealer, recipient) order, and equal configs produce
byte-identical reports. There is no complaint round; a failed
verification marks the dealer in the report and the recipient simply
never reuses that share.

The group key storyline: the group secret is the sum of dealer secrets
and the matching public key is the product of constant-term commitments,
known as soon as commitments are broadcast. At assembly time each
dealer's secret is rebuilt by interpolating the shares still on the
table; a dealer that withholds keeps everything it holds back, and a
false-share dealer withholds too, since denial is what the forgery is
for. Each pool's t-subsets are tried in lexicographic order until one
rebuilds a secret consistent with the dealer's own commitment; a dealer
with no such subset blocks the key.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from enum import Enum

from .attack import ForgeryStrategy, StrategyKind, forge_share
from .errors import ConfigInvalid, DealerMismatch, ForgeryImpossible, InsufficientShares
from .numtheory import GroupParams, Mode, gen_params
from .poly import SecretPolynomial, eval_integer, lagrange_zero, sample_polynomial
from .record import record
from .registry import get_params
from .rng import substream
from .vss import CommitmentVector, Share, aggregate_public_key, commit, verify_row

SCENARIO_NAMES = ("honest", "false-share", "order-shift", "withhold", "hardened-attack")

_SCENARIO_DEFAULT_PARAMS = {
    "honest": "small11",
    "false-share": "small11",
    "order-shift": "p23order11",
    "withhold": "small11",
    "hardened-attack": "p23q11",
}


# Every dealer's pool can hold all n shares, and a pool with no passing
# subset records every one of its t-subsets, so a run can cost up to
# n * C(n, t) attempts. The budget admits v64 n=16 t=8 (205,920) and
# refuses sizes that would never finish, such as n=40 t=20 (about 5.5e12).
MAX_RECONSTRUCTION_ATTEMPTS = 250_000

# Dealing and verification cost about n**3 big-int operations whatever t
# is, and with t = n the attempt budget alone would admit any n. Honest
# v64 n=t=64 `vsslab run` takes about 0.5 s on a 2-vCPU Xeon.
MAX_PARTIES = 64


class BehaviorKind(str, Enum):
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
        object.__setattr__(self, "targets", tuple(sorted(self.targets)))
        if self.kind is BehaviorKind.FALSE_SHARE_DEALER:
            if self.strategy is None or not self.targets:
                raise ConfigInvalid("a false-share dealer needs a strategy and targets")
        elif self.strategy is not None or self.targets:
            raise ConfigInvalid(f"{self.kind.value} takes no strategy or targets")

    @property
    def withholds_at_assembly(self) -> bool:
        return self.kind is not BehaviorKind.HONEST


@record
class GenSpec:
    """Generate parameters on the fly instead of using a registry entry."""

    bits: int
    mode: Mode


def _check_party_count(n: int) -> None:
    if n < 2:
        raise ConfigInvalid(f"need at least 2 parties, got n={n}")
    if n > MAX_PARTIES:
        raise ConfigInvalid(f"at most {MAX_PARTIES} parties are supported, got n={n}")


@record
class ScenarioConfig:
    scenario: str
    n: int
    t: int
    params_ref: "str | GenSpec"
    behaviors: Mapping[int, Behavior]
    seed: int

    def validate(self, params: GroupParams) -> None:
        _check_party_count(self.n)
        if not 2 <= self.t <= self.n:
            raise ConfigInvalid(f"threshold must satisfy 2 <= t <= n, got t={self.t}, n={self.n}")
        if not 0 <= self.seed < 1 << 64:
            raise ConfigInvalid("seed must fit in 64 bits")
        # counted, not materialized: n comes from untrusted transcripts
        if len(self.behaviors) != self.n or not all(1 <= pid <= self.n for pid in self.behaviors):
            raise ConfigInvalid("behaviors must cover exactly the parties 1..n")
        if self.n * math.comb(self.n, self.t) > MAX_RECONSTRUCTION_ATTEMPTS:
            raise ConfigInvalid(
                f"n = {self.n}, t = {self.t} needs n * C(n, t) > "
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
                raise ConfigInvalid(f"party {pid} targets unknown parties {sorted(bad)}")
            if pid in behavior.targets:
                raise ConfigInvalid(f"party {pid} cannot target itself")
            # m and m mod p corrupt the same field element; a larger m
            # only inflates the forged share
            if behavior.strategy is not None and behavior.strategy.multiplier >= params.p:
                raise ConfigInvalid(f"party {pid} needs a forgery multiplier below p = {params.p}")
        # the label is part of the transcript, so it must not misname the
        # behaviors; false-share and hardened-attack build the same ones
        # and differ only in default params, so those two labels swap
        if self.scenario in SCENARIO_NAMES:
            if self.behaviors != _built_in_behaviors(self.scenario, self.n):
                raise ConfigInvalid(
                    f"scenario {self.scenario!r} needs the behaviors build_scenario gives it")
        else:
            for name in SCENARIO_NAMES:
                if self.behaviors == _built_in_behaviors(name, self.n):
                    raise ConfigInvalid(
                        f"scenario {self.scenario!r} has the behaviors of built-in {name!r}")


class Verdict(str, Enum):
    KEY_ASSEMBLED = "key_assembled"
    KEY_BLOCKED = "key_blocked"


@record
class ForgeryAttempt:
    dealer: int
    recipient: int
    strategy: ForgeryStrategy
    outcome: str  # "forged" | "forgery_impossible"


@record
class DealingRound:
    commitments: tuple[CommitmentVector, ...]
    shares: tuple[Share, ...]  # canonical (dealer, recipient) order
    forgery_attempts: tuple[ForgeryAttempt, ...]


@record
class ReconstructionAttempt:
    subset: tuple[int, ...]
    value: int
    commitment_check: bool


@record
class DealerReconstruction:
    dealer: int
    pool: tuple[int, ...]  # recipients whose shares are on the table
    attempts: tuple[ReconstructionAttempt, ...]

    @property
    def recovered(self) -> int | None:
        """The secret rebuilt by the first passing subset, or None.

        Attempts stop at the first pass, so only the last one can have
        passed.
        """
        if self.attempts and self.attempts[-1].commitment_check:
            return self.attempts[-1].value
        return None


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
    shares: tuple[Share, ...]
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


def resolve_params(config: ScenarioConfig) -> GroupParams:
    """Registry lookup, or deterministic generation from the run seed."""
    if isinstance(config.params_ref, str):
        return get_params(config.params_ref)
    return gen_params(config.params_ref.bits, config.params_ref.mode, substream(config.seed, 0))


def _honest_value(poly: SecretPolynomial, recipient: int, params: GroupParams) -> int:
    # vulnerable dealers transmit the exact integer evaluation; hardened
    # dealers reduce into Z_q, where the share must live
    value = eval_integer(poly, recipient)
    return value % params.q if params.mode is Mode.HARDENED else value


def run_dealing_round(config: ScenarioConfig, params: GroupParams) -> DealingRound:
    """Sample every dealer's polynomial, broadcast commitments, deliver shares.

    Dealer i draws from substream(seed, i), so adding or reordering
    other dealers never changes what dealer i deals.
    """
    commitments = []
    shares = []
    attempts = []
    for dealer in range(1, config.n + 1):
        rng = substream(config.seed, dealer)
        poly = sample_polynomial(config.t, params.field_modulus, dealer, rng)
        commitments.append(commit(poly, params))
        behavior = config.behaviors[dealer]
        for recipient in range(1, config.n + 1):
            share = None
            if behavior.kind is BehaviorKind.FALSE_SHARE_DEALER and recipient in behavior.targets:
                try:
                    share = forge_share(poly, recipient, params, behavior.strategy)
                    outcome = "forged"
                except ForgeryImpossible:
                    outcome = "forgery_impossible"
                attempts.append(
                    ForgeryAttempt(dealer=dealer, recipient=recipient,
                                   strategy=behavior.strategy, outcome=outcome)
                )
            if share is None:
                share = Share(dealer=dealer, recipient=recipient,
                              value=_honest_value(poly, recipient, params))
            shares.append(share)
    return DealingRound(
        commitments=tuple(commitments),
        shares=tuple(shares),
        forgery_attempts=tuple(attempts),
    )


def run_verification_round(shares, commitments, params: GroupParams):
    """n x n matrix: entry [dealer-1][recipient-1] says the share verified.

    Hardened recipients additionally require the commitment vector to
    live in the prime-order subgroup and the share value to pass the
    range check; vulnerable recipients have neither defense.

    Each dealer's row is decided by one verify_row call. Its row check
    interpolates coefficients b_j from the first t shares; if
    g**b_j == c_j for every j, a share passes exactly when
    value == Q(k) (mod d), and subgroup membership is implied. Any other
    row, a forger's among them, falls back to the per-share checks, so
    every entry equals the per-share verdict. Every row starts with the
    same t recipients, so the rows share one Lagrange basis, kept by the
    bounded cache in poly.
    """
    commitments = tuple(commitments)
    n = len(commitments)
    by_dealer = {cv.dealer: cv for cv in commitments}
    rows: dict[int, list[Share]] = {dealer: [] for dealer in by_dealer}
    for share in shares:
        rows[share.dealer].append(share)
    matrix = [[False] * n for _ in range(n)]
    for dealer, row in rows.items():
        for share, ok in zip(row, verify_row(row, by_dealer[dealer], params)):
            matrix[dealer - 1][share.recipient - 1] = ok
    return tuple(tuple(row) for row in matrix)


def reconstruct_dealer_secret(shares, commits: CommitmentVector, params: GroupParams):
    """Interpolate the secret of dealer commits.dealer from t or more shares.

    t is len(commits.c), the number of committed coefficients. Returns
    (value, commitment_check): value is lagrange_zero over (recipient,
    share value reduced into the interpolation field), and
    commitment_check says whether g**value matches the dealer's
    constant-term commitment. Honest shares always pass; forged ones
    corrupt value and (outside a measure-1/p wraparound corner) fail.
    """
    shares = tuple(shares)
    t = len(commits.c)
    if len(shares) < t:
        raise InsufficientShares(f"need {t} shares, got {len(shares)}")
    for s in shares:
        if s.dealer != commits.dealer:
            raise DealerMismatch(
                f"share from dealer {s.dealer} in a pool for dealer {commits.dealer}"
            )
    m = params.field_modulus
    value = lagrange_zero(((s.recipient, s.value % m) for s in shares), m)
    check = pow(params.g, value, params.p) == commits.c[0]
    return value, check


def run_reconstruction_round(dealing: DealingRound, matrix, config: ScenarioConfig,
                             params: GroupParams):
    """Per-dealer reconstruction attempts over the share pool.

    The pool for dealer i holds i's shares kept by parties that are not
    withholding at assembly and that accepted the share at verification
    time. Its t-subsets are tried in lexicographic recipient order with
    reconstruct_dealer_secret, and the first whose result matches the
    dealer's own constant-term commitment is the recovered secret. The
    report lists the attempts made: up to and including the first pass,
    or all C(len(pool), t) of them when none passes, so the recovered
    secret is read off the last attempt.

    When verification accepted every share, all pools start with the
    same subset (the first t cooperating parties), and the bounded cache
    in poly computes its Lagrange weights once. The subsets a failing
    pool enumerates pass through that cache and may evict it, so the
    next pool can compute it once more.
    """
    withholders = {
        pid for pid, b in config.behaviors.items() if b.withholds_at_assembly
    }
    by_dealer = {cv.dealer: cv for cv in dealing.commitments}
    pools: dict[int, list[Share]] = {dealer: [] for dealer in range(1, config.n + 1)}
    for s in dealing.shares:
        if s.recipient not in withholders and matrix[s.dealer - 1][s.recipient - 1]:
            pools[s.dealer].append(s)
    results = []
    for dealer, pool in pools.items():
        attempts = []
        for subset in itertools.combinations(pool, config.t):
            value, ok = reconstruct_dealer_secret(subset, by_dealer[dealer], params)
            attempts.append(ReconstructionAttempt(
                subset=tuple(s.recipient for s in subset),
                value=value,
                commitment_check=ok,
            ))
            if ok:
                break
        results.append(DealerReconstruction(
            dealer=dealer,
            pool=tuple(s.recipient for s in pool),
            attempts=tuple(attempts),
        ))
    return tuple(results)


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
    raises RuntimeError.
    """
    reconstructions = tuple(reconstructions)
    if any(r.recovered is None for r in reconstructions):
        return Assembly(verdict=Verdict.KEY_BLOCKED, group_key=None, confirmed=None)
    period = params.q if params.mode is Mode.HARDENED else params.p - 1
    key = sum(r.recovered for r in reconstructions) % period
    if pow(params.g, key, params.p) != aggregate_public_key(commitments, params):
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
    behaviors: dict[int, Behavior] = {i: Behavior() for i in range(1, n + 1)}
    others = tuple(range(2, n + 1))
    if name in ("false-share", "hardened-attack"):
        behaviors[1] = Behavior(
            kind=BehaviorKind.FALSE_SHARE_DEALER,
            strategy=ForgeryStrategy(StrategyKind.ADD_P_MINUS_ONE, 1),
            targets=others,
        )
    elif name == "order-shift":
        behaviors[1] = Behavior(
            kind=BehaviorKind.FALSE_SHARE_DEALER,
            strategy=ForgeryStrategy(StrategyKind.ORDER_SHIFT, 1),
            targets=others,
        )
    elif name == "withhold":
        behaviors[1] = Behavior(kind=BehaviorKind.WITHHOLDING_DEALER)
    return behaviors


def build_scenario(name: str, seed: int, n: int = 5, t: int = 3,
                   params_ref: "str | GenSpec | None" = None) -> ScenarioConfig:
    """Config for one of the five built-in scenarios.

    honest          every party honest; the key assembles.
    false-share     party 1 sends shares shifted by p - 1 to everyone else
                    and withholds; verification stays green, the key blocks.
    order-shift     same, but shifted by ord(g) on a group where
                    ord(g) < p - 1, the exact acceptance boundary.
    withhold        party 1 deals honestly, then withholds; the others
                    rebuild its secret from their shares and assemble anyway.
    hardened-attack party 1 tries to forge on hardened parameters; every
                    attempt is impossible, honest shares go out instead.
    """
    if name not in SCENARIO_NAMES:
        raise ConfigInvalid(f"unknown scenario {name!r}; choose from {', '.join(SCENARIO_NAMES)}")
    if params_ref is None:
        params_ref = _SCENARIO_DEFAULT_PARAMS[name]
    # before n Behaviors are built: n can be anything a user typed
    _check_party_count(n)
    return ScenarioConfig(scenario=name, n=n, t=t, params_ref=params_ref,
                          behaviors=_built_in_behaviors(name, n), seed=seed)
