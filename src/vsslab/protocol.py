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
for. A dealer whose secret no subset can rebuild consistently with its
own commitment blocks the key.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .attack import ForgeryStrategy, StrategyKind, forge_share
from .errors import ConfigInvalid, DealerMismatch, ForgeryImpossible, InsufficientShares
from .numtheory import GroupParams, Mode, gen_params, mod_exp
from .poly import (
    SecretPolynomial,
    eval_integer,
    eval_mod,
    lagrange_zero,
    sample_polynomial,
    subset_zeros,
)
from .registry import get_params
from .rng import substream
from .vss import (
    CommitmentVector,
    Share,
    aggregate_public_key,
    commit,
    commitment_in_group,
    range_check,
    verify_share,
)

SCENARIO_NAMES = ("honest", "false-share", "order-shift", "withhold", "hardened-attack")

_SCENARIO_DEFAULT_PARAMS = {
    "honest": "small11",
    "false-share": "small11",
    "order-shift": "p23order11",
    "withhold": "small11",
    "hardened-attack": "p23q11",
}


# Every dealer's pool can hold all n shares, and every t-subset of it is
# reconstructed and recorded, so a run costs up to n * C(n, t) attempts.
# The budget admits v64 n=16 t=8 (205,920 attempts, about 50 MB of
# transcript) and refuses sizes that would never finish, such as n=40
# t=20 (about 5.5e12).
MAX_RECONSTRUCTION_ATTEMPTS = 250_000


class BehaviorKind(str, Enum):
    HONEST = "honest"
    FALSE_SHARE_DEALER = "false_share_dealer"
    WITHHOLDING_DEALER = "withholding_dealer"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class GenSpec:
    """Generate parameters on the fly instead of using a registry entry."""

    bits: int
    mode: Mode


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    n: int
    t: int
    params_ref: "str | GenSpec"
    behaviors: Mapping[int, Behavior]
    seed: int

    def validate(self, params: GroupParams) -> None:
        if self.n < 2:
            raise ConfigInvalid(f"need at least 2 parties, got n={self.n}")
        if not 2 <= self.t <= self.n:
            raise ConfigInvalid(f"threshold must satisfy 2 <= t <= n, got t={self.t}, n={self.n}")
        if not 0 <= self.seed < 1 << 64:
            raise ConfigInvalid("seed must fit in 64 bits")
        # counted, not materialized: n comes from untrusted transcripts
        if len(self.behaviors) != self.n or not all(1 <= pid <= self.n for pid in self.behaviors):
            raise ConfigInvalid("behaviors must cover exactly the parties 1..n")
        # n * C(n, i) grows with i up to min(t, n - t), so the running
        # product can stop as soon as it passes the budget, long before
        # an untrusted n makes it huge
        attempts, i = self.n, 0
        while attempts <= MAX_RECONSTRUCTION_ATTEMPTS and i < min(self.t, self.n - self.t):
            attempts = attempts * (self.n - i) // (i + 1)
            i += 1
        if attempts > MAX_RECONSTRUCTION_ATTEMPTS:
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


class Verdict(str, Enum):
    KEY_ASSEMBLED = "key_assembled"
    KEY_BLOCKED = "key_blocked"
    FORGERY_DETECTED = "forgery_detected"
    FORGERY_UNDETECTED_BUT_CORRUPTING = "forgery_undetected_but_corrupting"


@dataclass(frozen=True)
class ForgeryAttempt:
    dealer: int
    recipient: int
    strategy: ForgeryStrategy
    outcome: str  # "forged" | "forgery_impossible"


@dataclass(frozen=True)
class DealingRound:
    polynomials: tuple[SecretPolynomial, ...]  # private per party; never serialized
    commitments: tuple[CommitmentVector, ...]
    shares: tuple[Share, ...]  # canonical (dealer, recipient) order
    forgery_attempts: tuple[ForgeryAttempt, ...]


@dataclass(frozen=True)
class ReconstructionAttempt:
    subset: tuple[int, ...]
    value: int
    commitment_check: bool


@dataclass(frozen=True)
class DealerReconstruction:
    dealer: int
    pool: tuple[int, ...]  # recipients whose shares are on the table
    attempts: tuple[ReconstructionAttempt, ...]
    recovered: int | None


@dataclass(frozen=True)
class Assembly:
    verdict: Verdict
    group_key: int | None
    confirmed: bool | None


@dataclass(frozen=True)
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
    if params.mode is Mode.HARDENED:
        return eval_mod(poly, recipient, params.q)
    return eval_integer(poly, recipient)


def run_dealing_round(config: ScenarioConfig, params: GroupParams) -> DealingRound:
    """Sample every dealer's polynomial, broadcast commitments, deliver shares.

    Dealer i draws from substream(seed, i), so adding or reordering
    other dealers never changes what dealer i deals.
    """
    polys = []
    commitments = []
    shares = []
    attempts = []
    for dealer in range(1, config.n + 1):
        rng = substream(config.seed, dealer)
        poly = sample_polynomial(config.t, params.field_modulus, dealer, rng)
        polys.append(poly)
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
        polynomials=tuple(polys),
        commitments=tuple(commitments),
        shares=tuple(shares),
        forgery_attempts=tuple(attempts),
    )


def run_verification_round(shares, commitments, params: GroupParams):
    """n x n matrix: entry [dealer-1][recipient-1] says the share verified.

    Hardened recipients additionally require the commitment vector to
    live in the prime-order subgroup and the share value to pass the
    range check; vulnerable recipients have neither defense.
    """
    commitments = tuple(commitments)
    n = len(commitments)
    by_dealer = {cv.dealer: cv for cv in commitments}
    if params.mode is Mode.HARDENED:
        vector_ok = {d: commitment_in_group(cv, params) for d, cv in by_dealer.items()}
    else:
        vector_ok = {d: True for d in by_dealer}
    matrix = [[False] * n for _ in range(n)]
    for share in shares:
        ok = vector_ok[share.dealer]
        if ok and params.mode is Mode.HARDENED:
            ok = range_check(share, params)
        if ok:
            ok = verify_share(share, by_dealer[share.dealer], params)
        matrix[share.dealer - 1][share.recipient - 1] = ok
    return tuple(tuple(row) for row in matrix)


def reconstruct_dealer_secret(dealer: int, shares, commits: CommitmentVector,
                              params: GroupParams, t: int):
    """Interpolate one dealer's secret from t or more shares.

    Returns (value, commitment_check): value is lagrange_zero over
    (recipient, share value reduced into the interpolation field), and
    commitment_check says whether g**value matches the dealer's
    constant-term commitment. Honest shares always pass; forged ones
    corrupt value and (outside a measure-1/p wraparound corner) fail.
    """
    shares = tuple(shares)
    if len(shares) < t:
        raise InsufficientShares(f"need {t} shares, got {len(shares)}")
    for s in shares:
        if s.dealer != dealer:
            raise DealerMismatch(f"share from dealer {s.dealer} in a pool for dealer {dealer}")
    if commits.dealer != dealer:
        raise DealerMismatch(f"commitments of dealer {commits.dealer} used for dealer {dealer}")
    m = params.field_modulus
    value = lagrange_zero(((s.recipient, s.value % m) for s in shares), m)
    check = mod_exp(params.g, value, params.p) == commits.c[0]
    return value, check


def run_reconstruction_round(dealing: DealingRound, matrix, config: ScenarioConfig,
                             params: GroupParams):
    """Exhaustive per-dealer reconstruction attempts over the share pool.

    The pool for dealer i holds i's shares kept by parties that are not
    withholding at assembly and that accepted the share at verification
    time. Every t-subset is reported, in lexicographic recipient order;
    the first subset whose result matches the dealer's own constant-term
    commitment counts as the recovered secret.

    Each value equals reconstruct_dealer_secret on its subset, but the
    pool is interpolated only once: poly.subset_zeros adds each subset's
    share of the per-point residuals to the pool's base interpolation.
    That is the linearity predict_corruption states for forged shares.
    The commitment check runs once per distinct value, so a pool on a
    single polynomial (honest, withheld, or forged throughout) costs one
    exponentiation.
    """
    withholders = {
        pid for pid, b in config.behaviors.items() if b.withholds_at_assembly
    }
    by_dealer = {cv.dealer: cv for cv in dealing.commitments}
    m = params.field_modulus
    results = []
    for dealer in range(1, config.n + 1):
        pool = [
            s for s in dealing.shares
            if s.dealer == dealer
            and s.recipient not in withholders
            and matrix[dealer - 1][s.recipient - 1]
        ]
        recipients = tuple(s.recipient for s in pool)
        attempts = []
        recovered = None
        if len(pool) >= config.t:
            target = by_dealer[dealer].c[0]
            checks: dict[int, bool] = {}
            values = subset_zeros(((s.recipient, s.value % m) for s in pool), config.t, m)
            for subset, value in zip(itertools.combinations(recipients, config.t), values):
                ok = checks.get(value)
                if ok is None:
                    ok = checks[value] = mod_exp(params.g, value, params.p) == target
                attempts.append(ReconstructionAttempt(
                    subset=subset,
                    value=value,
                    commitment_check=ok,
                ))
                if ok and recovered is None:
                    recovered = value
        results.append(DealerReconstruction(
            dealer=dealer,
            pool=recipients,
            attempts=tuple(attempts),
            recovered=recovered,
        ))
    return tuple(results)


def assemble_group_key(reconstructions, commitments, params: GroupParams, matrix) -> Assembly:
    """Sum the recovered dealer secrets into the group key, or say why not.

    The sum is reduced modulo the exponent period (p - 1 vulnerable, q
    hardened) so that g**key always matches the aggregate public key
    whenever every per-dealer commitment check passed; a mismatch there
    is impossible by construction, and the corresponding verdict exists
    only so its absence can be asserted.
    """
    reconstructions = tuple(reconstructions)
    if any(r.recovered is None for r in reconstructions):
        return Assembly(verdict=Verdict.KEY_BLOCKED, group_key=None, confirmed=None)
    period = params.q if params.mode is Mode.HARDENED else params.p - 1
    key = sum(r.recovered for r in reconstructions) % period
    confirmed = mod_exp(params.g, key, params.p) == aggregate_public_key(commitments, params)
    if not confirmed:
        return Assembly(Verdict.FORGERY_UNDETECTED_BUT_CORRUPTING, key, False)
    detected = any(not entry for row in matrix for entry in row)
    verdict = Verdict.FORGERY_DETECTED if detected else Verdict.KEY_ASSEMBLED
    return Assembly(verdict=verdict, group_key=key, confirmed=True)


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
    return ScenarioConfig(scenario=name, n=n, t=t, params_ref=params_ref,
                          behaviors=behaviors, seed=seed)
