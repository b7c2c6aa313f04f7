"""End-to-end scenario runs: dealing, verification, reconstruction, verdicts."""

import itertools
import random
import time
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsslab.attack import ForgeryStrategy, StrategyKind
from vsslab.cli import main as cli_main
from vsslab.errors import ConfigInvalid, DealerMismatch, InsufficientShares
from vsslab.numtheory import Mode
from vsslab.poly import (
    _lagrange_basis,
    _lagrange_weights,
    eval_integer,
    sample_polynomial,
)
from vsslab.protocol import (
    MAX_PARTIES,
    MAX_RECONSTRUCTION_ATTEMPTS,
    SCENARIO_NAMES,
    Behavior,
    BehaviorKind,
    DealerReconstruction,
    GenSpec,
    ReconstructionAttempt,
    ScenarioConfig,
    Verdict,
    assemble_group_key,
    build_scenario,
    reconstruct_dealer_secret,
    resolve_params,
    run_scenario,
    run_verification_round,
)
from vsslab.registry import get_params
from vsslab.rng import substream
from vsslab.vss import (
    CommitmentVector,
    Share,
    commit,
    commitment_in_group,
    range_check,
    verify_share,
)


def honest_config(seed=7, n=5, t=3, params_ref="small11"):
    return build_scenario("honest", seed=seed, n=n, t=t, params_ref=params_ref)


def label_for(behaviors):
    """The label a config with these behaviors must carry: the first
    built-in scenario that builds them, else a custom one."""
    n = len(behaviors)
    return next((name for name in SCENARIO_NAMES
                 if build_scenario(name, seed=0, n=n).behaviors == behaviors), "custom")


def assert_cli_refuses_quickly(capsys, n, t, reason, scenario="honest"):
    started = time.monotonic()
    code = cli_main(["run", "--scenario", scenario, "--params", "v64",
                     "--n", n, "--t", t, "--seed", "1"])
    assert time.monotonic() - started < 1.0
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and reason in err


class TestConfigValidation:
    def test_build_scenario_covers_all_names(self):
        for name in SCENARIO_NAMES:
            cfg = build_scenario(name, seed=1)
            cfg.validate(resolve_params(cfg))

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            build_scenario("nonsense", seed=1)

    def test_threshold_bounds(self):
        with pytest.raises(ConfigInvalid):
            honest_config(t=1).validate(get_params("small11"))
        with pytest.raises(ConfigInvalid):
            honest_config(t=6).validate(get_params("small11"))

    def test_n_must_fit_in_the_field(self):
        # small11 interpolates mod 11, so 11 parties cannot get distinct points
        cfg = honest_config(n=11, t=3)
        with pytest.raises(ConfigInvalid):
            cfg.validate(get_params("small11"))

    def test_behaviors_must_cover_every_party(self):
        cfg = honest_config()
        broken = ScenarioConfig(
            scenario=cfg.scenario,
            n=cfg.n,
            t=cfg.t,
            params_ref=cfg.params_ref,
            behaviors={1: Behavior(BehaviorKind.HONEST)},
            seed=cfg.seed,
        )
        with pytest.raises(ConfigInvalid):
            broken.validate(get_params("small11"))

    def test_forgery_targets_cannot_include_self(self):
        strat = ForgeryStrategy(StrategyKind.ADD_P_MINUS_ONE, 1)
        cfg = honest_config()
        behaviors = dict(cfg.behaviors)
        behaviors[1] = Behavior(BehaviorKind.FALSE_SHARE_DEALER, strategy=strat, targets=(1, 2))
        bad = ScenarioConfig(
            scenario=cfg.scenario,
            n=cfg.n,
            t=cfg.t,
            params_ref=cfg.params_ref,
            behaviors=behaviors,
            seed=cfg.seed,
        )
        with pytest.raises(ConfigInvalid):
            bad.validate(get_params("small11"))

    def test_honest_behavior_rejects_attack_fields(self):
        with pytest.raises(ConfigInvalid):
            Behavior(BehaviorKind.HONEST, targets=(2,))
        with pytest.raises(ConfigInvalid):
            Behavior(
                BehaviorKind.HONEST,
                strategy=ForgeryStrategy(StrategyKind.ADD_P_MINUS_ONE, 1),
            )

    @pytest.mark.parametrize("name", ["small11", "p23order11"])
    def test_forgery_multiplier_must_be_below_p(self, name):
        # m and m mod p corrupt the same field element, so p - 1 is the
        # largest multiplier worth running
        params = get_params(name)
        cfg = build_scenario("false-share", seed=1, params_ref=name)
        for kind in StrategyKind:
            for m, ok in ((params.p - 1, True), (params.p, False)):
                forger = Behavior(BehaviorKind.FALSE_SHARE_DEALER,
                                  strategy=ForgeryStrategy(kind, m),
                                  targets=cfg.behaviors[1].targets)
                # no built-in forges with m > 1, so the config needs its own label
                config = ScenarioConfig("large-multiplier", cfg.n, cfg.t, cfg.params_ref,
                                        {**cfg.behaviors, 1: forger}, cfg.seed)
                if ok:
                    config.validate(params)
                else:
                    with pytest.raises(ConfigInvalid, match="multiplier below p"):
                        config.validate(params)

    def test_false_share_dealer_requires_strategy_and_targets(self):
        with pytest.raises(ConfigInvalid):
            Behavior(BehaviorKind.FALSE_SHARE_DEALER)

    @pytest.mark.parametrize("label,built", [
        ("honest", "false-share"), ("", "honest"), ("withhold", "honest"),
        ("order-shift", "false-share"), ("partial-forgery", "order-shift"),
    ])
    def test_a_label_must_fit_the_behaviors(self, label, built):
        cfg = build_scenario(built, seed=1)
        relabelled = ScenarioConfig(label, cfg.n, cfg.t, cfg.params_ref, cfg.behaviors, cfg.seed)
        with pytest.raises(ConfigInvalid, match="behaviors"):
            relabelled.validate(get_params(cfg.params_ref))

    def test_attempt_budget_admits_the_largest_baseline_size(self):
        assert 16 * comb(16, 8) <= MAX_RECONSTRUCTION_ATTEMPTS
        honest_config(n=16, t=8, params_ref="v64").validate(get_params("v64"))
        # C(n, t) = C(n, n - t): t near n is cheap, and the running
        # product must not pass the budget on its way to it
        for t in (38, 39, 40):
            honest_config(n=40, t=t, params_ref="v64").validate(get_params("v64"))

    @pytest.mark.parametrize("n,t", [(17, 8), (40, 20), (30, 25)])
    def test_attempt_budget_refuses_combinatorial_sizes(self, n, t):
        assert n * comb(n, t) > MAX_RECONSTRUCTION_ATTEMPTS
        with pytest.raises(ConfigInvalid, match="reconstruction attempts"):
            honest_config(n=n, t=t, params_ref="v64").validate(get_params("v64"))

    def test_party_cap_admits_the_cap(self):
        assert MAX_PARTIES == 64
        honest_config(n=64, t=64, params_ref="v64").validate(get_params("v64"))

    @pytest.mark.parametrize("n,t", [(65, 65), (1000, 1000)])
    def test_party_cap_refuses_larger_n(self, n, t):
        # n * C(n, n) = n is within the attempt budget; only the cap refuses
        assert n <= MAX_RECONSTRUCTION_ATTEMPTS
        with pytest.raises(ConfigInvalid, match="parties"):
            honest_config(n=n, t=t, params_ref="v64").validate(get_params("v64"))

    def test_cli_refuses_an_unbounded_run_quickly(self, capsys):
        assert_cli_refuses_quickly(capsys, "40", "20", "reconstruction attempts")

    def test_cli_refuses_too_many_parties_quickly(self, capsys):
        assert_cli_refuses_quickly(capsys, "1000", "1000", "parties")

    def test_cli_checks_the_party_cap_before_building_behaviors(self, capsys):
        # a forging scenario builds n Behaviors and a target tuple of n - 1
        # ids; the cap must refuse first
        assert_cli_refuses_quickly(capsys, "1000000", "3", "parties", scenario="false-share")

    @pytest.mark.parametrize("name", ["false-share", "order-shift", "hardened-attack"])
    def test_one_party_forging_scenario_reports_the_party_count(self, name):
        with pytest.raises(ConfigInvalid, match="need at least 2 parties"):
            build_scenario(name, seed=1, n=1, t=2)

    def test_generated_params_path(self):
        cfg = build_scenario("honest", seed=3, params_ref=GenSpec(bits=16, mode=Mode.VULNERABLE))
        params = resolve_params(cfg)
        assert params.p.bit_length() == 16
        report = run_scenario(cfg)
        assert report.verdict is Verdict.KEY_ASSEMBLED


class TestDealingShape:
    def test_counts_for_minimal_group(self):
        cfg = build_scenario("honest", seed=5, n=2, t=2)
        report = run_scenario(cfg)
        assert len(report.commitments) == 2
        assert len(report.shares) == 4  # every dealer sends to every party
        assert all(len(vec.c) == 2 for vec in report.commitments)

    def test_share_order_is_dealer_then_recipient(self):
        report = run_scenario(honest_config(n=3, t=2))
        assert [(s.dealer, s.recipient) for s in report.shares] == [
            (d, r) for d in (1, 2, 3) for r in (1, 2, 3)
        ]

    def test_dealer_polynomials_come_from_per_dealer_substreams(self):
        report = run_scenario(honest_config())
        params = report.params
        for dealer in range(1, 6):
            poly = sample_polynomial(3, params.field_modulus, dealer, substream(7, dealer))
            for share in report.shares:
                if share.dealer == dealer and not share.forged:
                    assert share.value == eval_integer(poly, share.recipient)

    def test_runs_are_deterministic(self):
        assert run_scenario(honest_config()) == run_scenario(honest_config())

    def test_different_seeds_give_different_shares(self):
        a = run_scenario(honest_config(seed=1))
        b = run_scenario(honest_config(seed=2))
        assert a.shares != b.shares


class TestReconstructDealerSecret:
    def test_worked_example_honest(self, small11):
        from vsslab.poly import SecretPolynomial

        poly = SecretPolynomial(dealer=1, coeffs=(3, 4), field_modulus=11)
        commits = commit(poly, small11)
        shares = [Share(dealer=1, recipient=1, value=7), Share(dealer=1, recipient=2, value=11)]
        value, check = reconstruct_dealer_secret(shares, commits, small11)
        assert (value, check) == (3, True)

    def test_worked_example_corrupted(self, small11):
        from vsslab.poly import SecretPolynomial

        poly = SecretPolynomial(dealer=1, coeffs=(3, 4), field_modulus=11)
        commits = commit(poly, small11)
        shares = [Share(dealer=1, recipient=1, value=7), Share(dealer=1, recipient=2, value=21)]
        value, check = reconstruct_dealer_secret(shares, commits, small11)
        assert (value, check) == (4, False)

    def test_insufficient_shares_raise(self, small11):
        from vsslab.poly import SecretPolynomial

        poly = SecretPolynomial(dealer=1, coeffs=(3, 4), field_modulus=11)
        commits = commit(poly, small11)
        with pytest.raises(InsufficientShares):
            reconstruct_dealer_secret([Share(dealer=1, recipient=1, value=7)], commits, small11)

    def test_a_share_from_another_dealer_raises(self, small11):
        from vsslab.poly import SecretPolynomial

        commits = commit(SecretPolynomial(dealer=1, coeffs=(3, 4), field_modulus=11), small11)
        shares = [Share(dealer=1, recipient=1, value=7), Share(dealer=2, recipient=2, value=11)]
        with pytest.raises(DealerMismatch):
            reconstruct_dealer_secret(shares, commits, small11)


class TestScenarioVerdicts:
    def test_honest_assembles(self):
        report = run_scenario(build_scenario("honest", seed=7))
        assert report.verdict is Verdict.KEY_ASSEMBLED
        assert report.group_key_confirmed
        assert all(all(row) for row in report.verification_matrix)
        assert report.forgery_attempts == ()

    def test_honest_key_matches_sum_of_secrets(self):
        report = run_scenario(build_scenario("honest", seed=7))
        params = report.params
        secrets = [
            sample_polynomial(3, params.field_modulus, d, substream(7, d)).secret
            for d in range(1, 6)
        ]
        assert report.group_key == sum(secrets) % (params.p - 1)
        assert pow(params.g, report.group_key, params.p) == report.aggregate_public_key

    def test_false_share_blocks_assembly_with_clean_matrix(self):
        report = run_scenario(build_scenario("false-share", seed=7))
        assert report.verdict is Verdict.KEY_BLOCKED
        # the whole point: every forged share passed verification
        assert all(all(row) for row in report.verification_matrix)
        assert len(report.forgery_attempts) == 4
        assert all(a.outcome == "forged" for a in report.forgery_attempts)
        assert report.group_key is None
        # dealer 1 withheld, and the forged pool fails every commitment check
        assert report.reconstructions[0].recovered is None
        assert all(not att.commitment_check for att in report.reconstructions[0].attempts)

    def test_false_share_corner_where_error_vanishes_in_the_exponent(self):
        # seed 20 gives dealer 1 the secret 0; the corrupted recovery is 10,
        # and 2^10 = 1 = 2^0 mod 11, so the commitment check cannot see it
        report = run_scenario(build_scenario("false-share", seed=20))
        assert report.verdict is Verdict.KEY_ASSEMBLED
        assert report.reconstructions[0].recovered == 10
        secrets = sample_polynomial(3, 11, 1, substream(20, 1)).secret
        assert secrets == 0
        assert report.group_key_confirmed  # error is 10 = 0 mod ord(g)

    def test_order_shift_assembles_when_shift_stays_below_p(self):
        # dealer 1 secret is 8; recovery 8 + 11 = 19 < 23 keeps the same
        # exponent class mod 11, so the check passes and the key assembles
        report = run_scenario(build_scenario("order-shift", seed=1))
        assert report.verdict is Verdict.KEY_ASSEMBLED
        assert all(all(row) for row in report.verification_matrix)
        rec = report.reconstructions[0]
        true_secret = sample_polynomial(3, 23, 1, substream(1, 1)).secret
        assert true_secret == 8
        assert rec.recovered == 19  # wrong field element, same exponent
        assert report.group_key_confirmed

    def test_order_shift_blocks_when_shift_wraps_the_field(self):
        # dealer 1 secret is 12; 12 + 11 = 23 wraps to 0, breaking the
        # exponent class, so every subset fails the commitment check
        report = run_scenario(build_scenario("order-shift", seed=2))
        assert report.verdict is Verdict.KEY_BLOCKED
        assert all(all(row) for row in report.verification_matrix)
        assert sample_polynomial(3, 23, 1, substream(2, 1)).secret == 12
        assert report.reconstructions[0].recovered is None

    def test_withhold_assembles_when_enough_holders_remain(self):
        # n=5, t=3: four holders remain for every dealer after party 1 exits
        report = run_scenario(build_scenario("withhold", seed=7))
        assert report.verdict is Verdict.KEY_ASSEMBLED
        assert report.forgery_attempts == ()

    def test_withhold_blocks_a_tight_threshold(self):
        report = run_scenario(build_scenario("withhold", seed=7, n=3, t=3))
        assert report.verdict is Verdict.KEY_BLOCKED
        assert report.group_key is None

    def test_hardened_attack_never_forges_and_assembles(self):
        report = run_scenario(build_scenario("hardened-attack", seed=7))
        assert report.verdict is Verdict.KEY_ASSEMBLED
        assert len(report.forgery_attempts) == 4
        assert all(a.outcome == "forgery_impossible" for a in report.forgery_attempts)
        # the would-be attacker fell back to honest shares, all verified
        assert all(not s.forged for s in report.shares)
        assert all(all(row) for row in report.verification_matrix)
        assert report.group_key_confirmed

    def test_built_in_scenarios_reach_every_verdict(self):
        verdicts = {
            run_scenario(build_scenario(name, seed=seed)).verdict
            for name in SCENARIO_NAMES
            for seed in range(4)
        }
        assert verdicts == set(Verdict)

    def test_assembly_raises_when_the_key_misses_the_aggregate(self):
        # unreachable from any scenario: every recovered value passed its
        # commitment check, so g**key always matches the aggregate key
        report = run_scenario(build_scenario("honest", seed=7))
        first, *rest = report.reconstructions
        *tried, passed = first.attempts
        shifted = DealerReconstruction(first.dealer, first.pool, (
            *tried, ReconstructionAttempt(passed.subset, passed.value + 1, passed.commitment_check)))
        assert shifted.recovered == first.recovered + 1
        with pytest.raises(RuntimeError, match="aggregate public key"):
            assemble_group_key((shifted, *rest), report.commitments, report.params,
                               report.verification_matrix)

    def test_hardened_key_reduces_mod_q(self):
        report = run_scenario(build_scenario("hardened-attack", seed=7))
        params = report.params
        secrets = [
            sample_polynomial(3, params.q, d, substream(7, d)).secret for d in range(1, 6)
        ]
        assert report.group_key == sum(secrets) % params.q
        assert pow(params.g, report.group_key, params.p) == report.aggregate_public_key


class TestVerificationRound:
    def test_hardened_out_of_range_share_gets_a_false_entry(self, p23q11):
        from vsslab.poly import SecretPolynomial
        from vsslab.protocol import run_verification_round

        p1 = SecretPolynomial(dealer=1, coeffs=(3, 4), field_modulus=11)
        p2 = SecretPolynomial(dealer=2, coeffs=(5, 1), field_modulus=11)
        commits = [commit(p1, p23q11), commit(p2, p23q11)]
        shares = [
            Share(dealer=1, recipient=1, value=eval_integer(p1, 1) % 11),
            # same exponent class but numerically above q: range check trips
            Share(dealer=1, recipient=2, value=eval_integer(p1, 2) % 11 + 11),
            Share(dealer=2, recipient=1, value=eval_integer(p2, 1) % 11),
            Share(dealer=2, recipient=2, value=eval_integer(p2, 2) % 11),
        ]
        assert run_verification_round(shares, commits, p23q11) == ((True, False), (True, True))

    def test_hardened_vector_outside_the_subgroup_rejects_the_whole_row(self, p23q11):
        from vsslab.protocol import run_dealing_round, run_verification_round
        from vsslab.vss import CommitmentVector

        cfg = honest_config(n=4, t=2, params_ref="p23q11")
        dealing = run_dealing_round(cfg, p23q11)
        honest = run_verification_round(dealing.shares, dealing.commitments, p23q11)
        assert all(all(row) for row in honest)
        # multiplying by 22 = -1 mod 23 moves one entry out of the order-11
        # subgroup while every share stays as dealt
        c = dealing.commitments[0].c
        bad = CommitmentVector(dealer=1, c=(c[0], c[1] * 22 % 23))
        matrix = run_verification_round(dealing.shares, (bad,) + dealing.commitments[1:], p23q11)
        assert matrix[0] == (False,) * 4
        assert matrix[1:] == honest[1:]

    def test_forged_shares_carry_their_strategy_as_provenance(self):
        report = run_scenario(build_scenario("false-share", seed=7))
        tagged = [s for s in report.shares if s.forged]
        assert len(tagged) == 4
        assert all(s.dealer == 1 for s in tagged)
        assert all(
            s.provenance.kind is StrategyKind.ADD_P_MINUS_ONE and s.provenance.multiplier == 1
            for s in tagged
        )


def per_share_matrix(shares, commitments, params):
    """The verification matrix as the per-share checks give it: in
    hardened mode commitment_in_group, then range_check, then
    verify_share; in vulnerable mode verify_share alone."""
    n = len(commitments)
    by_dealer = {cv.dealer: cv for cv in commitments}
    matrix = [[False] * n for _ in range(n)]
    for share in shares:
        commits = by_dealer[share.dealer]
        ok = True
        if params.mode is Mode.HARDENED:
            ok = commitment_in_group(commits, params) and range_check(share, params)
        matrix[share.dealer - 1][share.recipient - 1] = ok and verify_share(share, commits, params)
    return tuple(tuple(row) for row in matrix)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_verification_round_matches_the_per_share_oracle(data):
    params = get_params(data.draw(st.sampled_from(
        ["small11", "p23order11", "p23q11", "v32", "h32"])))
    hardened = params.mode is Mode.HARDENED
    n = data.draw(st.integers(min_value=2, max_value=6))
    t = data.draw(st.integers(min_value=2, max_value=n))
    seed = data.draw(st.integers(min_value=0, max_value=2**64 - 1))
    polys = [sample_polynomial(t, params.field_modulus, dealer, substream(seed, dealer))
             for dealer in range(1, n + 1)]
    # honest, the two forgeries, +1 tampering, a value at or above the
    # field modulus, or (None) no share at all, which shortens the row
    shifts = [0, 0, 0, params.p - 1, params.d, 1, params.field_modulus, None]
    shares = []
    for poly in polys:
        for k in range(1, n + 1):
            honest = eval_integer(poly, k) % params.q if hardened else eval_integer(poly, k)
            shift = data.draw(st.sampled_from(shifts))
            if shift is not None:
                shares.append(Share(dealer=poly.dealer, recipient=k, value=honest + shift))
    dealt = [commit(poly, params) for poly in polys]
    commitments = []
    for i, cv in enumerate(dealt):
        c = list(cv.c)
        j = data.draw(st.integers(min_value=0, max_value=t - 1))
        tamper = data.draw(st.sampled_from([None, None, "outside", "other"]))
        if tamper == "outside":
            # times -1: outside the subgroup whenever ord(g) is odd
            c[j] = c[j] * (params.p - 1) % params.p
        elif tamper == "other":
            c[j] = dealt[(i + 1) % n].c[j]
        commitments.append(CommitmentVector(dealer=cv.dealer, c=tuple(c)))
    shares = data.draw(st.permutations(shares))
    assert run_verification_round(shares, commitments, params) == per_share_matrix(
        shares, commitments, params)


class TestRowCheck:
    """Both paths of verify_row stay live: the row check decides every
    honest row, and only a forger's row falls back to verify_share."""

    @pytest.mark.parametrize("params_ref", ["v64", "h64"])
    def test_honest_rows_need_no_per_share_check(self, share_checks, params_ref):
        report = run_scenario(honest_config(n=12, t=6, params_ref=params_ref))
        assert all(all(row) for row in report.verification_matrix)
        assert share_checks == []

    def test_only_the_forged_row_falls_back(self, share_checks):
        report = run_scenario(build_scenario("false-share", seed=7, n=12, t=6, params_ref="v64"))
        assert all(all(row) for row in report.verification_matrix)
        assert share_checks == [(1, k) for k in range(1, 13)]


class TestPoolMechanics:
    def test_withholding_dealer_keeps_own_share_out_of_pools(self):
        report = run_scenario(build_scenario("withhold", seed=7))
        for rec in report.reconstructions:
            assert 1 not in rec.pool

    def test_false_share_dealer_also_withholds_at_assembly(self):
        report = run_scenario(build_scenario("false-share", seed=7))
        for rec in report.reconstructions:
            assert 1 not in rec.pool

    def test_honest_pools_contain_all_n_shares(self):
        report = run_scenario(honest_config())
        for rec in report.reconstructions:
            assert rec.pool == (1, 2, 3, 4, 5)

    def test_recovered_values_match_true_secrets_in_honest_runs(self):
        report = run_scenario(honest_config())
        params = report.params
        for rec in report.reconstructions:
            poly = sample_polynomial(3, params.field_modulus, rec.dealer, substream(7, rec.dealer))
            assert rec.recovered == poly.secret

    def test_attempts_stop_at_the_first_passing_subset(self):
        honest = run_scenario(honest_config(n=4, t=2)).reconstructions[0]
        assert [(a.subset, a.commitment_check) for a in honest.attempts] == [((1, 2), True)]
        # an all-forged pool has no passing subset, so every one is listed
        forged = run_scenario(build_scenario("false-share", seed=7)).reconstructions[0]
        assert len(forged.attempts) == comb(len(forged.pool), 3)
        assert [a.subset for a in forged.attempts] == list(itertools.combinations(forged.pool, 3))
        assert not any(a.commitment_check for a in forged.attempts)


@pytest.fixture
def tables_computed():
    """(weight tables, bases) computed since the fixture emptied poly's caches."""
    _lagrange_weights.cache_clear()
    _lagrange_basis.cache_clear()
    return lambda: (_lagrange_weights.cache_info().misses, _lagrange_basis.cache_info().misses)


class TestWeightMemo:
    """poly memoises weight tables and bases; a run computes each once."""

    @pytest.mark.parametrize("name", ["honest", "withhold", "hardened-attack"])
    def test_pools_with_one_first_subset_share_one_table(self, tables_computed, name):
        report = run_scenario(build_scenario(name, seed=7))
        assert len({rec.attempts[0].subset for rec in report.reconstructions}) == 1
        # every row is verified at parties (1, 2, 3): one basis
        assert tables_computed() == (1, 1)

    def test_a_forged_pool_enumerates_through_the_memo(self, tables_computed):
        # the forged pool tries all C(4, 3) subsets; the honest pools start
        # with its first subset and find it memoised
        report = run_scenario(build_scenario("false-share", seed=7))
        assert len(report.reconstructions[0].attempts) == comb(4, 3)
        assert tables_computed() == (comb(4, 3), 1)

    def test_pools_with_different_first_subsets_get_their_own_weights(self, tables_computed):
        from vsslab.protocol import run_dealing_round, run_reconstruction_round

        cfg = honest_config(n=5, t=3)
        params = resolve_params(cfg)
        dealing = run_dealing_round(cfg, params)
        # each dealer's share to the party with its own id is rejected, so
        # the first subsets are (2,3,4), (1,3,4), (1,2,4), (1,2,3), (1,2,3)
        matrix = tuple(tuple(k != d for k in range(1, 6)) for d in range(1, 6))
        for rec in run_reconstruction_round(dealing, matrix, cfg, params):
            poly = sample_polynomial(3, params.field_modulus, rec.dealer,
                                     substream(7, rec.dealer))
            assert [a.commitment_check for a in rec.attempts] == [True]
            assert rec.recovered == poly.secret
        assert tables_computed() == (4, 0)


class TestReconstructionMatchesOracle:
    """The recorded attempts are reconstruct_dealer_secret over every
    t-subset of the pool, cut after the first that passes."""

    @staticmethod
    def configs(params_ref, n, t, rng):
        for name in ("honest", "withhold"):
            yield build_scenario(name, seed=rng.randrange(1 << 64), n=n, t=t,
                                 params_ref=params_ref)
        # false-share dealers with random targets give mixed pools
        for _ in range(3):
            behaviors = {pid: Behavior() for pid in range(1, n + 1)}
            for dealer in rng.sample(range(1, n + 1), rng.randint(1, 2)):
                others = [k for k in range(1, n + 1) if k != dealer]
                behaviors[dealer] = Behavior(
                    BehaviorKind.FALSE_SHARE_DEALER,
                    strategy=ForgeryStrategy(rng.choice(list(StrategyKind)), rng.randint(1, 3)),
                    targets=tuple(rng.sample(others, rng.randint(1, len(others)))),
                )
            yield ScenarioConfig(label_for(behaviors), n, t, params_ref, behaviors,
                                 rng.randrange(1 << 64))

    @pytest.mark.parametrize("params_ref", ["small11", "p23order11", "v32"])
    def test_every_attempt_matches_the_per_subset_oracle(self, params_ref):
        rng = random.Random(params_ref)
        mixed_pools = stopped_early = exhausted = 0
        for n in range(2, 8):
            for t in range(2, n + 1):
                for cfg in self.configs(params_ref, n, t, rng):
                    report = run_scenario(cfg)
                    by_key = {(s.dealer, s.recipient): s for s in report.shares}
                    for rec, commits in zip(report.reconstructions, report.commitments):
                        oracle = [
                            ReconstructionAttempt(subset, *reconstruct_dealer_secret(
                                [by_key[rec.dealer, k] for k in subset],
                                commits, report.params))
                            for subset in itertools.combinations(rec.pool, t)
                        ]
                        first = next((i for i, a in enumerate(oracle) if a.commitment_check),
                                     None)
                        expected = oracle if first is None else oracle[:first + 1]
                        assert list(rec.attempts) == expected, (cfg, rec.dealer)
                        assert rec.recovered == (None if first is None else oracle[first].value)
                        mixed_pools += len({a.value for a in oracle}) > 1
                        stopped_early += len(rec.attempts) < len(oracle)
                        exhausted += bool(oracle) and first is None
        assert mixed_pools > 0
        assert stopped_early > 0 and exhausted > 0
