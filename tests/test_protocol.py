"""End-to-end scenario runs: dealing, verification, reconstruction, verdicts."""

import itertools
import random
import time
from math import comb

import pytest

from vsslab.attack import ForgeryStrategy, StrategyKind
from vsslab.cli import main as cli_main
from vsslab.errors import ConfigInvalid, InsufficientShares
from vsslab.numtheory import Mode
from vsslab.poly import eval_integer, sample_polynomial
from vsslab.protocol import (
    MAX_RECONSTRUCTION_ATTEMPTS,
    SCENARIO_NAMES,
    Behavior,
    BehaviorKind,
    GenSpec,
    ScenarioConfig,
    Verdict,
    build_scenario,
    reconstruct_dealer_secret,
    resolve_params,
    run_scenario,
)
from vsslab.registry import get_params
from vsslab.rng import substream
from vsslab.vss import Share, commit


def honest_config(seed=7, n=5, t=3, params_ref="small11"):
    return build_scenario("honest", seed=seed, n=n, t=t, params_ref=params_ref)


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

    def test_false_share_dealer_requires_strategy_and_targets(self):
        with pytest.raises(ConfigInvalid):
            Behavior(BehaviorKind.FALSE_SHARE_DEALER)

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

    def test_cli_refuses_an_unbounded_run_quickly(self, capsys):
        started = time.monotonic()
        code = cli_main(["run", "--scenario", "honest", "--params", "v64",
                         "--n", "40", "--t", "20", "--seed", "1"])
        assert time.monotonic() - started < 1.0
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "reconstruction attempts" in err

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
        value, check = reconstruct_dealer_secret(1, shares, commits, small11, t=2)
        assert (value, check) == (3, True)

    def test_worked_example_corrupted(self, small11):
        from vsslab.poly import SecretPolynomial

        poly = SecretPolynomial(dealer=1, coeffs=(3, 4), field_modulus=11)
        commits = commit(poly, small11)
        shares = [Share(dealer=1, recipient=1, value=7), Share(dealer=1, recipient=2, value=21)]
        value, check = reconstruct_dealer_secret(1, shares, commits, small11, t=2)
        assert (value, check) == (4, False)

    def test_insufficient_shares_raise(self, small11):
        from vsslab.poly import SecretPolynomial

        poly = SecretPolynomial(dealer=1, coeffs=(3, 4), field_modulus=11)
        commits = commit(poly, small11)
        with pytest.raises(InsufficientShares):
            reconstruct_dealer_secret(
                1, [Share(dealer=1, recipient=1, value=7)], commits, small11, t=2
            )


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
        from vsslab.poly import SecretPolynomial, eval_mod
        from vsslab.protocol import run_verification_round

        p1 = SecretPolynomial(dealer=1, coeffs=(3, 4), field_modulus=11)
        p2 = SecretPolynomial(dealer=2, coeffs=(5, 1), field_modulus=11)
        commits = [commit(p1, p23q11), commit(p2, p23q11)]
        shares = [
            Share(dealer=1, recipient=1, value=eval_mod(p1, 1, 11)),
            # same exponent class but numerically above q: range check trips
            Share(dealer=1, recipient=2, value=eval_mod(p1, 2, 11) + 11),
            Share(dealer=2, recipient=1, value=eval_mod(p2, 1, 11)),
            Share(dealer=2, recipient=2, value=eval_mod(p2, 2, 11)),
        ]
        assert run_verification_round(shares, commits, p23q11) == ((True, False), (True, True))

    def test_forged_shares_carry_their_strategy_as_provenance(self):
        report = run_scenario(build_scenario("false-share", seed=7))
        tagged = [s for s in report.shares if s.forged]
        assert len(tagged) == 4
        assert all(s.dealer == 1 for s in tagged)
        assert all(
            s.provenance.kind is StrategyKind.ADD_P_MINUS_ONE and s.provenance.multiplier == 1
            for s in tagged
        )


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

    def test_every_t_subset_appears_once_in_attempts(self):
        report = run_scenario(honest_config(n=4, t=2))
        rec = report.reconstructions[0]
        subsets = [att.subset for att in rec.attempts]
        assert subsets == sorted(set(subsets))
        # the report is exhaustive: every subset is listed, even after
        # one has already passed the commitment check
        assert len(subsets) == comb(4, 2)


class TestReconstructionMatchesOracle:
    """Every recorded attempt equals reconstruct_dealer_secret on its subset."""

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
            yield ScenarioConfig("false-share", n, t, params_ref, behaviors,
                                 rng.randrange(1 << 64))

    @pytest.mark.parametrize("params_ref", ["small11", "p23order11", "v32"])
    def test_every_attempt_matches_the_per_subset_oracle(self, params_ref):
        rng = random.Random(params_ref)
        mixed_pools = 0
        for n in range(2, 8):
            for t in range(2, n + 1):
                for cfg in self.configs(params_ref, n, t, rng):
                    report = run_scenario(cfg)
                    by_key = {(s.dealer, s.recipient): s for s in report.shares}
                    for rec, commits in zip(report.reconstructions, report.commitments):
                        if len(rec.pool) < t:
                            assert rec.attempts == ()
                            continue
                        expected_subsets = list(itertools.combinations(rec.pool, t))
                        assert [a.subset for a in rec.attempts] == expected_subsets
                        for att in rec.attempts:
                            shares = [by_key[rec.dealer, k] for k in att.subset]
                            assert (att.value, att.commitment_check) == reconstruct_dealer_secret(
                                rec.dealer, shares, commits, report.params, t
                            ), (cfg, rec.dealer, att.subset)
                        passing = [a.value for a in rec.attempts if a.commitment_check]
                        assert rec.recovered == (passing[0] if passing else None)
                        mixed_pools += len({a.value for a in rec.attempts}) > 1
        assert mixed_pools > 0
