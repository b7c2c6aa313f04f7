"""End-to-end scenario runs: dealing, verification, reconstruction, verdicts."""

import itertools
import json
import random
import time
from collections import namedtuple
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsslab.attack import ForgeryStrategy, StrategyKind
from vsslab.cli import main as cli_main
from vsslab.errors import ConfigInvalid, VsslabError
from vsslab.numtheory import Mode, _g_row, _g_table
from vsslab.poly import (
    SecretPolynomial,
    _lagrange_weights,
    _packed_basis,
    horner,
    lagrange_zero,
    sample_polynomial,
)
from vsslab.protocol import (
    MAX_PARTIES,
    MAX_RECONSTRUCTION_ATTEMPTS,
    SCENARIO_NAMES,
    Behavior,
    BehaviorKind,
    DealerReconstruction,
    DealingRound,
    GenSpec,
    ReconstructionAttempt,
    ScenarioConfig,
    Verdict,
    assemble_group_key,
    build_scenario,
    reconstruct_pool,
    resolve_params,
    run_dealing_round,
    run_reconstruction_round,
    run_scenario,
    run_verification_round,
)
from vsslab.registry import get_params
from vsslab.rng import substream
from vsslab.transcript import audit_transcript, canonical_json, render_report
from vsslab.vss import (
    CommitmentVector,
    Share,
    commit,
    commitment_in_group,
    range_check,
    verify_row,
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


def splitting_config(n, t, targets, params_ref="v64", withholders=(), seed=1):
    """Party 1 forges to targets, the parties in withholders withhold, the
    rest are honest: the shape of the benchmark's partial-forgery ceremony."""
    behaviors = {pid: Behavior() for pid in range(1, n + 1)}
    for pid in withholders:
        behaviors[pid] = Behavior(BehaviorKind.WITHHOLDING_DEALER)
    behaviors[1] = Behavior(BehaviorKind.FALSE_SHARE_DEALER,
                            strategy=ForgeryStrategy(StrategyKind.ADD_P_MINUS_ONE, 1),
                            targets=targets)
    return ScenarioConfig(label_for(behaviors), n, t, params_ref, behaviors, seed)


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

    def test_a_repeated_forgery_target_is_refused(self):
        strat = ForgeryStrategy(StrategyKind.ADD_P_MINUS_ONE, 1)
        with pytest.raises(ConfigInvalid, match="^party 2 targeted twice$"):
            Behavior(BehaviorKind.FALSE_SHARE_DEALER, strategy=strat, targets=(2, 2, 4))
        with pytest.raises(ConfigInvalid, match="^party 4 targeted twice$"):
            Behavior(BehaviorKind.FALSE_SHARE_DEALER, strategy=strat, targets=(4, 2, 4))
        assert Behavior(BehaviorKind.FALSE_SHARE_DEALER, strategy=strat,
                        targets=(4, 2)).targets == (2, 4)

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

    def test_a_custom_label_builds_at_most_one_built_in_map(self, monkeypatch):
        import vsslab.protocol as protocol

        built = []
        original = protocol._built_in_behaviors

        def counting(name, n):
            built.append(name)
            return original(name, n)

        monkeypatch.setattr(protocol, "_built_in_behaviors", counting)
        params = get_params("v64")
        # a built-in's behaviors under another label: the first built-in
        # that builds them is named, and false-share comes before
        # hardened-attack
        for name in SCENARIO_NAMES:
            cfg = build_scenario(name, seed=1)
            named = "false-share" if name == "hardened-attack" else name
            built.clear()
            with pytest.raises(ConfigInvalid) as refused:
                ScenarioConfig("custom", cfg.n, cfg.t, "v64", cfg.behaviors, 1).validate(params)
            assert str(refused.value) == f"scenario 'custom' has the behaviors of built-in {named!r}"
            assert built == [named]
        withholding = {pid: Behavior(BehaviorKind.WITHHOLDING_DEALER) for pid in range(1, 6)}
        shifted = dict(build_scenario("order-shift", seed=1).behaviors)
        shifted[1] = Behavior(BehaviorKind.FALSE_SHARE_DEALER, targets=(2, 3),
                              strategy=ForgeryStrategy(StrategyKind.ORDER_SHIFT, 2))
        for behaviors, named in ((splitting_config(5, 3, (2, 4)).behaviors, "false-share"),
                                 (withholding, "withhold"), (shifted, "order-shift")):
            built.clear()
            ScenarioConfig("custom", 5, 3, "v64", behaviors, 1).validate(params)
            assert built == [named]

    def test_attempt_budget_admits_the_largest_baseline_size(self):
        assert 16 * comb(16, 8) <= MAX_RECONSTRUCTION_ATTEMPTS
        splitting_config(16, 8, (2, 5, 8, 11)).validate(get_params("v64"))
        # C(n, t) = C(n, n - t): t near n is cheap, and the running
        # product must not pass the budget on its way to it
        for t in (38, 39, 40):
            splitting_config(40, t, (2, 5, 8, 11)).validate(get_params("v64"))

    @pytest.mark.parametrize("n,t", [(17, 8), (40, 20), (30, 25)])
    def test_attempt_budget_refuses_combinatorial_sizes(self, n, t):
        # party 1 forges to some of the cooperating parties, so its pool
        # mixes forged and honest shares and may be enumerated
        assert n * comb(n, t) > MAX_RECONSTRUCTION_ATTEMPTS
        with pytest.raises(ConfigInvalid, match="reconstruction attempts"):
            splitting_config(n, t, (2, 5, 8, 11)).validate(get_params("v64"))

    def test_attempt_budget_admits_every_built_in_scenario_up_to_the_party_cap(self):
        # their pools all lie on one polynomial, one attempt each
        for name in SCENARIO_NAMES:
            params_ref = "h64" if name == "hardened-attack" else "v64"
            for t in range(2, MAX_PARTIES + 1):
                cfg = build_scenario(name, seed=1, n=MAX_PARTIES, t=t, params_ref=params_ref)
                cfg.validate(get_params(params_ref))

    @pytest.mark.parametrize("targets,withholders,refused", [
        ((2, 3), (), True),
        ((2, 3), (3,), True),            # still splits the cooperating 2, 4, ..., 40
        (tuple(range(2, 41)), (3,), False),
        (tuple(range(2, 41)), (), False),   # false-share's forger
        ((3,), (3,), False),             # forges only to a withholder: an honest pool
        ((3, 4), (3, 4), False),
    ], ids=["some", "some-with-a-withholder", "all-with-a-withholder", "all",
            "only-a-withholder", "only-withholders"])
    def test_attempt_budget_applies_exactly_when_targets_split_the_cooperating_parties(
            self, targets, withholders, refused):
        cfg = splitting_config(40, 20, targets, withholders=withholders)
        if refused:
            with pytest.raises(ConfigInvalid, match="party 1 forges to some but not all"):
                cfg.validate(get_params("v64"))
        else:
            cfg.validate(get_params("v64"))

    def test_party_cap_admits_the_cap(self):
        assert MAX_PARTIES == 64
        honest_config(n=64, t=64, params_ref="v64").validate(get_params("v64"))

    @pytest.mark.parametrize("n,t", [(65, 65), (1000, 1000)])
    def test_party_cap_refuses_larger_n(self, n, t):
        # n * C(n, n) = n is within the attempt budget; only the cap refuses
        assert n <= MAX_RECONSTRUCTION_ATTEMPTS
        with pytest.raises(ConfigInvalid, match="parties"):
            honest_config(n=n, t=t, params_ref="v64").validate(get_params("v64"))

    def test_cli_refuses_an_unbounded_run_quickly(self, tmp_path, capsys):
        # `vsslab run` builds only built-in scenarios, which the budget
        # admits; `vsslab verify` re-runs whatever config a transcript holds
        doc = json.loads(render_report(run_scenario(splitting_config(12, 6, (2, 5, 8, 11)))))
        doc["config"].update(n=40, t=20, behaviors={
            str(pid): doc["config"]["behaviors"].get(str(pid), {"kind": "honest"})
            for pid in range(1, 41)})
        path = tmp_path / "t.json"
        path.write_text(canonical_json(doc))
        started = time.monotonic()
        assert cli_main(["verify", str(path)]) == 1
        assert time.monotonic() - started < 1.0
        err = capsys.readouterr().err
        assert err.startswith("FAIL: config does not re-run: party 1 forges")
        assert "reconstruction attempts" in err

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
        # every dealer sends to every party
        assert [len(row) for row in report.shares] == [2, 2]
        assert all(len(vec.c) == 2 for vec in report.commitments)

    def test_share_order_is_dealer_then_recipient(self):
        report = run_scenario(honest_config(n=3, t=2))
        assert [[(s.dealer, s.recipient) for s in row] for row in report.shares] == [
            [(d, r) for r in (1, 2, 3)] for d in (1, 2, 3)
        ]

    def test_dealer_polynomials_come_from_per_dealer_substreams(self):
        report = run_scenario(honest_config())
        params = report.params
        assert report.forgery_attempts == ()  # so every share is the honest evaluation
        assert len(report.shares) == 5
        for dealer, row in enumerate(report.shares, 1):
            poly = sample_polynomial(3, params.field_modulus, dealer, substream(7, dealer))
            assert [s.dealer for s in row] == [dealer] * 5
            assert [s.value for s in row] == [horner(poly.coeffs, k) for k in range(1, 6)]

    def test_runs_are_deterministic(self):
        assert run_scenario(honest_config()) == run_scenario(honest_config())

    def test_different_seeds_give_different_shares(self):
        a = run_scenario(honest_config(seed=1))
        b = run_scenario(honest_config(seed=2))
        assert a.shares != b.shares


class TestReconstructPool:
    @staticmethod
    def worked_commits(small11):
        return commit(SecretPolynomial(dealer=1, coeffs=(3, 4), field_modulus=11), small11)

    @staticmethod
    def pool(*values):
        return [Share(dealer=1, recipient=k, value=v) for k, v in enumerate(values, 1)]

    def test_worked_example_honest(self, small11):
        attempts = reconstruct_pool(self.pool(7, 11), self.worked_commits(small11), small11)
        assert attempts == (ReconstructionAttempt((1, 2), 3, True),)

    def test_worked_example_corrupted(self, small11):
        attempts = reconstruct_pool(self.pool(7, 21), self.worked_commits(small11), small11)
        assert attempts == (ReconstructionAttempt((1, 2), 4, False),)

    def test_a_pool_shorter_than_t_gives_no_attempts(self, small11):
        assert reconstruct_pool(self.pool(7), self.worked_commits(small11), small11) == ()

    def test_a_share_from_another_dealer_raises(self, small11):
        shares = [Share(dealer=1, recipient=1, value=7), Share(dealer=2, recipient=2, value=11)]
        with pytest.raises(VsslabError, match="share from dealer 2 checked against commitments of 1"):
            reconstruct_pool(shares, self.worked_commits(small11), small11)

    def test_one_forged_share_stops_at_the_first_passing_subset(self, small11):
        # P = 3 + 4x; P(3) = 15 forged to 25 (shifted by p - 1 = 10):
        # (1, 2) lands on 3 at once, so the forged share is never tried
        attempts = reconstruct_pool(self.pool(7, 11, 25), self.worked_commits(small11), small11)
        assert attempts == (ReconstructionAttempt((1, 2), 3, True),)
        # with P(1) = 7 forged to 17 instead, its two subsets fail first
        attempts = reconstruct_pool(self.pool(17, 11, 15), self.worked_commits(small11), small11)
        assert [(a.subset, a.commitment_check) for a in attempts] == [
            ((1, 2), False), ((1, 3), False), ((2, 3), True)]
        assert attempts[-1].value == 3

    def test_a_pool_on_one_polynomial_is_decided_by_its_first_subset(self, small11):
        # every share shifted by p - 1 = 10 lies on 2 + 4x mod 11, so each
        # subset rebuilds 2 and fails; only the first is listed
        attempts = reconstruct_pool(self.pool(17, 21, 25), self.worked_commits(small11), small11)
        assert attempts == (ReconstructionAttempt((1, 2), 2, False),)

    @pytest.mark.parametrize("dealer", [1, 0, -1])
    def test_the_consistency_test_does_not_read_the_dealer_id(self, small11, dealer):
        # the same shifted pool under any dealer id the commitments carry:
        # the test that it lies on one polynomial decides it, and a
        # negative id no longer raises when the first subset fails
        commits = CommitmentVector(dealer, self.worked_commits(small11).c)
        pool = [Share(dealer=dealer, recipient=k, value=3 + 4 * k + 10) for k in (1, 2, 3)]
        attempts = reconstruct_pool(pool, commits, small11)
        assert attempts == (ReconstructionAttempt((1, 2), 2, False),)

    @pytest.mark.parametrize("recipient, message", [
        (2, "abscissa 2 appears twice"), (14, r"abscissa 14 outside \(0, 11\)")])
    def test_a_malformed_pool_on_one_polynomial_still_raises(self, small11, recipient, message):
        # the third share agrees with the line through the first two, so
        # only the abscissa checks of its subsets can refuse the pool
        third = Share(dealer=1, recipient=recipient, value=21 + 4 * (recipient - 2))
        shares = self.pool(17, 21) + [third]
        with pytest.raises(VsslabError, match=message):
            reconstruct_pool(shares, self.worked_commits(small11), small11)

    @pytest.mark.parametrize("third, message", [
        (Share(dealer=1, recipient=2, value=5), "abscissa 2 appears twice"),
        (Share(dealer=1, recipient=11, value=47), r"abscissa 11 outside \(0, 11\)"),
    ], ids=["repeated", "at-p"])
    def test_a_malformed_pool_is_refused_even_when_its_first_subset_passes(
            self, small11, third, message):
        # P = 3 + 4x: (1, 2) holds P(1) = 7 and P(2) = 11 and rebuilds 3,
        # but the third share repeats party 2 or sits at x = p
        with pytest.raises(VsslabError, match=message):
            reconstruct_pool(self.pool(7, 11) + [third], self.worked_commits(small11), small11)


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
        honest = run_scenario(build_scenario("honest", seed=7, params_ref="p23q11"))
        assert report.shares == honest.shares
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


class TestPerDealerInputs:
    """The rounds pair per-dealer sequences by position, so sequences of
    unequal lengths are refused, not cut to the shortest."""

    @pytest.fixture
    def honest(self):
        config = honest_config(seed=7)
        params = resolve_params(config)
        dealing = run_dealing_round(config, params)
        matrix = run_verification_round(dealing.shares, dealing.commitments, params)
        return config, params, dealing, matrix

    def test_verification_refuses_a_missing_row_of_shares(self, honest):
        _, params, dealing, _ = honest
        with pytest.raises(VsslabError, match="per-dealer inputs differ in length: 4, 5"):
            run_verification_round(dealing.shares[:-1], dealing.commitments, params)

    @pytest.mark.parametrize("cut", ["shares", "matrix", "matrix row"])
    def test_reconstruction_refuses_inputs_of_unequal_lengths(self, honest, cut):
        config, params, dealing, matrix = honest
        if cut == "shares":
            dealing = DealingRound(dealing.commitments, dealing.shares[:-1],
                                   dealing.forgery_attempts)
        elif cut == "matrix":
            matrix = matrix[:-1]
        else:
            matrix = (matrix[0][:-1], *matrix[1:])
        with pytest.raises(VsslabError, match="per-dealer inputs differ in length"):
            run_reconstruction_round(dealing, matrix, config, params)

    def test_assembly_refuses_a_missing_reconstruction(self, honest):
        config, params, dealing, matrix = honest
        reconstructions = run_reconstruction_round(dealing, matrix, config, params)
        with pytest.raises(VsslabError, match="per-dealer inputs differ in length: 4, 5"):
            assemble_group_key(reconstructions[:-1], dealing.commitments, params, matrix)


class TestVerificationRound:
    def test_hardened_out_of_range_share_gets_a_false_entry(self, p23q11):
        from vsslab.poly import SecretPolynomial
        from vsslab.protocol import run_verification_round

        p1 = SecretPolynomial(dealer=1, coeffs=(3, 4), field_modulus=11)
        p2 = SecretPolynomial(dealer=2, coeffs=(5, 1), field_modulus=11)
        commits = [commit(p1, p23q11), commit(p2, p23q11)]
        rows = [
            [Share(dealer=1, recipient=1, value=horner(p1.coeffs, 1) % 11),
             # same exponent class but numerically above q: range check trips
             Share(dealer=1, recipient=2, value=horner(p1.coeffs, 2) % 11 + 11)],
            [Share(dealer=2, recipient=1, value=horner(p2.coeffs, 1) % 11),
             Share(dealer=2, recipient=2, value=horner(p2.coeffs, 2) % 11)],
        ]
        assert run_verification_round(rows, commits, p23q11) == ((True, False), (True, True))

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

    def test_a_short_row_is_refused(self):
        config = honest_config(seed=7)
        params = resolve_params(config)
        dealing = run_dealing_round(config, params)
        rows = (dealing.shares[0][:2],) + dealing.shares[1:]
        with pytest.raises(VsslabError, match="a row of 2 shares is shorter than the threshold 3"):
            run_verification_round(rows, dealing.commitments, params)

    def test_forgery_attempts_name_the_forged_shares_and_strategy(self):
        report = run_scenario(build_scenario("false-share", seed=7))
        honest = run_scenario(build_scenario("honest", seed=7))
        changed = {(s.dealer, s.recipient)
                   for row, honest_row in zip(report.shares, honest.shares)
                   for s, h in zip(row, honest_row) if s != h}
        assert {(a.dealer, a.recipient) for a in report.forgery_attempts} == changed == {
            (1, k) for k in range(2, 6)}
        assert all(a.outcome == "forged" and a.strategy.kind is StrategyKind.ADD_P_MINUS_ONE
                   and a.strategy.multiplier == 1 for a in report.forgery_attempts)


# Share itself refuses recipient 0, so a point set that holds one comes
# from a caller's own type with the same three fields
Point = namedtuple("Point", "dealer recipient value")


@pytest.mark.parametrize("params_ref, recipients, message", [
    ("small11", (1, 2, 1, 3), "abscissa 1 appears twice"),
    ("small11", (1, 2, 3, 2), "abscissa 2 appears twice"),
    ("small11", (0, 1, 2), "abscissa 0 would address the secret itself"),
    ("small11", (1, 2, 3, 11), r"abscissa 11 outside \(0, 11\)"),
    ("small11", (1, 2, 14), r"abscissa 14 outside \(0, 11\)"),
    # hardened: the field is Z_q, so a recipient below p but not below q
    ("p23q11", (1, 2, 3, 12), r"abscissa 12 outside \(0, 11\)"),
], ids=["repeated", "repeated-late", "zero", "at-p", "above-p", "at-q"])
def test_rows_and_pools_refuse_malformed_recipients_alike(params_ref, recipients, message):
    params = get_params(params_ref)
    poly = sample_polynomial(3, params.field_modulus, 1, substream(7, 1))
    shares = [Point(1, k, horner(poly.coeffs, k) % params.field_modulus) for k in recipients]
    commits = commit(poly, params)
    with pytest.raises(VsslabError, match=message) as row:
        verify_row(shares, commits, params)
    with pytest.raises(VsslabError) as pool:
        reconstruct_pool(shares, commits, params)
    assert str(row.value) == str(pool.value)


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
    # honest, the two forgeries, +1 tampering, or a value at or above the
    # field modulus; rows are positional, so each is complete and in order
    # (test_vss checks verify_row on arbitrary recipient lists)
    shifts = [0, 0, 0, params.p - 1, params.d, 1, params.field_modulus]
    rows = []
    for poly in polys:
        row = []
        for k in range(1, n + 1):
            honest = horner(poly.coeffs, k) % params.q if hardened else horner(poly.coeffs, k)
            shift = data.draw(st.sampled_from(shifts))
            row.append(Share(dealer=poly.dealer, recipient=k, value=honest + shift))
        rows.append(row)
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
    assert run_verification_round(rows, commitments, params) == per_share_matrix(
        [s for row in rows for s in row], commitments, params)


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


@pytest.fixture
def rows_cached():
    """(hits, misses) of the row cache since the fixture emptied it."""
    _g_row.cache_clear()
    return lambda: _g_row.cache_info()[:2]


class TestRowCache:
    """A run computes each dealer's row of powers of g once: commit's
    row misses, and the row check of an honest row reads it."""

    @pytest.mark.parametrize("params_ref", ["v64", "h64"])
    def test_an_honest_run_has_n_misses_and_n_hits(self, rows_cached, params_ref):
        run_scenario(honest_config(n=12, t=6, params_ref=params_ref))
        assert rows_cached() == (12, 12)

    def test_only_the_forged_row_misses(self, rows_cached, share_checks):
        run_scenario(build_scenario("false-share", seed=7, n=12, t=6, params_ref="v64"))
        # 12 committed rows, then the forger's interpolated row
        assert rows_cached() == (11, 13)
        assert share_checks == [(1, k) for k in range(1, 13)]

    def test_every_honest_row_hits_at_the_widest_run(self, rows_cached, share_checks):
        # n = MAX_PARTIES fills the cache at commit; the forger's miss at
        # row 1 evicts row 1's commit, the least recently used entry
        run_scenario(build_scenario("false-share", seed=1, n=MAX_PARTIES, t=32,
                                    params_ref="v64"))
        assert rows_cached() == (MAX_PARTIES - 1, MAX_PARTIES + 1)
        assert share_checks == [(1, k) for k in range(1, MAX_PARTIES + 1)]

    def test_the_cache_holds_a_row_per_party(self):
        assert _g_row.cache_info().maxsize == MAX_PARTIES


class TestPowersOfG:
    """Every power of g on the ceremony path comes from the group's table."""

    @pytest.fixture
    def builtin_pows(self, monkeypatch):
        """(base, exponent, modulus) of every builtin pow call in vss and protocol."""
        import vsslab.protocol as protocol
        import vsslab.vss as vss

        calls = []

        def counting_pow(*args):
            calls.append(args)
            return pow(*args)

        for module in (vss, protocol):
            monkeypatch.setattr(module, "pow", counting_pow, raising=False)
        return calls

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_no_builtin_pow_has_base_g(self, builtin_pows, name):
        # 64-bit groups: in an 11-element group a Horner base of
        # verify_share or a commitment equals g by chance
        params_ref = "h64" if name == "hardened-attack" else "v64"
        _g_table.cache_clear()
        report = run_scenario(build_scenario(name, seed=7, params_ref=params_ref))
        assert audit_transcript(render_report(report)) == []
        assert not [args for args in builtin_pows if args[0] == report.params.g]
        # one table for the group, which the audit's regeneration reuses
        assert _g_table.cache_info().misses == 1

    def test_the_counting_pow_sees_the_per_share_fallback(self, builtin_pows):
        # the forger's row falls back to verify_share, whose Horner steps
        # keep the builtin pow: the patch above is live
        run_scenario(build_scenario("false-share", seed=7, params_ref="v64"))
        assert builtin_pows


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
        # a pool mixing forged and honest shares with no passing subset
        # lists every one
        mixed = run_scenario(splitting_config(5, 3, (2, 4), "small11", seed=7)).reconstructions[0]
        assert mixed.pool == (2, 3, 4, 5)
        assert [a.subset for a in mixed.attempts] == list(itertools.combinations(mixed.pool, 3))
        assert not any(a.commitment_check for a in mixed.attempts)

    def test_an_all_forged_pool_lists_one_attempt(self):
        # every forged share carries the one shift, so the pool lies on
        # one polynomial: its first subset fails, and so would every other
        forged = run_scenario(build_scenario("false-share", seed=7)).reconstructions[0]
        assert forged.pool == (2, 3, 4, 5)
        assert [(a.subset, a.commitment_check) for a in forged.attempts] == [((2, 3, 4), False)]
        assert 1 == len(forged.attempts) < comb(len(forged.pool), 3)


@pytest.fixture
def tables_computed():
    """(weight tables, bases) computed since the fixture emptied poly's caches."""
    _lagrange_weights.cache_clear()
    _packed_basis.cache_clear()
    return lambda: (_lagrange_weights.cache_info().misses, _packed_basis.cache_info().misses)


class TestWeightMemo:
    """poly memoises weight tables and bases; a run computes each once."""

    @pytest.mark.parametrize("name", ["honest", "withhold", "hardened-attack"])
    def test_pools_with_one_first_subset_share_one_table(self, tables_computed, name):
        report = run_scenario(build_scenario(name, seed=7))
        assert len({rec.attempts[0].subset for rec in report.reconstructions}) == 1
        # every row is verified at parties (1, 2, 3): one basis
        assert tables_computed() == (1, 1)

    def test_a_forged_pool_enumerates_through_the_memo(self, tables_computed):
        # the mixed pool tries all C(4, 3) subsets; the honest pools start
        # with its first subset and find it memoised. Bases: the rows'
        # (1, 2, 3), and (2, 3, 4) for the mixed pool's consistency test
        report = run_scenario(splitting_config(5, 3, (2, 4), "small11", seed=7))
        assert len(report.reconstructions[0].attempts) == comb(4, 3)
        assert tables_computed() == (comb(4, 3), 2)

    def test_a_consistent_forged_pool_asks_for_one_basis(self, tables_computed):
        # false-share's forged pool fails at (2, 3, 4) and lies on one
        # polynomial: one weight table shared with the honest pools, and
        # one basis beside the rows'
        report = run_scenario(build_scenario("false-share", seed=7))
        assert len(report.reconstructions[0].attempts) == 1
        assert tables_computed() == (1, 2)

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


def enumerate_pool(points, t, commits, params):
    """Every t-subset's attempt in lexicographic order, by lagrange_zero
    and the builtin pow; points are (recipient, value mod the field)."""
    m = params.field_modulus
    oracle = []
    for subset in itertools.combinations(points, t):
        value = lagrange_zero(subset, m)
        oracle.append(ReconstructionAttempt(tuple(k for k, _ in subset), value,
                                            pow(params.g, value, params.p) == commits.c[0]))
    return oracle


def on_one_polynomial(points, t, m):
    """Whether every point lies on the polynomial through the first t:
    its value at k is lagrange_zero of the first t moved left by k."""
    first = points[:t]
    return all(lagrange_zero([((x - k) % m, y) for x, y in first], m) == v
               for k, v in points[t:])


def expected_attempts(oracle, points, t, m):
    """What reconstruct_pool must list: up to the first passing subset;
    when none passes, the first alone for a pool on one polynomial and
    every subset otherwise."""
    first = next((i for i, a in enumerate(oracle) if a.commitment_check), None)
    if first is not None:
        return oracle[:first + 1]
    return oracle[:1] if on_one_polynomial(points, t, m) else oracle


class TestReconstructionMatchesOracle:
    """The recorded attempts are lagrange_zero and the c_0 check over the
    t-subsets of the pool, cut after the first that passes, or after the
    first when the pool lies on one polynomial."""

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

    @pytest.mark.parametrize("params_ref", ["small11", "p23order11", "v32", "p23q11"])
    def test_every_attempt_matches_the_per_subset_oracle(self, params_ref):
        rng = random.Random(params_ref)
        mixed_pools = stopped_early = exhausted = decided_by_first = 0
        for n in range(2, 8):
            for t in range(2, n + 1):
                for cfg in self.configs(params_ref, n, t, rng):
                    report = run_scenario(cfg)
                    params = report.params
                    m = params.field_modulus
                    values = {(s.dealer, s.recipient): s.value % m
                              for row in report.shares for s in row}
                    for rec, commits in zip(report.reconstructions, report.commitments):
                        points = [(k, values[rec.dealer, k]) for k in rec.pool]
                        oracle = enumerate_pool(points, t, commits, params)
                        first = next((i for i, a in enumerate(oracle) if a.commitment_check),
                                     None)
                        assert list(rec.attempts) == expected_attempts(oracle, points, t, m), (
                            cfg, rec.dealer)
                        assert rec.recovered == (None if first is None else oracle[first].value)
                        mixed_pools += len({a.value for a in oracle}) > 1
                        stopped_early += len(rec.attempts) < len(oracle)
                        failed = bool(oracle) and first is None
                        exhausted += failed and len(rec.attempts) == len(oracle) > 1
                        decided_by_first += failed and len(rec.attempts) == 1 < len(oracle)
        assert stopped_early > 0
        # a hardened forger deals honestly, so only vulnerable sets mix
        if get_params(params_ref).mode is Mode.VULNERABLE:
            assert mixed_pools > 0 and exhausted > 0 and decided_by_first > 0


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_reconstruct_pool_matches_exhaustive_enumeration(data):
    """One pool against every t-subset by lagrange_zero and builtin pow:
    honest, every share shifted by one constant, or a proper subset
    shifted; wider than t, exactly t, or shorter."""
    params = get_params(data.draw(st.sampled_from(["small11", "p23order11", "v32", "p23q11"])))
    m = params.field_modulus
    t = data.draw(st.integers(min_value=2, max_value=5))
    # wider pools twice as often: only they can be inconsistent
    wide = st.integers(min_value=t + 1, max_value=min(8, m - 1))
    n = data.draw(st.sampled_from([wide, wide, st.just(t), st.integers(0, t - 1)]).flatmap(
        lambda size: size))
    recipients = data.draw(st.lists(st.integers(min_value=1, max_value=min(m - 1, 12)),
                                    min_size=n, max_size=n, unique=True))
    poly = sample_polynomial(t, m, 1, substream(data.draw(st.integers(0, 2**64 - 1)), 1))
    shape = data.draw(st.sampled_from(["honest", "shift-all", "shift-some", "shift-some"]))
    shifted = set()
    if shape == "shift-all":
        shifted = set(recipients)
    elif shape == "shift-some" and n > 1:
        shifted = data.draw(st.sets(st.sampled_from(recipients), min_size=1, max_size=n - 1))
    shift = data.draw(st.integers(min_value=1, max_value=3 * params.p))
    pool = [Share(dealer=1, recipient=k,
                  value=horner(poly.coeffs, k) + (shift if k in shifted else 0))
            for k in recipients]
    commits = commit(poly, params)

    attempts = reconstruct_pool(pool, commits, params)
    points = [(s.recipient, s.value % m) for s in pool]
    oracle = enumerate_pool(points, t, commits, params)
    first = next((i for i, a in enumerate(oracle) if a.commitment_check), None)
    recovered = DealerReconstruction(1, tuple(recipients), attempts).recovered
    assert recovered == (None if first is None else oracle[first].value)
    assert attempts[:1] == tuple(oracle[:1])
    if oracle and first is None:
        assert (len(attempts) == 1) == on_one_polynomial(points, t, m)
    assert list(attempts) == expected_attempts(oracle, points, t, m)
