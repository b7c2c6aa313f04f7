"""End-to-end scenario runs: dealing, verification, reconstruction, verdicts."""

import itertools
import json
import random
import re
import time
from math import comb
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsslab.attack import ForgeryStrategy, StrategyKind
from vsslab.cli import main as cli_main
from vsslab.errors import ConfigInvalid, VsslabError
from vsslab.numtheory import Mode, _g_row, _g_table
from vsslab.poly import _lagrange_weights, _packed_basis, _row, evaluate, sample_polynomial
from vsslab.protocol import (
    MAX_PARTIES,
    MAX_RECONSTRUCTION_ATTEMPTS,
    SCENARIO_NAMES,
    Behavior,
    BehaviorKind,
    DealerReconstruction,
    DealingRound,
    ForgeryAttempt,
    GenSpec,
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
from vsslab.vss import CommitmentVector, commit, verify_row, verify_share

from conftest import per_share
from reference_model import exact_value, honest_share, interpolate_at_zero


def honest_config(seed=7, n=5, t=3, params_ref="small11"):
    return build_scenario("honest", seed=seed, n=n, t=t, params_ref=params_ref)


def pools(report):
    """pools[d - 1] is dealer d's pool, by a transcript's rebuild rule: the
    parties, in order, that accepted its share and do not withhold."""
    withholders = {pid for pid, b in report.config.behaviors.items() if b.withholds_at_assembly}
    return [tuple(k for k, ok in enumerate(row, 1) if ok and k not in withholders)
            for row in report.verification_matrix]


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


def forger(strategy=None, targets=(2, 3)):
    """small11 3/2 with party 1 forging to targets, seed 7."""
    behaviors = {pid: Behavior() for pid in range(1, 4)}
    behaviors[1] = Behavior(BehaviorKind.FALSE_SHARE_DEALER, targets=targets,
                            strategy=strategy or ForgeryStrategy(StrategyKind.ADD_P_MINUS_ONE))
    return ScenarioConfig("custom", 3, 2, "small11", behaviors, 7)


# Every integer field of a config, given as a bool or a float: a transcript
# can hold neither, so the config must not run
NOT_AN_INT = {
    "seed-bool": (lambda: build_scenario("honest", seed=True), "seed .* got True"),
    "seed-float": (lambda: build_scenario("honest", seed=7.0), "seed .* got 7.0"),
    "seed-float-generated": (
        lambda: build_scenario("honest", seed=7.5, params_ref=GenSpec(16, Mode.VULNERABLE)),
        "seed .* got 7.5"),
    "n-bool": (lambda: build_scenario("honest", seed=7, n=True), "n .* got True"),
    "n-float": (lambda: build_scenario("honest", seed=7, n=5.0), "n .* got 5.0"),
    "t-bool": (lambda: build_scenario("honest", seed=7, n=2, t=True), "t .* got True"),
    "t-float": (lambda: build_scenario("honest", seed=7, t=3.0), "t .* got 3.0"),
    "multiplier-bool": (
        lambda: forger(ForgeryStrategy(StrategyKind.ADD_P_MINUS_ONE, True)),
        "forgery multiplier .* got True"),
    "multiplier-float": (
        lambda: forger(ForgeryStrategy(StrategyKind.ORDER_SHIFT, 1.0)),
        "forgery multiplier .* got 1.0"),
    "target-bool": (lambda: forger(targets=(True, 3)), "a target .* got True"),
    "target-float": (lambda: forger(targets=(2.0, 3)), "a target .* got 2.0"),
    "bits-bool": (lambda: build_scenario("honest", seed=7, params_ref=GenSpec(True, "vulnerable")),
                  "bits .* got True"),
    "bits-float": (lambda: build_scenario("honest", seed=7, params_ref=GenSpec(16.0, "hardened")),
                   "bits .* got 16.0"),
}


@pytest.mark.parametrize("build, message", NOT_AN_INT.values(), ids=NOT_AN_INT.keys())
def test_a_config_field_that_is_no_int_is_refused_and_nothing_runs(monkeypatch, build, message):
    import vsslab.protocol as protocol

    ran = []
    for name in ("resolve_params", "run_dealing_round"):
        monkeypatch.setattr(protocol, name, lambda *args, name=name: ran.append(name))
    with pytest.raises(ConfigInvalid, match=f"^{message}$"):
        run_scenario(build())
    assert ran == []


def honest_fields(**changes):
    """The fields of the honest small11 5/3 config at seed 7, with changes."""
    return {**vars(honest_config()), **changes}


def behaviors_keyed(first, behavior=Behavior()):
    """Honest behaviors of parties 2..5, and behavior under the key first."""
    return {first: behavior, **{k: Behavior() for k in range(2, 6)}}


# A label, parameter reference, behaviors mapping, party id, behavior,
# forgery strategy or target list that is not of its field's type: the
# record must not be built. The records are the only type rule, for
# configs built here and decoded from a transcript alike, so a config
# that runs renders a transcript that decodes to it
FORGER = dict(kind=BehaviorKind.FALSE_SHARE_DEALER, strategy=ForgeryStrategy(
    StrategyKind.ADD_P_MINUS_ONE), targets=(2, 3))
NOT_DECODABLE = {
    "scenario-int": (ScenarioConfig, honest_fields(scenario=7), "scenario must be a string, got 7"),
    "params-ref-none": (ScenarioConfig, honest_fields(params_ref=None),
                        "params_ref must be a name or a GenSpec, got None"),
    "params-ref-int": (ScenarioConfig, honest_fields(params_ref=64),
                       "params_ref must be a name or a GenSpec, got 64"),
    "party-id-bool": (ScenarioConfig, honest_fields(behaviors=behaviors_keyed(True)),
                      "a party id must be an integer, got True"),
    "party-id-float": (ScenarioConfig, honest_fields(behaviors=behaviors_keyed(1.0)),
                       "a party id must be an integer, got 1.0"),
    "party-id-str": (ScenarioConfig, honest_fields(behaviors=behaviors_keyed("1")),
                     "a party id must be an integer, got '1'"),
    "behavior-str": (ScenarioConfig, honest_fields(behaviors=behaviors_keyed(1, "honest")),
                     "party 1 needs a Behavior, got 'honest'"),
    "behaviors-list": (ScenarioConfig, honest_fields(behaviors=[Behavior()] * 5),
                       "behaviors must be a dict, got list"),
    "strategy-str": (Behavior, {**FORGER, "strategy": "add_p_minus_one"},
                     "strategy must be a ForgeryStrategy or None, got 'add_p_minus_one'"),
    "strategy-kind": (Behavior, {**FORGER, "strategy": StrategyKind.ORDER_SHIFT},
                      "strategy must be a ForgeryStrategy or None, "
                      "got <StrategyKind.ORDER_SHIFT: 'order_shift'>"),
    "targets-int": (Behavior, {**FORGER, "targets": 5},
                    "targets must be a collection of party ids, got 5"),
    "targets-none": (Behavior, {**FORGER, "targets": None},
                     "targets must be a collection of party ids, got None"),
}


@pytest.mark.parametrize("kind, fields, message", NOT_DECODABLE.values(), ids=NOT_DECODABLE.keys())
def test_a_config_field_the_decoder_would_refuse_is_refused_when_built(kind, fields, message):
    with pytest.raises(ConfigInvalid, match=f"^{re.escape(message)}$"):
        kind(**fields)


class TestDealingShape:
    def test_counts_for_minimal_group(self):
        cfg = build_scenario("honest", seed=5, n=2, t=2)
        report = run_scenario(cfg)
        assert len(report.commitments) == 2
        # every dealer sends to every party
        assert [len(row) for row in report.shares] == [2, 2]
        assert all(len(vec.c) == 2 for vec in report.commitments)

    def test_share_order_is_dealer_then_recipient(self):
        # row d - 1 is dealer d's, and its entry k - 1 the plain value
        # party k holds
        report = run_scenario(honest_config(n=3, t=2))
        assert [tuple(map(type, row)) for row in report.shares] == [(int, int, int)] * 3
        assert type(report.shares) is tuple and all(type(row) is tuple for row in report.shares)

    def test_dealer_polynomials_come_from_per_dealer_substreams(self):
        report = run_scenario(honest_config())
        params = report.params
        assert report.forgery_attempts == ()  # so every share is the honest evaluation
        assert len(report.shares) == 5
        for dealer, row in enumerate(report.shares, 1):
            poly = sample_polynomial(3, params.field_modulus, substream(7, dealer))
            assert list(row) == [exact_value(poly, k) for k in range(1, 6)]

    def test_runs_are_deterministic(self):
        assert run_scenario(honest_config()) == run_scenario(honest_config())

    def test_different_seeds_give_different_shares(self):
        a = run_scenario(honest_config(seed=1))
        b = run_scenario(honest_config(seed=2))
        assert a.shares != b.shares


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_dealer_d_is_index_d_minus_1_of_every_per_dealer_tuple(name):
    # commitments[d - 1] commits to dealer d's substream polynomial, and
    # reconstructions[d - 1] rebuilds from the accepted shares of row d - 1,
    # attempt i from the i-th t-subset of the pool
    for seed in range(3):
        report = run_scenario(build_scenario(name, seed=seed))
        config, params = report.config, report.params
        m = params.field_modulus
        assert len(report.commitments) == len(report.reconstructions) == config.n
        for d, (cv, rec, pool) in enumerate(zip(report.commitments, report.reconstructions,
                                                pools(report)), 1):
            assert cv == commit(sample_polynomial(config.t, m, substream(seed, d)), params)
            row = report.shares[d - 1]
            assert 0 < len(rec.attempts) <= comb(len(pool), config.t)
            for subset, value in zip(itertools.combinations(pool, config.t), rec.attempts):
                assert value == interpolate_at_zero([(k, row[k - 1] % m) for k in subset], m)


class TestReconstructPool:
    @staticmethod
    def worked_commits(small11):
        return commit((3, 4), small11)

    @staticmethod
    def pool(*values):
        """Recipients 1..len(values) and their values."""
        return range(1, len(values) + 1), values

    def test_worked_example_honest(self, small11):
        rec = reconstruct_pool(*self.pool(7, 11), self.worked_commits(small11), small11)
        assert rec == DealerReconstruction(attempts=(3,), recovered=3)

    def test_worked_example_corrupted(self, small11):
        rec = reconstruct_pool(*self.pool(7, 21), self.worked_commits(small11), small11)
        assert rec == DealerReconstruction(attempts=(4,), recovered=None)

    def test_a_pool_shorter_than_t_gives_no_attempts(self, small11):
        rec = reconstruct_pool(*self.pool(7), self.worked_commits(small11), small11)
        assert rec == DealerReconstruction(attempts=(), recovered=None)

    def test_one_forged_share_stops_at_the_first_passing_subset(self, small11):
        # P = 3 + 4x; P(3) = 15 forged to 25 (shifted by p - 1 = 10):
        # (1, 2) lands on 3 at once, so the forged share is never tried
        rec = reconstruct_pool(*self.pool(7, 11, 25), self.worked_commits(small11), small11)
        assert rec == DealerReconstruction(attempts=(3,), recovered=3)
        # with P(1) = 7 forged to 17 instead, (1, 2) and (1, 3) rebuild 1
        # and 7, and fail (2**1 and 2**7 are not c_0 = 2**3), before (2, 3)
        # rebuilds 3
        rec = reconstruct_pool(*self.pool(17, 11, 15), self.worked_commits(small11), small11)
        assert rec == DealerReconstruction(attempts=(1, 7, 3), recovered=3)

    def test_a_pool_on_one_polynomial_is_decided_by_its_first_subset(self, small11):
        # every share shifted by p - 1 = 10 lies on 2 + 4x mod 11, so each
        # subset rebuilds 2 and fails; only the first is listed
        rec = reconstruct_pool(*self.pool(17, 21, 25), self.worked_commits(small11), small11)
        assert rec == DealerReconstruction(attempts=(2,), recovered=None)

    @pytest.mark.parametrize("recipient, message", [
        (2, "abscissa 2 appears twice"), (14, r"abscissa 14 outside \(0, 11\)")])
    def test_a_malformed_pool_on_one_polynomial_still_raises(self, small11, recipient, message):
        # the third share agrees with the line through the first two, so
        # only the abscissa checks of its subsets can refuse the pool
        xs, ys = (1, 2, recipient), (17, 21, 21 + 4 * (recipient - 2))
        with pytest.raises(VsslabError, match=message):
            reconstruct_pool(xs, ys, self.worked_commits(small11), small11)

    @pytest.mark.parametrize("third, message", [
        ((2, 5), "abscissa 2 appears twice"),
        ((11, 47), r"abscissa 11 outside \(0, 11\)"),
    ], ids=["repeated", "at-p"])
    def test_a_malformed_pool_is_refused_even_when_its_first_subset_passes(
            self, small11, third, message):
        # P = 3 + 4x: (1, 2) holds P(1) = 7 and P(2) = 11 and rebuilds 3,
        # but the third share repeats party 2 or sits at x = p
        with pytest.raises(VsslabError, match=message):
            reconstruct_pool((1, 2, third[0]), (7, 11, third[1]), self.worked_commits(small11),
                             small11)


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
            sample_polynomial(3, params.field_modulus, substream(7, d))[0]
            for d in range(1, 6)
        ]
        assert report.group_key == sum(secrets) % (params.p - 1)
        assert pow(params.g, report.group_key, params.p) == report.aggregate_public_key

    def test_false_share_blocks_assembly_with_clean_matrix(self):
        report = run_scenario(build_scenario("false-share", seed=7))
        assert report.verdict is Verdict.KEY_BLOCKED
        # the whole point: every forged share passed verification
        assert all(all(row) for row in report.verification_matrix)
        # dealer 1 forged at each of its four targets
        assert report.forgery_attempts == (ForgeryAttempt(dealer=1, outcome="forged"),)
        assert report.config.behaviors[1].targets == (2, 3, 4, 5)
        assert report.group_key is None
        # dealer 1 withheld, and the forged pool fails every commitment check
        params, c0 = report.params, report.commitments[0].c[0]
        assert report.reconstructions[0].recovered is None
        assert all(pow(params.g, value, params.p) != c0
                   for value in report.reconstructions[0].attempts)

    def test_false_share_corner_where_error_vanishes_in_the_exponent(self):
        # seed 20 gives dealer 1 the secret 0; the corrupted recovery is 10,
        # and 2^10 = 1 = 2^0 mod 11, so the commitment check cannot see it
        report = run_scenario(build_scenario("false-share", seed=20))
        assert report.verdict is Verdict.KEY_ASSEMBLED
        assert report.reconstructions[0].recovered == 10
        secrets = sample_polynomial(3, 11, substream(20, 1))[0]
        assert secrets == 0
        assert report.group_key_confirmed  # error is 10 = 0 mod ord(g)

    def test_order_shift_assembles_when_shift_stays_below_p(self):
        # dealer 1 secret is 8; recovery 8 + 11 = 19 < 23 keeps the same
        # exponent class mod 11, so the check passes and the key assembles
        report = run_scenario(build_scenario("order-shift", seed=1))
        assert report.verdict is Verdict.KEY_ASSEMBLED
        assert all(all(row) for row in report.verification_matrix)
        rec = report.reconstructions[0]
        true_secret = sample_polynomial(3, 23, substream(1, 1))[0]
        assert true_secret == 8
        assert rec.recovered == 19  # wrong field element, same exponent
        assert report.group_key_confirmed

    def test_order_shift_blocks_when_shift_wraps_the_field(self):
        # dealer 1 secret is 12; 12 + 11 = 23 wraps to 0, breaking the
        # exponent class, so every subset fails the commitment check
        report = run_scenario(build_scenario("order-shift", seed=2))
        assert report.verdict is Verdict.KEY_BLOCKED
        assert all(all(row) for row in report.verification_matrix)
        assert sample_polynomial(3, 23, substream(2, 1))[0] == 12
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
        # impossible at each of its four targets
        assert report.forgery_attempts == (
            ForgeryAttempt(dealer=1, outcome="forgery_impossible"),)
        assert report.config.behaviors[1].targets == (2, 3, 4, 5)
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
        shifted = DealerReconstruction(attempts=(*tried, passed + 1), recovered=passed + 1)
        with pytest.raises(RuntimeError, match="aggregate public key"):
            assemble_group_key((shifted, *rest), report.commitments, report.params,
                               report.verification_matrix)

    def test_hardened_key_reduces_mod_q(self):
        report = run_scenario(build_scenario("hardened-attack", seed=7))
        params = report.params
        secrets = [
            sample_polynomial(3, params.q, substream(7, d))[0] for d in range(1, 6)
        ]
        assert report.group_key == sum(secrets) % params.q
        assert pow(params.g, report.group_key, params.p) == report.aggregate_public_key


# Every refusal of a share input, by the check that makes it. A row is
# positional (its value k - 1 went to party k), so only a pool can name
# repeated recipients or recipients outside the field; a row reaches the
# field modulus by its length alone.
REFUSALS = {
    "point-at-zero": (lambda h: verify_share(0, 3, h.commits, h.small11),
                      r"evaluation point 0 outside \(0, p\)"),
    "point-at-p": (lambda h: verify_share(11, 3, h.commits, h.small11),
                   r"evaluation point 11 outside \(0, p\)"),
    "short-row": (lambda h: verify_row([7], h.commits, h.small11),
                  "a row of 1 shares is shorter than the threshold 2"),
    "row-reaching-the-field-modulus": (lambda h: verify_row([7] * 11, h.commits, h.small11),
                                       r"abscissa 11 outside \(0, 11\)"),
    "pool-repeated": (lambda h: reconstruct_pool((1, 1), (7, 7), h.commits, h.small11),
                      "abscissa 1 appears twice"),
    "pool-outside-the-field": (lambda h: reconstruct_pool((1, 11), (7, 47), h.commits, h.small11),
                               r"abscissa 11 outside \(0, 11\)"),
    "pool-counts-differ": (lambda h: reconstruct_pool((1, 2), (7,), h.commits, h.small11),
                           "pool recipients and values differ in length: 2, 1"),
    "verification-counts-differ": (
        lambda h: run_verification_round(h.dealing.shares[:-1], h.dealing.commitments, h.params),
        "per-dealer inputs differ in length: 4, 5"),
    "reconstruction-counts-differ": (
        lambda h: run_reconstruction_round(h.dealing, h.matrix[:-1], h.config, h.params),
        "per-dealer inputs differ in length: 5, 4, 5"),
    "reconstruction-row-counts-differ": (
        lambda h: run_reconstruction_round(h.dealing, (h.matrix[0][:-1], *h.matrix[1:]),
                                           h.config, h.params),
        "dealer 1's shares and verdicts differ in length: 5, 4"),
    "negative-value-verify-share": (lambda h: verify_share(2, -1, h.commits, h.small11),
                                    "share values are non-negative"),
    "negative-value-row": (lambda h: verify_row([7, 11, -1], h.commits, h.small11),
                           "share values are non-negative"),
    "negative-value-pool": (lambda h: reconstruct_pool((1, 2), (7, -1), h.commits, h.small11),
                            "share values are non-negative"),
    "negative-value-verification": (
        lambda h: run_verification_round(((-1,) + h.dealing.shares[0][1:],)
                                         + h.dealing.shares[1:], h.dealing.commitments,
                                         h.params),
        "share values are non-negative"),
}


@pytest.fixture(scope="module")
def inputs():
    """The worked commitments of P = 3 + 4x on small11 (t = 2), and an
    honest small11 5/3 dealing with its matrix."""
    config = honest_config(seed=7)
    params = resolve_params(config)
    dealing = run_dealing_round(config, params)
    small11 = get_params("small11")
    return SimpleNamespace(
        small11=small11, config=config, params=params, dealing=dealing,
        commits=commit((3, 4), small11),
        matrix=run_verification_round(dealing.shares, dealing.commitments, params))


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_every_refusal_of_a_share_input_is_kept(inputs, call, message):
    with pytest.raises(VsslabError, match=message):
        call(inputs)


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

    @pytest.mark.parametrize("cut, message", [
        ("shares", "per-dealer inputs differ in length: 4, 5, 5"),
        ("matrix", "per-dealer inputs differ in length: 5, 4, 5"),
        ("matrix row", "dealer 1's shares and verdicts differ in length: 5, 4"),
    ], ids=["shares", "matrix", "matrix row"])
    def test_reconstruction_refuses_inputs_of_unequal_lengths(self, honest, cut, message):
        config, params, dealing, matrix = honest
        if cut == "shares":
            dealing = DealingRound(dealing.commitments, dealing.shares[:-1],
                                   dealing.forgery_attempts)
        elif cut == "matrix":
            matrix = matrix[:-1]
        else:
            matrix = (matrix[0][:-1], *matrix[1:])
        with pytest.raises(VsslabError, match=message):
            run_reconstruction_round(dealing, matrix, config, params)

    def test_assembly_refuses_a_missing_reconstruction(self, honest):
        config, params, dealing, matrix = honest
        reconstructions = run_reconstruction_round(dealing, matrix, config, params)
        with pytest.raises(VsslabError, match="per-dealer inputs differ in length: 4, 5"):
            assemble_group_key(reconstructions[:-1], dealing.commitments, params, matrix)


class TestVerificationRound:
    def test_hardened_out_of_range_share_gets_a_false_entry(self, p23q11):
        from vsslab.protocol import run_verification_round

        p1 = (3, 4)
        p2 = (5, 1)
        commits = [commit(p1, p23q11), commit(p2, p23q11)]
        rows = [
            [exact_value(p1, 1) % 11,
             # same exponent class but numerically above q: range check trips
             exact_value(p1, 2) % 11 + 11],
            [exact_value(p2, 1) % 11, exact_value(p2, 2) % 11],
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
        bad = CommitmentVector((c[0], c[1] * 22 % 23))
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
        # a forger's one outcome, with its config targets and strategy
        report = run_scenario(build_scenario("false-share", seed=7))
        honest = run_scenario(build_scenario("honest", seed=7))
        changed = {(dealer, k)
                   for dealer, (row, honest_row) in enumerate(zip(report.shares, honest.shares), 1)
                   for k, (v, h) in enumerate(zip(row, honest_row), 1) if v != h}
        behaviors = report.config.behaviors
        assert {(a.dealer, k) for a in report.forgery_attempts
                for k in behaviors[a.dealer].targets} == changed == {(1, k) for k in range(2, 6)}
        assert report.forgery_attempts == (ForgeryAttempt(dealer=1, outcome="forged"),)
        assert behaviors[1].strategy == ForgeryStrategy(StrategyKind.ADD_P_MINUS_ONE, 1)


@pytest.mark.parametrize("params_ref, recipients, message", [
    ("small11", (1, 2, 1, 3), "abscissa 1 appears twice"),
    ("small11", (1, 2, 3, 2), "abscissa 2 appears twice"),
    ("small11", (0, 1, 2), "abscissa 0 would address the secret itself"),
    ("small11", (1, 2, 3, 11), r"abscissa 11 outside \(0, 11\)"),
    ("small11", (1, 2, 14), r"abscissa 14 outside \(0, 11\)"),
    # hardened: the field is Z_q, so a recipient below p but not below q
    ("p23q11", (1, 2, 3, 12), r"abscissa 12 outside \(0, 11\)"),
], ids=["repeated", "repeated-late", "zero", "at-p", "above-p", "at-q"])
def test_pools_refuse_malformed_recipients(params_ref, recipients, message):
    params = get_params(params_ref)
    poly = sample_polynomial(3, params.field_modulus, substream(7, 1))
    values = [exact_value(poly, k) % params.field_modulus for k in recipients]
    with pytest.raises(VsslabError, match=message):
        reconstruct_pool(recipients, values, commit(poly, params), params)


@pytest.mark.parametrize("params_ref", ["small11", "p23q11"])
def test_a_row_and_a_pool_that_reach_the_field_modulus_are_refused_alike(params_ref):
    # party ids are the field's nonzero elements, so a row of m values
    # holds one for party m, as the pool of parties 1..m does
    params = get_params(params_ref)
    m = params.field_modulus
    poly = sample_polynomial(3, m, substream(7, 1))
    values = [exact_value(poly, k) % m for k in range(1, m + 1)]
    commits = commit(poly, params)
    with pytest.raises(VsslabError, match=rf"abscissa {m} outside \(0, {m}\)") as row:
        verify_row(values, commits, params)
    with pytest.raises(VsslabError) as pool:
        reconstruct_pool(range(1, m + 1), values, commits, params)
    assert str(row.value) == str(pool.value)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_verification_round_matches_the_per_share_oracle(data):
    params = get_params(data.draw(st.sampled_from(
        ["small11", "p23order11", "p23q11", "v32", "h32"])))
    n = data.draw(st.integers(min_value=2, max_value=6))
    t = data.draw(st.integers(min_value=2, max_value=n))
    seed = data.draw(st.integers(min_value=0, max_value=2**64 - 1))
    polys = [sample_polynomial(t, params.field_modulus, substream(seed, dealer))
             for dealer in range(1, n + 1)]
    # honest, the two forgeries, +1 tampering, or a value at or above the
    # field modulus; each row is complete (test_vss checks verify_row on
    # rows of every length)
    shifts = [0, 0, 0, params.p - 1, params.d, 1, params.field_modulus]
    rows = []
    for poly in polys:
        row = []
        for k in range(1, n + 1):
            shift = data.draw(st.sampled_from(shifts))
            row.append(honest_share(poly, k, params) + shift)
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
        commitments.append(CommitmentVector(tuple(c)))
    assert run_verification_round(rows, commitments, params) == tuple(
        per_share(row, commits, params) for row, commits in zip(rows, commitments))


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
        assert share_checks == [(report.commitments[0], k) for k in range(1, 13)]


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
        report = run_scenario(build_scenario("false-share", seed=7, n=12, t=6, params_ref="v64"))
        # 12 committed rows, then the forger's interpolated row
        assert rows_cached() == (11, 13)
        assert share_checks == [(report.commitments[0], k) for k in range(1, 13)]

    def test_every_honest_row_hits_at_the_widest_run(self, rows_cached, share_checks):
        # n = MAX_PARTIES fills the cache at commit; the forger's miss at
        # row 1 evicts row 1's commit, the least recently used entry
        report = run_scenario(build_scenario("false-share", seed=1, n=MAX_PARTIES, t=32,
                                             params_ref="v64"))
        assert rows_cached() == (MAX_PARTIES - 1, MAX_PARTIES + 1)
        assert share_checks == [(report.commitments[0], k) for k in range(1, MAX_PARTIES + 1)]

    def test_the_cache_holds_a_row_per_party(self):
        assert _g_row.cache_info().maxsize == MAX_PARTIES


@pytest.fixture
def rows_evaluated():
    """(hits, misses) of poly's row cache since the fixture emptied it."""
    _row.cache_clear()
    return lambda: _row.cache_info()[:2]


class TestRowEvaluationCache:
    """A run evaluates each dealer's row once: the dealing's evaluation
    misses, and the row check of an honest row reads the dealt row back."""

    @pytest.mark.parametrize("params_ref", ["v64", "h64"])
    def test_the_dealing_misses_and_the_row_check_hits(self, rows_evaluated, share_checks,
                                                        params_ref):
        config = honest_config(n=12, t=6, params_ref=params_ref)
        params = resolve_params(config)
        dealing = run_dealing_round(config, params)
        assert rows_evaluated() == (0, 12)
        run_verification_round(dealing.shares, dealing.commitments, params)
        assert rows_evaluated() == (12, 12)
        assert share_checks == []
        # the cached row is the dealt row itself, not a copy, exact in
        # vulnerable mode and in the field when hardened
        parties = range(1, 13)
        m, hardened = params.field_modulus, params.q is not None
        for dealer, row in enumerate(dealing.shares, 1):
            coeffs = sample_polynomial(6, m, substream(config.seed, dealer))
            assert evaluate(coeffs, parties, m, hardened) is row

    def test_the_forged_row_falls_back_and_its_pool_test_misses(self, rows_evaluated,
                                                                share_checks):
        report = run_scenario(build_scenario("false-share", seed=7, n=12, t=6, params_ref="v64"))
        # the forger's honest values are evaluated at its dealing too, and
        # the test of whether its pool lies on one polynomial is one more row
        assert rows_evaluated() == (11, 13)
        assert share_checks == [(report.commitments[0], k) for k in range(1, 13)]

    def test_a_hardened_forgers_row_hits(self, rows_evaluated, share_checks):
        # forgery is impossible, so the forger deals its row honestly
        run_scenario(build_scenario("hardened-attack", seed=7, n=12, t=6, params_ref="h64"))
        assert rows_evaluated() == (12, 12)
        assert share_checks == []

    def test_every_honest_row_hits_at_the_widest_run(self, rows_evaluated):
        run_scenario(honest_config(seed=1, n=MAX_PARTIES, t=MAX_PARTIES, params_ref="v64"))
        assert rows_evaluated() == (MAX_PARTIES, MAX_PARTIES)

    def test_the_cache_holds_a_row_per_party(self):
        assert _row.cache_info().maxsize == MAX_PARTIES


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
    """Pools by the transcript's rebuild rule, held to the values rebuilt
    from them."""

    @staticmethod
    def rebuilt(report, dealer, subsets):
        """The values dealer's shares rebuild through each subset."""
        row, m = report.shares[dealer - 1], report.params.field_modulus
        return tuple(interpolate_at_zero([(k, row[k - 1] % m) for k in subset], m)
                     for subset in subsets)

    def test_withholding_dealer_keeps_own_share_out_of_pools(self):
        report = run_scenario(build_scenario("withhold", seed=7))
        for dealer, pool in enumerate(pools(report), 1):
            assert pool == (2, 3, 4, 5)
            assert report.reconstructions[dealer - 1].attempts == self.rebuilt(
                report, dealer, [pool[:3]])

    def test_false_share_dealer_also_withholds_at_assembly(self):
        report = run_scenario(build_scenario("false-share", seed=7))
        for dealer, pool in enumerate(pools(report), 1):
            assert pool == (2, 3, 4, 5)
            assert report.reconstructions[dealer - 1].attempts == self.rebuilt(
                report, dealer, [pool[:3]])

    def test_honest_pools_contain_all_n_shares(self):
        report = run_scenario(honest_config())
        assert pools(report) == [(1, 2, 3, 4, 5)] * 5

    def test_recovered_values_match_true_secrets_in_honest_runs(self):
        report = run_scenario(honest_config())
        params = report.params
        for dealer, rec in enumerate(report.reconstructions, 1):
            poly = sample_polynomial(3, params.field_modulus, substream(7, dealer))
            assert rec.recovered == poly[0]

    def test_attempts_stop_at_the_first_passing_subset(self):
        report = run_scenario(honest_config(n=4, t=2))
        honest = report.reconstructions[0]
        assert honest.attempts == self.rebuilt(report, 1, [(1, 2)]) == (honest.recovered,)
        assert pow(report.params.g, honest.recovered, report.params.p) == (
            report.commitments[0].c[0])
        # a pool mixing forged and honest shares with no passing subset
        # lists every one
        report = run_scenario(splitting_config(5, 3, (2, 4), "small11", seed=7))
        mixed, c0, params = report.reconstructions[0], report.commitments[0].c[0], report.params
        assert pools(report)[0] == (2, 3, 4, 5)
        assert mixed.attempts == self.rebuilt(report, 1, itertools.combinations((2, 3, 4, 5), 3))
        assert not any(pow(params.g, value, params.p) == c0 for value in mixed.attempts)
        assert mixed.recovered is None

    def test_an_all_forged_pool_lists_one_attempt(self):
        # every forged share carries the one shift, so the pool lies on
        # one polynomial: its first subset fails, and so would every other
        report = run_scenario(build_scenario("false-share", seed=7))
        forged, params = report.reconstructions[0], report.params
        assert pools(report)[0] == (2, 3, 4, 5)
        assert forged.attempts == self.rebuilt(report, 1, [(2, 3, 4)])
        assert pow(params.g, forged.attempts[0], params.p) != report.commitments[0].c[0]
        assert forged.recovered is None
        assert 1 == len(forged.attempts) < comb(4, 3)


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
        assert len({pool[:3] for pool in pools(report)}) == 1
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
        for dealer, rec in enumerate(run_reconstruction_round(dealing, matrix, cfg, params), 1):
            poly = sample_polynomial(3, params.field_modulus, substream(7, dealer))
            assert rec == DealerReconstruction(attempts=(poly[0],), recovered=poly[0])
        assert tables_computed() == (4, 0)


def enumerate_pool(points, t, commits, params):
    """(subset, value, passed) for every t-subset in lexicographic order, by
    interpolate_at_zero and the builtin pow; points are (recipient, value
    mod the field)."""
    m = params.field_modulus
    oracle = []
    for subset in itertools.combinations(points, t):
        value = interpolate_at_zero(subset, m)
        oracle.append((tuple(k for k, _ in subset), value,
                       pow(params.g, value, params.p) == commits.c[0]))
    return oracle


def on_one_polynomial(points, t, m):
    """Whether every point lies on the polynomial through the first t:
    its value at k is interpolate_at_zero of the first t moved left by k."""
    first = points[:t]
    return all(interpolate_at_zero([((x - k) % m, y) for x, y in first], m) == v
               for k, v in points[t:])


def first_pass(oracle):
    """The index of the first passing subset in oracle, or None."""
    return next((i for i, (_, _, passed) in enumerate(oracle) if passed), None)


def expected(oracle, points, t, m):
    """The DealerReconstruction reconstruct_pool must give: the values up
    to the first passing subset, and that subset's; when none passes, the
    first value alone for a pool on one polynomial and every value
    otherwise."""
    first = first_pass(oracle)
    if first is not None:
        return DealerReconstruction(tuple(v for _, v, _ in oracle[:first + 1]), oracle[first][1])
    tried = oracle[:1] if on_one_polynomial(points, t, m) else oracle
    return DealerReconstruction(tuple(v for _, v, _ in tried), None)


class TestReconstructionMatchesOracle:
    """The recorded attempts are interpolate_at_zero and the c_0 check over the
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
                    for dealer, (rec, row, commits, pool) in enumerate(zip(
                            report.reconstructions, report.shares, report.commitments,
                            pools(report)), 1):
                        points = [(k, row[k - 1] % m) for k in pool]
                        oracle = enumerate_pool(points, t, commits, params)
                        first = first_pass(oracle)
                        assert rec == expected(oracle, points, t, m), (cfg, dealer)
                        mixed_pools += len({v for _, v, _ in oracle}) > 1
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
    """One pool against every t-subset by interpolate_at_zero and builtin pow:
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
    poly = sample_polynomial(t, m, substream(data.draw(st.integers(0, 2**64 - 1)), 1))
    shape = data.draw(st.sampled_from(["honest", "shift-all", "shift-some", "shift-some"]))
    shifted = set()
    if shape == "shift-all":
        shifted = set(recipients)
    elif shape == "shift-some" and n > 1:
        shifted = data.draw(st.sets(st.sampled_from(recipients), min_size=1, max_size=n - 1))
    shift = data.draw(st.integers(min_value=1, max_value=3 * params.p))
    values = [exact_value(poly, k) + (shift if k in shifted else 0) for k in recipients]
    commits = commit(poly, params)

    rec = reconstruct_pool(recipients, values, commits, params)
    points = [(k, v % m) for k, v in zip(recipients, values)]
    oracle = enumerate_pool(points, t, commits, params)
    first = first_pass(oracle)
    assert rec.recovered == (None if first is None else oracle[first][1])
    assert rec.attempts[:1] == tuple(v for _, v, _ in oracle[:1])
    if oracle and first is None:
        assert (len(rec.attempts) == 1) == on_one_polynomial(points, t, m)
    assert rec == expected(oracle, points, t, m)
