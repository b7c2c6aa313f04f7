"""run_scenario against the naive ceremony of reference_model.py, on random
configs: every registry group, n <= 7 with every t, any mix of honest,
withholding and false-share parties (any targets, both strategies, any
multiplier below p) and any seed; and against its denial law, for every
target set of a uniform forger at n <= 7."""

import json
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsslab.attack import ForgeryStrategy, StrategyKind
from vsslab.protocol import (
    SCENARIO_NAMES,
    Behavior,
    BehaviorKind,
    ScenarioConfig,
    build_scenario,
    run_scenario,
)
from vsslab.registry import get_params, load_registry
from vsslab.rng import substream
from vsslab.transcript import audit_transcript, render_report

from reference_model import (
    expand_schema_5,
    first_passing_subset,
    run_model,
    uniform_shift,
    weights_at_zero,
)

GROUPS = tuple(load_registry())


def expanded(report):
    """Each dealer's reconstruction, keyed by dealer, as expand_schema_5
    rebuilds it from report's transcript: its pool, and the subset and
    commitment check of every attempt."""
    doc = expand_schema_5(json.loads(render_report(report)))
    return {int(dealer): r for dealer, r in doc["reconstructions"].items()}


def pools(report):
    return {dealer: tuple(r["pool"]) for dealer, r in expanded(report).items()}


def behavior(data, pid, n, p):
    kind = data.draw(st.sampled_from(tuple(BehaviorKind)))
    if kind is not BehaviorKind.FALSE_SHARE_DEALER:
        return Behavior(kind=kind)
    others = [k for k in range(1, n + 1) if k != pid]
    return Behavior(
        kind=kind,
        strategy=ForgeryStrategy(data.draw(st.sampled_from(tuple(StrategyKind))),
                                 data.draw(st.integers(min_value=1, max_value=p - 1))),
        targets=data.draw(st.sets(st.sampled_from(others), min_size=1)),
    )


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_run_scenario_matches_the_reference_model(data):
    name = data.draw(st.sampled_from(GROUPS))
    params = get_params(name)
    n = data.draw(st.integers(min_value=2, max_value=7))
    t = data.draw(st.integers(min_value=2, max_value=n))
    seed = data.draw(st.integers(min_value=0, max_value=2**64 - 1))
    behaviors = {pid: behavior(data, pid, n, params.p) for pid in range(1, n + 1)}
    # a config that happens to build a built-in scenario's behaviors must
    # carry its label; any other takes a label of its own
    label = next((s for s in SCENARIO_NAMES
                  if build_scenario(s, seed, n, t).behaviors == behaviors), "random")
    config = ScenarioConfig(scenario=label, n=n, t=t, params_ref=name,
                            behaviors=behaviors, seed=seed)

    report = run_scenario(config)
    model = run_model(config, params)

    assert report.verdict.value == model.verdict
    assert report.group_key == model.group_key
    assert report.verification_matrix == model.matrix
    assert pools(report) == model.pools
    assert {d: r.recovered for d, r in enumerate(report.reconstructions, 1)} == model.recovered


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("targets, verdict, attempts", [
    (range(7, 13), "key_blocked", 462),
    (range(2, 8), "key_assembled", 32),
], ids=["to-7-12-blocks", "to-2-7-assembles"])
def test_a_splitting_forger_at_v64_12_6_matches_the_reference_model(
        seed, targets, verdict, attempts):
    # party 1 forges to six of the eleven cooperating parties, so its pool
    # mixes forged and honest shares and is enumerated: all C(11, 6) = 462
    # subsets fail for targets 7-12, and the 32nd passes for targets 2-7
    behaviors = {pid: Behavior() for pid in range(1, 13)}
    behaviors[1] = Behavior(kind=BehaviorKind.FALSE_SHARE_DEALER,
                            strategy=ForgeryStrategy(StrategyKind.ADD_P_MINUS_ONE, 1),
                            targets=targets)
    config = ScenarioConfig(scenario="splitting-forger", n=12, t=6, params_ref="v64",
                            behaviors=behaviors, seed=seed)

    report = run_scenario(config)
    model = run_model(config, get_params("v64"))

    assert report.verdict.value == model.verdict == verdict
    assert report.group_key == model.group_key
    assert pools(report) == model.pools
    assert {d: r.recovered for d, r in enumerate(report.reconstructions, 1)} == model.recovered
    assert [len(r.attempts) for r in report.reconstructions] == [attempts] + [1] * 11
    assert audit_transcript(render_report(report)) == []


def uniform_forger(n, t, params_ref, strategy, targets, seed):
    """Party 1 forges to targets with one strategy and withholds; the
    others are honest. Forging to every other party with multiplier 1 is
    the built-in scenario of that strategy, and takes its label."""
    behaviors = {pid: Behavior() for pid in range(1, n + 1)}
    behaviors[1] = Behavior(kind=BehaviorKind.FALSE_SHARE_DEALER, strategy=strategy,
                            targets=targets)
    label = "uniform-forger"
    if strategy.multiplier == 1 and len(targets) == n - 1:
        label = {StrategyKind.ADD_P_MINUS_ONE: "false-share",
                 StrategyKind.ORDER_SHIFT: "order-shift"}[strategy.kind]
    return ScenarioConfig(scenario=label, n=n, t=t, params_ref=params_ref,
                          behaviors=behaviors, seed=seed)


@pytest.mark.parametrize("params_ref, kind", [
    ("v32", StrategyKind.ADD_P_MINUS_ONE),
    ("small11", StrategyKind.ADD_P_MINUS_ONE),
    ("p23order11", StrategyKind.ORDER_SHIFT),
])
def test_a_uniform_forger_follows_the_denial_law(params_ref, kind):
    # the forger withholds, so its pool is parties 2..n, forged exactly at
    # the targets; the key assembles exactly when some t-subset of that
    # pool passes, and the first one the law names is the one tried last
    params = get_params(params_ref)
    for n, m, seed in product(range(2, 8), (1, 2, 5), (0, 1)):
        strategy = ForgeryStrategy(kind, m)
        delta = uniform_shift(strategy, params)
        a0 = substream(seed, 1).randbelow(params.p)
        pool = tuple(range(2, n + 1))
        target_sets = [ts for size in range(1, n) for ts in combinations(pool, size)]
        for targets, t in product(target_sets, range(2, n + 1)):
            report = run_scenario(uniform_forger(n, t, params_ref, strategy, targets, seed))
            law = first_passing_subset(pool, set(targets), t, a0, delta, params)
            forger = expanded(report)[1]
            assert tuple(forger["pool"]) == pool
            recovered = report.reconstructions[0].recovered
            got = None
            if recovered is not None:
                assert forger["attempts"][-1]["commitment_check"]
                got = (tuple(forger["attempts"][-1]["subset"]), recovered)
            assert got == law, (n, t, targets, m, seed)
            assert (report.verdict.value == "key_assembled") == (law is not None)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("m", [1, 2, 5])
def test_at_5_3_only_targets_2_and_3_assemble(m, seed):
    # every 3-subset of the pool (2, 3, 4, 5) holds a forged share, yet
    # (2, 3, 5) has weights 5, -5 and 1, so the two forged shifts cancel
    params = get_params("v32")
    assert weights_at_zero((2, 3, 5), params.p) == [5, params.p - 5, 1]
    strategy = ForgeryStrategy(StrategyKind.ADD_P_MINUS_ONE, m)
    for targets in combinations(range(2, 6), 2):
        report = run_scenario(uniform_forger(5, 3, "v32", strategy, targets, seed))
        forger = report.reconstructions[0]
        if targets == (2, 3):
            assert report.verdict.value == "key_assembled"
            assert expanded(report)[1]["attempts"][-1]["subset"] == [2, 3, 5]
            assert forger.recovered == substream(seed, 1).randbelow(params.p)
        else:
            assert report.verdict.value == "key_blocked"
            assert forger.recovered is None
