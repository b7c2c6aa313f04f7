"""run_scenario against the naive ceremony of reference_model.py, on random
configs: every registry group, n <= 7 with every t, any mix of honest,
withholding and false-share parties (any targets, both strategies, any
multiplier below p) and any seed."""

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
from vsslab.transcript import audit_transcript, render_report

from reference_model import run_model

GROUPS = tuple(load_registry())


def behavior(data, pid, n, p):
    kind = data.draw(st.sampled_from(BehaviorKind))
    if kind is not BehaviorKind.FALSE_SHARE_DEALER:
        return Behavior(kind=kind)
    others = [k for k in range(1, n + 1) if k != pid]
    return Behavior(
        kind=kind,
        strategy=ForgeryStrategy(data.draw(st.sampled_from(StrategyKind)),
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
    assert {r.dealer: r.pool for r in report.reconstructions} == model.pools
    assert {r.dealer: r.recovered for r in report.reconstructions} == model.recovered


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
    assert {r.dealer: r.pool for r in report.reconstructions} == model.pools
    assert {r.dealer: r.recovered for r in report.reconstructions} == model.recovered
    assert [len(r.attempts) for r in report.reconstructions] == [attempts] + [1] * 11
    assert audit_transcript(render_report(report)) == []
