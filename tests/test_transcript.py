"""Transcript rendering and the audit by regeneration: re-run the config,
report the first differing JSON paths, then compare bytes."""

import copy
import hashlib
import json
from functools import lru_cache

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
from vsslab.transcript import (
    SCHEMA_VERSION,
    audit_transcript,
    canonical_json,
    config_from_dict,
    render_report,
    report_to_dict,
)


@pytest.fixture(scope="module")
def false_share_text():
    return render_report(run_scenario(build_scenario("false-share", seed=7)))


def set_config_field(path, value):
    """An edit that returns a copy of the doc with config[path...] = value."""
    def edit(doc):
        doc = copy.deepcopy(doc)
        *parents, leaf = path
        node = doc["config"]
        for key in parents:
            node = node[key]
        node[leaf] = value
        return doc
    return edit


def retamper(text, mutate):
    """Parse, apply a structured edit, re-render canonically."""
    doc = json.loads(text)
    mutate(doc)
    return canonical_json(doc)


def test_version_field_is_current(false_share_text):
    assert json.loads(false_share_text)["version"] == SCHEMA_VERSION == "2"


def test_top_level_keys_are_the_schema_2_set(false_share_text):
    assert set(json.loads(false_share_text)) == {
        "version", "config", "params", "commitments", "shares", "forgery_attempts",
        "verification_matrix", "aggregate_public_key", "reconstructions", "group_key",
        "verdict",
    }


def test_rendering_is_deterministic():
    a = render_report(run_scenario(build_scenario("honest", seed=3)))
    b = render_report(run_scenario(build_scenario("honest", seed=3)))
    assert a == b


# Wider configs than scripts/transcript_digest.py covers, where each
# dealer's row is verified by the row check and the false-share and
# order-shift rows fall back to per-share checks: (scenario, params, n, t),
# each at seeds 0-2, hashed in that order. Recorded before the row check
# existed; a change meant to keep transcripts byte-identical leaves it alone.
WIDE_CONFIGS = (
    ("honest", "v64", 12, 6),
    ("false-share", "v64", 12, 6),
    ("withhold", "v64", 12, 6),
    ("honest", "h64", 16, 16),
    ("hardened-attack", "h64", 16, 15),
    ("order-shift", "v32", 16, 8),
)
WIDE_DIGEST = "4fbfb40995e716baec3b7910a9796320d1628325c65701ea4949906850facb1b"


def test_wide_config_transcripts_are_pinned():
    digest = hashlib.sha256()
    for name, params_ref, n, t in WIDE_CONFIGS:
        for seed in range(3):
            report = run_scenario(build_scenario(name, seed=seed, n=n, t=t, params_ref=params_ref))
            digest.update(render_report(report).encode())
    assert digest.hexdigest() == WIDE_DIGEST


def test_big_integers_serialize_as_decimal_strings():
    report = run_scenario(
        build_scenario("honest", seed=3, params_ref="v64")
    )
    doc = json.loads(render_report(report))
    assert isinstance(doc["params"]["p"], str)
    assert isinstance(doc["shares"][0]["value"], str)
    assert int(doc["params"]["p"]) == report.params.p


def test_no_timestamps_or_hostnames(false_share_text):
    lowered = false_share_text.lower()
    for needle in ("time", "date", "host", "user"):
        assert needle not in lowered


def test_canonical_form_ends_with_newline_and_sorted_keys(false_share_text):
    assert false_share_text.endswith("\n")
    doc = json.loads(false_share_text)
    assert list(doc) == sorted(doc)


def test_config_round_trips(false_share_text):
    doc = json.loads(false_share_text)
    cfg = config_from_dict(doc["config"])
    assert cfg == build_scenario("false-share", seed=7)


def test_semantically_equal_reports_serialize_identically():
    r1 = run_scenario(build_scenario("withhold", seed=11))
    r2 = run_scenario(build_scenario("withhold", seed=11))
    assert report_to_dict(r1) == report_to_dict(r2)
    assert render_report(r1) == render_report(r2)


class TestAudit:
    def test_untampered_transcript_is_clean(self, false_share_text):
        assert audit_transcript(false_share_text) == []

    def test_all_scenarios_audit_clean(self):
        for name in ("honest", "order-shift", "withhold", "hardened-attack"):
            text = render_report(run_scenario(build_scenario(name, seed=5)))
            assert audit_transcript(text) == [], name

    def test_share_value_tamper_detected(self, false_share_text):
        def bump_share(doc):
            doc["shares"][0]["value"] = str(int(doc["shares"][0]["value"]) + 1)

        problems = audit_transcript(retamper(false_share_text, bump_share))
        assert problems
        assert any(p.startswith("shares[0].value") for p in problems)

    def test_verdict_tamper_detected(self, false_share_text):
        def flip_verdict(doc):
            doc["verdict"] = "key_assembled"

        problems = audit_transcript(retamper(false_share_text, flip_verdict))
        assert any("verdict" in p for p in problems)

    def test_group_key_tamper_detected(self):
        text = render_report(run_scenario(build_scenario("honest", seed=7)))

        def bump_key(doc):
            doc["group_key"] = str(int(doc["group_key"]) + 1)

        problems = audit_transcript(retamper(text, bump_key))
        assert problems

    def test_params_tamper_detected(self, false_share_text):
        def change_generator(doc):
            doc["params"]["g"] = "6"

        problems = audit_transcript(retamper(false_share_text, change_generator))
        assert problems
        assert any(p.startswith("params.g") for p in problems)

    def test_wrong_version_reported(self, false_share_text):
        # "1" listed every t-subset; such a file is regenerated, not read
        for version in ("999", "1"):
            def wrong_version(doc):
                doc["version"] = version

            problems = audit_transcript(retamper(false_share_text, wrong_version))
            assert problems == [f"unsupported schema version '{version}'"]

    def test_reflowed_transcript_is_not_canonical(self, false_share_text):
        reflowed = json.dumps(json.loads(false_share_text), sort_keys=True) + "\n"
        problems = audit_transcript(reflowed)
        assert len(problems) == 1
        assert "not in canonical form" in problems[0]

    def test_broken_json_reported_not_raised(self, false_share_text):
        problems = audit_transcript(false_share_text[:-5])
        assert problems
        assert any("JSON" in p for p in problems)

    def test_single_byte_flip_never_passes(self, false_share_text):
        # canonical text reflows under re-rendering, so attack any byte of
        # the raw file and demand the audit notices every single time
        raw = false_share_text
        step = max(1, len(raw) // 97)
        for i in range(0, len(raw), step):
            flipped = raw[:i] + chr(ord(raw[i]) ^ 1) + raw[i + 1 :]
            if flipped == raw:
                continue
            assert audit_transcript(flipped), f"byte {i} slipped through"

    def test_out_of_range_recipient_is_a_problem_not_a_crash(self, false_share_text):
        def corrupt_recipient(doc):
            doc["shares"][0]["recipient"] = 99

        problems = audit_transcript(retamper(false_share_text, corrupt_recipient))
        assert problems

    @pytest.mark.parametrize("edit", [
        lambda doc: [],
        lambda doc: {**doc, "config": {**doc["config"], "behaviors": []}},
        lambda doc: {**doc, "config": {**doc["config"], "params_ref": {"name": 3}}},
        lambda doc: {**doc, "config": {**doc["config"],
                                       "params_ref": {"bits": 200, "mode": "vulnerable"}}},
        lambda doc: {**doc, "config": {**doc["config"], "n": 10**12}},
        set_config_field(("seed",), "seven"),
        set_config_field(("behaviors", "1", "kind"), "saboteur"),
        set_config_field(("params_ref",), {"bits": 16, "mode": "sideways"}),
        set_config_field(("behaviors", "1", "strategy", "multiplier"), "1.5"),
        # parses (4300 digits is the int/str limit), but a forged share
        # built from it would have too many digits to print
        set_config_field(("behaviors", "1", "strategy", "multiplier"), "8" + "9" * 4299),
    ], ids=["top-level-list", "behaviors-list", "numeric-name", "bits-200", "huge-n",
            "word-seed", "unknown-behavior", "unknown-mode", "fractional-multiplier",
            "4300-digit-multiplier"])
    def test_malformed_config_is_a_problem_not_a_crash(self, false_share_text, edit):
        problems = audit_transcript(canonical_json(edit(json.loads(false_share_text))))
        assert problems

    @pytest.mark.parametrize("built,label", [("false-share", "honest"), ("honest", "")])
    def test_a_relabelled_transcript_is_a_problem(self, built, label):
        # the verdict and every share still match a run of the config;
        # only the label misnames what the parties did
        text = render_report(run_scenario(build_scenario(built, seed=5)))
        relabelled = set_config_field(("scenario",), label)(json.loads(text))
        problems = audit_transcript(canonical_json(relabelled))
        assert len(problems) == 1
        assert problems[0].startswith(f"config does not re-run: scenario {label!r}")

    def test_false_share_and_hardened_attack_labels_swap(self):
        # documented exception: both labels build the same behaviors, and
        # the params a run used are in its config either way
        text = render_report(run_scenario(build_scenario("false-share", seed=5)))
        swapped = set_config_field(("scenario",), "hardened-attack")(json.loads(text))
        assert audit_transcript(canonical_json(swapped)) == []

    def test_a_custom_config_under_a_custom_label_is_clean(self):
        # party 1 forges to four of twelve, as the benchmark's
        # partial-forgery ceremony does
        behaviors = {pid: Behavior() for pid in range(1, 13)}
        behaviors[1] = Behavior(BehaviorKind.FALSE_SHARE_DEALER,
                                strategy=ForgeryStrategy(StrategyKind.ADD_P_MINUS_ONE, 1),
                                targets=(2, 5, 8, 11))
        config = ScenarioConfig("partial-forgery", 12, 6, "v64", behaviors, 5)
        assert audit_transcript(render_report(run_scenario(config))) == []

    def test_config_over_the_attempt_budget_is_a_problem(self, false_share_text):
        # a well-formed config for v64 with n=40 t=20 would take about
        # 5.5e12 reconstruction attempts; the audit refuses it up front
        doc = json.loads(false_share_text)
        doc["config"].update(
            params_ref={"name": "v64"}, n=40, t=20,
            behaviors={str(pid): {"kind": "honest"} for pid in range(1, 41)},
        )
        problems = audit_transcript(canonical_json(doc))
        assert len(problems) == 1
        assert problems[0].startswith("config does not re-run")
        assert "reconstruction attempts" in problems[0]

    def test_config_over_the_party_cap_is_a_problem(self, false_share_text):
        # n = t = 1000 is within the attempt budget, but dealing and
        # verification alone would cost about n**3 big-int operations
        doc = json.loads(false_share_text)
        doc["config"].update(
            params_ref={"name": "v64"}, n=1000, t=1000,
            behaviors={str(pid): {"kind": "honest"} for pid in range(1, 1001)},
        )
        problems = audit_transcript(canonical_json(doc))
        assert len(problems) == 1
        assert problems[0].startswith("config does not re-run")
        assert "parties" in problems[0]


# ---------------------------------------------------------------------------
# mutated transcripts
# ---------------------------------------------------------------------------
#
# One structured mutation per example: replace a leaf, drop a key, or
# append to a list. The strategy is not narrowed around hostile sizes.
# A config asking for too many reconstruction attempts (say, v64 with
# n=40 t=20) is refused by the attempt budget in ScenarioConfig.validate.
# A single mutation could still ask for slow parameter generation (fresh
# 96-bit parameters with a slow factorization); nothing bounds that yet,
# and the values drawn here make it improbable.

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.integers(-2, 12) | st.integers(-2, 12).map(str),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=5,
)


@lru_cache(maxsize=None)
def _clean_transcript(name):
    return render_report(run_scenario(build_scenario(name, seed=5)))


def _nodes(node):
    """(parent, key, child) for every node below the root."""
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        yield node, key, child
        if isinstance(child, (dict, list)):
            yield from _nodes(child)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(SCENARIO_NAMES), data=st.data())
def test_mutated_transcript_is_never_accepted_and_never_raises(name, data):
    original = _clean_transcript(name)
    doc = json.loads(original)
    nodes = list(_nodes(doc))
    action = data.draw(st.sampled_from(("replace", "drop", "append")))
    if action == "replace":
        parent, key = data.draw(st.sampled_from(
            [(parent, key) for parent, key, child in nodes if not isinstance(child, (dict, list))]
        ))
        parent[key] = data.draw(_JSON_VALUES)
    elif action == "drop":
        parent, key = data.draw(st.sampled_from(
            [(parent, key) for parent, key, _ in nodes if isinstance(parent, dict)]
        ))
        del parent[key]
    else:
        target = data.draw(st.sampled_from([child for _, _, child in nodes
                                            if isinstance(child, list)]))
        target.append(data.draw(_JSON_VALUES))
    text = canonical_json(doc)
    problems = audit_transcript(text)
    assert isinstance(problems, list)
    if text != original:
        assert problems
