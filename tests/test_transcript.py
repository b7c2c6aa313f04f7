"""Transcript rendering and the audit by regeneration: re-run the config,
report the first differing JSON paths, then compare bytes."""

import copy
import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsslab.attack import ForgeryStrategy, StrategyKind
from vsslab.numtheory import MAX_PARAM_BITS, Mode
from vsslab.poly import sample_polynomial
from vsslab.protocol import (
    MAX_PARTIES,
    SCENARIO_NAMES,
    Behavior,
    BehaviorKind,
    GenSpec,
    ScenarioConfig,
    ScenarioReport,
    build_scenario,
    run_scenario,
)
from vsslab.rng import substream
from vsslab.transcript import (
    SCHEMA_VERSION,
    _parse,
    audit_transcript,
    canonical_json,
    config_from_dict,
    render_report,
    report_to_dict,
)

from reference_model import exact_value, expand_schema_5, interpolate_at_zero

# `vsslab run --scenario false-share --seed 7` as schema "3" wrote it, where
# each share was an object repeating its dealer, recipient and provenance
SCHEMA_3_TRANSCRIPT = Path(__file__).parent / "data" / "schema3_false_share_seed7.json"
# the same run as schema "4" wrote it, with every fact written out in full
SCHEMA_4_TRANSCRIPT = Path(__file__).parent / "data" / "schema4_false_share_seed7.json"


@pytest.fixture(scope="module")
def false_share_text():
    return render_report(run_scenario(build_scenario("false-share", seed=7)))


def partial_forgery_config(n, t, targets, params_ref, seed):
    """Party 1 forges to targets only, then withholds, as the benchmark's
    partial-forgery ceremony does: its pool mixes forged and honest shares."""
    behaviors = {pid: Behavior() for pid in range(1, n + 1)}
    behaviors[1] = Behavior(BehaviorKind.FALSE_SHARE_DEALER,
                            strategy=ForgeryStrategy(StrategyKind.ADD_P_MINUS_ONE, 1),
                            targets=targets)
    return ScenarioConfig("partial-forgery", n, t, params_ref, behaviors, seed)


@pytest.fixture(scope="module")
def partial_forgery_text():
    return render_report(run_scenario(partial_forgery_config(5, 3, (2, 4), "small11", 7)))


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
    assert json.loads(false_share_text)["version"] == SCHEMA_VERSION == "5"


def test_top_level_keys_are_the_schema_5_set(false_share_text):
    doc = json.loads(false_share_text)
    assert set(doc) == {
        "version", "config", "params", "commitments", "shares", "forgeries", "rejected",
        "aggregate_public_key", "reconstructions", "group_key", "verdict",
    }
    # config stays the third key, so a reader can scan it first
    assert list(doc)[2] == "config"


def test_rendering_is_deterministic():
    a = render_report(run_scenario(build_scenario("honest", seed=3)))
    b = render_report(run_scenario(build_scenario("honest", seed=3)))
    assert a == b


# Wider configs than scripts/transcript_digest.py covers, where each
# dealer's row is verified by the row check and the false-share and
# order-shift rows fall back to per-share checks: (scenario, params, n, t),
# each at seeds 0-2, hashed in that order. Recorded when schema "5" came
# in; a change meant to keep transcripts byte-identical leaves it alone.
# SCHEMA_4_WIDE_DIGEST is what schema "4" wrote for them, and what their
# schema "5" transcripts expand to.
WIDE_CONFIGS = (
    ("honest", "v64", 12, 6),
    ("false-share", "v64", 12, 6),
    ("withhold", "v64", 12, 6),
    ("honest", "h64", 16, 16),
    ("hardened-attack", "h64", 16, 15),
    ("order-shift", "v32", 16, 8),
)
WIDE_DIGEST = "3bfdd2e1496a68ce118f2c6e817eddd92d9d61440232b748e0ad5357a728ba22"
SCHEMA_4_WIDE_DIGEST = "44fcc114647f006aac25bbf871dbfb1daab68c6adf64d5c4b73a51f6550de22d"
# scripts/transcript_digest.py's value under schema "4" (test_scripts.py
# pins the schema "5" one)
SCHEMA_4_TRANSCRIPT_DIGEST = "b7c84613defcab2d2aba18bf9c3954703a4038de9c8b2ba6c6cf1d213ec40387"


def test_wide_config_transcripts_are_pinned():
    digest, expanded = hashlib.sha256(), hashlib.sha256()
    for name, params_ref, n, t in WIDE_CONFIGS:
        for seed in range(3):
            report = run_scenario(build_scenario(name, seed=seed, n=n, t=t, params_ref=params_ref))
            text = render_report(report)
            digest.update(text.encode())
            expanded.update(canonical_json(expand_schema_5(json.loads(text))).encode())
    assert digest.hexdigest() == WIDE_DIGEST
    assert expanded.hexdigest() == SCHEMA_4_WIDE_DIGEST


@pytest.mark.parametrize("name, mode, n, t, verdict", [
    ("honest", Mode.VULNERABLE, MAX_PARTIES, MAX_PARTIES, "key_assembled"),
    ("hardened-attack", Mode.HARDENED, MAX_PARTIES, MAX_PARTIES - 1, "key_assembled"),
    ("false-share", Mode.VULNERABLE, 5, 3, "key_blocked"),
], ids=["honest-96-bit-64/64", "hardened-attack-96-bit-64/63", "false-share-96-bit-5/3"])
def test_the_widest_generated_groups_reach_their_verdicts_and_audit_clean(name, mode, n, t,
                                                                          verdict):
    # generated groups of the most bits, where packed evaluation and
    # interpolation use their widest slots; the party cap on the 64-bit
    # groups is audited with its row caches and its forger in test_protocol
    report = run_scenario(build_scenario(name, seed=1, n=n, t=t,
                                         params_ref=GenSpec(MAX_PARAM_BITS, mode)))
    assert report.verdict.value == verdict
    assert audit_transcript(render_report(report)) == []


def test_the_scenario_transcripts_expand_to_what_schema_4_wrote():
    # each field schema "5" drops is rebuilt from the others, so the file
    # loses nothing: the five scenarios at seeds 0-19 expand byte for byte
    digest = hashlib.sha256()
    for name in SCENARIO_NAMES:
        for seed in range(20):
            doc = json.loads(render_report(run_scenario(build_scenario(name, seed=seed))))
            digest.update(canonical_json(expand_schema_5(doc)).encode())
    assert digest.hexdigest() == SCHEMA_4_TRANSCRIPT_DIGEST


def test_a_rejected_share_is_written_as_its_recipient_and_rebuilt():
    # no config that runs rejects a share yet, since there is no complaint
    # round; a report whose matrix rejects one lists only that recipient
    report = run_scenario(build_scenario("honest", seed=7))
    matrix = tuple(tuple(k != 3 for k in range(1, 6)) if dealer == 2 else row
                   for dealer, row in enumerate(report.verification_matrix, 1))
    doc = report_to_dict(ScenarioReport(**{**report.__dict__, "verification_matrix": matrix}))
    assert doc["rejected"] == {"2": [3]}
    assert expand_schema_5(doc)["verification_matrix"] == [list(row) for row in matrix]


def test_the_schema_4_fixture_is_the_expansion_of_its_run(false_share_text):
    assert canonical_json(expand_schema_5(json.loads(false_share_text))) == (
        SCHEMA_4_TRANSCRIPT.read_text())


@pytest.mark.parametrize("targets, verdict, attempts", [
    (range(9, 17), "key_blocked", 6_435),
    (range(2, 9), "key_assembled", 50),
], ids=["to-9-16-blocks", "to-2-8-assembles"])
def test_a_mixed_v64_16_8_pool_expands_to_its_report(targets, verdict, attempts):
    # party 1 forges to some of the fifteen parties of its pool, so the pool
    # is enumerated: all C(15, 8) subsets fail for targets 9-16, and the 50th
    # passes for targets 2-8. Every pool, subset, commitment check and
    # forgery attempt the expansion rebuilds is the one the ceremony made:
    # each value is its subset's shares interpolated at zero, and it passed
    # exactly when g**value is the dealer's c_0.
    report = run_scenario(partial_forgery_config(16, 8, targets, "v64", 0))
    assert report.verdict.value == verdict
    assert len(report.reconstructions[0].attempts) == attempts
    old = expand_schema_5(json.loads(render_report(report)))
    assert old["verification_matrix"] == [list(row) for row in report.verification_matrix]
    assert old["forgery_attempts"] == [
        {"dealer": 1, "recipient": k, "outcome": "forged",
         "strategy": {"kind": "add_p_minus_one", "multiplier": "1"}} for k in targets]
    params = report.params
    m = params.field_modulus
    assert old["reconstructions"].keys() == {str(dealer) for dealer in range(1, 17)}
    for dealer, (r, row, cv) in enumerate(zip(report.reconstructions, report.shares,
                                              report.commitments), 1):
        rebuilt = old["reconstructions"][str(dealer)]
        # party 1 withholds, and no share was rejected
        assert rebuilt["pool"] == list(range(2, 17))
        assert [a["value"] for a in rebuilt["attempts"]] == [str(v) for v in r.attempts]
        for a in rebuilt["attempts"]:
            value = interpolate_at_zero([(k, row[k - 1] % m) for k in a["subset"]], m)
            assert a["value"] == str(value)
            assert a["commitment_check"] == (pow(params.g, value, params.p) == cv.c[0])
        assert rebuilt["recovered"] == (None if r.recovered is None else str(r.recovered))


# the five scenarios, and the wide false-share config, whose forger's row
# falls back to per-share checks
HAND_BUILT = [build_scenario(name, seed=7) for name in SCENARIO_NAMES] + [
    build_scenario(name, seed=7, n=n, t=t, params_ref=params_ref)
    for name, params_ref, n, t in WIDE_CONFIGS[1:2]]


@pytest.mark.parametrize("config", HAND_BUILT,
                         ids=[f"{c.scenario}-{c.n}" for c in HAND_BUILT])
def test_the_rounds_called_one_at_a_time_render_as_run_scenario(config):
    # the public calls perfbench/ops.py's trace op makes to time each
    # round, in its order, ending in a ScenarioReport built by hand
    from vsslab import (
        ScenarioReport,
        aggregate_public_key,
        assemble_group_key,
        load_registry,
        run_dealing_round,
        run_verification_round,
    )
    from vsslab.protocol import resolve_params, run_reconstruction_round

    load_registry()
    params = resolve_params(config)
    config.validate(params)
    dealing = run_dealing_round(config, params)
    matrix = run_verification_round(dealing.shares, dealing.commitments, params)
    reconstructions = run_reconstruction_round(dealing, matrix, config, params)
    assembly = assemble_group_key(reconstructions, dealing.commitments, params, matrix)
    report = ScenarioReport(
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
    text = render_report(report)
    assert text == render_report(run_scenario(config))
    assert audit_transcript(text) == []
    # the trace op counts share checks as the matrix's entries
    assert sum(len(row) for row in matrix) == config.n ** 2


def _ceremonies():
    """The five scenarios at seeds 0-19, then WIDE_CONFIGS at seeds 0-2."""
    configs = [build_scenario(name, seed=seed) for name in SCENARIO_NAMES for seed in range(20)]
    configs += [build_scenario(name, seed=seed, n=n, t=t, params_ref=params_ref)
                for name, params_ref, n, t in WIDE_CONFIGS for seed in range(3)]
    return configs


def test_every_share_is_rebuilt_from_the_transcript():
    # a value's position gives its dealer and recipient, forgeries says
    # whether its dealer forged, and the dealer's config behavior to whom
    # and how; the honest value to compare against comes from the
    # dealer's own polynomial
    forged_seen = 0
    for config in _ceremonies():
        report = run_scenario(config)
        doc = json.loads(render_report(report))
        rows = sorted(doc["shares"].items(), key=lambda item: int(item[0]))
        assert [int(dealer) for dealer, _ in rows] == list(range(1, config.n + 1))
        rebuilt = tuple(tuple(map(int, row)) for _, row in rows)
        assert rebuilt == report.shares, config
        behaviors = doc["config"]["behaviors"]
        forged = {(int(dealer), k): behaviors[dealer]["strategy"]
                  for dealer, outcome in doc["forgeries"].items() if outcome == "forged"
                  for k in behaviors[dealer]["targets"]}
        params = report.params
        for dealer, row in enumerate(rebuilt, 1):
            poly = sample_polynomial(config.t, params.field_modulus, substream(config.seed, dealer))
            for k, value in enumerate(row, 1):
                strategy = forged.get((dealer, k))
                honest = exact_value(poly, k)
                if strategy is None:
                    assert value == (honest if params.q is None else honest % params.q)
                else:
                    strategy = ForgeryStrategy(StrategyKind(strategy["kind"]),
                                               int(strategy["multiplier"]))
                    assert value == honest + strategy.shift(params)
                    forged_seen += 1
    # false-share and order-shift forge to n - 1 parties, hardened-attack to none
    assert forged_seen == 2 * 20 * 4 + 3 * 11 + 3 * 15


# SHA-256 over the transcripts of _ceremonies() as schema "3" rendered
# them, each parsed, without its "shares" and "version", and re-rendered
# by canonical_json, hashed in order: schema "4" changed no other section,
# and schema "5" transcripts expand (expand_schema_5) to schema "4" ones.
SCHEMA_3_SECTIONS_DIGEST = "fa08fb25ee2fcc8603390304314ffe6053506b0a0717fa236dc74371cf00bdc7"


def test_sections_other_than_shares_are_as_schema_3_wrote_them():
    digest = hashlib.sha256()
    for config in _ceremonies():
        doc = expand_schema_5(json.loads(render_report(run_scenario(config))))
        del doc["shares"], doc["version"]
        digest.update(canonical_json(doc).encode())
    assert digest.hexdigest() == SCHEMA_3_SECTIONS_DIGEST

    old = json.loads(SCHEMA_3_TRANSCRIPT.read_text())
    new = expand_schema_5(json.loads(
        render_report(run_scenario(build_scenario("false-share", seed=7)))))
    assert old.keys() == new.keys()
    for key in old.keys() - {"shares", "version"}:
        assert new[key] == old[key], key
    # and the old share objects hold what the new rows and attempts do
    forged = {(a["dealer"], a["recipient"]): a["strategy"]
              for a in new["forgery_attempts"] if a["outcome"] == "forged"}
    assert len(old["shares"]) == sum(map(len, new["shares"].values())) == 25
    for share in old["shares"]:
        where = (share["dealer"], share["recipient"])
        assert share["value"] == new["shares"][str(where[0])][where[1] - 1]
        if where in forged:
            assert share["provenance"] == {"kind": "forged", "strategy": forged[where]}
        else:
            assert share["provenance"] == {"kind": "honest"}


def test_big_integers_serialize_as_decimal_strings():
    report = run_scenario(
        build_scenario("honest", seed=3, params_ref="v64")
    )
    doc = json.loads(render_report(report))
    assert isinstance(doc["params"]["p"], str)
    assert isinstance(doc["shares"]["1"][0], str)
    assert int(doc["shares"]["1"][0]) == report.shares[0][0]
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


# ---------------------------------------------------------------------------
# the codec: json's C core, driven as json.dumps and json.loads drive it
# ---------------------------------------------------------------------------

# characters that need escapes, non-ASCII ones, astral ones, and lone surrogates
_JSON_CHARS = (st.characters() | st.characters(categories=["Cs"])
               | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\xe9\u20ac\U0001f600'))
_JSON_STRINGS = st.text(_JSON_CHARS, max_size=12)
# the widest an int may be and still convert to decimal: 4300 digits
_WIDEST = 10**4300 - 1
_JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-_WIDEST, _WIDEST)
    | st.floats(allow_nan=False) | _JSON_STRINGS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_JSON_STRINGS, inner, max_size=4)),
    max_leaves=12,
)
_JSON_SPACE = st.text(st.sampled_from(" \t\n\r"), max_size=3)


@settings(max_examples=300, deadline=None)
@given(doc=_JSON_TREES)
def test_canonical_json_is_json_dumps_with_sorted_keys_and_compact_separators(doc):
    assert canonical_json(doc) == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


@settings(max_examples=300, deadline=None)
@given(doc=_JSON_TREES, indent=st.sampled_from((None, 0, 2, "\t")),
       ensure_ascii=st.booleans(), before=_JSON_SPACE, after=_JSON_SPACE)
def test_the_audits_parse_of_valid_text_is_json_loads(doc, indent, ensure_ascii, before, after):
    text = before + json.dumps(doc, indent=indent, ensure_ascii=ensure_ascii) + after
    with mock.patch.dict(sys.modules, {"json": None}):  # valid text never imports json
        parsed = _parse(text)
    # repr tells 1 from 1.0 and True, and -0.0 from 0.0
    assert repr(parsed) == repr(json.loads(text))


@pytest.mark.parametrize("text", [
    '{"a": 1, "a": 2}',
    "[NaN, Infinity, -Infinity, 1e400, -0.0, 1E-400]",
    '"\\ud800\\udc00\\udfff\\u00e9"',
    " \t\r\n[ {} , [ ] ]\n",
])
def test_the_audits_parse_reads_duplicates_constants_and_escapes_as_json_loads(text):
    assert repr(_parse(text)) == repr(json.loads(text))


def test_canonical_json_refuses_a_value_json_cannot_hold():
    with pytest.raises(TypeError):
        canonical_json({"a": {1, 2}})


def test_a_key_on_one_side_only_is_reported_and_the_walk_goes_on(false_share_text):
    # "commitments" is missing and "extra" is added; each is followed by a
    # key the walk still compares, and those agree
    def edit(doc):
        del doc["commitments"]
        doc["extra"] = True

    problems = audit_transcript(retamper(false_share_text, edit))
    assert len(problems) == 2
    assert problems[0].startswith("commitments: missing from transcript, regeneration has {")
    assert problems[1] == "extra: transcript has True, regeneration has no such key"


# A config the decoder or its records refuse, and the one problem the
# audit gives for it: the records' wording, as `vsslab verify` prints it
MALFORMED = {
    "top-level-list": (lambda doc: [], "transcript is not a JSON object, got list"),
    "behaviors-list": (set_config_field(("behaviors",), []),
                       "config does not re-run: config.behaviors must be an object, got []"),
    "numeric-name": (set_config_field(("params_ref",), {"name": 3}),
                     "config does not re-run: params_ref must be a name or a GenSpec, got 3"),
    "bits-200": (set_config_field(("params_ref",), {"bits": 200, "mode": "vulnerable"}),
                 "config does not re-run: bit_length must be in [4, 96], got 200"),
    "huge-n": (set_config_field(("n",), 10**12),
               "config does not re-run: at most 64 parties are supported, got n=1000000000000"),
    "word-seed": (set_config_field(("seed",), "seven"),
                  "config does not re-run: config.seed must be a decimal integer, got 'seven'"),
    "unknown-behavior": (set_config_field(("behaviors", "1", "kind"), "saboteur"),
                         "config does not re-run: unknown behavior kind 'saboteur'"),
    "unknown-mode": (set_config_field(("params_ref",), {"bits": 16, "mode": "sideways"}),
                     "config does not re-run: unknown mode 'sideways'"),
    "fractional-multiplier": (
        set_config_field(("behaviors", "1", "strategy", "multiplier"), "1.5"),
        "config does not re-run: config.behaviors.1.strategy.multiplier must be a decimal "
        "integer, got '1.5'"),
    # parses (4300 digits is the int/str limit), but a forged share
    # built from it would have too many digits to print
    "4300-digit-multiplier": (
        set_config_field(("behaviors", "1", "strategy", "multiplier"), "8" + "9" * 4299),
        "config does not re-run: party 1 needs a forgery multiplier below p = 11"),
    "word-party-id": (set_config_field(("behaviors",), {"one": {"kind": "honest"}}),
                      "config does not re-run: a party id of config.behaviors must be a "
                      "decimal integer, got 'one'"),
    "string-target": (set_config_field(("behaviors", "1", "targets"), ["2"]),
                      "config does not re-run: a target must be an integer, got '2'"),
    "forger-without-strategy": (set_config_field(("behaviors", "1", "strategy"), None),
                                "config does not re-run: a false-share dealer needs a strategy "
                                "and targets"),
    # a key the kind takes no value for is refused, not ignored
    "honest-with-targets": (set_config_field(("behaviors", "2"), {"kind": "honest",
                                                                  "targets": [3]}),
                            "config does not re-run: honest takes no strategy or targets"),
}


class TestAudit:
    def test_untampered_transcript_is_clean(self, false_share_text):
        assert audit_transcript(false_share_text) == []

    def test_all_scenarios_audit_clean(self):
        for name in ("honest", "order-shift", "withhold", "hardened-attack"):
            text = render_report(run_scenario(build_scenario(name, seed=5)))
            assert audit_transcript(text) == [], name

    def test_share_value_tamper_detected(self, false_share_text):
        def bump_share(doc):
            doc["shares"]["1"][0] = str(int(doc["shares"]["1"][0]) + 1)

        problems = audit_transcript(retamper(false_share_text, bump_share))
        assert problems
        assert any(p.startswith("shares.1[0]: transcript has") for p in problems)

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
        # "1" listed every t-subset, "2" every subset of a failing pool on
        # one polynomial, "3" an object per share, and "4" every fact in
        # full; such a file is regenerated, not read
        for version in ("999", "1", "2", "3", "4"):
            def wrong_version(doc):
                doc["version"] = version

            problems = audit_transcript(retamper(false_share_text, wrong_version))
            assert problems == [f"unsupported schema version '{version}'"]

    def test_a_schema_3_transcript_is_refused(self):
        assert audit_transcript(SCHEMA_3_TRANSCRIPT.read_text()) == [
            "unsupported schema version '3'"]

    def test_a_schema_4_transcript_is_refused(self):
        assert audit_transcript(SCHEMA_4_TRANSCRIPT.read_text()) == [
            "unsupported schema version '4'"]

    def test_reflowed_transcript_is_not_canonical(self, false_share_text):
        reflowed = json.dumps(json.loads(false_share_text), sort_keys=True) + "\n"
        problems = audit_transcript(reflowed)
        assert len(problems) == 1
        assert "not in canonical form" in problems[0]

    def test_broken_json_reported_not_raised(self, false_share_text):
        problems = audit_transcript(false_share_text[:-5])
        assert problems
        assert any("JSON" in p for p in problems)

    @pytest.mark.parametrize("dealer, edit, problem", [
        ("1", lambda values: values.pop(),
         "reconstructions.1.values: transcript has 3 entries, regeneration has 4"),
        ("1", lambda values: values.insert(0, values.pop(1)),
         "reconstructions.1.values[0]: transcript has '{1}', regeneration has '{0}'"),
        ("2", lambda values: values.append(values[0]),
         "reconstructions.2.values: transcript has 2 entries, regeneration has 1"),
    ], ids=["drop-last", "swap-first-two", "append"])
    def test_an_edited_attempt_list_is_reported(self, partial_forgery_text, dealer, edit,
                                                problem):
        # dealer 1 forges to 2 and 4 of its pool 2..5, which lists all four
        # subsets and passes none; dealer 2's honest pool passes at its first
        doc = json.loads(partial_forgery_text)
        first = doc["reconstructions"]["1"]
        assert len(first["values"]) == 4 and first["recovered"] is None
        problems = audit_transcript(retamper(
            partial_forgery_text, lambda doc: edit(doc["reconstructions"][dealer]["values"])))
        assert problems[0] == problem.format(*first["values"])

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

    def test_a_share_row_one_value_short_is_reported(self, false_share_text):
        def drop_last_share(doc):
            doc["shares"]["2"].pop()

        problems = audit_transcript(retamper(false_share_text, drop_last_share))
        assert problems == ["shares.2: transcript has 4 entries, regeneration has 5"]

    def test_a_repeated_forgery_target_does_not_re_run(self, partial_forgery_text):
        # [2, 2, 4] and [2, 4] would describe one ceremony twice
        def repeat_target(doc):
            doc["config"]["behaviors"]["1"]["targets"] = [2, 2, 4]

        problems = audit_transcript(retamper(partial_forgery_text, repeat_target))
        assert problems == ["config does not re-run: party 2 targeted twice"]

    @pytest.mark.parametrize("edit, problem", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_config_is_a_problem_not_a_crash(self, false_share_text, edit, problem):
        problems = audit_transcript(canonical_json(edit(json.loads(false_share_text))))
        assert problems == [problem]

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
        config = partial_forgery_config(12, 6, (2, 5, 8, 11), "v64", 5)
        assert audit_transcript(render_report(run_scenario(config))) == []

    def test_config_over_the_attempt_budget_is_a_problem(self, false_share_text):
        # party 1 forging to some of the others at v64 with n=40 t=20 could
        # take about 5.5e12 reconstruction attempts; the audit refuses it
        # up front
        doc = json.loads(false_share_text)
        behaviors = {str(pid): {"kind": "honest"} for pid in range(1, 41)}
        behaviors["1"] = doc["config"]["behaviors"]["1"]
        doc["config"].update(params_ref={"name": "v64"}, n=40, t=20, behaviors=behaviors)
        problems = audit_transcript(canonical_json(doc))
        assert len(problems) == 1
        assert problems[0].startswith("config does not re-run")
        assert "reconstruction attempts" in problems[0]

    @pytest.mark.parametrize("n", [1000, 10**12])
    def test_config_over_the_party_cap_is_a_problem(self, false_share_text, monkeypatch, n):
        # n = t = 1000 is within the attempt budget, but dealing and
        # verification alone would cost about n**3 big-int operations; and
        # every unlisted party is honest, so n is bounded before n honest
        # behaviors are filled in
        import vsslab.transcript as transcript

        built = []
        monkeypatch.setattr(transcript, "Behavior",
                            lambda *args, **kwargs: built.append(1) or Behavior(*args, **kwargs))
        doc = json.loads(false_share_text)
        doc["config"].update(params_ref={"name": "v64"}, n=n, t=n, behaviors={})
        assert audit_transcript(canonical_json(doc)) == [
            f"config does not re-run: at most 64 parties are supported, got n={n}"]
        assert built == []

    def test_a_listed_honest_party_is_reported(self, false_share_text):
        # the config decodes to the same ceremony, but an honest party is
        # written by leaving it out
        def list_honest(doc):
            doc["config"]["behaviors"]["2"] = {"kind": "honest"}

        assert audit_transcript(retamper(false_share_text, list_honest)) == [
            "config.behaviors.2: transcript has {'kind': 'honest'}, regeneration has no such key"]

    @pytest.mark.parametrize("field, size", [("behaviors", 65), ("behaviors", 200_000),
                                             ("targets", 65)])
    def test_more_entries_than_parties_are_refused_before_any_behavior_is_built(
            self, false_share_text, monkeypatch, field, size):
        import vsslab.transcript as transcript

        built = []
        monkeypatch.setattr(transcript, "Behavior",
                            lambda *args, **kwargs: built.append(1) or Behavior(*args, **kwargs))
        doc = json.loads(false_share_text)
        if field == "behaviors":
            doc["config"]["behaviors"] = {str(pid): {"kind": "honest"}
                                          for pid in range(1, size + 1)}
            where = "config.behaviors"
        else:
            doc["config"]["behaviors"]["1"]["targets"] = list(range(2, size + 2))
            where = "config.behaviors.1.targets"
        assert audit_transcript(canonical_json(doc)) == [
            f"config does not re-run: {where} has {size:,} entries, more than the 64 "
            "parties a config can hold"]
        assert built == []


# ---------------------------------------------------------------------------
# hostile values
# ---------------------------------------------------------------------------
#
# A refusal quotes the value it refuses, at a bounded length, however
# long or deep that value is: each gives one problem line of at most 300
# characters.


def _nested_list(depth):
    """Lists 6 wide and depth deep around 100-character strings."""
    value = "y" * 100
    for _ in range(depth):
        value = [value] * 6
    return value


HOSTILE_VALUES = {
    "200k-string": "x" * 200_000,
    "200k-list": [0] * 200_000,
    # a 4,824,982-character transcript, under the CLI's cap
    "6-deep-list": _nested_list(6),
    # out of every range; JSON reads ints of up to 4,300 digits
    "4001-digit-int": 10**4000,
}


def _put(*path):
    """An edit that sets doc[path...] = value in place."""
    def edit(doc, value):
        *parents, leaf = path
        for key in parents:
            doc = doc[key]
        doc[leaf] = value
    return edit


def _put_forger(*path):
    return _put("config", "behaviors", "1", *path)


# every field whose refusal quotes its value, in the false-share transcript
QUOTED_FIELDS = {
    "version": _put("version"),
    **{field: _put("config", field) for field in ("scenario", "n", "t", "seed", "params_ref",
                                                  "behaviors")},
    "params_ref.name": lambda doc, value: _put("config", "params_ref")(doc, {"name": value}),
    "params_ref.bits": lambda doc, value: _put("config", "params_ref")(
        doc, {"bits": value, "mode": "vulnerable"}),
    "params_ref.mode": lambda doc, value: _put("config", "params_ref")(
        doc, {"bits": 16, "mode": value}),
    "behavior": _put_forger(),
    "kind": _put_forger("kind"),
    "strategy": _put_forger("strategy"),
    "strategy.kind": _put_forger("strategy", "kind"),
    "strategy.multiplier": _put_forger("strategy", "multiplier"),
    "targets": _put_forger("targets"),
    # 64 distinct ints, so none is targeted twice
    "each-target": lambda doc, value: _put_forger("targets")(
        doc, [value - k for k in range(64)] if type(value) is int else [value]),
}


def _one_short_problem(problems):
    # one problem, on one line, of at most 300 characters
    assert len(problems) == 1 and len(problems[0]) <= 300, [p[:300] for p in problems]
    assert "\n" not in problems[0], problems[0]


@pytest.mark.parametrize("value", HOSTILE_VALUES.values(), ids=HOSTILE_VALUES.keys())
@pytest.mark.parametrize("put", QUOTED_FIELDS.values(), ids=QUOTED_FIELDS.keys())
def test_a_hostile_value_gives_one_short_problem(false_share_text, put, value):
    doc = json.loads(false_share_text)
    put(doc, value)
    _one_short_problem(audit_transcript(canonical_json(doc)))


@pytest.mark.parametrize("key", ["x" * 200_000, "9" * 4001, " " * 200_000 + "2", "2\n"],
                         ids=["200k-string", "4001-digit", "200k-padded", "newline"])
def test_a_hostile_party_id_gives_one_short_problem(false_share_text, key):
    # the last three decode, so the refusal of their behavior names them
    doc = json.loads(false_share_text)
    doc["config"]["behaviors"][key] = "x" * 200_000
    _one_short_problem(audit_transcript(canonical_json(doc)))


@pytest.mark.parametrize("where, key", [
    ((), "x" * 200_000),
    (("forgeries",), "x" * 200_000),
    (("shares",), "x" * 200_000),
    (("reconstructions",), "x" * 200_000),
    (("shares",), "x\nFAIL: forged"),
], ids=["top-level", "forgeries", "shares", "reconstructions", "newline-in-shares"])
def test_a_hostile_key_gives_one_short_problem(false_share_text, where, key):
    # the config still runs, so the problem is the path of a key the
    # regeneration lacks, and the path quotes the key cut as a party id is
    doc = json.loads(false_share_text)
    _put(*where, key)(doc, True)
    _one_short_problem(audit_transcript(canonical_json(doc)))


def test_verify_prints_one_short_line_for_a_hostile_value(false_share_text, tmp_path, capsys):
    from vsslab import cli

    doc = json.loads(false_share_text)
    doc["config"]["t"] = HOSTILE_VALUES["6-deep-list"]
    path = tmp_path / "t.json"
    path.write_text(canonical_json(doc))
    assert cli.main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("FAIL: ") and err.count("\n") == 1 and len(err) <= 307, err[:400]


# ---------------------------------------------------------------------------
# mutated transcripts
# ---------------------------------------------------------------------------
#
# One structured mutation per example: replace a leaf, drop a key, or
# append to a list. The strategy is not narrowed around hostile sizes.
# A config asking for too many reconstruction attempts (say, a partial
# forger on v64 with n=40 t=20) is refused by the attempt budget in
# ScenarioConfig.validate.
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
