"""Canonical JSON transcripts of scenario runs, and their audit.

Schema version "4". Keys are sorted, separators are compact (no
whitespace, one newline at the end), there are no timestamps, every
field-sized integer is a decimal string (seeds and share values can
exceed what JSON numbers hold), and small structural integers (party
ids, n, t) stay as JSON numbers. Equal reports serialize to identical
bytes, which is what makes the tamper check meaningful. Shares are
written once each, in the rows the report holds them, one per dealer as
commitments are: "shares": {"<dealer>": [value to party 1, ..., value
to party n]}. A share is forged exactly when forgery_attempts has an
entry for its (dealer, recipient) whose outcome is "forged", and that
entry names the strategy. Each dealer's reconstruction lists the
subsets tried, up to the first that passed its commitment check; a
failing pool whose shares lie on one polynomial lists only its first
subset, since every other would fail the same way (see
protocol.reconstruct_pool). The audit refuses every other schema
version.
"""

from __future__ import annotations

import itertools
import json
import reprlib

from .attack import ForgeryStrategy, StrategyKind
from .errors import ConfigInvalid, VsslabError
from .numtheory import Mode
from .protocol import (
    Behavior,
    BehaviorKind,
    GenSpec,
    ScenarioConfig,
    ScenarioReport,
    run_scenario,
)

SCHEMA_VERSION = "4"


def canonical_json(doc: dict) -> str:
    """The one serialization everything uses: sorted keys, compact separators.

    Without indent, json.dumps runs the C encoder.
    """
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def _strategy_to_dict(strategy: ForgeryStrategy) -> dict:
    return {"kind": strategy.kind.value, "multiplier": str(strategy.multiplier)}


def _behavior_to_dict(behavior: Behavior) -> dict:
    doc: dict = {"kind": behavior.kind.value}
    if behavior.kind is BehaviorKind.FALSE_SHARE_DEALER:
        doc["strategy"] = _strategy_to_dict(behavior.strategy)
        doc["targets"] = list(behavior.targets)
    return doc


def _params_ref_to_dict(ref) -> dict:
    if isinstance(ref, str):
        return {"name": ref}
    return {"bits": ref.bits, "mode": ref.mode.value}


def report_to_dict(report: ScenarioReport) -> dict:
    config = report.config
    params = report.params
    return {
        "version": SCHEMA_VERSION,
        "config": {
            "scenario": config.scenario,
            "n": config.n,
            "t": config.t,
            "params_ref": _params_ref_to_dict(config.params_ref),
            "seed": str(config.seed),
            "behaviors": {
                str(pid): _behavior_to_dict(config.behaviors[pid])
                for pid in sorted(config.behaviors)
            },
        },
        "params": {
            "mode": params.mode.value,
            "p": str(params.p),
            "g": str(params.g),
            "d": str(params.d),
            "q": str(params.q) if params.q is not None else None,
        },
        "commitments": {
            str(cv.dealer): [str(c) for c in cv.c] for cv in report.commitments
        },
        "shares": {
            str(dealer): [str(s.value) for s in row]
            for dealer, row in enumerate(report.shares, 1)
        },
        "forgery_attempts": [
            {
                "dealer": fa.dealer,
                "recipient": fa.recipient,
                "strategy": _strategy_to_dict(fa.strategy),
                "outcome": fa.outcome,
            }
            for fa in report.forgery_attempts
        ],
        "verification_matrix": [list(row) for row in report.verification_matrix],
        "aggregate_public_key": str(report.aggregate_public_key),
        "reconstructions": {
            str(r.dealer): {
                "pool": list(r.pool),
                "attempts": [
                    {
                        "subset": list(a.subset),
                        "value": str(a.value),
                        "commitment_check": a.commitment_check,
                    }
                    for a in r.attempts
                ],
                "recovered": str(r.recovered) if r.recovered is not None else None,
            }
            for r in report.reconstructions
        },
        "group_key": str(report.group_key) if report.group_key is not None else None,
        "verdict": report.verdict.value,
    }


def render_report(report: ScenarioReport) -> str:
    return canonical_json(report_to_dict(report))


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

_JSON_TYPE_NAMES = {dict: "an object", list: "a list", int: "an integer", str: "a string"}


# repr for untrusted JSON values, bounded in length and nesting depth
_SHORT = reprlib.Repr()
_SHORT.maxstring = _SHORT.maxlong = 60
_brief = _SHORT.repr


def _typed(value, kind: type, where: str):
    """value if it is exactly of type `kind`, so a bool never passes as an int."""
    if type(value) is not kind:
        raise ConfigInvalid(f"{where} must be {_JSON_TYPE_NAMES[kind]}, got {_brief(value)}")
    return value


def _decimal(value, where: str) -> int:
    text = _typed(value, str, where)
    try:
        return int(text)
    except ValueError:
        raise ConfigInvalid(f"{where} must be a decimal integer, got {_brief(text)}") from None


def _enum(cls, value, where: str):
    text = _typed(value, str, where)
    try:
        return cls(text)
    except ValueError:
        raise ConfigInvalid(f"{where} has unknown value {_brief(text)}") from None


def _strategy_from_dict(doc: dict, where: str) -> ForgeryStrategy:
    return ForgeryStrategy(
        kind=_enum(StrategyKind, doc.get("kind"), f"{where}.kind"),
        multiplier=_decimal(doc.get("multiplier"), f"{where}.multiplier"),
    )


def _behavior_from_dict(doc: dict, where: str) -> Behavior:
    kind = _enum(BehaviorKind, doc.get("kind"), f"{where}.kind")
    if kind is not BehaviorKind.FALSE_SHARE_DEALER:
        return Behavior(kind=kind)
    targets = tuple(_typed(pid, int, f"{where}.targets[]")
                    for pid in _typed(doc.get("targets"), list, f"{where}.targets"))
    strategy = _typed(doc.get("strategy"), dict, f"{where}.strategy")
    return Behavior(kind=kind, strategy=_strategy_from_dict(strategy, f"{where}.strategy"),
                    targets=targets)


def config_from_dict(doc: dict) -> ScenarioConfig:
    """Decode a transcript's config section, checking every field's type first.

    Raises ConfigInvalid on any malformed field; ranges and cross-field
    constraints are left to ScenarioConfig.validate.
    """
    _typed(doc, dict, "config")
    ref_doc = _typed(doc.get("params_ref"), dict, "config.params_ref")
    if "name" in ref_doc:
        ref = _typed(ref_doc["name"], str, "config.params_ref.name")
    else:
        ref = GenSpec(
            bits=_typed(ref_doc.get("bits"), int, "config.params_ref.bits"),
            mode=_enum(Mode, ref_doc.get("mode"), "config.params_ref.mode"),
        )
    behaviors = {}
    for pid, behavior in _typed(doc.get("behaviors"), dict, "config.behaviors").items():
        where = f"config.behaviors.{pid}"
        behaviors[_decimal(pid, f"party id of {where}")] = _behavior_from_dict(
            _typed(behavior, dict, where), where
        )
    return ScenarioConfig(
        scenario=_typed(doc.get("scenario"), str, "config.scenario"),
        n=_typed(doc.get("n"), int, "config.n"),
        t=_typed(doc.get("t"), int, "config.t"),
        params_ref=ref,
        behaviors=behaviors,
        seed=_decimal(doc.get("seed"), "config.seed"),
    )


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

MAX_REPORTED_PATHS = 8


def _differences(path: str, got, want):
    """One message per JSON path where the transcript and regeneration differ."""
    if type(got) is dict and type(want) is dict:
        for key in sorted(got.keys() | want.keys()):
            sub = f"{path}.{key}" if path else key
            if key not in got:
                yield f"{sub}: missing from transcript, regeneration has {_brief(want[key])}"
            elif key not in want:
                yield f"{sub}: transcript has {_brief(got[key])}, regeneration has no such key"
            else:
                yield from _differences(sub, got[key], want[key])
    elif type(got) is list and type(want) is list:
        for i, (a, b) in enumerate(zip(got, want)):
            yield from _differences(f"{path}[{i}]", a, b)
        if len(got) != len(want):
            yield f"{path}: transcript has {len(got)} entries, regeneration has {len(want)}"
    elif type(got) is not type(want) or got != want:
        yield f"{path}: transcript has {_brief(got)}, regeneration has {_brief(want)}"


def audit_transcript(raw_text: str) -> list[str]:
    """Every way the transcript disagrees with the library; empty means clean.

    The config is the only input that matters: it is decoded, run once,
    and the canonical rendering of that run must equal the input byte for
    byte. On a mismatch the first MAX_REPORTED_PATHS differing JSON paths
    are reported (say, `shares.1[3]`, dealer 1's share to party 4, or
    `verdict`); when the trees agree and only the bytes differ, the
    transcript is not in canonical form.
    """
    try:
        doc = json.loads(raw_text)
    except (ValueError, RecursionError) as exc:
        return [f"not valid JSON: {exc}"]
    if type(doc) is not dict:
        return [f"transcript is not a JSON object, got {type(doc).__name__}"]
    if doc.get("version") != SCHEMA_VERSION:
        return [f"unsupported schema version {_brief(doc.get('version'))}"]

    try:
        regenerated = report_to_dict(run_scenario(config_from_dict(doc.get("config"))))
    except VsslabError as exc:
        return [f"config does not re-run: {exc}"]
    if canonical_json(regenerated) == raw_text:
        return []
    problems = list(itertools.islice(_differences("", doc, regenerated), MAX_REPORTED_PATHS))
    return problems or ["transcript is not in canonical form: its JSON tree matches the "
                        "regeneration but its bytes do not"]
