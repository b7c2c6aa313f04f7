"""Canonical JSON transcripts of scenario runs, and their audit.

Schema version "5". Keys are sorted, separators are compact (no
whitespace, one newline at the end), there are no timestamps, every
field-sized integer is a decimal string (seeds and share values can
exceed what JSON numbers hold), and small structural integers (party
ids, n, t) stay as JSON numbers. Equal reports serialize to identical
bytes, which is what makes the tamper check meaningful.

Each fact is written once; what a section leaves out follows from the
rest of the file by enumeration order alone:

- config.behaviors lists only the parties that are not honest; every
  other party of 1..n is honest.
- params holds mode, p, g and d; the prime subgroup order q is d when
  hardened, and there is none otherwise.
- shares and commitments hold one row per dealer: "shares": {"<dealer>":
  [value to party 1, ..., value to party n]}.
- forgeries maps each dealer that tried to forge to "forged" or
  "forgery_impossible"; it tried at each of its config targets, in
  order, with its config strategy. A share is forged exactly when its
  dealer's outcome is "forged" and its recipient is a target.
- rejected maps each dealer with a share that failed verification to
  those recipients; every other share passed.
- reconstructions maps each dealer to the values its attempts rebuilt
  and the secret recovered, or null. The pool is the parties, in order,
  that neither rejected the dealer's share nor withhold (every party
  that is not honest); attempt i interpolated the i-th t-subset of the
  pool in itertools.combinations order. Attempts stop at the first
  pass, so only the last can have passed, and it did exactly when
  recovered is not null. A failing pool whose shares lie on one
  polynomial lists only its first value, since every other subset would
  fail the same way (see protocol.reconstruct_pool).

The audit refuses every other schema version.

Both directions run on json's C core `_json` directly, not through the
json package, which imports `re` and costs a fresh `vsslab run` or
`vsslab verify` process about 5 ms of its start-up. Only text the C
scanner refuses loads json, to word the audit's `not valid JSON` message.
"""

import _json
import itertools

from .attack import ForgeryStrategy
from .errors import ConfigInvalid, VsslabError
from .protocol import (
    MAX_PARTIES,
    Behavior,
    BehaviorKind,
    GenSpec,
    ScenarioConfig,
    ScenarioReport,
    check_party_count,
    run_scenario,
)
from .record import brief

SCHEMA_VERSION = "5"


def canonical_json(doc: dict) -> str:
    """The one serialization everything uses: sorted keys, compact separators.

    The text of json.dumps(doc, sort_keys=True, separators=(",", ":"))
    plus a newline, from the C encoder json.dumps builds for those
    arguments. Only its `default` is not json's, which words the
    TypeError for a value JSON cannot hold; calling None raises one too.
    """
    encode = _json.make_encoder(
        {}, None, _json.encode_basestring_ascii, None, ":", ",", True, False, True
    )
    return "".join(encode(doc, 0)) + "\n"


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def _behavior_to_dict(behavior: Behavior) -> dict:
    doc: dict = {"kind": behavior.kind.value}
    if behavior.kind is BehaviorKind.FALSE_SHARE_DEALER:
        strategy = behavior.strategy
        doc["strategy"] = {"kind": strategy.kind.value, "multiplier": str(strategy.multiplier)}
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
                str(pid): _behavior_to_dict(behavior)
                for pid, behavior in sorted(config.behaviors.items())
                if behavior.kind is not BehaviorKind.HONEST
            },
        },
        "params": {
            "mode": params.mode.value,
            "p": str(params.p),
            "g": str(params.g),
            "d": str(params.d),
        },
        "commitments": {
            str(dealer): [str(c) for c in cv.c]
            for dealer, cv in enumerate(report.commitments, 1)
        },
        "shares": {
            str(dealer): [str(v) for v in row]
            for dealer, row in enumerate(report.shares, 1)
        },
        "forgeries": {str(fa.dealer): fa.outcome for fa in report.forgery_attempts},
        "rejected": {
            str(dealer): [k for k, ok in enumerate(row, 1) if not ok]
            for dealer, row in enumerate(report.verification_matrix, 1)
            if not all(row)
        },
        "aggregate_public_key": str(report.aggregate_public_key),
        "reconstructions": {
            str(dealer): {
                "values": [str(value) for value in r.attempts],
                "recovered": str(r.recovered) if r.recovered is not None else None,
            }
            for dealer, r in enumerate(report.reconstructions, 1)
        },
        "group_key": str(report.group_key) if report.group_key is not None else None,
        "verdict": report.verdict.value,
    }


def render_report(report: ScenarioReport) -> str:
    return canonical_json(report_to_dict(report))


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

_JSON_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string"}


def _typed(value, kind: type, where: str):
    """value if it is exactly of type `kind`: the JSON shapes a record cannot see."""
    if type(value) is not kind:
        raise ConfigInvalid(f"{where} must be {_JSON_TYPE_NAMES[kind]}, got {brief(value)}")
    return value


def _brief_key(key: str) -> str:
    """A JSON key from the transcript as one segment of a message's path:
    quoted if it holds a character that is not printable, then whole up to
    20 characters, else its first 17 and "...", since the key may be
    untrusted, of any length and hold a line break."""
    key = key if key.isprintable() else repr(key)
    return key if len(key) <= 20 else key[:17] + "..."


def _decimal(value, where: str) -> int:
    text = _typed(value, str, where)
    try:
        return int(text)
    except ValueError:
        raise ConfigInvalid(f"{where} must be a decimal integer, got {brief(text)}") from None


def _parties(value, kind: type, where: str):
    """_typed(value, kind, where), with no more entries than a config has parties."""
    if len(_typed(value, kind, where)) > MAX_PARTIES:
        raise ConfigInvalid(f"{where} has {len(value):,} entries, more than the "
                            f"{MAX_PARTIES} parties a config can hold")
    return value


def _behavior_from_dict(doc: dict, where: str) -> Behavior:
    strategy = doc.get("strategy")
    if strategy is not None:
        _typed(strategy, dict, f"{where}.strategy")
        strategy = ForgeryStrategy(
            kind=strategy.get("kind"),
            multiplier=_decimal(strategy.get("multiplier"), f"{where}.strategy.multiplier"),
        )
    return Behavior(kind=doc.get("kind"), strategy=strategy,
                    targets=_parties(doc.get("targets", []), list, f"{where}.targets"))


def config_from_dict(doc: dict) -> ScenarioConfig:
    """Decode a transcript's config section into its records.

    Every party of 1..n that config.behaviors does not list is honest.
    The records are the rule for every field's type and value; this
    checks only what they cannot see: the JSON objects, lists and
    strings that hold the fields, the decimal strings of the seed,
    multipliers and party ids, and the caps, so that n passes
    check_party_count, and no behaviors object or targets list has more
    than MAX_PARTIES entries, before any record is built. Raises
    ConfigInvalid on the first field refused.
    """
    _typed(doc, dict, "config")
    ref_doc = _typed(doc.get("params_ref"), dict, "config.params_ref")
    if "name" in ref_doc:
        ref = ref_doc["name"]
    else:
        ref = GenSpec(bits=ref_doc.get("bits"), mode=ref_doc.get("mode"))
    n = doc.get("n")
    check_party_count(n)
    listed = {}
    for key, behavior in _parties(doc.get("behaviors"), dict, "config.behaviors").items():
        pid = _decimal(key, "a party id of config.behaviors")
        # int() reads a key of any length that holds few digits
        where = f"config.behaviors.{_brief_key(key)}"
        listed[pid] = _behavior_from_dict(_typed(behavior, dict, where), where)
    honest = Behavior()
    behaviors = {pid: honest for pid in range(1, n + 1)}
    # a listed party outside 1..n stays, for ScenarioConfig.validate to refuse
    behaviors.update(listed)
    return ScenarioConfig(
        scenario=doc.get("scenario"),
        n=n,
        t=doc.get("t"),
        params_ref=ref,
        behaviors=behaviors,
        seed=_decimal(doc.get("seed"), "config.seed"),
    )


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

MAX_REPORTED_PATHS = 8


class _DecoderSettings:
    """json.loads's context for its C scanner: the default JSONDecoder's settings."""

    strict = True
    object_hook = None
    object_pairs_hook = None
    parse_float = float
    parse_int = int
    parse_constant = {"-Infinity": float("-inf"), "Infinity": float("inf"),
                      "NaN": float("nan")}.__getitem__


_scan_once = _json.make_scanner(_DecoderSettings)
# the whitespace json.loads's decode skips around the document
_JSON_SPACE = " \t\n\r"


def _parse(text: str):
    """json.loads(text), read by the C scanner json.loads runs.

    Text the scanner refuses, or that has more than whitespace after the
    document, goes to json.loads itself, so its error is json's own. (On
    Python 3.10 and 3.11 the scanner's error path raises SystemError
    unless json.decoder is loaded.)
    """
    try:
        doc, end = _scan_once(text, len(text) - len(text.lstrip(_JSON_SPACE)))
    except (StopIteration, ValueError, RecursionError, SystemError):
        pass
    else:
        if not text[end:].lstrip(_JSON_SPACE):
            return doc
    import json

    return json.loads(text)


def _differences(path: str, got, want):
    """One message per JSON path where the transcript and regeneration differ."""
    if type(got) is dict and type(want) is dict:
        for key in sorted(got.keys() | want.keys()):
            sub = f"{path}.{_brief_key(key)}" if path else _brief_key(key)
            if key not in got:
                yield f"{sub}: missing from transcript, regeneration has {brief(want[key])}"
            elif key not in want:
                yield f"{sub}: transcript has {brief(got[key])}, regeneration has no such key"
            else:
                yield from _differences(sub, got[key], want[key])
    elif type(got) is list and type(want) is list:
        for i, (a, b) in enumerate(zip(got, want)):
            yield from _differences(f"{path}[{i}]", a, b)
        if len(got) != len(want):
            yield f"{path}: transcript has {len(got)} entries, regeneration has {len(want)}"
    elif type(got) is not type(want) or got != want:
        yield f"{path}: transcript has {brief(got)}, regeneration has {brief(want)}"


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
        doc = _parse(raw_text)
    except (ValueError, RecursionError) as exc:
        return [f"not valid JSON: {exc}"]
    if type(doc) is not dict:
        return [f"transcript is not a JSON object, got {type(doc).__name__}"]
    if doc.get("version") != SCHEMA_VERSION:
        return [f"unsupported schema version {brief(doc.get('version'))}"]

    try:
        regenerated = report_to_dict(run_scenario(config_from_dict(doc.get("config"))))
    except VsslabError as exc:
        return [f"config does not re-run: {exc}"]
    if canonical_json(regenerated) == raw_text:
        return []
    problems = list(itertools.islice(_differences("", doc, regenerated), MAX_REPORTED_PATHS))
    return problems or ["transcript is not in canonical form: its JSON tree matches the "
                        "regeneration but its bytes do not"]
