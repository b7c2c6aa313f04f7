"""Record semantics: every record is immutable, equal only to a record of
its own class with equal fields, hashed to match, and built through
its defaults and __post_init__ checks."""

import copy
import functools
import pickle
import re

import pytest

from vsslab import attack, numtheory, poly, protocol, vss
from vsslab.attack import ForgeryStrategy, StrategyKind
from vsslab.errors import ConfigInvalid, InvalidGroupParams, VsslabError
from vsslab.numtheory import GroupParams, Mode
from vsslab.protocol import (
    Behavior,
    BehaviorKind,
    ForgeryAttempt,
    GenSpec,
    ScenarioConfig,
    ScenarioReport,
    Verdict,
    assemble_group_key,
    build_scenario,
    run_dealing_round,
    run_scenario,
)
from vsslab.record import Choice, _eq, lru_cache, record
from vsslab.transcript import render_report
from vsslab.vss import CommitmentVector

REPORT = run_scenario(build_scenario("false-share", seed=7))
SAMPLES = [
    REPORT,
    REPORT.config,
    REPORT.params,
    REPORT.commitments[0],
    REPORT.config.behaviors[1],
    REPORT.config.behaviors[1].strategy,
    REPORT.forgery_attempts[0],
    REPORT.reconstructions[0],
    run_dealing_round(REPORT.config, REPORT.params),
    assemble_group_key(REPORT.reconstructions, REPORT.commitments, REPORT.params,
                       REPORT.verification_matrix),
    GenSpec(bits=16, mode=Mode.VULNERABLE),
]
# the behaviors mapping is a dict, so these two are unhashable, as the
# frozen dataclasses they replace were
UNHASHABLE = (ScenarioConfig, ScenarioReport)

by_type = pytest.mark.parametrize("rec", SAMPLES, ids=lambda rec: type(rec).__name__)


def test_every_record_has_a_sample():
    records = {
        obj
        for module in (numtheory, poly, vss, attack, protocol)
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__eq__ is _eq
    }
    assert len(records) == 11
    assert {type(rec) for rec in SAMPLES} == records


@by_type
def test_fields_cannot_be_assigned_or_deleted(rec):
    before = dict(vars(rec))
    for name in before:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert vars(rec) == before


@by_type
def test_equal_records_hash_equal(rec):
    twin = type(rec)(**vars(rec))
    assert twin is not rec
    assert twin == rec and not twin != rec
    if isinstance(rec, UNHASHABLE):
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(twin) == hash(rec)


@by_type
def test_every_field_takes_part_in_equality(rec):
    for name in vars(rec):
        changed = copy.copy(rec)
        vars(changed)[name] = object()
        assert changed != rec and rec != changed


@by_type
def test_never_equal_to_a_tuple_or_another_record_type(rec):
    assert rec != tuple(vars(rec).values())
    assert rec != vars(rec)
    # same name, same fields, same values: still another class
    lookalike = record(type(type(rec).__name__, (), {
        "__annotations__": dict(type(rec).__annotations__),
    }))(**vars(rec))
    assert lookalike != rec and rec != lookalike
    assert not lookalike == rec


def test_repr_names_every_field_in_order():
    assert repr(ForgeryAttempt(1, "forged")) == "ForgeryAttempt(dealer=1, outcome='forged')"
    assert repr(Behavior(BehaviorKind.FALSE_SHARE_DEALER, ForgeryStrategy(StrategyKind.ORDER_SHIFT),
                         (2,))) == (
        "Behavior(kind=<BehaviorKind.FALSE_SHARE_DEALER: 'false_share_dealer'>, "
        "strategy=ForgeryStrategy(kind=<StrategyKind.ORDER_SHIFT: 'order_shift'>, "
        "multiplier=1), targets=(2,))")
    assert repr(REPORT.params) == "GroupParams(p=11, g=2, d=10, mode=<Mode.VULNERABLE: 'vulnerable'>)"
    for rec in SAMPLES:
        text = repr(rec)
        assert text.startswith(f"{type(rec).__name__}(")
        positions = [text.index(f"{name}=") for name in type(rec).__annotations__]
        assert positions == sorted(positions)


def test_defaults_apply():
    # a forgery attempt is its dealer and outcome, with no defaults
    usage = "takes the fields dealer, outcome"
    with pytest.raises(TypeError, match=usage):
        ForgeryAttempt(1)
    with pytest.raises(TypeError, match=usage):
        ForgeryAttempt(1, "forged", None)
    assert ForgeryStrategy(StrategyKind.ORDER_SHIFT).multiplier == 1
    assert Behavior() == Behavior(BehaviorKind.HONEST, None, ())


def test_post_init_checks_and_normalises():
    with pytest.raises(ConfigInvalid):
        ForgeryStrategy(StrategyKind.ADD_P_MINUS_ONE, 0)
    with pytest.raises(ConfigInvalid):
        Behavior(BehaviorKind.FALSE_SHARE_DEALER)
    with pytest.raises(ValueError):
        CommitmentVector(())
    assert CommitmentVector([5]).c == (5,)
    forger = Behavior(BehaviorKind.FALSE_SHARE_DEALER,
                      strategy=ForgeryStrategy(StrategyKind.ADD_P_MINUS_ONE), targets=[4, 2])
    assert forger.targets == (2, 4)


class TestEnumFields:
    """A kind or mode given as its plain string value becomes the member
    when the record is built, so the library's `is` branches see it; any
    other value is refused."""

    def test_a_string_mode_gives_the_report_of_the_member(self):
        def report(mode):
            return run_scenario(build_scenario("hardened-attack", seed=1,
                                               params_ref=GenSpec(bits=16, mode=mode)))

        as_string, as_member = report("hardened"), report(Mode.HARDENED)
        assert as_string.config.params_ref.mode is Mode.HARDENED
        assert as_string.params.mode is Mode.HARDENED
        assert as_string == as_member
        assert render_report(as_string) == render_report(as_member)

    @pytest.mark.parametrize("scenario, first", [
        ("honest", lambda: Behavior(kind="honest")),
        ("false-share", lambda: Behavior(kind="false_share_dealer", targets=range(2, 6),
                                         strategy=ForgeryStrategy("add_p_minus_one"))),
    ], ids=["honest", "false-share"])
    def test_a_string_kind_gives_the_report_of_the_member(self, scenario, first):
        config = build_scenario(scenario, seed=7)
        assert first() == config.behaviors[1]
        assert type(first().kind) is BehaviorKind
        stringly = ScenarioConfig(scenario, 5, 3, "small11",
                                  {**config.behaviors, 1: first()}, 7)
        assert run_scenario(stringly) == run_scenario(config)
        assert render_report(run_scenario(stringly)) == render_report(run_scenario(config))

    def test_a_string_mode_builds_the_same_group(self):
        params = GroupParams(11, 2, 10, "vulnerable")
        assert params.mode is Mode.VULNERABLE
        assert params == REPORT.params and hash(params) == hash(REPORT.params)

    @pytest.mark.parametrize("build, error, message", [
        (lambda: Behavior(kind="bogus"), ConfigInvalid, "unknown behavior kind 'bogus'"),
        (lambda: Behavior(kind=None), ConfigInvalid, "unknown behavior kind None"),
        (lambda: ForgeryStrategy("Order_Shift"), ConfigInvalid,
         "unknown forgery strategy kind 'Order_Shift'"),
        (lambda: GenSpec(bits=16, mode="HARDENED"), ConfigInvalid, "unknown mode 'HARDENED'"),
        (lambda: GroupParams(11, 2, 10, "bogus"), InvalidGroupParams, "unknown mode 'bogus'"),
        (lambda: GroupParams(11, 2, 10, ["vulnerable"]), InvalidGroupParams, "unknown mode"),
    ], ids=["behavior", "behavior-none", "strategy", "genspec", "params", "params-list"])
    def test_an_unknown_value_is_refused(self, build, error, message):
        with pytest.raises(error, match=re.escape(message)):
            build()


def test_arguments_bind_by_position_and_keyword():
    spec = GenSpec(bits=16, mode=Mode.HARDENED)
    assert GenSpec(16, Mode.HARDENED) == spec
    assert GenSpec(16, mode=Mode.HARDENED) == spec
    assert GroupParams(11, 2, 10, Mode.VULNERABLE) == REPORT.params


@pytest.mark.parametrize("args,kwargs", [
    ((16, Mode.HARDENED, 3), {}),
    ((16,), {"bits": 16, "mode": Mode.HARDENED}),
    ((), {"bits": 16, "mode": Mode.HARDENED, "extra": 1}),
    ((), {"bits": 16}),
    ((), {"bits": 16, "mdoe": Mode.HARDENED}),
], ids=["too-many", "twice", "unknown", "missing", "misspelt"])
def test_arguments_that_fit_no_signature_raise(args, kwargs):
    with pytest.raises(TypeError, match="takes the fields bits, mode"):
        GenSpec(*args, **kwargs)


KINDS = (Mode, StrategyKind, BehaviorKind, Verdict)


class TestChoice:
    """record.Choice keeps what the library used of a str Enum."""

    class Order(Choice):
        """Members come from UPPERCASE attributes only."""

        ZULU = "z"
        ALPHA = "a"
        MIKE = "m"
        lower = "not a member"

    @pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.__name__)
    def test_a_value_or_a_member_gives_the_identical_member(self, kind):
        for member in kind:
            assert type(member) is kind and isinstance(member, str)
            assert kind(member.value) is member
            assert kind(member) is member
            assert getattr(kind, member.name) is member
            assert member == member.value and type(member.value) is str

    def test_the_library_kinds_keep_their_names_and_values(self):
        assert {kind.__name__: {m.name: m.value for m in kind} for kind in KINDS} == {
            "Mode": {"VULNERABLE": "vulnerable", "HARDENED": "hardened"},
            "StrategyKind": {"ADD_P_MINUS_ONE": "add_p_minus_one",
                             "ORDER_SHIFT": "order_shift"},
            "BehaviorKind": {"HONEST": "honest", "FALSE_SHARE_DEALER": "false_share_dealer",
                             "WITHHOLDING_DEALER": "withholding_dealer"},
            "Verdict": {"KEY_ASSEMBLED": "key_assembled", "KEY_BLOCKED": "key_blocked"},
        }

    @pytest.mark.parametrize("value", ["ORDER_SHIFT", "", None, 1, ["order_shift"],
                                       {"kind": "order_shift"}, Mode.HARDENED],
                             ids=repr)
    def test_anything_else_is_refused(self, value):
        with pytest.raises(VsslabError, match=re.escape(f"{value!r} is not a valid StrategyKind")):
            StrategyKind(value)

    def test_iteration_follows_definition_order(self):
        assert [m.name for m in self.Order] == ["ZULU", "ALPHA", "MIKE"]
        assert self.Order.lower == "not a member" and type(self.Order.lower) is str
        assert tuple(StrategyKind) == (StrategyKind.ADD_P_MINUS_ONE, StrategyKind.ORDER_SHIFT)

    def test_repr_is_enums(self):
        assert repr(StrategyKind.ORDER_SHIFT) == "<StrategyKind.ORDER_SHIFT: 'order_shift'>"
        assert repr(self.Order.ZULU) == "<Order.ZULU: 'z'>"

    @pytest.mark.parametrize("member", [Mode.HARDENED, BehaviorKind.HONEST, Verdict.KEY_BLOCKED],
                             ids=repr)
    def test_copies_and_pickles_are_the_member(self, member):
        assert copy.copy(member) is member
        assert copy.deepcopy(member) is member
        assert pickle.loads(pickle.dumps(member)) is member


class TestLruCache:
    """record.lru_cache(maxsize) is functools.lru_cache(maxsize)'s C object."""

    @staticmethod
    def cached(decorator):
        calls = []

        @decorator(maxsize=2)
        def square(x):
            """x squared."""
            calls.append(x)
            return x * x

        return square, calls

    def test_it_keeps_functools_statistics_and_order(self):
        ours, our_calls = self.cached(lru_cache)
        theirs, their_calls = self.cached(functools.lru_cache)
        # 3 evicts 2, the least recently used, so 2 misses again and 1 hits
        for x in (1, 2, 1, 3, 2, 3, 1, 1):
            assert ours(x) == theirs(x) == x * x
            assert ours.cache_info() == theirs.cache_info()
        assert our_calls == their_calls == [1, 2, 3, 2, 1]
        info = ours.cache_info()
        assert (info.hits, info.misses, info.maxsize, info.currsize) == (3, 5, 2, 2)
        assert info[:2] == (3, 5)

    def test_cache_clear_wrapped_and_doc(self):
        square, calls = self.cached(lru_cache)
        square(4)
        square.cache_clear()
        assert square.cache_info() == (0, 0, 2, 0)
        assert square(4) == 16 and calls == [4, 4]
        assert square.__wrapped__(5) == 25 and calls == [4, 4, 5]
        assert square.cache_info().misses == 1
        assert square.__doc__ == "x squared."
