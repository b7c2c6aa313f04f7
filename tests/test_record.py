"""Record semantics: every record is immutable, equal only to a record of
its own class with equal fields, hashed to match, and built through
its defaults and __post_init__ checks."""

import copy

import pytest

from vsslab import attack, numtheory, poly, protocol, vss
from vsslab.attack import ForgeryStrategy, StrategyKind
from vsslab.errors import ConfigInvalid
from vsslab.numtheory import GroupParams, Mode
from vsslab.poly import SecretPolynomial
from vsslab.protocol import (
    Behavior,
    BehaviorKind,
    GenSpec,
    ScenarioConfig,
    ScenarioReport,
    assemble_group_key,
    build_scenario,
    run_dealing_round,
    run_scenario,
)
from vsslab.record import _eq, record
from vsslab.vss import CommitmentVector, Share

REPORT = run_scenario(build_scenario("false-share", seed=7))
SAMPLES = [
    REPORT,
    REPORT.config,
    REPORT.params,
    REPORT.commitments[0],
    REPORT.shares[1],  # dealer 1's forged share to party 2
    REPORT.config.behaviors[1],
    REPORT.config.behaviors[1].strategy,
    REPORT.forgery_attempts[0],
    REPORT.reconstructions[0],
    REPORT.reconstructions[0].attempts[0],
    run_dealing_round(REPORT.config, REPORT.params),
    assemble_group_key(REPORT.reconstructions, REPORT.commitments, REPORT.params,
                       REPORT.verification_matrix),
    SecretPolynomial(dealer=1, coeffs=(3, 4), field_modulus=11),
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
    assert len(records) == 14
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
    assert repr(Share(1, 2, 3)) == "Share(dealer=1, recipient=2, value=3, provenance=None)"
    assert repr(REPORT.params) == "GroupParams(p=11, g=2, d=10, mode=<Mode.VULNERABLE: 'vulnerable'>)"
    for rec in SAMPLES:
        text = repr(rec)
        assert text.startswith(f"{type(rec).__name__}(")
        positions = [text.index(f"{name}=") for name in type(rec).__annotations__]
        assert positions == sorted(positions)


def test_defaults_apply():
    assert Share(1, 2, 3).provenance is None
    assert ForgeryStrategy(StrategyKind.ORDER_SHIFT).multiplier == 1
    assert Behavior() == Behavior(BehaviorKind.HONEST, None, ())


def test_post_init_checks_and_normalises():
    with pytest.raises(ValueError):
        Share(1, 0, 3)
    with pytest.raises(ValueError):
        Share(1, 2, -1)
    with pytest.raises(ConfigInvalid):
        ForgeryStrategy(StrategyKind.ADD_P_MINUS_ONE, 0)
    with pytest.raises(ConfigInvalid):
        Behavior(BehaviorKind.FALSE_SHARE_DEALER)
    with pytest.raises(ValueError):
        SecretPolynomial(1, (11,), 11)
    with pytest.raises(ValueError):
        CommitmentVector(1, ())
    assert SecretPolynomial(1, [3, 4], 11).coeffs == (3, 4)
    assert CommitmentVector(1, [5]).c == (5,)
    forger = Behavior(BehaviorKind.FALSE_SHARE_DEALER,
                      strategy=ForgeryStrategy(StrategyKind.ADD_P_MINUS_ONE), targets=[4, 2])
    assert forger.targets == (2, 4)


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
