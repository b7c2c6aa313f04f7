"""Named parameter registry: pinned values, validation on load."""

import pytest

from vsslab import registry
from vsslab.errors import InvalidGroupParams, UnknownParamSet
from vsslab.numtheory import GroupParams, Mode, gen_params
from vsslab.registry import get_params, load_registry
from vsslab.rng import SplitMix64

from conftest import multiplicative_order


def test_registry_lists_all_pinned_sets():
    names = tuple(load_registry())
    for expected in ("small11", "p23order11", "p23q11", "v32", "v64", "h32", "h64"):
        assert expected in names


def test_small11_values():
    params = get_params("small11")
    assert (params.p, params.g, params.d) == (11, 2, 10)
    assert params.mode is Mode.VULNERABLE
    assert params.q is None


def test_p23order11_generator_has_proper_subgroup_order():
    params = get_params("p23order11")
    assert (params.p, params.g, params.d) == (23, 2, 11)
    assert params.mode is Mode.VULNERABLE
    assert params.d < params.p - 1  # the whole point of this entry


def test_p23q11_is_the_hardened_twin():
    params = get_params("p23q11")
    assert (params.p, params.g, params.q, params.d) == (23, 2, 11, 11)
    assert params.mode is Mode.HARDENED
    assert params.field_modulus == 11


@pytest.mark.parametrize("name,bits", [("v32", 32), ("v64", 64), ("h32", 32), ("h64", 64)])
def test_generated_entries_have_the_advertised_size(name, bits):
    params = get_params(name)
    assert params.p.bit_length() == bits


@pytest.mark.parametrize(
    "name,bits,mode,seed",
    [
        ("v32", 32, Mode.VULNERABLE, 0x763332),
        ("v64", 64, Mode.VULNERABLE, 0x763634),
        ("h32", 32, Mode.HARDENED, 0x683332),
        ("h64", 64, Mode.HARDENED, 0x683634),
    ],
)
def test_generated_entries_match_their_noted_seed(name, bits, mode, seed):
    assert gen_params(bits, mode, SplitMix64(seed)) == get_params(name)


@pytest.mark.parametrize("name", ["small11", "p23order11", "p23q11", "v32", "v64", "h32", "h64"])
def test_every_entry_validates_and_has_true_order(name):
    params = get_params(name)
    params.validate()
    assert multiplicative_order(params.g, params.p) == params.d


def test_unknown_name_raises():
    with pytest.raises(UnknownParamSet):
        get_params("no-such-group")


def test_unknown_name_is_a_key_error_with_an_unquoted_message():
    with pytest.raises(KeyError) as excinfo:
        get_params("no-such-group")
    assert str(excinfo.value).startswith("no parameter set named 'no-such-group'; available: ")


def test_hardened_entries_use_safe_primes():
    for name in ("p23q11", "h32", "h64"):
        params = get_params(name)
        assert params.p == 2 * params.q + 1


@pytest.mark.parametrize("name", ["v64", "h64"])
def test_a_wrong_pinned_order_is_rejected_on_load(name, monkeypatch):
    params = get_params(name)
    # half the true order for v64, twice it (p - 1) for h64; both divide p - 1
    wrong = params.d // 2 if params.mode is Mode.VULNERABLE else params.p - 1
    monkeypatch.setitem(registry._ENTRIES, name,
                        GroupParams(p=params.p, g=params.g, d=wrong, mode=params.mode))
    get_params.cache_clear()
    try:
        with pytest.raises(InvalidGroupParams):
            load_registry()
        with pytest.raises(InvalidGroupParams):
            get_params(name)
    finally:
        monkeypatch.undo()
        get_params.cache_clear()
    assert get_params(name) == params


def test_a_lookup_validates_only_its_entry_and_only_once(monkeypatch):
    validated = []
    original = GroupParams.validate

    def counting(self):
        validated.append(self)
        original(self)

    monkeypatch.setattr(GroupParams, "validate", counting)
    get_params.cache_clear()
    try:
        assert get_params("v64") is get_params("v64")
        assert validated == [registry._ENTRIES["v64"]]
        load_registry()
        # the full load validates each other entry once, and v64 not again
        assert len(validated) == len(set(validated)) == len(registry._ENTRIES)
    finally:
        get_params.cache_clear()
