"""Named parameter registry: pinned values, validation on load."""

import pytest

from vsslab.errors import UnknownParamSet
from vsslab.numtheory import Mode, multiplicative_order
from vsslab.registry import get_params, registry_names


def test_registry_lists_all_pinned_sets():
    names = registry_names()
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
