"""Forgery construction and the exact corruption laws it obeys.

Two laws drive these tests. First, a forged value passes verification by
construction. Second, reconstruction from a pool containing forged shares
lands on a_0 minus m times the summed Lagrange weights of the forged
positions, reduced into the field. Whether the public commitment then
flags the corruption depends only on that error's residue modulo the
generator's order, and the wraparound cases are asserted exactly rather
than waved away.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsslab.attack import ForgeryStrategy, StrategyKind
from vsslab.errors import ForgeryImpossible, VsslabError
from vsslab.numtheory import GroupParams, Mode, gen_params
from vsslab.poly import interpolate, lagrange_weights, sample_polynomial
from vsslab.protocol import (
    Behavior,
    BehaviorKind,
    ForgeryAttempt,
    GenSpec,
    ScenarioConfig,
    build_scenario,
    run_dealing_round,
    run_scenario,
)
from vsslab.registry import get_params, load_registry
from vsslab.rng import SplitMix64, substream
from vsslab.vss import commit, verify_row, verify_share

from reference_model import (
    exact_value,
    gap_law,
    honest_share,
    interpolate_at_zero,
    predict_corruption,
)

ADD1 = ForgeryStrategy(StrategyKind.ADD_P_MINUS_ONE, multiplier=1)


def forged(poly, k, params, strategy):
    """The value a forger deals to party k: the honest one plus the shift."""
    return exact_value(poly, k) + strategy.shift(params)


@pytest.fixture
def shift_calls(monkeypatch):
    """The strategy of every ForgeryStrategy.shift call, in order."""
    calls = []
    original = ForgeryStrategy.shift

    def counting(self, params):
        calls.append(self)
        return original(self, params)

    monkeypatch.setattr(ForgeryStrategy, "shift", counting)
    return calls


class TestShift:
    def test_worked_example(self, small11):
        poly = (3, 4)
        assert ADD1.shift(small11) == 10  # p - 1
        value = forged(poly, 2, small11, ADD1)
        assert value == 21
        assert exact_value(poly, 2) == 11
        assert verify_share(2, value, commit(poly, small11), small11)

    def test_order_shift_example(self, p23order11):
        # honest P(2) = 5 with coeffs (3, 1); shifting by d=11 gives 16,
        # which passes verification yet differs from 5 mod 22
        poly = (3, 1)
        strategy = ForgeryStrategy(StrategyKind.ORDER_SHIFT, 1)
        value = forged(poly, 2, p23order11, strategy)
        assert value == 16
        assert verify_share(2, value, commit(poly, p23order11), p23order11)
        assert value % 22 != 5 % 22
        assert value % 11 == 5 % 11

    def test_shift_is_the_multiplier_times_the_offset(self, small11, p23order11):
        for m in (1, 2, 7):
            # g = 2 is a primitive root mod 11, so both offsets are p - 1 = 10
            for kind in StrategyKind:
                assert ForgeryStrategy(kind, m).shift(small11) == m * 10
            assert ForgeryStrategy(StrategyKind.ADD_P_MINUS_ONE, m).shift(p23order11) == m * 22
            assert ForgeryStrategy(StrategyKind.ORDER_SHIFT, m).shift(p23order11) == m * 11

    def test_hardened_params_refuse_to_forge(self, p23q11):
        # the message states the gap law, as the README's Hardened mode does
        law = ("hardened parameters have m = d = q, so a shift that verifies is a multiple "
               "of q and rebuilds the same secret, and the range rule v < q makes such a "
               "share a visible violation: no forgery corrupts the key")
        for kind in StrategyKind:
            with pytest.raises(ForgeryImpossible) as raised:
                ForgeryStrategy(kind, 1).shift(p23q11)
            assert str(raised.value) == law

    def test_multiplier_that_vanishes_in_the_field_rejected(self, small11):
        with pytest.raises(VsslabError, match="multiplier 11 is 0 mod p"):
            ForgeryStrategy(StrategyKind.ADD_P_MINUS_ONE, 11).shift(small11)
        # m = 22 also vanishes mod 11; m = 12 does not
        with pytest.raises(VsslabError, match="multiplier 22 is 0 mod p"):
            ForgeryStrategy(StrategyKind.ADD_P_MINUS_ONE, 22).shift(small11)
        assert ForgeryStrategy(StrategyKind.ADD_P_MINUS_ONE, 12).shift(small11) == 120

    def test_dealing_refuses_a_multiplier_that_vanishes_in_the_field(self, small11):
        # ScenarioConfig.validate refuses it first; the dealing round on its
        # own still forges nothing that would be honest mod p
        strat = ForgeryStrategy(StrategyKind.ADD_P_MINUS_ONE, 11)
        behaviors = {pid: Behavior() for pid in range(1, 4)}
        behaviors[1] = Behavior(BehaviorKind.FALSE_SHARE_DEALER, strategy=strat, targets=(2,))
        config = ScenarioConfig("vanishing", 3, 2, "small11", behaviors, 7)
        with pytest.raises(VsslabError, match="multiplier 11 is 0 mod p"):
            run_dealing_round(config, small11)

    def test_forged_shares_always_pass_verification_randomized(self):
        for seed in range(100):
            params = gen_params(20, Mode.VULNERABLE, SplitMix64(seed))
            poly = sample_polynomial(3, params.p, SplitMix64(seed + 999))
            commits = commit(poly, params)
            m = 1 + seed % 5
            if m % params.p == 0:  # cannot happen at 20 bits, kept for clarity
                continue
            strat = ForgeryStrategy(StrategyKind.ADD_P_MINUS_ONE, m)
            for k in (1, 2, 5):
                assert verify_share(k, forged(poly, k, params, strat), commits, params)

    def test_forgery_attempts_record_the_strategy(self, small11):
        # a ceremony's forgery_attempts say which dealers forged, and its
        # config to whom and how; the share itself is just a value in its
        # dealer's row
        strat = ForgeryStrategy(StrategyKind.ADD_P_MINUS_ONE, 3)
        behaviors = {pid: Behavior() for pid in range(1, 6)}
        behaviors[1] = Behavior(BehaviorKind.FALSE_SHARE_DEALER, strategy=strat, targets=(3,))
        report = run_scenario(ScenarioConfig("one-forgery", 5, 3, "small11", behaviors, 7))
        assert report.forgery_attempts == (ForgeryAttempt(1, "forged"),)
        assert report.config.behaviors[1].strategy == strat
        assert report.config.behaviors[1].targets == (3,)
        poly = sample_polynomial(3, 11, substream(7, 1))
        assert report.shares[0][2] == forged(poly, 3, small11, strat)
        assert report.shares[0][2] == exact_value(poly, 3) + 30

    @pytest.mark.parametrize("name, params_ref", [("false-share", "small11"),
                                                  ("order-shift", "p23order11"),
                                                  ("hardened-attack", "p23q11")])
    def test_a_forger_asks_for_its_shift_once_per_row(self, shift_calls, name, params_ref):
        config = build_scenario(name, seed=3, n=7, t=4)
        run_dealing_round(config, get_params(params_ref))
        assert shift_calls == [config.behaviors[1].strategy]

    def test_a_hardened_forger_deals_honestly(self, p23q11):
        config = build_scenario("hardened-attack", seed=3, n=7, t=4)
        dealing = run_dealing_round(config, p23q11)
        # one outcome for its row, its targets 2..7 and strategy in the config
        assert dealing.forgery_attempts == (ForgeryAttempt(1, "forgery_impossible"),)
        assert config.behaviors[1] == Behavior(BehaviorKind.FALSE_SHARE_DEALER, strategy=ADD1,
                                               targets=range(2, 8))
        for dealer, row in enumerate(dealing.shares, 1):
            poly = sample_polynomial(4, p23q11.q, substream(3, dealer))
            assert list(row) == [exact_value(poly, k) % p23q11.q for k in range(1, 8)]


# registry groups, and vulnerable groups generated at 16-64 bits
_NAMED_GROUPS = ("small11", "p23order11", "v32", "v64")


@st.composite
def vulnerable_groups(draw):
    """(params_ref, params) of a named or a freshly generated group."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(_NAMED_GROUPS))
        return name, get_params(name)
    spec = GenSpec(draw(st.integers(min_value=16, max_value=64)), Mode.VULNERABLE)
    seed = draw(st.integers(0, 2**64 - 1))
    return spec, gen_params(spec.bits, spec.mode, SplitMix64(seed))


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_a_forged_row_is_the_honest_row_plus_one_shift(data):
    params_ref, params = data.draw(vulnerable_groups())
    kind = data.draw(st.sampled_from(tuple(StrategyKind)))
    strategy = ForgeryStrategy(kind, data.draw(st.integers(1, params.p - 1)))
    shift = strategy.shift(params)
    assert shift % params.d == 0
    assert shift % params.p != 0

    n = data.draw(st.integers(2, 6))
    t = data.draw(st.integers(2, n))
    targets = data.draw(st.sets(st.integers(2, n), min_size=1))
    seed = data.draw(st.integers(0, 2**64 - 1))
    behaviors = {pid: Behavior() for pid in range(1, n + 1)}
    behaviors[1] = Behavior(BehaviorKind.FALSE_SHARE_DEALER, strategy=strategy,
                            targets=tuple(targets))
    config = ScenarioConfig("shift-property", n, t, params_ref, behaviors, seed)
    dealing = run_dealing_round(config, params)
    assert dealing.forgery_attempts == (ForgeryAttempt(1, "forged"),)
    for dealer, row in enumerate(dealing.shares, 1):
        poly = sample_polynomial(t, params.p, substream(seed, dealer))
        assert list(row) == [
            exact_value(poly, k) + (shift if dealer == 1 and k in targets else 0)
            for k in range(1, n + 1)]


class TestReconstructionCorruption:
    def test_uniform_forgery_recovers_secret_minus_multiplier(self, small11):
        # all shares forged with the same multiplier: recovery = a_0 - m mod p
        poly = (3, 4)
        for m in (1, 2, 3):
            strat = ForgeryStrategy(StrategyKind.ADD_P_MINUS_ONE, m)
            pts = [(k, forged(poly, k, small11, strat) % 11) for k in (1, 2)]
            assert interpolate_at_zero(pts, 11) == (3 - m) % 11

    def test_worked_example_mixed_pool(self, small11):
        # honest at 1, forged at 2: interpolation gives 4 and the
        # commitment check sees 2^4 = 5 != 8
        poly = (3, 4)
        got = interpolate_at_zero([(1, 7), (2, forged(poly, 2, small11, ADD1) % 11)], 11)
        assert got == 4
        assert pow(2, got, 11) != pow(2, poly[0], 11)

    def test_uniform_forgery_exhaustive_subsets(self, small11):
        # every t-subset of n <= 7 recipients, all forged, multiplier swept
        for t in (2, 3):
            poly = sample_polynomial(t, 11, SplitMix64(t))
            for m in (1, 2):
                strat = ForgeryStrategy(StrategyKind.ADD_P_MINUS_ONE, m)
                shares = {k: forged(poly, k, small11, strat) % 11 for k in range(1, 8)}
                for subset in itertools.combinations(range(1, 8), t):
                    pts = [(k, shares[k]) for k in subset]
                    assert interpolate_at_zero(pts, 11) == (poly[0] - m) % 11

    def test_predict_corruption_matches_actual_exhaustively(self, small11):
        poly = sample_polynomial(3, 11, SplitMix64(77))
        m = 2
        strat = ForgeryStrategy(StrategyKind.ADD_P_MINUS_ONE, m)
        honest = {k: exact_value(poly, k) % 11 for k in range(1, 8)}
        forged_values = {k: forged(poly, k, small11, strat) % 11 for k in range(1, 8)}
        for subset in itertools.combinations(range(1, 8), 3):
            for flags in itertools.product([False, True], repeat=3):
                # prediction sees honest values plus which positions get forged
                predicted = predict_corruption(
                    [(k, honest[k], f) for k, f in zip(subset, flags)], m, 11
                )
                actual = interpolate_at_zero(
                    [(k, forged_values[k] if f else honest[k]) for k, f in zip(subset, flags)], 11
                )
                assert predicted == actual

    def test_mixed_pool_error_term_is_weighted_multiplier_sum(self, small11):
        # direct check of the error formula against computed Lagrange weights
        poly = sample_polynomial(2, 11, SplitMix64(31))
        strat = ForgeryStrategy(StrategyKind.ADD_P_MINUS_ONE, 1)
        xs = (1, 4)
        weights = lagrange_weights(xs, 11)
        honest = [exact_value(poly, k) % 11 for k in xs]
        pts = [(xs[0], honest[0]), (xs[1], forged(poly, xs[1], small11, strat) % 11)]
        got = interpolate_at_zero(pts, 11)
        assert got == (poly[0] - weights[1]) % 11

    def test_prediction_refuses_a_negative_multiplier(self):
        with pytest.raises(VsslabError, match="multiplier must be non-negative"):
            predict_corruption([(1, 3, True)], -1, 11)


class TestDetectionLaw:
    def test_commitment_check_sees_exactly_the_order_residue(self, small11):
        # a_0 swept over the whole field, all shares forged with m=1:
        # recovery is a_0 - 1 mod 11 and the public check passes only in
        # the wraparound corner a_0 = 0 where the error is 10 = 0 mod 10
        for a0 in range(11):
            poly = (a0, 4)
            commits = commit(poly, small11)
            strat = ADD1
            pts = [(k, forged(poly, k, small11, strat) % 11) for k in (1, 2)]
            v = interpolate_at_zero(pts, 11)
            assert v == (a0 - 1) % 11
            check = pow(2, v, 11) == commits.c[0]
            assert check == ((v - a0) % 10 == 0)
            assert check == (a0 == 0)

    def test_order_shift_detection_depends_on_field_wraparound(self, p23order11):
        # shifting by d=11 in Z_23 stays in the same exponent class until
        # the sum wraps past p; the check passes exactly when a_0 < 12
        strat = ForgeryStrategy(StrategyKind.ORDER_SHIFT, 1)
        for a0 in range(23):
            poly = (a0, 5)
            commits = commit(poly, p23order11)
            pts = [(k, forged(poly, k, p23order11, strat) % 23) for k in (1, 2)]
            v = interpolate_at_zero(pts, 23)
            assert v == (a0 + 11) % 23
            check = pow(2, v, 23) == commits.c[0]
            assert check == ((v - a0) % 11 == 0)
            assert check == (a0 < 12)


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=9))
@settings(max_examples=150, deadline=None)
def test_forged_acceptance_and_prediction_randomized(seed, m):
    params = gen_params(16, Mode.VULNERABLE, SplitMix64(seed))
    poly = sample_polynomial(2, params.p, SplitMix64(seed ^ 0xABCDEF))
    commits = commit(poly, params)
    strat = ForgeryStrategy(StrategyKind.ADD_P_MINUS_ONE, m)
    xs = (1, 2)
    values = [forged(poly, k, params, strat) for k in xs]
    assert all(verify_share(k, v, commits, params) for k, v in zip(xs, values))
    pts = [(k, v % params.p) for k, v in zip(xs, values)]
    assert interpolate_at_zero(pts, params.p) == (poly[0] - m) % params.p


def _o64():
    """h64's p and g with the field Z_p: a vulnerable group whose ord(g) = q
    is below p - 1, certified by (q,)."""
    h64 = get_params("h64")
    o64 = GroupParams(p=h64.p, g=h64.g, d=h64.d, mode=Mode.VULNERABLE)
    o64.validate(primes=(h64.d,))
    return o64


# every shape of group: each registry set, a generated group of each mode
# and o64
GAP_GROUPS = {
    **load_registry(),
    "gen32-vulnerable": gen_params(32, Mode.VULNERABLE, SplitMix64(1)),
    "gen32-hardened": gen_params(32, Mode.HARDENED, SplitMix64(1)),
    "o64": _o64(),
}


class TestGapLaw:
    """A share shifted by delta verifies iff ord(g) | delta, and leaves the
    rebuilt secret unchanged iff the field modulus | delta
    (reference_model.gap_law)."""

    @pytest.mark.parametrize("name", GAP_GROUPS)
    def test_a_shift_by_d_verifies_everywhere_and_corrupts_only_where_m_is_p(self, name):
        # the table: delta = d, p - 1 and m, on each group
        params = GAP_GROUPS[name]
        hardened = params.mode is Mode.HARDENED
        shifts = (params.d, params.p - 1, params.field_modulus)
        assert [gap_law(params, delta) for delta in shifts] == [
            (True, hardened), (True, hardened), (hardened, True)]

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_a_shifted_share_verifies_and_corrupts_as_the_law_says(self, data):
        params = GAP_GROUPS[data.draw(st.sampled_from(sorted(GAP_GROUPS)))]
        m = params.field_modulus
        t = data.draw(st.integers(2, 4))
        poly = sample_polynomial(t, m, SplitMix64(data.draw(st.integers(0, 2**64 - 1))))
        commits = commit(poly, params)
        row = [honest_share(poly, k, params) for k in range(1, t + 2)]
        multiple = st.integers(0, 5).map
        delta = data.draw(st.one_of(
            multiple(lambda z: z * params.d),
            multiple(lambda z: z * (params.p - 1)),
            multiple(lambda z: z * m),
            st.integers(0, 4 * params.p),
        ))
        k = data.draw(st.integers(1, t))
        row[k - 1] += delta
        verifies, harmless = gap_law(params, delta)
        assert verify_share(k, row[k - 1], commits, params) == verifies
        assert (interpolate(range(1, t + 1), row[:t], m)[0] == poly[0]) == harmless
        # the row check adds only the range rule v < q
        in_range = params.q is None or row[k - 1] < params.q
        assert verify_row(row, commits, params)[k - 1] == (verifies and in_range)

    @pytest.mark.parametrize("name", [name for name, params in GAP_GROUPS.items()
                                      if params.mode is Mode.HARDENED])
    def test_on_a_hardened_group_only_the_range_rule_refuses_a_q_shift(self, name):
        params = GAP_GROUPS[name]
        q = params.q
        for seed in range(10):
            poly = sample_polynomial(3, q, SplitMix64(seed))
            commits = commit(poly, params)
            row = [honest_share(poly, k, params) for k in range(1, 6)]
            row[1] += q
            # the exponent check accepts it, and admitted it would rebuild a0
            assert verify_share(2, row[1], commits, params)
            assert interpolate((1, 2, 3), row[:3], q)[0] == poly[0]
            assert verify_row(row, commits, params) == (True, False, True, True, True)

    @pytest.mark.parametrize("name", ["small11", "p23order11", "p23q11"])
    def test_every_accepted_value_is_the_share_plus_a_multiple_of_d(self, name):
        params = get_params(name)
        candidates = range(3 * params.p)
        for seed in range(5):
            poly = sample_polynomial(3, params.field_modulus, SplitMix64(seed))
            commits = commit(poly, params)
            for k in range(1, 6):
                share = exact_value(poly, k)
                assert [v for v in candidates if verify_share(k, v, commits, params)] == [
                    v for v in candidates if (v - share) % params.d == 0]
