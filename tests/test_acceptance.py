"""Acceptance gate: seven criteria, each one test, exact values throughout.

Time budgets are asserted with wall-clock bounds (criterion 1 under one
second, criterion 2 under ten). Everything else is exact equality; no
tolerance bands apply to integer arithmetic.
"""

import itertools
import json
import time

import pytest

from vsslab.attack import ForgeryStrategy, StrategyKind
from vsslab.cli import main as cli_main
from vsslab.errors import ForgeryImpossible, TooLarge
from vsslab.numtheory import Mode
from vsslab.poly import (
    SecretPolynomial,
    horner,
    lagrange_zero,
    sample_polynomial,
)
from vsslab.protocol import GenSpec, Verdict, build_scenario, run_scenario
from vsslab.registry import get_params
from vsslab.rng import SplitMix64, substream
from vsslab.transcript import canonical_json
from vsslab.vss import (
    INTEGER_COMMITMENT_GUARD_BITS,
    PROJECTION_EXPONENT_LOG2,
    Share,
    commit,
    commit_integer,
    projected_bit_length,
    verify_share,
)


def test_criterion_1_pinned_worked_example():
    started = time.monotonic()
    params = get_params("small11")
    poly = SecretPolynomial(dealer=1, coeffs=(3, 4), field_modulus=11)

    commits = commit(poly, params)
    assert commits.c == (8, 5)

    honest = Share(dealer=1, recipient=2, value=11)
    assert horner(poly.coeffs, 2) == 11
    assert verify_share(honest, commits, params)

    forged = Share(dealer=1, recipient=2, value=21)
    assert verify_share(forged, commits, params)

    recovered = lagrange_zero([(1, 7), (2, 10)], 11)
    assert recovered == 4
    assert recovered != poly.secret == 3

    assert pow(2, recovered, 11) == 5
    assert commits.c[0] == 8
    assert pow(2, recovered, 11) != commits.c[0]

    assert time.monotonic() - started < 1.0


def test_criterion_2_honest_pipeline_two_hundred_runs():
    started = time.monotonic()
    n, t = 5, 3
    for seed in range(200):
        cfg = build_scenario(
            "honest", seed=seed, n=n, t=t, params_ref=GenSpec(bits=32, mode=Mode.VULNERABLE)
        )
        report = run_scenario(cfg)
        params = report.params

        # 100% verification pass
        assert all(all(row) for row in report.verification_matrix)

        # every t-subset of every dealer's shares lands exactly on the secret
        assert len(report.shares) == n
        for dealer, row in enumerate(report.shares, 1):
            assert [(s.dealer, s.recipient) for s in row] == [(dealer, k) for k in range(1, n + 1)]
            secret = sample_polynomial(t, params.p, dealer, substream(seed, dealer)).secret
            pts = [(s.recipient, s.value % params.p) for s in row]
            for subset in itertools.combinations(pts, t):
                assert lagrange_zero(list(subset), params.p) == secret

        # the assembled key matches the aggregate commitment
        assert report.verdict is Verdict.KEY_ASSEMBLED
        assert pow(params.g, report.group_key, params.p) == report.aggregate_public_key

    assert time.monotonic() - started < 10.0


def test_criterion_3_verification_congruence_law():
    # exhaustive side: p = 11, every recipient, every candidate in [0, 50)
    params = get_params("small11")
    poly = SecretPolynomial(dealer=1, coeffs=(3, 4), field_modulus=11)
    commits = commit(poly, params)
    for k in range(1, 11):
        honest = horner(poly.coeffs, k)
        for candidate in range(0, 50):
            share = Share(dealer=1, recipient=k, value=candidate)
            accepted = verify_share(share, commits, params)
            assert accepted == (candidate % params.d == honest % params.d), (k, candidate)

    # randomized side: 1000 cases with 64-bit candidates
    params64 = get_params("v64")
    rng = SplitMix64(0xC3)
    poly64 = sample_polynomial(3, params64.p, 1, SplitMix64(0xC4))
    commits64 = commit(poly64, params64)
    for _ in range(1000):
        k = rng.randrange(1, params64.p)
        candidate = rng.randbits(64)
        honest = horner(poly64.coeffs, k)
        share = Share(dealer=1, recipient=k, value=candidate)
        accepted = verify_share(share, commits64, params64)
        assert accepted == (candidate % params64.d == honest % params64.d)


def test_criterion_4_uniform_forgery_law():
    params = get_params("small11")
    for n in range(2, 8):
        for t in range(1, n + 1):
            poly = sample_polynomial(t, 11, 1, SplitMix64(n * 31 + t))
            for m in (1, 2, 3):
                shift = ForgeryStrategy(StrategyKind.ADD_P_MINUS_ONE, m).shift(params)
                forged = {k: (horner(poly.coeffs, k) + shift) % 11 for k in range(1, n + 1)}
                expected = (poly.secret - m) % 11
                for subset in itertools.combinations(range(1, n + 1), t):
                    pts = [(k, forged[k]) for k in subset]
                    assert lagrange_zero(pts, 11) == expected, (n, t, m, subset)


def test_criterion_5_hardened_impossibility():
    params = get_params("p23q11")
    assert (params.p, params.q, params.g) == (23, 11, 2)
    poly = SecretPolynomial(dealer=1, coeffs=(3, 4), field_modulus=11)
    commits = commit(poly, params)

    # exhaustive scan: the only accepted value below q is the honest one
    for k in range(1, 6):
        honest = horner(poly.coeffs, k) % 11
        accepted = [
            v
            for v in range(0, 11)
            if verify_share(Share(dealer=1, recipient=k, value=v), commits, params)
        ]
        assert accepted == [honest], k

    # and no strategy has a shift to offer
    for kind in StrategyKind:
        with pytest.raises(ForgeryImpossible):
            ForgeryStrategy(kind, 1).shift(params)


def test_criterion_6_integer_commitment_growth():
    # every executed row through a = 2**16 obeys bitlen(2**a) = a + 1
    chunk = 2048
    checked = 0
    for start in range(0, 65537, chunk):
        exps = tuple(range(start, min(start + chunk, 65537)))
        values = commit_integer(exps, g=2)
        for a, value in zip(exps, values):
            assert value == 1 << a
            assert value.bit_length() == a + 1
            checked += 1
    assert checked == 65537

    # the 1024-bit row is never executed, only projected, and is infeasible
    assert PROJECTION_EXPONENT_LOG2 == 1024
    projected = projected_bit_length(2, 1 << PROJECTION_EXPONENT_LOG2)
    assert projected > INTEGER_COMMITMENT_GUARD_BITS
    with pytest.raises(TooLarge):
        commit_integer((1 << PROJECTION_EXPONENT_LOG2,), g=2)
    assert projected == 2**1024 + 1
    assert projected > 10**308


def test_criterion_7_transcript_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["run", "--scenario", "false-share", "--seed", "7"]
    assert cli_main(argv + ["--out", str(a)]) == 2
    assert cli_main(argv + ["--out", str(b)]) == 2
    assert a.read_bytes() == b.read_bytes()

    # the verifier accepts the untouched transcript, and so the same
    # text re-rendered by the canonical_json every rewrite below uses
    assert cli_main(["verify", str(a)]) == 0
    c = tmp_path / "c.json"
    c.write_text(canonical_json(json.loads(a.read_text())))
    assert c.read_bytes() == a.read_bytes()
    assert cli_main(["verify", str(c)]) == 0

    # and rejects a single-byte edit of any recorded value
    doc = json.loads(a.read_text())
    edits = []
    for dealer, row in doc["shares"].items():
        for idx in range(len(row)):
            edits.append(("shares", (dealer, idx)))
    assert len(edits) == 25  # every one of the n**2 shares
    for dealer in doc["commitments"]:
        edits.append(("commitments", dealer))
    for dealer, rec in doc["reconstructions"].items():
        if rec["recovered"] is not None:
            edits.append(("reconstructions", dealer))

    tampered_fields = 0
    for section, where in edits:
        broken = json.loads(a.read_text())
        if section == "shares":
            dealer, idx = where
            row = broken["shares"][dealer]
            row[idx] = str(int(row[idx]) + 1)
        elif section == "commitments":
            vec = broken["commitments"][where]
            vec[0] = str((int(vec[0]) + 1) % 11)
        else:
            rec = broken["reconstructions"][where]
            rec["recovered"] = str((int(rec["recovered"]) + 1) % 11)
        c.write_text(canonical_json(broken))
        assert cli_main(["verify", str(c)]) == 1, (section, where)
        tampered_fields += 1
    assert tampered_fields >= 25  # all shares, all vectors, recovered values
