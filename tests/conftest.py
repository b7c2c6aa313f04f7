"""Shared fixtures plus the acceptance-criteria summary block."""

import re

import pytest
import sympy

from vsslab.registry import get_params

CRITERIA_LABELS = {
    1: "pinned worked example, exact values, under 1 s",
    2: "200 honest 32-bit runs, every subset exact, under 10 s",
    3: "acceptance equals congruence mod ord(g), zero exceptions",
    4: "uniform forgery lands on a0 - m for all subsets up to n = 7",
    5: "hardened parameters accept no forged value anywhere",
    6: "bitlen(2**a) = a + 1 through 2**16; 1024-bit row projected only",
    7: "byte-identical transcripts, any value tamper rejected",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one pass/fail line per acceptance criterion."""
    results = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            m = re.search(r"test_acceptance\.py::test_criterion_(\d+)", getattr(rep, "nodeid", ""))
            if not m:
                continue
            if getattr(rep, "when", "call") != "call" and outcome != "error":
                continue
            num = int(m.group(1))
            verdict = "PASS" if outcome == "passed" else "FAIL"
            if results.get(num) != "FAIL":
                results[num] = verdict
    if results:
        terminalreporter.write_sep("-", "acceptance criteria")
        for num in sorted(results):
            label = CRITERIA_LABELS.get(num, "")
            terminalreporter.write_line(f"criterion {num}: {results[num]}  ({label})")


@pytest.fixture
def share_checks(monkeypatch):
    """(dealer, recipient) of every per-share verify_share call verify_row makes."""
    import vsslab.vss as vss

    calls = []
    original = vss.verify_share

    def counting(share, commits, params):
        calls.append((share.dealer, share.recipient))
        return original(share, commits, params)

    monkeypatch.setattr(vss, "verify_share", counting)
    return calls


@pytest.fixture(scope="session")
def small11():
    # p=11, g=2 primitive root, d=10
    return get_params("small11")


@pytest.fixture(scope="session")
def p23order11():
    # p=23, g=2 has order 11 < 22, still run in vulnerable mode
    return get_params("p23order11")


@pytest.fixture(scope="session")
def p23q11():
    # hardened twin of the above: safe prime 23, subgroup order q=11
    return get_params("p23q11")


def brute_order(g: int, p: int) -> int:
    """Reference implementation of multiplicative order, linear scan."""
    acc = g % p
    for k in range(1, p):
        if acc == 1:
            return k
        acc = acc * g % p
    raise AssertionError(f"{g} is not a unit mod {p}")


def multiplicative_order(g: int, p: int) -> int:
    """Exact order of g mod the prime p: start from p - 1 and divide out
    each prime factor (sympy's factorization) while g**d stays 1."""
    d = p - 1
    for r in sympy.factorint(p - 1):
        while d % r == 0 and pow(g, d // r, p) == 1:
            d //= r
    return d
