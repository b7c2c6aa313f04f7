"""The benchmark's workloads: which ceremonies each one cycles through.

Plain data, importable without vsslab, so run.py, which judges the
library, never imports the code it measures. A ceremony *kind* is one
scenario configuration; a workload runs its kinds in a fixed cycle, each
ceremony with its own seed drawn from the reference table.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class Kind:
    """One ceremony configuration.

    scenario is a built-in scenario name or "partial-forgery" (party 1
    forges only to PARTIAL_FORGERY_TARGETS, then withholds). params is a
    registry name, or None for the scenario's default; bits, when set,
    asks for fresh parameters of that size instead, in the mode the
    `vsslab run --bits` CLI picks (hardened only for hardened-attack).
    """

    name: str
    scenario: str
    n: int
    t: int
    params: str | None = None
    bits: int | None = None


PARTIAL_FORGERY_TARGETS = (2, 5, 8, 11)

WORKLOADS: dict[str, tuple[Kind, ...]] = {
    # all n*C(n,t) subsets are enumerated: reconstruction, rendering and
    # audit dominate; four pool shapes (all pass, all fail, one short,
    # inconsistent but recoverable)
    "recon-enum": (
        Kind("honest", "honest", 12, 6, "v64"),
        Kind("false-share", "false-share", 12, 6, "v64"),
        Kind("withhold", "withhold", 12, 6, "v64"),
        Kind("partial-forgery", "partial-forgery", 12, 6, "v64"),
    ),
    # t close to n: one interpolation per dealer, the n^2 share checks
    # of the verification round dominate, in both modes
    "verify-wide": (
        Kind("honest-h64", "honest", 40, 40, "h64"),
        Kind("hardened-attack-h64", "hardened-attack", 40, 39, "h64"),
        Kind("honest-v64", "honest", 40, 40, "v64"),
    ),
    # parameter generation in every run and verify: random prime plus
    # factorize(p - 1), against the safe-prime search
    "fresh-params": (
        Kind("false-share", "false-share", 5, 3, bits=64),
        Kind("hardened-attack", "hardened-attack", 5, 3, bits=64),
    ),
    # the smallest point, for the self-test: every built-in scenario on
    # its default (smallest) registry set
    "selftest": (
        Kind("honest", "honest", 5, 3),
        Kind("false-share", "false-share", 5, 3),
        Kind("order-shift", "order-shift", 5, 3),
        Kind("withhold", "withhold", 5, 3),
        Kind("hardened-attack", "hardened-attack", 5, 3),
    ),
}

# ceremony seeds recorded per (workload, kind) in reference.json; a run
# walks a window of them chosen by its --seed and wraps around if it
# needs more
REFERENCE_SIZE = {"recon-enum": 64, "verify-wide": 32, "fresh-params": 512, "selftest": 8}


def _hash64(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def ceremony_seed(workload: str, kind: str, index: int) -> int:
    """The index-th recorded ceremony seed of a kind (a 64-bit value)."""
    return _hash64(f"perfbench/{workload}/{kind}/{index}")


def window_offset(workload: str, seed: int) -> int:
    """Where a run with this --seed starts in each kind's seed list."""
    return _hash64(f"perfbench-window/{workload}/{seed}") % REFERENCE_SIZE[workload]
