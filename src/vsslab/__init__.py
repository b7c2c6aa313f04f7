"""Desk-scale laboratory for Feldman-style verifiable secret sharing.

Exercises the gap between exponent arithmetic (mod the generator order)
and field arithmetic (mod p): shares forged by adding multiples of
p - 1 pass every commitment check yet corrupt reconstruction, letting a
dealer deny the group key. A hardened prime-order-subgroup mode makes
the same forgery impossible.

The package exports what a ceremony runs; every other name is imported
from its module (vsslab.poly, vsslab.vss, ...).
"""

from .attack import ForgeryStrategy, StrategyKind
from .errors import VsslabError
from .numtheory import GroupParams, Mode
from .protocol import (
    Behavior,
    BehaviorKind,
    GenSpec,
    ScenarioConfig,
    ScenarioReport,
    Verdict,
    assemble_group_key,
    build_scenario,
    run_dealing_round,
    run_scenario,
    run_verification_round,
)
from .registry import get_params, load_registry
from .transcript import audit_transcript, render_report
from .vss import aggregate_public_key

__version__ = "0.1.0"
