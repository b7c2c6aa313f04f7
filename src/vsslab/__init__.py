"""Desk-scale laboratory for Feldman-style verifiable secret sharing.

Exercises the gap between exponent arithmetic (mod the generator order)
and field arithmetic (mod p): shares forged by adding multiples of
p - 1 pass every commitment check yet corrupt reconstruction, letting a
dealer deny the group key. A hardened prime-order-subgroup mode makes
the same forgery impossible.
"""

from .attack import ForgeryStrategy, StrategyKind
from .errors import VsslabError
from .numtheory import (
    GroupParams,
    Mode,
    gen_params,
    is_prime,
    mod_inv,
)
from .poly import (
    SecretPolynomial,
    horner,
    interpolate,
    lagrange_basis,
    lagrange_weights,
    lagrange_zero,
    sample_polynomial,
)
from .protocol import (
    SCENARIO_NAMES,
    Behavior,
    BehaviorKind,
    GenSpec,
    ScenarioConfig,
    ScenarioReport,
    Verdict,
    assemble_group_key,
    build_scenario,
    reconstruct_pool,
    run_dealing_round,
    run_scenario,
    run_verification_round,
)
from .registry import get_params, load_registry
from .rng import SplitMix64, substream
from .transcript import audit_transcript, canonical_json, render_report, report_to_dict
from .vss import (
    CommitmentVector,
    aggregate_public_key,
    commit,
    commit_integer,
    commitment_in_group,
    range_check,
    verify_row,
    verify_share,
)

__version__ = "0.1.0"
